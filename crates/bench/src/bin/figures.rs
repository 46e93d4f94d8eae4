//! Regenerates the paper's tables and figures as text.
//!
//! ```text
//! figures [table1|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ext|catalog|multicore|irregular|all]
//!         [--small] [--csv] [--jobs N | --serial]
//!         [--no-trace-cache] [--profile] [--profile-json PATH] [--telemetry-json PATH]
//! ```
//!
//! Defaults to `all` at the mini problem size; `--small` runs the larger
//! figure-generation size; `--csv` emits machine-readable output for the
//! per-benchmark figures. Sweeps shard across worker threads
//! (`STTCACHE_THREADS` or the machine's parallelism); `--jobs N` pins the
//! worker count and `--serial` forces one worker. Output is byte-identical
//! at every worker count — results merge by grid index, not completion
//! order.
//!
//! Grid points execute through the record-once/replay-many trace cache
//! (`STTCACHE_TRACE_CACHE_BYTES` caps its memory); `--no-trace-cache`
//! reverts to direct kernel execution — same output either way, only the
//! speed differs. `--profile` prints per-phase wall-clock
//! (record/replay/direct), cache hit/miss counts and per-figure timings
//! to stderr, and `--profile-json PATH` writes the same data as JSON;
//! stdout stays
//! byte-identical in every mode. `--telemetry-json PATH` arms the span
//! tracer and the component telemetry gate (`STTCACHE_TELEMETRY`) and
//! writes one Chrome `trace_event` span per trace-cache phase and per
//! printed artifact to PATH, loadable in `chrome://tracing`/Perfetto.

use sttcache_bench::{figures, parallel, profile, spans, trace_cache, SweepRunner};
use sttcache_workloads::ProblemSize;

fn usage() -> ! {
    eprintln!(
        "usage: figures [table1|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ext|catalog|multicore|irregular|all] \
         [--small] [--csv] [--jobs N | --serial] [--no-trace-cache] \
         [--profile] [--profile-json PATH] [--telemetry-json PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let size = if args.iter().any(|a| a == "--small") {
        ProblemSize::Small
    } else {
        ProblemSize::Mini
    };

    // Worker-count flags apply to every sweep this process runs.
    let mut what: Option<&str> = None;
    let mut csv = false;
    let mut profile_text = false;
    let mut profile_json: Option<String> = None;
    let mut telemetry_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--small" => {}
            "--csv" => csv = true,
            "--serial" => parallel::set_jobs(1),
            "--jobs" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                parallel::set_jobs(n);
            }
            "--no-trace-cache" => trace_cache::set_enabled(false),
            "--profile" => profile_text = true,
            "--profile-json" => {
                i += 1;
                profile_json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--telemetry-json" => {
                i += 1;
                telemetry_json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
            other => what = Some(other),
        }
        i += 1;
    }
    let what = what.unwrap_or("all");
    let profiling = profile_text || profile_json.is_some();
    // Span tracing rides the timed artifact path; arm it (and the
    // component telemetry gate, for overhead realism) before any sweep
    // runs. Stdout stays byte-identical — all telemetry goes to PATH.
    if telemetry_json.is_some() {
        spans::arm();
        sttcache_mem::telemetry::set_enabled(true);
    }
    let tracing = telemetry_json.is_some();

    if csv {
        if figures::print_csv(what, size) {
            return;
        }
        eprintln!("'{what}' has no CSV form (use a fig1-fig9 artifact)");
        std::process::exit(2);
    }

    let start = std::time::Instant::now();
    let timed: Vec<(&'static str, f64)> = match what {
        "all" if profiling || tracing => figures::print_all_timed(size),
        "all" => {
            figures::print_all(size);
            Vec::new()
        }
        // The catalog sweep is opt-in only: it is not part of `all`, so
        // the committed figures output stays stable as the catalog grows.
        "catalog" => {
            let t0 = std::time::Instant::now();
            figures::print_catalog(size);
            vec![("catalog", t0.elapsed().as_secs_f64())]
        }
        // Opt-in for the same reason as `catalog`.
        "multicore" => {
            let t0 = std::time::Instant::now();
            figures::print_multicore(size);
            vec![("multicore", t0.elapsed().as_secs_f64())]
        }
        // Opt-in for the same reason as `catalog`: the irregular family
        // grows independently of the committed `all` output.
        "irregular" => {
            let t0 = std::time::Instant::now();
            figures::print_irregular(size);
            vec![("irregular", t0.elapsed().as_secs_f64())]
        }
        single => {
            let printer = figures::artifacts()
                .into_iter()
                .find(|(name, _)| *name == single)
                .map(|(_, print)| print)
                .unwrap_or_else(|| {
                    eprintln!("unknown figure '{single}'");
                    usage();
                });
            let t0 = std::time::Instant::now();
            printer(size);
            vec![(
                // `artifacts` names are 'static; re-borrow the matching one.
                figures::artifacts()
                    .iter()
                    .find(|(name, _)| *name == single)
                    .expect("found above")
                    .0,
                t0.elapsed().as_secs_f64(),
            )]
        }
    };

    if profiling {
        let report = profile::ProfileReport {
            figures: timed,
            total_seconds: start.elapsed().as_secs_f64(),
            workers: SweepRunner::current().workers(),
            cache_enabled: trace_cache::enabled(),
            phases: profile::snapshot(),
        };
        if profile_text {
            eprint!("{}", report.render_text());
        }
        if let Some(path) = profile_json {
            if let Err(e) = std::fs::write(&path, report.render_json()) {
                eprintln!("cannot write profile JSON to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = telemetry_json {
        let (events, dropped) = spans::drain();
        let json = spans::export_chrome_json(&events, dropped);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write telemetry JSON to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "telemetry: wrote {} spans to {path} (chrome://tracing format)",
            events.len()
        );
    }
}
