//! Regenerates the paper's tables and figures as text.
//!
//! ```text
//! figures [table1|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ext|catalog|multicore|irregular|all]
//!         [--small] [--csv] [--jobs N | --serial]
//!         [--profile] [--telemetry-json PATH]
//! ```
//!
//! Defaults to `all` at the mini problem size; `--small` runs the larger
//! figure-generation size; `--csv` emits machine-readable output for the
//! per-benchmark figures, and refuses `--profile` and `--telemetry-json`
//! (exit 2 naming the flag), which time only the text artifacts. Sweeps
//! shard across worker threads
//! (`STTCACHE_THREADS` or the machine's parallelism); `--jobs N` pins the
//! worker count and `--serial` forces one worker, and the two together
//! exit 2 naming both. Output is byte-identical
//! at every worker count — results merge by grid index, not completion
//! order. A malformed or missing flag value exits 2 naming the flag and
//! the value.
//!
//! Grid points replay through the record-once/replay-many trace cache.
//! A malformed `STTCACHE_THREADS`, `STTCACHE_TRACE_CHECK` or
//! `STTCACHE_INVARIANTS`, or any value of the retired
//! `STTCACHE_TRACE_CACHE_BYTES`, exits 2 naming the variable before any
//! work. Both host-time exports come from the one recording in
//! `sttcache_bench::profile`, and stdout stays byte-identical in every
//! mode: `--profile` prints per-phase wall-clock (record/replay), the
//! trace cache's hit, miss and release counts with its resident and peak
//! bytes, and per-artifact timings to stderr, and `--telemetry-json PATH`
//! arms span recording only (no model instrument: those belong to the
//! one run `sim --explain` probes) and writes one Chrome `trace_event`
//! span per trace-cache phase and per printed artifact to PATH, loadable
//! in `chrome://tracing`/Perfetto. PATH is
//! created before any sweep runs: one that cannot be written exits 1
//! naming it, having printed nothing.

use std::fs::File;
use std::io::Write;
use sttcache_bench::figures::{self, Artifact};
use sttcache_bench::{parallel, profile, ProfileReport};
use sttcache_workloads::ProblemSize;

fn usage() -> ! {
    eprintln!(
        "usage: figures [table1|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ext|catalog|multicore|irregular|all] \
         [--small] [--csv] [--jobs N | --serial] [--profile] [--telemetry-json PATH]"
    );
    std::process::exit(2);
}

/// Refuses `flag`'s value (`None` when the value is missing), naming
/// both before the usage line.
fn refuse(flag: &str, value: Option<&str>, expected: &str) -> ! {
    match value {
        Some(value) => eprintln!("{flag}: '{value}' is not {expected}"),
        None => eprintln!("{flag}: missing value"),
    }
    usage()
}

/// Names `path` and the error that kept the telemetry JSON out of it,
/// then exits 1.
fn telemetry_write_failed(path: &str, e: &std::io::Error) -> ! {
    eprintln!("cannot write telemetry JSON to {path}: {e}");
    std::process::exit(1);
}

fn main() {
    sttcache_bench::exit_on_stdout_error("figures");
    if let Err(e) = sttcache_bench::check_env_knobs() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut size = ProblemSize::Mini;
    let mut what: Option<&str> = None;
    let mut csv = false;
    let mut profile_text = false;
    let mut telemetry_json: Option<String> = None;
    let mut serial = false;
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // The value after `flag`, moving `i` onto it.
        let mut value = || {
            i += 1;
            args.get(i)
                .map_or_else(|| refuse(flag, None, ""), String::as_str)
        };
        match flag {
            "--small" => size = ProblemSize::Small,
            "--csv" => csv = true,
            "--serial" => serial = true,
            "--jobs" => {
                let n = value();
                let parsed = n.parse().ok().filter(|&n| n > 0);
                jobs = Some(parsed.unwrap_or_else(|| refuse(flag, Some(n), "a positive integer")));
            }
            "--profile" => profile_text = true,
            "--telemetry-json" => telemetry_json = Some(value().to_string()),
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
            other => {
                if let Some(first) = what {
                    eprintln!("extra argument '{other}' after '{first}': one artifact per run");
                    usage();
                }
                what = Some(other);
            }
        }
        i += 1;
    }
    let what = what.unwrap_or("all");
    // Worker-count flags apply to every sweep this process runs.
    match (serial, jobs) {
        (true, Some(_)) => {
            eprintln!("--serial and --jobs both set the worker count: give one");
            usage();
        }
        (true, None) => parallel::set_jobs(1),
        (false, Some(n)) => parallel::set_jobs(n),
        (false, None) => {}
    }
    if csv && profile_text {
        eprintln!("--profile times the text artifacts; --csv would ignore it");
        usage();
    }
    if csv && telemetry_json.is_some() {
        eprintln!("--telemetry-json traces the text artifacts; --csv would ignore it");
        usage();
    }
    if csv {
        if figures::print_csv(what, size) {
            return;
        }
        eprintln!("'{what}' has no CSV form (use a fig1-fig9 artifact)");
        std::process::exit(2);
    }

    // `all` is the committed paper output; any other name picks one
    // artifact, including the opt-in sweeps `all` leaves out.
    let selected: Vec<Artifact> = if what == "all" {
        figures::artifacts().to_vec()
    } else {
        let found = figures::artifacts()
            .into_iter()
            .chain(figures::opt_in_artifacts())
            .find(|(name, _)| *name == what);
        let Some(artifact) = found else {
            eprintln!("unknown figure '{what}'");
            usage();
        };
        vec![artifact]
    };
    // Open PATH before any sweep runs, so a bad path costs no simulation,
    // then arm span recording only: the spans time the same code a plain
    // run executes. Stdout stays byte-identical — the spans go to PATH.
    let telemetry = telemetry_json.map(|path| match File::create(&path) {
        Ok(file) => {
            profile::arm();
            (path, file)
        }
        Err(e) => telemetry_write_failed(&path, &e),
    });
    let start = std::time::Instant::now();
    let timed: Vec<(&'static str, f64)> = selected
        .into_iter()
        .map(|(name, print)| profile::time_artifact(name, || print(size)))
        .collect();

    if profile_text {
        eprint!("{}", ProfileReport::finish(start, timed).render_text());
    }

    if let Some((path, mut file)) = telemetry {
        let (events, dropped) = profile::drain_spans();
        let json = profile::export_chrome_json(&events, dropped);
        if let Err(e) = file.write_all(json.as_bytes()) {
            telemetry_write_failed(&path, &e);
        }
        eprintln!(
            "telemetry: wrote {} spans to {path} (chrome://tracing format)",
            events.len()
        );
    }
}
