//! `sim` — run one simulation with an arbitrary configuration and dump
//! gem5-style statistics.
//!
//! ```text
//! sim --bench gemm --org vwb --opts v+p+o [--size small] [--vwb-bits 4096]
//!     [--icache nvm] [--baseline] [--explain <org>] [--jobs N | --serial]
//! sim --trace-file recorded.trace --org vwb --baseline
//! ```
//!
//! * `--org`: any catalog CLI key (`sram` | `nvm` | `vwb` | `l0` |
//!   `emshr` | `hybrid`; see `sttcache::catalog`)
//! * `--opts`: `none` | `all` | any `+`-joined subset of `v`, `p`, `o`
//! * `--baseline`: additionally run the SRAM platform on the same binary
//!   and print the penalty. The measured and baseline simulations are
//!   independent, so they run through the sweep engine (two workers
//!   unless `--serial` / `--jobs 1` pins it down).
//! * `--explain <org>`: run `<org>` with the telemetry registry armed
//!   and append a penalty-attribution report — stall decomposition,
//!   buffer occupancy percentiles, per-bank write shares and the per-set
//!   wear map with its projected STT-MRAM lifetime — after the stats
//!   dump. Implies the SRAM baseline run.
//! * `--cores N`: run an N-core multi-programmed mix over one shared
//!   banked L2 (the default staggered kernel mix unless `--mix` names
//!   one). `--explain` then attributes per-core contention penalties and
//!   shared-bank conflict shares instead of the single-core report.
//! * `--mix <spec>`: the mix grammar is `workload[@offset][:org]` entries
//!   joined by `+`, e.g. `gemm:vwb+mvt@500:sram` or
//!   `gemm+file:recorded.trace@64:sram`; entries without `:org` use
//!   `--org`. Implies `--cores <entry count>`.
//! * `--l2-banks N`: bank the shared L2 `N` ways (multi-core only).
//! * A flag the selected run would ignore exits 2 and names the flag:
//!   `--vwb-bits` without `--org vwb`, `--l2-banks` on a single core, and
//!   `--bench`, `--trace-file`, `--baseline` or `--icache` on a
//!   multi-core run (name the mix's workloads with `--mix`).
//! * `--trace-file <path>`: replay a recorded trace file (written by
//!   `Trace::write_to`, e.g. the `trace_sweep` example) instead of a
//!   catalog kernel. The file is content-hashed into a workload identity
//!   and routed through the full replay stack — trace cache and result
//!   memo — exactly like a kernel-backed workload.

use sttcache::{
    DCacheOrganization, DlOneTechnology, IcacheConfig, Platform, PlatformConfig, RunResult,
    VwbConfig,
};
use sttcache_bench::{
    explain, multicore, parallel, trace_cache, workload, ProfileReport, SweepRunner,
};
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload};

struct Options {
    bench: Option<Workload>,
    org: DCacheOrganization,
    size: ProblemSize,
    opts: Transformations,
    icache: Option<IcacheConfig>,
    baseline: bool,
    profile: bool,
    explain: bool,
    cores: usize,
    mix: Option<String>,
    l2_banks: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim --bench <name> | --trace-file <path> [--org {}] [--size mini|small]\n\
         \x20          [--opts none|all|v+p+o subset] [--vwb-bits N] [--icache sram|nvm]\n\
         \x20          [--baseline] [--explain [org]] [--jobs N | --serial]\n\
         \x20          [--no-trace-cache] [--profile]\n\
         \x20          [--cores N] [--mix workload[@offset][:org]+...] [--l2-banks N]\n\
         workloads: {} or file:<path>",
        sttcache::catalog::catalog()
            .iter()
            .map(|e| e.cli)
            .collect::<Vec<_>>()
            .join("|"),
        catalog::catalog()
            .iter()
            .map(|w| w.cli)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn resolve_workload(token: &str) -> Workload {
    workload::resolve(token).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn parse_opts(spec: &str) -> Option<Transformations> {
    match spec {
        "none" => Some(Transformations::none()),
        "all" => Some(Transformations::all()),
        other => {
            let mut t = Transformations::none();
            for part in other.split('+') {
                match part {
                    "v" => t.vectorize = true,
                    "p" => t.prefetch = true,
                    "o" => t.others = true,
                    _ => return None,
                }
            }
            Some(t)
        }
    }
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = None;
    let mut org = "nvm".to_string();
    let mut size = ProblemSize::Mini;
    let mut opts = Transformations::none();
    let mut vwb_bits = None;
    let mut icache = None;
    let mut baseline = false;
    let mut profile = false;
    let mut explain = false;
    let mut cores = 1usize;
    let mut mix = None;
    let mut l2_banks = None;

    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = Some(resolve_workload(&next(&mut i))),
            "--trace-file" => {
                bench = Some(resolve_workload(&format!("file:{}", next(&mut i))));
            }
            "--org" => org = next(&mut i),
            "--size" => {
                size = match next(&mut i).as_str() {
                    "mini" => ProblemSize::Mini,
                    "small" => ProblemSize::Small,
                    _ => usage(),
                }
            }
            "--opts" => opts = parse_opts(&next(&mut i)).unwrap_or_else(|| usage()),
            "--vwb-bits" => vwb_bits = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--icache" => {
                let tech = match next(&mut i).as_str() {
                    "sram" => DlOneTechnology::Sram,
                    "nvm" => DlOneTechnology::SttMram,
                    _ => usage(),
                };
                icache = Some(IcacheConfig {
                    technology: tech,
                    ..IcacheConfig::default()
                });
            }
            "--baseline" => baseline = true,
            "--explain" => {
                explain = true;
                // The org operand is optional: bare `--explain` explains
                // the `--org` selection (or the whole mix when
                // `--cores`/`--mix` is in play).
                if let Some(arg) = args.get(i + 1) {
                    if !arg.starts_with("--") {
                        i += 1;
                        org = arg.clone();
                    }
                }
            }
            "--cores" => {
                cores = next(&mut i).parse().unwrap_or_else(|_| usage());
                if cores == 0 {
                    usage();
                }
            }
            "--mix" => mix = Some(next(&mut i)),
            "--l2-banks" => {
                let n: usize = next(&mut i).parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                l2_banks = Some(n);
            }
            "--no-trace-cache" => trace_cache::set_enabled(false),
            "--profile" => profile = true,
            "--serial" => parallel::set_jobs(1),
            "--jobs" => {
                let n: usize = next(&mut i).parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                parallel::set_jobs(n);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
        i += 1;
    }

    // Reject the flags this run would ignore. Checked after parsing, so
    // flag order does not matter: `--explain vwb` may select the VWB
    // after `--vwb-bits` was given.
    let multi = cores > 1 || mix.is_some();
    fn reject(why: &str) -> ! {
        eprintln!("{why}");
        usage()
    }
    if vwb_bits.is_some() && org != "vwb" {
        reject("--vwb-bits needs --org vwb");
    }
    if l2_banks.is_some() && !multi {
        reject("--l2-banks needs --cores N or --mix");
    }
    if multi && mix.is_none() && bench.is_some() {
        reject("--bench/--trace-file: the default multi-core mix ignores it (use --mix)");
    }
    if multi && baseline {
        reject("--baseline applies to single-core runs only");
    }
    if multi && icache.is_some() {
        reject("--icache applies to single-core runs only");
    }

    // `--vwb-bits` overrides the catalog's default VWB size; every other
    // key resolves straight from the catalog.
    let org = match org.as_str() {
        "vwb" => DCacheOrganization::NvmVwb(VwbConfig {
            capacity_bits: vwb_bits.unwrap_or(VwbConfig::default().capacity_bits),
            ..VwbConfig::default()
        }),
        key => {
            sttcache::by_cli(key)
                .unwrap_or_else(|| usage())
                .organization
        }
    };
    // Single-core runs need `--bench`; a multi-core mix names its own
    // kernels (the default mix if `--mix` is absent).
    if bench.is_none() && cores == 1 && mix.is_none() {
        usage();
    }
    Options {
        bench,
        org,
        size,
        opts,
        icache,
        baseline,
        profile,
        explain,
        cores,
        mix,
        l2_banks,
    }
}

/// The `--cores`/`--mix` path: one co-scheduled run over the shared
/// banked L2, per-core stats blocks, and (with `--explain`) per-core
/// contention attribution instead of the single-core wear report.
fn run_multicore(o: &Options) {
    let mix = match &o.mix {
        Some(spec) => multicore::MixSpec::parse(spec).unwrap_or_else(|e| {
            eprintln!("bad --mix: {e}");
            std::process::exit(2);
        }),
        None => multicore::MixSpec::default_mix(o.cores),
    };
    if o.mix.is_some() && o.cores > 1 && mix.cores() != o.cores {
        eprintln!(
            "--cores {} disagrees with the {}-entry --mix",
            o.cores,
            mix.cores()
        );
        std::process::exit(2);
    }
    if let Err(e) = multicore::mix_platform(&mix, o.org, o.l2_banks) {
        eprintln!("invalid configuration: {e}");
        std::process::exit(1);
    }
    println!(
        "# sim: {}-core mix {} over shared L2 ({:?}, opts {})",
        mix.cores(),
        mix.label(),
        o.size,
        o.opts
    );
    if o.explain {
        let e = multicore::explain_mix(&mix, o.org, o.size, o.opts, o.l2_banks);
        print!("{}", multicore::mix_stats_text(&e.result, &mix));
        println!();
        print!("{}", e.render());
    } else {
        let r = multicore::run_mix(&mix, o.org, o.size, o.opts, o.l2_banks);
        print!("{}", multicore::mix_stats_text(&r, &mix));
    }
}

fn main() {
    let o = parse_args();
    let start = std::time::Instant::now();
    if o.cores > 1 || o.mix.is_some() {
        run_multicore(&o);
    } else {
        run_single(&o);
    }
    if o.profile {
        eprint!("{}", ProfileReport::finish(start, Vec::new()).render_text());
    }
}

/// The single-core path: the measured run, the optional SRAM baseline
/// and the optional penalty attribution.
fn run_single(o: &Options) {
    let bench = o.bench.unwrap_or_else(|| usage());
    let mut cfg = PlatformConfig::new(o.org);
    cfg.icache = o.icache;
    if let Err(e) = Platform::with_config(cfg.clone()) {
        eprintln!("invalid configuration: {e}");
        std::process::exit(1);
    }

    // The measured run and the optional baseline are independent grid
    // points; the sweep engine shards them and hands the results back in
    // submission order. `--explain` instead runs the measured
    // organization on this thread with the telemetry registry armed (the
    // registry is thread-local, so a sweep worker's records would be
    // lost) and the SRAM baseline after it.
    let (results, explanation): (Vec<RunResult>, _) = if o.explain {
        let e = explain::explain(&cfg, bench, o.size, o.opts);
        (vec![e.result.clone(), e.baseline.clone()], Some(e))
    } else {
        let mut configs = vec![cfg];
        if o.baseline {
            let mut base_cfg = PlatformConfig::new(DCacheOrganization::SramBaseline);
            base_cfg.icache = o.icache;
            configs.push(base_cfg);
        }
        let results = SweepRunner::current().map_ok(&configs, |_, cfg| {
            trace_cache::run_config(cfg, bench, o.size, o.opts)
        });
        (results, None)
    };

    let result = &results[0];
    println!(
        "# sim: {} on {} ({:?}, opts {})",
        workload::label_of(bench),
        o.org.name(),
        o.size,
        o.opts
    );
    print!("{}", result.stats_text());

    if let Some(base) = results.get(1) {
        println!(
            "{:<40} {:>16.2} # percent vs SRAM baseline on the same binary",
            "penalty.vs_sram_pct",
            sttcache::penalty_pct(base.cycles(), result.cycles())
        );
    }

    if let Some(e) = &explanation {
        println!();
        print!("{}", e.render());
    }
}
