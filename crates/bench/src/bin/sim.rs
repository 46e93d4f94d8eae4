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
//! * `--explain <org>`: run `<org>` probed (its DL1, buffers and store
//!   buffer record the report's instruments; every other run leaves
//!   them unarmed) and append a penalty-attribution report — stall
//!   decomposition, buffer occupancy percentiles, per-bank write shares
//!   and the per-set wear map with its projected STT-MRAM lifetime —
//!   after the stats dump. Implies the SRAM baseline run.
//! * `--cores N`: run an N-core multi-programmed mix over one shared
//!   banked L2 (the default staggered kernel mix unless `--mix` names
//!   one); N runs from 1 to `MAX_CORES` (8), else exit 2. `--explain`
//!   then attributes per-core contention penalties and, from the probed
//!   shared L2, shared-bank conflict shares instead of the single-core
//!   report.
//! * `--mix <spec>`: the mix grammar is `workload[@offset][:org]` entries
//!   joined by `+`, e.g. `gemm:vwb+mvt@500:sram` or
//!   `gemm+file:recorded.trace@64:sram`; entries without `:org` use
//!   `--org`. Implies `--cores <entry count>`.
//! * `--l2-banks N`: bank the shared L2 `N` ways (multi-core only). `N`
//!   must be a power of two (else exit 2); an L2 with more banks than
//!   lines is an invalid configuration (exit 1).
//! * A flag the selected run would ignore exits 2 and names the flag:
//!   `--vwb-bits` without `--org vwb`, `--l2-banks` on a single core, and
//!   `--bench`, `--trace-file`, `--baseline` or `--icache` on a
//!   multi-core run (name the mix's workloads with `--mix`).
//! * Two flags that pick the same thing exit 2 naming both, in either
//!   order: `--serial` and `--jobs` (the worker count), `--bench` and
//!   `--trace-file` (the workload), and `--org` and `--explain <org>`
//!   (the organization). A flag that takes a value may be given once; a
//!   second exits 2 naming it (`--bench given twice`). A flag value that
//!   does not parse, or a missing one, exits 2 naming the flag and the
//!   value (`--size: 'huge' is not mini|small`, `--mix: missing
//!   value`).
//! * A configuration the model refuses exits 1 naming it, e.g. a VWB of
//!   more than 1024 lines.
//! * `--trace-file <path>`: replay a recorded trace file (written by
//!   `Trace::write_to`, e.g. the `trace_sweep` example) instead of a
//!   catalog kernel. The file is content-hashed into a workload identity
//!   and routed through the full replay stack — trace cache and result
//!   memo — exactly like a kernel-backed workload. A trace that runs for
//!   0 cycles has no penalty: `--baseline` and `--explain` exit 2 naming
//!   the file before printing anything.
//! * A malformed `STTCACHE_THREADS`, `STTCACHE_TRACE_CHECK` or
//!   `STTCACHE_INVARIANTS`, or any value of the retired
//!   `STTCACHE_TRACE_CACHE_BYTES`, exits 2 naming the variable before any
//!   work.

use sttcache::{
    DCacheOrganization, DlOneTechnology, Platform, PlatformConfig, RunResult, VwbConfig, MAX_CORES,
};
use sttcache_bench::args::Args;
use sttcache_bench::{explain, multicore, trace_cache, workload, ProfileReport, SweepRunner};
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload};

struct Options {
    bench: Option<Workload>,
    org: DCacheOrganization,
    size: ProblemSize,
    opts: Transformations,
    icache: Option<DlOneTechnology>,
    baseline: bool,
    profile: bool,
    explain: bool,
    cores: usize,
    mix: Option<String>,
    l2_banks: Option<usize>,
}

/// The organization keys `--org` and `--explain` accept.
fn org_keys() -> String {
    sttcache::catalog::catalog()
        .iter()
        .map(|e| e.cli)
        .collect::<Vec<_>>()
        .join("|")
}

fn usage() -> ! {
    eprintln!(
        "usage: sim --bench <name> | --trace-file <path> [--org {}] [--size mini|small]\n\
         \x20          [--opts none|all|v+p+o subset] [--vwb-bits N] [--icache sram|nvm]\n\
         \x20          [--baseline] [--explain [org]] [--jobs N | --serial] [--profile]\n\
         \x20          [--cores N] [--mix workload[@offset][:org]+...] [--l2-banks N]\n\
         workloads: {} or file:<path>",
        org_keys(),
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
    let mut args = Args::from_env(usage);
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
    let mut serial = false;
    let mut jobs = None;

    while let Some(arg) = args.next_arg() {
        let flag = arg.as_str();
        match flag {
            "--bench" => bench = Some(args.value(flag)),
            "--trace-file" => bench = Some(format!("file:{}", args.value(flag))),
            "--org" => org = args.value(flag),
            "--size" => {
                let value = args.value(flag);
                size = match value.as_str() {
                    "mini" => ProblemSize::Mini,
                    "small" => ProblemSize::Small,
                    _ => args.refuse(flag, Some(&value), "mini|small"),
                }
            }
            "--opts" => {
                let value = args.value(flag);
                opts = parse_opts(&value).unwrap_or_else(|| {
                    args.refuse(flag, Some(&value), "none|all|a +-joined subset of v, p, o")
                });
            }
            "--vwb-bits" => {
                let value = args.value(flag);
                let bits = value.parse();
                vwb_bits =
                    Some(bits.unwrap_or_else(|_| args.refuse(flag, Some(&value), "a bit count")));
            }
            "--icache" => {
                let value = args.value(flag);
                icache = Some(match value.as_str() {
                    "sram" => DlOneTechnology::Sram,
                    "nvm" => DlOneTechnology::SttMram,
                    _ => args.refuse(flag, Some(&value), "sram|nvm"),
                });
            }
            "--baseline" => baseline = true,
            "--explain" => {
                explain = true;
                // The org operand is optional: bare `--explain` explains
                // the `--org` selection (or the whole mix when
                // `--cores`/`--mix` is in play).
                if args.peek().is_some_and(|next| !next.starts_with("--")) {
                    org = args.value(flag);
                }
            }
            "--cores" => {
                // Checked here, before the default mix is sized by it.
                let value = args.value(flag);
                cores = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=MAX_CORES).contains(n))
                    .unwrap_or_else(|| {
                        let expected = format!("a core count from 1 to {MAX_CORES}");
                        args.refuse(flag, Some(&value), &expected)
                    });
            }
            "--mix" => mix = Some(args.value(flag)),
            "--l2-banks" => {
                let value = args.value(flag);
                let banks = args.positive(flag, &value);
                if !banks.is_power_of_two() {
                    args.refuse(flag, Some(&value), "a power of two");
                }
                l2_banks = Some(banks);
            }
            "--profile" => profile = true,
            "--serial" => serial = true,
            "--jobs" => {
                let value = args.value(flag);
                jobs = Some(args.positive(flag, &value));
            }
            "--help" | "-h" => usage(),
            other => args.reject(&format!("unknown argument '{other}'")),
        }
    }

    // Two flags that pick the same thing are refused together, like
    // `--serial` with `--jobs`, before either is acted on.
    if args.given("--bench") && args.given("--trace-file") {
        args.reject("--bench and --trace-file both name the workload: give one");
    }
    if args.given("--org") && args.given("--explain") {
        args.reject("--org and --explain <org> both pick the organization: give one");
    }
    let bench = bench.map(|token| resolve_workload(&token));
    // The flag that chose `org`, named if the key is unknown.
    let org_flag = if args.given("--explain") {
        "--explain"
    } else {
        "--org"
    };

    // Reject the flags this run would ignore. Checked after parsing, so
    // flag order does not matter: `--explain vwb` may select the VWB
    // after `--vwb-bits` was given.
    let multi = cores > 1 || mix.is_some();
    if vwb_bits.is_some() && org != "vwb" {
        args.reject("--vwb-bits needs --org vwb");
    }
    if l2_banks.is_some() && !multi {
        args.reject("--l2-banks needs --cores N or --mix");
    }
    if multi && mix.is_none() && bench.is_some() {
        args.reject("--bench/--trace-file: the default multi-core mix ignores it (use --mix)");
    }
    if multi && baseline {
        args.reject("--baseline applies to single-core runs only");
    }
    if multi && icache.is_some() {
        args.reject("--icache applies to single-core runs only");
    }
    args.set_workers(serial, jobs);

    // `--vwb-bits` overrides the catalog's default VWB size; every other
    // key resolves straight from the catalog.
    let org = match org.as_str() {
        "vwb" => DCacheOrganization::NvmVwb(VwbConfig {
            capacity_bits: vwb_bits.unwrap_or(VwbConfig::default().capacity_bits),
            ..VwbConfig::default()
        }),
        key => {
            sttcache::by_cli(key)
                .unwrap_or_else(|| args.refuse(org_flag, Some(key), &org_keys()))
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
    sttcache_bench::exit_on_stdout_error("sim");
    if let Err(e) = sttcache_bench::check_env_knobs() {
        eprintln!("{e}");
        std::process::exit(2);
    }
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
    // organization probed, returning its instruments beside its result,
    // and the SRAM baseline after it.
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
    // Only an external trace can run for no cycles at all; a penalty
    // against it is undefined.
    if results.get(1).is_some_and(|base| base.cycles() == 0) {
        eprintln!(
            "{} runs for 0 cycles, so it has no penalty vs the SRAM baseline",
            workload::label_of(bench)
        );
        std::process::exit(2);
    }

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
