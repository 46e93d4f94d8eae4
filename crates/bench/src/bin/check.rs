//! Differential checker and adversarial trace fuzzer.
//!
//! ```text
//! sttcache-check [--quick] [--seed N] [--cases N] [--events N]
//!                [--kind NAME|multicore|irregular] [--shrink] [--list-kinds]
//! ```
//!
//! Every generated trace runs alone on every catalog L1 D-cache
//! organization with the runtime invariant gate on; each run is drained
//! and audited against the trace's footprint: zero surviving dirty
//! state, the trace's exact event counts on the core, no resident line
//! the program never touched, and conserved shared-L2 traffic
//! (`check::audited_run`).
//!
//! `--quick` (the default with no `--seed`) runs a fixed-seed battery —
//! deterministic, a few seconds, suitable for CI. `--seed N` runs
//! `--cases` randomized cases per adversary family derived from `N`,
//! each derived when its turn comes. `--events` is at most 2^24.
//! Flags the run would ignore (`--seed` beside `--quick`, `--cases`
//! without `--seed`) and malformed values exit 2, naming the flag. A
//! flag that takes a value may be given once, a second exits 2 naming
//! it; `--kind` may be given twice only to pair one mode (`multicore`
//! or `irregular`) with one adversary family. A malformed `STTCACHE_*`
//! knob, or the retired `STTCACHE_TRACE_CACHE_BYTES` set to anything,
//! exits 2 naming the variable before any work, as in `figures` and
//! `sim`.
//! On failure the offending `(kind, seed, events)` triple is printed for
//! replay; `--shrink` additionally minimizes the first failing case —
//! the failing organization's one-core case, or the mix — by dropping
//! whole cores, then events, and prints what survives. Exit status 1 on
//! any failure.
//!
//! `--kind multicore` derives a random 2–4 core mix per case (per-core
//! adversarial traces, organizations and phase offsets), audits the
//! co-scheduled run the same way against each core's footprint, and
//! adds determinism and per-core isolated-run differentials. `--kind
//! irregular` swaps the adversarial generators for the workload
//! catalog's irregular pointer-chasing family: each case derives a
//! kernel/transform pick from the seed, records the kernel's
//! deterministic trace and checks it like an adversarial one.

use sttcache_bench::args::Args;
use sttcache_bench::check::{self, Adversary, Mode};

fn usage() -> ! {
    eprintln!(
        "usage: sttcache-check [--quick] [--seed N] [--cases N] [--events N] \
         [--kind NAME|multicore|irregular] [--shrink] [--list-kinds]"
    );
    std::process::exit(2);
}

fn main() {
    sttcache_bench::exit_on_stdout_error("sttcache-check");
    if let Err(e) = sttcache_bench::check_env_knobs() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut args = Args::from_env(usage);
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut cases = None;
    let mut events = 4000usize;
    let mut family = None;
    let mut shrink = false;
    let mut mode = None;
    while let Some(arg) = args.next_arg() {
        let flag = arg.as_str();
        match flag {
            "--quick" => quick = true,
            "--seed" => {
                let v = args.value(flag);
                let parsed = v.parse().ok();
                seed = Some(
                    parsed.unwrap_or_else(|| args.refuse(flag, Some(&v), "an unsigned integer")),
                );
            }
            "--cases" => {
                let v = args.value(flag);
                cases = Some(args.positive(flag, &v));
            }
            "--events" => {
                let v = args.value(flag);
                events = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=check::MAX_EVENTS).contains(n))
                    .unwrap_or_else(|| {
                        let expected = format!("an event count from 1 to {}", check::MAX_EVENTS);
                        args.refuse(flag, Some(&v), &expected)
                    });
            }
            "--kind" => {
                // A mode name switches the cross-check every family's
                // traces run through; any other name picks one family.
                // One of each may be given.
                let name = args.repeated_value(flag);
                let second = if let Some(m) = Mode::from_name(&name) {
                    mode.replace(m).map(|_| "mode")
                } else if let Some(kind) = Adversary::from_name(&name) {
                    family.replace(kind).map(|_| "family")
                } else {
                    args.refuse(flag, Some(&name), "one of the names from --list-kinds")
                };
                if let Some(what) = second {
                    args.reject(&format!(
                        "--kind: '{name}' is a second {what}; give at most one mode and one family"
                    ));
                }
            }
            "--shrink" => shrink = true,
            "--list-kinds" => {
                for k in Adversary::ALL {
                    println!("{}", k.name());
                }
                for name in Mode::ALL.into_iter().filter_map(Mode::name) {
                    println!("{name}");
                }
                return;
            }
            "-h" | "--help" => usage(),
            other => args.reject(&format!("unknown argument: {other}")),
        }
    }
    // Reject the flags this run would ignore, whatever their order.
    if quick && seed.is_some() {
        args.reject("--quick runs the fixed-seed battery and would ignore --seed");
    }
    if cases.is_some() && seed.is_none() {
        args.reject("--cases sizes a --seed run; the quick battery would ignore it");
    }
    let cases = cases.unwrap_or(4);
    let mode = mode.unwrap_or(Mode::Oracle);
    let kinds = family.map_or_else(|| Adversary::ALL.to_vec(), |kind| vec![kind]);

    // Each case is a (kind, seed) pair, derived when the loop reaches it:
    // the quick battery uses the fixed seeds, a randomized run derives
    // per-case seeds from the base seed.
    let quick_seeds = check::quick_seeds();
    let seeds = seed.map_or(quick_seeds.len(), |_| cases);
    let seed_of = |c: usize| match seed {
        None => quick_seeds[c],
        Some(base) => base.wrapping_add((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    };
    let total = seeds as u128 * kinds.len() as u128;
    let plan = (0..seeds)
        .map(seed_of)
        .flat_map(|s| kinds.iter().map(move |&k| (k, s)));

    let tag = mode
        .name()
        .map(|name| format!(" {name}"))
        .unwrap_or_default();
    let mut failures = Vec::new();
    for (n, (kind, s)) in plan.enumerate() {
        match check::run_case(mode, kind, s, events) {
            Ok(()) => println!(
                "[{:>3}/{total}] {:<17} seed {s:#018x} {tag} ok",
                n + 1,
                kind.name()
            ),
            Err(f) => {
                println!(
                    "[{:>3}/{total}] {:<17} seed {s:#018x} {tag} FAILED ({} finding(s))",
                    n + 1,
                    kind.name(),
                    f.failures.len()
                );
                failures.push((kind, s, f));
            }
        }
    }

    if failures.is_empty() {
        let orgs = check::all_organizations().len();
        match mode {
            Mode::Oracle => println!(
                "{total} traces x {orgs} organizations: all oracle, drain and invariant checks passed"
            ),
            Mode::Multicore => println!(
                "{total} multi-core mixes: determinism, isolated differentials, residency \
                 and conservation all passed"
            ),
            Mode::Irregular => println!(
                "{total} irregular traces x {orgs} organizations: all oracle, drain and \
                 invariant checks passed"
            ),
        }
        return;
    }

    eprintln!();
    for (kind, s, f) in &failures {
        let replay_kind = mode.name().unwrap_or(kind.name());
        eprintln!(
            "FAILURE: kind {}{tag} seed {s:#018x} events {events} (replay: sttcache-check --kind {replay_kind} --seed {s} --events {events} --cases 1)",
            kind.name(),
        );
        for msg in &f.failures {
            eprintln!("  {msg}");
        }
    }
    if shrink {
        let (kind, s, first) = &failures[0];
        eprintln!();
        eprintln!("shrinking kind {}{tag} seed {s:#018x} …", kind.name());
        let minimal = check::shrink_failure(first);
        eprintln!("minimal reproducer: {} core(s)", minimal.traces.len());
        for (idx, trace) in minimal.traces.iter().enumerate() {
            eprintln!(
                "  core {idx}: {} @{} — {} event(s)",
                minimal.orgs[idx].name(),
                minimal.offsets[idx],
                trace.len()
            );
            for e in trace.iter().take(64) {
                eprintln!("    {e:?}");
            }
            if trace.len() > 64 {
                eprintln!("    … and {} more", trace.len() - 64);
            }
        }
    }
    std::process::exit(1);
}
