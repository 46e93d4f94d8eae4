//! Differential oracle checker and adversarial trace fuzzer.
//!
//! ```text
//! sttcache-check [--quick] [--seed N] [--cases N] [--events N]
//!                [--kind NAME|multicore|irregular] [--shrink] [--list-kinds]
//! ```
//!
//! Every generated trace runs on every catalog L1 D-cache organization with
//! the runtime invariant gate on; each run is mirrored into the
//! functional shadow oracle, drained, and cross-checked, and the
//! timing-independent signatures of all organizations must match the
//! SRAM baseline's exactly.
//!
//! `--quick` (the default with no `--seed`) runs a fixed-seed battery —
//! deterministic, a few seconds, suitable for CI. `--seed N` runs
//! `--cases` randomized cases per adversary family derived from `N`.
//! On failure the offending `(kind, seed, events)` triple is printed for
//! replay; `--shrink` additionally minimizes the first failing trace and
//! prints the surviving events. Exit status 1 on any failure.
//!
//! `--kind multicore` derives a random 2–4 core mix per case (per-core
//! adversarial traces, organizations and phase offsets) and cross-checks
//! the co-scheduled run against per-core isolated runs, the per-core
//! shadow oracles and the shared-level residency/conservation audit;
//! `--shrink` drops whole cores before ddmin-shrinking the survivors'
//! events. `--kind irregular` swaps the adversarial generators for the
//! workload catalog's irregular pointer-chasing family: each case
//! derives a kernel/transform pick from the seed, records the kernel's
//! deterministic trace and runs it through the oracle differential.

use sttcache_bench::check::{self, Adversary, Mode};

fn usage() -> ! {
    eprintln!(
        "usage: sttcache-check [--quick] [--seed N] [--cases N] [--events N] \
         [--kind NAME|multicore|irregular] [--shrink] [--list-kinds]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: Option<u64> = None;
    let mut cases = 4usize;
    let mut events = 4000usize;
    let mut kinds: Vec<Adversary> = Adversary::ALL.to_vec();
    let mut shrink = false;
    let mut mode = Mode::Oracle;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => seed = None,
            "--seed" => {
                i += 1;
                let n: u64 = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an unsigned integer");
                    usage()
                });
                seed = Some(n);
            }
            "--cases" => {
                i += 1;
                cases = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--cases needs a positive integer");
                        usage()
                    });
            }
            "--events" => {
                i += 1;
                events = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--events needs a positive integer");
                        usage()
                    });
            }
            "--kind" => {
                i += 1;
                let name = args.get(i).map_or("", String::as_str);
                // A mode name switches the cross-check every family's
                // traces run through; any other name picks one family.
                if let Some(m) = Mode::from_name(name) {
                    mode = m;
                } else if let Some(kind) = Adversary::from_name(name) {
                    kinds = vec![kind];
                } else {
                    eprintln!("--kind needs one of the names from --list-kinds");
                    usage()
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
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }

    // One (kind, seed) plan per case: the quick battery uses the fixed
    // seeds; a randomized run derives per-case seeds from the base seed.
    let mut plan: Vec<(Adversary, u64)> = Vec::new();
    match seed {
        None => {
            for s in check::quick_seeds() {
                for &k in &kinds {
                    plan.push((k, s));
                }
            }
        }
        Some(base) => {
            for c in 0..cases as u64 {
                let s = base.wrapping_add(c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for &k in &kinds {
                    plan.push((k, s));
                }
            }
        }
    }

    let total = plan.len();
    let tag = mode
        .name()
        .map(|name| format!(" {name}"))
        .unwrap_or_default();
    let mut failures = Vec::new();
    for (n, (kind, s)) in plan.into_iter().enumerate() {
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
                failures.push(f);
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
    for f in &failures {
        let replay_kind = mode.name().unwrap_or(f.kind.name());
        eprintln!(
            "FAILURE: kind {}{tag} seed {:#018x} events {} (replay: sttcache-check --kind {} --seed {} --events {} --cases 1)",
            f.kind.name(),
            f.seed,
            f.events,
            replay_kind,
            f.seed,
            f.events
        );
        for msg in &f.failures {
            eprintln!("  {msg}");
        }
    }
    if shrink {
        let first = &failures[0];
        eprintln!();
        eprintln!(
            "shrinking kind {}{tag} seed {:#018x} …",
            first.kind.name(),
            first.seed
        );
        if mode == Mode::Multicore {
            let minimal = check::shrink_multicore_failure(first);
            eprintln!("minimal reproducer: {} core(s)", minimal.traces.len());
            for (idx, trace) in minimal.traces.iter().enumerate() {
                eprintln!(
                    "  core {idx}: {} @{} — {} event(s)",
                    minimal.orgs[idx].name(),
                    minimal.offsets[idx],
                    trace.len()
                );
                for e in trace.events().iter().take(16) {
                    eprintln!("    {e:?}");
                }
                if trace.len() > 16 {
                    eprintln!("    … and {} more", trace.len() - 16);
                }
            }
        } else {
            let minimal = check::shrink_failure(first);
            eprintln!("minimal reproducer: {} event(s)", minimal.len());
            for e in minimal.events().iter().take(64) {
                eprintln!("  {e:?}");
            }
            if minimal.len() > 64 {
                eprintln!("  … and {} more", minimal.len() - 64);
            }
        }
    }
    std::process::exit(1);
}
