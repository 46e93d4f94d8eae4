//! End-to-end equivalence of the trace-cache execution path.
//!
//! Every catalog organization × PolyBench kernel × transformation set
//! must produce the identical [`RunResult`] — core report and full
//! hierarchy statistics — whether the simulation runs the kernel directly
//! or replays the shared cached trace, and so must the hand-built
//! hierarchies the extension studies drive. This is the
//! byte-identical-output guarantee the figures depend on.
//!
//! [`RunResult`]: sttcache::RunResult

use std::fmt::Debug;
use sttcache::{
    l2_config, nvm_dl1_config, nvm_il1_config, sram_dl1_config, DCacheOrganization, FrontEnd,
    Platform, PlatformConfig, StageSpec, VwbConfig,
};
use sttcache_bench::{check, extensions, trace_cache};
use sttcache_cpu::{Core, CoreConfig, CoreReport, DataPort, Engine, FetchUnit, MemPort};
use sttcache_mem::{Cache, Cycle, MainMemory, MemoryLevel, NextLinePrefetcher, Shared};
use sttcache_workloads::{PolyBench, ProblemSize, Transformations, Workload};

/// none, all, and each transformation alone.
fn transform_sets() -> [Transformations; 5] {
    let mut v = Transformations::none();
    v.vectorize = true;
    let mut p = Transformations::none();
    p.prefetch = true;
    let mut o = Transformations::none();
    o.others = true;
    [Transformations::none(), Transformations::all(), v, p, o]
}

#[test]
fn cached_replay_matches_direct_on_every_kernel_and_transform() {
    let size = ProblemSize::Mini;
    for org in check::all_organizations() {
        for bench in PolyBench::ALL {
            for t in transform_sets() {
                let kernel = bench.kernel(size);
                let direct = Platform::new(org)
                    .expect("canonical configuration")
                    .run(|e: &mut dyn Engine| kernel.run(e, t));
                let cached = trace_cache::run_config(&PlatformConfig::new(org), bench, size, t);
                assert_eq!(
                    direct,
                    cached,
                    "cached replay diverged on {}/{}/{t}",
                    org.name(),
                    bench.name()
                );
                assert_eq!(
                    direct.stats_text(),
                    cached.stats_text(),
                    "stats report diverged on {}/{}/{t}",
                    org.name(),
                    bench.name()
                );
            }
        }
    }
}

/// Repeating a grid point answers from the result memo with the identical
/// result — memoization is invisible to callers.
#[test]
fn repeated_grid_points_are_memoized_and_identical() {
    let cfg = PlatformConfig::new(DCacheOrganization::NvmDropIn);
    let args = (PolyBench::Mvt, ProblemSize::Mini, Transformations::all());
    let first = trace_cache::run_config(&cfg, args.0, args.1, args.2);
    let hits_before = trace_cache::result_memo_hits();
    let second = trace_cache::run_config(&cfg, args.0, args.1, args.2);
    assert_eq!(first, second);
    assert!(trace_cache::result_memo_hits() > hits_before);
}

/// Distinct organizations replay the *same* shared recording: repeated
/// lookups of one (kernel, transformation) key return the identical
/// `Arc<Trace>` allocation, not a re-recording.
#[test]
fn organizations_share_one_recording_per_kernel() {
    let bench = PolyBench::Trisolv;
    let size = ProblemSize::Mini;
    // A transformation set no other test in this binary uses, so the
    // first lookup here is the recording one.
    let mut t = Transformations::none();
    t.vectorize = true;
    t.prefetch = true;
    let first = trace_cache::cached_trace(bench, size, t);
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::NvmDropIn,
        DCacheOrganization::nvm_vwb_default(),
        DCacheOrganization::nvm_l0_default(),
    ] {
        trace_cache::run_config(&PlatformConfig::new(org), bench, size, t);
    }
    let again = trace_cache::cached_trace(bench, size, t);
    assert!(
        std::sync::Arc::ptr_eq(&first, &again),
        "the recording was not shared"
    );
}

/// Runs `w` on two fresh cores from `build`, one replaying the shared
/// trace through [`trace_cache::drive`] and one executing the kernel
/// directly, and asserts that `finish` reads the same from both.
fn assert_replay_matches_direct<P: DataPort, R: PartialEq + Debug>(
    w: Workload,
    topology: &str,
    build: impl Fn() -> Core<P>,
    finish: impl Fn(Core<P>) -> R,
) {
    let (size, t) = (ProblemSize::Mini, Transformations::none());
    let mut replayed = build();
    trace_cache::drive(&mut replayed, w, size, t);
    let mut direct = build();
    w.kernel(size)
        .expect("the extension mix is kernel-backed")
        .run(&mut direct, t);
    assert_eq!(
        finish(replayed),
        finish(direct),
        "{topology}: replay diverged on {}",
        w.label()
    );
}

/// The core's report, then `drain` applied to its port at the end of the
/// run.
fn report_and_drain<P: DataPort>(
    mut core: Core<P>,
    drain: impl FnOnce(P, Cycle) -> (usize, Cycle),
) -> (CoreReport, (usize, Cycle)) {
    let end = core.now();
    let report = core.report();
    (report, drain(core.into_port(), end))
}

fn l2_over_memory() -> Cache<MainMemory> {
    Cache::new(l2_config().expect("canonical l2"), MainMemory::new(100))
}

/// The extension studies drive hand-built hierarchies that never pass
/// through `run_config`, so `STTCACHE_TRACE_CHECK` cannot see them:
/// replay must match direct execution on each one, core report and
/// drain alike.
#[test]
fn hand_built_hierarchies_replay_like_direct_execution() {
    for w in extensions::ext_mix() {
        // Ext. 1: an IL1 and a VWB-fronted NVM DL1 over one shared L2.
        assert_replay_matches_direct(
            w,
            "unified l2",
            || {
                let l2 = Shared::new(l2_over_memory());
                let il1 = Cache::new(nvm_il1_config().expect("canonical il1"), l2.clone());
                let dl1 = Cache::new(nvm_dl1_config().expect("canonical dl1"), l2);
                let fe = FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1)
                    .expect("canonical vwb");
                let mut core = Core::new(CoreConfig::default(), fe);
                core.attach_fetch_unit(FetchUnit::new(Box::new(il1), 16 * 1024));
                core
            },
            |core| report_and_drain(core, |mut fe, end| fe.flush_dirty(end)),
        );
        // Ext. 2: a hardware next-line prefetcher inside the NVM DL1.
        assert_replay_matches_direct(
            w,
            "next-line prefetcher",
            || {
                let dl1 = Cache::new(nvm_dl1_config().expect("canonical dl1"), l2_over_memory());
                Core::new(
                    CoreConfig::default(),
                    MemPort::new(NextLinePrefetcher::new(dl1)),
                )
            },
            |mut core| {
                let report = core.report();
                let pf = core.into_port().into_inner();
                let dl1 = pf.inner();
                (
                    report,
                    *pf.prefetcher_stats(),
                    *dl1.stats(),
                    dl1.dirty_lines(),
                )
            },
        );
        // Ext. 6: the sleep-entry drains of the SRAM DL1 and of the VWB.
        assert_replay_matches_direct(
            w,
            "sram sleep entry",
            || {
                let dl1 = Cache::new(sram_dl1_config().expect("canonical dl1"), l2_over_memory());
                Core::new(CoreConfig::default(), MemPort::new(dl1))
            },
            |core| report_and_drain(core, |port, end| port.into_inner().flush_dirty(end)),
        );
        assert_replay_matches_direct(
            w,
            "vwb sleep entry",
            || {
                let dl1 = Cache::new(nvm_dl1_config().expect("canonical dl1"), l2_over_memory());
                let vwb = FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1)
                    .expect("canonical vwb");
                Core::new(CoreConfig::default(), vwb)
            },
            |core| report_and_drain(core, |mut vwb, end| vwb.flush_buffers(end)),
        );
    }
}
