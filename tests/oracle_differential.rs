//! Differential oracle regression tests.
//!
//! Every PolyBench kernel, untransformed and fully transformed, runs on
//! every catalog L1 D-cache organization with the invariant gate on; each
//! run is mirrored into the functional shadow oracle, drained, and
//! cross-checked, and every organization's timing-independent signature
//! must equal the SRAM baseline's. A deliberate MSHR-leak mutation
//! proves the tooling actually catches the bug class it exists for, and
//! an injected replay defect proves the shrinker reduces a failure to
//! its culprit event.

use sttcache::{DCacheOrganization, Platform};
use sttcache_bench::check;
use sttcache_bench::testkit::DEFAULT_SEED;
use sttcache_bench::trace_cache;
use sttcache_cpu::{Trace, TraceEvent};
use sttcache_mem::{invariants, LineAddr, MshrFile};
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// The full kernel grid, replayed from the shared trace cache: zero
/// oracle mismatches, zero invariant violations, and identical
/// functional signatures across every organization.
#[test]
fn every_kernel_matches_the_oracle_on_every_organization() {
    for bench in PolyBench::ALL {
        for transforms in [Transformations::none(), Transformations::all()] {
            let trace = trace_cache::cached_trace(bench, ProblemSize::Mini, transforms);
            let label = format!("{}/{}", bench.name(), transforms.label());
            let report = check::check_trace(&label, &trace);
            assert!(report.passed(), "{label}: {:#?}", report.failures);
        }
    }
}

/// The trace cache must hand back the exact stream a direct recording
/// produces — and the differential check must hold on the fresh
/// recording too (the cache is an optimization, never a semantic).
#[test]
fn direct_recording_matches_the_cached_trace() {
    for bench in &PolyBench::ALL[..3] {
        let fresh = trace_cache::record_trace(*bench, ProblemSize::Mini, Transformations::all());
        let cached = trace_cache::cached_trace(*bench, ProblemSize::Mini, Transformations::all());
        assert_eq!(fresh, *cached, "{}: cache altered the stream", bench.name());
        let report = check::check_trace(&format!("{}/fresh", bench.name()), &fresh);
        assert!(report.passed(), "{}: {:#?}", bench.name(), report.failures);
    }
}

/// Mutation test (the acceptance criterion): inject the MSHR-leak bug —
/// an allocation whose fill never completes — and require a structured
/// report naming the component, the cycle and the line address.
#[test]
fn injected_mshr_leak_is_caught_with_a_structured_report() {
    let _ = invariants::take_violations(); // clean thread-local slate
    let mut mshrs = MshrFile::new(4);
    // The injected bug: probe_or_allocate without the matching complete().
    let _ = mshrs.probe_or_allocate(LineAddr(0x40), 10);
    assert_eq!(mshrs.unfinished_allocations(), 1);
    mshrs.check_drained(500);
    let (violations, total) = invariants::take_violations();
    assert_eq!(total, 1, "exactly the injected leak must be reported");
    let v = &violations[0];
    assert_eq!(v.component, "mshr");
    assert_eq!(v.cycle, 500);
    assert_eq!(v.addr, Some(0x40));
    assert!(
        v.detail.contains("leaked") && v.detail.contains("never completed"),
        "report must say what went wrong: {v}"
    );
}

/// Replays `trace` through `platform` twice — once intact, once with the
/// events matching `dropped` stripped, the injected replay defect — and
/// reports whether the two results differ.
fn diverges_when_dropping(
    platform: &Platform,
    events: &[TraceEvent],
    dropped: fn(&TraceEvent) -> bool,
) -> bool {
    let trace = check::trace_from_events(events);
    let stripped: Trace = trace
        .events()
        .iter()
        .copied()
        .filter(|e| !dropped(e))
        .collect();
    platform.run_trace(&trace) != platform.run_trace(&stripped)
}

/// Mutation test for the shrinker: a replay defect that silently drops
/// prefetch events must make [`Platform::run_trace`] diverge on the plain
/// drop-in organization, and [`check::shrink_events`] (ddmin) must reduce
/// the failing adversarial trace to a single prefetch event.
#[test]
fn ddmin_shrinks_an_injected_replay_defect_to_one_prefetch() {
    let platform =
        Platform::new(DCacheOrganization::NvmDropIn).expect("canonical organization validates");
    let is_prefetch = |e: &TraceEvent| matches!(e, TraceEvent::Prefetch { .. });
    let diverges = |events: &[TraceEvent]| diverges_when_dropping(&platform, events, is_prefetch);

    let trace = check::adversarial_trace(check::Adversary::PrefetchStorm, DEFAULT_SEED, 200);
    assert!(
        diverges(trace.events()),
        "the injected defect must trip the differential"
    );
    let minimal = check::shrink_events(trace.events(), diverges);
    assert_eq!(minimal.len(), 1, "ddmin should isolate one culprit event");
    assert!(
        is_prefetch(&minimal[0]),
        "the culprit must be a prefetch, got {:?}",
        minimal[0]
    );
}

/// The same shrinker mutation test behind a front-end stage: a replay
/// defect that drops stores must make the VWB organization diverge, and
/// ddmin must reduce the failing write-burst trace to a single store.
#[test]
fn ddmin_shrinks_a_vwb_replay_divergence_to_one_store() {
    let platform =
        Platform::new(DCacheOrganization::nvm_vwb_default()).expect("organization validates");
    let is_store = |e: &TraceEvent| matches!(e, TraceEvent::Store { .. });
    let diverges = |events: &[TraceEvent]| diverges_when_dropping(&platform, events, is_store);

    let trace = check::adversarial_trace(check::Adversary::AliasWriteBurst, DEFAULT_SEED, 200);
    assert!(
        diverges(trace.events()),
        "the injected defect must trip the differential"
    );
    let minimal = check::shrink_events(trace.events(), diverges);
    assert_eq!(minimal.len(), 1, "ddmin should isolate one culprit event");
    assert!(
        is_store(&minimal[0]),
        "the culprit must be a store, got {:?}",
        minimal[0]
    );
}

/// The adversarial generators double as regressions: the fixed quick
/// seeds must stay clean for every family (this is the same battery
/// `sttcache-check --quick` runs in CI, at a lighter event count).
#[test]
fn quick_adversarial_battery_is_clean() {
    for kind in check::Adversary::ALL {
        for seed in check::quick_seeds() {
            if let Err(f) = check::run_case(check::Mode::Oracle, kind, seed, 1200) {
                panic!("{} seed {seed:#x} failed: {:#?}", f.kind.name(), f.failures);
            }
        }
    }
}
