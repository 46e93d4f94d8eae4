//! Byte-identity of multi-core runs across execution modes.
//!
//! A `MultiPlatform` run is single-threaded by construction (the shared
//! L2 is `!Send`), so a whole N-core run is one sweep work item; these
//! tests pin the resulting guarantee — the same mix produces the same
//! `MultiRunResult`, field for field, regardless of worker count,
//! whether its traces are cached or freshly recorded, or armed
//! invariant/telemetry observers — mirroring the byte-identity guarantee
//! the single-core figures pipeline has.

use std::sync::Arc;
use sttcache::{CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig, MultiRunResult};
use sttcache_bench::{trace_cache, SweepRunner};
use sttcache_cpu::Trace;
use sttcache_mem::{invariants, telemetry};
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// The reference mix: two different kernels on two different private
/// organizations, staggered.
fn mix_platform() -> MultiPlatform {
    MultiPlatform::new(MultiPlatformConfig::new(vec![
        CoreSpec::new(DCacheOrganization::nvm_vwb_default()),
        CoreSpec::staggered(DCacheOrganization::SramBaseline, 333),
    ]))
    .unwrap()
}

fn mix_traces() -> (Arc<Trace>, Arc<Trace>) {
    (
        trace_cache::cached_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::none()),
        trace_cache::cached_trace(PolyBench::Mvt, ProblemSize::Mini, Transformations::all()),
    )
}

fn run_mix(p: &MultiPlatform, a: &Trace, b: &Trace) -> MultiRunResult {
    p.run_traces(&[a, b])
}

/// Serial vs parallel, any worker count: the same mix dispatched as
/// sweep work items under 1, 2, 4 and 8 workers reproduces the
/// serial-loop results exactly, in order.
#[test]
fn identical_across_any_worker_count() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let items: Vec<usize> = (0..6).collect();
    let reference: Vec<MultiRunResult> = items.iter().map(|_| run_mix(&p, &a, &b)).collect();
    for workers in [1, 2, 4, 8] {
        let runner = if workers == 1 {
            SweepRunner::serial()
        } else {
            SweepRunner::with_workers(workers)
        };
        let got = runner.map_ok(&items, |_, _| run_mix(&p, &a, &b));
        assert_eq!(got, reference, "{workers} workers diverged from serial");
    }
}

/// A mix replayed from freshly recorded traces is bit-identical to the
/// same mix replayed from the shared cache.
#[test]
fn identical_with_fresh_and_cached_traces() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let reference = run_mix(&p, &a, &b);
    let fresh_a =
        trace_cache::record_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::none());
    let fresh_b =
        trace_cache::record_trace(PolyBench::Mvt, ProblemSize::Mini, Transformations::all());
    assert_eq!(run_mix(&p, &fresh_a, &fresh_b), reference);
}

/// Armed invariant checkers are observation-only: byte-identical
/// results, and a clean audited run reports zero violations.
#[test]
fn identical_with_invariants_armed_and_clean() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let reference = run_mix(&p, &a, &b);
    let _ = invariants::take_violations();
    invariants::set_enabled(true);
    let armed = run_mix(&p, &a, &b);
    let (_, audited_audit) = p.run_traces_audited(&[&a, &b]);
    invariants::set_enabled(false);
    let (violations, total) = invariants::take_violations();
    assert_eq!(armed, reference, "armed invariants changed the result");
    assert_eq!(total, 0, "clean mix reported violations: {violations:#?}");
    assert_eq!(audited_audit.dirty_after_drain, 0);
}

/// Armed telemetry is observation-only: byte-identical results, with
/// per-core DL1 components recorded under distinct names.
#[test]
fn identical_with_telemetry_armed() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let reference = run_mix(&p, &a, &b);
    let _ = telemetry::take();
    telemetry::set_enabled(true);
    let armed = run_mix(&p, &a, &b);
    telemetry::set_enabled(false);
    let snapshot = telemetry::take();
    assert_eq!(armed, reference, "armed telemetry changed the result");
    let components: Vec<&str> = snapshot.indexed.keys().map(|&(c, _)| c).collect();
    assert!(
        components.iter().any(|c| c.starts_with("core0.")),
        "no per-core DL1 telemetry recorded: {components:?}"
    );
}

/// Repeated runs of the same mix are identical — including through an
/// audited (drain + phantom-check) run in between, which must not
/// mutate platform state.
#[test]
fn repeated_runs_are_identical() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let first = run_mix(&p, &a, &b);
    let _ = p.run_traces_audited(&[&a, &b]);
    let second = run_mix(&p, &a, &b);
    assert_eq!(first, second);
}
