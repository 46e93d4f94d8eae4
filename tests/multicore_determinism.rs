//! Byte-identity of multi-core runs across execution modes.
//!
//! A `MultiPlatform` run is single-threaded by construction (the shared
//! L2 is `!Send`), so a whole N-core run is one sweep work item; these
//! tests pin the resulting guarantee — the same mix produces the same
//! `MultiRunResult`, field for field, regardless of worker count,
//! whether its traces are cached or freshly recorded, armed invariant
//! checkers or a probed shared L2 — mirroring the byte-identity guarantee
//! the single-core figures pipeline has.

use std::sync::Arc;
use sttcache::{CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig, MultiRunResult};
use sttcache_bench::{trace_cache, SweepRunner};
use sttcache_cpu::{Engine, Trace, TraceRecorder};
use sttcache_mem::{invariants, Addr};
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

/// A probed shared L2 is observation-only: byte-identical results, with
/// every L2 instrument recording across the reference mix and a mix
/// whose first core streams stores through one L2 set (128 KiB apart),
/// so the L2 evicts dirty lines into its write buffer.
#[test]
fn identical_with_telemetry_armed() {
    let p = mix_platform();
    let (a, b) = mix_traces();
    let mut rec = TraceRecorder::with_capacity(40);
    for k in 0..40u64 {
        rec.store(Addr(k << 17), 8);
    }
    let evicting = rec.into_trace();
    let mut recorded = [false; 5];
    for first in [&*a, &evicting] {
        let (probed, l2) = p.run_traces_probed(&[first, &b]);
        assert_eq!(probed, run_mix(&p, first, &b), "probing changed the result");
        for (seen, now) in recorded.iter_mut().zip([
            l2.set_writes.total() > 0,
            l2.bank_writes.total() > 0,
            l2.bank_conflict_cycles.total() > 0,
            l2.mshr_occupancy.total > 0,
            l2.write_buffer_depth.total > 0,
        ]) {
            *seen |= now;
        }
    }
    assert_eq!(recorded, [true; 5], "an L2 instrument never recorded");
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
