//! Single-core equivalence: a 1-core `MultiPlatform` must reproduce the
//! single-core `Platform` bit-for-bit, so the multi-core path can never
//! drift from the paper's numbers.
//!
//! The composition argument: `MultiPlatform`'s hierarchy is
//! `Cache<Shared<Cache<MainMemory>>>`, and `Shared` forwards every
//! `MemoryLevel` call the DL1 makes (`read`, `write`) verbatim — for a
//! single accessor the shared tail is transparent. The
//! scheduler's lowest-`(now, index)` rule degenerates to in-order replay
//! with one core: the scheduler replays a core in batches up to the next
//! core's clock, and with no other core the whole trace is one batch.
//! These tests pin both claims empirically across the full catalog ×
//! kernel × transform grid.

use sttcache::catalog::catalog;
use sttcache::{CoreSpec, MultiPlatform, MultiPlatformConfig, Platform, PlatformConfig};
use sttcache_bench::trace_cache;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// Full grid: every catalog organization × every PolyBench kernel ×
/// untransformed and fully transformed. The per-core `RunResult` must be
/// *equal*, field for field — cycles, stall decomposition, every cache
/// and stage counter, and the energy report.
#[test]
fn one_core_multiplatform_matches_platform_everywhere() {
    for entry in catalog() {
        let single = Platform::new(entry.organization).unwrap();
        let multi =
            MultiPlatform::new(MultiPlatformConfig::homogeneous(entry.organization, 1)).unwrap();
        for bench in PolyBench::ALL {
            for transforms in [Transformations::none(), Transformations::all()] {
                let trace = trace_cache::cached_trace(bench, ProblemSize::Mini, transforms);
                let reference = single.run_trace(&trace);
                let mc = multi.run_traces(&[&trace]);
                assert_eq!(mc.cores.len(), 1);
                assert_eq!(
                    mc.cores[0],
                    reference,
                    "{} / {} / {}",
                    entry.organization.name(),
                    bench.name(),
                    transforms.label()
                );
                // The shared totals are the single L2/memory totals.
                assert_eq!(mc.shared_l2, reference.l2);
                assert_eq!(mc.memory, reference.memory);
            }
        }
    }
}

/// Overrides must flow through identically: a 1-core `MultiPlatform`
/// with DL1/L2 geometry overrides matches a `Platform` configured the
/// same way (this is also the knob the contention property tests use).
#[test]
fn one_core_equivalence_holds_under_overrides() {
    let l2 = sttcache_mem::CacheConfig::builder()
        .capacity_bytes(512 * 1024)
        .associativity(8)
        .read_cycles(12)
        .write_cycles(12)
        .banks(2)
        .build()
        .unwrap();
    let org = sttcache::DCacheOrganization::nvm_vwb_default();
    let mut pc = PlatformConfig::new(org);
    pc.l2_override = Some(l2);
    let single = Platform::with_config(pc).unwrap();
    let mut mc = MultiPlatformConfig::new(vec![CoreSpec::new(org)]);
    mc.l2_override = Some(l2);
    let multi = MultiPlatform::new(mc).unwrap();
    let trace =
        trace_cache::cached_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::all());
    assert_eq!(
        multi.run_traces(&[&trace]).cores[0],
        single.run_trace(&trace)
    );
}

/// `MultiPlatform::isolated_config` is the exact single-core equivalent:
/// running a core's trace on it reproduces that core's functional event
/// counts (the timing-independent part) from any co-scheduled run.
#[test]
fn isolated_config_reproduces_functional_counts() {
    let multi = MultiPlatform::new(MultiPlatformConfig::new(vec![
        CoreSpec::new(sttcache::DCacheOrganization::SramBaseline),
        CoreSpec::staggered(sttcache::DCacheOrganization::nvm_vwb_default(), 500),
    ]))
    .unwrap();
    let a = trace_cache::cached_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::none());
    let b = trace_cache::cached_trace(PolyBench::Mvt, ProblemSize::Mini, Transformations::none());
    let mixed = multi.run_traces(&[&a, &b]);
    for (idx, trace) in [&a, &b].into_iter().enumerate() {
        let iso = Platform::with_config(multi.isolated_config(idx))
            .unwrap()
            .run_trace(trace);
        assert_eq!(mixed.cores[idx].core.instructions, iso.core.instructions);
        assert_eq!(mixed.cores[idx].core.loads, iso.core.loads);
        assert_eq!(mixed.cores[idx].core.stores, iso.core.stores);
    }
}
