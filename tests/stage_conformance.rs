//! Conformance suite for the organization catalog.
//!
//! One parameterized battery over `sttcache::catalog`: every entry's
//! front-end — whatever list of line buffers it carries — must honor the
//! drain/verification contract, alone on one core and as a core-private
//! front-end above the shared L2. The contract is the checker's one
//! audit, `check::audited_run`, plus what this suite adds: the drain
//! writes something back, and an audited run neither reschedules the
//! cores nor perturbs the next run. Adding a catalog entry automatically
//! puts it under this suite; no per-organization test code.

use std::collections::BTreeMap;
use sttcache::catalog::catalog;
use sttcache::{CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig, Platform};
use sttcache_bench::check::{self, Footprint};
use sttcache_cpu::{Engine, Trace, TraceRecorder};
use sttcache_mem::{Addr, CacheProbe};

/// A deterministic mixed access pattern: strided reads, writes and
/// prefetch hints with re-use.
fn pattern() -> Trace {
    let mut rec = TraceRecorder::with_capacity(400);
    for i in 0..400u64 {
        let addr = Addr((i * 7919) % 4096 * 8);
        if i % 17 == 0 {
            rec.prefetch(addr);
        } else if i % 3 == 0 {
            rec.store(addr, 8);
        } else {
            rec.load(addr, 8);
        }
    }
    rec.into_trace()
}

/// Stores to 40 lines that share one DL1 set and one L2 set (128 KiB
/// apart), then a load of each, then a store to the last line and one to
/// the first. Every level evicts dirty lines, so both write buffers take
/// entries; a VWB, which the loads filled, absorbs the first of the two
/// stores and misses the second, which closes a coalescing run.
fn dirty_evictions() -> Trace {
    let mut rec = TraceRecorder::with_capacity(82);
    for k in 0..40u64 {
        rec.store(Addr(k << 17), 8);
    }
    for k in 0..40u64 {
        rec.load(Addr(k << 17), 8);
    }
    rec.store(Addr(39 << 17), 8);
    rec.store(Addr(0), 8);
    rec.into_trace()
}

/// `org` alone on one core.
fn single_core(org: DCacheOrganization) -> MultiPlatform {
    MultiPlatform::new(MultiPlatformConfig::homogeneous(org, 1))
        .expect("catalog organizations validate")
}

/// `org` as core 0 beside a staggered SRAM baseline over the shared L2.
fn above_shared_level(org: DCacheOrganization) -> MultiPlatform {
    MultiPlatform::new(MultiPlatformConfig::new(vec![
        CoreSpec::new(org),
        CoreSpec::staggered(DCacheOrganization::SramBaseline, 97),
    ]))
    .expect("catalog organizations validate")
}

/// Both mountings of `org`.
fn platforms(org: DCacheOrganization) -> [MultiPlatform; 2] {
    [single_core(org), above_shared_level(org)]
}

/// The whole contract for one platform running `trace` on every core:
/// the audit finds nothing (the armed gate stays silent, the drain
/// leaves zero dirty state, every core ran its trace's events, every
/// surviving line sits in the stripe of a core whose program touched it,
/// and the shared L2's traffic is conserved), the drain writes back, and
/// nothing is left behind that perturbs a following run.
fn assert_stage_contract(name: &str, platform: &MultiPlatform, trace: &Trace) {
    let cores = platform.config().cores.len();
    let name = format!("{name} on {cores} core(s)");
    let traces = vec![trace; cores];
    let footprint = Footprint::of(trace);

    let before = platform.run_traces(&traces);
    let audited = check::audited_run(platform, &traces, &vec![&footprint; cores]);
    assert!(
        audited.findings.is_empty(),
        "{name}: {:#?}",
        audited.findings
    );
    assert!(
        audited.flushed_lines > 0,
        "{name}: the pattern stores, a drain must write back"
    );

    // The audited run schedules identically and leaves nothing behind: a
    // following run reproduces the first bit-for-bit.
    assert!(
        audited
            .result
            .cores
            .iter()
            .zip(&before.cores)
            .all(|(a, b)| a.cycles() == b.cycles()),
        "{name}: the audit changed the schedule"
    );
    let after = platform.run_traces(&traces);
    assert_eq!(before, after, "{name}: state leaked across runs");
}

/// The stage contract, one organization at a time, alone on one core.
#[test]
fn every_catalog_organization_honors_the_stage_contract() {
    let trace = pattern();
    for org in catalog().into_iter().map(|e| e.organization) {
        assert_stage_contract(org.name(), &single_core(org), &trace);
    }
}

/// The same stage contract with the organization mounted as a
/// *core-private* front-end above the shared L2: for every catalog
/// entry, a two-core platform (the entry on core 0, the SRAM baseline
/// on core 1) must honor it too.
#[test]
fn every_organization_honors_the_contract_above_the_shared_level() {
    let trace = pattern();
    for org in catalog().into_iter().map(|e| e.organization) {
        assert_stage_contract(org.name(), &above_shared_level(org), &trace);
    }
}

/// Marks each of `probe`'s instruments, named under `level`, as having
/// recorded if it holds a sample.
fn note_cache_probe(seen: &mut BTreeMap<String, bool>, level: &str, probe: &CacheProbe) {
    for (name, recorded) in [
        ("set_writes", probe.set_writes.total() > 0),
        ("bank_writes", probe.bank_writes.total() > 0),
        (
            "bank_conflict_cycles",
            probe.bank_conflict_cycles.total() > 0,
        ),
        ("mshr_occupancy", probe.mshr_occupancy.total > 0),
        ("write_buffer_depth", probe.write_buffer_depth.total > 0),
    ] {
        *seen.entry(format!("{level}.{name}")).or_default() |= recorded;
    }
}

/// Probing is observation-only: every catalog organization runs
/// bit-identically probed and plain, alone on one core (DL1, buffers and
/// store buffer probed) and in both multi-core mountings (shared L2
/// probed). Across the traces, every instrument records.
#[test]
fn telemetry_armed_runs_leave_every_organization_unchanged() {
    let mut seen = BTreeMap::new();
    for trace in [pattern(), dirty_evictions()] {
        for entry in catalog() {
            let name = entry.organization.name();
            let platform =
                Platform::new(entry.organization).expect("catalog organizations validate");
            let (probed, probes) = platform.run_trace_probed(&trace);
            assert_eq!(
                probed,
                platform.run_trace(&trace),
                "{name}: probing changed the run"
            );
            note_cache_probe(&mut seen, "dl1", &probes.dl1);
            assert_eq!(probes.buffers.len(), probed.buffers.len(), "{name}");
            for (stage, probe) in probed.buffers.iter().zip(&probes.buffers) {
                *seen.entry(format!("{}.depth", stage.kind)).or_default() |= probe.depth.total > 0;
                *seen.entry("buffer.coalesce_run".into()).or_default() |=
                    probe.coalesce_run.total > 0;
            }
            *seen.entry("store_buffer.depth".into()).or_default() |=
                probes.store_buffer_depth.total > 0;

            for platform in platforms(entry.organization) {
                let traces = vec![&trace; platform.config().cores.len()];
                let (probed, l2) = platform.run_traces_probed(&traces);
                assert_eq!(
                    probed,
                    platform.run_traces(&traces),
                    "{name}: probing changed the run"
                );
                note_cache_probe(&mut seen, "l2", &l2);
            }
        }
    }
    let silent: Vec<&String> = seen.iter().filter(|(_, &r)| !r).map(|(k, _)| k).collect();
    assert!(
        silent.is_empty(),
        "instruments that never recorded: {silent:?}"
    );
}
