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

use sttcache::catalog::catalog;
use sttcache::{CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig};
use sttcache_bench::check::{self, Footprint};
use sttcache_cpu::{Engine, Trace, TraceRecorder};
use sttcache_mem::{telemetry, Addr};

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
    for entry in catalog() {
        assert_stage_contract(entry.name, &single_core(entry.organization), &trace);
    }
}

/// The same stage contract with the organization mounted as a
/// *core-private* front-end above the shared L2: for every catalog
/// entry, a two-core platform (the entry on core 0, the SRAM baseline
/// on core 1) must honor it too.
#[test]
fn every_organization_honors_the_contract_above_the_shared_level() {
    let trace = pattern();
    for entry in catalog() {
        assert_stage_contract(entry.name, &above_shared_level(entry.organization), &trace);
    }
}

/// Arming the telemetry gate is observation-only: every catalog
/// organization produces a bit-identical audited run — timing,
/// statistics, drain and resident state — armed and disarmed.
#[test]
fn telemetry_armed_runs_leave_every_organization_unchanged() {
    let trace = pattern();
    for entry in catalog() {
        for platform in platforms(entry.organization) {
            let traces = vec![&trace; platform.config().cores.len()];
            let gate_was_on = telemetry::enabled();
            telemetry::set_enabled(false);
            let plain = platform.run_traces_audited(&traces);
            telemetry::set_enabled(true);
            let armed = platform.run_traces_audited(&traces);
            telemetry::set_enabled(gate_was_on);
            let _ = telemetry::take();
            assert_eq!(plain, armed, "{}: telemetry changed the run", entry.name);
        }
    }
}
