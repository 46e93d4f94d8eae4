//! Trait-level conformance suite for the organization catalog.
//!
//! One parameterized battery over `sttcache::catalog`: every entry's
//! front-end — whatever stage composition it carries — must honor the
//! `BufferStage` drain/verification contract. Adding a catalog entry
//! automatically puts it under this suite; no per-organization test code.

use sttcache::catalog::catalog;
use sttcache::{BufferStats, FrontEnd, Platform};
use sttcache_bench::check;
use sttcache_bench::trace_cache;
use sttcache_cpu::DataPort;
use sttcache_mem::{invariants, telemetry, Addr, CacheStats, Cycle, ShadowOracle};
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

fn front_end_of(org: sttcache::DCacheOrganization) -> FrontEnd {
    Platform::new(org)
        .expect("catalog organizations validate")
        .front_end()
        .expect("validated configuration builds")
}

/// Drains the whole organization: the front-end's stage and DL1, then
/// the L2, which the single-core front-end owns. Returns the lines
/// written back and the completion cycle.
fn drain(fe: &mut FrontEnd, now: Cycle) -> (usize, Cycle) {
    let (front, t) = fe.flush_dirty(now);
    let (l2, done) = fe.l2_mut().flush_dirty(t);
    (front + l2, done)
}

/// Every line resident in the stage, the DL1 and the L2, with its size.
fn resident_lines(fe: &FrontEnd) -> Vec<(Addr, usize)> {
    let l2_bytes = fe.l2().config().line_bytes();
    let mut lines = fe.resident_lines();
    lines.extend(fe.l2().resident_lines().into_iter().map(|a| (a, l2_bytes)));
    lines
}

/// Drives a deterministic mixed access pattern (strided reads, writes and
/// prefetch hints with re-use) through the front-end, mirroring every
/// event into a functional shadow oracle.
fn drive(fe: &mut FrontEnd, oracle: &mut ShadowOracle) -> Cycle {
    let mut now: Cycle = 0;
    for i in 0..400u64 {
        let addr = Addr((i * 7919) % 4096 * 8);
        if i % 17 == 0 {
            fe.prefetch(addr, now);
            oracle.touch(addr.0);
        } else if i % 3 == 0 {
            now = fe.write(addr, now);
            oracle.store(addr.0, 8);
        } else {
            now = fe.read(addr, now);
            oracle.load(addr.0, 8);
        }
    }
    now
}

/// The whole contract, one organization at a time: drains clean, stays
/// clean, reports no phantom resident lines, and resets every statistic.
#[test]
fn every_catalog_organization_honors_the_stage_contract() {
    for entry in catalog() {
        let name = entry.name;
        let mut fe = front_end_of(entry.organization);
        let mut oracle = ShadowOracle::default();
        let now = drive(&mut fe, &mut oracle);

        // 1. The drain writes back everything and leaves zero dirty state.
        let (flushed, done) = drain(&mut fe, now);
        assert!(
            flushed > 0,
            "{name}: the pattern stores, a drain must write back"
        );
        assert_eq!(
            fe.dirty_line_count() + fe.l2().dirty_lines(),
            0,
            "{name}: dirty state survived the drain"
        );

        // 2. A second drain is a no-op (the first one was complete).
        let (again, done2) = drain(&mut fe, done);
        assert_eq!(
            again, 0,
            "{name}: the second drain found lines the first missed"
        );

        // 3. The drained organization passes its own invariant audit.
        let gate_was_on = invariants::enabled();
        invariants::set_enabled(true);
        let _ = invariants::take_violations();
        fe.check_drained(done2);
        fe.l2().check_drained(done2);
        let (violations, total) = invariants::take_violations();
        invariants::set_enabled(gate_was_on);
        assert_eq!(total, 0, "{name}: {violations:#?}");

        // 4. Every resident line is one the program actually touched.
        for (base, len) in resident_lines(&fe) {
            assert!(
                oracle.intersects_accessed(base.0, len),
                "{name}: phantom resident line {base} ({len} B)"
            );
        }

        // 5. The stats reset is complete: every stage counter and every
        //    hierarchy level returns to its freshly-built state.
        fe.reset_stats();
        for stage in fe.stage_stats() {
            assert_eq!(
                stage.stats,
                BufferStats::default(),
                "{name}: stage '{}' kept counters across reset_stats",
                stage.kind
            );
        }
        for (depth, level) in ["dl1", "l2", "memory"].into_iter().enumerate() {
            let stats = match depth {
                0 => fe.dl1_stats(),
                1 => fe.l2_stats(),
                _ => fe.memory_stats(),
            };
            assert_eq!(
                *stats,
                CacheStats::default(),
                "{name}: {level} kept counters across reset_stats"
            );
        }
    }
}

/// Merging stage statistics is well-behaved across the whole catalog:
/// the default value is the identity, merging commutes, and the merge of
/// a stage with itself doubles every counter.
#[test]
fn stage_stats_merge_is_identity_and_commutative_over_the_catalog() {
    for entry in catalog() {
        let name = entry.name;
        let mut fe = front_end_of(entry.organization);
        let mut oracle = ShadowOracle::default();
        drive(&mut fe, &mut oracle);
        for stage in fe.stage_stats() {
            let s = &stage.stats;
            assert_eq!(
                s.merged(&BufferStats::default()),
                *s,
                "{name}: merging with the default changed stage '{}'",
                stage.kind
            );
            assert_eq!(
                BufferStats::default().merged(s),
                *s,
                "{name}: identity merge is not commutative on stage '{}'",
                stage.kind
            );
            let doubled = s.merged(s);
            assert_eq!(doubled.reads, s.reads * 2, "{name}: reads");
            assert_eq!(doubled.read_hits, s.read_hits * 2, "{name}: read_hits");
            assert_eq!(doubled.writes, s.writes * 2, "{name}: writes");
        }
        // Pairwise commutativity across the composition's stages.
        let stats = fe.stage_stats();
        for a in &stats {
            for b in &stats {
                assert_eq!(
                    a.stats.merged(&b.stats),
                    b.stats.merged(&a.stats),
                    "{name}: merge order changed the result"
                );
            }
        }
        // And after a reset every stage merges as the identity.
        fe.reset_stats();
        for stage in fe.stage_stats() {
            assert_eq!(stage.stats, BufferStats::default(), "{name}: reset");
        }
    }
}

/// Arming the telemetry gate is observation-only: every catalog
/// organization produces bit-identical timing, statistics and resident
/// state with the gate armed and disarmed.
#[test]
fn telemetry_armed_runs_leave_every_organization_unchanged() {
    for entry in catalog() {
        let name = entry.name;

        let gate_was_on = telemetry::enabled();
        telemetry::set_enabled(false);
        let mut plain = front_end_of(entry.organization);
        let mut oracle = ShadowOracle::default();
        let plain_now = drive(&mut plain, &mut oracle);

        telemetry::set_enabled(true);
        let mut armed = front_end_of(entry.organization);
        let mut oracle = ShadowOracle::default();
        let armed_now = drive(&mut armed, &mut oracle);
        telemetry::set_enabled(gate_was_on);
        let _ = telemetry::take();

        assert_eq!(plain_now, armed_now, "{name}: telemetry changed timing");
        assert_eq!(
            plain.stage_stats(),
            armed.stage_stats(),
            "{name}: telemetry changed stage statistics"
        );
        assert_eq!(
            plain.dl1_stats(),
            armed.dl1_stats(),
            "{name}: telemetry changed DL1 statistics"
        );
        assert_eq!(
            resident_lines(&plain),
            resident_lines(&armed),
            "{name}: telemetry changed resident state"
        );
        assert_eq!(
            plain.dirty_line_count() + plain.l2().dirty_lines(),
            armed.dirty_line_count() + armed.l2().dirty_lines(),
            "{name}: telemetry changed dirty state"
        );
    }
}

/// The same stage contract with the organization mounted as a
/// *core-private* front-end above the shared L2: for every catalog
/// entry, a two-core platform (the entry on core 0, the SRAM baseline
/// on core 1) must drain clean under audit, keep every surviving line
/// inside its owner's address stripe and accessed set (no phantom
/// lines leaking across cores), stay silent under the armed invariant
/// gate, and leave no state behind that perturbs a following run.
#[test]
fn every_organization_honors_the_contract_above_the_shared_level() {
    // The same deterministic mixed pattern `drive` uses, as a trace.
    let mut rec = sttcache_cpu::TraceRecorder::with_capacity(400);
    let mut reference = ShadowOracle::default();
    for i in 0..400u64 {
        let addr = Addr((i * 7919) % 4096 * 8);
        if i % 17 == 0 {
            sttcache_cpu::Engine::prefetch(&mut rec, addr);
            reference.touch(addr.0);
        } else if i % 3 == 0 {
            sttcache_cpu::Engine::store(&mut rec, addr, 8);
            reference.store(addr.0, 8);
        } else {
            sttcache_cpu::Engine::load(&mut rec, addr, 8);
            reference.load(addr.0, 8);
        }
    }
    let trace = rec.into_trace();

    for entry in catalog() {
        let name = entry.name;
        let platform = sttcache::MultiPlatform::new(sttcache::MultiPlatformConfig::new(vec![
            sttcache::CoreSpec::new(entry.organization),
            sttcache::CoreSpec::staggered(sttcache::DCacheOrganization::SramBaseline, 97),
        ]))
        .expect("catalog organizations validate");

        let gate_was_on = invariants::enabled();
        invariants::set_enabled(true);
        let _ = invariants::take_violations();
        let before = platform.run_traces(&[&trace, &trace]);
        let (audited, audit) = platform.run_traces_audited(&[&trace, &trace]);
        let (violations, total) = invariants::take_violations();
        invariants::set_enabled(gate_was_on);

        // 1. The audited drain writes back everything, cleanly.
        assert!(
            audit.flushed_lines > 0,
            "{name}: the pattern stores, a drain must write back"
        );
        assert_eq!(
            audit.dirty_after_drain, 0,
            "{name}: dirty state survived the audited drain"
        );
        assert_eq!(total, 0, "{name}: {violations:#?}");

        // 2. Private residency: each core's surviving lines sit in its
        //    own address stripe and cover bytes its program touched.
        for (idx, resident) in audit.core_resident.iter().enumerate() {
            let stripe = idx as u64 * sttcache::CORE_ADDRESS_STRIDE;
            for &(base, len) in resident {
                assert!(
                    base.0 >= stripe && base.0 - stripe < sttcache::CORE_ADDRESS_STRIDE,
                    "{name}: core {idx} holds line {base} from another core's stripe"
                );
                assert!(
                    reference.intersects_accessed(base.0 - stripe, len),
                    "{name}: phantom line {base} ({len} B) in core {idx}'s front-end"
                );
            }
        }

        // 3. Shared residency: every line left in the L2 belongs to the
        //    stripe of a core that touched it.
        for &(base, len) in &audit.shared_resident {
            let idx = (base.0 / sttcache::CORE_ADDRESS_STRIDE) as usize;
            assert!(idx < 2, "{name}: shared line {base} outside every stripe");
            let stripe = idx as u64 * sttcache::CORE_ADDRESS_STRIDE;
            assert!(
                reference.intersects_accessed(base.0 - stripe, len),
                "{name}: phantom line {base} ({len} B) in the shared L2"
            );
        }

        // 4. The audited run schedules identically and leaves nothing
        //    behind: a following run reproduces the first bit-for-bit.
        assert!(
            audited
                .cores
                .iter()
                .zip(&before.cores)
                .all(|(a, b)| a.cycles() == b.cycles()),
            "{name}: the audit changed the schedule"
        );
        let after = platform.run_traces(&[&trace, &trace]);
        assert_eq!(before, after, "{name}: state leaked across runs");
    }
}

/// The same catalog under a real kernel: the full differential check
/// (oracle mirror, drain audit, invariant gate) passes per organization.
#[test]
fn every_catalog_organization_passes_the_kernel_check() {
    let trace =
        trace_cache::cached_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::all());
    for entry in catalog() {
        let report = check::check_trace_on(entry.organization, &trace);
        assert!(
            report.passed(),
            "{}: mismatches {:#?}, violations {:#?}",
            entry.name,
            report.mismatches,
            report.violations
        );
    }
}
