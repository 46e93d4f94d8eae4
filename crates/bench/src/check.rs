//! The differential correctness checker.
//!
//! Three layers, combined by [`check_trace`]:
//!
//! 1. **Functional shadow oracle** — every run is mirrored into a
//!    [`ShadowOracle`] through a [`TeeEngine`], giving a timing-free
//!    golden model of what the program touched and wrote. After the run
//!    the whole organization is drained — the front-end
//!    ([`FrontEnd::flush_dirty`]), then the L2 it owns — and
//!    cross-examined: no dirty state may survive, and every line still
//!    resident anywhere in the hierarchy must cover bytes the program
//!    actually accessed (no *phantom* lines).
//! 2. **Runtime invariants** — the checker turns on the
//!    [`sttcache_mem::invariants`] gate for the duration of the run and
//!    harvests every structured violation the components reported.
//! 3. **Differential comparison** — the same trace runs on every
//!    catalog L1 organization; their timing-independent
//!    [`FunctionalSignature`]s must be identical, with the SRAM baseline
//!    as the reference. A cache organization may change *when* things
//!    happen, never *what* happens.
//!
//! The adversarial generators ([`Adversary`]) produce traces aimed at
//! the corners where timing models rot: bank ping-pong, MSHR
//! saturation, aliasing write bursts, line-straddling access widths.
//! [`shrink_events`] minimizes a failing trace by greedy chunk removal
//! so a report names the shortest reproducer found. [`run_case`] is the
//! one fuzzer entry point: it derives a case from `(kind, seed, events)`
//! and runs it through its [`Mode`]'s cross-check.

use crate::testkit::{Rng, DEFAULT_SEED};
use sttcache::{
    CoreSpec, DCacheOrganization, FrontEnd, MultiPlatform, MultiPlatformConfig, Platform,
    CORE_ADDRESS_STRIDE,
};
use sttcache_cpu::{Core, Engine, TeeEngine, Trace, TraceEvent, TraceRecorder};
use sttcache_mem::{invariants, Cycle, InvariantViolation, ShadowOracle};

/// An [`Engine`] that mirrors every architectural event into a
/// [`ShadowOracle`]. Hang it on the second leg of a [`TeeEngine`] so a
/// timing core and the functional model see one identical event stream.
#[derive(Debug, Default)]
pub struct OracleMirror {
    oracle: ShadowOracle,
    load_hash: u64,
}

impl OracleMirror {
    /// A mirror over a fresh, empty oracle.
    pub fn new() -> Self {
        OracleMirror::default()
    }

    /// The oracle accumulated so far.
    pub fn oracle(&self) -> &ShadowOracle {
        &self.oracle
    }

    /// Running hash over every load's value checksum, in program order.
    /// Two runs of the same trace must agree on it exactly.
    pub fn load_hash(&self) -> u64 {
        self.load_hash
    }
}

impl Engine for OracleMirror {
    fn load(&mut self, addr: sttcache_mem::Addr, bytes: usize) {
        let h = self.oracle.load(addr.0, bytes);
        self.load_hash = (self.load_hash.rotate_left(5) ^ h).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn store(&mut self, addr: sttcache_mem::Addr, bytes: usize) {
        self.oracle.store(addr.0, bytes);
    }

    fn prefetch(&mut self, addr: sttcache_mem::Addr) {
        self.oracle.touch(addr.0);
    }

    fn compute(&mut self, _ops: u64) {}

    fn branch(&mut self, _taken: bool) {}
}

/// The timing-independent fingerprint of one run: event counts plus the
/// oracle's memory-image and load-value hashes. Identical traces must
/// produce identical signatures on every cache organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalSignature {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Prefetch hints issued.
    pub prefetches: u64,
    /// Branches executed.
    pub branches: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// [`ShadowOracle::image_hash`] of the final memory image.
    pub image_hash: u64,
    /// [`OracleMirror::load_hash`] over every load in order.
    pub load_hash: u64,
}

/// The outcome of checking one trace on one organization.
#[derive(Debug)]
pub struct OrgCheck {
    /// The organization's display name.
    pub organization: &'static str,
    /// Cycles the core reported for the run.
    pub cycles: u64,
    /// Lines written back by the end-of-run drain.
    pub flushed_lines: usize,
    /// The run's functional signature.
    pub signature: FunctionalSignature,
    /// Oracle/drain mismatches (phantom lines, surviving dirty state,
    /// event-count divergence). Empty on a clean run.
    pub mismatches: Vec<String>,
    /// Structured invariant violations harvested from the run.
    pub violations: Vec<InvariantViolation>,
    /// Violations beyond the retention cap (0 unless a run misbehaved
    /// catastrophically).
    pub dropped_violations: usize,
}

impl OrgCheck {
    /// Whether the organization passed every layer of the check.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.violations.is_empty() && self.dropped_violations == 0
    }
}

/// Every catalog L1 organization, SRAM baseline first (it is the
/// differential reference).
pub fn all_organizations() -> Vec<DCacheOrganization> {
    sttcache::catalog::catalog()
        .into_iter()
        .map(|e| e.organization)
        .collect()
}

/// Runs `trace` on one organization with the invariant gate on, drains
/// the hierarchy, and verifies it against the shadow oracle.
pub fn check_trace_on(organization: DCacheOrganization, trace: &Trace) -> OrgCheck {
    let gate_was_on = invariants::enabled();
    invariants::set_enabled(true);
    let _ = invariants::take_violations(); // start from a clean slate

    let platform = Platform::new(organization).expect("canonical organization validates");
    let fe: FrontEnd = platform.front_end();
    let core = Core::new(platform.config().core, fe);
    let mut tee = TeeEngine::new(core, OracleMirror::new());
    trace.replay_into(&mut tee);
    let (mut core, mirror) = tee.into_inner();
    let report = core.report();
    let now = core.now();
    let mut fe = core.into_port();
    // The front-end drains its stage and DL1; the L2 is drained by its
    // owner, which here is the front-end's caller.
    let (front_lines, t) = fe.flush_dirty(now);
    let (l2_lines, done) = fe.l2_mut().flush_dirty(t);
    let flushed_lines = front_lines + l2_lines;
    fe.check_drained(done);
    fe.l2().check_drained(done);

    let mut mismatches = Vec::new();
    let dirty = fe.dirty_line_count() + fe.l2().dirty_lines();
    if dirty != 0 {
        mismatches.push(format!("{dirty} dirty lines survived flush_dirty"));
    }
    let l2_bytes = fe.l2().config().line_bytes();
    let l2_resident = fe.l2().resident_lines().into_iter().map(|a| (a, l2_bytes));
    for (base, len) in fe.resident_lines().into_iter().chain(l2_resident) {
        if !mirror.oracle().intersects_accessed(base.0, len) {
            mismatches.push(format!(
                "phantom resident line {base} ({len} B): the program never touched it"
            ));
        }
    }
    let (t_loads, t_stores, t_prefetches, t_branches) = trace.summary();
    if (
        report.loads,
        report.stores,
        report.prefetches,
        report.branches,
    ) != (t_loads, t_stores, t_prefetches, t_branches)
    {
        mismatches.push(format!(
            "core event counts {}L/{}S/{}P/{}B diverged from the trace's {}L/{}S/{}P/{}B",
            report.loads,
            report.stores,
            report.prefetches,
            report.branches,
            t_loads,
            t_stores,
            t_prefetches,
            t_branches
        ));
    }
    if mirror.oracle().loads() != t_loads || mirror.oracle().stores() != t_stores {
        mismatches.push(format!(
            "oracle saw {} loads / {} stores, trace holds {t_loads} / {t_stores}",
            mirror.oracle().loads(),
            mirror.oracle().stores()
        ));
    }

    let (violations, total) = invariants::take_violations();
    let dropped_violations = total - violations.len();
    invariants::set_enabled(gate_was_on);

    OrgCheck {
        organization: organization.name(),
        cycles: report.cycles,
        flushed_lines,
        signature: FunctionalSignature {
            loads: report.loads,
            stores: report.stores,
            prefetches: report.prefetches,
            branches: report.branches,
            instructions: report.instructions,
            image_hash: mirror.oracle().image_hash(),
            load_hash: mirror.load_hash(),
        },
        mismatches,
        violations,
        dropped_violations,
    }
}

/// One trace checked differentially across every organization.
#[derive(Debug)]
pub struct DifferentialReport {
    /// Human-readable label of the trace under test.
    pub label: String,
    /// Per-organization outcomes, SRAM baseline first.
    pub reports: Vec<OrgCheck>,
    /// Every failure, each prefixed by the organization it came from.
    /// Empty when the trace passed everywhere.
    pub failures: Vec<String>,
}

impl DifferentialReport {
    /// Whether every organization passed and all signatures agree.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `trace` on every catalog organization and cross-checks them: each
/// must pass its own oracle/invariant check, and every functional
/// signature must equal the SRAM baseline's.
pub fn check_trace(label: &str, trace: &Trace) -> DifferentialReport {
    let reports: Vec<OrgCheck> = all_organizations()
        .into_iter()
        .map(|org| check_trace_on(org, trace))
        .collect();
    let mut failures = Vec::new();
    for r in &reports {
        for m in &r.mismatches {
            failures.push(format!("[{}] {m}", r.organization));
        }
        for v in &r.violations {
            failures.push(format!("[{}] invariant: {v}", r.organization));
        }
        if r.dropped_violations > 0 {
            failures.push(format!(
                "[{}] … and {} more violations past the retention cap",
                r.organization, r.dropped_violations
            ));
        }
    }
    let base = &reports[0];
    for r in &reports[1..] {
        if r.signature != base.signature {
            failures.push(format!(
                "[{}] functional signature diverged from {}: {:?} vs {:?}",
                r.organization, base.organization, r.signature, base.signature
            ));
        }
    }
    DifferentialReport {
        label: label.to_string(),
        reports,
        failures,
    }
}

/// An adversarial trace family, each aimed at one corner of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Alternating lines that collide on one DL1 bank.
    BankPingPong,
    /// Prefetch bursts of distinct same-set lines to saturate the MSHRs.
    MshrSaturation,
    /// Store bursts over aliasing tags of one set (dirty-eviction storm).
    AliasWriteBurst,
    /// Narrow accesses straddling 32 B and 64 B line boundaries.
    LineStraddle,
    /// Dense prefetch hints racing demand loads for the same lines.
    PrefetchStorm,
    /// Unbiased random mix of every event kind.
    RandomMix,
}

impl Adversary {
    /// Every adversary family.
    pub const ALL: [Adversary; 6] = [
        Adversary::BankPingPong,
        Adversary::MshrSaturation,
        Adversary::AliasWriteBurst,
        Adversary::LineStraddle,
        Adversary::PrefetchStorm,
        Adversary::RandomMix,
    ];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Adversary::BankPingPong => "bank-ping-pong",
            Adversary::MshrSaturation => "mshr-saturation",
            Adversary::AliasWriteBurst => "alias-write-burst",
            Adversary::LineStraddle => "line-straddle",
            Adversary::PrefetchStorm => "prefetch-storm",
            Adversary::RandomMix => "random-mix",
        }
    }

    /// Parses a [`name`](Self::name) back into the adversary.
    pub fn from_name(s: &str) -> Option<Adversary> {
        Adversary::ALL.into_iter().find(|a| a.name() == s)
    }
}

/// NVM DL1 geometry the generators aim at (line bytes, sets, banks,
/// MSHR entries).
fn nvm_geometry() -> (u64, u64, u64, usize) {
    let cfg = sttcache::nvm_dl1_config().expect("canonical NVM DL1 config");
    (
        cfg.line_bytes() as u64,
        cfg.sets() as u64,
        cfg.banks() as u64,
        cfg.mshr_entries(),
    )
}

/// Generates one deterministic adversarial trace of about `events`
/// architectural events. Same `(kind, seed, events)` — same trace.
pub fn adversarial_trace(kind: Adversary, seed: u64, events: usize) -> Trace {
    let mut rng = Rng::new(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rec = TraceRecorder::with_capacity(events);
    let (line, sets, banks, mshrs) = nvm_geometry();
    match kind {
        Adversary::BankPingPong => {
            // A pool of lines that all land on one bank (bank index is the
            // low line bits), hammered back to back so every access queues
            // behind the previous one's bank occupancy.
            let bank = rng.u64_in(0, banks);
            let pool: Vec<u64> = (0..8).map(|k| (k * banks + bank) * line).collect();
            for i in 0..events {
                let base = *rng.pick(&pool);
                let addr = sttcache_mem::Addr(base + rng.u64_in(0, line - 8));
                match i % 8 {
                    6 => rec.store(addr, 4),
                    7 => rec.branch(rng.bool()),
                    _ => rec.load(addr, 4),
                }
            }
        }
        Adversary::MshrSaturation => {
            // Bursts of prefetches to distinct lines of one set (stride
            // sets·line), two past the MSHR capacity, then demand loads
            // racing the in-flight fills.
            let set_stride = sets * line;
            let burst = mshrs + 2;
            let mut tag = 0u64;
            let mut i = 0usize;
            while i < events {
                let set = rng.u64_in(0, sets) * line;
                for _ in 0..burst {
                    tag += 1;
                    rec.prefetch(sttcache_mem::Addr(set + tag * set_stride));
                    i += 1;
                }
                rec.load(sttcache_mem::Addr(set + tag * set_stride), 8);
                rec.compute(rng.u64_in(1, 3));
                i += 2;
            }
        }
        Adversary::AliasWriteBurst => {
            // Stores across many tags of one set: constant replacement
            // with dirty victims, exercising write-back and eviction paths.
            let set = rng.u64_in(0, sets) * line;
            let set_stride = sets * line;
            for i in 0..events {
                let tag = rng.u64_in(0, 15);
                let addr = sttcache_mem::Addr(set + tag * set_stride + rng.u64_in(0, line - 8));
                if i % 5 == 4 {
                    rec.load(addr, 8);
                } else {
                    rec.store(addr, 8);
                }
            }
        }
        Adversary::LineStraddle => {
            // Narrow accesses planted right on 32 B and 64 B boundaries so
            // widths 1..=16 straddle the line of at least one level.
            for i in 0..events {
                let boundary = rng.u64_in(1, 4096) * 32;
                let width = rng.usize_in(1, 17);
                let addr = sttcache_mem::Addr(boundary.saturating_sub(rng.u64_in(1, 15)));
                if i % 3 == 0 {
                    rec.store(addr, width);
                } else {
                    rec.load(addr, width);
                }
            }
        }
        Adversary::PrefetchStorm => {
            // Dense hints over a megabyte, with demand loads trailing into
            // the same lines while their fills may still be in flight.
            let lines = (1u64 << 20) / line;
            let mut recent = 0u64;
            for i in 0..events {
                let l = rng.u64_in(0, lines) * line;
                if i % 4 == 3 {
                    rec.load(sttcache_mem::Addr(recent), 8);
                } else {
                    rec.prefetch(sttcache_mem::Addr(l));
                    recent = l;
                }
            }
        }
        Adversary::RandomMix => {
            let span = 1u64 << 22;
            for _ in 0..events {
                match rng.u64_in(0, 10) {
                    0..=3 => rec.load(sttcache_mem::Addr(rng.u64_in(0, span)), rng.usize_in(1, 16)),
                    4..=6 => {
                        rec.store(sttcache_mem::Addr(rng.u64_in(0, span)), rng.usize_in(1, 16))
                    }
                    7 => rec.prefetch(sttcache_mem::Addr(rng.u64_in(0, span))),
                    8 => rec.compute(rng.u64_in(1, 8)),
                    _ => rec.branch(rng.bool()),
                }
            }
        }
    }
    rec.into_trace()
}

/// Which cross-check a fuzz case runs its generated input through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Adversarial traces through the shadow-oracle differential.
    Oracle,
    /// Co-scheduled multi-core mixes vs per-core isolated runs.
    Multicore,
    /// Irregular-family kernel traces through the oracle differential.
    Irregular,
}

impl Mode {
    /// Every mode, the default first.
    pub const ALL: [Mode; 3] = [Mode::Oracle, Mode::Multicore, Mode::Irregular];

    /// The `--kind` name that selects the mode; `None` for the default
    /// oracle mode, whose `--kind` names an adversary family instead.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Mode::Oracle => None,
            Mode::Multicore => Some("multicore"),
            Mode::Irregular => Some("irregular"),
        }
    }

    /// Parses a [`name`](Self::name) back into the mode.
    pub fn from_name(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == Some(s))
    }
}

/// One failing fuzz case, with everything needed to replay it.
#[derive(Debug)]
pub struct CheckFailure {
    /// The cross-check that failed.
    pub mode: Mode,
    /// The adversary family that produced (or salted) the input.
    pub kind: Adversary,
    /// The generator seed.
    pub seed: u64,
    /// The requested event count.
    pub events: usize,
    /// Every failure message from the check.
    pub failures: Vec<String>,
}

/// The labelled single-core trace a case checks: `kind`'s adversarial
/// trace, or under [`Mode::Irregular`] the irregular-kernel trace
/// derived from the same triple.
fn case_trace(mode: Mode, kind: Adversary, seed: u64, events: usize) -> (String, Trace) {
    match mode {
        Mode::Irregular => irregular_trace(kind, seed, events),
        Mode::Oracle | Mode::Multicore => (
            format!("{}#{seed:#x}", kind.name()),
            adversarial_trace(kind, seed, events),
        ),
    }
}

/// Generates one fuzz case from `(kind, seed, events)` and runs it
/// through `mode`'s cross-check: [`check_trace`] over the adversarial or
/// irregular trace, or [`check_multicore`] over the derived mix.
///
/// # Errors
///
/// Returns the structured [`CheckFailure`] when any organization fails
/// its oracle/invariant check or diverges from the SRAM baseline, or
/// when a co-scheduled mix fails determinism, the per-core isolated
/// differential, the residency audit, conservation, or an invariant.
pub fn run_case(mode: Mode, kind: Adversary, seed: u64, events: usize) -> Result<(), CheckFailure> {
    let failures = match mode {
        Mode::Multicore => check_multicore(
            &format!("mc-{}#{seed:#x}", kind.name()),
            &multicore_case(kind, seed, events),
        ),
        Mode::Oracle | Mode::Irregular => {
            let (label, trace) = case_trace(mode, kind, seed, events);
            check_trace(&label, &trace).failures
        }
    };
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CheckFailure {
            mode,
            kind,
            seed,
            events,
            failures,
        })
    }
}

/// The fixed seeds `--quick` runs (plus [`testkit::base_seed`]'s
/// override when `STTCACHE_TEST_SEED` is set).
///
/// [`testkit::base_seed`]: crate::testkit::base_seed
pub fn quick_seeds() -> Vec<u64> {
    let mut seeds = vec![DEFAULT_SEED, DEFAULT_SEED ^ 0x9E37_79B9_7F4A_7C15];
    if let Some(s) = crate::testkit::base_seed() {
        seeds.push(s);
    }
    seeds
}

/// Greedy chunk-removal minimization (ddmin-style): repeatedly removes
/// event chunks, keeping any removal under which `still_fails` holds,
/// halving the chunk size until single events survive. Returns the
/// shortest failing event list found. `still_fails` must hold for the
/// trace's own events.
pub fn shrink_events(
    trace: &Trace,
    still_fails: impl Fn(&[TraceEvent]) -> bool,
) -> Vec<TraceEvent> {
    let mut kept: Vec<TraceEvent> = trace.iter().collect();
    let mut chunk = (kept.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < kept.len() {
            let end = (i + chunk).min(kept.len());
            let mut candidate = Vec::with_capacity(kept.len() - (end - i));
            candidate.extend_from_slice(&kept[..i]);
            candidate.extend_from_slice(&kept[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                kept = candidate; // removal kept the failure: don't advance
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    kept
}

/// Rebuilds a [`Trace`] from a raw event list (shrink support) by
/// replaying it into a recorder, which re-coalesces computes that a
/// removal made adjacent.
pub fn trace_from_events(events: &[TraceEvent]) -> Trace {
    let mut rec = TraceRecorder::with_capacity(events.len());
    for &e in events {
        e.replay_into(&mut rec);
    }
    rec.into_trace()
}

/// Minimizes a failing oracle or irregular case's trace with
/// [`shrink_events`] against the full differential check. Expensive
/// (each probe replays every catalog organization); meant for
/// `sttcache-check --shrink` on a repro.
///
/// # Panics
///
/// Panics on a [`Mode::Multicore`] failure, whose input is a mix, not
/// one trace: shrink it with [`shrink_multicore_failure`].
pub fn shrink_failure(failure: &CheckFailure) -> Trace {
    assert_ne!(
        failure.mode,
        Mode::Multicore,
        "multi-core failures shrink with shrink_multicore_failure"
    );
    let (_, trace) = case_trace(failure.mode, failure.kind, failure.seed, failure.events);
    let minimal = shrink_events(&trace, |evs| {
        !check_trace("shrink-probe", &trace_from_events(evs))
            .failures
            .is_empty()
    });
    trace_from_events(&minimal)
}

/// Derives one irregular-workload trace from `(kind, seed, events)`:
/// the adversary family salts the seed (so every slot of a fuzz plan
/// lands on a different corner), the salted seed picks an irregular
/// catalog entry and a transformation combination, and the kernel's
/// deterministic recording is truncated to about `events` architectural
/// events. Same inputs — same trace, byte for byte.
pub fn irregular_trace(kind: Adversary, seed: u64, events: usize) -> (String, Trace) {
    let (spec, transforms) = irregular_choice(kind, seed);
    let trace = crate::trace_cache::record_trace(
        spec.workload,
        sttcache_workloads::ProblemSize::Mini,
        transforms,
    );
    let trace = if trace.len() > events {
        trace.iter().take(events).collect()
    } else {
        trace
    };
    (format!("{}#{seed:#x}", spec.cli), trace)
}

/// The irregular catalog entry and transformation set a salted
/// `(kind, seed)` draws for [`irregular_trace`].
fn irregular_choice(
    kind: Adversary,
    seed: u64,
) -> (
    sttcache_workloads::WorkloadSpec,
    sttcache_workloads::Transformations,
) {
    let mut rng = Rng::new(seed ^ (kind as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
    let specs = sttcache_workloads::catalog::family(sttcache_workloads::WorkloadFamily::Irregular);
    let spec = *rng.pick(&specs);
    let combos = sttcache_workloads::conformance::all_transform_combos();
    (spec, *rng.pick(&combos))
}

/// One multi-core fuzz case: 2–4 cores, each with its own adversarial
/// trace, catalog organization and phase offset, co-scheduled over one
/// shared L2.
#[derive(Debug, Clone)]
pub struct MulticoreCase {
    /// Per-core private front-end organizations.
    pub orgs: Vec<DCacheOrganization>,
    /// Per-core phase offsets.
    pub offsets: Vec<Cycle>,
    /// Per-core traces (untranslated; the platform stripes addresses).
    pub traces: Vec<Trace>,
}

/// Derives a deterministic multi-core case from `(kind, seed)`: core
/// count (2–4), per-core organizations, staggered offsets and one
/// adversarial trace per core (core 0 always uses `kind`, the others
/// draw their family from the seed). Same inputs — same case.
pub fn multicore_case(kind: Adversary, seed: u64, events: usize) -> MulticoreCase {
    let mut rng = Rng::new(seed ^ 0x6D63_6F72_6531_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = rng.usize_in(2, 5);
    let pool = all_organizations();
    let mut orgs = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    for i in 0..n {
        let family = if i == 0 {
            kind
        } else {
            *rng.pick(&Adversary::ALL)
        };
        let trace_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        traces.push(adversarial_trace(family, trace_seed, (events / n).max(16)));
        orgs.push(*rng.pick(&pool));
        offsets.push(rng.u64_in(0, 777));
    }
    MulticoreCase {
        orgs,
        offsets,
        traces,
    }
}

/// Cross-checks one co-scheduled multi-core run, five ways:
///
/// 1. **Determinism** — two runs of the same case are bit-identical,
///    and the audited run schedules the cores identically.
/// 2. **Per-core isolated differential** — each core's functional event
///    counts match both its trace summary and the same trace run alone
///    on [`MultiPlatform::isolated_config`]: co-scheduling may change
///    *when* things happen, never *what* happens.
/// 3. **Per-core shadow oracle** — after the audited drain, every line
///    still resident in a core's private front-end must sit inside that
///    core's address stripe *and* cover bytes its own program touched:
///    no phantom lines, and none leaked from another core.
/// 4. **Shared-level residency** — every line left in the shared L2
///    must belong to the stripe of some core that actually touched it.
/// 5. **Conservation + invariants** — shared-L2 reads equal the summed
///    private-DL1 fills, shared-L2 writes the summed write-backs, the
///    drain leaves nothing dirty, and the armed invariant gate stays
///    silent.
///
/// Returns one message per finding; empty when the case passes.
pub fn check_multicore(label: &str, case: &MulticoreCase) -> Vec<String> {
    let mut failures = Vec::new();
    let specs: Vec<CoreSpec> = case
        .orgs
        .iter()
        .zip(&case.offsets)
        .map(|(&org, &off)| CoreSpec::staggered(org, off))
        .collect();
    let platform = match MultiPlatform::new(MultiPlatformConfig::new(specs)) {
        Ok(p) => p,
        Err(e) => return vec![format!("{label}: platform rejected the case: {e}")],
    };
    let refs: Vec<&Trace> = case.traces.iter().collect();

    let gate_was_on = invariants::enabled();
    invariants::set_enabled(true);
    let _ = invariants::take_violations();
    let first = platform.run_traces(&refs);
    let second = platform.run_traces(&refs);
    let (audited, audit) = platform.run_traces_audited(&refs);
    let (violations, total) = invariants::take_violations();
    invariants::set_enabled(gate_was_on);

    if first != second {
        failures.push(format!("{label}: co-scheduled run is not deterministic"));
    }
    if audited
        .cores
        .iter()
        .zip(&first.cores)
        .any(|(a, b)| a.core != b.core)
    {
        failures.push(format!(
            "{label}: the audited run scheduled the cores differently"
        ));
    }
    for v in &violations {
        failures.push(format!("{label}: invariant: {v}"));
    }
    if total > violations.len() {
        failures.push(format!(
            "{label}: … and {} more violations past the retention cap",
            total - violations.len()
        ));
    }
    if audit.dirty_after_drain != 0 {
        failures.push(format!(
            "{label}: {} dirty lines survived the audited drain",
            audit.dirty_after_drain
        ));
    }

    // Per-core: trace summary, isolated differential, private residency.
    let mut mirrors = Vec::with_capacity(case.traces.len());
    for (idx, trace) in case.traces.iter().enumerate() {
        let r = &first.cores[idx];
        let (t_loads, t_stores, t_prefetches, t_branches) = trace.summary();
        if (
            r.core.loads,
            r.core.stores,
            r.core.prefetches,
            r.core.branches,
        ) != (t_loads, t_stores, t_prefetches, t_branches)
        {
            failures.push(format!(
                "{label}: core {idx} executed {}L/{}S/{}P/{}B, its trace holds \
                 {t_loads}L/{t_stores}S/{t_prefetches}P/{t_branches}B",
                r.core.loads, r.core.stores, r.core.prefetches, r.core.branches
            ));
        }
        let iso = Platform::with_config(platform.isolated_config(idx))
            .expect("validated configuration builds")
            .run_trace(trace);
        if (iso.core.loads, iso.core.stores, iso.core.instructions)
            != (r.core.loads, r.core.stores, r.core.instructions)
        {
            failures.push(format!(
                "{label}: core {idx}'s functional counts diverged from its isolated run"
            ));
        }
        let mut mirror = OracleMirror::new();
        trace.replay_into(&mut mirror);
        let stripe = idx as u64 * CORE_ADDRESS_STRIDE;
        for &(base, len) in &audit.core_resident[idx] {
            if base.0 < stripe || base.0 - stripe >= CORE_ADDRESS_STRIDE {
                failures.push(format!(
                    "{label}: core {idx} holds line {base} from outside its address stripe"
                ));
            } else if !mirror.oracle().intersects_accessed(base.0 - stripe, len) {
                failures.push(format!(
                    "{label}: phantom line {base} ({len} B) resident in core {idx}'s \
                     front-end: its program never touched it"
                ));
            }
        }
        mirrors.push(mirror);
    }

    // Shared level: every surviving line belongs to the stripe of a core
    // whose program touched it.
    for &(base, len) in &audit.shared_resident {
        let idx = (base.0 / CORE_ADDRESS_STRIDE) as usize;
        match mirrors.get(idx) {
            None => failures.push(format!(
                "{label}: shared L2 holds line {base} outside every core's address stripe"
            )),
            Some(mirror) => {
                let stripe = idx as u64 * CORE_ADDRESS_STRIDE;
                if !mirror.oracle().intersects_accessed(base.0 - stripe, len) {
                    failures.push(format!(
                        "{label}: phantom line {base} ({len} B) resident in the shared L2: \
                         core {idx}'s program never touched it"
                    ));
                }
            }
        }
    }

    // Conservation: the shared level's demand is exactly the sum of the
    // private DL1s' fills and write-backs.
    let fills: u64 = first.cores.iter().map(|c| c.dl1.fills).sum();
    let writebacks: u64 = first.cores.iter().map(|c| c.dl1.writebacks).sum();
    if first.shared_l2.reads != fills {
        failures.push(format!(
            "{label}: shared L2 saw {} reads but the private DL1s filled {} lines",
            first.shared_l2.reads, fills
        ));
    }
    if first.shared_l2.writes != writebacks {
        failures.push(format!(
            "{label}: shared L2 saw {} writes but the private DL1s wrote back {} lines",
            first.shared_l2.writes, writebacks
        ));
    }
    failures
}

/// [`shrink_failure`]'s counterpart for `--kind multicore` failures:
/// first greedily drops whole cores, then ddmin-shrinks each surviving
/// core's event list, keeping every reduction under which
/// [`check_multicore`] still fails. Returns the minimal failing mix.
pub fn shrink_multicore_failure(failure: &CheckFailure) -> MulticoreCase {
    let mut case = multicore_case(failure.kind, failure.seed, failure.events);
    let fails = |c: &MulticoreCase| !check_multicore("shrink-probe", c).is_empty();
    let mut i = 0;
    while case.traces.len() > 1 && i < case.traces.len() {
        let mut candidate = case.clone();
        candidate.orgs.remove(i);
        candidate.offsets.remove(i);
        candidate.traces.remove(i);
        if fails(&candidate) {
            case = candidate; // core removed: re-probe the same index
        } else {
            i += 1;
        }
    }
    for i in 0..case.traces.len() {
        let minimal = shrink_events(&case.traces[i], |evs| {
            let mut candidate = case.clone();
            candidate.traces[i] = trace_from_events(evs);
            fails(&candidate)
        });
        case.traces[i] = trace_from_events(&minimal);
    }
    case
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_mem::Addr;

    #[test]
    fn mirror_counts_and_hashes_are_order_sensitive() {
        let mut a = OracleMirror::new();
        a.store(Addr(0x100), 8);
        a.load(Addr(0x100), 8);
        let mut b = OracleMirror::new();
        b.load(Addr(0x100), 8);
        b.store(Addr(0x100), 8);
        assert_eq!(a.oracle().loads(), 1);
        assert_eq!(a.oracle().stores(), 1);
        // Load-before-store reads unwritten memory: different value hash.
        assert_ne!(a.load_hash(), b.load_hash());
    }

    #[test]
    fn adversarial_traces_are_deterministic() {
        for kind in Adversary::ALL {
            let t1 = adversarial_trace(kind, 7, 300);
            let t2 = adversarial_trace(kind, 7, 300);
            assert_eq!(t1, t2, "{} not deterministic", kind.name());
            assert!(!t1.is_empty());
            assert_ne!(t1, adversarial_trace(kind, 8, 300));
        }
    }

    #[test]
    fn adversary_names_round_trip() {
        for kind in Adversary::ALL {
            assert_eq!(Adversary::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Adversary::from_name("nope"), None);
    }

    #[test]
    fn small_random_trace_passes_differentially() {
        let trace = adversarial_trace(Adversary::RandomMix, DEFAULT_SEED, 400);
        let report = check_trace("unit", &trace);
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert_eq!(report.reports.len(), sttcache::catalog::catalog().len());
        assert_eq!(report.reports[0].organization, "SRAM baseline");
    }

    #[test]
    fn generators_draw_every_documented_choice() {
        use std::collections::BTreeSet;
        let mut cores = BTreeSet::new();
        let mut orgs = BTreeSet::new();
        for seed in 0..64 {
            let case = multicore_case(Adversary::RandomMix, seed, 32);
            cores.insert(case.orgs.len());
            orgs.extend(case.orgs.iter().map(|o| o.name()));
        }
        assert_eq!(cores.into_iter().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(orgs.len(), all_organizations().len(), "drawn: {orgs:?}");

        let mut kernels = BTreeSet::new();
        let mut transforms = BTreeSet::new();
        for kind in Adversary::ALL {
            for seed in 0..16 {
                let (spec, t) = irregular_choice(kind, seed);
                kernels.insert(spec.cli);
                transforms.insert((t.vectorize, t.prefetch, t.others));
            }
        }
        let irregular =
            sttcache_workloads::catalog::family(sttcache_workloads::WorkloadFamily::Irregular);
        assert_eq!(kernels.len(), irregular.len(), "drawn: {kernels:?}");
        assert_eq!(transforms.len(), 8, "drawn: {transforms:?}");

        let mut kinds = BTreeSet::new();
        for seed in 0..4 {
            let trace = adversarial_trace(Adversary::RandomMix, seed, 500);
            kinds.extend(trace.iter().map(|e| match e {
                TraceEvent::Load { .. } => "load",
                TraceEvent::Store { .. } => "store",
                TraceEvent::Prefetch { .. } => "prefetch",
                TraceEvent::Compute { .. } => "compute",
                TraceEvent::Branch { .. } => "branch",
            }));
        }
        assert_eq!(kinds.len(), 5, "random-mix emitted only {kinds:?}");
    }

    #[test]
    fn irregular_traces_are_deterministic_and_capped() {
        let (label, t1) = irregular_trace(Adversary::RandomMix, 7, 500);
        let (label2, t2) = irregular_trace(Adversary::RandomMix, 7, 500);
        assert_eq!(label, label2);
        assert_eq!(t1, t2, "irregular derivation not deterministic");
        assert!(!t1.is_empty());
        assert!(t1.len() <= 500);
        // A different adversary salt lands on a different corner.
        let (_, t3) = irregular_trace(Adversary::BankPingPong, 7, 500);
        assert_ne!(t1, t3);
    }

    #[test]
    fn irregular_case_runner_reports_clean_on_a_quick_seed() {
        assert!(run_case(Mode::Irregular, Adversary::LineStraddle, DEFAULT_SEED, 300).is_ok());
    }

    #[test]
    fn shrink_finds_a_single_culprit_event() {
        let trace = adversarial_trace(Adversary::RandomMix, 42, 200);
        let is_store = |e: &TraceEvent| matches!(e, TraceEvent::Store { .. });
        assert!(trace.iter().any(|e| is_store(&e)));
        let minimal = shrink_events(&trace, |evs| evs.iter().any(is_store));
        assert_eq!(minimal.len(), 1);
        assert!(is_store(&minimal[0]));
    }
}
