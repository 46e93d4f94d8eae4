//! The differential correctness checker.
//!
//! One audit, [`audited_run`], judges every drained run. It runs one
//! trace per core through [`MultiPlatform::run_traces_audited`] with the
//! [`sttcache_mem::invariants`] gate armed, and holds what the drain
//! leaves against each trace's [`Footprint`]: the event counts and the
//! 32-B chunks one untimed replay of the trace touches.
//!
//! - The armed gate stays silent, and no dirty line survives the drain.
//! - Each core executed exactly its trace's loads, stores, prefetches,
//!   branches and instructions.
//! - Every line still resident in a core's private levels or in the
//!   shared L2 lies in the address stripe of a core whose footprint
//!   touched it: no *phantom* lines, and none leaked across cores.
//! - The shared L2 read exactly the lines the DL1s filled and wrote
//!   exactly the lines they wrote back.
//!
//! Two checkers drive it. [`check_trace`] runs one trace alone on a
//! one-core platform of every catalog organization, against one
//! footprint: an organization may change *when* things happen, never
//! *what* happens. [`check_multicore`] co-schedules a 2–4 core
//! [`MulticoreCase`] and adds determinism and per-core isolated-run
//! differentials. A [`CheckFailure`] carries the case that failed (the
//! failing organization's one-core case, or the mix), so one shrinker,
//! [`shrink_failure`], minimizes both: it drops whole cores, then
//! ddmin-shrinks the survivors' events.
//!
//! The adversarial generators ([`Adversary`]) produce traces aimed at
//! the corners where timing models rot: bank ping-pong, MSHR
//! saturation, aliasing write bursts, line-straddling access widths.
//! [`run_case`] is the one fuzzer entry point: it derives a case from
//! `(kind, seed, events)` and runs it through its [`Mode`]'s check.

use crate::testkit::{Rng, DEFAULT_SEED};
use sttcache::{
    CoreSpec, DCacheOrganization, MultiPlatform, MultiPlatformConfig, MultiRunResult, Platform,
    CORE_ADDRESS_STRIDE,
};
use sttcache_cpu::{CoreReport, CountingEngine, Engine, Trace, TraceEvent, TraceRecorder};
use sttcache_mem::{invariants, Addr, Cycle};

/// Footprint granularity: the smallest line any configuration uses (the
/// SRAM DL1's 32 B), so a chunk never spans two lines of any level.
const CHUNK_BYTES: u64 = 32;

/// What a trace's timed runs are audited against, from one untimed
/// replay of the trace: its event counts, and the 32-B chunks its loads,
/// stores and prefetches touch.
#[derive(Debug, Default)]
pub struct Footprint {
    counts: CountingEngine,
    /// Indices of the touched chunks; sorted and deduplicated by
    /// [`Footprint::of`].
    chunks: Vec<u64>,
}

impl Footprint {
    /// Replays `trace` into its footprint.
    pub fn of(trace: &Trace) -> Footprint {
        let mut footprint = Footprint::default();
        trace.replay_into(&mut footprint);
        footprint.chunks.sort_unstable();
        footprint.chunks.dedup();
        footprint
    }

    /// Whether `[base, base + len)` overlaps a chunk the trace touched.
    /// Every line resident in a drained hierarchy must; one that does not
    /// is a phantom allocation.
    fn touches(&self, base: u64, len: usize) -> bool {
        let (first, last) = chunk_span(base, len);
        let i = self.chunks.partition_point(|&c| c < first);
        self.chunks.get(i).is_some_and(|&c| c <= last)
    }

    fn mark(&mut self, addr: Addr, bytes: usize) {
        let (first, last) = chunk_span(addr.0, bytes);
        for chunk in first..=last {
            // Consecutive accesses mostly share a chunk: skip the repeat
            // here rather than sort it away later.
            if self.chunks.last() != Some(&chunk) {
                self.chunks.push(chunk);
            }
        }
    }
}

/// The first and last chunk index `[base, base + len)` covers; an empty
/// range covers `base`'s chunk.
fn chunk_span(base: u64, len: usize) -> (u64, u64) {
    let end = base.wrapping_add(len.max(1) as u64 - 1);
    (base / CHUNK_BYTES, end / CHUNK_BYTES)
}

impl Engine for Footprint {
    fn load(&mut self, addr: Addr, bytes: usize) {
        self.counts.load(addr, bytes);
        self.mark(addr, bytes);
    }

    fn store(&mut self, addr: Addr, bytes: usize) {
        self.counts.store(addr, bytes);
        self.mark(addr, bytes);
    }

    fn prefetch(&mut self, addr: Addr) {
        self.counts.prefetch(addr);
        self.mark(addr, 1);
    }

    fn compute(&mut self, ops: u64) {
        self.counts.compute(ops);
    }

    fn branch(&mut self, taken: bool) {
        self.counts.branch(taken);
    }
}

/// A core's executed loads, stores, prefetches, branches and
/// instructions and its footprint's, each as `NL/NS/NP/NB/NI`, when they
/// differ.
fn count_divergence(report: &CoreReport, footprint: &Footprint) -> Option<(String, String)> {
    let c = &footprint.counts;
    let ran = [
        report.loads,
        report.stores,
        report.prefetches,
        report.branches,
        report.instructions,
    ];
    let held = [
        c.loads,
        c.stores,
        c.prefetches,
        c.branches,
        c.instructions(),
    ];
    let label = |[l, s, p, b, i]: [u64; 5]| format!("{l}L/{s}S/{p}P/{b}B/{i}I");
    (ran != held).then(|| (label(ran), label(held)))
}

/// One [`audited_run`]: the run, with the drain's write-backs in its
/// statistics, and what the audit found.
#[derive(Debug)]
pub struct AuditedRun {
    /// The run's result, drain included.
    pub result: MultiRunResult,
    /// Lines the end-of-run drain wrote back.
    pub flushed_lines: usize,
    /// One message per finding; empty when the run passed.
    pub findings: Vec<String>,
}

/// Runs `traces`, one per core, through
/// [`MultiPlatform::run_traces_audited`] with the invariant gate armed,
/// and audits the drained hierarchy against `footprints[i]`, the
/// [`Footprint`] of `traces[i]`. The audit requires that the gate stays
/// silent, that no dirty line survives the drain, that each core's event
/// counts equal its footprint's, that every line resident in a core's
/// private levels lies in that core's stripe and every line resident in
/// the shared L2 in some core's stripe, each touched by that core's
/// footprint, and that the shared L2's reads and writes equal the DL1s'
/// fills and write-backs.
///
/// # Panics
///
/// Panics unless there is one trace and one footprint per core.
pub fn audited_run(
    platform: &MultiPlatform,
    traces: &[&Trace],
    footprints: &[&Footprint],
) -> AuditedRun {
    assert_eq!(traces.len(), footprints.len(), "one footprint per trace");
    let armed = invariants::arm();
    let _ = invariants::take_violations(); // start from a clean slate
    let (result, audit) = platform.run_traces_audited(traces);
    let (violations, total) = invariants::take_violations();
    drop(armed);

    let mut findings: Vec<String> = violations
        .iter()
        .map(|v| format!("invariant: {v}"))
        .collect();
    if total > violations.len() {
        findings.push(format!(
            "… and {} more violations past the retention cap",
            total - violations.len()
        ));
    }
    if audit.dirty_after_drain != 0 {
        findings.push(format!(
            "{} dirty lines survived the audited drain",
            audit.dirty_after_drain
        ));
    }
    for (idx, (run, footprint)) in result.cores.iter().zip(footprints).enumerate() {
        if let Some((ran, held)) = count_divergence(&run.core, footprint) {
            findings.push(format!("core {idx} executed {ran}, its trace holds {held}"));
        }
    }

    // Residency: `None` holds the shared L2's lines, `Some(idx)` core
    // `idx`'s private ones.
    let private = audit
        .core_resident
        .iter()
        .enumerate()
        .flat_map(|(idx, lines)| lines.iter().map(move |line| (Some(idx), line)));
    let shared = audit.shared_resident.iter().map(|line| (None, line));
    for (holder, &(base, len)) in private.chain(shared) {
        let owner = (base.0 / CORE_ADDRESS_STRIDE) as usize;
        let stripe = owner as u64 * CORE_ADDRESS_STRIDE;
        match holder {
            Some(idx) if idx != owner => findings.push(format!(
                "core {idx} holds line {base} from outside its address stripe"
            )),
            None if owner >= footprints.len() => findings.push(format!(
                "shared L2 holds line {base} outside every core's address stripe"
            )),
            _ if !footprints[owner].touches(base.0 - stripe, len) => {
                let place = holder.map_or("the shared L2".to_string(), |idx| {
                    format!("core {idx}'s private levels")
                });
                findings.push(format!(
                    "phantom line {base} ({len} B) resident in {place}: core {owner}'s program \
                     never touched it"
                ));
            }
            _ => {}
        }
    }

    // Conservation: the shared level's demand is exactly the sum of the
    // private DL1s' fills and write-backs.
    let fills: u64 = result.cores.iter().map(|c| c.dl1.fills).sum();
    let writebacks: u64 = result.cores.iter().map(|c| c.dl1.writebacks).sum();
    if result.shared_l2.reads != fills {
        findings.push(format!(
            "shared L2 saw {} reads but the private DL1s filled {fills} lines",
            result.shared_l2.reads
        ));
    }
    if result.shared_l2.writes != writebacks {
        findings.push(format!(
            "shared L2 saw {} writes but the private DL1s wrote back {writebacks} lines",
            result.shared_l2.writes
        ));
    }
    AuditedRun {
        result,
        flushed_lines: audit.flushed_lines,
        findings,
    }
}

/// Every catalog L1 organization, SRAM baseline first.
pub fn all_organizations() -> Vec<DCacheOrganization> {
    sttcache::catalog::catalog()
        .into_iter()
        .map(|e| e.organization)
        .collect()
}

/// Runs `trace` alone on a one-core platform of every catalog
/// organization and audits each run with [`audited_run`] against the
/// trace's footprint, replayed once.
///
/// # Errors
///
/// Returns every finding, each prefixed by its organization, with the
/// first failing organization's one-core case.
pub fn check_trace(trace: &Trace) -> Result<(), CheckFailure> {
    let footprint = Footprint::of(trace);
    let mut failed: Option<CheckFailure> = None;
    for org in all_organizations() {
        let platform = MultiPlatform::new(MultiPlatformConfig::homogeneous(org, 1))
            .expect("catalog organizations validate");
        let findings = audited_run(&platform, &[trace], &[&footprint]).findings;
        if findings.is_empty() {
            continue;
        }
        let failure = failed.get_or_insert_with(|| CheckFailure {
            case: MulticoreCase {
                orgs: vec![org],
                offsets: vec![0],
                traces: vec![trace.clone()],
            },
            failures: Vec::new(),
        });
        let tagged = findings
            .into_iter()
            .map(|m| format!("[{}] {m}", org.name()));
        failure.failures.extend(tagged);
    }
    failed.map_or(Ok(()), Err)
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

/// Which check a fuzz case runs its generated input through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Adversarial traces through [`check_trace`].
    Oracle,
    /// Co-scheduled multi-core mixes through [`check_multicore`].
    Multicore,
    /// Irregular-family kernel traces through [`check_trace`].
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

/// Largest `events` a fuzz case may ask for: 2^24 events, 128 MiB of
/// trace words, which the generators reserve up front.
pub const MAX_EVENTS: usize = 1 << 24;

/// A failed check: every finding, and the case that shows them.
#[derive(Debug)]
pub struct CheckFailure {
    /// The case that failed: the failing organization's one-core case
    /// under [`check_trace`], the mix under [`check_multicore`].
    pub case: MulticoreCase,
    /// Every finding of the check.
    pub failures: Vec<String>,
}

/// Generates one fuzz case from `(kind, seed, events)` and runs it
/// through `mode`'s check: [`check_trace`] over the adversarial or
/// irregular trace, or [`check_multicore`] over the derived mix.
///
/// # Errors
///
/// Returns the [`CheckFailure`] of the check.
pub fn run_case(mode: Mode, kind: Adversary, seed: u64, events: usize) -> Result<(), CheckFailure> {
    match mode {
        Mode::Oracle => check_trace(&adversarial_trace(kind, seed, events)),
        Mode::Irregular => check_trace(&irregular_trace(kind, seed, events)),
        Mode::Multicore => check_multicore(
            &format!("mc-{}#{seed:#x}", kind.name()),
            &multicore_case(kind, seed, events),
        ),
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

/// Derives one irregular-workload trace from `(kind, seed, events)`:
/// the adversary family salts the seed (so every slot of a fuzz plan
/// lands on a different corner), the salted seed picks an irregular
/// catalog entry and a transformation combination, and the kernel's
/// deterministic recording is truncated to about `events` architectural
/// events. Same inputs — same trace, byte for byte.
pub fn irregular_trace(kind: Adversary, seed: u64, events: usize) -> Trace {
    let (spec, transforms) = irregular_choice(kind, seed);
    let trace = crate::trace_cache::record_trace(
        spec.workload,
        sttcache_workloads::ProblemSize::Mini,
        transforms,
    );
    if trace.len() > events {
        trace.iter().take(events).collect()
    } else {
        trace
    }
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

/// One case of the checker: a trace, organization and phase offset per
/// core, co-scheduled over one shared L2. A multi-core fuzz case has 2–4
/// cores; [`check_trace`] reports a failing organization as a one-core
/// case.
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

/// Checks one co-scheduled case: [`audited_run`] against each core's
/// footprint, plus two checks of its own:
///
/// 1. **Determinism** — two plain runs of the case are bit-identical,
///    and the audited run schedules the cores identically.
/// 2. **Per-core isolated differential** — each core's loads, stores
///    and instructions match the same trace run alone on
///    [`MultiPlatform::isolated_config`]: co-scheduling may change
///    *when* things happen, never *what* happens.
///
/// # Errors
///
/// Returns every finding, each prefixed by `label`, with the case.
pub fn check_multicore(label: &str, case: &MulticoreCase) -> Result<(), CheckFailure> {
    let failures = multicore_findings(case);
    if failures.is_empty() {
        return Ok(());
    }
    Err(CheckFailure {
        case: case.clone(),
        failures: failures.iter().map(|m| format!("{label}: {m}")).collect(),
    })
}

/// [`check_multicore`]'s findings, untagged.
fn multicore_findings(case: &MulticoreCase) -> Vec<String> {
    let specs: Vec<CoreSpec> = case
        .orgs
        .iter()
        .zip(&case.offsets)
        .map(|(&org, &off)| CoreSpec::staggered(org, off))
        .collect();
    let platform = match MultiPlatform::new(MultiPlatformConfig::new(specs)) {
        Ok(p) => p,
        Err(e) => return vec![format!("platform rejected the case: {e}")],
    };
    let traces: Vec<&Trace> = case.traces.iter().collect();
    let footprints: Vec<Footprint> = case.traces.iter().map(Footprint::of).collect();
    let first = platform.run_traces(&traces);
    let second = platform.run_traces(&traces);
    let audited = audited_run(&platform, &traces, &footprints.iter().collect::<Vec<_>>());

    let mut failures = Vec::new();
    if first != second {
        failures.push("co-scheduled run is not deterministic".to_string());
    }
    let cores = audited.result.cores.iter().zip(&first.cores);
    if cores.clone().any(|(a, b)| a.core != b.core) {
        failures.push("the audited run scheduled the cores differently".to_string());
    }
    for (idx, (trace, (_, run))) in case.traces.iter().zip(cores).enumerate() {
        let iso = Platform::with_config(platform.isolated_config(idx))
            .expect("validated configuration builds")
            .run_trace(trace);
        if (iso.core.loads, iso.core.stores, iso.core.instructions)
            != (run.core.loads, run.core.stores, run.core.instructions)
        {
            failures.push(format!(
                "core {idx}'s functional counts diverged from its isolated run"
            ));
        }
    }
    failures.extend(audited.findings);
    failures
}

/// [`shrink_failure`] against any predicate `fails`, which must hold for
/// `case` itself.
fn shrink_case(case: &MulticoreCase, fails: impl Fn(&MulticoreCase) -> bool) -> MulticoreCase {
    let mut case = case.clone();
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

/// Minimizes `failure`'s case against [`check_multicore`], whose audit
/// is the one every check runs: first drops whole cores (while more than
/// one is left) under which the case still fails, then ddmin-shrinks
/// each surviving core's events with [`shrink_events`]. A core keeps its
/// organization and offset. Each probe runs the case three times and
/// each core alone; meant for `sttcache-check --shrink` on a repro.
pub fn shrink_failure(failure: &CheckFailure) -> MulticoreCase {
    shrink_case(&failure.case, |c| !multicore_findings(c).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn footprint_counts_every_event() {
        let mut rec = TraceRecorder::new();
        rec.store(Addr(0), 4);
        rec.load(Addr(0), 4);
        rec.load(Addr(8), 4);
        rec.prefetch(Addr(0x40));
        rec.compute(5);
        rec.branch(true);
        let c = Footprint::of(&rec.into_trace()).counts;
        let counts = (c.loads, c.stores, c.prefetches, c.branches);
        assert_eq!(counts, (2, 1, 1, 1));
        assert_eq!(c.instructions(), 10);
    }

    #[test]
    fn footprint_marks_both_chunks_of_a_straddling_access() {
        let mut rec = TraceRecorder::new();
        rec.store(Addr(CHUNK_BYTES - 2), 4); // bytes 30..34: chunks 0 and 1
        rec.load(Addr(0x100), 8);
        let footprint = Footprint::of(&rec.into_trace());
        assert!(footprint.touches(0, 32));
        assert!(footprint.touches(32, 32));
        assert!(!footprint.touches(64, 32));
        assert!(footprint.touches(0xE0, 64), "a line covering 0x100's chunk");
        assert_eq!(footprint.chunks, [0, 1, 0x100 / CHUNK_BYTES]);
    }

    #[test]
    fn footprint_marks_a_prefetched_chunk() {
        let mut rec = TraceRecorder::new();
        rec.prefetch(Addr(0x1000));
        let footprint = Footprint::of(&rec.into_trace());
        assert!(footprint.touches(0x1000, 64));
        assert!(!footprint.touches(0x1040, 64));
        assert_eq!(footprint.counts.prefetches, 1);
        assert_eq!(footprint.chunks, [0x1000 / CHUNK_BYTES]);
    }

    #[test]
    fn small_random_trace_passes_differentially() {
        let trace = adversarial_trace(Adversary::RandomMix, DEFAULT_SEED, 400);
        if let Err(f) = check_trace(&trace) {
            panic!("failures: {:#?}", f.failures);
        }
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
        let t1 = irregular_trace(Adversary::RandomMix, 7, 500);
        let t2 = irregular_trace(Adversary::RandomMix, 7, 500);
        assert_eq!(t1, t2, "irregular derivation not deterministic");
        assert!(!t1.is_empty());
        assert!(t1.len() <= 500);
        // A different adversary salt lands on a different corner.
        let t3 = irregular_trace(Adversary::BankPingPong, 7, 500);
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

    /// The shrinker against a synthetic failure, "some core holds a
    /// store": a three-core case drops to the one core it keeps last,
    /// with that core's organization and offset, holding one store; a
    /// one-core case keeps its organization.
    #[test]
    fn shrink_case_drops_cores_then_events() {
        let is_store = |e: &TraceEvent| matches!(e, TraceEvent::Store { .. });
        let fails = |c: &MulticoreCase| c.traces.iter().any(|t| t.iter().any(|e| is_store(&e)));
        let orgs = all_organizations();
        let case = MulticoreCase {
            orgs: orgs[..3].to_vec(),
            offsets: vec![0, 5, 9],
            traces: [
                Adversary::RandomMix,
                Adversary::AliasWriteBurst,
                Adversary::LineStraddle,
            ]
            .map(|kind| adversarial_trace(kind, 3, 120))
            .to_vec(),
        };
        assert!(fails(&case));
        let minimal = shrink_case(&case, fails);
        assert_eq!(minimal.traces.len(), 1, "{minimal:?}");
        assert_eq!((minimal.orgs[0], minimal.offsets[0]), (orgs[2], 9));
        let events: Vec<TraceEvent> = minimal.traces[0].iter().collect();
        assert!(events.len() == 1 && is_store(&events[0]), "{events:?}");

        let alone = MulticoreCase {
            orgs: vec![orgs[4]],
            offsets: vec![0],
            traces: vec![case.traces[1].clone()],
        };
        let minimal = shrink_case(&alone, fails);
        assert_eq!(minimal.orgs, [orgs[4]]);
        assert_eq!(minimal.traces[0].len(), 1);
    }
}
