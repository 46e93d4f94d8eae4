//! N-core multi-programmed platforms over a shared banked L2.
//!
//! The paper evaluates its STT-MRAM DL1 on a single core, but every
//! related dense-NVM study (Jadidi et al., HALLS) stresses the shared
//! level: bank conflicts and shared-L2 pressure are where NVM write
//! latency actually bites. [`MultiPlatform`] closes that gap without a
//! coherence protocol — each core runs its *own* kernel on a *private*
//! front-end (any catalog organization), and only the unified L2 and
//! main memory are shared, exactly the multi-programmed (rate-mode)
//! setup those studies use.
//!
//! Each core's front-end is a [`FrontEnd<SharedL2>`] — the single-core
//! front-end type over a handle to the shared L2. A front-end drains and
//! audits only its stage and DL1; the platform owns the shared L2 and
//! drains it once, after every core.
//!
//! # Determinism
//!
//! Cores are interleaved by one global rule: **every event (load,
//! store, prefetch, compute batch or branch) goes to the unfinished
//! core with the lowest `(now, index)`**, so cores reach the shared L2
//! in a single, totally ordered cycle sequence and bank reservations
//! resolve identically on every run. An event moves only its own
//! core's clock, so the scheduler scans the cores once per batch, not
//! once per event: it replays the picked core until that core's
//! `(now, index)` passes the lowest of the other unfinished cores', and
//! the order is exactly that of one event per scan (pinned by this
//! module's tests). The whole multi-core run executes on one thread
//! ([`SharedL2`] is deliberately `!Send`), so a run is one sweep work
//! item and output is byte-identical at any `--jobs` count by
//! construction.
//!
//! With a single core the rule degenerates to "replay the trace in
//! order" — one batch — which is exactly what
//! [`crate::Platform::run_trace`] does: a 1-core `MultiPlatform`
//! therefore reproduces the single-core platform bit-for-bit (proven in
//! `tests/multicore_equivalence.rs`).

use crate::front_end::FrontEnd;
use crate::platform::{DCacheOrganization, Platform, PlatformConfig, RunResult};
use crate::SttError;
use sttcache_cpu::{Core, CoreConfig, CoreReport, Trace};
use sttcache_mem::{
    Addr, Cache, CacheConfig, CacheProbe, CacheStats, Cycle, MainMemory, MemoryLevel, Shared,
};

/// The shared tail of a multi-core hierarchy: one banked unified L2
/// over main memory. Every core's private DL1 holds a handle.
pub type SharedL2 = Shared<Cache<MainMemory>>;

/// Maximum core count a [`MultiPlatform`] accepts.
pub const MAX_CORES: usize = 8;

/// Latest cycle at which a core of a [`MultiPlatform`] may start: 2^48
/// cycles, about 3.3 days at 1 GHz. Far beyond any run, and far enough
/// below `u64::MAX` that a run's cycle arithmetic cannot overflow.
pub const MAX_PHASE_OFFSET: Cycle = 1 << 48;

/// Address-space stride separating the cores of a mix.
///
/// Multi-programmed kernels are separate processes: they must never
/// alias in the shared L2. Every kernel records the same virtual
/// addresses, so the scheduler translates core `i`'s accesses by
/// `i · 2^32`. The stride sits far above every set/bank index bit of
/// any configurable cache, so the translation is invisible to a single
/// core's timing — a 1-core run and the per-core isolated references
/// stay bit-identical to the untranslated trace — while guaranteeing
/// distinct cores share no line (coherence-free by construction).
pub const CORE_ADDRESS_STRIDE: u64 = 1 << 32;

/// Core `idx`'s private image of a trace address (see
/// [`CORE_ADDRESS_STRIDE`]). Oracles auditing a co-scheduled run must
/// apply the same translation to per-core reference address sets.
pub fn core_addr(idx: usize, addr: Addr) -> Addr {
    Addr(addr.0 + idx as u64 * CORE_ADDRESS_STRIDE)
}

/// One core of a [`MultiPlatform`]: which private organization it runs
/// and when it starts.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// The private L1 D-cache organization (any catalog entry).
    pub organization: DCacheOrganization,
    /// Cycle at which this core issues its first event — the staggered
    /// phase offset of a multi-programmed mix.
    pub phase_offset: Cycle,
}

impl CoreSpec {
    /// A core starting at cycle 0.
    pub fn new(organization: DCacheOrganization) -> Self {
        CoreSpec {
            organization,
            phase_offset: 0,
        }
    }

    /// A core starting at `phase_offset`.
    pub fn staggered(organization: DCacheOrganization, phase_offset: Cycle) -> Self {
        CoreSpec {
            organization,
            phase_offset,
        }
    }
}

/// Full multi-core platform configuration. The shared parameters
/// (core microarchitecture, memory latency, clock, geometry overrides)
/// mirror [`PlatformConfig`]; only the organization and phase offset
/// are per-core. Instruction fetch is ideal (the paper never changes
/// the IL1, and the single-core default is the same).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPlatformConfig {
    /// One entry per core, index order = scheduling tie-break order.
    pub cores: Vec<CoreSpec>,
    /// Core parameters (identical for every core).
    pub core: CoreConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Replaces the canonical per-core DL1 geometry/timing when set.
    pub dl1_override: Option<CacheConfig>,
    /// Replaces the canonical shared-L2 geometry/timing when set — the
    /// knob for bank-count sweeps.
    pub l2_override: Option<CacheConfig>,
}

impl MultiPlatformConfig {
    /// The paper's platform parameters around the given cores.
    pub fn new(cores: Vec<CoreSpec>) -> Self {
        MultiPlatformConfig {
            cores,
            core: CoreConfig::default(),
            memory_latency: 100,
            clock_ghz: 1.0,
            dl1_override: None,
            l2_override: None,
        }
    }

    /// `n` identical cores of `organization`, all starting at cycle 0.
    pub fn homogeneous(organization: DCacheOrganization, n: usize) -> Self {
        MultiPlatformConfig::new(vec![CoreSpec::new(organization); n])
    }
}

/// The N-core platform: per-core private front-ends over one shared
/// banked L2 and main memory. Build once, [`MultiPlatform::run_traces`]
/// any number of workload mixes — each run starts from cold caches.
#[derive(Debug, Clone)]
pub struct MultiPlatform {
    config: MultiPlatformConfig,
    /// Each core's isolated single-core platform: the source of that
    /// core's DL1, buffer stage and energy model, and (identically in
    /// every core) of the shared L2.
    isolated: Vec<Platform>,
}

impl MultiPlatform {
    /// Creates a multi-core platform. Nothing is built: every core's
    /// isolated platform checks its configuration, and every run builds
    /// its own cold assembly.
    ///
    /// # Errors
    ///
    /// Returns an [`SttError`] if there is no core or more than
    /// [`MAX_CORES`], if a core starts after [`MAX_PHASE_OFFSET`], or if
    /// any per-core organization or the shared-L2 configuration is
    /// invalid (see [`Platform::with_config`]).
    pub fn new(config: MultiPlatformConfig) -> Result<Self, SttError> {
        if config.cores.is_empty() {
            return Err(SttError::InvalidPlatform {
                reason: "a multi-core platform needs at least one core".into(),
            });
        }
        if config.cores.len() > MAX_CORES {
            return Err(SttError::InvalidPlatform {
                reason: format!(
                    "{} cores requested, but at most {MAX_CORES} are supported",
                    config.cores.len()
                ),
            });
        }
        let late = |(_, spec): &(usize, &CoreSpec)| spec.phase_offset > MAX_PHASE_OFFSET;
        if let Some((idx, spec)) = config.cores.iter().enumerate().find(late) {
            return Err(SttError::InvalidPlatform {
                reason: format!(
                    "core {idx} starts at cycle {}, after the limit of {MAX_PHASE_OFFSET}",
                    spec.phase_offset
                ),
            });
        }
        let isolated = config
            .cores
            .iter()
            .map(|spec| {
                Platform::with_config(PlatformConfig {
                    organization: spec.organization,
                    core: config.core,
                    memory_latency: config.memory_latency,
                    clock_ghz: config.clock_ghz,
                    dl1_override: config.dl1_override,
                    l2_override: config.l2_override,
                    icache: None,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(MultiPlatform { config, isolated })
    }

    /// The configuration.
    pub fn config(&self) -> &MultiPlatformConfig {
        &self.config
    }

    /// The equivalent *single-core* platform configuration for core
    /// `idx` — same organization, overrides and timing parameters over a
    /// private (unshared) L2. Running core `idx`'s trace on this platform
    /// is the "isolated run" every contention measurement compares
    /// against.
    pub fn isolated_config(&self, idx: usize) -> PlatformConfig {
        self.isolated[idx].config().clone()
    }

    /// Replays one recorded trace per core on a cold platform, cores
    /// interleaved by the lowest-`(now, index)` rule (see the module
    /// docs), and collects per-core plus shared statistics.
    ///
    /// Every address a trace touches must lie below
    /// [`CORE_ADDRESS_STRIDE`]: core `i`'s stripe is relocated by
    /// `i · CORE_ADDRESS_STRIDE`, so a byte at or above it would alias
    /// the next core's stripe. Recorded kernels stay far below; the mix
    /// grammar refuses `file:` traces that reach it.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace per core is supplied.
    pub fn run_traces(&self, traces: &[&Trace]) -> MultiRunResult {
        let (reports, ports, l2) = self.execute(traces, false);
        self.assemble(reports, &ports, &l2)
    }

    /// [`MultiPlatform::run_traces`] with the shared L2 probed: the same
    /// [`MultiRunResult`], and beside it the shared L2's instruments, the
    /// ones the mix's `sim --explain` report renders. The private levels
    /// stay unprobed.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace per core is supplied.
    pub fn run_traces_probed(&self, traces: &[&Trace]) -> (MultiRunResult, CacheProbe) {
        let (reports, ports, l2) = self.execute(traces, true);
        let probe = l2.borrow_mut().take_probe();
        (self.assemble(reports, &ports, &l2), probe)
    }

    /// [`MultiPlatform::run_traces`] followed by a full end-of-run
    /// audit: every front-end is drained into the shared L2, the shared
    /// L2 into memory, `check_drained` runs at every level (reported
    /// through [`sttcache_mem::invariants`] when armed), and the
    /// resident lines of each core's private levels and of the shared L2
    /// are returned for phantom-line verification. The statistics in the
    /// returned [`MultiRunResult`] *include* the drain write-backs.
    pub fn run_traces_audited(&self, traces: &[&Trace]) -> (MultiRunResult, MultiAudit) {
        let (reports, mut ports, l2) = self.execute(traces, false);
        let mut t = reports.iter().map(|r| r.cycles).max().unwrap_or(0)
            + self
                .config
                .cores
                .iter()
                .map(|c| c.phase_offset)
                .max()
                .unwrap_or(0);
        let mut flushed = 0;
        for fe in &mut ports {
            let (n, done) = fe.flush_dirty(t);
            flushed += n;
            t = done;
        }
        {
            let (n, done) = l2.borrow_mut().flush_dirty(t);
            flushed += n;
            t = done;
        }
        for fe in &ports {
            fe.check_drained(t);
        }
        l2.borrow().check_drained(t);
        let dirty_after_drain =
            ports.iter().map(FrontEnd::dirty_line_count).sum::<usize>() + l2.borrow().dirty_lines();
        let core_resident = ports.iter().map(FrontEnd::resident_lines).collect();
        let shared_resident = {
            let guard = l2.borrow();
            let line_bytes = guard.config().line_bytes();
            guard
                .resident_lines()
                .into_iter()
                .map(|a| (a, line_bytes))
                .collect()
        };
        let result = self.assemble(reports, &ports, &l2);
        (
            result,
            MultiAudit {
                flushed_lines: flushed,
                dirty_after_drain,
                core_resident,
                shared_resident,
            },
        )
    }

    /// Builds the cold assembly, the shared L2 probed if `probe_l2`, and
    /// interleaves the traces to completion; reports are taken in index
    /// order (draining each core's store buffer deterministically).
    fn execute(
        &self,
        traces: &[&Trace],
        probe_l2: bool,
    ) -> (Vec<CoreReport>, Vec<FrontEnd<SharedL2>>, SharedL2) {
        let n = self.config.cores.len();
        assert_eq!(traces.len(), n, "one trace per core");
        let mut l2 = self.isolated[0].build_l2();
        if probe_l2 {
            l2.arm_probe();
        }
        let l2 = Shared::new(l2);
        let mut cores: Vec<Core<FrontEnd<SharedL2>>> = (0..n)
            .map(|idx| {
                let fe = self.isolated[idx].build_dl1_front_end(l2.clone());
                Core::starting_at(self.config.core, fe, self.config.cores[idx].phase_offset)
            })
            .collect();

        let mut streams: Vec<_> = traces.iter().map(|t| t.iter()).collect();
        // Step the unfinished core with the lowest (now, index), so the
        // interleave is a total order. Only the stepped core's clock
        // moves, so it keeps the turn until its (now, index) passes the
        // lowest among the other unfinished cores: replay it up to there
        // in one batch.
        while let Some(idx) = (0..n)
            .filter(|&i| streams[i].len() > 0)
            .min_by_key(|&i| (cores[i].now(), i))
        {
            let horizon = (0..n)
                .filter(|&i| i != idx && streams[i].len() > 0)
                .map(|i| (cores[i].now(), i))
                .min();
            // The last cycle at which the core still holds the turn: a
            // tie at the horizon's cycle goes to the lower index.
            let last = horizon.map_or(Cycle::MAX, |(now, i)| now - Cycle::from(idx > i));
            let core = &mut cores[idx];
            for mut ev in streams[idx].by_ref() {
                if let Some(addr) = ev.addr_mut() {
                    *addr = core_addr(idx, *addr);
                }
                ev.replay_into(core);
                if core.now() > last {
                    break;
                }
            }
        }

        let reports: Vec<CoreReport> = cores.iter_mut().map(Core::report).collect();
        let ports: Vec<FrontEnd<SharedL2>> = cores.into_iter().map(Core::into_port).collect();
        (reports, ports, l2)
    }

    /// Assembles per-core [`RunResult`]s plus the shared totals. Each
    /// core's `l2` and `memory` fields carry the *shared* end-of-run
    /// totals (the same values in every core's result — per-core demand
    /// on the shared level is visible in that core's private DL1
    /// miss/write-back counters).
    fn assemble(
        &self,
        reports: Vec<CoreReport>,
        ports: &[FrontEnd<SharedL2>],
        l2: &SharedL2,
    ) -> MultiRunResult {
        let shared_l2 = l2.stats_snapshot();
        let memory = *l2.borrow().next_level().stats();
        let cores = reports
            .into_iter()
            .zip(ports)
            .enumerate()
            .map(|(idx, (report, fe))| {
                let dl1 = *fe.dl1_stats();
                let buffers = fe.stage_stats();
                let energy = self.isolated[idx].energy_report(&report, &dl1, &shared_l2, &buffers);
                RunResult {
                    organization: self.config.cores[idx].organization,
                    core: report,
                    dl1,
                    l2: shared_l2,
                    memory,
                    il1: None,
                    buffers,
                    energy,
                }
            })
            .collect();
        MultiRunResult {
            cores,
            shared_l2,
            memory,
        }
    }
}

/// Everything measured in one multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRunResult {
    /// Per-core results, in core-index order. The `l2`/`memory` fields
    /// hold the shared totals (identical across cores).
    pub cores: Vec<RunResult>,
    /// Shared-L2 end-of-run statistics (bank conflicts included).
    pub shared_l2: CacheStats,
    /// Main-memory end-of-run statistics.
    pub memory: CacheStats,
}

impl MultiRunResult {
    /// Sum of per-core cycle counts (each excludes its phase offset) —
    /// the aggregate-work metric the contention sweeps report.
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(RunResult::cycles).sum()
    }
}

/// End-of-run audit from [`MultiPlatform::run_traces_audited`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAudit {
    /// Lines written back by the full drain (stages → DL1s → L2 →
    /// memory).
    pub flushed_lines: usize,
    /// Dirty lines anywhere after the drain — must be zero.
    pub dirty_after_drain: usize,
    /// Per core: base address and line size of every line resident in
    /// that core's *private* levels after the drain.
    pub core_resident: Vec<Vec<(Addr, usize)>>,
    /// Lines resident in the shared L2 after the drain.
    pub shared_resident: Vec<(Addr, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_cpu::{Engine, TraceRecorder};

    fn stream_trace(base: u64, lines: u64) -> Trace {
        let mut rec = TraceRecorder::new();
        for pass in 0..2 {
            for i in 0..lines {
                rec.load(Addr(base + i * 64), 4);
                rec.compute(2);
                if i % 3 == 0 {
                    rec.store(Addr(base + i * 64), 4);
                }
            }
            rec.branch(pass == 0);
        }
        rec.into_trace()
    }

    fn two_core_platform() -> MultiPlatform {
        MultiPlatform::new(MultiPlatformConfig::new(vec![
            CoreSpec::new(DCacheOrganization::nvm_vwb_default()),
            CoreSpec::staggered(DCacheOrganization::SramBaseline, 100),
        ]))
        .unwrap()
    }

    #[test]
    fn rejects_zero_and_too_many_cores() {
        assert!(MultiPlatform::new(MultiPlatformConfig::new(Vec::new())).is_err());
        let too_many =
            MultiPlatformConfig::homogeneous(DCacheOrganization::SramBaseline, MAX_CORES + 1);
        assert!(MultiPlatform::new(too_many).is_err());
        let ok = MultiPlatformConfig::homogeneous(DCacheOrganization::SramBaseline, MAX_CORES);
        assert!(MultiPlatform::new(ok).is_ok());
    }

    #[test]
    fn refuses_a_phase_offset_past_the_limit() {
        let spec = |offset| {
            MultiPlatformConfig::new(vec![
                CoreSpec::new(DCacheOrganization::SramBaseline),
                CoreSpec::staggered(DCacheOrganization::nvm_vwb_default(), offset),
            ])
        };
        let err = MultiPlatform::new(spec(MAX_PHASE_OFFSET + 1))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("core 1") && err.contains(&(MAX_PHASE_OFFSET + 1).to_string()),
            "{err}"
        );
        // At exactly the limit the run completes, and the late core's
        // cycle count does not depend on how late it starts.
        let (a, b) = (stream_trace(0, 64), stream_trace(1 << 20, 64));
        let late = MultiPlatform::new(spec(MAX_PHASE_OFFSET))
            .unwrap()
            .run_traces(&[&a, &b]);
        let apart = MultiPlatform::new(spec(1 << 40))
            .unwrap()
            .run_traces(&[&a, &b]);
        assert_eq!(late.cores[1].cycles(), apart.cores[1].cycles());
    }

    #[test]
    fn two_cores_share_one_l2() {
        let p = two_core_platform();
        let (a, b) = (stream_trace(0, 64), stream_trace(1 << 20, 64));
        let r = p.run_traces(&[&a, &b]);
        assert_eq!(r.cores.len(), 2);
        // Both cores' misses reached the one L2.
        let demand: u64 = r.cores.iter().map(|c| c.dl1.read_misses()).sum();
        assert!(r.shared_l2.reads >= demand);
        assert_eq!(r.cores[0].l2, r.shared_l2);
        assert_eq!(r.cores[1].l2, r.shared_l2);
        assert!(r.cores.iter().all(|c| c.cycles() > 0));
    }

    #[test]
    fn runs_are_reproducible() {
        let p = two_core_platform();
        let (a, b) = (stream_trace(0, 64), stream_trace(1 << 20, 64));
        assert_eq!(p.run_traces(&[&a, &b]), p.run_traces(&[&a, &b]));
    }

    #[test]
    fn contention_costs_cycles() {
        // Same kernel alone vs against a co-runner hammering the same
        // banks: the co-run must not be faster.
        let solo = MultiPlatform::new(MultiPlatformConfig::homogeneous(
            DCacheOrganization::NvmDropIn,
            1,
        ))
        .unwrap();
        let duo = MultiPlatform::new(MultiPlatformConfig::homogeneous(
            DCacheOrganization::NvmDropIn,
            2,
        ))
        .unwrap();
        let t0 = stream_trace(0, 256);
        let t1 = stream_trace(0, 256);
        let alone = solo.run_traces(&[&t0]).cores[0].cycles();
        let contended = duo.run_traces(&[&t0, &t1]).cores[0].cycles();
        assert!(
            contended >= alone,
            "co-run sped core 0 up: {contended} < {alone}"
        );
    }

    #[test]
    fn audited_run_drains_clean() {
        let p = two_core_platform();
        let (a, b) = (stream_trace(0, 64), stream_trace(1 << 20, 64));
        let (r, audit) = p.run_traces_audited(&[&a, &b]);
        assert_eq!(audit.dirty_after_drain, 0);
        assert!(audit.flushed_lines > 0);
        assert_eq!(audit.core_resident.len(), 2);
        // The drain's write-backs are included in the shared stats.
        assert!(r.shared_l2.writes > 0);
    }

    /// The interleave as its rule reads, one event per scheduler scan:
    /// the reference the batched `MultiPlatform::execute` must reproduce
    /// exactly.
    fn run_one_event_per_scan(p: &MultiPlatform, traces: &[&Trace]) -> MultiRunResult {
        let l2 = Shared::new(p.isolated[0].build_l2());
        let mut cores: Vec<_> = p
            .isolated
            .iter()
            .zip(&p.config.cores)
            .map(|(iso, spec)| {
                let fe = iso.build_dl1_front_end(l2.clone());
                Core::starting_at(p.config.core, fe, spec.phase_offset)
            })
            .collect();
        let mut streams: Vec<_> = traces.iter().map(|t| t.iter()).collect();
        while let Some(idx) = (0..cores.len())
            .filter(|&i| streams[i].len() > 0)
            .min_by_key(|&i| (cores[i].now(), i))
        {
            let mut ev = streams[idx].next().expect("the picked core is unfinished");
            if let Some(addr) = ev.addr_mut() {
                *addr = core_addr(idx, *addr);
            }
            ev.replay_into(&mut cores[idx]);
        }
        let reports = cores.iter_mut().map(Core::report).collect();
        let ports: Vec<_> = cores.into_iter().map(Core::into_port).collect();
        p.assemble(reports, &ports, &l2)
    }

    /// A seeded random trace over the first `lines` lines: loads,
    /// stores, prefetches, compute groups of 0 to 3 ops and branches.
    fn random_trace(seed: u64, events: usize, lines: u64) -> Trace {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rec = TraceRecorder::new();
        for _ in 0..events {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = Addr((x >> 16) % (lines * 64));
            match x % 8 {
                0..=2 => rec.load(addr, 4),
                3 | 4 => rec.store(addr, 4),
                5 => rec.prefetch(addr),
                6 => rec.compute(x >> 62),
                _ => rec.branch(x & 8 != 0),
            }
        }
        rec.into_trace()
    }

    #[test]
    fn batched_interleave_matches_one_event_per_scan() {
        // Identical cores replaying one trace from one cycle tie over and
        // over: prefetches and stores move a clock by one cycle whatever
        // the shared L2 does, and an empty compute group not at all. A
        // batch boundary that ignores the index reorders those ties.
        let shared = random_trace(7, 1500, 2048);
        let check = |mix: String, specs: Vec<CoreSpec>, traces: &[&Trace]| {
            let p = MultiPlatform::new(MultiPlatformConfig::new(specs)).unwrap();
            let reference = run_one_event_per_scan(&p, traces);
            assert_eq!(p.run_traces(traces), reference, "{mix}");
        };
        let catalog = crate::catalog::catalog();
        for (k, entry) in catalog.iter().enumerate() {
            let org = entry.organization;
            for n in 2..=4 {
                let same = vec![&shared; n];
                check(
                    format!("{n} tied {} cores", entry.cli),
                    vec![CoreSpec::new(org); n],
                    &same,
                );
                let staggered = (0..n)
                    .map(|i| CoreSpec::staggered(org, 37 * i as Cycle))
                    .collect();
                check(
                    format!("{n} staggered {} cores", entry.cli),
                    staggered,
                    &same,
                );
                // Core i runs the i-th catalog organization after this one.
                let mixed = (0..n)
                    .map(|i| CoreSpec::new(catalog[(k + i) % catalog.len()].organization))
                    .collect();
                let random: Vec<Trace> = (0..n)
                    .map(|i| random_trace((16 * k + 4 * n + i) as u64, 1500, 2048))
                    .collect();
                check(
                    format!("{n} random cores from {}", entry.cli),
                    mixed,
                    &random.iter().collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_core_count() {
        let p = two_core_platform();
        let a = stream_trace(0, 8);
        p.run_traces(&[&a]);
    }
}
