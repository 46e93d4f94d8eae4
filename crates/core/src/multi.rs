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
//! # Determinism
//!
//! Cores are interleaved by one global rule: **always step the
//! unfinished core with the lowest `(now, index)`**. One event (load,
//! store, prefetch, compute batch or branch) is applied per step, so
//! cores reach the shared L2 in a single, totally ordered cycle
//! sequence and bank reservations resolve identically on every run.
//! The whole multi-core run executes on one thread ([`SharedL2`] is
//! deliberately `!Send`), so a run is one sweep work item and output is
//! byte-identical at any `--jobs` count by construction.
//!
//! With a single core the rule degenerates to "replay the trace in
//! order", which is exactly what [`crate::Platform::run_trace`] does —
//! a 1-core `MultiPlatform` therefore reproduces the single-core
//! platform bit-for-bit (proven in `tests/multicore_equivalence.rs`).

use crate::platform::{DCacheOrganization, Platform, PlatformConfig, RunResult};
use crate::stage::{probe_then_fetch, BufferStage, Buffered, StageStats, StageTelemetry};
use crate::SttError;
use sttcache_cpu::{Core, CoreConfig, CoreReport, DataPort, Engine, MemPort, Trace, TraceEvent};
use sttcache_mem::{Addr, Cache, CacheConfig, CacheStats, Cycle, MainMemory, MemoryLevel, Shared};

/// The shared tail of a multi-core hierarchy: one banked unified L2
/// over main memory. Every core's private DL1 holds a handle.
pub type SharedL2 = Shared<Cache<MainMemory>>;

/// A core-private DL1 over the shared L2 — the multi-core counterpart
/// of [`crate::Hierarchy`].
pub type McHierarchy = Cache<SharedL2>;

/// Maximum core count a [`MultiPlatform`] accepts.
pub const MAX_CORES: usize = 8;

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

/// Per-core DL1 telemetry component names (must be `&'static str`).
const CORE_DL1_COMPONENTS: [&str; MAX_CORES] = [
    "core0.dl1",
    "core1.dl1",
    "core2.dl1",
    "core3.dl1",
    "core4.dl1",
    "core5.dl1",
    "core6.dl1",
    "core7.dl1",
];

/// A core-private front-end over the shared L2 — the multi-core
/// counterpart of [`crate::FrontEnd`], with the same two shapes:
/// direct DL1 access or any [`BufferStage`] composition in front of it.
///
/// Statistics come straight off the private DL1 (the shared L2 sits
/// behind a `RefCell` and cannot be walked with the `levels()`
/// iterator); shared-level statistics belong to the platform, which
/// keeps its own [`SharedL2`] handle.
#[derive(Debug)]
pub enum McFrontEnd {
    /// Direct DL1 access.
    Plain(MemPort<McHierarchy>),
    /// A buffer-stage composition in front of the DL1.
    Buffered(Buffered<Box<dyn BufferStage>, McHierarchy>),
}

impl McFrontEnd {
    /// Wraps a ready-built stage composition around `dl1`.
    pub fn buffered(stage: Box<dyn BufferStage>, dl1: McHierarchy) -> Self {
        McFrontEnd::Buffered(Buffered::compose(stage, dl1))
    }

    /// The private DL1 behind whatever buffer structure this front-end
    /// has.
    fn dl1(&self) -> &McHierarchy {
        match self {
            McFrontEnd::Plain(p) => p.level(),
            McFrontEnd::Buffered(b) => b.below(),
        }
    }

    /// Mutable access to the private DL1.
    fn dl1_mut(&mut self) -> &mut McHierarchy {
        match self {
            McFrontEnd::Plain(p) => p.level_mut(),
            McFrontEnd::Buffered(b) => b.below_mut(),
        }
    }

    /// The private DL1 statistics.
    pub fn dl1_stats(&self) -> &CacheStats {
        self.dl1().stats()
    }

    /// Labelled statistics of every buffer stage, outermost first
    /// (empty for `Plain`).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        match self {
            McFrontEnd::Plain(_) => Vec::new(),
            McFrontEnd::Buffered(b) => {
                let mut out = Vec::new();
                b.stage().collect_stats(&mut out);
                out
            }
        }
    }

    /// Occupancy snapshots of every buffer stage, outermost first
    /// (empty for `Plain`).
    pub fn stage_telemetry(&self) -> Vec<StageTelemetry> {
        match self {
            McFrontEnd::Plain(_) => Vec::new(),
            McFrontEnd::Buffered(b) => {
                let mut out = Vec::new();
                b.stage()
                    .collect_telemetry(b.below().config().line_bytes(), &mut out);
                out
            }
        }
    }

    /// Resets all statistics in the stage, the private DL1 **and the
    /// shared L2 behind it** (`Cache::reset_stats` recurses into its
    /// next level, and the shared level has only one counter set) —
    /// resetting through any one core clears the L2 for every core.
    /// [`MultiPlatform`] never resets mid-run; this exists for the
    /// stage-conformance audit.
    pub fn reset_stats(&mut self) {
        match self {
            McFrontEnd::Plain(p) => p.level_mut().reset_stats(),
            McFrontEnd::Buffered(b) => b.reset_stats(),
        }
    }

    /// Drains the *core-private* dirty state — front buffer stages into
    /// the DL1, then the DL1 into the shared L2. The shared L2 itself is
    /// drained once by the platform (it holds lines from every core), not
    /// per front-end. Returns lines written back and the completion cycle.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let (front, done) = match self {
            McFrontEnd::Plain(_) => (0, now),
            McFrontEnd::Buffered(b) => b.flush_dirty(now),
        };
        let (n1, t1) = self.dl1_mut().flush_dirty(done);
        (front + n1, t1)
    }

    /// Dirty state still held in the core-private part (front buffer
    /// entries plus DL1 dirty lines). Zero after a completed
    /// [`flush_dirty`](Self::flush_dirty).
    pub fn dirty_line_count(&self) -> usize {
        let front = match self {
            McFrontEnd::Plain(_) => 0,
            McFrontEnd::Buffered(b) => b.dirty_entries(),
        };
        front + self.dl1().dirty_lines()
    }

    /// Base address and line size of every line resident in the
    /// core-private part (stage entries plus DL1 lines), for phantom-line
    /// verification: a core's private levels must never hold a line the
    /// core itself did not touch.
    pub fn resident_lines(&self) -> Vec<(Addr, usize)> {
        let mut lines: Vec<(Addr, usize)> = Vec::new();
        let dl1_bytes = self.dl1().config().line_bytes();
        if let McFrontEnd::Buffered(b) = self {
            lines.extend(b.resident_lines().into_iter().map(|a| (a, dl1_bytes)));
        }
        lines.extend(
            self.dl1()
                .resident_lines()
                .into_iter()
                .map(|a| (a, dl1_bytes)),
        );
        lines
    }

    /// End-of-run verification of the core-private part, reported
    /// through [`sttcache_mem::invariants`]; the platform audits the
    /// shared L2 separately.
    pub fn check_drained(&self, now: Cycle) {
        let front_dirty = match self {
            McFrontEnd::Plain(_) => 0,
            McFrontEnd::Buffered(b) => {
                b.check_invariants(now);
                b.dirty_entries()
            }
        };
        if front_dirty > 0 {
            sttcache_mem::invariants::report(
                "mc-front-end",
                now,
                None,
                format!("{front_dirty} dirty buffer entries remain after drain"),
            );
        }
        self.dl1().check_drained(now);
    }
}

impl DataPort for McFrontEnd {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            McFrontEnd::Plain(p) => p.read(addr, now),
            McFrontEnd::Buffered(b) => b.read(addr, now),
        }
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            McFrontEnd::Plain(p) => p.write(addr, now),
            McFrontEnd::Buffered(b) => b.write(addr, now),
        }
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        // Same PLD semantics as the single-core front-end: probe the L1
        // tags, fetch on a miss; promoting stages override
        // `BufferStage::prefetch`.
        match self {
            McFrontEnd::Plain(p) => probe_then_fetch(p.level_mut(), addr, now),
            McFrontEnd::Buffered(b) => b.prefetch(addr, now),
        }
    }
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
}

impl MultiPlatform {
    /// Creates a multi-core platform.
    ///
    /// # Errors
    ///
    /// Returns an [`SttError`] if there is no core or more than
    /// [`MAX_CORES`], or if any per-core organization or the shared-L2
    /// configuration is invalid (validated eagerly by building the full
    /// assembly once).
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
        let p = MultiPlatform { config };
        let l2 = p.build_shared_l2()?;
        for idx in 0..p.config.cores.len() {
            p.build_front_end_for(idx, &l2)?;
            p.core_platform(idx)?; // validates the per-core energy-model config
        }
        Ok(p)
    }

    /// The configuration.
    pub fn config(&self) -> &MultiPlatformConfig {
        &self.config
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.config.cores.len()
    }

    /// The equivalent *single-core* platform configuration for core
    /// `idx` — same organization, overrides and timing parameters over a
    /// private (unshared) L2. Running core `idx`'s trace on this platform
    /// is the "isolated run" every contention measurement compares
    /// against.
    pub fn isolated_config(&self, idx: usize) -> PlatformConfig {
        PlatformConfig {
            organization: self.config.cores[idx].organization,
            core: self.config.core,
            memory_latency: self.config.memory_latency,
            clock_ghz: self.config.clock_ghz,
            dl1_override: self.config.dl1_override,
            l2_override: self.config.l2_override,
            icache: None,
        }
    }

    fn core_platform(&self, idx: usize) -> Result<Platform, SttError> {
        Platform::with_config(self.isolated_config(idx))
    }

    /// Builds the cold shared tail: one banked L2 over main memory.
    fn build_shared_l2(&self) -> Result<SharedL2, SttError> {
        let l2cfg = match self.config.l2_override {
            Some(cfg) => cfg,
            None => crate::l2_config()?,
        };
        let mut tail = Cache::new(l2cfg, MainMemory::new(self.config.memory_latency));
        tail.set_telemetry_component("l2");
        Ok(Shared::new(tail))
    }

    /// Builds core `idx`'s cold private front-end over a handle to the
    /// shared L2.
    fn build_front_end_for(&self, idx: usize, l2: &SharedL2) -> Result<McFrontEnd, SttError> {
        let dl1_cfg = match self.config.dl1_override {
            Some(cfg) => cfg,
            None => match self.config.cores[idx].organization.dl1_technology() {
                crate::DlOneTechnology::Sram => crate::sram_dl1_config()?,
                crate::DlOneTechnology::SttMram => crate::nvm_dl1_config()?,
            },
        };
        let mut dl1 = Cache::new(dl1_cfg, l2.clone());
        dl1.set_telemetry_component(CORE_DL1_COMPONENTS[idx]);
        let line_bits = dl1.config().line_bytes() * 8;
        let stage = self.config.cores[idx].organization.build_stage(line_bits)?;
        Ok(match stage {
            None => McFrontEnd::Plain(MemPort::new(dl1)),
            Some(stage) => McFrontEnd::buffered(stage, dl1),
        })
    }

    /// Replays one recorded trace per core on a cold platform, cores
    /// interleaved by the lowest-`(now, index)` rule (see the module
    /// docs), and collects per-core plus shared statistics.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace per core is supplied.
    pub fn run_traces(&self, traces: &[&Trace]) -> MultiRunResult {
        let (reports, ports, l2) = self.execute(traces);
        self.assemble(reports, &ports, &l2)
    }

    /// [`MultiPlatform::run_traces`] followed by a full end-of-run
    /// audit: every front-end is drained into the shared L2, the shared
    /// L2 into memory, `check_drained` runs at every level (reported
    /// through [`sttcache_mem::invariants`] when armed), and the
    /// resident lines of each core's private levels and of the shared L2
    /// are returned for phantom-line verification. The statistics in the
    /// returned [`MultiRunResult`] *include* the drain write-backs.
    pub fn run_traces_audited(&self, traces: &[&Trace]) -> (MultiRunResult, MultiAudit) {
        let (reports, mut ports, l2) = self.execute(traces);
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
        let dirty_after_drain = ports
            .iter()
            .map(McFrontEnd::dirty_line_count)
            .sum::<usize>()
            + l2.borrow().dirty_lines();
        let core_resident = ports.iter().map(McFrontEnd::resident_lines).collect();
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

    /// Builds the cold assembly and interleaves the traces to
    /// completion; reports are taken in index order (draining each
    /// core's store buffer deterministically).
    fn execute(&self, traces: &[&Trace]) -> (Vec<CoreReport>, Vec<McFrontEnd>, SharedL2) {
        let n = self.config.cores.len();
        assert_eq!(traces.len(), n, "one trace per core");
        let l2 = self
            .build_shared_l2()
            .expect("configuration was validated eagerly");
        let mut cores: Vec<Core<McFrontEnd>> = (0..n)
            .map(|idx| {
                let fe = self
                    .build_front_end_for(idx, &l2)
                    .expect("configuration was validated eagerly");
                Core::starting_at(self.config.core, fe, self.config.cores[idx].phase_offset)
            })
            .collect();

        let mut pos = vec![0usize; n];
        loop {
            // The unfinished core with the lowest (now, index); ties go
            // to the lower index, so the interleave is a total order.
            let mut pick: Option<usize> = None;
            for (idx, core) in cores.iter().enumerate() {
                if pos[idx] < traces[idx].events().len() {
                    pick = match pick {
                        Some(best) if cores[best].now() <= core.now() => Some(best),
                        _ => Some(idx),
                    };
                }
            }
            let Some(idx) = pick else { break };
            let ev = traces[idx].events()[pos[idx]];
            pos[idx] += 1;
            // Exactly `Trace::replay_into`'s dispatch, one event at a
            // time, with memory addresses relocated into the core's
            // private address-space stripe.
            match ev {
                TraceEvent::Load { addr, bytes } => {
                    cores[idx].load(core_addr(idx, addr), bytes as usize)
                }
                TraceEvent::Store { addr, bytes } => {
                    cores[idx].store(core_addr(idx, addr), bytes as usize)
                }
                TraceEvent::Prefetch { addr } => cores[idx].prefetch(core_addr(idx, addr)),
                TraceEvent::Compute { ops } => cores[idx].compute(ops as u64),
                TraceEvent::Branch { taken } => cores[idx].branch(taken),
            }
        }

        let reports: Vec<CoreReport> = cores.iter_mut().map(Core::report).collect();
        let ports: Vec<McFrontEnd> = cores.into_iter().map(Core::into_port).collect();
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
        ports: &[McFrontEnd],
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
                let energy = self
                    .core_platform(idx)
                    .expect("configuration was validated eagerly")
                    .energy_report(&report, &dl1, &shared_l2, &buffers);
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
    use sttcache_cpu::TraceRecorder;

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

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_core_count() {
        let p = two_core_platform();
        let a = stream_trace(0, 8);
        p.run_traces(&[&a]);
    }
}
