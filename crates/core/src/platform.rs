//! The evaluated platform (paper §VI).
//!
//! A single-core 1 GHz ARM-like system with a 64 KB 2-way L1 D-cache (SRAM
//! or STT-MRAM, optionally fronted by a VWB, L0 or EMSHR), a 2 MB 16-way
//! unified SRAM L2 and a 100-cycle main memory. The 32 KB SRAM I-cache is
//! identical in every configuration (the paper never changes it), so
//! instruction fetch is modelled as ideal — it cancels out of every penalty
//! ratio.

use crate::baselines::{EmshrConfig, L0Config};
use crate::buffer::{BufferProbe, LineBuffer};
use crate::dl1::{l2_config, DlOneTechnology};
use crate::front_end::FrontEnd;
use crate::stage::{BufferStats, StackSpec, StageSpec, StageStats};
use crate::vwb::VwbConfig;
use crate::SttError;
use sttcache_cpu::{Core, CoreConfig, CoreReport, Engine, FetchUnit, Trace};
use sttcache_mem::telemetry::Histogram;
use sttcache_mem::{Cache, CacheConfig, CacheProbe, CacheStats, MainMemory, MemoryLevel};
use sttcache_tech::{ArrayModel, CellKind, LeakageIntegrator};

/// Which L1 D-cache organization the platform runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DCacheOrganization {
    /// The SRAM baseline (Fig. 1's 100 % reference).
    SramBaseline,
    /// Drop-in STT-MRAM replacement, no mitigation (Fig. 1).
    NvmDropIn,
    /// STT-MRAM DL1 behind a Very Wide Buffer (the proposal).
    NvmVwb(VwbConfig),
    /// STT-MRAM DL1 behind an L0 cache (Fig. 8 baseline).
    NvmL0(L0Config),
    /// STT-MRAM DL1 behind an enhanced MSHR (Fig. 8 baseline).
    NvmEmshr(EmshrConfig),
    /// STT-MRAM DL1 behind a named stack of buffer stages (catalog-only
    /// organizations composed from existing stages; see
    /// [`crate::catalog`]).
    NvmStack(StackSpec),
}

impl DCacheOrganization {
    /// The proposal with the paper's default 2 Kbit VWB.
    pub fn nvm_vwb_default() -> Self {
        DCacheOrganization::NvmVwb(VwbConfig::default())
    }

    /// The Fig. 8 L0 baseline with its default 2 Kbit configuration.
    pub fn nvm_l0_default() -> Self {
        DCacheOrganization::NvmL0(L0Config::default())
    }

    /// The Fig. 8 EMSHR baseline with its default 2 Kbit configuration.
    pub fn nvm_emshr_default() -> Self {
        DCacheOrganization::NvmEmshr(EmshrConfig::default())
    }

    /// The beyond-paper stacked hybrid (a VWB front over an
    /// EMSHR-enhanced DL1) with its default configuration.
    pub fn nvm_hybrid_default() -> Self {
        DCacheOrganization::NvmStack(crate::catalog::HYBRID_STACK)
    }

    /// Human-readable configuration name (used in figure output).
    pub fn name(&self) -> &'static str {
        match self {
            DCacheOrganization::SramBaseline => "SRAM baseline",
            DCacheOrganization::NvmDropIn => "NVM drop-in",
            DCacheOrganization::NvmVwb(_) => "NVM + VWB",
            DCacheOrganization::NvmL0(_) => "NVM + L0",
            DCacheOrganization::NvmEmshr(_) => "NVM + EMSHR",
            DCacheOrganization::NvmStack(spec) => spec.name,
        }
    }

    /// The DL1 technology this organization uses.
    pub fn dl1_technology(&self) -> DlOneTechnology {
        match self {
            DCacheOrganization::SramBaseline => DlOneTechnology::Sram,
            _ => DlOneTechnology::SttMram,
        }
    }

    /// The line buffers this organization puts in front of the DL1,
    /// outermost first; empty for the plain organizations, whose core
    /// talks straight to the DL1. Every single- and multi-core front-end
    /// is built from this one list.
    pub fn stages(&self) -> Vec<StageSpec> {
        match *self {
            DCacheOrganization::SramBaseline | DCacheOrganization::NvmDropIn => Vec::new(),
            DCacheOrganization::NvmVwb(cfg) => vec![StageSpec::Vwb(cfg)],
            DCacheOrganization::NvmL0(cfg) => vec![StageSpec::L0(cfg)],
            DCacheOrganization::NvmEmshr(cfg) => vec![StageSpec::Emshr(cfg)],
            DCacheOrganization::NvmStack(spec) => vec![spec.outer, spec.inner],
        }
    }
}

/// Explicit instruction-cache modelling (off by default: the paper never
/// changes the 32 KB SRAM IL1, so ideal fetch cancels out of every
/// penalty; turn this on to reproduce the NVM-I-cache exploration of the
/// paper's reference \[7\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcacheConfig {
    /// IL1 technology (selects [`DlOneTechnology::il1_config`]).
    pub technology: DlOneTechnology,
    /// Active code footprint in bytes the fetch PC cycles through.
    pub code_footprint_bytes: u64,
}

impl Default for IcacheConfig {
    fn default() -> Self {
        IcacheConfig {
            technology: DlOneTechnology::Sram,
            code_footprint_bytes: 16 * 1024,
        }
    }
}

/// Full platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// The L1 D-cache organization under test.
    pub organization: DCacheOrganization,
    /// Core parameters.
    pub core: CoreConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Core clock in GHz (1 GHz in the paper; also the cycle↔ns scale for
    /// leakage integration).
    pub clock_ghz: f64,
    /// Replaces the canonical DL1 geometry/timing when set.
    pub dl1_override: Option<CacheConfig>,
    /// Replaces the canonical L2 geometry/timing when set.
    pub l2_override: Option<CacheConfig>,
    /// Explicit instruction-fetch modelling (None = ideal fetch).
    pub icache: Option<IcacheConfig>,
}

impl PlatformConfig {
    /// The paper's platform around the given organization.
    pub fn new(organization: DCacheOrganization) -> Self {
        PlatformConfig {
            organization,
            core: CoreConfig::default(),
            memory_latency: 100,
            clock_ghz: 1.0,
            dl1_override: None,
            l2_override: None,
            icache: None,
        }
    }
}

/// The simulated platform. Build once, [`Platform::run`] any number of
/// workloads — each run starts from cold caches, as gem5 SE-mode does.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Platform {
    config: PlatformConfig,
    /// The DL1 and L2 configurations in force: the overrides when set,
    /// else the canonical ones. Resolved and checked once, at
    /// construction.
    dl1: CacheConfig,
    l2: CacheConfig,
}

impl Platform {
    /// Creates the paper's platform with the given DL1 organization.
    ///
    /// # Errors
    ///
    /// Returns an [`SttError`] if the organization's buffer configuration
    /// is invalid for the DL1 line size.
    pub fn new(organization: DCacheOrganization) -> Result<Self, SttError> {
        Platform::with_config(PlatformConfig::new(organization))
    }

    /// Creates a platform from a full configuration. Nothing is built:
    /// the configurations are checked, and every run builds its own cold
    /// hierarchy from them.
    ///
    /// # Errors
    ///
    /// Returns an [`SttError`] if any configuration a run builds or
    /// models is invalid: the DL1, L2 and IL1 caches, the DL1 and L2
    /// energy-model arrays, or the organization's buffers.
    pub fn with_config(config: PlatformConfig) -> Result<Self, SttError> {
        let tech = config.organization.dl1_technology();
        let dl1 = match config.dl1_override {
            Some(cfg) => cfg,
            None => tech.dl1_config()?,
        };
        let l2 = match config.l2_override {
            Some(cfg) => cfg,
            None => l2_config()?,
        };
        dl1.array_config(tech.cell_kind())?;
        l2.array_config(CellKind::Sram6T)?;
        for stage in config.organization.stages() {
            stage.validate(dl1.line_bytes() * 8)?;
        }
        if let Some(ic) = config.icache {
            ic.technology.il1_config()?;
        }
        Ok(Platform { config, dl1, l2 })
    }

    /// The configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Builds the cold L2 over main memory.
    pub(crate) fn build_l2(&self) -> Cache<MainMemory> {
        Cache::new(self.l2, MainMemory::new(self.config.memory_latency))
    }

    /// Builds the cold DL1 over `next`, behind the organization's buffers.
    pub(crate) fn build_dl1_front_end<N: MemoryLevel>(&self, next: N) -> FrontEnd<N> {
        FrontEnd::new(
            &self.config.organization.stages(),
            Cache::new(self.dl1, next),
        )
        .expect("the stages were checked at construction")
    }

    /// Runs a workload on a cold platform and collects every statistic.
    ///
    /// The workload drives the core through [`Engine`]; see
    /// `sttcache-workloads` for the PolyBench kernels. To run a
    /// pre-recorded event stream instead, use [`Platform::run_trace`].
    pub fn run(&self, workload: impl FnOnce(&mut dyn Engine)) -> RunResult {
        self.run_core(|core| workload(core))
    }

    /// Replays a recorded [`Trace`] on a cold platform.
    ///
    /// Statistically and cycle-for-cycle identical to [`Platform::run`]
    /// with a workload that emits the same event stream, but events are
    /// dispatched through [`Trace::replay_into`] straight into the
    /// concrete core instead of through one `dyn Engine` call each. This
    /// is the record-once/replay-many path the sweep engine's trace cache
    /// uses.
    pub fn run_trace(&self, trace: &Trace) -> RunResult {
        self.run_core(|core| trace.replay_into(core))
    }

    /// [`Platform::run_trace`] with the DL1, its buffers and the core's
    /// store buffer probed: the same [`RunResult`], and beside it the
    /// instruments `sim --explain` renders. The L2 and the IL1 stay
    /// unprobed.
    pub fn run_trace_probed(&self, trace: &Trace) -> (RunResult, RunProbes) {
        let mut probes = RunProbes::default();
        let result = self.run_core(|core| {
            let fe = core.port_mut();
            fe.dl1.arm_probe();
            fe.buffers.iter_mut().for_each(LineBuffer::arm_probe);
            core.store_buffer_mut().arm_probe();
            trace.replay_into(core);
            let fe = core.port_mut();
            probes = RunProbes {
                dl1: fe.dl1.take_probe(),
                buffers: fe.buffers.iter_mut().map(LineBuffer::take_probe).collect(),
                store_buffer_depth: core.store_buffer_mut().take_probe(),
            };
        });
        (result, probes)
    }

    /// Shared body of [`Platform::run`], [`Platform::run_trace`] and
    /// [`Platform::run_trace_probed`]: builds the cold front-end, lets
    /// `drive` push events into the concrete core, then assembles the
    /// full [`RunResult`].
    fn run_core(&self, drive: impl FnOnce(&mut Core<FrontEnd>)) -> RunResult {
        let fe = self.build_dl1_front_end(self.build_l2());
        let mut core = Core::new(self.config.core, fe);
        if let Some(ic) = self.config.icache {
            let il1_cfg = ic
                .technology
                .il1_config()
                .expect("the il1 was checked at construction");
            // The IL1 misses straight to memory: instruction misses are
            // rare after warm-up at these footprints, so the L2 detour is
            // ignored (first-order, documented in DESIGN.md).
            let il1 =
                sttcache_mem::Cache::new(il1_cfg, MainMemory::new(self.config.memory_latency));
            core.attach_fetch_unit(FetchUnit::new(Box::new(il1), ic.code_footprint_bytes));
        }
        drive(&mut core);
        let report = core.report();
        let il1 = core.fetch_unit().map(|f| *f.il1().stats());
        let fe = core.into_port();
        let dl1 = *fe.dl1_stats();
        let l2 = *fe.l2_stats();
        let buffers = fe.stage_stats();
        let energy = self.energy_report(&report, &dl1, &l2, &buffers);
        RunResult {
            organization: self.config.organization,
            core: report,
            dl1,
            l2,
            memory: *fe.memory_stats(),
            il1,
            buffers,
            energy,
        }
    }

    /// First-order energy model: per-access dynamic energy from the
    /// `sttcache-tech` array models plus leakage integrated over the run.
    /// Takes the extracted statistics rather than a port so single-core
    /// and multi-core runs feed the same model.
    pub(crate) fn energy_report(
        &self,
        report: &CoreReport,
        dl1: &CacheStats,
        l2: &CacheStats,
        buffers: &[StageStats],
    ) -> EnergyReport {
        let cell = self.config.organization.dl1_technology().cell_kind();
        let dl1_model = self
            .dl1
            .array_config(cell)
            .map(ArrayModel::new)
            .expect("the dl1 array was checked at construction");
        let l2_model = self
            .l2
            .array_config(CellKind::Sram6T)
            .map(ArrayModel::new)
            .expect("the l2 array was checked at construction");

        let line_bits = self.dl1.line_bytes() * 8;
        let l2_line_bits = self.l2.line_bytes() * 8;
        let dl1_dynamic_pj = dl1.reads as f64 * dl1_model.read_energy_pj(line_bits)
            + dl1.writes as f64 * dl1_model.write_energy_pj(line_bits);
        let l2_dynamic_pj = l2.reads as f64 * l2_model.read_energy_pj(l2_line_bits)
            + l2.writes as f64 * l2_model.write_energy_pj(l2_line_bits);
        // Register-file-class buffers: ~0.5 pJ per access, summed over
        // every stage in the composition.
        let buffer_accesses: u64 = buffers.iter().map(|s| s.stats.reads + s.stats.writes).sum();
        let buffer_dynamic_pj = buffer_accesses as f64 * 0.5;

        let mut leak = LeakageIntegrator::new(self.config.clock_ghz);
        leak.add_component("dl1", dl1_model.leakage_mw());
        leak.add_component("l2", l2_model.leakage_mw());
        let leakage_uj = leak.energy_uj(report.cycles);

        EnergyReport {
            dl1_dynamic_pj,
            l2_dynamic_pj,
            buffer_dynamic_pj,
            leakage_uj,
            dl1_leakage_mw: dl1_model.leakage_mw(),
            dl1_area_mm2: dl1_model.area_mm2(),
        }
    }
}

/// First-order energy/area summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// DL1 dynamic energy in pJ.
    pub dl1_dynamic_pj: f64,
    /// L2 dynamic energy in pJ.
    pub l2_dynamic_pj: f64,
    /// Front-end buffer (VWB/L0/EMSHR) dynamic energy in pJ.
    pub buffer_dynamic_pj: f64,
    /// Leakage energy over the run in µJ (DL1 + L2).
    pub leakage_uj: f64,
    /// DL1 standby leakage in mW.
    pub dl1_leakage_mw: f64,
    /// DL1 array area in mm².
    pub dl1_area_mm2: f64,
}

impl EnergyReport {
    /// Total energy in µJ (dynamic + leakage).
    pub fn total_uj(&self) -> f64 {
        (self.dl1_dynamic_pj + self.l2_dynamic_pj + self.buffer_dynamic_pj) * 1e-6 + self.leakage_uj
    }
}

/// The instruments of one run of [`Platform::run_trace_probed`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProbes {
    /// The DL1's.
    pub dl1: CacheProbe,
    /// Each front-end buffer's, outermost first, as in
    /// [`RunResult::buffers`].
    pub buffers: Vec<BufferProbe>,
    /// The depth each store found the core's store buffer at.
    pub store_buffer_depth: Histogram,
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The organization that ran.
    pub organization: DCacheOrganization,
    /// Core cycles, instructions and stall decomposition.
    pub core: CoreReport,
    /// DL1 statistics.
    pub dl1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Main-memory statistics.
    pub memory: CacheStats,
    /// IL1 statistics (explicit I-cache modelling only).
    pub il1: Option<CacheStats>,
    /// Labelled statistics of every front-end buffer stage, outermost
    /// first (empty for the plain organizations).
    pub buffers: Vec<StageStats>,
    /// Energy summary.
    pub energy: EnergyReport,
}

impl RunResult {
    /// Total cycles of the run.
    pub fn cycles(&self) -> u64 {
        self.core.cycles
    }

    /// The first stage of the given kind, if the organization has one.
    pub fn stage(&self, kind: &str) -> Option<&BufferStats> {
        self.buffers
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| &s.stats)
    }

    /// VWB statistics, when the organization has a VWB stage.
    pub fn vwb(&self) -> Option<&BufferStats> {
        self.stage("vwb")
    }

    /// L0 statistics, when the organization has an L0 stage.
    pub fn l0(&self) -> Option<&BufferStats> {
        self.stage("l0")
    }

    /// EMSHR statistics, when the organization has an EMSHR stage.
    pub fn emshr(&self) -> Option<&BufferStats> {
        self.stage("emshr")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty_pct;
    use sttcache_mem::Addr;

    /// Streaming-with-reuse micro-workload: enough locality for the VWB to
    /// matter, enough footprint to exercise the hierarchy.
    fn workload(e: &mut dyn Engine) {
        for _pass in 0..4 {
            for i in 0..512u64 {
                e.load(Addr(i * 8), 4);
                e.compute(2);
                if i % 4 == 0 {
                    e.store(Addr(i * 8), 4);
                }
            }
            e.branch(true);
        }
        e.branch(false);
    }

    #[test]
    fn drop_in_nvm_is_much_slower_than_sram() {
        let sram = Platform::new(DCacheOrganization::SramBaseline)
            .unwrap()
            .run(workload);
        let nvm = Platform::new(DCacheOrganization::NvmDropIn)
            .unwrap()
            .run(workload);
        let penalty = penalty_pct(sram.cycles(), nvm.cycles());
        assert!(penalty > 20.0, "drop-in penalty was only {penalty:.1} %");
    }

    #[test]
    fn vwb_reduces_the_drop_in_penalty() {
        let sram = Platform::new(DCacheOrganization::SramBaseline)
            .unwrap()
            .run(workload);
        let nvm = Platform::new(DCacheOrganization::NvmDropIn)
            .unwrap()
            .run(workload);
        let vwb = Platform::new(DCacheOrganization::nvm_vwb_default())
            .unwrap()
            .run(workload);
        let p_drop = penalty_pct(sram.cycles(), nvm.cycles());
        let p_vwb = penalty_pct(sram.cycles(), vwb.cycles());
        assert!(
            p_vwb < p_drop,
            "VWB {p_vwb:.1} % should beat drop-in {p_drop:.1} %"
        );
    }

    #[test]
    fn read_stalls_dominate_write_stalls_on_nvm() {
        let nvm = Platform::new(DCacheOrganization::NvmDropIn)
            .unwrap()
            .run(workload);
        assert!(nvm.core.read_stall_cycles > nvm.core.write_stall_cycles);
    }

    #[test]
    fn runs_are_reproducible() {
        let p = Platform::new(DCacheOrganization::nvm_vwb_default()).unwrap();
        let a = p.run(workload);
        let b = p.run(workload);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.dl1, b.dl1);
    }

    #[test]
    fn energy_report_is_populated() {
        let r = Platform::new(DCacheOrganization::SramBaseline)
            .unwrap()
            .run(workload);
        assert!(r.energy.dl1_dynamic_pj > 0.0);
        assert!(r.energy.leakage_uj > 0.0);
        assert!(r.energy.total_uj() > 0.0);
        // SRAM leaks more than STT-MRAM.
        let n = Platform::new(DCacheOrganization::NvmDropIn)
            .unwrap()
            .run(workload);
        assert!(r.energy.dl1_leakage_mw > n.energy.dl1_leakage_mw);
        // Table I: STT-MRAM cell area is ~3.5x smaller.
        assert!(r.energy.dl1_area_mm2 > 3.0 * n.energy.dl1_area_mm2);
    }

    #[test]
    fn organization_names_and_defaults() {
        assert_eq!(DCacheOrganization::SramBaseline.name(), "SRAM baseline");
        assert_eq!(DCacheOrganization::nvm_vwb_default().name(), "NVM + VWB");
        assert_eq!(DCacheOrganization::nvm_l0_default().name(), "NVM + L0");
        assert_eq!(
            DCacheOrganization::nvm_emshr_default().name(),
            "NVM + EMSHR"
        );
        assert_eq!(
            DCacheOrganization::NvmDropIn.dl1_technology(),
            DlOneTechnology::SttMram
        );
    }

    #[test]
    fn invalid_vwb_is_rejected_at_construction() {
        let bad = DCacheOrganization::NvmVwb(crate::VwbConfig {
            capacity_bits: 64,
            ..crate::VwbConfig::default()
        });
        assert!(Platform::new(bad).is_err());
    }

    #[test]
    fn an_l2_with_more_banks_than_lines_is_refused_at_construction() {
        // The cache model accepts any power-of-two bank count; the L2's
        // energy-model array needs at least one line per bank.
        let l2 = CacheConfig::builder()
            .capacity_bytes(2 << 20)
            .banks(65_536)
            .build();
        let mut cfg = PlatformConfig::new(DCacheOrganization::NvmDropIn);
        cfg.l2_override = Some(l2.unwrap());
        let err = Platform::with_config(cfg).unwrap_err();
        assert!(err.to_string().contains("bank count 65536"), "{err}");
    }

    #[test]
    fn all_organizations_run() {
        for entry in crate::catalog::catalog() {
            let org = entry.organization;
            let r = Platform::new(org).unwrap().run(workload);
            assert!(r.cycles() > 0, "{} produced no cycles", org.name());
            assert!(
                r.dl1.accesses() > 0 || !r.buffers.is_empty(),
                "{}",
                org.name()
            );
        }
    }

    #[test]
    fn stages_map_every_organization() {
        let kinds = |org: DCacheOrganization| {
            let stages = org.stages();
            stages.into_iter().map(StageSpec::kind).collect::<Vec<_>>()
        };
        assert!(kinds(DCacheOrganization::SramBaseline).is_empty());
        assert!(kinds(DCacheOrganization::NvmDropIn).is_empty());
        assert_eq!(kinds(DCacheOrganization::nvm_vwb_default()), ["vwb"]);
        assert_eq!(kinds(DCacheOrganization::nvm_l0_default()), ["l0"]);
        assert_eq!(kinds(DCacheOrganization::nvm_emshr_default()), ["emshr"]);
        assert_eq!(
            kinds(DCacheOrganization::nvm_hybrid_default()),
            ["vwb", "emshr"]
        );
    }

    #[test]
    fn hybrid_stacks_both_stages() {
        let r = Platform::new(DCacheOrganization::nvm_hybrid_default())
            .unwrap()
            .run(workload);
        assert!(r.vwb().is_some() && r.emshr().is_some());
        assert!(r.vwb().unwrap().read_hits > 0);
        // The hybrid must not be slower than the bare drop-in.
        let drop_in = Platform::new(DCacheOrganization::NvmDropIn)
            .unwrap()
            .run(workload);
        assert!(r.cycles() <= drop_in.cycles());
    }
}
