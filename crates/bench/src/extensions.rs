//! Extension experiments beyond the paper's figures.
//!
//! These cover the directions the paper motivates but does not evaluate:
//! an NVM instruction cache (its reference \[7\]), a hardware next-line
//! prefetcher as the alternative to the VWB's software prefetching, the
//! AWARE asymmetric-write architecture (its reference \[1\]), STT-MRAM in
//! the L2 instead of the L1, and the per-benchmark energy claim ("gains in
//! area and even energy").

use crate::experiments::{run_benchmark, SeriesTable};
use crate::parallel::SweepRunner;
use crate::trace_cache;
use sttcache::{
    l2_config, nvm_dl1_config, penalty_pct, sram_dl1_config, DCacheOrganization, DlOneTechnology,
    FrontEnd, PlatformConfig, StageSpec, VwbConfig, CLOCK_GHZ, CODE_FOOTPRINT_BYTES,
    MEMORY_LATENCY_CYCLES,
};
use sttcache_cpu::{Core, CoreConfig, FetchUnit, MemPort};
use sttcache_mem::{
    AsymmetricWrite, Cache, CacheConfig, CacheConfigBuilder, MainMemory, NextLinePrefetcher, Shared,
};
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload, WorkloadFamily};

/// The benchmark subset the extension studies sweep (one matrix product,
/// one column-heavy kernel, one streaming stencil, one solver), resolved
/// from the workload catalog so the tokens stay in one place.
pub fn ext_mix() -> [Workload; 4] {
    let w = |cli: &str| {
        catalog::by_cli(cli)
            .unwrap_or_else(|| panic!("extension mix kernel '{cli}' missing from the catalog"))
            .workload
    };
    [w("gemm"), w("mvt"), w("jacobi-2d"), w("trisolv")]
}

/// The canonical L2 over main memory, the tail of every hand-built
/// hierarchy.
fn canonical_l2() -> Cache<MainMemory> {
    Cache::new(
        l2_config().expect("canonical l2"),
        MainMemory::new(MEMORY_LATENCY_CYCLES),
    )
}

fn run_with_config(cfg: &PlatformConfig, workload: Workload, size: ProblemSize) -> u64 {
    trace_cache::run_config(cfg, workload, size, Transformations::none()).cycles()
}

/// Runs a kernel on a hand-built platform whose IL1 and DL1 miss into a
/// single *unified* (shared) L2 — the paper's real topology, expressible
/// with [`Shared`].
fn run_unified(
    workload: Workload,
    size: ProblemSize,
    dl1_tech: DlOneTechnology,
    il1_tech: DlOneTechnology,
    vwb: Option<VwbConfig>,
) -> u64 {
    let l2 = Shared::new(canonical_l2());
    let il1 = Cache::new(il1_tech.il1_config().expect("canonical il1"), l2.clone());
    let dl1 = Cache::new(dl1_tech.dl1_config().expect("canonical dl1"), l2.clone());
    let stages = vwb.map(StageSpec::Vwb);
    let fe = FrontEnd::new(stages.as_slice(), dl1).expect("canonical vwb over shared l2");

    let mut core = Core::new(CoreConfig::default(), fe);
    core.attach_fetch_unit(FetchUnit::new(Box::new(il1), CODE_FOOTPRINT_BYTES));
    trace_cache::drive(&mut core, workload, size, Transformations::none());
    core.report().cycles
}

/// Extension 1 — NVM instruction cache (paper reference \[7\]), on the
/// paper's real topology: IL1 and DL1 missing into one *unified* L2.
///
/// Columns: NVM DL1 only (drop-in), NVM IL1 only, both NVM with the VWB on
/// the data side. Baseline: the all-SRAM platform with the same explicit
/// fetch model and shared L2.
pub fn ext_icache(size: ProblemSize) -> SeriesTable {
    use DlOneTechnology::{Sram, SttMram};
    let rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let base = run_unified(b, size, Sram, Sram, None);
        (
            b.label(),
            vec![
                penalty_pct(base, run_unified(b, size, SttMram, Sram, None)),
                penalty_pct(base, run_unified(b, size, Sram, SttMram, None)),
                penalty_pct(
                    base,
                    run_unified(b, size, SttMram, SttMram, Some(VwbConfig::default())),
                ),
            ],
        )
    });
    SeriesTable {
        series: vec!["NVM DL1".into(), "NVM IL1".into(), "NVM both + VWB".into()],
        rows,
    }
    .with_average()
}

/// Extension 2 — hardware next-line prefetcher vs the VWB.
///
/// Columns: plain drop-in NVM, drop-in NVM + hardware next-line
/// prefetcher, NVM + VWB with software prefetching. Shows the paper's
/// implicit claim: a hardware prefetcher inside the NVM DL1 cannot touch
/// the NVM *read-hit* latency, which is where the penalty lives.
pub fn ext_hw_prefetch(size: ProblemSize) -> SeriesTable {
    let rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let base = run_benchmark(
            DCacheOrganization::SramBaseline,
            b,
            size,
            Transformations::none(),
        )
        .cycles();
        let drop_in = run_benchmark(
            DCacheOrganization::NvmDropIn,
            b,
            size,
            Transformations::none(),
        )
        .cycles();
        // Hand-built platform: core over MemPort<NextLinePrefetcher<DL1>>.
        let hw = {
            let tail = canonical_l2();
            let dl1 = Cache::new(nvm_dl1_config().expect("canonical dl1"), tail);
            let pf = NextLinePrefetcher::new(dl1);
            let mut core = Core::new(CoreConfig::default(), MemPort::new(pf));
            trace_cache::drive(&mut core, b, size, Transformations::none());
            core.report().cycles
        };
        let vwb = run_benchmark(
            DCacheOrganization::nvm_vwb_default(),
            b,
            size,
            Transformations::only_prefetch(),
        )
        .cycles();
        // This was the prefetch-only stream's one replay.
        trace_cache::release_trace(b, size, Transformations::only_prefetch());
        (
            b.label(),
            vec![
                penalty_pct(base, drop_in),
                penalty_pct(base, hw),
                penalty_pct(base, vwb),
            ],
        )
    });
    SeriesTable {
        series: vec![
            "NVM drop-in".into(),
            "NVM + HW next-line".into(),
            "NVM + VWB (sw pf)".into(),
        ],
        rows,
    }
    .with_average()
}

/// Extension 3 — AWARE asymmetric writes (paper reference \[1\]).
///
/// Columns: NVM DL1 whose writes are all slow (4 cycles, the worst-case
/// asymmetric transition), the AWARE version (2-cycle fast writes, every
/// 8th write slow), and the paper's nominal 2-cycle-write DL1. Shows why
/// the paper calls write-oriented techniques insufficient: even fixing
/// writes entirely leaves the read penalty.
pub fn ext_aware(size: ProblemSize) -> SeriesTable {
    let dl1_with = |write: u64, aware: Option<AsymmetricWrite>| -> CacheConfig {
        let mut b = CacheConfigBuilder::from(nvm_dl1_config().expect("canonical dl1"));
        b.write_cycles(write);
        if let Some(a) = aware {
            b.asymmetric_write(a);
        }
        b.build().expect("aware dl1 config is valid")
    };
    let rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let base = run_benchmark(
            DCacheOrganization::SramBaseline,
            b,
            size,
            Transformations::none(),
        )
        .cycles();
        let run_dl1 = |cfg: CacheConfig| -> u64 {
            let mut p = PlatformConfig::new(DCacheOrganization::NvmDropIn);
            p.dl1_override = Some(cfg);
            run_with_config(&p, b, size)
        };
        let all_slow = run_dl1(dl1_with(4, None));
        let aware = run_dl1(dl1_with(
            2,
            Some(AsymmetricWrite {
                slow_cycles: 4,
                slow_period: 8,
            }),
        ));
        let nominal = run_dl1(dl1_with(2, None));
        (
            b.label(),
            vec![
                penalty_pct(base, all_slow),
                penalty_pct(base, aware),
                penalty_pct(base, nominal),
            ],
        )
    });
    SeriesTable {
        series: vec![
            "all-slow writes".into(),
            "AWARE".into(),
            "nominal writes".into(),
        ],
        rows,
    }
    .with_average()
}

/// Extension 4 — STT-MRAM in the L2 instead of the L1.
///
/// The paper's introduction notes NVMs are mostly proposed for LLC/L2;
/// this experiment shows why that is the easy case: the DL1 filters almost
/// all accesses, so even a 2x-slower NVM L2 costs little.
pub fn ext_nvm_l2(size: ProblemSize) -> SeriesTable {
    let nvm_l2 = CacheConfigBuilder::from(l2_config().expect("canonical l2"))
        .read_cycles(24)
        .write_cycles(14)
        .build()
        .expect("nvm l2 config is valid");
    let rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let base = run_benchmark(
            DCacheOrganization::SramBaseline,
            b,
            size,
            Transformations::none(),
        )
        .cycles();
        let mut l2_cfg = PlatformConfig::new(DCacheOrganization::SramBaseline);
        l2_cfg.l2_override = Some(nvm_l2);
        let nvm_l2_pen = penalty_pct(base, run_with_config(&l2_cfg, b, size));
        let nvm_l1_pen = penalty_pct(
            base,
            run_benchmark(
                DCacheOrganization::NvmDropIn,
                b,
                size,
                Transformations::none(),
            )
            .cycles(),
        );
        (b.label(), vec![nvm_l2_pen, nvm_l1_pen])
    });
    SeriesTable {
        series: vec!["NVM L2 (SRAM L1)".into(), "NVM L1 (SRAM L2)".into()],
        rows,
    }
    .with_average()
}

/// One benchmark's power-gating (sleep-entry) cost.
#[derive(Debug, Clone)]
pub struct SleepRow {
    /// Benchmark name.
    pub name: String,
    /// Dirty DL1 lines the SRAM platform must drain before power-gating.
    pub sram_dirty_lines: usize,
    /// Cycles the SRAM drain takes.
    pub sram_flush_cycles: u64,
    /// Dirty (volatile) VWB entries the NVM platform must drain.
    pub nvm_dirty_lines: usize,
    /// Cycles the NVM drain takes.
    pub nvm_flush_cycles: u64,
}

/// Extension 6 — "normally-off" power gating (the Toshiba line of work in
/// the paper's related-work listing).
///
/// Before power-gating the L1, a volatile SRAM DL1 must write every dirty
/// line back to the L2; a non-volatile STT-MRAM DL1 retains its contents
/// and only the small volatile VWB needs draining (into the NVM itself, at
/// NVM write speed). The rows report the sleep-entry cost at the end of
/// each kernel.
pub fn ext_normally_off(size: ProblemSize) -> Vec<SleepRow> {
    SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        // SRAM platform: hand-built so we keep the hierarchy after the run.
        let (sram_dirty, sram_cycles) = {
            let tail = canonical_l2();
            let dl1 = Cache::new(sram_dl1_config().expect("canonical sram dl1"), tail);
            let mut core = Core::new(CoreConfig::default(), MemPort::new(dl1));
            trace_cache::drive(&mut core, b, size, Transformations::none());
            let end = core.now();
            let mut dl1 = core.into_port().into_inner();
            let dirty = dl1.dirty_lines();
            let (flushed, done) = dl1.flush_dirty(end);
            debug_assert_eq!(flushed, dirty);
            (dirty, done - end)
        };
        // NVM + VWB platform: only the volatile buffer drains.
        let (nvm_dirty, nvm_cycles) = {
            let tail = canonical_l2();
            let dl1 = Cache::new(nvm_dl1_config().expect("canonical nvm dl1"), tail);
            let stages = [StageSpec::Vwb(VwbConfig::default())];
            let vwb = FrontEnd::new(&stages, dl1).expect("canonical vwb configuration");
            let mut core = Core::new(CoreConfig::default(), vwb);
            trace_cache::drive(&mut core, b, size, Transformations::none());
            let end = core.now();
            let (flushed, done) = core.into_port().flush_buffers(end);
            (flushed, done - end)
        };
        SleepRow {
            name: b.label(),
            sram_dirty_lines: sram_dirty,
            sram_flush_cycles: sram_cycles,
            nvm_dirty_lines: nvm_dirty,
            nvm_flush_cycles: nvm_cycles,
        }
    })
}

/// One benchmark's energy comparison.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Benchmark name.
    pub name: String,
    /// SRAM-platform total energy in µJ (includes the shared L2).
    pub sram_uj: f64,
    /// NVM + VWB platform total energy in µJ (includes the shared L2).
    pub nvm_uj: f64,
    /// SRAM DL1-only energy in µJ (dynamic + DL1 leakage over the run).
    pub sram_dl1_uj: f64,
    /// NVM DL1-only energy in µJ (dynamic + DL1 leakage + VWB accesses).
    pub nvm_dl1_uj: f64,
}

fn dl1_energy_uj(r: &sttcache::RunResult) -> f64 {
    let seconds = r.core.cycles as f64 / (CLOCK_GHZ * 1e9);
    let leakage_uj = r.energy.dl1_leakage_mw * seconds * 1e3;
    (r.energy.dl1_dynamic_pj + r.energy.buffer_dynamic_pj) * 1e-6 + leakage_uj
}

/// Extension 5 — per-benchmark energy (the paper's deferred power model).
///
/// DL1-level energy = per-access dynamic energy (technology models) + the
/// D-cache's leakage integrated over the run (+ the VWB's register-file
/// accesses on the NVM side). The STT-MRAM DL1 wins decisively on leakage
/// (28 mW vs ~106 mW); whole-platform totals also include the shared SRAM
/// L2, whose leakage scales with the (longer) NVM runtime, diluting the
/// saving — exactly why the paper argues for attacking the runtime penalty
/// first.
pub fn ext_energy(size: ProblemSize) -> Vec<EnergyRow> {
    let mut rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let sram = run_benchmark(
            DCacheOrganization::SramBaseline,
            b,
            size,
            Transformations::none(),
        );
        let nvm = run_benchmark(
            DCacheOrganization::nvm_vwb_default(),
            b,
            size,
            Transformations::none(),
        );
        EnergyRow {
            name: b.label(),
            sram_uj: sram.energy.total_uj(),
            nvm_uj: nvm.energy.total_uj(),
            sram_dl1_uj: dl1_energy_uj(&sram),
            nvm_dl1_uj: dl1_energy_uj(&nvm),
        }
    });
    let mut sums = (0.0, 0.0, 0.0, 0.0);
    for row in &rows {
        sums.0 += row.sram_uj;
        sums.1 += row.nvm_uj;
        sums.2 += row.sram_dl1_uj;
        sums.3 += row.nvm_dl1_uj;
    }
    rows.push(EnergyRow {
        name: "TOTAL".into(),
        sram_uj: sums.0,
        nvm_uj: sums.1,
        sram_dl1_uj: sums.2,
        nvm_dl1_uj: sums.3,
    });
    rows
}

/// Catalog sweep — the full organization catalog on one grid.
///
/// One column per non-reference catalog entry (drop-in, VWB, L0, EMSHR,
/// and the beyond-paper VWB/EMSHR hybrid stack), penalty vs the catalog's
/// SRAM reference. New catalog organizations appear here automatically —
/// the sweep enumerates `sttcache::catalog`, it does not keep its own
/// list.
pub fn ext_catalog(size: ProblemSize) -> SeriesTable {
    let entries = sttcache::catalog::catalog();
    let (reference, rest) = entries
        .split_first()
        .expect("the catalog always has the SRAM reference");
    let rows = SweepRunner::current().map_ok(&ext_mix(), |_, &b| {
        let base = run_with_config(&PlatformConfig::new(reference.organization), b, size);
        (
            b.label(),
            rest.iter()
                .map(|e| {
                    penalty_pct(
                        base,
                        run_with_config(&PlatformConfig::new(e.organization), b, size),
                    )
                })
                .collect(),
        )
    });
    SeriesTable {
        series: rest.iter().map(|e| e.organization.name().into()).collect(),
        rows,
    }
    .with_average()
}

/// Irregular sweep — the pointer-chasing workload family on the full
/// organization catalog.
///
/// One row per irregular catalog workload (linked-list chase, hash-table
/// probing, CSR BFS, GC-style marking), one column per non-reference
/// organization, penalty vs the catalog's SRAM reference. The paper only
/// evaluates affine PolyBench loop nests; this sweep shows how the same
/// organizations fare when the access stream is data-dependent and the
/// VWB's software prefetching has far less to hide behind. Enumerates
/// both catalogs — new organizations *and* new irregular workloads appear
/// here automatically.
pub fn ext_irregular(size: ProblemSize) -> SeriesTable {
    let entries = sttcache::catalog::catalog();
    let (reference, rest) = entries
        .split_first()
        .expect("the catalog always has the SRAM reference");
    let workloads = catalog::family(WorkloadFamily::Irregular);
    let rows = SweepRunner::current().map_ok(&workloads, |_, spec| {
        let base = run_with_config(
            &PlatformConfig::new(reference.organization),
            spec.workload,
            size,
        );
        (
            spec.name.to_string(),
            rest.iter()
                .map(|e| {
                    penalty_pct(
                        base,
                        run_with_config(&PlatformConfig::new(e.organization), spec.workload, size),
                    )
                })
                .collect(),
        )
    });
    SeriesTable {
        series: rest.iter().map(|e| e.organization.name().into()).collect(),
        rows,
    }
    .with_average()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZE: ProblemSize = ProblemSize::Mini;

    #[test]
    fn catalog_sweep_covers_every_non_reference_organization() {
        let t = ext_catalog(SIZE);
        assert_eq!(t.series.len(), sttcache::catalog::catalog().len() - 1);
        // The hybrid column exists and must not lose to plain drop-in.
        let hybrid = t
            .series
            .iter()
            .position(|s| s.contains("hybrid"))
            .expect("hybrid in catalog sweep");
        assert!(t.average(hybrid) <= t.average(0) + 0.2);
        // The VWB recovers most of the drop-in penalty here too.
        let vwb = t.series.iter().position(|s| s == "NVM + VWB").unwrap();
        assert!(t.average(vwb) < t.average(0));
    }

    #[test]
    fn irregular_sweep_covers_the_family_on_every_organization() {
        let t = ext_irregular(SIZE);
        assert_eq!(t.series.len(), sttcache::catalog::catalog().len() - 1);
        let family = catalog::family(WorkloadFamily::Irregular);
        assert!(family.len() >= 4, "irregular family has >= 4 kernels");
        assert_eq!(t.rows.len(), family.len() + 1); // + AVERAGE
        for (row, spec) in t.rows.iter().zip(&family) {
            assert_eq!(row.0, spec.name);
        }
        // Drop-in NVM costs real cycles on pointer chasing too.
        assert!(t.average(0) > 0.0, "drop-in penalty {}", t.average(0));
    }

    #[test]
    fn nvm_il1_hurts_more_than_nvm_dl1_on_fetch_bound_kernels() {
        let t = ext_icache(SIZE);
        // Every column shows a positive penalty.
        for (name, cols) in &t.rows {
            for v in cols {
                assert!(*v > -10.0, "{name}: {v}");
            }
        }
    }

    #[test]
    fn hw_prefetcher_helps_less_than_the_vwb() {
        let t = ext_hw_prefetch(SIZE);
        let drop_in = t.average(0);
        let hw = t.average(1);
        let vwb = t.average(2);
        assert!(hw <= drop_in + 1.0, "hw {hw:.1} vs drop-in {drop_in:.1}");
        assert!(vwb < hw, "vwb {vwb:.1} must beat hw prefetch {hw:.1}");
    }

    #[test]
    fn aware_sits_between_slow_and_nominal_writes() {
        let t = ext_aware(SIZE);
        let slow = t.average(0);
        let aware = t.average(1);
        let nominal = t.average(2);
        assert!(aware <= slow + 0.2);
        assert!(nominal <= aware + 0.2);
        // But even perfect writes leave the read-dominated penalty.
        assert!(nominal > 15.0);
    }

    #[test]
    fn nvm_l2_is_far_cheaper_than_nvm_l1() {
        let t = ext_nvm_l2(SIZE);
        let l2 = t.average(0);
        let l1 = t.average(1);
        assert!(l2 < l1 / 3.0, "L2 {l2:.1}% vs L1 {l1:.1}%");
    }

    #[test]
    fn normally_off_sleep_is_cheap_on_nvm() {
        for row in ext_normally_off(SIZE) {
            assert!(
                row.nvm_flush_cycles < row.sram_flush_cycles / 4,
                "{}: nvm {} vs sram {}",
                row.name,
                row.nvm_flush_cycles,
                row.sram_flush_cycles
            );
            assert!(row.nvm_dirty_lines <= 4, "{}", row.name); // <= VWB entries
            assert!(row.sram_dirty_lines > 4, "{}", row.name);
        }
    }

    #[test]
    fn nvm_dl1_saves_energy() {
        let rows = ext_energy(SIZE);
        let total = rows.last().expect("total row");
        // The DL1-level saving is decisive (leakage dominates at 1 GHz).
        assert!(
            total.nvm_dl1_uj < total.sram_dl1_uj * 0.6,
            "{} vs {}",
            total.nvm_dl1_uj,
            total.sram_dl1_uj
        );
        // Whole-platform totals are within a few percent of each other
        // (the shared L2 leaks over the NVM's longer runtime).
        assert!(total.nvm_uj < total.sram_uj * 1.1);
    }
}
