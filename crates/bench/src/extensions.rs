//! Extension experiments beyond the paper's figures.
//!
//! These cover the directions the paper motivates but does not evaluate:
//! an NVM instruction cache (its reference \[7\]), a hardware next-line
//! prefetcher as the alternative to the VWB's software prefetching, the
//! AWARE asymmetric-write architecture (its reference \[1\]), STT-MRAM in
//! the L2 instead of the L1, and the per-benchmark energy claim ("gains in
//! area and even energy").

use crate::experiments::{per_workload, run_benchmark, SeriesTable};
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
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload};

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
    let series = ["NVM DL1", "NVM IL1", "NVM both + VWB"];
    per_workload(&ext_mix(), series, |b| {
        let base = run_unified(b, size, Sram, Sram, None);
        vec![
            penalty_pct(base, run_unified(b, size, SttMram, Sram, None)),
            penalty_pct(base, run_unified(b, size, Sram, SttMram, None)),
            penalty_pct(
                base,
                run_unified(b, size, SttMram, SttMram, Some(VwbConfig::default())),
            ),
        ]
    })
    .with_average()
}

/// Extension 2 — hardware next-line prefetcher vs the VWB.
///
/// Columns: plain drop-in NVM, drop-in NVM + hardware next-line
/// prefetcher, NVM + VWB with software prefetching. Shows the paper's
/// implicit claim: a hardware prefetcher inside the NVM DL1 cannot touch
/// the NVM *read-hit* latency, which is where the penalty lives.
pub fn ext_hw_prefetch(size: ProblemSize) -> SeriesTable {
    let series = ["NVM drop-in", "NVM + HW next-line", "NVM + VWB (sw pf)"];
    per_workload(&ext_mix(), series, |b| {
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
        vec![
            penalty_pct(base, drop_in),
            penalty_pct(base, hw),
            penalty_pct(base, vwb),
        ]
    })
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
    let series = ["all-slow writes", "AWARE", "nominal writes"];
    per_workload(&ext_mix(), series, |b| {
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
        vec![
            penalty_pct(base, all_slow),
            penalty_pct(base, aware),
            penalty_pct(base, nominal),
        ]
    })
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
    let series = ["NVM L2 (SRAM L1)", "NVM L1 (SRAM L2)"];
    per_workload(&ext_mix(), series, |b| {
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
        vec![nvm_l2_pen, nvm_l1_pen]
    })
    .with_average()
}

/// Extension 6 — "normally-off" power gating (the Toshiba line of work in
/// the paper's related-work listing).
///
/// Before power-gating the L1, a volatile SRAM DL1 must write every dirty
/// line back to the L2; a non-volatile STT-MRAM DL1 retains its contents
/// and only the small volatile VWB needs draining (into the NVM itself, at
/// NVM write speed). The rows report the sleep-entry cost at the end of
/// each kernel: the dirty lines the SRAM DL1 drains and the cycles it
/// takes, then the dirty (volatile) VWB entries the NVM platform drains
/// and the cycles that takes. Every cell is a count, exact in an `f64`
/// below 2^53; no summary row.
pub fn ext_normally_off(size: ProblemSize) -> SeriesTable {
    let series = [
        "SRAM dirty lines",
        "SRAM flush cyc",
        "NVM dirty (VWB)",
        "NVM flush cyc",
    ];
    per_workload(&ext_mix(), series, |b| {
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
        vec![
            sram_dirty as f64,
            sram_cycles as f64,
            nvm_dirty as f64,
            nvm_cycles as f64,
        ]
    })
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
///
/// Columns, in µJ: each platform's total energy (the shared L2
/// included), then each platform's DL1-only energy (dynamic + DL1
/// leakage over the run, + the VWB's accesses on the NVM side). The
/// table ends in a TOTAL row.
pub fn ext_energy(size: ProblemSize) -> SeriesTable {
    let series = ["SRAM total", "NVM total", "SRAM DL1-only", "NVM DL1-only"];
    per_workload(&ext_mix(), series, |b| {
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
        vec![
            sram.energy.total_uj(),
            nvm.energy.total_uj(),
            dl1_energy_uj(&sram),
            dl1_energy_uj(&nvm),
        ]
    })
    .with_total()
}

/// Catalog sweep — the full organization catalog on `workloads`.
///
/// One row per workload, one column per non-reference catalog entry
/// (drop-in, VWB, L0, EMSHR, and the beyond-paper VWB/EMSHR hybrid
/// stack), penalty vs the catalog's SRAM reference. New catalog
/// organizations appear here automatically — the sweep enumerates
/// `sttcache::catalog`, it does not keep its own list. `figures catalog`
/// runs it on the extension mix ([`ext_mix`]); `figures irregular` on the
/// irregular pointer-chasing family (linked-list chase, hash-table
/// probing, CSR BFS, GC-style marking), where the access stream is
/// data-dependent and the VWB's software prefetching has far less to
/// hide behind than on the paper's affine loop nests.
pub fn ext_catalog(workloads: &[Workload], size: ProblemSize) -> SeriesTable {
    let entries = sttcache::catalog::catalog();
    let (reference, rest) = entries
        .split_first()
        .expect("the catalog always has the SRAM reference");
    let series = rest.iter().map(|e| e.organization.name());
    per_workload(workloads, series, |b| {
        let base = run_with_config(&PlatformConfig::new(reference.organization), b, size);
        rest.iter()
            .map(|e| {
                penalty_pct(
                    base,
                    run_with_config(&PlatformConfig::new(e.organization), b, size),
                )
            })
            .collect()
    })
    .with_average()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_workloads::WorkloadFamily;

    const SIZE: ProblemSize = ProblemSize::Mini;

    #[test]
    fn catalog_sweep_covers_every_non_reference_organization() {
        let t = ext_catalog(&ext_mix(), SIZE);
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
        let family = catalog::family(WorkloadFamily::Irregular);
        let workloads: Vec<Workload> = family.iter().map(|spec| spec.workload).collect();
        let t = ext_catalog(&workloads, SIZE);
        assert_eq!(t.series.len(), sttcache::catalog::catalog().len() - 1);
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
        for (name, cells) in ext_normally_off(SIZE).rows {
            let [sram_dirty, sram_cycles, nvm_dirty, nvm_cycles] = cells[..] else {
                panic!("{name}: four columns expected, got {cells:?}");
            };
            assert!(
                nvm_cycles < (sram_cycles / 4.0).floor(),
                "{name}: nvm {nvm_cycles} vs sram {sram_cycles}"
            );
            assert!(nvm_dirty <= 4.0, "{name}"); // <= VWB entries
            assert!(sram_dirty > 4.0, "{name}");
        }
    }

    #[test]
    fn nvm_dl1_saves_energy() {
        let t = ext_energy(SIZE);
        let (label, total) = t.rows.last().expect("total row");
        assert_eq!(label, "TOTAL");
        let [sram, nvm, sram_dl1, nvm_dl1] = total[..] else {
            panic!("four columns expected, got {total:?}");
        };
        // The DL1-level saving is decisive (leakage dominates at 1 GHz).
        assert!(nvm_dl1 < sram_dl1 * 0.6, "{nvm_dl1} vs {sram_dl1}");
        // Whole-platform totals are within a few percent of each other
        // (the shared L2 leaks over the NVM's longer runtime).
        assert!(nvm < sram * 1.1);
    }
}
