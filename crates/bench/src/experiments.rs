//! The experiments behind every table and figure.
//!
//! Every figure is a full PolyBench sweep over a kernel × organization ×
//! transformation grid. The grids are built up front and sharded across
//! worker threads by [`SweepRunner`]; results are merged back by stable
//! grid index, so the output is identical no matter how many workers run
//! the sweep (see `crates/bench/src/parallel.rs`).

use crate::parallel::{self, SweepRunner};
use crate::trace_cache;
use sttcache::{
    average_penalty, nvm_dl1_config, penalty_pct, DCacheOrganization, PenaltyRow, PlatformConfig,
    RunResult, VwbConfig,
};
use sttcache_mem::CacheConfigBuilder;
use sttcache_tech::{table_one, TableOneRow};
use sttcache_workloads::{
    catalog, ProblemSize, Transformations, Workload, WorkloadFamily, WorkloadSpec,
};

/// The affine (PolyBench) rows every paper figure sweeps, in the
/// catalog's canonical order (which fixes figure row order).
fn affine() -> Vec<WorkloadSpec> {
    catalog::family(WorkloadFamily::Affine)
}

/// Runs one benchmark on one platform organization with the given
/// transformations.
///
/// Executes through the shared trace cache (see
/// [`trace_cache`]): the kernel's event stream is
/// recorded once per (kernel, size, transformation) key and replayed for
/// every organization, with results identical to direct execution.
///
/// # Panics
///
/// Panics if the organization's configuration is invalid (the canonical
/// configurations used by the figures never are).
pub fn run_benchmark(
    org: DCacheOrganization,
    workload: impl Into<Workload>,
    size: ProblemSize,
    t: Transformations,
) -> RunResult {
    trace_cache::run_config(&PlatformConfig::new(org), workload, size, t)
}

/// Runs a list of (organization, transformation) combos through the
/// current sweep runner and returns the per-combo cycle-count chunks
/// (one chunk per combo, benchmark order).
fn sweep_combos(
    combos: &[(DCacheOrganization, Transformations)],
    size: ProblemSize,
) -> Vec<Vec<u64>> {
    let points: Vec<_> = combos
        .iter()
        .flat_map(|&(org, t)| parallel::grid(&[org], size, t))
        .collect();
    let cycles = SweepRunner::current().grid_cycles(&points);
    cycles.chunks(affine().len()).map(|c| c.to_vec()).collect()
}

/// A labelled multi-series penalty table (one series per configuration,
/// one row per benchmark plus AVERAGE).
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Series (configuration) labels, in column order.
    pub series: Vec<String>,
    /// `(benchmark, penalties-per-series)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// Appends the AVERAGE row the paper's figures end with (the figure
    /// and extension constructors call this exactly once).
    pub(crate) fn with_average(mut self) -> Self {
        let cols = self.series.len();
        let n = self.rows.len().max(1) as f64;
        let avg: Vec<f64> = (0..cols)
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect();
        self.rows.push(("AVERAGE".to_string(), avg));
        self
    }

    /// The AVERAGE value of a series (requires [`SeriesTable::rows`] to end
    /// with the AVERAGE row, which every figure constructor guarantees).
    pub fn average(&self, series_idx: usize) -> f64 {
        self.rows.last().expect("table has an AVERAGE row").1[series_idx]
    }

    /// Renders the table as CSV (`benchmark` column plus one column per
    /// series; values in percent).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.replace(',', ";"));
        }
        out.push('\n');
        for (name, cols) in &self.rows {
            out.push_str(name);
            for v in cols {
                out.push_str(&format!(",{v:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Table I: the 64 KB SRAM vs STT-MRAM technology comparison.
pub fn table1() -> [TableOneRow; 2] {
    table_one()
}

/// Fig. 1: performance penalty of the drop-in STT-MRAM D-cache, per
/// benchmark, relative to the SRAM baseline.
pub fn fig1(size: ProblemSize) -> Vec<PenaltyRow> {
    let chunks = sweep_combos(
        &[
            (DCacheOrganization::SramBaseline, Transformations::none()),
            (DCacheOrganization::NvmDropIn, Transformations::none()),
        ],
        size,
    );
    let mut rows: Vec<PenaltyRow> = affine()
        .iter()
        .enumerate()
        .map(|(i, spec)| PenaltyRow::new(spec.name, penalty_pct(chunks[0][i], chunks[1][i])))
        .collect();
    let avg = average_penalty(&rows);
    rows.push(PenaltyRow::new("AVERAGE", avg));
    rows
}

/// Fig. 3: drop-in NVM vs NVM + VWB (both untransformed).
pub fn fig3(size: ProblemSize) -> SeriesTable {
    let chunks = sweep_combos(
        &[
            (DCacheOrganization::SramBaseline, Transformations::none()),
            (DCacheOrganization::NvmDropIn, Transformations::none()),
            (
                DCacheOrganization::nvm_vwb_default(),
                Transformations::none(),
            ),
        ],
        size,
    );
    let rows = affine()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                spec.name.to_string(),
                vec![
                    penalty_pct(chunks[0][i], chunks[1][i]),
                    penalty_pct(chunks[0][i], chunks[2][i]),
                ],
            )
        })
        .collect();
    SeriesTable {
        series: vec!["Drop-in NVM D-Cache".into(), "NVM D-Cache with VWB".into()],
        rows,
    }
    .with_average()
}

/// One benchmark's read/write penalty decomposition (Fig. 4).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Benchmark name.
    pub name: String,
    /// Relative read-latency contribution to the penalty, in percent.
    pub read_pct: f64,
    /// Relative write-latency contribution to the penalty, in percent.
    pub write_pct: f64,
}

/// Fig. 4: relative contribution of read vs write access latency to the
/// VWB organization's penalty.
///
/// Measured counterfactually, gem5-style: one platform with only the NVM
/// *read* latency (writes at SRAM speed) and one with only the NVM *write*
/// latency. Each counterfactual's penalty over the SRAM baseline is its
/// latency class's contribution; shares are normalized to 100 %.
pub fn fig4(size: ProblemSize) -> Vec<Fig4Row> {
    // NVM DL1 geometry with one latency class reverted to SRAM speed.
    let with_latencies = |read: u64, write: u64| -> PlatformConfig {
        let dl1 = CacheConfigBuilder::from(nvm_dl1_config().expect("canonical dl1"))
            .read_cycles(read)
            .write_cycles(write)
            .build()
            .expect("counterfactual dl1 config is valid");
        let mut cfg = PlatformConfig::new(DCacheOrganization::nvm_vwb_default());
        cfg.dl1_override = Some(dl1);
        cfg
    };

    // One sweep item per benchmark: the three runs a decomposition needs
    // (SRAM reference, read-only-slow, write-only-slow).
    let rows_in = affine();
    let shares = SweepRunner::current().map_ok(&rows_in, |_, spec| {
        let b = spec.workload;
        let read_only = with_latencies(4, 1);
        let write_only = with_latencies(1, 2);
        let sram = run_benchmark(
            DCacheOrganization::SramBaseline,
            b,
            size,
            Transformations::none(),
        );
        let r = trace_cache::run_config(&read_only, b, size, Transformations::none());
        let w = trace_cache::run_config(&write_only, b, size, Transformations::none());
        let p_read = penalty_pct(sram.cycles(), r.cycles()).max(0.0);
        let p_write = penalty_pct(sram.cycles(), w.cycles()).max(0.0);
        if p_read + p_write < 0.25 {
            // Penalty too small to decompose by counterfactuals; fall back
            // to the stall attribution of the read-latency run.
            let re = r
                .core
                .read_stall_cycles
                .saturating_sub(sram.core.read_stall_cycles);
            let we = w
                .core
                .write_stall_cycles
                .saturating_sub(sram.core.write_stall_cycles);
            let tot = (re + we).max(1) as f64;
            if re + we == 0 {
                (100.0, 0.0)
            } else {
                (re as f64 / tot * 100.0, we as f64 / tot * 100.0)
            }
        } else {
            let total = p_read + p_write;
            (p_read / total * 100.0, p_write / total * 100.0)
        }
    });

    let mut rows = Vec::new();
    let mut sum_read = 0.0;
    let mut sum_write = 0.0;
    for (spec, (read_pct, write_pct)) in rows_in.iter().zip(shares) {
        sum_read += read_pct;
        sum_write += write_pct;
        rows.push(Fig4Row {
            name: spec.name.to_string(),
            read_pct,
            write_pct,
        });
    }
    let n = rows_in.len() as f64;
    rows.push(Fig4Row {
        name: "AVERAGE".into(),
        read_pct: sum_read / n,
        write_pct: sum_write / n,
    });
    rows
}

/// Fig. 5: drop-in NVM, VWB without transformations, VWB with all
/// transformations.
pub fn fig5(size: ProblemSize) -> SeriesTable {
    let chunks = sweep_combos(
        &[
            (DCacheOrganization::SramBaseline, Transformations::none()),
            (DCacheOrganization::SramBaseline, Transformations::all()),
            (DCacheOrganization::NvmDropIn, Transformations::none()),
            (
                DCacheOrganization::nvm_vwb_default(),
                Transformations::none(),
            ),
            (
                DCacheOrganization::nvm_vwb_default(),
                Transformations::all(),
            ),
        ],
        size,
    );
    let rows = affine()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            (
                spec.name.to_string(),
                vec![
                    penalty_pct(chunks[0][i], chunks[2][i]),
                    penalty_pct(chunks[0][i], chunks[3][i]),
                    penalty_pct(chunks[1][i], chunks[4][i]),
                ],
            )
        })
        .collect();
    SeriesTable {
        series: vec![
            "Drop-in NVM".into(),
            "No Optimization".into(),
            "With Optimization".into(),
        ],
        rows,
    }
    .with_average()
}

/// One benchmark's per-transformation contribution split (Fig. 6).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: String,
    /// Share of the penalty reduction due to vectorization, in percent.
    pub vectorization_pct: f64,
    /// Share due to prefetching, in percent.
    pub prefetching_pct: f64,
    /// Share due to the "others" intrinsics, in percent.
    pub others_pct: f64,
}

/// Fig. 6: contribution of each transformation family to the penalty
/// reduction on the VWB organization.
///
/// Each family's contribution is the penalty reduction it achieves alone;
/// shares are normalized to 100 % as in the paper's stacked bars.
pub fn fig6(size: ProblemSize) -> Vec<Fig6Row> {
    let org = DCacheOrganization::nvm_vwb_default();
    // One sweep item per benchmark; each item runs its leave-one-out
    // decomposition (up to a dozen simulations) so the grid shards at
    // benchmark granularity.
    let rows_in = affine();
    let shares = SweepRunner::current().map_ok(&rows_in, |_, spec| {
        let b = spec.workload;
        // Leave-one-out: a family's contribution is how much the penalty
        // worsens when it alone is removed from the full set (this credits
        // interactions, e.g. alignment x vectorization, to "others").
        let penalty_of = |t: Transformations| -> f64 {
            let matched = run_benchmark(DCacheOrganization::SramBaseline, b, size, t);
            let r = run_benchmark(org, b, size, t);
            penalty_pct(matched.cycles(), r.cycles())
        };
        let all = Transformations::all();
        let leave_one_out = [
            Transformations {
                vectorize: false,
                ..all
            },
            Transformations {
                prefetch: false,
                ..all
            },
            Transformations {
                others: false,
                ..all
            },
        ];
        let p_full = penalty_of(all);
        let [mut v, mut p, mut o] = leave_one_out.map(|t| (penalty_of(t) - p_full).max(0.0));
        if v + p + o < 0.1 {
            // Penalty already negligible; split by the gross cycles each
            // family saves on the NVM platform itself (memoized above).
            let cycles_of = |t: Transformations| run_benchmark(org, b, size, t).cycles() as f64;
            let all_cycles = cycles_of(all);
            [v, p, o] = leave_one_out.map(|t| (cycles_of(t) - all_cycles).max(0.0));
        }
        // No other artifact replays a leave-one-out stream, so this item
        // was its last consumer.
        for t in leave_one_out {
            trace_cache::release_trace(b, size, t);
        }
        let total = (v + p + o).max(1e-9);
        (v / total * 100.0, p / total * 100.0, o / total * 100.0)
    });

    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    for (spec, (v, p, o)) in rows_in.iter().zip(shares) {
        sums[0] += v;
        sums[1] += p;
        sums[2] += o;
        rows.push(Fig6Row {
            name: spec.name.to_string(),
            vectorization_pct: v,
            prefetching_pct: p,
            others_pct: o,
        });
    }
    let n = rows_in.len() as f64;
    rows.push(Fig6Row {
        name: "AVERAGE".into(),
        vectorization_pct: sums[0] / n,
        prefetching_pct: sums[1] / n,
        others_pct: sums[2] / n,
    });
    rows
}

/// Fig. 7: penalty of the optimized VWB organization for 1, 2 and 4 Kbit
/// buffers.
pub fn fig7(size: ProblemSize) -> SeriesTable {
    let sizes = [1024usize, 2048, 4096];
    let mut combos = vec![(DCacheOrganization::SramBaseline, Transformations::all())];
    combos.extend(sizes.iter().map(|&bits| {
        (
            DCacheOrganization::NvmVwb(VwbConfig {
                capacity_bits: bits,
                ..VwbConfig::default()
            }),
            Transformations::all(),
        )
    }));
    let chunks = sweep_combos(&combos, size);
    let rows = affine()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let cols = (1..combos.len())
                .map(|c| penalty_pct(chunks[0][i], chunks[c][i]))
                .collect();
            (spec.name.to_string(), cols)
        })
        .collect();
    SeriesTable {
        series: sizes
            .iter()
            .map(|s| format!("VWB = {} KBit", s / 1024))
            .collect(),
        rows,
    }
    .with_average()
}

/// Fig. 8: the optimized proposal vs the EMSHR and L0 baselines (all
/// 2 Kbit, fully associative).
pub fn fig8(size: ProblemSize) -> SeriesTable {
    let combos = [
        (DCacheOrganization::SramBaseline, Transformations::all()),
        (
            DCacheOrganization::nvm_vwb_default(),
            Transformations::all(),
        ),
        (
            DCacheOrganization::nvm_emshr_default(),
            Transformations::all(),
        ),
        (DCacheOrganization::nvm_l0_default(), Transformations::all()),
    ];
    let chunks = sweep_combos(&combos, size);
    let rows = affine()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let cols = (1..combos.len())
                .map(|c| penalty_pct(chunks[0][i], chunks[c][i]))
                .collect();
            (spec.name.to_string(), cols)
        })
        .collect();
    SeriesTable {
        series: vec!["Our Proposal".into(), "EMSHR".into(), "L0-Cache".into()],
        rows,
    }
    .with_average()
}

/// One benchmark's optimization gains on both platforms (Fig. 9).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// Speed-up of the SRAM baseline from the code transformations, in
    /// percent of its untransformed runtime.
    pub baseline_gain_pct: f64,
    /// Speed-up of the NVM + VWB proposal from the transformations.
    pub proposal_gain_pct: f64,
}

/// Fig. 9: effect of the code transformations on the SRAM baseline vs on
/// the proposal (performance *gain*, not penalty).
pub fn fig9(size: ProblemSize) -> Vec<Fig9Row> {
    let chunks = sweep_combos(
        &[
            (DCacheOrganization::SramBaseline, Transformations::none()),
            (DCacheOrganization::SramBaseline, Transformations::all()),
            (
                DCacheOrganization::nvm_vwb_default(),
                Transformations::none(),
            ),
            (
                DCacheOrganization::nvm_vwb_default(),
                Transformations::all(),
            ),
        ],
        size,
    );
    let gain = |plain: u64, opt: u64| (plain as f64 - opt as f64) / plain as f64 * 100.0;
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 2];
    for (i, spec) in affine().iter().enumerate() {
        let row = Fig9Row {
            name: spec.name.to_string(),
            baseline_gain_pct: gain(chunks[0][i], chunks[1][i]),
            proposal_gain_pct: gain(chunks[2][i], chunks[3][i]),
        };
        sums[0] += row.baseline_gain_pct;
        sums[1] += row.proposal_gain_pct;
        rows.push(row);
    }
    let n = affine().len() as f64;
    rows.push(Fig9Row {
        name: "AVERAGE".into(),
        baseline_gain_pct: sums[0] / n,
        proposal_gain_pct: sums[1] / n,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_all_benchmarks_plus_average() {
        let rows = fig1(ProblemSize::Mini);
        assert_eq!(rows.len(), affine().len() + 1);
        assert_eq!(rows.last().unwrap().name, "AVERAGE");
        // Every drop-in penalty is positive.
        for r in &rows {
            assert!(r.penalty_pct > 0.0, "{}: {}", r.name, r.penalty_pct);
        }
    }

    #[test]
    fn fig4_shares_sum_to_100() {
        for row in fig4(ProblemSize::Mini) {
            assert!(
                (row.read_pct + row.write_pct - 100.0).abs() < 1e-6,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn fig6_shares_sum_to_100() {
        for row in fig6(ProblemSize::Mini) {
            let sum = row.vectorization_pct + row.prefetching_pct + row.others_pct;
            assert!((sum - 100.0).abs() < 1e-6, "{}: {sum}", row.name);
        }
    }
}
