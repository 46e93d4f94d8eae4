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
    nvm_dl1_config, penalty_pct, DCacheOrganization, PlatformConfig, RunResult, VwbConfig,
};
use sttcache_mem::CacheConfigBuilder;
use sttcache_tech::{table_one, TableOneRow};
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload, WorkloadFamily};

/// The workloads of family `f`, in the catalog's canonical order (which
/// fixes a table's row order).
pub(crate) fn family(f: WorkloadFamily) -> Vec<Workload> {
    catalog::family(f)
        .iter()
        .map(|spec| spec.workload)
        .collect()
}

/// The affine (PolyBench) workloads every paper figure sweeps.
fn affine() -> Vec<Workload> {
    family(WorkloadFamily::Affine)
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

/// A labelled multi-series table: one column per series, one row per
/// benchmark, workload or organization, closed by an AVERAGE or TOTAL
/// row where the artifact has one. Every figure and extension returns
/// one, and [`crate::figures`] renders them all.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Series (column) labels, in column order.
    pub series: Vec<String>,
    /// `(label, value-per-series)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// The table of `rows` under `series`, with no summary row.
    pub(crate) fn new<S: Into<String>>(
        series: impl IntoIterator<Item = S>,
        rows: Vec<(String, Vec<f64>)>,
    ) -> Self {
        SeriesTable {
            series: series.into_iter().map(Into::into).collect(),
            rows,
        }
    }

    /// Appends the AVERAGE row the paper's figures end with: each series
    /// summed in row order and divided by the row count.
    pub(crate) fn with_average(self) -> Self {
        let n = self.rows.len().max(1) as f64;
        self.with_summary("AVERAGE", n)
    }

    /// Appends a TOTAL row: each series summed in row order.
    pub(crate) fn with_total(self) -> Self {
        self.with_summary("TOTAL", 1.0)
    }

    fn with_summary(mut self, label: &str, divisor: f64) -> Self {
        let summary = (0..self.series.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / divisor)
            .collect();
        self.rows.push((label.to_string(), summary));
        self
    }

    /// The AVERAGE value of a series (requires [`SeriesTable::rows`] to end
    /// with the AVERAGE row, which every figure and every extension but
    /// Exts. 5 and 6 guarantees).
    pub fn average(&self, series_idx: usize) -> f64 {
        self.rows.last().expect("table has an AVERAGE row").1[series_idx]
    }

    /// Renders the table as CSV (`benchmark` column plus one column per
    /// series, three decimals).
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

/// One row per affine benchmark, its cells `cells(i)` for the benchmark
/// at catalog index `i`, closed by the AVERAGE row.
fn per_benchmark<S: Into<String>>(
    series: impl IntoIterator<Item = S>,
    cells: impl Fn(usize) -> Vec<f64>,
) -> SeriesTable {
    let rows = affine()
        .iter()
        .enumerate()
        .map(|(i, w)| (w.label(), cells(i)))
        .collect();
    SeriesTable::new(series, rows).with_average()
}

/// One row per workload, labelled with its name, its cells `cells(w)`.
/// Each workload is one item of the current sweep runner, so the table
/// shards at workload granularity. No summary row.
pub(crate) fn per_workload<S: Into<String>>(
    workloads: &[Workload],
    series: impl IntoIterator<Item = S>,
    cells: impl Fn(Workload) -> Vec<f64> + Sync,
) -> SeriesTable {
    let rows = SweepRunner::current().map_ok(workloads, |_, &w| (w.label(), cells(w)));
    SeriesTable::new(series, rows)
}

/// Table I: the 64 KB SRAM vs STT-MRAM technology comparison.
pub fn table1() -> [TableOneRow; 2] {
    table_one()
}

/// Fig. 1: performance penalty of the drop-in STT-MRAM D-cache, per
/// benchmark, relative to the SRAM baseline.
pub fn fig1(size: ProblemSize) -> SeriesTable {
    let chunks = sweep_combos(
        &[
            (DCacheOrganization::SramBaseline, Transformations::none()),
            (DCacheOrganization::NvmDropIn, Transformations::none()),
        ],
        size,
    );
    per_benchmark(["Drop-in NVM D-Cache"], |i| {
        vec![penalty_pct(chunks[0][i], chunks[1][i])]
    })
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
    per_benchmark(["Drop-in NVM D-Cache", "NVM D-Cache with VWB"], |i| {
        vec![
            penalty_pct(chunks[0][i], chunks[1][i]),
            penalty_pct(chunks[0][i], chunks[2][i]),
        ]
    })
}

/// Fig. 4: relative contribution of read vs write access latency to the
/// VWB organization's penalty, in percent.
///
/// Measured counterfactually, gem5-style: one platform with only the NVM
/// *read* latency (writes at SRAM speed) and one with only the NVM *write*
/// latency. Each counterfactual's penalty over the SRAM baseline is its
/// latency class's contribution; shares are normalized to 100 %.
pub fn fig4(size: ProblemSize) -> SeriesTable {
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
    let series = ["Read penalty contrib", "Write penalty contrib"];
    per_workload(&affine(), series, |b| {
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
                vec![100.0, 0.0]
            } else {
                vec![re as f64 / tot * 100.0, we as f64 / tot * 100.0]
            }
        } else {
            let total = p_read + p_write;
            vec![p_read / total * 100.0, p_write / total * 100.0]
        }
    })
    .with_average()
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
    let series = ["Drop-in NVM", "No Optimization", "With Optimization"];
    per_benchmark(series, |i| {
        vec![
            penalty_pct(chunks[0][i], chunks[2][i]),
            penalty_pct(chunks[0][i], chunks[3][i]),
            penalty_pct(chunks[1][i], chunks[4][i]),
        ]
    })
}

/// Fig. 6: contribution of each transformation family (vectorization,
/// prefetching, the "others" intrinsics) to the penalty reduction on the
/// VWB organization, in percent.
///
/// Each family's contribution is the penalty reduction it achieves alone;
/// shares are normalized to 100 % as in the paper's stacked bars.
pub fn fig6(size: ProblemSize) -> SeriesTable {
    let org = DCacheOrganization::nvm_vwb_default();
    // One sweep item per benchmark; each item runs its leave-one-out
    // decomposition (up to a dozen simulations) so the grid shards at
    // benchmark granularity.
    let series = ["Vectorization", "Pre-fetching", "Others"];
    per_workload(&affine(), series, |b| {
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
        vec![v / total * 100.0, p / total * 100.0, o / total * 100.0]
    })
    .with_average()
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
    let series = sizes.iter().map(|s| format!("VWB = {} KBit", s / 1024));
    per_benchmark(series, |i| {
        (1..combos.len())
            .map(|c| penalty_pct(chunks[0][i], chunks[c][i]))
            .collect()
    })
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
    per_benchmark(["Our Proposal", "EMSHR", "L0-Cache"], |i| {
        (1..combos.len())
            .map(|c| penalty_pct(chunks[0][i], chunks[c][i]))
            .collect()
    })
}

/// Fig. 9: effect of the code transformations on the SRAM baseline vs on
/// the proposal (performance *gain*, in percent of the untransformed
/// runtime, not penalty).
pub fn fig9(size: ProblemSize) -> SeriesTable {
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
    let series = ["Baseline perf gain", "NVM proposal perf gain"];
    per_benchmark(series, |i| {
        vec![
            gain(chunks[0][i], chunks[1][i]),
            gain(chunks[2][i], chunks[3][i]),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_all_benchmarks_plus_average() {
        let t = fig1(ProblemSize::Mini);
        assert_eq!(t.rows.len(), affine().len() + 1);
        assert_eq!(t.rows.last().unwrap().0, "AVERAGE");
        // Every drop-in penalty is positive.
        for (name, cells) in &t.rows {
            assert!(cells[0] > 0.0, "{name}: {}", cells[0]);
        }
    }

    #[test]
    fn fig4_shares_sum_to_100() {
        for (name, cells) in fig4(ProblemSize::Mini).rows {
            let sum = cells[0] + cells[1];
            assert!((sum - 100.0).abs() < 1e-6, "{name}: {sum}");
        }
    }

    #[test]
    fn fig6_shares_sum_to_100() {
        for (name, cells) in fig6(ProblemSize::Mini).rows {
            let sum = cells[0] + cells[1] + cells[2];
            assert!((sum - 100.0).abs() < 1e-6, "{name}: {sum}");
        }
    }
}
