//! Experiment harness for the DATE 2015 STT-MRAM L1 D-cache paper.
//!
//! One function per table/figure of the paper's evaluation. Each returns
//! the figure's rows/series as data (so the `figures` binary, the
//! benchmark in `benchmark/` and the integration tests all share one
//! source of truth) and has a pretty-printer that emits the same layout
//! the paper plots.
//!
//! Penalty convention (identical to the paper): every bar is
//! `100·(cycles(config) − cycles(SRAM baseline)) / cycles(SRAM baseline)`,
//! with the SRAM D-cache platform running the *untransformed* kernels as
//! the fixed 100 % reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod explain;
pub mod extensions;
pub mod figures;
pub mod multicore;
pub mod parallel;
pub mod profile;
pub mod testkit;
pub mod trace_cache;
pub mod workload;

pub use experiments::{
    fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, run_benchmark, table1, BenchResult,
    ContributionRow, Fig4Row, Fig6Row, Fig9Row, SeriesTable,
};
pub use parallel::{GridPoint, SweepError, SweepRunner};
pub use profile::{ProfileReport, ProfileSnapshot};
pub use trace_cache::{TraceCache, TraceCacheStats, TraceKey};
pub use workload::WorkloadError;

/// Held by every unit test that arms the process-wide telemetry gate, so
/// no test sees another one's arming.
#[cfg(test)]
pub(crate) static TELEMETRY_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
