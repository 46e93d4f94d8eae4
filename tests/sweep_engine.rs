//! Tests for the parallel sweep engine: parallel figure output must be
//! byte-identical to serial output at any worker count, and a diverging
//! grid point must surface as an error row without killing the sweep.

use sttcache_bench::parallel::{self, GridPoint, SweepError, SweepRunner};
use sttcache_bench::{experiments, figures};
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// Renders the figure artifacts a sweep produces into one string —
/// formatted exactly as the CSV emitters print them, so a byte-level
/// comparison covers both the numbers and their ordering.
fn rendered_figures(size: ProblemSize) -> String {
    let mut out = String::new();
    out.push_str(&experiments::fig3(size).to_csv());
    for r in experiments::fig1(size) {
        out.push_str(&format!("{},{:.3}\n", r.name, r.penalty_pct));
    }
    for r in experiments::fig9(size) {
        out.push_str(&format!(
            "{},{:.3},{:.3}\n",
            r.name, r.baseline_gain_pct, r.proposal_gain_pct
        ));
    }
    out
}

/// The tentpole guarantee: figure outputs are bit-identical across
/// 1, 2 and 8 workers. (One test function, because the worker count is a
/// process-global knob and the test harness runs tests concurrently.)
#[test]
fn figure_outputs_bit_identical_across_1_2_8_workers() {
    parallel::set_jobs(1);
    let serial = rendered_figures(ProblemSize::Mini);
    for workers in [2usize, 8] {
        parallel::set_jobs(workers);
        let parallel_out = rendered_figures(ProblemSize::Mini);
        assert_eq!(
            serial, parallel_out,
            "{workers}-worker sweep diverged from serial output"
        );
    }
    parallel::set_jobs(0); // restore environment defaults
}

/// A kernel shard that panics surfaces as an error row while the
/// remaining shards complete with real simulation results.
#[test]
fn panicking_kernel_shard_becomes_an_error_row() {
    let points: Vec<GridPoint> = PolyBench::ALL[..6]
        .iter()
        .map(|&bench| GridPoint {
            org: sttcache::DCacheOrganization::NvmDropIn,
            workload: bench.into(),
            size: ProblemSize::Mini,
            transforms: Transformations::none(),
        })
        .collect();
    let poisoned = 2usize;
    let results = SweepRunner::with_workers(4).map(&points, |idx, p| {
        if idx == poisoned {
            panic!("injected divergence on {}", p.workload.label());
        }
        experiments::run_benchmark(p.org, p.workload, p.size, p.transforms).cycles()
    });
    assert_eq!(results.len(), points.len());
    for (idx, r) in results.iter().enumerate() {
        if idx == poisoned {
            let err = r.as_ref().expect_err("poisoned shard must fail");
            let SweepError::Panic(msg) = err;
            assert!(msg.contains("injected divergence"), "{msg}");
        } else {
            assert!(
                *r.as_ref().expect("healthy shards complete") > 0,
                "shard {idx} produced no cycles"
            );
        }
    }
}

/// The sweep merges by stable grid index: the result vector lines up with
/// the submitted grid even though items complete out of order.
#[test]
fn grid_results_align_with_submission_order() {
    let orgs = [
        sttcache::DCacheOrganization::SramBaseline,
        sttcache::DCacheOrganization::NvmDropIn,
    ];
    let points = parallel::grid(&orgs, ProblemSize::Mini, Transformations::none());
    let results = SweepRunner::with_workers(8).run_grid(&points);
    assert_eq!(results.len(), points.len());
    for (point, result) in points.iter().zip(&results) {
        let r = result.as_ref().expect("canonical grids never fail");
        assert_eq!(
            r.organization,
            point.org,
            "result row does not belong to its grid point ({})",
            point.label()
        );
    }
}

/// `STTCACHE_THREADS` pins the environment-derived worker count, and a
/// malformed value is an error naming the variable, never a default.
/// (No other test in this binary reads the variable: each pins its
/// runner or the `--jobs` override.)
#[test]
fn environment_variable_pins_worker_count() {
    std::env::set_var("STTCACHE_THREADS", "3");
    assert_eq!(SweepRunner::from_env().map(|r| r.workers()), Ok(3));
    std::env::set_var("STTCACHE_THREADS", "not-a-number");
    let err = SweepRunner::from_env().expect_err("a malformed value is rejected");
    assert!(
        err.contains("STTCACHE_THREADS") && err.contains("not-a-number"),
        "{err}"
    );
    std::env::remove_var("STTCACHE_THREADS");
}

/// Explicit runners are independent of the global `--jobs` override.
#[test]
fn explicit_runner_ignores_global_override() {
    assert_eq!(SweepRunner::with_workers(5).workers(), 5);
    assert_eq!(SweepRunner::serial().workers(), 1);
}

/// The quick end-to-end: the figures CSV printer runs on top of the
/// engine without touching the global worker override.
#[test]
fn csv_printer_runs_on_the_sweep_engine() {
    assert!(!figures::print_csv("not-a-figure", ProblemSize::Mini));
}
