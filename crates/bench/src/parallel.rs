//! Multi-threaded sweep engine.
//!
//! The paper's figures are full PolyBench sweeps over a kernel ×
//! organization × transformation grid; every point is an independent,
//! deterministic simulation, so the grid shards perfectly across OS
//! threads. [`SweepRunner`] owns that sharding:
//!
//! * worker count defaults to [`std::thread::available_parallelism`],
//!   can be pinned with the `STTCACHE_THREADS` environment variable (a
//!   value that is not a positive integer is an error, never a silent
//!   default), and can be overridden per process by the binaries'
//!   `--jobs N` / `--serial` flags (see [`set_jobs`]);
//! * workers claim grid points from one shared atomic cursor, in grid
//!   order, so a worker that finishes a short simulation simply claims
//!   the next point and one slow organization cannot serialize the tail;
//! * results are merged by **stable grid index**, never by completion
//!   order, so a parallel sweep is byte-identical to a serial one at any
//!   worker count;
//! * each grid point runs under [`std::panic::catch_unwind`]: one
//!   diverging configuration surfaces as an error row while the rest of
//!   the sweep completes.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use sttcache::{DCacheOrganization, RunResult};
use sttcache_workloads::{catalog, ProblemSize, Transformations, Workload, WorkloadFamily};

/// Process-wide worker-count override (0 = unset). Written by the
/// binaries' `--jobs` / `--serial` flags, read by [`SweepRunner::current`].
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Pins the worker count every subsequent [`SweepRunner::current`] uses.
///
/// `set_jobs(1)` is the `--serial` mode; `set_jobs(0)` clears the
/// override (environment/hardware defaults apply again).
pub fn set_jobs(n: usize) {
    GLOBAL_JOBS.store(n, Ordering::SeqCst);
}

/// A sweep point failed instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The simulation closure panicked; the payload's message is kept so
    /// the error row says *why* the configuration diverged.
    Panic(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One point of the workload × organization × transformation grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The L1 D-cache organization under test.
    pub org: DCacheOrganization,
    /// The workload.
    pub workload: Workload,
    /// The problem size.
    pub size: ProblemSize,
    /// The code-transformation set the kernel runs with.
    pub transforms: Transformations,
}

impl GridPoint {
    /// A human-readable label for error rows and logs.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{:?}/{}",
            self.org.name(),
            self.workload.label(),
            self.size,
            self.transforms.label()
        )
    }
}

/// Builds the org-major, workload-minor grid the figure sweeps use: for
/// each organization in order, every *affine* catalog workload in catalog
/// order (the paper's PolyBench suite — the row order every figure's
/// reference output depends on).
pub fn grid(
    orgs: &[DCacheOrganization],
    size: ProblemSize,
    transforms: Transformations,
) -> Vec<GridPoint> {
    let affine = catalog::family(WorkloadFamily::Affine);
    let mut points = Vec::with_capacity(orgs.len() * affine.len());
    for &org in orgs {
        for spec in &affine {
            points.push(GridPoint {
                org,
                workload: spec.workload,
                size,
                transforms,
            });
        }
    }
    points
}

/// Shards independent work items across scoped threads and merges the
/// results back in grid order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A single-worker runner (the `--serial` mode).
    pub fn serial() -> Self {
        SweepRunner { workers: 1 }
    }

    /// A runner with exactly `n` workers (clamped to at least one).
    pub fn with_workers(n: usize) -> Self {
        SweepRunner { workers: n.max(1) }
    }

    /// Worker count from the environment: `STTCACHE_THREADS` if set,
    /// otherwise [`std::thread::available_parallelism`].
    ///
    /// # Errors
    ///
    /// Names the variable and its value if it is set to anything but a
    /// positive integer.
    pub fn from_env() -> Result<Self, String> {
        let workers = crate::env_knob("STTCACHE_THREADS", 1)?.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Ok(SweepRunner::with_workers(workers))
    }

    /// The runner every figure/experiment sweep uses: the [`set_jobs`]
    /// override if one is active, otherwise [`SweepRunner::from_env`].
    ///
    /// # Panics
    ///
    /// Panics, naming the variable, if no override is active and
    /// `STTCACHE_THREADS` is malformed (the binaries reject it with exit
    /// 2 before any work).
    pub fn current() -> Self {
        match GLOBAL_JOBS.load(Ordering::SeqCst) {
            0 => SweepRunner::from_env().unwrap_or_else(|e| panic!("{e}")),
            n => SweepRunner::with_workers(n),
        }
    }

    /// The number of worker threads this runner shards across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` on up to [`SweepRunner::workers`] scoped
    /// threads.
    ///
    /// Workers claim item indices from one shared atomic cursor, so long
    /// and short simulations balance without any static partition. The
    /// returned vector is ordered by item index — completion order never
    /// leaks into the output. A panicking item yields
    /// `Err(SweepError::Panic(..))` in its slot; the other items still
    /// complete.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<Result<O, SweepError>>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<O, SweepError>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| f(idx, &items[idx])))
                        .map_err(|payload| SweepError::Panic(panic_message(payload.as_ref())));
                    if tx.send((idx, out)).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut slots: Vec<Option<Result<O, SweepError>>> = (0..n).map(|_| None).collect();
        for (idx, out) in rx {
            slots[idx] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every grid index reports exactly once"))
            .collect()
    }

    /// Like [`SweepRunner::map`], but re-raises the first panic after the
    /// whole sweep has drained — for grids that are known-valid (the
    /// canonical figure configurations), where an error row would be a
    /// bug, not an input problem.
    pub fn map_ok<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        self.map(items, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(SweepError::Panic(msg)) => resume_unwind(Box::new(msg)),
            })
            .collect()
    }

    /// Simulates every [`GridPoint`], sharded across the workers.
    pub fn run_grid(&self, points: &[GridPoint]) -> Vec<Result<RunResult, SweepError>> {
        self.map(points, |_, p| {
            crate::experiments::run_benchmark(p.org, p.workload, p.size, p.transforms)
        })
    }

    /// Simulates every [`GridPoint`] and returns only the cycle counts,
    /// panicking (after the sweep drains) if any canonical point failed.
    pub fn grid_cycles(&self, points: &[GridPoint]) -> Vec<u64> {
        self.run_grid(points)
            .into_iter()
            .zip(points)
            .map(|(r, p)| match r {
                Ok(result) => result.cycles(),
                Err(e) => panic!("sweep point {} failed: {e}", p.label()),
            })
            .collect()
    }
}

impl Default for SweepRunner {
    /// [`SweepRunner::current`]: the `--jobs` override, else environment.
    fn default() -> Self {
        SweepRunner::current()
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_grid_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = SweepRunner::with_workers(8).map(&items, |idx, &v| {
            assert_eq!(idx, v);
            // Uneven work so completion order differs from grid order.
            let spin = (v * 37) % 101;
            std::hint::black_box((0..spin * 1000).sum::<usize>());
            v * 2
        });
        let values: Vec<usize> = out.into_iter().map(|r| r.expect("no panics")).collect();
        assert_eq!(values, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_an_empty_sweep() {
        let out = SweepRunner::with_workers(4).map(&[] as &[u64], |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_are_clamped_to_at_least_one() {
        assert_eq!(SweepRunner::with_workers(0).workers(), 1);
        assert_eq!(SweepRunner::serial().workers(), 1);
    }

    #[test]
    fn panic_becomes_an_error_row_not_a_crash() {
        let items: Vec<usize> = (0..8).collect();
        let out = SweepRunner::with_workers(4).map(&items, |_, &v| {
            if v == 3 {
                panic!("diverging config {v}");
            }
            v
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(
                    r.as_ref().expect_err("index 3 panicked"),
                    &SweepError::Panic("diverging config 3".to_string())
                );
            } else {
                assert_eq!(*r.as_ref().expect("others complete"), i);
            }
        }
    }

    #[test]
    fn output_is_identical_at_every_worker_count() {
        // Heavily skewed work: the last items are ~100× the first, so at
        // any worker count above one the workers finish out of grid
        // order. The merged output must not notice.
        let items: Vec<usize> = (0..64).collect();
        let work = |idx: usize, v: &usize| {
            assert_eq!(idx, *v);
            let spin = v * v * 40;
            std::hint::black_box((0..spin).sum::<usize>());
            v * 3 + 1
        };
        let serial: Vec<usize> = SweepRunner::serial()
            .map(&items, work)
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect();
        for workers in [2, 4, 8, 64, 200] {
            let out: Vec<usize> = SweepRunner::with_workers(workers)
                .map(&items, work)
                .into_iter()
                .map(|r| r.expect("no panics"))
                .collect();
            assert_eq!(out, serial, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn grid_is_org_major_workload_minor() {
        let orgs = [
            DCacheOrganization::SramBaseline,
            DCacheOrganization::NvmDropIn,
        ];
        let affine = catalog::family(WorkloadFamily::Affine);
        let points = grid(&orgs, ProblemSize::Mini, Transformations::none());
        assert_eq!(points.len(), 2 * affine.len());
        assert_eq!(points[0].org, DCacheOrganization::SramBaseline);
        assert_eq!(points[0].workload, affine[0].workload);
        assert_eq!(points[affine.len()].org, DCacheOrganization::NvmDropIn);
    }
}
