//! The PolyBench kernel subset.
//!
//! Each kernel follows its PolyBench/C reference loop nest. The scalar
//! variant keeps the reference loop order; the vectorized variant applies
//! the loop-interchange + 4-wide SIMD rewrite the paper's manual
//! vectorization performs, strip-mining every vectorized loop through one
//! function, `strip_mine`; prefetch hints and unrolling/alignment follow
//! the [`Transformations`] toggles.

mod adi;
mod atax;
mod bicg;
mod cholesky;
mod correlation;
mod covariance;
mod doitgen;
mod durbin;
mod fdtd_2d;
mod floyd_warshall;
mod gemm;
mod gemver;
mod gesummv;
mod gramschmidt;
mod heat_3d;
mod jacobi_1d;
mod jacobi_2d;
mod lu;
mod ludcmp;
mod mvt;
mod seidel_2d;
mod symm;
mod syr2k;
mod syrk;
mod three_mm;
mod trisolv;
mod trmm;
mod two_mm;

pub use adi::Adi;
pub use atax::Atax;
pub use bicg::Bicg;
pub use cholesky::Cholesky;
pub use correlation::Correlation;
pub use covariance::Covariance;
pub use doitgen::Doitgen;
pub use durbin::Durbin;
pub use fdtd_2d::Fdtd2d;
pub use floyd_warshall::FloydWarshall;
pub use gemm::Gemm;
pub use gemver::Gemver;
pub use gesummv::Gesummv;
pub use gramschmidt::Gramschmidt;
pub use heat_3d::Heat3d;
pub use jacobi_1d::Jacobi1d;
pub use jacobi_2d::Jacobi2d;
pub use lu::Lu;
pub use ludcmp::Ludcmp;
pub use mvt::Mvt;
pub use seidel_2d::Seidel2d;
pub use symm::Symm;
pub use syr2k::Syr2k;
pub use syrk::Syrk;
pub use three_mm::ThreeMm;
pub use trisolv::Trisolv;
pub use trmm::Trmm;
pub use two_mm::TwoMm;

use crate::space::{Array1, Array2};
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// `f32` elements per 64-byte cache line.
pub(crate) const LINE_ELEMS: usize = 16;
/// Issue cost of one 4-wide vector arithmetic group in cycles. The A9's
/// NEON pipe is not free: permutes, lane extracts and the 2-cycle FMA
/// cadence bound the realized SIMD speed-up to the ~1.5-2x a compiler
/// gets on these kernels, rather than the ideal 4x.
pub(crate) const VOP: u64 = 10;
/// Elements per vector operation.
pub(crate) const VEC: usize = crate::space::VEC;

/// Drives an instrumented counted loop: the body runs for every index and
/// loop-control overhead (induction update + back-edge branch) is emitted
/// once per `unroll` iterations — the paper's unrolling intrinsic.
pub(crate) fn for_n(
    e: &mut dyn Engine,
    unroll: u64,
    n: usize,
    mut body: impl FnMut(&mut dyn Engine, usize),
) {
    let unroll = unroll.max(1) as usize;
    let mut i = 0;
    while i < n {
        let end = (i + unroll).min(n);
        for j in i..end {
            body(e, j);
        }
        e.compute(1);
        e.branch(end < n);
        i = end;
    }
}

/// Sequential-walk prefetch hint for a 1-D array: when element `i` starts a
/// new cache line, hint the line one ahead.
pub(crate) fn pf1(e: &mut dyn Engine, t: Transformations, a: &Array1, i: usize) {
    if t.prefetch && i.is_multiple_of(LINE_ELEMS) {
        let next = i + LINE_ELEMS;
        if next < a.len() {
            e.prefetch(a.addr(next));
        }
    }
}

/// Row-major-walk prefetch hint for a 2-D array: when element `(i, j)`
/// starts a new line, hint one line ahead within the row (or the start of
/// the next row at the row's end).
pub(crate) fn pf2(e: &mut dyn Engine, t: Transformations, a: &Array2, i: usize, j: usize) {
    if !t.prefetch || !j.is_multiple_of(LINE_ELEMS) {
        return;
    }
    let next = j + LINE_ELEMS;
    if next < a.cols() {
        e.prefetch(a.addr(i, next));
    } else if i + 1 < a.rows() {
        e.prefetch(a.addr(i + 1, 0));
    }
}

/// Which form of a strip-mined loop's body runs at an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A 4-wide group starting at the index.
    Vector,
    /// One element left after the last whole group.
    Tail,
    /// One element of a loop left scalar.
    Scalar,
}

/// The vectorization transform of one counted loop over
/// `start..start + n`: the one place its strip-mining is modelled.
///
/// Vectorized, the body runs once per whole 4-wide group
/// ([`Step::Vector`]), and one loop-control pair closes each group; the
/// `n % VEC` elements left then run one at a time ([`Step::Tail`]) with a
/// control pair each. Left scalar, every index runs as [`Step::Scalar`]
/// under [`for_n`], unrolled by `unroll`.
pub(crate) fn strip_mine(
    e: &mut dyn Engine,
    vectorize: bool,
    unroll: u64,
    start: usize,
    n: usize,
    mut body: impl FnMut(&mut dyn Engine, usize, Step),
) {
    if !vectorize {
        for_n(e, unroll, n, |e, j| body(e, start + j, Step::Scalar));
        return;
    }
    let groups = n - n % VEC;
    for j in (0..groups).step_by(VEC) {
        body(e, start + j, Step::Vector);
        e.compute(1);
        e.branch(j + VEC < groups);
    }
    for_n(e, 1, n - groups, |e, j| {
        body(e, start + groups + j, Step::Tail)
    });
}

/// The second operand of [`dot`]: a vector, or a row of a matrix.
pub(crate) trait Operand {
    /// Element count.
    fn len(&self) -> usize;
    /// Instrumented load of element `j`.
    fn at(&self, e: &mut dyn Engine, j: usize) -> f32;
    /// Instrumented 4-wide vector load starting at `j`.
    fn at_vec(&self, e: &mut dyn Engine, j: usize) -> [f32; VEC];
    /// The sequential-walk prefetch hint at `j`.
    fn hint(&self, e: &mut dyn Engine, t: Transformations, j: usize);
}

impl Operand for &Array1 {
    fn len(&self) -> usize {
        Array1::len(self)
    }

    fn at(&self, e: &mut dyn Engine, j: usize) -> f32 {
        Array1::at(self, e, j)
    }

    fn at_vec(&self, e: &mut dyn Engine, j: usize) -> [f32; VEC] {
        Array1::at_vec(self, e, j)
    }

    fn hint(&self, e: &mut dyn Engine, t: Transformations, j: usize) {
        pf1(e, t, self, j);
    }
}

impl Operand for (&Array2, usize) {
    fn len(&self) -> usize {
        self.0.cols()
    }

    fn at(&self, e: &mut dyn Engine, j: usize) -> f32 {
        self.0.at(e, self.1, j)
    }

    fn at_vec(&self, e: &mut dyn Engine, j: usize) -> [f32; VEC] {
        self.0.at_vec(e, self.1, j)
    }

    fn hint(&self, e: &mut dyn Engine, t: Transformations, j: usize) {
        pf2(e, t, self.0, self.1, j);
    }
}

/// Instrumented dot product of matrix row `i` with `x`, a vector or
/// another matrix row: `Σ_j a[i][j]·x[j]` over the shorter of the two,
/// or over the first `prefix` elements (the substitution and
/// factorization updates). A full-length product hints both walks; a
/// prefix product hints only the row.
pub(crate) fn dot(
    e: &mut dyn Engine,
    t: Transformations,
    a: &Array2,
    i: usize,
    x: impl Operand,
    prefix: Option<usize>,
) -> f32 {
    let n = a.cols().min(x.len()).min(prefix.unwrap_or(usize::MAX));
    let mut acc = 0.0f32;
    strip_mine(e, t.vectorize, t.unroll_factor(), 0, n, |e, j, step| {
        if step != Step::Tail {
            pf2(e, t, a, i, j);
            if prefix.is_none() {
                x.hint(e, t, j);
            }
        }
        if step == Step::Vector {
            let av = a.at_vec(e, i, j);
            let xv = x.at_vec(e, j);
            for l in 0..VEC {
                acc += av[l] * xv[l];
            }
            e.compute(VOP);
        } else {
            acc += a.at(e, i, j) * x.at(e, j);
            e.compute(3);
        }
    });
    acc
}

/// Instrumented row update `y[j] += scale·a[i][j]` for all `j`, vectorized
/// when asked.
pub(crate) fn axpy_row(
    e: &mut dyn Engine,
    t: Transformations,
    y: &mut Array1,
    a: &Array2,
    i: usize,
    scale: f32,
) {
    let n = a.cols().min(y.len());
    strip_mine(e, t.vectorize, t.unroll_factor(), 0, n, |e, j, step| {
        if step != Step::Tail {
            pf2(e, t, a, i, j);
        }
        if step == Step::Vector {
            let av = a.at_vec(e, i, j);
            let yv = y.at_vec(e, j);
            let mut out = [0.0f32; VEC];
            for l in 0..VEC {
                out[l] = yv[l] + scale * av[l];
            }
            e.compute(VOP);
            y.set_vec(e, j, out);
        } else {
            let v = y.at(e, j) + scale * a.at(e, i, j);
            e.compute(3);
            y.set(e, j, v);
        }
    });
}

/// Instrumented hybrid prefix dot product `Σ_{k<prefix} a[i][k]·a[k][j]`
/// (row of `a` against *column* `j` of `a` — the LU update). The column
/// operand is non-unit stride, so only the row operand's walk benefits
/// from wide loads; the scalar form is kept even under vectorization and
/// prefetch hints target the column walk.
pub(crate) fn dot_row_prefix_rows_col(
    e: &mut dyn Engine,
    t: Transformations,
    a: &Array2,
    i: usize,
    j: usize,
    prefix: usize,
) -> f32 {
    let n = prefix.min(a.cols()).min(a.rows());
    let mut acc = 0.0f32;
    for_n(e, t.unroll_factor(), n, |e, k| {
        // Only the row stream is hinted: a second hint for the column walk
        // would evict the row lines from the small VWB (the paper prefetches
        // selectively, by hand).
        pf2(e, t, a, i, k);
        acc += a.at(e, i, k) * a.at(e, k, j);
        e.compute(3);
    });
    acc
}

/// Instrumented dot product of matrix *column* `j` with vector `x`:
/// `Σ_i a[i][j]·x[i]` — the stride-N walk that thrashes small line
/// buffers. Never vectorized (non-unit stride); prefetch hints reach a few
/// rows ahead.
pub(crate) fn dot_col(
    e: &mut dyn Engine,
    t: Transformations,
    a: &Array2,
    j: usize,
    x: &Array1,
) -> f32 {
    let n = a.rows().min(x.len());
    let mut acc = 0.0f32;
    for_n(e, t.unroll_factor(), n, |e, i| {
        if t.prefetch && i + 2 < n {
            e.prefetch(a.addr(i + 2, j));
        }
        pf1(e, t, x, i);
        acc += a.at(e, i, j) * x.at(e, i);
        e.compute(3);
    });
    acc
}

/// Instrumented matrix-multiply-accumulate `out = alpha·a·b + beta·out`.
/// Left scalar it keeps PolyBench's `i, j, k` reference order (the
/// `b[k][j]` column walk is the access pattern small line buffers
/// struggle with); vectorized, `j` is blocked by four with register
/// accumulators, turning the `b` traffic into sequential wide loads.
pub(crate) fn matmul(
    e: &mut dyn Engine,
    t: Transformations,
    out: &mut Array2,
    a: &Array2,
    b: &Array2,
    alpha: f32,
    beta: f32,
) {
    let (ni, nj, nk) = (out.rows(), out.cols(), a.cols());
    debug_assert_eq!(a.rows(), ni);
    debug_assert_eq!(b.rows(), nk);
    debug_assert_eq!(b.cols(), nj);
    for_n(e, 1, ni, |e, i| {
        strip_mine(e, t.vectorize, 1, 0, nj, |e, j, step| {
            if step == Step::Vector {
                let mut acc = [0.0f32; VEC];
                for_n(e, t.unroll_factor(), nk, |e, k| {
                    pf2(e, t, a, i, k);
                    pf2(e, t, b, k, j);
                    let av = a.at(e, i, k);
                    let bv = b.at_vec(e, k, j);
                    for (l, &x) in bv.iter().enumerate() {
                        acc[l] += alpha * av * x;
                    }
                    e.compute(VOP);
                });
                let cv = out.at_vec(e, i, j);
                let mut res = [0.0f32; VEC];
                for l in 0..VEC {
                    res[l] = acc[l] + beta * cv[l];
                }
                e.compute(VOP);
                out.set_vec(e, i, j, res);
                return;
            }
            let mut acc = out.at(e, i, j) * beta;
            e.compute(1);
            for_n(e, t.unroll_factor(), nk, |e, k| {
                if step == Step::Scalar {
                    pf2(e, t, a, i, k);
                    if t.prefetch && k + 2 < nk {
                        // Hint the B column walk two rows down: far enough
                        // to hide the promotion, close enough to survive in
                        // the four-entry VWB.
                        e.prefetch(b.addr(k + 2, j));
                    }
                }
                let av = a.at(e, i, k);
                let bv = b.at(e, k, j);
                acc += alpha * av * bv;
                e.compute(3);
            });
            out.set(e, i, j, acc);
        });
    });
}

/// A runnable PolyBench kernel.
///
/// [`Kernel::execute`] performs the real computation while emitting every
/// memory event into `e`, and returns a checksum over the kernel's output
/// data so tests can verify that the transformed variants compute the same
/// result as the reference loop nest.
pub trait Kernel {
    /// The PolyBench kernel name (e.g. `"gemm"`).
    fn name(&self) -> &'static str;

    /// Runs the kernel, returning an output checksum.
    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64;

    /// Runs the kernel, discarding the checksum.
    fn run(&self, e: &mut dyn Engine, t: Transformations) {
        let _ = self.execute(e, t);
    }
}

/// Deterministic pseudo-random initializer in `[-1, 1)` (PolyBench-style
/// data without an RNG dependency). Murmur-style finalizer so both index
/// arguments mix thoroughly.
pub(crate) fn seed_value(i: usize, j: usize) -> f32 {
    let mut x = (i as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((j as u32).wrapping_mul(2246822519))
        .wrapping_add(374761393);
    x ^= x >> 16;
    x = x.wrapping_mul(2246822507);
    x ^= x >> 13;
    x = x.wrapping_mul(3266489909);
    x ^= x >> 16;
    (x & 0xffff) as f32 / 32768.0 - 1.0
}

/// Checksum helper: sums a slice into an order-stable `f64`.
pub(crate) fn checksum(data: &[f32]) -> f64 {
    data.iter().map(|&v| v as f64).sum()
}

#[cfg(test)]
pub(crate) mod kernel_tests {
    //! Shared conformance checks every kernel's test module runs.

    use super::Kernel;
    use crate::space::test_support::Recorder;
    use crate::transform::Transformations;

    // The core contract lives in the public conformance module so the
    // cross-crate workload-catalog battery enforces the identical bar.
    pub use crate::conformance::assert_kernel_conformance;

    /// Vectorization must reduce the number of load events (wide loads
    /// replace groups of narrow ones).
    pub fn assert_vectorization_reduces_loads(k: &dyn Kernel) {
        let mut scalar = Recorder::default();
        k.execute(&mut scalar, Transformations::none());
        let mut vector = Recorder::default();
        k.execute(
            &mut vector,
            Transformations {
                vectorize: true,
                others: true,
                ..Default::default()
            },
        );
        assert!(
            vector.loads.len() < scalar.loads.len(),
            "{}: vectorized {} loads !< scalar {} loads",
            k.name(),
            vector.loads.len(),
            scalar.loads.len()
        );
    }

    /// Prefetching must emit hints.
    pub fn assert_prefetch_emits_hints(k: &dyn Kernel) {
        let mut rec = Recorder::default();
        k.execute(&mut rec, Transformations::only_prefetch());
        assert!(
            !rec.prefetches.is_empty(),
            "{}: no prefetch hints",
            k.name()
        );
        let mut none = Recorder::default();
        k.execute(&mut none, Transformations::none());
        assert!(
            none.prefetches.is_empty(),
            "{}: hints without the toggle",
            k.name()
        );
    }

    /// Unrolling ("others") must reduce branch events.
    pub fn assert_unrolling_reduces_branches(k: &dyn Kernel) {
        let mut scalar = Recorder::default();
        k.execute(&mut scalar, Transformations::none());
        let mut unrolled = Recorder::default();
        k.execute(&mut unrolled, Transformations::only_others());
        assert!(
            unrolled.branches.len() < scalar.branches.len(),
            "{}: unrolled {} branches !< scalar {}",
            k.name(),
            unrolled.branches.len(),
            scalar.branches.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::test_support::Recorder;
    use crate::space::DataSpace;

    #[test]
    fn for_n_visits_every_index_once() {
        let mut seen = Vec::new();
        let mut e = Recorder::default();
        for_n(&mut e, 4, 10, |_, i| seen.push(i));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // ceil(10 / 4) = 3 control points, last branch not taken.
        assert_eq!(e.branches, vec![true, true, false]);
    }

    #[test]
    fn for_n_without_unroll_branches_per_iteration() {
        let mut e = Recorder::default();
        for_n(&mut e, 1, 5, |_, _| {});
        assert_eq!(e.branches.len(), 5);
        assert_eq!(e.compute_ops, 5);
    }

    #[test]
    fn for_n_handles_empty_range() {
        let mut e = Recorder::default();
        for_n(&mut e, 4, 0, |_, _| panic!("body must not run"));
        assert!(e.branches.is_empty());
    }

    #[test]
    fn strip_mine_closes_each_group_then_runs_the_tail() {
        use Step::{Tail, Vector};
        let mut seen = Vec::new();
        let mut e = Recorder::default();
        strip_mine(&mut e, true, 4, 1, 10, |_, j, step| seen.push((j, step)));
        assert_eq!(seen, vec![(1, Vector), (5, Vector), (9, Tail), (10, Tail)]);
        // One control pair per group, then one per tail element: a
        // vectorized loop is not unrolled.
        assert_eq!(e.branches, vec![true, false, true, false]);
        assert_eq!(e.compute_ops, 4);
    }

    #[test]
    fn strip_mine_left_scalar_is_an_unrolled_for_n() {
        let mut seen = Vec::new();
        let mut e = Recorder::default();
        strip_mine(&mut e, false, 4, 2, 6, |_, j, step| {
            assert_eq!(step, Step::Scalar);
            seen.push(j);
        });
        assert_eq!(seen, (2..8).collect::<Vec<_>>());
        assert_eq!(e.branches, vec![true, false]);
    }

    #[test]
    fn pf1_hints_one_line_ahead() {
        let mut space = DataSpace::new(true);
        let a = space.array1(64);
        let mut e = Recorder::default();
        let t = Transformations::only_prefetch();
        pf1(&mut e, t, &a, 0);
        pf1(&mut e, t, &a, 1); // mid-line: no hint
        pf1(&mut e, t, &a, 16);
        assert_eq!(e.prefetches, vec![a.addr(16), a.addr(32)]);
        // Near the end: no out-of-bounds hint.
        pf1(&mut e, t, &a, 48);
        assert_eq!(e.prefetches.len(), 2);
    }

    #[test]
    fn pf2_wraps_to_next_row() {
        let mut space = DataSpace::new(true);
        let a = space.array2(4, 16);
        let mut e = Recorder::default();
        let t = Transformations::only_prefetch();
        pf2(&mut e, t, &a, 0, 0);
        assert_eq!(e.prefetches, vec![a.addr(1, 0)]);
    }

    #[test]
    fn seed_value_is_deterministic_and_bounded() {
        assert_eq!(seed_value(3, 7), seed_value(3, 7));
        for i in 0..50 {
            for j in 0..50 {
                let v = seed_value(i, j);
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn checksum_sums() {
        assert_eq!(checksum(&[1.0, 2.0, 3.5]), 6.5);
    }
}
