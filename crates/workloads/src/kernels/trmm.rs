//! `trmm`: B = α·Aᵀ·B with A unit lower triangular.

use super::{checksum, for_n, seed_value, strip_mine, Kernel, Step, VEC, VOP};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Triangular matrix multiplication (`A: M×M` unit lower triangular,
/// `B: M×N`).
///
/// The `A[k][i]` operand walks a *column* of `A`, while `B[k][j]` walks a
/// column of `B` — a doubly strided pattern; the vectorized variant blocks
/// `j` so the `B` walk becomes wide row access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trmm {
    m: usize,
    n: usize,
}

const ALPHA: f32 = 1.5;

impl Trmm {
    /// Creates the kernel (`A: m × m`, `B: m × n`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "trmm dimensions must be non-zero");
        Trmm { m, n }
    }
}

impl Kernel for Trmm {
    fn name(&self) -> &'static str {
        "trmm"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.m, self.m);
        let mut b = space.array2(self.m, self.n);
        a.fill(|i, j| seed_value(i + 73, j));
        b.fill(|i, j| seed_value(i + 79, j));
        let m = self.m;

        for_n(e, 1, m, |e, i| {
            strip_mine(e, t.vectorize, 1, 0, self.n, |e, j, step| {
                if step == Step::Vector {
                    let mut acc = b.at_vec(e, i, j);
                    for_n(e, t.unroll_factor(), m - (i + 1), |e, kt| {
                        let k = i + 1 + kt;
                        if t.prefetch && k + 2 < m {
                            e.prefetch(a.addr(k + 2, i));
                        }
                        let aki = a.at(e, k, i);
                        let bv = b.at_vec(e, k, j);
                        for l in 0..VEC {
                            acc[l] += aki * bv[l];
                        }
                        e.compute(VOP);
                    });
                    let mut out = [0.0f32; VEC];
                    for l in 0..VEC {
                        out[l] = ALPHA * acc[l];
                    }
                    e.compute(1);
                    b.set_vec(e, i, j, out);
                    return;
                }
                // One scalar cell, the tail's included: it hints both
                // column walks.
                let mut acc = b.at(e, i, j);
                for_n(e, t.unroll_factor(), m - (i + 1), |e, kt| {
                    let k = i + 1 + kt;
                    if t.prefetch && k + 2 < m {
                        e.prefetch(a.addr(k + 2, i));
                        e.prefetch(b.addr(k + 2, j));
                    }
                    acc += a.at(e, k, i) * b.at(e, k, j);
                    e.compute(3);
                });
                e.compute(1);
                b.set(e, i, j, ALPHA * acc);
            });
        });
        checksum(b.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Trmm {
        Trmm::new(9, 10)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Trmm::new(8, 16));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&small());
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }

    #[test]
    fn matches_naive_reference() {
        use crate::space::test_support::Recorder;
        let (m, n) = (4, 3);
        let a = |i: usize, j: usize| seed_value(i + 73, j);
        let mut b = vec![vec![0.0f32; n]; m];
        for (i, row) in b.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = seed_value(i + 79, j);
            }
        }
        for i in 0..m {
            for j in 0..n {
                let mut acc = b[i][j];
                for k in (i + 1)..m {
                    acc += a(k, i) * b[k][j];
                }
                b[i][j] = ALPHA * acc;
            }
        }
        let expect: f64 = b.iter().flatten().map(|&v| v as f64).sum();
        let got = Trmm::new(m, n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
