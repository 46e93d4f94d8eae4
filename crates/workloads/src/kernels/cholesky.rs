//! `cholesky`: Cholesky decomposition of a symmetric positive-definite
//! matrix.

use super::{checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// In-place Cholesky factorization (`A: N×N`, diagonally dominated so the
/// factorization exists). The row-prefix dot products vectorize; the
/// diagonal square roots serialize, as in the PolyBench reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cholesky {
    n: usize,
}

impl Cholesky {
    /// Creates the kernel for an `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cholesky dimension must be non-zero");
        Cholesky { n }
    }
}

impl Kernel for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let n = self.n;
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(n, n);
        // Symmetric positive definite: small off-diagonals, dominant
        // diagonal.
        a.fill(|i, j| {
            if i == j {
                (n as f32) + 1.0
            } else {
                seed_value(i.min(j) + 131, i.max(j)) * 0.3
            }
        });

        for_n(e, 1, n, |e, i| {
            // Off-diagonal row: A[i][j] = (A[i][j] - A[i][:j]·A[j][:j]) / A[j][j]
            for_n(e, 1, i, |e, j| {
                let sum = dot(e, t, &a, i, (&a, j), Some(j));
                let v = (a.at(e, i, j) - sum) / a.at(e, j, j);
                e.compute(3);
                a.set(e, i, j, v);
            });
            // Diagonal: A[i][i] = sqrt(A[i][i] - A[i][:i]·A[i][:i])
            let sum = dot(e, t, &a, i, (&a, i), Some(i));
            let v = (a.at(e, i, i) - sum).max(1e-6).sqrt();
            e.compute(4);
            a.set(e, i, i, v);
        });
        checksum(a.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;
    use crate::space::test_support::Recorder;

    fn small() -> Cholesky {
        Cholesky::new(13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Cholesky::new(24));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&Cholesky::new(40));
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }

    #[test]
    fn factor_reproduces_the_matrix() {
        // Run the factorization on raw data and verify L·Lᵀ ≈ A for a
        // small instance.
        let n = 5;
        let orig = |i: usize, j: usize| -> f32 {
            if i == j {
                (n as f32) + 1.0
            } else {
                seed_value(i.min(j) + 131, i.max(j)) * 0.3
            }
        };
        // Compute the reference factor with plain loops.
        let mut l = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            for j in 0..n {
                l[i][j] = orig(i, j);
            }
        }
        for i in 0..n {
            for j in 0..i {
                let mut dot = 0.0f32;
                for k in 0..j {
                    dot += l[i][k] * l[j][k];
                }
                l[i][j] = (l[i][j] - dot) / l[j][j];
            }
            let mut dot = 0.0f32;
            for k in 0..i {
                dot += l[i][k] * l[i][k];
            }
            l[i][i] = (l[i][i] - dot).max(1e-6).sqrt();
        }
        // L·Lᵀ must reproduce the lower triangle of A.
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0f32;
                for k in 0..=j {
                    v += l[i][k] * l[j][k];
                }
                assert!(
                    (v - orig(i, j)).abs() < 1e-3,
                    "({i},{j}): {v} vs {}",
                    orig(i, j)
                );
            }
        }
        // And the kernel checksum matches the reference factor's sum over
        // the modified (lower + diagonal) part plus untouched upper part.
        let mut expect = 0.0f64;
        for (i, row) in l.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                expect += if j <= i { v as f64 } else { orig(i, j) as f64 };
            }
        }
        let got = Cholesky::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }
}
