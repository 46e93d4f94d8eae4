//! `ludcmp`: LU decomposition followed by forward/backward substitution.

use super::{checksum, dot, dot_row_prefix_rows_col, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// LU-based linear solve (`A: N×N`, `b, x, y: N`): factorize in place,
/// then `L·y = b` and `U·x = y`. The backward substitution walks rows in
/// reverse — the anti-streaming direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ludcmp {
    n: usize,
}

impl Ludcmp {
    /// Creates the kernel for an `n × n` system.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ludcmp dimension must be non-zero");
        Ludcmp { n }
    }
}

impl Kernel for Ludcmp {
    fn name(&self) -> &'static str {
        "ludcmp"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let n = self.n;
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(n, n);
        let mut b = space.array1(n);
        let mut x = space.array1(n);
        let mut y = space.array1(n);
        a.fill(|i, j| {
            if i == j {
                n as f32 + 2.0
            } else {
                seed_value(i + 149, j) * 0.4
            }
        });
        b.fill(|i| seed_value(i, 151));

        // Factorize (same recurrence as the `lu` kernel).
        for_n(e, 1, n, |e, i| {
            for_n(e, 1, i, |e, j| {
                let dot = dot_row_prefix_rows_col(e, t, &a, i, j, j);
                let v = (a.at(e, i, j) - dot) / a.at(e, j, j);
                e.compute(3);
                a.set(e, i, j, v);
            });
            for_n(e, 1, n - i, |e, dj| {
                let j = i + dj;
                let dot = dot_row_prefix_rows_col(e, t, &a, i, j, i);
                let v = a.at(e, i, j) - dot;
                e.compute(2);
                a.set(e, i, j, v);
            });
        });

        // Forward substitution: y[i] = b[i] - A[i][:i]·y[:i].
        for_n(e, 1, n, |e, i| {
            let sum = dot(e, t, &a, i, &y, Some(i));
            let v = b.at(e, i) - sum;
            e.compute(2);
            y.set(e, i, v);
        });

        // Backward substitution: x[i] = (y[i] - A[i][i+1:]·x[i+1:]) / A[i][i].
        for_n(e, 1, n, |e, rev| {
            let i = n - 1 - rev;
            let mut dot = 0.0f32;
            for_n(e, t.unroll_factor(), n - i - 1, |e, dj| {
                let j = i + 1 + dj;
                dot += a.at(e, i, j) * x.at(e, j);
                e.compute(3);
            });
            let v = (y.at(e, i) - dot) / a.at(e, i, i);
            e.compute(3);
            x.set(e, i, v);
        });
        checksum(x.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;
    use crate::space::test_support::Recorder;

    fn small() -> Ludcmp {
        Ludcmp::new(13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Ludcmp::new(24));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&Ludcmp::new(40));
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }

    #[test]
    fn solves_the_system() {
        // Verify A·x = b by substitution on a small instance.
        let n = 6;
        let orig = |i: usize, j: usize| {
            if i == j {
                n as f32 + 2.0
            } else {
                seed_value(i + 149, j) * 0.4
            }
        };
        let b: Vec<f32> = (0..n).map(|i| seed_value(i, 151)).collect();
        // Reference solve with plain loops.
        let mut a = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = orig(i, j);
            }
        }
        for i in 0..n {
            for j in 0..i {
                let mut d = 0.0f32;
                for k in 0..j {
                    d += a[i][k] * a[k][j];
                }
                a[i][j] = (a[i][j] - d) / a[j][j];
            }
            for j in i..n {
                let mut d = 0.0f32;
                for k in 0..i {
                    d += a[i][k] * a[k][j];
                }
                a[i][j] -= d;
            }
        }
        let mut y = vec![0.0f32; n];
        for i in 0..n {
            let mut d = 0.0f32;
            for k in 0..i {
                d += a[i][k] * y[k];
            }
            y[i] = b[i] - d;
        }
        let mut x = vec![0.0f32; n];
        for i in (0..n).rev() {
            let mut d = 0.0f32;
            for k in i + 1..n {
                d += a[i][k] * x[k];
            }
            x[i] = (y[i] - d) / a[i][i];
        }
        // Check residual against the ORIGINAL matrix.
        for i in 0..n {
            let mut ax = 0.0f32;
            for (j, &xv) in x.iter().enumerate() {
                ax += orig(i, j) * xv;
            }
            assert!((ax - b[i]).abs() < 1e-3, "row {i}: {ax} vs {}", b[i]);
        }
        let expect: f64 = x.iter().map(|&v| v as f64).sum();
        let got = Ludcmp::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }
}
