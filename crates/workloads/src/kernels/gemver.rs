//! `gemver`: vector multiplication and matrix addition
//! (Â = A + u1·v1ᵀ + u2·v2ᵀ; x = β·Âᵀ·y + z; w = α·Â·x).

use super::{checksum, dot, dot_col, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// The four-phase BLAS-2 composite of PolyBench (`A: N×N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemver {
    n: usize,
}

const ALPHA: f32 = 1.5;
const BETA: f32 = 1.2;

impl Gemver {
    /// Creates the kernel for an `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "gemver dimension must be non-zero");
        Gemver { n }
    }
}

impl Kernel for Gemver {
    fn name(&self) -> &'static str {
        "gemver"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let n = self.n;
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(n, n);
        let mut u1 = space.array1(n);
        let mut v1 = space.array1(n);
        let mut u2 = space.array1(n);
        let mut v2 = space.array1(n);
        let mut w = space.array1(n);
        let mut x = space.array1(n);
        let mut y = space.array1(n);
        let mut z = space.array1(n);
        a.fill(|i, j| seed_value(i + 47, j));
        u1.fill(|i| seed_value(i, 10));
        v1.fill(|i| seed_value(i, 11));
        u2.fill(|i| seed_value(i, 12));
        v2.fill(|i| seed_value(i, 13));
        y.fill(|i| seed_value(i, 14));
        z.fill(|i| seed_value(i, 15));

        // Phase 1: Â = A + u1·v1ᵀ + u2·v2ᵀ (rank-2 update, row-wise).
        for_n(e, 1, n, |e, i| {
            let a1 = u1.at(e, i);
            let a2 = u2.at(e, i);
            strip_mine(e, t.vectorize, t.unroll_factor(), 0, n, |e, j, step| {
                if step != Step::Tail {
                    pf2(e, t, &a, i, j);
                }
                if step == Step::Vector {
                    let av = a.at_vec(e, i, j);
                    let w1 = v1.at_vec(e, j);
                    let w2 = v2.at_vec(e, j);
                    let mut out = [0.0f32; VEC];
                    for l in 0..VEC {
                        out[l] = av[l] + a1 * w1[l] + a2 * w2[l];
                    }
                    e.compute(super::VOP);
                    a.set_vec(e, i, j, out);
                } else {
                    let v = a.at(e, i, j) + a1 * v1.at(e, j) + a2 * v2.at(e, j);
                    e.compute(4);
                    a.set(e, i, j, v);
                }
            });
        });

        // Phase 2: x = β·Âᵀ·y + z (column walk).
        for_n(e, 1, n, |e, i| {
            let d = dot_col(e, t, &a, i, &y);
            let v = BETA * d + z.at(e, i);
            e.compute(2);
            x.set(e, i, v);
        });

        // Phase 3: w = α·Â·x (row-wise).
        for_n(e, 1, n, |e, i| {
            let d = dot(e, t, &a, i, &x, None);
            e.compute(1);
            w.set(e, i, ALPHA * d);
        });
        checksum(w.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Gemver {
        Gemver::new(13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Gemver::new(16));
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
        let n = 5;
        let mut a = vec![vec![0.0f32; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = seed_value(i + 47, j)
                    + seed_value(i, 10) * seed_value(j, 11)
                    + seed_value(i, 12) * seed_value(j, 13);
            }
        }
        let mut x = vec![0.0f32; n];
        for i in 0..n {
            let mut d = 0.0f32;
            for j in 0..n {
                d += a[j][i] * seed_value(j, 14);
            }
            x[i] = BETA * d + seed_value(i, 15);
        }
        let mut expect = 0.0f64;
        for i in 0..n {
            let mut d = 0.0f32;
            for j in 0..n {
                d += a[i][j] * x[j];
            }
            expect += (ALPHA * d) as f64;
        }
        let got = Gemver::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
