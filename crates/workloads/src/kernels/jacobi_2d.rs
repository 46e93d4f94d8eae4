//! `jacobi-2d`: five-point stencil over `TSTEPS` sweeps.

use super::{checksum, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::{Array2, DataSpace};
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// 2-D Jacobi stencil (`A, B: N×N`, ping-pong over `tsteps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jacobi2d {
    n: usize,
    tsteps: usize,
}

impl Jacobi2d {
    /// Creates the kernel (`n × n` grid, `tsteps` sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `tsteps` is zero.
    pub fn new(n: usize, tsteps: usize) -> Self {
        assert!(n >= 3, "jacobi-2d needs at least a 3x3 grid");
        assert!(tsteps > 0, "jacobi-2d needs at least one sweep");
        Jacobi2d { n, tsteps }
    }

    fn sweep(e: &mut dyn Engine, t: Transformations, src: &Array2, dst: &mut Array2) {
        let n = src.rows();
        for_n(e, 1, n - 2, |e, it| {
            let i = it + 1;
            strip_mine(e, t.vectorize, t.unroll_factor(), 1, n - 2, |e, j, step| {
                if step != Step::Tail {
                    pf2(e, t, src, i, j);
                }
                if step == Step::Vector {
                    let c = src.at_vec(e, i, j);
                    let w = src.at_vec(e, i, j - 1);
                    let x = src.at_vec(e, i, j + 1);
                    let s = src.at_vec(e, i + 1, j);
                    let r = src.at_vec(e, i - 1, j);
                    let mut out = [0.0f32; VEC];
                    for l in 0..VEC {
                        out[l] = 0.2f32 * (c[l] + w[l] + x[l] + s[l] + r[l]);
                    }
                    e.compute(super::VOP + 2);
                    dst.set_vec(e, i, j, out);
                } else {
                    let v = 0.2f32
                        * (src.at(e, i, j)
                            + src.at(e, i, j - 1)
                            + src.at(e, i, j + 1)
                            + src.at(e, i + 1, j)
                            + src.at(e, i - 1, j));
                    e.compute(6);
                    dst.set(e, i, j, v);
                }
            });
        });
    }
}

impl Kernel for Jacobi2d {
    fn name(&self) -> &'static str {
        "jacobi-2d"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.n, self.n);
        let mut b = space.array2(self.n, self.n);
        a.fill(|i, j| seed_value(i + 103, j));
        b.fill(|i, j| seed_value(i + 107, j));

        for_n(e, 1, self.tsteps, |e, _| {
            Jacobi2d::sweep(e, t, &a, &mut b);
            Jacobi2d::sweep(e, t, &b, &mut a);
        });
        checksum(a.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Jacobi2d {
        Jacobi2d::new(11, 2)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Jacobi2d::new(18, 2));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&Jacobi2d::new(20, 2));
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }

    #[test]
    fn matches_naive_reference() {
        use crate::space::test_support::Recorder;
        let (n, steps) = (6, 1);
        let mut a = vec![vec![0.0f32; n]; n];
        let mut b = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = seed_value(i + 103, j);
                b[i][j] = seed_value(i + 107, j);
            }
        }
        for _ in 0..steps {
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    b[i][j] =
                        0.2 * (a[i][j] + a[i][j - 1] + a[i][j + 1] + a[i + 1][j] + a[i - 1][j]);
                }
            }
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    a[i][j] =
                        0.2 * (b[i][j] + b[i][j - 1] + b[i][j + 1] + b[i + 1][j] + b[i - 1][j]);
                }
            }
        }
        let expect: f64 = a.iter().flatten().map(|&v| v as f64).sum();
        let got =
            Jacobi2d::new(n, steps).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
