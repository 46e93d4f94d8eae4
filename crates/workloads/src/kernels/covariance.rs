//! `covariance`: covariance matrix of a data set.

use super::{checksum, dot_col, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Covariance computation (`data: N×M`, `cov: M×M`): mean subtraction
/// followed by column-pair dot products — a mix of streaming row walks and
/// the column walks that stress the VWB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Covariance {
    n: usize,
    m: usize,
}

impl Covariance {
    /// Creates the kernel (`n` samples of `m` variables).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below two.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n >= 2 && m >= 2, "covariance needs at least a 2x2 data set");
        Covariance { n, m }
    }
}

impl Kernel for Covariance {
    fn name(&self) -> &'static str {
        "covariance"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let (n, m) = (self.n, self.m);
        let mut space = DataSpace::new(t.others);
        let mut data = space.array2(n, m);
        let mut mean = space.array1(m);
        let mut cov = space.array2(m, m);
        data.fill(|i, j| seed_value(i + 113, j));

        // mean[j] = sum_i data[i][j] / n  (column reductions).
        let ones = {
            let mut v = space.array1(n);
            v.fill(|_| 1.0);
            v
        };
        for_n(e, 1, m, |e, j| {
            let s = dot_col(e, t, &data, j, &ones);
            e.compute(1);
            mean.set(e, j, s / n as f32);
        });

        // data[i][j] -= mean[j]  (row-wise, vectorizable).
        for_n(e, 1, n, |e, i| {
            strip_mine(e, t.vectorize, t.unroll_factor(), 0, m, |e, j, step| {
                if step != Step::Tail {
                    pf2(e, t, &data, i, j);
                }
                if step == Step::Vector {
                    let dv = data.at_vec(e, i, j);
                    let mv = mean.at_vec(e, j);
                    let mut out = [0.0f32; VEC];
                    for l in 0..VEC {
                        out[l] = dv[l] - mv[l];
                    }
                    e.compute(super::VOP);
                    data.set_vec(e, i, j, out);
                } else {
                    let v = data.at(e, i, j) - mean.at(e, j);
                    e.compute(2);
                    data.set(e, i, j, v);
                }
            });
        });

        // cov[j1][j2] = sum_i data[i][j1]*data[i][j2] / (n-1), j2 >= j1.
        for_n(e, 1, m, |e, j1| {
            for_n(e, 1, m - j1, |e, dj| {
                let j2 = j1 + dj;
                let mut acc = 0.0f32;
                for_n(e, t.unroll_factor(), n, |e, i| {
                    if t.prefetch && i + 2 < n {
                        e.prefetch(data.addr(i + 2, j1));
                    }
                    acc += data.at(e, i, j1) * data.at(e, i, j2);
                    e.compute(3);
                });
                let v = acc / (n - 1) as f32;
                e.compute(1);
                cov.set(e, j1, j2, v);
                cov.set(e, j2, j1, v);
            });
        });
        checksum(cov.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Covariance {
        Covariance::new(12, 9)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Covariance::new(8, 16));
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
    fn covariance_matrix_is_symmetric_and_diagonal_positive() {
        use crate::space::test_support::Recorder;
        // Re-derive the covariance from the same seeded data and check
        // the kernel checksum (sum over a symmetric matrix) matches.
        let (n, m) = (6, 4);
        let data = |i: usize, j: usize| seed_value(i + 113, j);
        let mut mean = vec![0.0f32; m];
        for (j, mv) in mean.iter_mut().enumerate() {
            for i in 0..n {
                *mv += data(i, j);
            }
            *mv /= n as f32;
        }
        let centred = |i: usize, j: usize| data(i, j) - mean[j];
        let mut expect = 0.0f64;
        for j1 in 0..m {
            for j2 in 0..m {
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += centred(i, j1) * centred(i, j2);
                }
                expect += (acc / (n - 1) as f32) as f64;
            }
        }
        let got = Covariance::new(n, m).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }
}
