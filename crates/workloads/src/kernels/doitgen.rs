//! `doitgen`: multi-resolution analysis kernel
//! (A[r][q][p] = Σ_s A[r][q][s]·C4[s][p]).

use super::{checksum, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// The MADNESS `doitgen` kernel (`A: R×Q×P`, `C4: P×P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Doitgen {
    nr: usize,
    nq: usize,
    np: usize,
}

impl Doitgen {
    /// Creates the kernel with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nr: usize, nq: usize, np: usize) -> Self {
        assert!(
            nr > 0 && nq > 0 && np > 0,
            "doitgen dimensions must be non-zero"
        );
        Doitgen { nr, nq, np }
    }
}

impl Kernel for Doitgen {
    fn name(&self) -> &'static str {
        "doitgen"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let (nr, nq, np) = (self.nr, self.nq, self.np);
        let mut space = DataSpace::new(t.others);
        let mut a = space.array3(nr, nq, np);
        let mut c4 = space.array2(np, np);
        let mut sum = space.array1(np);
        a.fill(|r, q, p| seed_value(r * 31 + q, p));
        c4.fill(|i, j| seed_value(i + 89, j));

        for_n(e, 1, nr, |e, r| {
            for_n(e, 1, nq, |e, q| {
                strip_mine(e, t.vectorize, 1, 0, np, |e, p, step| {
                    if step == Step::Vector {
                        let mut acc = [0.0f32; VEC];
                        for_n(e, t.unroll_factor(), np, |e, s| {
                            pf2(e, t, &c4, s, p);
                            let av = a.at(e, r, q, s);
                            let cv = c4.at_vec(e, s, p);
                            for l in 0..VEC {
                                acc[l] += av * cv[l];
                            }
                            e.compute(super::VOP);
                        });
                        for (l, &v) in acc.iter().enumerate() {
                            sum.set(e, p + l, v);
                        }
                        return;
                    }
                    // The tail's inner loop is neither unrolled nor hinted.
                    let scalar = step == Step::Scalar;
                    let unroll = if scalar { t.unroll_factor() } else { 1 };
                    let mut acc = 0.0f32;
                    for_n(e, unroll, np, |e, s| {
                        if scalar && t.prefetch && s + 2 < np {
                            e.prefetch(c4.addr(s + 2, p));
                        }
                        acc += a.at(e, r, q, s) * c4.at(e, s, p);
                        e.compute(3);
                    });
                    sum.set(e, p, acc);
                });
                // Copy the accumulator row back into A[r][q][*].
                for_n(e, t.unroll_factor(), np, |e, p| {
                    let v = sum.at(e, p);
                    a.set(e, r, q, p, v);
                });
            });
        });
        checksum(a.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Doitgen {
        Doitgen::new(4, 4, 9)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Doitgen::new(3, 3, 16));
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
        let (nr, nq, np) = (2, 2, 3);
        let mut a = vec![0.0f32; nr * nq * np];
        for r in 0..nr {
            for q in 0..nq {
                for p in 0..np {
                    a[(r * nq + q) * np + p] = seed_value(r * 31 + q, p);
                }
            }
        }
        let c4 = |s: usize, p: usize| seed_value(s + 89, p);
        for r in 0..nr {
            for q in 0..nq {
                let mut sum = vec![0.0f32; np];
                for (p, sv) in sum.iter_mut().enumerate() {
                    for s in 0..np {
                        *sv += a[(r * nq + q) * np + s] * c4(s, p);
                    }
                }
                for p in 0..np {
                    a[(r * nq + q) * np + p] = sum[p];
                }
            }
        }
        let expect: f64 = a.iter().map(|&v| v as f64).sum();
        let got =
            Doitgen::new(nr, nq, np).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
