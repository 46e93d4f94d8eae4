//! `jacobi-1d`: three-point stencil over `TSTEPS` sweeps.

use super::{checksum, for_n, pf1, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::{Array1, DataSpace};
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// 1-D Jacobi stencil (`A, B: N`, ping-pong over `tsteps`).
///
/// Purely streaming: three overlapping sequential reads and one sequential
/// write per point — the pattern where the VWB alone already recovers most
/// of the NVM read penalty and prefetching hides the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jacobi1d {
    n: usize,
    tsteps: usize,
}

impl Jacobi1d {
    /// Creates the kernel (`n` points, `tsteps` sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `tsteps` is zero.
    pub fn new(n: usize, tsteps: usize) -> Self {
        assert!(n >= 3, "jacobi-1d needs at least three points");
        assert!(tsteps > 0, "jacobi-1d needs at least one sweep");
        Jacobi1d { n, tsteps }
    }

    fn sweep(e: &mut dyn Engine, t: Transformations, src: &Array1, dst: &mut Array1) {
        // The loop runs over the centres; a vector group hints its
        // leftmost element, the scalar loop its centre.
        strip_mine(
            e,
            t.vectorize,
            t.unroll_factor(),
            1,
            src.len() - 2,
            |e, i, step| {
                match step {
                    Step::Vector => pf1(e, t, src, i - 1),
                    Step::Scalar => pf1(e, t, src, i),
                    Step::Tail => {}
                }
                if step == Step::Vector {
                    // Three shifted vector loads feed one vector store.
                    let a = src.at_vec(e, i - 1);
                    let b = src.at_vec(e, i);
                    let c = src.at_vec(e, i + 1);
                    let mut out = [0.0f32; VEC];
                    for l in 0..VEC {
                        out[l] = 0.33333f32 * (a[l] + b[l] + c[l]);
                    }
                    e.compute(super::VOP);
                    dst.set_vec(e, i, out);
                } else {
                    let v = 0.33333f32 * (src.at(e, i - 1) + src.at(e, i) + src.at(e, i + 1));
                    e.compute(4);
                    dst.set(e, i, v);
                }
            },
        );
    }
}

impl Kernel for Jacobi1d {
    fn name(&self) -> &'static str {
        "jacobi-1d"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array1(self.n);
        let mut b = space.array1(self.n);
        a.fill(|i| seed_value(i, 97));
        b.fill(|i| seed_value(i, 101));

        for_n(e, 1, self.tsteps, |e, _| {
            Jacobi1d::sweep(e, t, &a, &mut b);
            Jacobi1d::sweep(e, t, &b, &mut a);
        });
        checksum(a.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Jacobi1d {
        Jacobi1d::new(37, 3)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Jacobi1d::new(64, 2));
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
        let (n, steps) = (9, 2);
        let mut a: Vec<f32> = (0..n).map(|i| seed_value(i, 97)).collect();
        let mut b: Vec<f32> = (0..n).map(|i| seed_value(i, 101)).collect();
        for _ in 0..steps {
            for i in 1..n - 1 {
                b[i] = 0.33333 * (a[i - 1] + a[i] + a[i + 1]);
            }
            for i in 1..n - 1 {
                a[i] = 0.33333 * (b[i - 1] + b[i] + b[i + 1]);
            }
        }
        let expect: f64 = a.iter().map(|&v| v as f64).sum();
        let got =
            Jacobi1d::new(n, steps).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
