//! `gesummv`: y = α·A·x + β·B·x.

use super::{checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Scalar–matrix–vector multiplication summed over two matrices
/// (`A, B: N×N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gesummv {
    n: usize,
}

const ALPHA: f32 = 1.5;
const BETA: f32 = 1.2;

impl Gesummv {
    /// Creates the kernel for `n × n` matrices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "gesummv dimension must be non-zero");
        Gesummv { n }
    }
}

impl Kernel for Gesummv {
    fn name(&self) -> &'static str {
        "gesummv"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.n, self.n);
        let mut b = space.array2(self.n, self.n);
        let mut x = space.array1(self.n);
        let mut y = space.array1(self.n);
        a.fill(|i, j| seed_value(i + 37, j));
        b.fill(|i, j| seed_value(i + 43, j));
        x.fill(|i| seed_value(i, 6));

        for_n(e, 1, self.n, |e, i| {
            let tmp = dot(e, t, &a, i, &x, None);
            let yv = dot(e, t, &b, i, &x, None);
            let out = ALPHA * tmp + BETA * yv;
            e.compute(3);
            y.set(e, i, out);
        });
        checksum(y.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Gesummv {
        Gesummv::new(13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Gesummv::new(16));
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
        let n = 6;
        let mut expect = 0.0f64;
        for i in 0..n {
            let mut ta = 0.0f32;
            let mut tb = 0.0f32;
            for j in 0..n {
                ta += seed_value(i + 37, j) * seed_value(j, 6);
                tb += seed_value(i + 43, j) * seed_value(j, 6);
            }
            expect += (ALPHA * ta + BETA * tb) as f64;
        }
        let got = Gesummv::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
