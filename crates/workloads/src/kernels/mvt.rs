//! `mvt`: x1 += A·y1 and x2 += Aᵀ·y2.

use super::{checksum, dot, dot_col, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Matrix-vector product and transpose (`A: N×N`).
///
/// The second product walks `A` by *columns* — every element opens a new
/// cache line, the worst case for the VWB, recovered only by prefetching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mvt {
    n: usize,
}

impl Mvt {
    /// Creates the kernel for an `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "mvt dimension must be non-zero");
        Mvt { n }
    }
}

impl Kernel for Mvt {
    fn name(&self) -> &'static str {
        "mvt"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.n, self.n);
        let mut x1 = space.array1(self.n);
        let mut x2 = space.array1(self.n);
        let mut y1 = space.array1(self.n);
        let mut y2 = space.array1(self.n);
        a.fill(|i, j| seed_value(i + 29, j));
        x1.fill(|i| seed_value(i, 1));
        x2.fill(|i| seed_value(i, 2));
        y1.fill(|i| seed_value(i, 4));
        y2.fill(|i| seed_value(i, 8));

        // x1[i] += A[i] · y1  (row-wise)
        for_n(e, 1, self.n, |e, i| {
            let d = dot(e, t, &a, i, &y1, None);
            let v = x1.at(e, i) + d;
            e.compute(1);
            x1.set(e, i, v);
        });
        // x2[i] += A[:,i] · y2  (column-wise)
        for_n(e, 1, self.n, |e, i| {
            let d = dot_col(e, t, &a, i, &y2);
            let v = x2.at(e, i) + d;
            e.compute(1);
            x2.set(e, i, v);
        });
        checksum(x1.raw()) + checksum(x2.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Mvt {
        Mvt::new(13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Mvt::new(16));
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
        let a = |i: usize, j: usize| seed_value(i + 29, j);
        let mut expect = 0.0f64;
        for i in 0..n {
            let mut v1 = seed_value(i, 1);
            let mut v2 = seed_value(i, 2);
            for j in 0..n {
                v1 += a(i, j) * seed_value(j, 4);
                v2 += a(j, i) * seed_value(j, 8);
            }
            expect += v1 as f64 + v2 as f64;
        }
        let got = Mvt::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
