//! `atax`: y = Aᵀ(A·x).

use super::{axpy_row, checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Matrix-transpose-vector product (`A: M×N`).
///
/// Both inner loops walk `A` row-wise — the streaming pattern where VWB
/// promotions amortize over a whole line and one-line-ahead prefetching
/// hides the NVM read almost entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atax {
    m: usize,
    n: usize,
}

impl Atax {
    /// Creates the kernel for an `m × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "atax dimensions must be non-zero");
        Atax { m, n }
    }
}

impl Kernel for Atax {
    fn name(&self) -> &'static str {
        "atax"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.m, self.n);
        let mut x = space.array1(self.n);
        let mut y = space.array1(self.n);
        a.fill(|i, j| seed_value(i + 5, j));
        x.fill(|i| seed_value(i, 41));

        // y = 0
        for_n(e, t.unroll_factor(), self.n, |e, j| {
            y.set(e, j, 0.0);
        });

        for_n(e, 1, self.m, |e, i| {
            let tmp = dot(e, t, &a, i, &x, None); // tmp = A[i]·x
            axpy_row(e, t, &mut y, &a, i, tmp); // y += tmp·A[i]
        });
        checksum(y.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Atax {
        Atax::new(10, 13)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Atax::new(8, 16));
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
        let (m, n) = (4, 5);
        let a = |i: usize, j: usize| seed_value(i + 5, j);
        let x = |j: usize| seed_value(j, 41);
        let mut y = vec![0.0f32; n];
        for i in 0..m {
            let mut tmp = 0.0f32;
            for j in 0..n {
                tmp += a(i, j) * x(j);
            }
            for (j, yv) in y.iter_mut().enumerate() {
                *yv += tmp * a(i, j);
            }
        }
        let expect: f64 = y.iter().map(|&v| v as f64).sum();
        let got = Atax::new(m, n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
