//! `trisolv`: forward substitution L·x = b.

use super::{checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Triangular solver (`L: N×N` lower triangular, diagonal made dominant so
/// the solve is numerically stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trisolv {
    n: usize,
}

impl Trisolv {
    /// Creates the kernel for an `n × n` system.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "trisolv dimension must be non-zero");
        Trisolv { n }
    }
}

impl Kernel for Trisolv {
    fn name(&self) -> &'static str {
        "trisolv"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut l = space.array2(self.n, self.n);
        let mut x = space.array1(self.n);
        let mut b = space.array1(self.n);
        // Diagonally dominant lower-triangular matrix.
        l.fill(|i, j| {
            if i == j {
                4.0 + seed_value(i, i).abs()
            } else {
                seed_value(i + 83, j) * 0.5
            }
        });
        b.fill(|i| seed_value(i, 21));

        for_n(e, 1, self.n, |e, i| {
            // x[i] = (b[i] - Σ_{j<i} L[i][j]·x[j]) / L[i][i]
            let sum = dot(e, t, &l, i, &x, Some(i));
            let num = b.at(e, i) - sum;
            let den = l.at(e, i, i);
            e.compute(3); // subtract + divide
            x.set(e, i, num / den);
        });
        checksum(x.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Trisolv {
        Trisolv::new(21)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Trisolv::new(32));
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
    fn solves_the_system() {
        use crate::space::test_support::Recorder;
        // Verify L·x = b by re-running and substituting.
        let n = 8;
        let l = |i: usize, j: usize| {
            if i == j {
                4.0 + seed_value(i, i).abs()
            } else {
                seed_value(i + 83, j) * 0.5
            }
        };
        let b = |i: usize| seed_value(i, 21);
        let mut x = vec![0.0f32; n];
        for i in 0..n {
            let mut sum = 0.0f32;
            for (j, &xv) in x.iter().enumerate().take(i) {
                sum += l(i, j) * xv;
            }
            x[i] = (b(i) - sum) / l(i, i);
        }
        let expect: f64 = x.iter().map(|&v| v as f64).sum();
        let got = Trisolv::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
