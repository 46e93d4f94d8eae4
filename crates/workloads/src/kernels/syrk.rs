//! `syrk`: C = α·A·Aᵀ + β·C (symmetric rank-k update, lower triangle).

use super::{checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Symmetric rank-k update (`C: N×N` lower triangle, `A: N×M`).
///
/// Both operand walks are row-wise; the triangular `j ≤ i` bound makes the
/// inner trip count vary, exercising the loop-control modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syrk {
    n: usize,
    m: usize,
}

const ALPHA: f32 = 1.5;
const BETA: f32 = 1.2;

impl Syrk {
    /// Creates the kernel (`C: n × n`, `A: n × m`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "syrk dimensions must be non-zero");
        Syrk { n, m }
    }
}

impl Kernel for Syrk {
    fn name(&self) -> &'static str {
        "syrk"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut c = space.array2(self.n, self.n);
        let mut a = space.array2(self.n, self.m);
        c.fill(|i, j| seed_value(i + 53, j));
        a.fill(|i, j| seed_value(i + 59, j));

        for_n(e, 1, self.n, |e, i| {
            for_n(e, 1, i + 1, |e, j| {
                let d = dot(e, t, &a, i, (&a, j), None);
                let v = BETA * c.at(e, i, j) + ALPHA * d;
                e.compute(3);
                c.set(e, i, j, v);
            });
        });
        checksum(c.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Syrk {
        Syrk::new(9, 11)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Syrk::new(8, 16));
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
    fn only_lower_triangle_is_updated() {
        use crate::space::test_support::Recorder;
        let n = 4;
        let mut expect = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let base = seed_value(i + 53, j);
                if j <= i {
                    let mut d = 0.0f32;
                    for k in 0..5 {
                        d += seed_value(i + 59, k) * seed_value(j + 59, k);
                    }
                    expect += (BETA * base + ALPHA * d) as f64;
                } else {
                    expect += base as f64;
                }
            }
        }
        let got = Syrk::new(n, 5).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
