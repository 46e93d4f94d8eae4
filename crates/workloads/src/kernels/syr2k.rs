//! `syr2k`: C = α·(A·Bᵀ + B·Aᵀ) + β·C (symmetric rank-2k update).

use super::{checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Symmetric rank-2k update (`C: N×N` lower triangle, `A, B: N×M`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syr2k {
    n: usize,
    m: usize,
}

const ALPHA: f32 = 1.5;
const BETA: f32 = 1.2;

impl Syr2k {
    /// Creates the kernel (`C: n × n`, `A, B: n × m`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "syr2k dimensions must be non-zero");
        Syr2k { n, m }
    }
}

impl Kernel for Syr2k {
    fn name(&self) -> &'static str {
        "syr2k"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut c = space.array2(self.n, self.n);
        let mut a = space.array2(self.n, self.m);
        let mut b = space.array2(self.n, self.m);
        c.fill(|i, j| seed_value(i + 61, j));
        a.fill(|i, j| seed_value(i + 67, j));
        b.fill(|i, j| seed_value(i + 71, j));

        for_n(e, 1, self.n, |e, i| {
            for_n(e, 1, i + 1, |e, j| {
                let d1 = dot(e, t, &a, i, (&b, j), None);
                let d2 = dot(e, t, &b, i, (&a, j), None);
                let v = BETA * c.at(e, i, j) + ALPHA * (d1 + d2);
                e.compute(4);
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

    fn small() -> Syr2k {
        Syr2k::new(8, 9)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Syr2k::new(8, 16));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&small());
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }
}
