//! `bicg`: s = Aᵀ·r and q = A·p (BiCG sub-kernel).

use super::{axpy_row, checksum, dot, for_n, seed_value, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// The two matrix-vector products of the BiCGStab linear solver
/// (`A: N×M`, `s: M`, `q: N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bicg {
    n: usize,
    m: usize,
}

impl Bicg {
    /// Creates the kernel for an `n × m` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0, "bicg dimensions must be non-zero");
        Bicg { n, m }
    }
}

impl Kernel for Bicg {
    fn name(&self) -> &'static str {
        "bicg"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array2(self.n, self.m);
        let mut s = space.array1(self.m);
        let mut q = space.array1(self.n);
        let mut p = space.array1(self.m);
        let mut r = space.array1(self.n);
        a.fill(|i, j| seed_value(i + 23, j));
        p.fill(|i| seed_value(i, 3));
        r.fill(|i| seed_value(i, 9));

        for_n(e, t.unroll_factor(), self.m, |e, j| {
            s.set(e, j, 0.0);
        });
        for_n(e, 1, self.n, |e, i| {
            // s += r[i] · A[i]   (row update)
            let ri = r.at(e, i);
            axpy_row(e, t, &mut s, &a, i, ri);
            // q[i] = A[i] · p    (row dot)
            let qi = dot(e, t, &a, i, &p, None);
            q.set(e, i, qi);
        });
        checksum(s.raw()) + checksum(q.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;

    fn small() -> Bicg {
        Bicg::new(11, 9)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Bicg::new(8, 16));
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
        let (n, m) = (4, 3);
        let a = |i: usize, j: usize| seed_value(i + 23, j);
        let p = |j: usize| seed_value(j, 3);
        let r = |i: usize| seed_value(i, 9);
        let mut s = vec![0.0f32; m];
        let mut q = vec![0.0f32; n];
        for i in 0..n {
            for (j, sv) in s.iter_mut().enumerate() {
                *sv += r(i) * a(i, j);
            }
            for j in 0..m {
                q[i] += a(i, j) * p(j);
            }
        }
        let expect: f64 =
            s.iter().map(|&v| v as f64).sum::<f64>() + q.iter().map(|&v| v as f64).sum::<f64>();
        let got = Bicg::new(n, m).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-4, "{got} vs {expect}");
    }
}
