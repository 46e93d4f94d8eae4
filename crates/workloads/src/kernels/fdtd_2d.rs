//! `fdtd-2d`: 2-D finite-difference time-domain electromagnetic kernel.

use super::{checksum, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::{Array2, DataSpace};
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// FDTD over the TM fields (`ex, ey, hz: NX×NY`, `tmax` steps). Three
/// interleaved stencils over three arrays triple the live working set —
/// exactly the pressure that differentiates VWB capacities (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fdtd2d {
    nx: usize,
    ny: usize,
    tmax: usize,
}

impl Fdtd2d {
    /// Creates the kernel (`nx × ny` grid, `tmax` time steps).
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2 or `tmax` is zero.
    pub fn new(nx: usize, ny: usize, tmax: usize) -> Self {
        assert!(nx >= 2 && ny >= 2, "fdtd-2d needs at least a 2x2 grid");
        assert!(tmax > 0, "fdtd-2d needs at least one time step");
        Fdtd2d { nx, ny, tmax }
    }

    #[allow(clippy::too_many_arguments)]
    fn row_update(
        e: &mut dyn Engine,
        t: Transformations,
        dst: &mut Array2,
        a: &Array2,
        b: &Array2,
        i: usize,
        j0: usize,
        coeff: f32,
        offset: (usize, usize),
    ) {
        // dst[i][j] -= coeff * (a[i][j] - b[i-di][j-dj]) for j in j0..cols.
        let inner = dst.cols() - j0;
        let (di, dj) = offset;
        // A row is vectorized only when at least one whole group fits.
        let vectorize = t.vectorize && inner >= VEC;
        strip_mine(e, vectorize, t.unroll_factor(), j0, inner, |e, j, step| {
            if step != Step::Tail {
                pf2(e, t, a, i, j);
            }
            if step == Step::Vector {
                let dv = dst.at_vec(e, i, j);
                let av = a.at_vec(e, i, j);
                let bv = b.at_vec(e, i - di, j - dj);
                let mut out = [0.0f32; VEC];
                for l in 0..VEC {
                    out[l] = dv[l] - coeff * (av[l] - bv[l]);
                }
                e.compute(super::VOP);
                dst.set_vec(e, i, j, out);
            } else {
                let v = dst.at(e, i, j) - coeff * (a.at(e, i, j) - b.at(e, i - di, j - dj));
                e.compute(4);
                dst.set(e, i, j, v);
            }
        });
    }
}

impl Kernel for Fdtd2d {
    fn name(&self) -> &'static str {
        "fdtd-2d"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let (nx, ny) = (self.nx, self.ny);
        let mut space = DataSpace::new(t.others);
        let mut ex = space.array2(nx, ny);
        let mut ey = space.array2(nx, ny);
        let mut hz = space.array2(nx, ny);
        ex.fill(|i, j| seed_value(i + 181, j));
        ey.fill(|i, j| seed_value(i + 191, j));
        hz.fill(|i, j| seed_value(i + 193, j));

        for_n(e, 1, self.tmax, |e, step| {
            // ey[0][j] = source(step)
            for_n(e, t.unroll_factor(), ny, |e, j| {
                e.compute(1);
                ey.set(e, 0, j, step as f32 * 0.01);
            });
            // ey[i][j] -= 0.5 (hz[i][j] - hz[i-1][j])
            for_n(e, 1, nx - 1, |e, it| {
                let i = it + 1;
                Fdtd2d::row_update(e, t, &mut ey, &hz, &hz, i, 0, 0.5, (1, 0));
            });
            // ex[i][j] -= 0.5 (hz[i][j] - hz[i][j-1])
            for_n(e, 1, nx, |e, i| {
                Fdtd2d::row_update(e, t, &mut ex, &hz, &hz, i, 1, 0.5, (0, 1));
            });
            // hz[i][j] -= 0.7 (ex[i][j+1] - ex[i][j] + ey[i+1][j] - ey[i][j])
            for_n(e, 1, nx - 1, |e, i| {
                for_n(e, t.unroll_factor(), ny - 1, |e, j| {
                    pf2(e, t, &hz, i, j);
                    let v = hz.at(e, i, j)
                        - 0.7f32
                            * (ex.at(e, i, j + 1) - ex.at(e, i, j) + ey.at(e, i + 1, j)
                                - ey.at(e, i, j));
                    e.compute(6);
                    hz.set(e, i, j, v);
                });
            });
        });
        checksum(hz.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;
    use crate::space::test_support::Recorder;

    fn small() -> Fdtd2d {
        Fdtd2d::new(10, 11, 2)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&Fdtd2d::new(10, 18, 2));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&Fdtd2d::new(10, 20, 2));
    }

    #[test]
    fn unrolling_reduces_branches() {
        assert_unrolling_reduces_branches(&small());
    }

    #[test]
    fn matches_naive_reference() {
        let (nx, ny, tmax) = (5, 6, 2);
        let mut ex = vec![vec![0.0f32; ny]; nx];
        let mut ey = vec![vec![0.0f32; ny]; nx];
        let mut hz = vec![vec![0.0f32; ny]; nx];
        for i in 0..nx {
            for j in 0..ny {
                ex[i][j] = seed_value(i + 181, j);
                ey[i][j] = seed_value(i + 191, j);
                hz[i][j] = seed_value(i + 193, j);
            }
        }
        for step in 0..tmax {
            for j in 0..ny {
                ey[0][j] = step as f32 * 0.01;
            }
            for i in 1..nx {
                for j in 0..ny {
                    ey[i][j] -= 0.5 * (hz[i][j] - hz[i - 1][j]);
                }
            }
            for i in 0..nx {
                for j in 1..ny {
                    ex[i][j] -= 0.5 * (hz[i][j] - hz[i][j - 1]);
                }
            }
            for i in 0..nx - 1 {
                for j in 0..ny - 1 {
                    hz[i][j] -= 0.7 * (ex[i][j + 1] - ex[i][j] + ey[i + 1][j] - ey[i][j]);
                }
            }
        }
        let expect: f64 = hz.iter().flatten().map(|&v| v as f64).sum();
        let got =
            Fdtd2d::new(nx, ny, tmax).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }
}
