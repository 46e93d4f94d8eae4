//! `floyd-warshall`: all-pairs shortest paths.

use super::{checksum, for_n, pf2, seed_value, strip_mine, Kernel, Step, VEC};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Floyd-Warshall all-pairs shortest paths (`paths: N×N`).
///
/// The min-update is a data-dependent conditional on every inner
/// iteration — the showcase for the "others" branch-less conversion. The
/// inner `j` loop vectorizes with a lane-wise min.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloydWarshall {
    n: usize,
}

impl FloydWarshall {
    /// Creates the kernel for an `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "floyd-warshall needs at least one node");
        FloydWarshall { n }
    }
}

impl Kernel for FloydWarshall {
    fn name(&self) -> &'static str {
        "floyd-warshall"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let n = self.n;
        let mut space = DataSpace::new(t.others);
        let mut paths = space.array2(n, n);
        // Positive edge weights; 0 on the diagonal.
        paths.fill(|i, j| {
            if i == j {
                0.0
            } else {
                seed_value(i + 163, j).abs() * 9.0 + 1.0
            }
        });

        for_n(e, 1, n, |e, k| {
            for_n(e, 1, n, |e, i| {
                let d_ik = paths.at(e, i, k);
                strip_mine(e, t.vectorize, t.unroll_factor(), 0, n, |e, j, step| {
                    if step != Step::Tail {
                        pf2(e, t, &paths, i, j);
                    }
                    if step == Step::Vector {
                        let ij = paths.at_vec(e, i, j);
                        let kj = paths.at_vec(e, k, j);
                        let mut out = [0.0f32; VEC];
                        for l in 0..VEC {
                            // SIMD min: branch-free by construction.
                            out[l] = ij[l].min(d_ik + kj[l]);
                        }
                        e.compute(super::VOP);
                        paths.set_vec(e, i, j, out);
                        return;
                    }
                    let via = d_ik + paths.at(e, k, j);
                    let cur = paths.at(e, i, j);
                    e.compute(2);
                    if step == Step::Tail {
                        // The vector loop's tail is branch-free too, at no
                        // conversion cost.
                        paths.set(e, i, j, cur.min(via));
                    } else if t.others {
                        // Branch-less min (conditional move).
                        e.compute(1);
                        paths.set(e, i, j, cur.min(via));
                    } else {
                        // The reference code branches on the compare; the
                        // outcome is data dependent.
                        e.branch(via < cur);
                        if via < cur {
                            paths.set(e, i, j, via);
                        }
                    }
                });
            });
        });
        checksum(paths.raw())
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::assign_op_pattern)] // reference loops mirror the PolyBench C code
mod tests {
    use super::super::kernel_tests::*;
    use super::*;
    use crate::space::test_support::Recorder;

    fn small() -> FloydWarshall {
        FloydWarshall::new(11)
    }

    #[test]
    fn conformance() {
        assert_kernel_conformance(&small());
    }

    #[test]
    fn vectorization_reduces_loads() {
        assert_vectorization_reduces_loads(&FloydWarshall::new(16));
    }

    #[test]
    fn prefetch_emits_hints() {
        assert_prefetch_emits_hints(&FloydWarshall::new(20));
    }

    #[test]
    fn branchless_conversion_eliminates_data_dependent_branches() {
        let mut plain = Recorder::default();
        small().execute(&mut plain, Transformations::none());
        let mut opt = Recorder::default();
        small().execute(&mut opt, Transformations::only_others());
        // The n^3 min-compare branches disappear entirely.
        assert!(opt.branches.len() * 2 < plain.branches.len());
    }

    #[test]
    fn matches_naive_reference() {
        let n = 7;
        let mut p = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            for j in 0..n {
                p[i][j] = if i == j {
                    0.0
                } else {
                    seed_value(i + 163, j).abs() * 9.0 + 1.0
                };
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if p[i][k] + p[k][j] < p[i][j] {
                        p[i][j] = p[i][k] + p[k][j];
                    }
                }
            }
        }
        let expect: f64 = p.iter().flatten().map(|&v| v as f64).sum();
        let got = FloydWarshall::new(n).execute(&mut Recorder::default(), Transformations::none());
        assert!((got - expect).abs() < 1e-3, "{got} vs {expect}");
    }

    #[test]
    fn triangle_inequality_holds_after_the_run() {
        // Shortest paths satisfy d(i,j) <= d(i,k) + d(k,j) for all k.
        let n = 6;
        let mut p = vec![vec![0.0f32; n]; n];
        for i in 0..n {
            for j in 0..n {
                p[i][j] = if i == j {
                    0.0
                } else {
                    seed_value(i + 163, j).abs() * 9.0 + 1.0
                };
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    p[i][j] = p[i][j].min(p[i][k] + p[k][j]);
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    assert!(p[i][j] <= p[i][k] + p[k][j] + 1e-4);
                }
            }
        }
    }
}
