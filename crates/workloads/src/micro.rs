//! Diagnostic micro-workload.
//!
//! A parameterized strided walk isolates one mechanism the PolyBench
//! kernels mix together: how locality decays as the stride grows past
//! one line (the VWB's worst case). The ablation bench sweeps its stride
//! to characterize the VWB's hit rate and the drop-in penalty as
//! functions of locality.

use crate::kernels::{checksum, for_n, Kernel};
use crate::space::DataSpace;
use crate::transform::Transformations;
use sttcache_cpu::Engine;

/// Strided read walk: every access `stride` elements apart (modulo the
/// array), `steps` accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideWalk {
    n: usize,
    stride: usize,
    steps: usize,
}

impl StrideWalk {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(n: usize, stride: usize, steps: usize) -> Self {
        assert!(
            n > 0 && stride > 0 && steps > 0,
            "stride walk parameters must be non-zero"
        );
        StrideWalk { n, stride, steps }
    }

    /// The stride in elements.
    pub fn stride(&self) -> usize {
        self.stride
    }
}

impl Kernel for StrideWalk {
    fn name(&self) -> &'static str {
        "micro-stride"
    }

    fn execute(&self, e: &mut dyn Engine, t: Transformations) -> f64 {
        let mut space = DataSpace::new(t.others);
        let mut a = space.array1(self.n);
        a.fill(|i| i as f32);
        let mut acc = 0.0f32;
        let mut idx = 0usize;
        let mut sink = space.array1(1);
        for_n(e, t.unroll_factor(), self.steps, |e, _| {
            if t.prefetch {
                let ahead = (idx + 2 * self.stride) % self.n;
                e.prefetch(a.addr(ahead));
            }
            acc += a.at(e, idx);
            e.compute(2);
            idx = (idx + self.stride) % self.n;
        });
        sink.set(e, 0, acc);
        checksum(sink.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::test_support::Recorder;

    #[test]
    fn stride_walk_visits_with_the_configured_stride() {
        let mut rec = Recorder::default();
        let w = StrideWalk::new(64, 16, 4);
        w.run(&mut rec, Transformations::none());
        assert_eq!(w.stride(), 16);
        let addrs: Vec<u64> = rec.loads.iter().map(|(a, _)| a.0).collect();
        assert_eq!(addrs[1] - addrs[0], 64); // 16 f32 elements
    }

    #[test]
    fn checksums_are_finite() {
        let mut rec = Recorder::default();
        let w = StrideWalk::new(128, 8, 64);
        assert!(w.execute(&mut rec, Transformations::none()).is_finite());
    }
}
