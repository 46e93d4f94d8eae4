//! End-of-run report.

/// Cycle and event totals for one simulated run.
///
/// Produced by [`crate::Core::report`]. The stall decomposition feeds the
/// paper's Fig. 4 (read vs write penalty contributions) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreReport {
    /// Total simulated cycles (including the final store-buffer drain).
    pub cycles: u64,
    /// Instructions issued (computes + loads + stores + prefetches +
    /// branches).
    pub instructions: u64,
    /// Load instructions.
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// Software prefetch instructions.
    pub prefetches: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles stalled waiting for load data.
    pub read_stall_cycles: u64,
    /// Cycles stalled on a full store buffer.
    pub write_stall_cycles: u64,
    /// Cycles stalled refilling the pipeline after mispredicts.
    pub branch_stall_cycles: u64,
    /// Cycles stalled on instruction fetch (0 with the default ideal
    /// I-cache; non-zero when a [`crate::FetchUnit`] is attached).
    pub fetch_stall_cycles: u64,
}

impl CoreReport {
    /// Instructions per cycle (0 for an idle core).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = CoreReport {
            cycles: 200,
            instructions: 100,
            ..Default::default()
        };
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_core_is_zero() {
        let r = CoreReport::default();
        assert_eq!(r.ipc(), 0.0);
    }
}
