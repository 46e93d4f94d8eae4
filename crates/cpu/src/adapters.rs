//! Engine adapters.
//!
//! A utility [`Engine`] implementation: a [`CountingEngine`] that only
//! tallies events, for instruction-mix characterization without
//! simulating.

use crate::Engine;
use sttcache_mem::Addr;

/// Tallies the architectural event mix without any timing.
///
/// # Example
///
/// ```
/// use sttcache_cpu::{CountingEngine, Engine};
/// use sttcache_mem::Addr;
///
/// let mut count = CountingEngine::new();
/// count.load(Addr(0), 4);
/// count.compute(7);
/// count.branch(true);
/// assert_eq!(count.loads, 1);
/// assert_eq!(count.compute_ops, 7);
/// assert_eq!(count.instructions(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountingEngine {
    /// Load events.
    pub loads: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Store events.
    pub stores: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// Prefetch hints.
    pub prefetches: u64,
    /// Single-cycle compute operations.
    pub compute_ops: u64,
    /// Branches.
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
}

impl CountingEngine {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions (one per event, `compute_ops` for computes).
    pub fn instructions(&self) -> u64 {
        self.loads + self.stores + self.prefetches + self.compute_ops + self.branches
    }

    /// Fraction of instructions that are memory accesses.
    pub fn memory_fraction(&self) -> f64 {
        let i = self.instructions();
        if i == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / i as f64
        }
    }
}

impl Engine for CountingEngine {
    fn load(&mut self, _addr: Addr, bytes: usize) {
        self.loads += 1;
        self.load_bytes += bytes as u64;
    }

    fn store(&mut self, _addr: Addr, bytes: usize) {
        self.stores += 1;
        self.store_bytes += bytes as u64;
    }

    fn prefetch(&mut self, _addr: Addr) {
        self.prefetches += 1;
    }

    fn compute(&mut self, ops: u64) {
        self.compute_ops += ops;
    }

    fn branch(&mut self, taken: bool) {
        self.branches += 1;
        self.taken_branches += u64::from(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_engine_tallies_everything() {
        let mut c = CountingEngine::new();
        c.load(Addr(0), 4);
        c.load(Addr(8), 16);
        c.store(Addr(0), 4);
        c.prefetch(Addr(64));
        c.compute(10);
        c.branch(true);
        c.branch(false);
        assert_eq!(c.loads, 2);
        assert_eq!(c.load_bytes, 20);
        assert_eq!(c.stores, 1);
        assert_eq!(c.prefetches, 1);
        assert_eq!(c.compute_ops, 10);
        assert_eq!(c.branches, 2);
        assert_eq!(c.taken_branches, 1);
        assert_eq!(c.instructions(), 16);
        assert!((c.memory_fraction() - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_has_zero_memory_fraction() {
        assert_eq!(CountingEngine::new().memory_fraction(), 0.0);
    }
}
