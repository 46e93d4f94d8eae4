//! Main-memory backstop.

use crate::addr::{Addr, Cycle};
use crate::cache::{AccessOutcome, ServedBy};
use crate::stats::CacheStats;
use crate::MemoryLevel;

/// A fixed-latency main memory terminating the hierarchy.
///
/// Bandwidth is modelled with a single channel: back-to-back requests
/// serialize a quarter of the access latency apart, which is sufficient
/// for the paper's single-core platform. Each request moves one 64-byte
/// line.
///
/// # Example
///
/// ```
/// use sttcache_mem::{Addr, MainMemory, MemoryLevel};
///
/// let mut mem = MainMemory::new(100);
/// let out = mem.read(Addr(0), 0);
/// assert_eq!(out.complete_at, 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MainMemory {
    latency: u64,
    channel_cycles: u64,
    channel_free_at: Cycle,
    stats: CacheStats,
}

impl MainMemory {
    /// Creates a memory with the given access latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn new(latency: u64) -> Self {
        assert!(latency > 0, "memory latency must be at least one cycle");
        MainMemory {
            latency,
            channel_cycles: (latency / 4).max(1),
            channel_free_at: 0,
            stats: CacheStats::new(),
        }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    fn access(&mut self, now: Cycle) -> AccessOutcome {
        let start = self.channel_free_at.max(now);
        self.stats.bank_conflict_cycles += start - now;
        self.channel_free_at = start + self.channel_cycles;
        AccessOutcome {
            complete_at: start + self.latency,
            served_by: ServedBy::Memory,
        }
    }
}

impl MemoryLevel for MainMemory {
    fn read(&mut self, _addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.reads += 1;
        self.stats.read_hits += 1;
        self.access(now)
    }

    fn write(&mut self, _addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.writes += 1;
        self.stats.write_hits += 1;
        self.access(now)
    }

    fn line_bytes(&self) -> usize {
        64
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn contains(&self, _addr: Addr) -> bool {
        // The backstop holds everything by definition.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_reads_and_writes() {
        let mut mem = MainMemory::new(100);
        assert_eq!(mem.read(Addr(0), 0).complete_at, 100);
        assert_eq!(mem.write(Addr(64), 200).complete_at, 300);
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn channel_serializes_back_to_back_requests() {
        // The channel is held a quarter of the latency per request.
        let mut mem = MainMemory::new(100);
        assert_eq!(mem.read(Addr(0), 0).complete_at, 100);
        // Second request issued at the same cycle waits for the channel.
        assert_eq!(mem.read(Addr(64), 0).complete_at, 125);
        assert_eq!(mem.stats().bank_conflict_cycles, 25);
    }

    #[test]
    fn memory_never_misses() {
        let mut mem = MainMemory::new(10);
        mem.read(Addr(0), 0);
        mem.write(Addr(0), 0);
        assert_eq!(mem.stats().misses(), 0);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_panics() {
        let _ = MainMemory::new(0);
    }

    #[test]
    fn served_by_is_memory() {
        let mut mem = MainMemory::new(10);
        assert_eq!(mem.read(Addr(0), 0).served_by, ServedBy::Memory);
    }
}
