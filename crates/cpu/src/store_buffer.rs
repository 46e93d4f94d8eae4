//! The core-side store buffer.
//!
//! Stores retire into this buffer and drain to the data port in program
//! order; the core stalls only when the buffer is full. This decouples the
//! STT-MRAM write latency from the critical path (the reason the paper's
//! Fig. 4 shows writes contributing far less penalty than reads) while
//! still exposing it under store bursts.

use std::collections::VecDeque;
use sttcache_mem::Cycle;

/// A FIFO of in-flight stores, tracked by their port-completion cycles.
///
/// # Example
///
/// ```
/// use sttcache_cpu::StoreBuffer;
///
/// let mut sb = StoreBuffer::new(2);
/// assert_eq!(sb.admit(0), 0);   // space free: no stall
/// sb.record_completion(50);
/// assert_eq!(sb.admit(1), 1);
/// sb.record_completion(60);
/// // Buffer full: the third store waits for the oldest to complete.
/// assert_eq!(sb.admit(2), 50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreBuffer {
    completions: VecDeque<Cycle>,
    capacity: usize,
    full_stall_cycles: u64,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer needs at least one entry");
        StoreBuffer {
            completions: VecDeque::with_capacity(capacity),
            capacity,
            full_stall_cycles: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a store at cycle `now`; returns the cycle at which the core
    /// may issue it to the port (`now` unless the buffer is full). Call
    /// [`StoreBuffer::record_completion`] with the port completion time
    /// afterwards.
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        self.drain(now);
        if sttcache_mem::telemetry::enabled() {
            use std::sync::OnceLock;
            use sttcache_mem::telemetry::Slot;
            static DEPTH_HIST: OnceLock<Slot> = OnceLock::new();
            // Depth after the drain, before this store's completion is
            // recorded (read-only observation).
            DEPTH_HIST
                .get_or_init(|| Slot::histogram("store-buffer", "depth"))
                .observe(self.completions.len() as u64);
        }
        if self.completions.len() >= self.capacity {
            let oldest = *self.completions.front().expect("full buffer is non-empty");
            let stall = oldest.saturating_sub(now);
            self.full_stall_cycles += stall;
            self.drain(oldest);
            oldest.max(now)
        } else {
            now
        }
    }

    /// Records the port-completion cycle of the store admitted last.
    pub fn record_completion(&mut self, complete_at: Cycle) {
        self.completions.push_back(complete_at);
        if sttcache_mem::invariants::enabled() && self.completions.len() > self.capacity {
            // Entries drain in admission (FIFO) order, so more live
            // completions than entries means an admit/record pairing was
            // broken somewhere upstream.
            sttcache_mem::invariants::report(
                "store-buffer",
                complete_at,
                None,
                format!(
                    "{} in-flight stores exceed capacity {}",
                    self.completions.len(),
                    self.capacity
                ),
            );
        }
    }

    /// The cycle by which every buffered store has completed (`now` if the
    /// buffer is already empty). Used to close out a simulation.
    pub fn drain_all(&mut self, now: Cycle) -> Cycle {
        let end = self
            .completions
            .iter()
            .copied()
            .max()
            .unwrap_or(now)
            .max(now);
        self.completions.clear();
        end
    }

    /// Occupancy at cycle `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.completions.len()
    }

    /// Cycles the core stalled on a full buffer.
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stall_cycles
    }

    fn drain(&mut self, now: Cycle) {
        while let Some(&done) = self.completions.front() {
            if done <= now {
                self.completions.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_without_stall_until_full() {
        let mut sb = StoreBuffer::new(4);
        for i in 0..4 {
            assert_eq!(sb.admit(i), i);
            sb.record_completion(100 + i);
        }
        assert_eq!(sb.admit(10), 100);
        assert_eq!(sb.full_stall_cycles(), 90);
    }

    #[test]
    fn completed_stores_free_entries() {
        let mut sb = StoreBuffer::new(1);
        assert_eq!(sb.admit(0), 0);
        sb.record_completion(5);
        // At cycle 10 the store has drained.
        assert_eq!(sb.admit(10), 10);
        assert_eq!(sb.full_stall_cycles(), 0);
    }

    #[test]
    fn drain_all_returns_last_completion() {
        let mut sb = StoreBuffer::new(4);
        sb.admit(0);
        sb.record_completion(42);
        sb.admit(1);
        sb.record_completion(17);
        assert_eq!(sb.drain_all(5), 42);
        assert_eq!(sb.occupancy(5), 0);
    }

    #[test]
    fn drain_all_on_empty_returns_now() {
        let mut sb = StoreBuffer::new(2);
        assert_eq!(sb.drain_all(33), 33);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }
}
