//! The core-side store buffer.
//!
//! Stores retire into this buffer and drain to the data port in program
//! order; the core stalls only when the buffer is full. This decouples the
//! STT-MRAM write latency from the critical path (the reason the paper's
//! Fig. 4 shows writes contributing far less penalty than reads) while
//! still exposing it under store bursts.

use sttcache_mem::telemetry::Histogram;
use sttcache_mem::{Cycle, WriteBuffer};

/// The in-flight stores, tracked by their port-completion cycles, with the
/// cycles the core stalled on a full buffer.
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
    stores: WriteBuffer,
    full_stall_cycles: u64,
    /// Depth seen by each admitted store, `None` unless
    /// [`StoreBuffer::arm_probe`] armed it.
    depth_probe: Option<Box<Histogram>>,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        StoreBuffer {
            stores: WriteBuffer::new("store-buffer", capacity),
            full_stall_cycles: 0,
            depth_probe: None,
        }
    }

    /// Arms a fresh depth histogram: from here on every admitted store
    /// observes the buffer's depth.
    pub fn arm_probe(&mut self) {
        self.depth_probe = Some(Box::default());
    }

    /// Disarms the depth histogram and returns what it recorded (empty if
    /// it was never armed).
    pub fn take_probe(&mut self) -> Histogram {
        self.depth_probe
            .take()
            .map_or_else(Histogram::default, |h| *h)
    }

    /// Admits a store at cycle `now`; returns the cycle at which the core
    /// may issue it to the port (`now` unless the buffer is full). Call
    /// [`StoreBuffer::record_completion`] with the port completion time
    /// afterwards.
    #[inline]
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        if let Some(h) = self.depth_probe.as_deref_mut() {
            // The depth this store finds once completed stores have left,
            // before any wait for a full buffer.
            h.observe(self.stores.drain(now) as u64);
        }
        let issue_at = self.stores.admit(now);
        self.full_stall_cycles += issue_at - now;
        issue_at
    }

    /// Records the port-completion cycle of the store admitted last.
    #[inline]
    pub fn record_completion(&mut self, complete_at: Cycle) {
        self.stores.push(complete_at);
    }

    /// The cycle by which every buffered store has completed (`now` if the
    /// buffer is already empty). Used to close out a simulation.
    pub fn drain_all(&mut self, now: Cycle) -> Cycle {
        self.stores.drain_all(now)
    }

    /// Cycles the core stalled on a full buffer.
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stall_cycles
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
    }

    #[test]
    fn drain_all_on_empty_returns_now() {
        let mut sb = StoreBuffer::new(2);
        assert_eq!(sb.drain_all(33), 33);
    }

    #[test]
    fn an_armed_probe_sees_the_depth_each_store_found() {
        let mut sb = StoreBuffer::new(2);
        sb.arm_probe();
        for now in 0..3 {
            sb.admit(now);
            sb.record_completion(50);
        }
        let depth = sb.take_probe();
        assert_eq!((depth.total, depth.sum, depth.max), (3, 3, 2));
        assert_eq!(sb.take_probe(), Histogram::default());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }
}
