//! Eviction write buffer.
//!
//! The paper: "A small write buffer is present … to hold the evicted data
//! temporarily, while being transferred to the L2, when the data block in
//! question has to be renewed." The buffer decouples dirty evictions from
//! the miss critical path; only when it is full does an eviction stall the
//! requester until the oldest entry drains.

use crate::addr::{Cycle, LineAddr};
use std::collections::VecDeque;

/// A FIFO of dirty lines draining to the next level.
///
/// # Example
///
/// ```
/// use sttcache_mem::{WriteBuffer, LineAddr};
///
/// let mut wb = WriteBuffer::new(2);
/// // Two evictions are absorbed without stalling...
/// assert_eq!(wb.push(LineAddr(1), 0, 100), 0);
/// assert_eq!(wb.push(LineAddr(2), 0, 100), 0);
/// // ...the third waits for the oldest entry to drain at cycle 100.
/// assert_eq!(wb.push(LineAddr(3), 0, 100), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBuffer {
    /// Pending entries and their drain-completion cycles.
    entries: VecDeque<(LineAddr, Cycle)>,
    capacity: usize,
    full_stall_cycles: u64,
    /// Pre-resolved depth telemetry histogram.
    slot_depth_hist: crate::telemetry::Slot,
}

impl WriteBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        WriteBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            full_stall_cycles: 0,
            slot_depth_hist: crate::telemetry::Slot::histogram("cache", "write_buffer_depth"),
        }
    }

    /// Names the component telemetry is recorded under (the owning
    /// cache's label, e.g. `"dl1"`).
    pub fn set_telemetry_component(&mut self, component: &'static str) {
        self.slot_depth_hist = crate::telemetry::Slot::histogram(component, "write_buffer_depth");
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a dirty line at cycle `now`; the entry drains
    /// `drain_cycles` later. Returns the cycle at which the *requester* may
    /// proceed: `now` if space was free, otherwise the drain time of the
    /// oldest entry (a full-buffer stall).
    pub fn push(&mut self, line: LineAddr, now: Cycle, drain_cycles: u64) -> Cycle {
        self.drain(now);
        if crate::invariants::enabled() {
            self.check_reclaimed(now);
        }
        let proceed_at = if self.entries.len() >= self.capacity {
            let oldest = self.entries.front().expect("full buffer is non-empty").1;
            self.full_stall_cycles += oldest.saturating_sub(now);
            self.drain(oldest);
            oldest
        } else {
            now
        };
        self.entries.push_back((line, proceed_at + drain_cycles));
        if crate::invariants::enabled() {
            self.check_invariants(now);
        }
        if crate::telemetry::enabled() {
            // Depth after the push; `entries.len()` directly — calling
            // `occupancy(now)` here would drain early and change
            // `contains()` behaviour under telemetry.
            self.slot_depth_hist.observe(self.entries.len() as u64);
        }
        proceed_at
    }

    /// Structural checks, reported through
    /// [`invariants`](crate::invariants): occupancy never exceeds
    /// capacity. Sound at any cycle. Entries *leave* in push order by
    /// construction; their recorded completion times need not be
    /// monotone, because each models a next-level write charged at push
    /// time (a later victim can finish its L2 write earlier when it
    /// lands on an idle bank) — and under lazy reclamation a drained
    /// entry legitimately lingers until the next push or occupancy
    /// probe, so neither is checkable here.
    pub fn check_invariants(&self, now: Cycle) {
        if self.entries.len() > self.capacity {
            crate::invariants::report(
                "write-buffer",
                now,
                None,
                format!(
                    "{} entries exceed capacity {}",
                    self.entries.len(),
                    self.capacity
                ),
            );
        }
    }

    /// The stronger check that is only sound immediately after
    /// [`drain`](Self::drain) ran: no resident entry's completion may
    /// then lie in the past.
    fn check_reclaimed(&self, now: Cycle) {
        self.check_invariants(now);
        if let Some((line, done)) = self.entries.front() {
            if *done <= now {
                crate::invariants::report(
                    "write-buffer",
                    now,
                    Some(line.0),
                    format!("{line} drained at {done} but was not reclaimed"),
                );
            }
        }
    }

    /// Whether the buffer currently holds `line` (a read may be serviced
    /// from the buffer before the line reaches the next level).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    /// Current occupancy at cycle `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.entries.len()
    }

    /// Total cycles requesters stalled on a full buffer.
    pub fn full_stall_cycles(&self) -> u64 {
        self.full_stall_cycles
    }

    fn drain(&mut self, now: Cycle) {
        while let Some(&(_, done)) = self.entries.front() {
            if done <= now {
                self.entries.pop_front();
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
    fn absorbs_until_full() {
        let mut wb = WriteBuffer::new(3);
        for i in 0..3 {
            assert_eq!(wb.push(LineAddr(i), 0, 50), 0);
        }
        assert_eq!(wb.push(LineAddr(9), 0, 50), 50);
        assert_eq!(wb.full_stall_cycles(), 50);
    }

    #[test]
    fn drained_entries_free_space() {
        let mut wb = WriteBuffer::new(1);
        assert_eq!(wb.push(LineAddr(1), 0, 10), 0);
        // At cycle 20 the entry has drained; no stall.
        assert_eq!(wb.push(LineAddr(2), 20, 10), 20);
        assert_eq!(wb.full_stall_cycles(), 0);
    }

    #[test]
    fn contains_pending_lines() {
        let mut wb = WriteBuffer::new(2);
        wb.push(LineAddr(7), 0, 100);
        assert!(wb.contains(LineAddr(7)));
        assert!(!wb.contains(LineAddr(8)));
        assert_eq!(wb.occupancy(200), 0);
        assert!(!wb.contains(LineAddr(7)));
    }

    #[test]
    fn occupancy_reflects_drains() {
        let mut wb = WriteBuffer::new(4);
        wb.push(LineAddr(1), 0, 10);
        wb.push(LineAddr(2), 0, 10);
        assert_eq!(wb.occupancy(5), 2);
        assert_eq!(wb.occupancy(11), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = WriteBuffer::new(0);
    }
}
