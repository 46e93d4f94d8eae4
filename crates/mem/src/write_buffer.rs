//! The write buffers: a cache's eviction write buffer and the core's
//! store buffer.
//!
//! The paper: "A small write buffer is present … to hold the evicted data
//! temporarily, while being transferred to the L2, when the data block in
//! question has to be renewed." The buffer decouples dirty evictions from
//! the miss critical path, as the core's store buffer (`sttcache-cpu`)
//! decouples retired stores from the STT-MRAM write latency; only when it
//! is full does a new write stall its requester until the oldest entry
//! drains.

use crate::addr::Cycle;
use crate::invariants;
use std::collections::VecDeque;

/// A FIFO of writes in flight, each held until its completion cycle.
///
/// Entries leave in the order they entered: one whose completion has
/// passed still waits behind an older one that has not.
///
/// # Example
///
/// ```
/// use sttcache_mem::WriteBuffer;
///
/// let mut wb = WriteBuffer::new("write-buffer", 2);
/// // Two writes are absorbed without stalling...
/// for _ in 0..2 {
///     assert_eq!(wb.admit(0), 0);
///     wb.push(100);
/// }
/// // ...the third waits for the oldest entry to drain at cycle 100.
/// assert_eq!(wb.admit(0), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBuffer {
    /// Completion cycles of the resident writes, oldest first.
    completions: VecDeque<Cycle>,
    capacity: usize,
    /// The component its invariant reports name.
    component: &'static str,
}

impl WriteBuffer {
    /// Creates a buffer with `capacity` entries whose invariant reports
    /// name `component`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(component: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "{component} needs at least one entry");
        WriteBuffer {
            completions: VecDeque::with_capacity(capacity),
            capacity,
            component,
        }
    }

    /// Entries resident now, drained ones included until the next
    /// [`drain`](Self::drain) reclaims them.
    pub(crate) fn depth(&self) -> usize {
        self.completions.len()
    }

    /// Retires the writes completed by `now` and returns how many remain.
    #[inline]
    pub fn drain(&mut self, now: Cycle) -> usize {
        while self.completions.front().is_some_and(|&done| done <= now) {
            self.completions.pop_front();
        }
        self.completions.len()
    }

    /// Drains to `now` and returns the cycle at which a write arriving
    /// then may enter: `now` if a slot is free, otherwise the oldest
    /// completion, to which the buffer drains (a full-buffer stall).
    /// Record the write with [`push`](Self::push) afterwards.
    #[inline]
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        self.drain(now);
        if invariants::enabled() {
            self.check_reclaimed(now);
        }
        if self.completions.len() < self.capacity {
            return now;
        }
        let oldest = *self.completions.front().expect("full buffer is non-empty");
        self.drain(oldest);
        oldest
    }

    /// Enqueues the write admitted last, which completes at `done`.
    #[inline]
    pub fn push(&mut self, done: Cycle) {
        self.completions.push_back(done);
        if invariants::enabled() {
            self.check_invariants(done);
        }
    }

    /// The cycle by which every buffered write has completed (`now` if the
    /// buffer is already empty), emptying the buffer. Used to close out a
    /// simulation.
    pub fn drain_all(&mut self, now: Cycle) -> Cycle {
        let end = self
            .completions
            .iter()
            .fold(now, |end, &done| end.max(done));
        self.completions.clear();
        end
    }

    /// Structural checks, reported through
    /// [`invariants`](crate::invariants): occupancy never exceeds
    /// capacity, which more entries than [`admit`](Self::admit)s would
    /// break. Sound at any cycle. Entries *leave* in push order by
    /// construction; their recorded completion times need not be
    /// monotone, because each models a next-level write charged at push
    /// time (a later victim can finish its L2 write earlier when it
    /// lands on an idle bank) — and under lazy reclamation a drained
    /// entry legitimately lingers until the next drain, so neither is
    /// checkable here.
    pub fn check_invariants(&self, now: Cycle) {
        if self.completions.len() > self.capacity {
            invariants::report(
                self.component,
                now,
                None,
                format!(
                    "{} entries exceed capacity {}",
                    self.completions.len(),
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
        if let Some(&done) = self.completions.front() {
            if done <= now {
                invariants::report(
                    self.component,
                    now,
                    None,
                    format!("an entry drained at {done} but was not reclaimed"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_until_full() {
        let mut wb = WriteBuffer::new("write-buffer", 3);
        for _ in 0..3 {
            assert_eq!(wb.admit(0), 0);
            wb.push(50);
        }
        assert_eq!(wb.admit(0), 50);
    }

    #[test]
    fn drained_entries_free_space() {
        let mut wb = WriteBuffer::new("write-buffer", 1);
        assert_eq!(wb.admit(0), 0);
        wb.push(10);
        // At cycle 20 the entry has drained; no stall.
        assert_eq!(wb.admit(20), 20);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = WriteBuffer::new("write-buffer", 0);
    }
}
