//! Miss-status holding registers.
//!
//! An MSHR file tracks outstanding line fills so that a second access to a
//! line that is already being fetched merges with the in-flight miss instead
//! of issuing a duplicate request. With the paper's in-order blocking core,
//! concurrency comes from software prefetches into the VWB and from the
//! decoupled store path; the EMSHR baseline (`sttcache::baselines`) builds
//! on this file by also *retaining* filled entries so they can serve reads.

use crate::addr::{Cycle, LineAddr};
use crate::invariants;

/// One in-flight (or retained) miss entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    line: LineAddr,
    /// Cycle at which the fill data arrives.
    ready_at: Cycle,
    /// Number of accesses merged into this entry (including the allocator).
    targets: u32,
}

/// Result of consulting the MSHR file for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line is already in flight; the access completes at `ready_at`.
    Merged {
        /// When the in-flight fill delivers the line.
        ready_at: Cycle,
    },
    /// A new entry was allocated; the caller must perform the fill and
    /// call [`MshrFile::complete`] with the fill time.
    Allocated,
    /// No entry is free; the access must wait until `retry_at` and try
    /// again (the file's earliest completion).
    Full {
        /// When the earliest in-flight entry retires.
        retry_at: Cycle,
    },
}

/// A file of miss-status holding registers.
///
/// # Example
///
/// ```
/// use sttcache_mem::{MshrFile, MshrOutcome, LineAddr};
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.probe_or_allocate(LineAddr(1), 0), MshrOutcome::Allocated);
/// mshrs.complete(LineAddr(1), 50);
/// // A second access to the same line merges with the in-flight fill.
/// assert_eq!(
///     mshrs.probe_or_allocate(LineAddr(1), 10),
///     MshrOutcome::Merged { ready_at: 50 }
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    merges: u64,
    /// High-water mark over every `ready_at` ever recorded by
    /// [`MshrFile::complete`]. Entries are reclaimed lazily, so
    /// `entries.is_empty()` is useless as an idleness test; this watermark
    /// gives an O(1) sound one (see [`MshrFile::fills_pending`]).
    max_ready_at: Cycle,
    /// Pre-resolved occupancy telemetry histogram.
    slot_occ_hist: crate::telemetry::Slot,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mshr file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merges: 0,
            max_ready_at: 0,
            slot_occ_hist: crate::telemetry::Slot::histogram("cache", "mshr_occupancy"),
        }
    }

    /// Names the component telemetry is recorded under (the owning
    /// cache's label, e.g. `"dl1"`).
    pub fn set_telemetry_component(&mut self, component: &'static str) {
        self.slot_occ_hist = crate::telemetry::Slot::histogram(component, "mshr_occupancy");
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries at cycle `now` (entries whose fill has not
    /// yet retired).
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.ready_at > now).count()
    }

    /// Consults the file for a miss on `line` at cycle `now`.
    ///
    /// Retired entries (fills that completed at or before `now`) are
    /// reclaimed lazily here.
    pub fn probe_or_allocate(&mut self, line: LineAddr, now: Cycle) -> MshrOutcome {
        self.entries.retain(|e| e.ready_at > now || e.ready_at == 0);
        if invariants::enabled() {
            self.check_reclaimed(now);
        }
        if crate::telemetry::enabled() {
            // Outstanding-miss depth right after lazy reclamation: every
            // remaining entry is live (in flight or awaiting completion).
            self.slot_occ_hist.observe(self.entries.len() as u64);
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.targets += 1;
            self.merges += 1;
            return MshrOutcome::Merged {
                ready_at: e.ready_at,
            };
        }
        if self.entries.len() >= self.capacity {
            let retry_at = self
                .entries
                .iter()
                .map(|e| e.ready_at)
                .min()
                .expect("full file is non-empty");
            return MshrOutcome::Full { retry_at };
        }
        // ready_at == 0 marks "allocated, fill time not yet known".
        self.entries.push(MshrEntry {
            line,
            ready_at: 0,
            targets: 1,
        });
        MshrOutcome::Allocated
    }

    /// Records the fill-completion time for a previously allocated entry.
    ///
    /// # Panics
    ///
    /// Panics if no allocated entry for `line` exists.
    pub fn complete(&mut self, line: LineAddr, ready_at: Cycle) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.line == line && e.ready_at == 0)
            .expect("complete() without a matching allocation");
        e.ready_at = ready_at;
        self.max_ready_at = self.max_ready_at.max(ready_at);
    }

    /// Whether any fill could still be in flight at cycle `now`.
    ///
    /// `false` guarantees [`MshrFile::ready_time`] returns `None` for
    /// *every* line at `now` (an entry is in flight only while
    /// `ready_at > now`, and `max_ready_at` bounds all of them), so the
    /// cache's hit fast path can skip the per-access entry scan. The test
    /// is conservative: it may report `true` for a while after the last
    /// fill has retired, which merely routes those accesses through the
    /// general path.
    #[inline]
    pub fn fills_pending(&self, now: Cycle) -> bool {
        self.max_ready_at > now
    }

    /// Whether `line` is currently tracked (in flight or awaiting
    /// completion).
    pub fn contains(&self, line: LineAddr, now: Cycle) -> bool {
        self.entries
            .iter()
            .any(|e| e.line == line && (e.ready_at == 0 || e.ready_at > now))
    }

    /// The fill-completion time of `line` if it is in flight at `now`
    /// (used to delay tag-array hits on lines whose data has not arrived).
    pub fn ready_time(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|e| e.line == line && e.ready_at > now)
            .map(|e| e.ready_at)
    }

    /// Total merged (secondary) accesses.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Allocations whose fill time was never recorded (`ready_at == 0`).
    ///
    /// Between [`probe_or_allocate`](Self::probe_or_allocate) and
    /// [`complete`](Self::complete) this is legitimately non-zero, but at
    /// any quiescent point — after a cache access returns, or at end of
    /// run — a non-zero value is a leaked entry: it survives lazy
    /// reclamation forever while being invisible to
    /// [`occupancy`](Self::occupancy).
    pub fn unfinished_allocations(&self) -> usize {
        self.entries.iter().filter(|e| e.ready_at == 0).count()
    }

    /// Structural check, reported through
    /// [`invariants`](crate::invariants): the file never holds more than
    /// `capacity` entries. Safe to call at any time (retired entries may
    /// legitimately linger until the next lazy reclamation, so outliving
    /// `ready_at` is only checked on the reclamation path itself).
    pub fn check_invariants(&self, now: Cycle) {
        if self.entries.len() > self.capacity {
            invariants::report(
                "mshr",
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

    /// Reclamation-path check: immediately after retiring entries at
    /// `now`, none with `0 < ready_at <= now` may remain (an entry that
    /// outlived its `ready_at` would serve stale in-flight state).
    fn check_reclaimed(&self, now: Cycle) {
        self.check_invariants(now);
        for e in &self.entries {
            if e.ready_at != 0 && e.ready_at <= now {
                invariants::report(
                    "mshr",
                    now,
                    Some(e.line.0),
                    format!("entry outlived its ready_at {}", e.ready_at),
                );
            }
        }
    }

    /// End-of-run leak check: reports a violation for every allocation
    /// that was never [`complete`](Self::complete)d. Called by the drain
    /// verifier after a run has fully retired; at that point a dangling
    /// `ready_at == 0` entry can only be a fill-path bug.
    pub fn check_drained(&self, now: Cycle) {
        for e in self.entries.iter().filter(|e| e.ready_at == 0) {
            invariants::report(
                "mshr",
                now,
                Some(e.line.0),
                format!(
                    "leaked allocation: {} (targets {}) never completed",
                    e.line, e.targets
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.probe_or_allocate(LineAddr(9), 0), MshrOutcome::Allocated);
        m.complete(LineAddr(9), 100);
        assert_eq!(
            m.probe_or_allocate(LineAddr(9), 5),
            MshrOutcome::Merged { ready_at: 100 }
        );
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn retired_entries_are_reclaimed() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.probe_or_allocate(LineAddr(1), 0), MshrOutcome::Allocated);
        m.complete(LineAddr(1), 10);
        // At cycle 20 the fill has retired; a new line can allocate.
        assert_eq!(m.probe_or_allocate(LineAddr(2), 20), MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_reports_retry_time() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.probe_or_allocate(LineAddr(1), 0), MshrOutcome::Allocated);
        m.complete(LineAddr(1), 10);
        assert_eq!(
            m.probe_or_allocate(LineAddr(2), 5),
            MshrOutcome::Full { retry_at: 10 }
        );
    }

    #[test]
    fn contains_tracks_lifetime() {
        let mut m = MshrFile::new(2);
        m.probe_or_allocate(LineAddr(3), 0);
        assert!(m.contains(LineAddr(3), 0)); // allocated, not completed
        m.complete(LineAddr(3), 8);
        assert!(m.contains(LineAddr(3), 7));
        assert!(!m.contains(LineAddr(3), 8));
    }

    #[test]
    fn occupancy_counts_live_entries() {
        let mut m = MshrFile::new(4);
        m.probe_or_allocate(LineAddr(1), 0);
        m.complete(LineAddr(1), 10);
        m.probe_or_allocate(LineAddr(2), 0);
        m.complete(LineAddr(2), 20);
        assert_eq!(m.occupancy(5), 2);
        assert_eq!(m.occupancy(15), 1);
        assert_eq!(m.occupancy(25), 0);
    }

    #[test]
    #[should_panic(expected = "matching allocation")]
    fn complete_without_allocation_panics() {
        let mut m = MshrFile::new(1);
        m.complete(LineAddr(1), 10);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn allocate_at_exactly_capacity_then_full() {
        // Filling the file to exactly `capacity` distinct lines must
        // succeed; the very next distinct line must see Full with the
        // earliest retirement as the retry time.
        let mut m = MshrFile::new(4);
        for i in 0..4u64 {
            assert_eq!(
                m.probe_or_allocate(LineAddr(i), 0),
                MshrOutcome::Allocated,
                "entry {i} of a 4-entry file must allocate"
            );
            m.complete(LineAddr(i), 100 + i);
        }
        assert_eq!(m.occupancy(0), 4);
        assert_eq!(
            m.probe_or_allocate(LineAddr(99), 0),
            MshrOutcome::Full { retry_at: 100 }
        );
        // A merge into a full file still succeeds (no allocation needed).
        assert_eq!(
            m.probe_or_allocate(LineAddr(2), 0),
            MshrOutcome::Merged { ready_at: 102 }
        );
    }

    #[test]
    fn same_line_race_counts_every_merge() {
        // N back-to-back accesses to one in-flight line: 1 allocation,
        // N-1 merges, regardless of whether complete() has run yet.
        let mut m = MshrFile::new(2);
        assert_eq!(m.probe_or_allocate(LineAddr(7), 0), MshrOutcome::Allocated);
        // Race before the fill time is known (ready_at still 0).
        assert_eq!(
            m.probe_or_allocate(LineAddr(7), 1),
            MshrOutcome::Merged { ready_at: 0 }
        );
        m.complete(LineAddr(7), 50);
        for now in 2..6 {
            assert_eq!(
                m.probe_or_allocate(LineAddr(7), now),
                MshrOutcome::Merged { ready_at: 50 }
            );
        }
        assert_eq!(m.merges(), 5);
    }

    #[test]
    #[should_panic(expected = "matching allocation")]
    fn complete_on_retired_line_panics() {
        // The contract: complete() pairs with the probe_or_allocate that
        // returned Allocated. Completing a line whose entry already has a
        // fill time (i.e. "absent" as an allocation) is a caller bug.
        let mut m = MshrFile::new(2);
        m.probe_or_allocate(LineAddr(5), 0);
        m.complete(LineAddr(5), 10);
        m.complete(LineAddr(5), 20);
    }

    #[test]
    fn leak_is_visible_to_unfinished_allocations_not_occupancy() {
        let mut m = MshrFile::new(2);
        m.probe_or_allocate(LineAddr(1), 0);
        // Never completed: invisible to occupancy at any cycle, immortal
        // under lazy reclamation, but counted as unfinished.
        assert_eq!(m.occupancy(1_000_000), 0);
        m.probe_or_allocate(LineAddr(2), 1_000_000);
        assert!(m.contains(LineAddr(1), 1_000_000));
        assert_eq!(m.unfinished_allocations(), 2);
        m.complete(LineAddr(1), 1_000_010);
        m.complete(LineAddr(2), 1_000_010);
        assert_eq!(m.unfinished_allocations(), 0);
    }

    #[test]
    fn check_drained_reports_leaked_allocation() {
        crate::invariants::take_violations();
        let mut m = MshrFile::new(2);
        m.probe_or_allocate(LineAddr(0x40), 0);
        m.check_drained(123);
        let (list, total) = crate::invariants::take_violations();
        assert_eq!(total, 1);
        assert_eq!(list[0].component, "mshr");
        assert_eq!(list[0].cycle, 123);
        assert_eq!(list[0].addr, Some(0x40));
        assert!(list[0].detail.contains("leaked"), "{}", list[0].detail);
    }
}
