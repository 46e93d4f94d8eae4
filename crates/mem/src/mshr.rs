//! Miss-status holding registers.
//!
//! An MSHR file tracks outstanding line fills so that a second access to a
//! line that is already being fetched merges with the in-flight miss instead
//! of issuing a duplicate request. With the paper's in-order blocking core,
//! concurrency comes from software prefetches into the VWB and from the
//! decoupled store path. A miss is recorded once, when the cache knows its
//! fill time: [`MshrFile::lookup`] answers merged, free or full, and
//! [`MshrFile::insert`] records the fill the cache then performed.

use crate::addr::{Cycle, LineAddr};
use crate::invariants;

/// One in-flight miss: its line and the cycle its fill data arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    line: LineAddr,
    ready_at: Cycle,
}

/// Result of consulting the MSHR file for a missing line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line is already in flight; the access completes at `ready_at`.
    Merged {
        /// When the in-flight fill delivers the line.
        ready_at: Cycle,
    },
    /// An entry is free: the caller performs the fill and records it with
    /// [`MshrFile::insert`].
    Free,
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
/// assert_eq!(mshrs.lookup(LineAddr(1), 0), MshrOutcome::Free);
/// mshrs.insert(LineAddr(1), 50);
/// // A second access to the same line merges with the in-flight fill.
/// assert_eq!(
///     mshrs.lookup(LineAddr(1), 10),
///     MshrOutcome::Merged { ready_at: 50 }
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// High-water mark over every `ready_at` ever recorded by
    /// [`MshrFile::insert`]. Entries are reclaimed lazily, so
    /// `entries.is_empty()` is useless as an idleness test; this watermark
    /// gives an O(1) sound one (see [`MshrFile::fills_pending`]).
    max_ready_at: Cycle,
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
            max_ready_at: 0,
        }
    }

    /// Outstanding misses at `now`: the entries [`lookup`](Self::lookup)
    /// keeps after its lazy reclamation, read without reclaiming.
    pub(crate) fn outstanding(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.ready_at > now).count()
    }

    /// Consults the file for a miss on `line` at cycle `now`.
    ///
    /// Retired entries (fills that completed at or before `now`) are
    /// reclaimed lazily here.
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> MshrOutcome {
        self.entries.retain(|e| e.ready_at > now);
        if invariants::enabled() {
            self.check_reclaimed(now);
        }
        if let Some(e) = self.entries.iter().find(|e| e.line == line) {
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
        MshrOutcome::Free
    }

    /// Records a miss on `line` whose fill arrives at `ready_at`, once
    /// [`lookup`](Self::lookup) has found an entry free for it.
    pub fn insert(&mut self, line: LineAddr, ready_at: Cycle) {
        self.entries.push(MshrEntry { line, ready_at });
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

    /// The fill-completion time of `line` if it is in flight at `now`
    /// (used to delay tag-array hits on lines whose data has not arrived).
    pub fn ready_time(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|e| e.line == line && e.ready_at > now)
            .map(|e| e.ready_at)
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
    /// `now`, none with `ready_at <= now` may remain (an entry that
    /// outlived its `ready_at` would serve stale in-flight state).
    fn check_reclaimed(&self, now: Cycle) {
        self.check_invariants(now);
        for e in &self.entries {
            if e.ready_at <= now {
                invariants::report(
                    "mshr",
                    now,
                    Some(e.line.0),
                    format!("entry outlived its ready_at {}", e.ready_at),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.lookup(LineAddr(9), 0), MshrOutcome::Free);
        m.insert(LineAddr(9), 100);
        assert_eq!(
            m.lookup(LineAddr(9), 5),
            MshrOutcome::Merged { ready_at: 100 }
        );
    }

    #[test]
    fn retired_entries_are_reclaimed() {
        let mut m = MshrFile::new(1);
        m.insert(LineAddr(1), 10);
        // At cycle 20 the fill has retired; a new line finds a free entry.
        assert_eq!(m.lookup(LineAddr(2), 20), MshrOutcome::Free);
        assert_eq!(m.outstanding(20), 0);
    }

    #[test]
    fn full_file_reports_retry_time() {
        let mut m = MshrFile::new(1);
        m.insert(LineAddr(1), 10);
        assert_eq!(m.lookup(LineAddr(2), 5), MshrOutcome::Full { retry_at: 10 });
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
                m.lookup(LineAddr(i), 0),
                MshrOutcome::Free,
                "entry {i} of a 4-entry file must be free"
            );
            m.insert(LineAddr(i), 100 + i);
        }
        assert_eq!(
            m.lookup(LineAddr(99), 0),
            MshrOutcome::Full { retry_at: 100 }
        );
        // A merge into a full file still succeeds (no entry needed).
        assert_eq!(
            m.lookup(LineAddr(2), 0),
            MshrOutcome::Merged { ready_at: 102 }
        );
    }

    #[test]
    fn same_line_race_counts_every_merge() {
        // N back-to-back accesses to one in-flight line: one entry, and
        // every later lookup merges into it until its fill retires.
        let mut m = MshrFile::new(2);
        m.insert(LineAddr(7), 50);
        for now in 1..6 {
            assert_eq!(
                m.lookup(LineAddr(7), now),
                MshrOutcome::Merged { ready_at: 50 }
            );
        }
        assert_eq!(m.outstanding(5), 1);
        assert_eq!(m.lookup(LineAddr(7), 50), MshrOutcome::Free);
    }
}
