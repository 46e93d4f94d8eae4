//! Shared fully associative line-buffer machinery.
//!
//! The VWB, the L0-cache baseline and the EMSHR baseline are all small
//! fully associative structures over DL1-granular lines with LRU
//! replacement, a per-entry data-ready time and a dirty bit. This module
//! factors that state out; the front-ends differ only in their fill/serve
//! policies.

use crate::SttError;
use sttcache_mem::{Cycle, LineAddr};

/// Most lines a buffer may hold: every entry is allocated up front, and
/// 1024 lines make a buffer as large as the 64 KiB DL1 it fronts.
const MAX_ENTRIES: usize = 1024;

/// Checks the configuration of `structure`, a buffer of `capacity_bits`
/// that hits in `hit_cycles`, in front of a DL1 of `line_bits` lines.
///
/// # Errors
///
/// Returns [`SttError::InvalidBuffer`] naming `structure` when the
/// capacity holds no line or more than [`MAX_ENTRIES`], or the hit
/// latency is zero.
pub(crate) fn check(
    structure: &'static str,
    capacity_bits: usize,
    hit_cycles: u64,
    line_bits: usize,
) -> Result<(), SttError> {
    let entries = capacity_bits / line_bits;
    let reason = if entries == 0 {
        format!("capacity {capacity_bits} bits holds no {line_bits}-bit line")
    } else if entries > MAX_ENTRIES {
        format!(
            "capacity {capacity_bits} bits makes {entries} entries of {line_bits} bits, \
             above the limit of {MAX_ENTRIES}"
        )
    } else if hit_cycles == 0 {
        "hit latency must be at least one cycle".into()
    } else {
        return Ok(());
    };
    Err(SttError::InvalidBuffer { structure, reason })
}

/// One entry of a fully associative line buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferEntry {
    pub line: LineAddr,
    pub dirty: bool,
    /// Cycle at which the entry's data is usable.
    pub ready_at: Cycle,
    pub last_use: Cycle,
}

/// A fully associative, LRU-replaced buffer of cache lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaBuffer {
    entries: Vec<BufferEntry>,
    capacity: usize,
}

#[allow(dead_code)] // some helpers are exercised only by unit tests
impl FaBuffer {
    /// Creates an empty buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer needs at least one entry");
        FaBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Finds `line`, returning its index without touching LRU state.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    pub fn entry(&self, idx: usize) -> &BufferEntry {
        &self.entries[idx]
    }

    /// Marks `idx` used at `now`, optionally dirtying it.
    pub fn touch(&mut self, idx: usize, now: Cycle, make_dirty: bool) {
        let e = &mut self.entries[idx];
        e.last_use = now;
        e.dirty |= make_dirty;
    }

    /// Inserts `line` (must not be present), evicting LRU if full.
    /// Returns the evicted entry, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line` is already present.
    pub fn insert(
        &mut self,
        line: LineAddr,
        ready_at: Cycle,
        now: Cycle,
        dirty: bool,
    ) -> Option<BufferEntry> {
        debug_assert!(self.find(line).is_none(), "inserting a duplicate line");
        let evicted = if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.last_use, *i))
                .map(|(i, _)| i)
                .expect("full buffer is non-empty");
            Some(self.entries.swap_remove(lru))
        } else {
            None
        };
        self.entries.push(BufferEntry {
            line,
            dirty,
            ready_at,
            last_use: now,
        });
        evicted
    }

    /// Removes `line` if present, returning its entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<BufferEntry> {
        self.find(line).map(|i| self.entries.swap_remove(i))
    }

    /// Clears the dirty bit of `line` if present.
    pub fn clean(&mut self, line: LineAddr) {
        if let Some(i) = self.find(line) {
            self.entries[i].dirty = false;
        }
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &BufferEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_touch() {
        let mut b = FaBuffer::new(2);
        assert!(b.insert(LineAddr(1), 5, 5, false).is_none());
        let i = b.find(LineAddr(1)).unwrap();
        assert_eq!(b.entry(i).ready_at, 5);
        b.touch(i, 9, true);
        assert!(b.entry(i).dirty);
        assert_eq!(b.entry(i).last_use, 9);
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = FaBuffer::new(2);
        b.insert(LineAddr(1), 0, 1, false);
        b.insert(LineAddr(2), 0, 2, false);
        b.touch(b.find(LineAddr(1)).unwrap(), 3, false);
        let evicted = b.insert(LineAddr(3), 0, 4, false).unwrap();
        assert_eq!(evicted.line, LineAddr(2));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn remove_returns_entry() {
        let mut b = FaBuffer::new(2);
        b.insert(LineAddr(7), 0, 0, true);
        let e = b.remove(LineAddr(7)).unwrap();
        assert!(e.dirty);
        assert!(b.remove(LineAddr(7)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = FaBuffer::new(0);
    }
}
