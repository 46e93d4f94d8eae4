//! The one line buffer behind the VWB, the L0 and the EMSHR.
//!
//! All three are small fully associative structures over DL1-granular
//! lines with LRU replacement, a per-entry data-ready time and a dirty
//! bit, and they hit the same way. They differ only in what a miss does,
//! and [`LineBuffer`] spells that out as one `match` on its [`StageSpec`]
//! in each of the read-miss, write-miss and prefetch paths:
//!
//! | kind | read miss | write miss | prefetch |
//! |---|---|---|---|
//! | VWB | promote: fetch, bank held `promotion_cycles` | write through, no allocation | promote unless present |
//! | L0 | fill: fetch, usable `fill_cycles` later | fill dirty, then write | probe then fetch below |
//! | EMSHR | read below, capture a DL1 miss | write below, capture a DL1 miss | probe then fetch below |

use crate::stage::{probe_then_fetch, BufferStats, StageSpec};
use crate::SttError;
use sttcache_mem::telemetry::{self, Slot};
use sttcache_mem::{invariants, AccessOutcome, Addr, Cycle, LineAddr, MemoryLevel, ServedBy};

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

/// One entry of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    line: LineAddr,
    dirty: bool,
    /// Cycle at which the entry's data is usable.
    ready_at: Cycle,
    last_use: Cycle,
}

/// A fully associative, LRU-replaced buffer of DL1 lines whose miss
/// policy is its [`StageSpec`]. Its accesses are generic over the level
/// below, which a [`FrontEnd`](crate::FrontEnd) makes the buffers after
/// it and then the DL1.
#[derive(Debug, Clone)]
pub(crate) struct LineBuffer {
    spec: StageSpec,
    entries: Vec<Entry>,
    pub(crate) capacity: usize,
    stats: BufferStats,
    /// Hit latency: the VWB's includes its modelled search cost.
    hit_cycles: u64,
    /// The DL1 line size, fixed at construction.
    line_bytes: usize,
    /// The `(kind, "depth")` occupancy histogram.
    depth: Slot,
    /// Length of the current run of consecutive stores the buffer
    /// absorbed. Only maintained while the telemetry gate is armed: a VWB
    /// write miss closes the run into the coalescing-run histogram, its
    /// only reader.
    coalesce_run: u64,
}

impl LineBuffer {
    /// Builds the empty buffer `spec` describes in front of a DL1 of
    /// `line_bits` lines.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] if `spec` fails
    /// [`StageSpec::validate`].
    pub(crate) fn new(spec: StageSpec, line_bits: usize) -> Result<Self, SttError> {
        spec.validate(line_bits)?;
        let capacity = spec.capacity_bits() / line_bits;
        let hit_cycles = match spec {
            StageSpec::Vwb(cfg) => cfg.effective_hit_cycles(line_bits),
            StageSpec::L0(cfg) => cfg.hit_cycles,
            StageSpec::Emshr(cfg) => cfg.hit_cycles,
        };
        Ok(LineBuffer {
            spec,
            entries: Vec::with_capacity(capacity),
            capacity,
            stats: BufferStats::default(),
            hit_cycles,
            line_bytes: line_bits / 8,
            depth: Slot::histogram(spec.kind(), "depth"),
            coalesce_run: 0,
        })
    }

    /// The buffer's kind label.
    pub(crate) fn kind(&self) -> &'static str {
        self.spec.kind()
    }

    /// The buffer's counters.
    pub(crate) fn stats(&self) -> BufferStats {
        self.stats
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// Whether the buffer holds the line containing `addr`.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        self.find(addr.line(self.line_bytes)).is_some()
    }

    /// Serves a load at `now`, reading through `below` on a miss.
    pub(crate) fn read<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        addr: Addr,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.reads += 1;
        if let Some(idx) = self.find(addr.line(self.line_bytes)) {
            self.stats.read_hits += 1;
            return self.hit(idx, now, false);
        }
        let out = below.read(addr, now);
        match self.spec {
            StageSpec::Vwb(cfg) => self.fill(below, addr, out, cfg.promotion_cycles, 0, false),
            StageSpec::L0(cfg) => {
                self.fill(below, addr, out, cfg.fill_cycles, cfg.fill_cycles, false)
            }
            StageSpec::Emshr(_) => self.capture(below, addr, out),
        }
        out
    }

    /// Serves a store at `now`, writing through `below` on a miss.
    pub(crate) fn write<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        addr: Addr,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.writes += 1;
        if let Some(idx) = self.find(addr.line(self.line_bytes)) {
            self.stats.write_hits += 1;
            if telemetry::enabled() {
                self.coalesce_run += 1;
            }
            return self.hit(idx, now, true);
        }
        match self.spec {
            StageSpec::Vwb(_) => {
                // "Otherwise, it's directly updated via the processor":
                // write-allocate in the DL1, no VWB allocation. The miss
                // ends the current run of buffer-absorbed stores.
                if telemetry::enabled() && self.coalesce_run > 0 {
                    use std::sync::OnceLock;
                    static RUN_HIST: OnceLock<Slot> = OnceLock::new();
                    RUN_HIST
                        .get_or_init(|| Slot::histogram("vwb", "coalesce_run"))
                        .observe(self.coalesce_run);
                    self.coalesce_run = 0;
                }
                below.write(addr, now)
            }
            StageSpec::L0(cfg) => {
                // Write-allocate into the L0: fetch the line, then write it.
                let out = below.read(addr, now);
                self.fill(below, addr, out, cfg.fill_cycles, cfg.fill_cycles, true);
                AccessOutcome {
                    complete_at: out.complete_at + self.hit_cycles,
                    served_by: out.served_by,
                }
            }
            StageSpec::Emshr(_) => {
                // The DL1 already holds the written data, so a captured
                // write miss is clean.
                let out = below.write(addr, now);
                self.capture(below, addr, out);
                out
            }
        }
    }

    /// Handles a software prefetch hint (non-blocking).
    pub(crate) fn prefetch<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        addr: Addr,
        now: Cycle,
    ) {
        match self.spec {
            StageSpec::Vwb(cfg) => {
                if self.contains(addr) {
                    self.stats.prefetch_drops += 1;
                } else {
                    self.stats.prefetch_fills += 1;
                    let out = below.read(addr, now);
                    self.fill(below, addr, out, cfg.promotion_cycles, 0, false);
                }
            }
            StageSpec::L0(_) | StageSpec::Emshr(_) => probe_then_fetch(below, addr, now),
        }
    }

    /// A hit on entry `idx` at `now`: register speed once the data has
    /// landed. A store dirties the entry.
    fn hit(&mut self, idx: usize, now: Cycle, write: bool) -> AccessOutcome {
        let e = &mut self.entries[idx];
        let ready = e.ready_at.max(now);
        e.last_use = ready;
        e.dirty |= write;
        AccessOutcome {
            complete_at: ready + self.hit_cycles,
            served_by: ServedBy::ThisLevel,
        }
    }

    /// Installs the line containing `addr`, which `below` delivered as
    /// `out`: the requester has the critical word, the bank stays busy
    /// `occupy` cycles past it, and the entry becomes usable `settle`
    /// cycles after it.
    fn fill<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        addr: Addr,
        out: AccessOutcome,
        occupy: u64,
        settle: u64,
        dirty: bool,
    ) {
        below.occupy_bank(addr, out.complete_at, occupy);
        let line = addr.line(self.line_bytes);
        let ready_at = out.complete_at + settle;
        self.install(below, line, ready_at, dirty, out.complete_at);
    }

    /// The EMSHR's capture rule: a line `below` did not serve itself was a
    /// DL1 miss whose fill the MSHR held, so the buffer retains it clean.
    fn capture<M: MemoryLevel + ?Sized>(&mut self, below: &mut M, addr: Addr, out: AccessOutcome) {
        if out.served_by != ServedBy::ThisLevel {
            let line = addr.line(self.line_bytes);
            self.install(below, line, out.complete_at, false, out.complete_at);
        }
    }

    /// Inserts `line` (not present), usable at `ready_at`. A full buffer
    /// evicts its LRU entry; a dirty victim is written back to `below` at
    /// `writeback_at`, in the background: it contends for banks but does
    /// not block the requester.
    fn install<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        line: LineAddr,
        ready_at: Cycle,
        dirty: bool,
        writeback_at: Cycle,
    ) {
        debug_assert!(self.find(line).is_none(), "inserting a duplicate line");
        self.stats.fills += 1;
        if self.entries.len() >= self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| (self.entries[i].last_use, i))
                .expect("a full buffer is non-empty");
            let victim = self.entries.swap_remove(lru);
            if victim.dirty {
                self.stats.dirty_evictions += 1;
                let _ = below.write(victim.line.base(self.line_bytes), writeback_at);
            }
        }
        self.entries.push(Entry {
            line,
            dirty,
            ready_at,
            last_use: ready_at,
        });
        if invariants::enabled() {
            self.check_invariants(ready_at);
        }
        if telemetry::enabled() {
            self.depth.observe(self.entries.len() as u64);
        }
    }

    /// Writes every dirty entry back into `below`. Entries stay resident
    /// and become clean. Returns the number of lines written and the
    /// completion cycle.
    pub(crate) fn flush_dirty<M: MemoryLevel + ?Sized>(
        &mut self,
        below: &mut M,
        now: Cycle,
    ) -> (usize, Cycle) {
        let mut done = now;
        let mut flushed = 0;
        for e in self.entries.iter_mut().filter(|e| e.dirty) {
            done = below.write(e.line.base(self.line_bytes), done).complete_at;
            e.dirty = false;
            flushed += 1;
        }
        if invariants::enabled() {
            self.check_invariants(done);
            if done < now {
                invariants::report(
                    self.kind(),
                    now,
                    None,
                    format!("flush_dirty completed in the past (at {done})"),
                );
            }
            if let Some(stale) = self.entries.iter().find(|e| e.dirty) {
                invariants::report(
                    self.kind(),
                    done,
                    Some(stale.line.0),
                    "stale dirty entry after flush_dirty".into(),
                );
            }
        }
        (flushed, done)
    }

    /// Number of dirty entries currently held (drain verification).
    pub(crate) fn dirty_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.dirty).count()
    }

    /// Base addresses of every resident line.
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = Addr> + '_ {
        self.entries.iter().map(|e| e.line.base(self.line_bytes))
    }

    /// Structural checks, reported through [`sttcache_mem::invariants`].
    pub(crate) fn check_invariants(&self, now: Cycle) {
        if self.entries.len() > self.capacity {
            invariants::report(
                self.kind(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::L0Config;
    use crate::VwbConfig;
    use sttcache_mem::{Cache, CacheConfig, MainMemory};

    /// A two-entry buffer over 64-byte lines.
    fn two_entries(spec: fn(usize) -> StageSpec) -> LineBuffer {
        LineBuffer::new(spec(2 * 512), 512).unwrap()
    }

    fn vwb(capacity_bits: usize) -> StageSpec {
        StageSpec::Vwb(VwbConfig {
            capacity_bits,
            ..VwbConfig::default()
        })
    }

    fn dl1() -> Cache<MainMemory> {
        let cfg = CacheConfig::builder().build().unwrap();
        Cache::new(cfg, MainMemory::new(100))
    }

    #[test]
    fn insert_find_touch() {
        let mut b = two_entries(vwb);
        let mut below = dl1();
        b.install(&mut below, LineAddr(1), 5, false, 5);
        let i = b.find(LineAddr(1)).unwrap();
        assert_eq!(b.entries[i].ready_at, 5);
        b.hit(i, 9, true);
        assert!(b.entries[i].dirty);
        assert_eq!(b.entries[i].last_use, 9);
        assert_eq!(b.stats.fills, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = two_entries(vwb);
        let mut below = dl1();
        b.install(&mut below, LineAddr(1), 1, false, 1);
        b.install(&mut below, LineAddr(2), 2, false, 2);
        let one = b.find(LineAddr(1)).unwrap();
        b.hit(one, 3, false);
        b.install(&mut below, LineAddr(3), 4, false, 4);
        assert!(
            b.find(LineAddr(2)).is_none(),
            "line 2 was least recently used"
        );
        assert!(b.find(LineAddr(1)).is_some() && b.find(LineAddr(3)).is_some());
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.stats.dirty_evictions, 0);
    }

    #[test]
    fn a_dirty_victim_is_written_back_at_the_given_cycle() {
        let mut b = two_entries(|bits| {
            StageSpec::L0(L0Config {
                capacity_bits: bits,
                ..L0Config::default()
            })
        });
        let mut below = dl1();
        b.install(&mut below, LineAddr(7), 0, true, 0);
        b.install(&mut below, LineAddr(8), 1, false, 1);
        b.install(&mut below, LineAddr(9), 2, false, 50);
        assert_eq!(b.stats.dirty_evictions, 1);
        assert_eq!(below.stats().writes, 1);
        assert_eq!(b.dirty_entries(), 0);
    }

    #[test]
    fn capacity_is_whole_lines() {
        assert_eq!(two_entries(vwb).capacity, 2);
        assert_eq!(LineBuffer::new(vwb(3 * 512 - 1), 512).unwrap().capacity, 2);
        let err = LineBuffer::new(vwb(511), 512).unwrap_err().to_string();
        assert_eq!(
            err,
            "vwb configuration: capacity 511 bits holds no 512-bit line"
        );
    }
}
