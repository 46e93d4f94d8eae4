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
//! | L0 | fill: fetch, bank held and usable `fill_cycles` later | fill dirty, then write | probe then fetch below |
//! | EMSHR | read below, capture a DL1 miss | write below, capture a DL1 miss | probe then fetch below |
//!
//! A hit, and an access that passes through to the level below, make no
//! call of the buffer's own. Each allocating miss is one out-of-line step
//! (`fill` for a promotion or an L0 fill, `retain` for an EMSHR capture)
//! with the entry's install and the LRU scan inlined into it, since a
//! buffer allocates on a small share of its accesses. A fill is one
//! request below ([`Below::read_and_hold`]): the read and the bank it
//! holds past delivery.

use crate::front_end::Below;
use crate::stage::{probe_then_fetch, BufferStats, StageSpec};
use crate::SttError;
use sttcache_mem::telemetry::Histogram;
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

/// The instruments of a probed line buffer, one per stage of
/// [`RunProbes::buffers`](crate::RunProbes::buffers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferProbe {
    /// Occupancy after each fill.
    pub depth: Histogram,
    /// Stores a VWB absorbed in a row, one sample per run that a write
    /// miss ended.
    pub coalesce_run: Histogram,
    /// Length of the run of absorbed stores still open.
    open_run: u64,
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
    /// The instruments, `None` unless [`LineBuffer::arm_probe`] armed them.
    probe: Option<Box<BufferProbe>>,
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
            probe: None,
        })
    }

    /// Arms a fresh [`BufferProbe`].
    pub(crate) fn arm_probe(&mut self) {
        self.probe = Some(Box::default());
    }

    /// Disarms the probe and returns what it recorded.
    pub(crate) fn take_probe(&mut self) -> BufferProbe {
        self.probe.take().map_or_else(BufferProbe::default, |p| *p)
    }

    /// The buffer's kind label.
    pub(crate) fn kind(&self) -> &'static str {
        self.spec.kind()
    }

    /// The buffer's counters.
    pub(crate) fn stats(&self) -> BufferStats {
        self.stats
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// Whether the buffer holds the line containing `addr`.
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        self.find(addr.line(self.line_bytes)).is_some()
    }

    /// Serves a load at `now`, reading through `below` on a miss.
    pub(crate) fn read<N: MemoryLevel>(
        &mut self,
        below: &mut Below<'_, N>,
        addr: Addr,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.reads += 1;
        if let Some(idx) = self.find(addr.line(self.line_bytes)) {
            self.stats.read_hits += 1;
            return self.hit(idx, now, false);
        }
        match self.spec {
            StageSpec::Vwb(cfg) => self.fill(below, addr, now, cfg.promotion_cycles, 0, false),
            StageSpec::L0(cfg) => {
                self.fill(below, addr, now, cfg.fill_cycles, cfg.fill_cycles, false)
            }
            StageSpec::Emshr(_) => {
                let out = below.read(addr, now);
                self.capture(below, addr, out);
                out
            }
        }
    }

    /// Serves a store at `now`, writing through `below` on a miss.
    pub(crate) fn write<N: MemoryLevel>(
        &mut self,
        below: &mut Below<'_, N>,
        addr: Addr,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.writes += 1;
        if let Some(idx) = self.find(addr.line(self.line_bytes)) {
            self.stats.write_hits += 1;
            if let Some(p) = self.probe.as_deref_mut() {
                p.open_run += 1;
            }
            return self.hit(idx, now, true);
        }
        match self.spec {
            StageSpec::Vwb(_) => {
                // "Otherwise, it's directly updated via the processor":
                // write-allocate in the DL1, no VWB allocation. The miss
                // ends the current run of buffer-absorbed stores.
                if let Some(p) = self.probe.as_deref_mut() {
                    if p.open_run > 0 {
                        p.coalesce_run.observe(p.open_run);
                        p.open_run = 0;
                    }
                }
                below.write(addr, now)
            }
            StageSpec::L0(cfg) => {
                // Write-allocate into the L0: fetch the line, then write it.
                let out = self.fill(below, addr, now, cfg.fill_cycles, cfg.fill_cycles, true);
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
    pub(crate) fn prefetch<N: MemoryLevel>(
        &mut self,
        below: &mut Below<'_, N>,
        addr: Addr,
        now: Cycle,
    ) {
        match self.spec {
            StageSpec::Vwb(cfg) => {
                if self.contains(addr) {
                    self.stats.prefetch_drops += 1;
                } else {
                    self.stats.prefetch_fills += 1;
                    self.fill(below, addr, now, cfg.promotion_cycles, 0, false);
                }
            }
            StageSpec::L0(_) | StageSpec::Emshr(_) => probe_then_fetch(below, addr, now),
        }
    }

    /// A hit on entry `idx` at `now`: register speed once the data has
    /// landed. A store dirties the entry.
    #[inline]
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

    /// Fills the line containing `addr` from `below` with one request,
    /// issued at `now`: the requester has the critical word when the
    /// returned outcome completes, the DL1 bank stays busy `hold` cycles
    /// past it, and the entry becomes usable `settle` cycles after it.
    /// The whole miss — the request, the install and the LRU scan — is
    /// this one out-of-line step.
    #[inline(never)]
    fn fill<N: MemoryLevel>(
        &mut self,
        below: &mut Below<'_, N>,
        addr: Addr,
        now: Cycle,
        hold: u64,
        settle: u64,
        dirty: bool,
    ) -> AccessOutcome {
        let out = below.read_and_hold(addr, now, hold);
        let line = addr.line(self.line_bytes);
        let ready_at = out.complete_at + settle;
        self.install(below, line, ready_at, dirty, out.complete_at);
        out
    }

    /// The EMSHR's capture rule: a line `below` did not serve itself was a
    /// DL1 miss whose fill the MSHR held, so the buffer retains it clean.
    /// The rule is tested in line; the capture itself is out of line.
    #[inline]
    fn capture<N: MemoryLevel>(
        &mut self,
        below: &mut Below<'_, N>,
        addr: Addr,
        out: AccessOutcome,
    ) {
        if out.served_by != ServedBy::ThisLevel {
            self.retain(below, addr.line(self.line_bytes), out.complete_at);
        }
    }

    /// Captures `line`, delivered at `at`, as a clean entry: the EMSHR's
    /// one out-of-line step per allocating miss.
    #[inline(never)]
    fn retain<N: MemoryLevel>(&mut self, below: &mut Below<'_, N>, line: LineAddr, at: Cycle) {
        self.install(below, line, at, false, at);
    }

    /// Inserts `line` (not present), usable at `ready_at`. A full buffer
    /// evicts its LRU entry; a dirty victim is written back to `below` at
    /// `writeback_at`, in the background: it contends for banks but does
    /// not block the requester. Inlined into each allocating miss's step.
    #[inline(always)]
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
            let victim = self.entries.swap_remove(self.lru());
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
        if let Some(p) = self.probe.as_deref_mut() {
            p.depth.observe(self.entries.len() as u64);
        }
    }

    /// The index of the least recently used entry of a non-empty buffer:
    /// the first entry with the oldest `last_use`. The scan selects
    /// without branching, so its cost does not depend on the stamps.
    #[inline(always)]
    fn lru(&self) -> usize {
        let (mut lru, mut oldest) = (0, self.entries[0].last_use);
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let older = e.last_use < oldest;
            lru = if older { i } else { lru };
            oldest = if older { e.last_use } else { oldest };
        }
        lru
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
    fn an_lru_tie_evicts_the_first_entry_in_buffer_order() {
        // Lines 1, 2 and 3 fill a three-entry buffer at cycles 1, 2, 3;
        // line 4 evicts line 1, and `swap_remove` moves line 3 into its
        // slot, ahead of line 2. A hit then ties line 2 with line 3 at
        // cycle 3: the next victim is the first of the two in buffer
        // order, line 3, though line 2 was filled first and is last in
        // line.
        let mut b = LineBuffer::new(vwb(3 * 512), 512).unwrap();
        let mut below = dl1();
        for t in 1..=4 {
            b.install(&mut below, LineAddr(t), t, false, t);
        }
        let lines = |b: &LineBuffer| b.entries.iter().map(|e| e.line.0).collect::<Vec<_>>();
        assert_eq!(lines(&b), [3, 2, 4]);
        let two = b.find(LineAddr(2)).unwrap();
        b.hit(two, 3, false);
        b.install(&mut below, LineAddr(5), 5, false, 5);
        assert_eq!(lines(&b), [4, 2, 5]);
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
