//! The timed set-associative cache, over one flat tag store (`set.rs`)
//! that the resident-hit fast path probes directly.

use crate::addr::{Addr, Cycle, LineAddr};
use crate::banks::BankSchedule;
use crate::config::CacheConfig;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::set::{LookupResult, TagStore};
use crate::stats::CacheStats;
use crate::telemetry::{Histogram, IndexedCounter};
use crate::write_buffer::WriteBuffer;
use crate::MemoryLevel;

/// Which level ultimately provided the data for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// This cache level (a hit).
    ThisLevel,
    /// A lower level (this level missed).
    Lower,
    /// The main-memory backstop.
    Memory,
}

/// Timing result of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available (reads) or accepted (writes).
    pub complete_at: Cycle,
    /// Who served the access.
    pub served_by: ServedBy,
}

/// The instruments of a probed [`Cache`] (see [`Cache::arm_probe`]): what
/// `sim --explain` reads about the DL1, or about the shared L2 of a mix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheProbe {
    /// Data-array writes (fills and write hits) per set: the wear map.
    pub set_writes: IndexedCounter,
    /// Data-array writes per bank.
    pub bank_writes: IndexedCounter,
    /// Cycles requests waited on each busy bank.
    pub bank_conflict_cycles: IndexedCounter,
    /// Outstanding misses each MSHR lookup found, after lazy reclamation.
    pub mshr_occupancy: Histogram,
    /// Write-buffer depth after each eviction it took.
    pub write_buffer_depth: Histogram,
}

/// A timed, banked, set-associative, write-back/write-allocate cache with
/// MSHRs and an eviction write buffer.
///
/// Generic over its next level, so hierarchies compose by nesting:
/// `Cache<Cache<MainMemory>>`. All policies follow the paper's platform
/// (§VI): true LRU, write-back, write-allocate, line-interleaved banks.
///
/// # Example
///
/// ```
/// use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory, MemoryLevel};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let l2 = Cache::new(
///     CacheConfig::builder()
///         .capacity_bytes(2 * 1024 * 1024)
///         .associativity(16)
///         .read_cycles(12)
///         .write_cycles(12)
///         .build()?,
///     MainMemory::new(100),
/// );
/// let mut dl1 = Cache::new(CacheConfig::builder().build()?, l2);
/// dl1.read(Addr(0), 0);
/// assert_eq!(dl1.next_level().stats().reads, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache<N> {
    config: CacheConfig,
    /// Cached [`CacheConfig::sets`]: the set count is derived by integer
    /// division, and the decode math needs it on every access.
    set_count: usize,
    /// The one authoritative tag state, probed directly by the hit fast
    /// path.
    tags: TagStore,
    banks: BankSchedule,
    mshrs: MshrFile,
    write_buffer: WriteBuffer,
    next: N,
    stats: CacheStats,
    /// Array writes performed (drives the deterministic AWARE slow-write
    /// cadence).
    array_writes: u64,
    /// The instruments, `None` unless [`Cache::arm_probe`] armed them.
    probe: Option<Box<CacheProbe>>,
}

impl<N: MemoryLevel> Cache<N> {
    /// Creates a cache with the given configuration in front of `next`.
    pub fn new(config: CacheConfig, next: N) -> Self {
        Cache {
            tags: TagStore::new(config.sets(), config.associativity(), config.replacement()),
            banks: BankSchedule::new(config.banks()),
            mshrs: MshrFile::new(config.mshr_entries()),
            write_buffer: WriteBuffer::new("write-buffer", config.write_buffer_entries()),
            set_count: config.sets(),
            config,
            next,
            stats: CacheStats::new(),
            array_writes: 0,
            probe: None,
        }
    }

    /// Arms a fresh [`CacheProbe`]: from here on every access records
    /// into it and takes the general path, which the hit fast path only
    /// ever matches in timing and statistics.
    pub fn arm_probe(&mut self) {
        self.probe = Some(Box::default());
    }

    /// Disarms the probe and returns what it recorded (empty if it was
    /// never armed).
    pub fn take_probe(&mut self) -> CacheProbe {
        self.probe.take().map_or_else(CacheProbe::default, |p| *p)
    }

    /// Records one data-array write for the wear map and per-bank shares.
    #[inline]
    fn probe_array_write(&mut self, set_index: usize, bank: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.set_writes.add(set_index, 1);
            p.bank_writes.add(bank, 1);
        }
    }

    /// [`BankSchedule::reserve`], recording the wait in the probe.
    fn reserve_bank(&mut self, bank: usize, now: Cycle, occupancy: u64) -> Cycle {
        let start = self.banks.reserve(bank, now, occupancy);
        if let Some(p) = self.probe.as_deref_mut() {
            if start > now {
                p.bank_conflict_cycles.add(bank, start - now);
            }
        }
        start
    }

    /// The latency of the next array write, honouring the asymmetric
    /// (AWARE) write model when configured.
    fn next_write_cycles(&mut self) -> u64 {
        self.array_writes += 1;
        match self.config.asymmetric_write() {
            Some(aw) if self.array_writes.is_multiple_of(aw.slow_period) => aw.slow_cycles,
            _ => self.config.write_cycles(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The next level (for inspecting its statistics).
    pub fn next_level(&self) -> &N {
        &self.next
    }

    /// Whether the line containing `addr` is present (tag probe only; no
    /// state change, no timing).
    pub fn contains(&self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        self.tags
            .probe(line.set_index(self.set_count), line.tag(self.set_count))
            .is_some()
    }

    /// Occupies the bank serving `addr` for `cycles` starting no earlier
    /// than `from`, returning the actual start cycle.
    ///
    /// Used by wide-buffer front-ends to model line promotions that keep
    /// the array busy after the critical word has been returned (paper
    /// §IV: "the promotion may take as long as 4 cache cycles").
    pub fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        let bank = self.line_of(addr).bank(self.config.banks());
        self.reserve_bank(bank, from, cycles)
    }

    /// The cycle at which the bank serving `addr` becomes free.
    pub fn bank_free_at(&self, addr: Addr) -> Cycle {
        self.banks
            .free_at(self.line_of(addr).bank(self.config.banks()))
    }

    /// Base addresses of every resident line, for post-run verification
    /// against the trace's footprint: a drained hierarchy may only hold
    /// lines the program actually touched.
    pub fn resident_lines(&self) -> Vec<Addr> {
        let sets_count = self.set_count;
        let line_bytes = self.config.line_bytes();
        let mut lines = Vec::new();
        for set_index in 0..sets_count {
            for (tag, _) in self.tags.iter_valid(set_index) {
                lines.push(LineAddr::from_parts(tag, set_index, sets_count).base(line_bytes));
            }
        }
        lines
    }

    /// End-of-run verification of this level: reports any dirty line
    /// that survived draining. Levels below are checked by the caller
    /// (the front-end's drain verifier walks the hierarchy).
    pub fn check_drained(&self, now: Cycle) {
        let dirty = self.dirty_lines();
        if dirty > 0 {
            crate::invariants::report(
                "cache",
                now,
                None,
                format!("{dirty} dirty lines remain after drain"),
            );
        }
    }

    /// Number of dirty lines currently held.
    pub fn dirty_lines(&self) -> usize {
        self.tags.dirty_count()
    }

    /// Writes every dirty line back to the next level (power-gating /
    /// checkpoint support: a volatile cache must drain before losing
    /// power; a non-volatile one keeps its contents and skips this).
    ///
    /// Lines stay resident and become clean. Returns the number of lines
    /// flushed and the cycle at which the last write-back has been
    /// accepted below.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let sets_count = self.set_count;
        let line_bytes = self.config.line_bytes();
        let mut flushed = 0;
        let mut done = now;
        for set_index in 0..sets_count {
            let dirty: Vec<u64> = self
                .tags
                .iter_valid(set_index)
                .filter(|&(_, d)| d)
                .map(|(tag, _)| tag)
                .collect();
            for tag in dirty {
                let line = LineAddr::from_parts(tag, set_index, sets_count);
                // Read the line out of the array, then write it below.
                let bank = line.bank(self.config.banks());
                let start = self.reserve_bank(bank, done, self.config.read_cycles());
                let out = self
                    .next
                    .write(line.base(line_bytes), start + self.config.read_cycles());
                done = out.complete_at;
                self.tags.clean(set_index, tag);
                self.stats.writebacks += 1;
                flushed += 1;
            }
        }
        (flushed, done)
    }

    /// Invalidates the line containing `addr` if present, pushing it to the
    /// write buffer when dirty. Returns whether a line was invalidated.
    pub fn invalidate(&mut self, addr: Addr, now: Cycle) -> bool {
        let line = self.line_of(addr);
        let sets = self.set_count;
        match self.tags.invalidate(line.set_index(sets), line.tag(sets)) {
            Some(dirty) => {
                if dirty {
                    self.push_writeback(line, now);
                }
                true
            }
            None => false,
        }
    }

    fn line_of(&self, addr: Addr) -> LineAddr {
        addr.line(self.config.line_bytes())
    }

    fn push_writeback(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.stats.writebacks += 1;
        let base = line.base(self.config.line_bytes());
        // Drain time: one next-level write from the moment the buffer
        // entry reaches the head. Use the next level's write timing.
        let drain_done = self.next.write(base, now).complete_at;
        let drain_cycles = drain_done.saturating_sub(now).max(1);
        let proceed_at = self.write_buffer.admit(now);
        self.write_buffer.push(proceed_at + drain_cycles);
        if let Some(p) = self.probe.as_deref_mut() {
            p.write_buffer_depth
                .observe(self.write_buffer.depth() as u64);
        }
        self.stats.write_buffer_stall_cycles += proceed_at - now;
        proceed_at
    }

    /// Handles the miss path shared by reads and writes. Returns the cycle
    /// at which the line has been delivered to this level, and who served
    /// it.
    fn fill_miss(&mut self, line: LineAddr, now: Cycle) -> (Cycle, ServedBy) {
        // MSHR: merge with an in-flight fill, or find a free entry
        // (waiting out a full file first — one wait always frees an entry
        // because every entry records a known fill time). The entry is
        // inserted below, once the fill time is known.
        let mut at = now;
        loop {
            if let Some(p) = self.probe.as_deref_mut() {
                p.mshr_occupancy.observe(self.mshrs.outstanding(at) as u64);
            }
            match self.mshrs.lookup(line, at) {
                MshrOutcome::Merged { ready_at } => {
                    self.stats.mshr_merges += 1;
                    return (ready_at, ServedBy::Lower);
                }
                MshrOutcome::Free => break,
                MshrOutcome::Full { retry_at } => {
                    self.stats.mshr_full_stall_cycles += retry_at.saturating_sub(at);
                    at = retry_at.max(at + 1);
                }
            }
        }

        // Tag check discovered the miss after one array read; the request
        // then goes below. The bank is busy for the tag read and again for
        // the fill write.
        let bank = line.bank(self.config.banks());
        let lookup_start = self.reserve_bank(bank, at, self.config.read_cycles());
        let lookup_done = lookup_start + self.config.read_cycles();

        let base = line.base(self.config.line_bytes());
        let below = self.next.read(base, lookup_done);
        let served_by = ServedBy::Lower;

        // Victim handling: a dirty victim goes to the write buffer. A full
        // buffer back-pressures the fill.
        let sets = self.set_count;
        let (set_index, tag) = (line.set_index(sets), line.tag(sets));
        let (victim, dirty_tag) = match self.tags.lookup(set_index, tag) {
            LookupResult::Miss { victim, dirty_tag } => (victim, dirty_tag),
            // A merged fill for this line may have installed it already.
            LookupResult::Hit(way) => {
                self.tags.touch(set_index, way, below.complete_at, false);
                self.mshrs.insert(line, below.complete_at);
                return (below.complete_at, served_by);
            }
        };
        let mut fill_ready = below.complete_at;
        if let Some(dtag) = dirty_tag {
            let victim_line = LineAddr::from_parts(dtag, set_index, sets);
            let wb_ready = self.push_writeback(victim_line, fill_ready);
            fill_ready = fill_ready.max(wb_ready);
        }

        // Install the line; writing the fill occupies the bank.
        let fill_write = self.next_write_cycles();
        self.reserve_bank(bank, fill_ready, fill_write);
        self.tags.fill(set_index, victim, tag, false, fill_ready);
        self.stats.fills += 1;
        self.probe_array_write(set_index, bank);
        self.mshrs.insert(line, fill_ready);
        (fill_ready, served_by)
    }

    /// The resident-hit fast path for reads: probes the tag store without
    /// scanning the MSHR file or running the observers.
    /// Byte-identical to the general path because it performs the same
    /// mutations in the same order (stats, bank schedule, replacement
    /// touch) and bails — returning `None` — in every situation where the
    /// general path would do anything more:
    ///
    /// * a fill is still in flight anywhere in this cache (the general
    ///   hit path consults [`MshrFile::ready_time`]);
    /// * this cache's probe is armed, or the invariant gate is (the
    ///   general path records observations / runs checks);
    /// * the probe misses (the general path runs the miss, whose first
    ///   `lookup` may advance the random policy's stream).
    #[inline]
    fn try_read_hit_fast(
        &mut self,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> Option<AccessOutcome> {
        if self.mshrs.fills_pending(now) || self.probe.is_some() || crate::invariants::enabled() {
            return None;
        }
        let way = self.tags.probe(set_index, line.tag(self.set_count))?;
        self.stats.reads += 1;
        self.stats.read_hits += 1;
        let start = self
            .banks
            .reserve_quiet(bank, now, self.config.read_cycles());
        self.tags.touch(set_index, way, start, false);
        // The full sync (not an incremental `start - now` bump) is
        // load-bearing: stage wrappers advance the bank tally between
        // accesses through `occupy_bank`, and the sync is what folds
        // those contributions into the report.
        self.sync_component_stats();
        Some(AccessOutcome {
            complete_at: start + self.config.read_cycles(),
            served_by: ServedBy::ThisLevel,
        })
    }

    /// [`Cache::try_read_hit_fast`] for write hits. The AWARE slow-write
    /// cadence is preserved: the fast path advances the same
    /// `array_writes` counter through [`Cache::next_write_cycles`].
    #[inline]
    fn try_write_hit_fast(
        &mut self,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> Option<AccessOutcome> {
        if self.mshrs.fills_pending(now) || self.probe.is_some() || crate::invariants::enabled() {
            return None;
        }
        let way = self.tags.probe(set_index, line.tag(self.set_count))?;
        self.stats.writes += 1;
        self.stats.write_hits += 1;
        let wc = self.next_write_cycles();
        let start = self.banks.reserve_quiet(bank, now, wc);
        self.tags.touch(set_index, way, start, true);
        self.sync_component_stats();
        Some(AccessOutcome {
            complete_at: start + wc,
            served_by: ServedBy::ThisLevel,
        })
    }

    /// The full read path (misses, in-flight fills, armed observers). The fast
    /// path falls through to this; the fast-path tests drive it directly
    /// as the referee. `line`, `set_index` and `bank` must be `addr`'s
    /// decomposition under this cache's geometry.
    fn read_at_general(
        &mut self,
        addr: Addr,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.reads += 1;
        let tag = line.tag(self.set_count);

        let lookup = self.tags.lookup(set_index, tag);
        let outcome = match lookup {
            LookupResult::Hit(way) => {
                self.stats.read_hits += 1;
                // Data of an in-flight fill may not have arrived yet.
                let avail = self.mshrs.ready_time(line, now).map_or(now, |r| r.max(now));
                let start = self.reserve_bank(bank, avail, self.config.read_cycles());
                self.tags.touch(set_index, way, start, false);
                AccessOutcome {
                    complete_at: start + self.config.read_cycles(),
                    served_by: ServedBy::ThisLevel,
                }
            }
            LookupResult::Miss { .. } => {
                let (ready, served_by) = self.fill_miss(line, now);
                // The critical word is forwarded to the requester as the
                // fill arrives; no second array read is charged.
                AccessOutcome {
                    complete_at: ready,
                    served_by,
                }
            }
        };
        self.sync_component_stats();
        if crate::invariants::enabled() {
            self.check_access(addr, now, outcome.complete_at);
        }
        outcome
    }

    /// The full write path; see [`Cache::read_at_general`].
    fn write_at_general(
        &mut self,
        addr: Addr,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> AccessOutcome {
        self.stats.writes += 1;
        let tag = line.tag(self.set_count);

        let lookup = self.tags.lookup(set_index, tag);
        let outcome = match lookup {
            LookupResult::Hit(way) => {
                self.stats.write_hits += 1;
                let avail = self.mshrs.ready_time(line, now).map_or(now, |r| r.max(now));
                let wc = self.next_write_cycles();
                let start = self.reserve_bank(bank, avail, wc);
                self.probe_array_write(set_index, bank);
                self.tags.touch(set_index, way, start, true);
                AccessOutcome {
                    complete_at: start + wc,
                    served_by: ServedBy::ThisLevel,
                }
            }
            LookupResult::Miss { .. } => {
                // Write-allocate: fetch the line, then perform the write hit
                // ("the data in the cache location is loaded in the block
                // from the L2/main memory and this is followed by the write
                // hit operation", §IV).
                let (mut ready, served_by) = self.fill_miss(line, now);
                // A merged fill can complete without the line resident:
                // fills install eagerly at a future timestamp, so later
                // same-set misses in program order may already have
                // evicted the line this request merged into. Physically
                // the merged requester arrives after that eviction and
                // has to re-fetch the line like any fresh miss. The
                // retry makes progress: a merge always returns a ready
                // time strictly past the lookup time, and once a lookup
                // reaches it the stale entry is reclaimed and the fill
                // installs the line.
                let way = loop {
                    match self.tags.lookup(set_index, tag) {
                        LookupResult::Hit(way) => break way,
                        LookupResult::Miss { .. } => {
                            let (r, _) = self.fill_miss(line, ready);
                            ready = r;
                        }
                    }
                };
                let wc = self.next_write_cycles();
                let start = self.reserve_bank(bank, ready, wc);
                self.probe_array_write(set_index, bank);
                self.tags.touch(set_index, way, start, true);
                AccessOutcome {
                    complete_at: start + wc,
                    served_by,
                }
            }
        };
        self.sync_component_stats();
        if crate::invariants::enabled() {
            self.check_access(addr, now, outcome.complete_at);
        }
        outcome
    }

    fn sync_component_stats(&mut self) {
        self.stats.bank_conflict_cycles = self.banks.conflict_cycles();
    }

    /// Post-access checks run when the invariant gate is on: the touched
    /// set must be structurally valid, the write buffer within its
    /// capacity, and time must not run backwards.
    fn check_access(&self, addr: Addr, now: Cycle, complete_at: Cycle) {
        if complete_at < now {
            crate::invariants::report(
                "cache",
                now,
                Some(addr.0),
                format!("access completed in the past (at {complete_at})"),
            );
        }
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        self.tags.check_invariants(set_index, complete_at);
        self.write_buffer.check_invariants(now);
    }
}

impl<N: MemoryLevel> MemoryLevel for Cache<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        let bank = line.bank(self.config.banks());
        if let Some(out) = self.try_read_hit_fast(line, set_index, bank, now) {
            return out;
        }
        self.read_at_general(addr, line, set_index, bank, now)
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        let bank = line.bank(self.config.banks());
        if let Some(out) = self.try_write_hit_fast(line, set_index, bank, now) {
            return out;
        }
        self.write_at_general(addr, line, set_index, bank, now)
    }

    fn line_bytes(&self) -> usize {
        self.config.line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn contains(&self, addr: Addr) -> bool {
        Cache::contains(self, addr)
    }

    fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        Cache::occupy_bank(self, addr, from, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MainMemory;

    fn dl1() -> Cache<MainMemory> {
        Cache::new(
            CacheConfig::builder().build().unwrap(),
            MainMemory::new(100),
        )
    }

    fn sram_dl1() -> Cache<MainMemory> {
        Cache::new(
            CacheConfig::builder()
                .line_bytes(32)
                .read_cycles(1)
                .write_cycles(1)
                .build()
                .unwrap(),
            MainMemory::new(100),
        )
    }

    #[test]
    fn merged_write_refetches_an_evicted_line() {
        // Regression for a panic the trace fuzzer found: back-to-back
        // same-set write misses at the same cycle. The default config is
        // 2-way, so writes C and D (issued while A's fill is still in
        // flight) evict A; the second write to A then *merges* with A's
        // stale MSHR entry and used to find the line absent after
        // fill_miss returned ("line was just filled").
        let mut c = dl1();
        let sets = c.config().sets() as u64;
        let stride = sets * c.config().line_bytes() as u64;
        let a = Addr(0);
        c.write(a, 0); // allocate A; fill lands far in the future
        c.write(Addr(stride), 0); // B
        c.write(Addr(2 * stride), 0); // C — evicts A or B
        c.write(Addr(3 * stride), 0); // D — the other one is gone too
        let out = c.write(a, 1); // merges with A's in-flight entry
        assert!(out.complete_at > 1);
        assert!(c.contains(a), "the re-fetch must install the line");
    }

    #[test]
    fn cold_read_misses_to_memory() {
        let mut c = dl1();
        let out = c.read(Addr(0), 0);
        // Tag check (4) + memory (100).
        assert_eq!(out.complete_at, 104);
        assert_eq!(out.served_by, ServedBy::Lower);
        assert_eq!(c.stats().read_misses(), 1);
    }

    #[test]
    fn second_read_hits_at_read_latency() {
        let mut c = dl1();
        // Warm the line; wait out the fill-write bank shadow (2 cycles).
        let t = c.read(Addr(0), 0).complete_at + 10;
        let out = c.read(Addr(8), t);
        assert_eq!(out.complete_at, t + 4);
        assert_eq!(out.served_by, ServedBy::ThisLevel);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn hit_immediately_after_fill_waits_for_fill_write() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at;
        // The fill is still being written into the bank for write_cycles
        // (2); the hit read starts after it.
        assert_eq!(c.read(Addr(8), t).complete_at, t + 2 + 4);
    }

    #[test]
    fn sram_hit_is_one_cycle() {
        let mut c = sram_dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        assert_eq!(c.read(Addr(0), t).complete_at, t + 1);
    }

    #[test]
    fn write_hit_takes_write_latency_and_dirties() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        let out = c.write(Addr(0), t);
        assert_eq!(out.complete_at, t + 2);
        assert_eq!(c.stats().write_hits, 1);
        // Evicting the dirty line later produces a write-back. Fill the set:
        // set 0 holds lines 0 and 512 (sets = 512); a third conflicting
        // line evicts LRU.
        let sets = c.config().sets() as u64;
        let lb = c.config().line_bytes() as u64;
        let t2 = c.read(Addr(sets * lb), out.complete_at).complete_at;
        let _ = c.read(Addr(2 * sets * lb), t2);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_miss_allocates() {
        let mut c = dl1();
        let out = c.write(Addr(0), 0);
        assert_eq!(c.stats().write_misses(), 1);
        assert_eq!(c.stats().fills, 1);
        // Tag check (4) + memory (100) + fill write (2) + write hit (2).
        assert_eq!(out.complete_at, 108);
        // The line is now present and dirty.
        assert!(c.contains(Addr(0)));
    }

    #[test]
    fn lru_within_set() {
        let mut c = dl1();
        let sets = c.config().sets() as u64;
        let lb = c.config().line_bytes() as u64;
        let stride = sets * lb; // same set, different tag
        let mut t = 0;
        t = c.read(Addr(0), t).complete_at;
        t = c.read(Addr(stride), t).complete_at;
        t = c.read(Addr(0), t).complete_at; // refresh line 0
        t = c.read(Addr(2 * stride), t).complete_at; // evicts `stride`
        assert!(c.contains(Addr(0)));
        assert!(!c.contains(Addr(stride)));
        let _ = t;
    }

    #[test]
    fn bank_conflicts_delay_same_bank_accesses() {
        let mut c = dl1();
        // Lines 0 and 4 share bank 0 (4 banks); warm both, plus line 1 in
        // bank 1; then wait out the fill shadows.
        let lb = c.config().line_bytes() as u64;
        let mut t = c.read(Addr(0), 0).complete_at;
        t = c.read(Addr(4 * lb), t).complete_at;
        t = c.read(Addr(lb), t).complete_at + 10;
        // Issue two same-bank reads in the same cycle: the second waits.
        let a = c.read(Addr(0), t);
        let b = c.read(Addr(4 * lb), t);
        assert_eq!(a.complete_at, t + 4);
        assert_eq!(b.complete_at, t + 8);
        assert!(c.stats().bank_conflict_cycles >= 4);
        // Different banks do not wait on each other.
        let warm = t + 100;
        let x = c.read(Addr(0), warm);
        let y = c.read(Addr(lb), warm);
        assert_eq!(x.complete_at, warm + 4);
        assert_eq!(y.complete_at, warm + 4);
    }

    #[test]
    fn mshr_merges_inflight_line() {
        let mut c = dl1();
        let a = c.read(Addr(0), 0);
        // Second access to the same line while the fill is in flight: the
        // tag is installed but data arrives with the fill, so the hit waits.
        let b = c.read(Addr(8), 1);
        assert!(b.complete_at >= a.complete_at);
    }

    #[test]
    fn occupy_bank_blocks_later_reads() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        // Simulate a 4-cycle promotion occupying bank 0 from t.
        c.occupy_bank(Addr(0), t, 4);
        let out = c.read(Addr(0), t);
        assert_eq!(out.complete_at, t + 4 + 4);
    }

    #[test]
    fn invalidate_dirty_line_writes_back() {
        let mut c = dl1();
        c.write(Addr(0), 0);
        let wb_before = c.stats().writebacks;
        assert!(c.invalidate(Addr(0), 200));
        assert_eq!(c.stats().writebacks, wb_before + 1);
        assert!(!c.contains(Addr(0)));
        assert!(!c.invalidate(Addr(0), 201));
    }

    #[test]
    fn two_level_hierarchy_counts_correctly() {
        let l2 = Cache::new(
            CacheConfig::builder()
                .capacity_bytes(2 * 1024 * 1024)
                .associativity(16)
                .read_cycles(12)
                .write_cycles(12)
                .banks(1)
                .build()
                .unwrap(),
            MainMemory::new(100),
        );
        let mut dl1 = Cache::new(CacheConfig::builder().build().unwrap(), l2);
        let t = dl1.read(Addr(0), 0).complete_at;
        // DL1 tag (4) + L2 tag (12) + memory (100) = 116.
        assert_eq!(t, 116);
        // A later read hits DL1 without touching L2 again.
        let t2 = dl1.read(Addr(0), t + 10).complete_at;
        assert_eq!(t2, t + 10 + 4);
        assert_eq!(dl1.next_level().stats().reads, 1);
    }

    #[test]
    fn flush_drains_every_dirty_line() {
        let mut c = dl1();
        let mut t = 0;
        for i in 0..6u64 {
            t = c.write(Addr(i * 64), t).complete_at + 5;
        }
        assert_eq!(c.dirty_lines(), 6);
        let wb_before = c.next_level().stats().writes;
        let (flushed, done) = c.flush_dirty(t);
        assert_eq!(flushed, 6);
        assert!(done > t);
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.next_level().stats().writes, wb_before + 6);
        // Lines remain resident (flush, not invalidate).
        assert!(c.contains(Addr(0)));
        // A second flush is free.
        assert_eq!(c.flush_dirty(done).0, 0);
    }

    #[test]
    fn asymmetric_writes_follow_the_cadence() {
        use crate::config::AsymmetricWrite;
        let cfg = CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 6,
                slow_period: 2,
            })
            .build()
            .unwrap();
        let mut c = Cache::new(cfg, MainMemory::new(100));
        // Warm the line, wait out the fill shadow.
        let t = c.read(Addr(0), 0).complete_at + 20;
        // Array writes so far: 1 (the fill). The next write is the 2nd
        // array write -> slow (6 cycles); the one after is fast (2).
        let w1 = c.write(Addr(0), t);
        assert_eq!(w1.complete_at, t + 6);
        let t2 = w1.complete_at + 10;
        let w2 = c.write(Addr(0), t2);
        assert_eq!(w2.complete_at, t2 + 2);
    }

    #[test]
    fn invalid_asymmetric_configs_rejected() {
        use crate::config::AsymmetricWrite;
        assert!(CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 1,
                slow_period: 4
            })
            .build()
            .is_err());
        assert!(CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 8,
                slow_period: 0
            })
            .build()
            .is_err());
    }

    #[test]
    fn hit_fast_path_matches_general_path() {
        // Drive one cache through the public entry points (fast path
        // eligible) and a twin through the general bodies only; every
        // outcome, the stats block and the dirty set must agree.
        let mut fast = dl1();
        let mut slow = dl1();
        let sets = fast.config().sets();
        let banks = fast.config().banks();
        let lb = fast.config().line_bytes();
        let stride = (sets * lb) as u64;
        // Misses, hits, same-set conflict evictions, same-bank conflicts,
        // an adversarial tag, and re-reads during fill shadows.
        let addrs = [
            0u64,
            0,
            8,
            64,
            64,
            stride,
            2 * stride,
            0,
            4 * lb as u64,
            4 * lb as u64,
            u64::MAX,
            u64::MAX,
            0,
        ];
        let mut t = 0;
        for (i, &raw) in addrs.iter().enumerate() {
            let a = Addr(raw);
            let line = a.line(lb);
            let (si, bk) = (line.set_index(sets), line.bank(banks));
            let (f, s) = if i % 3 == 2 {
                (fast.write(a, t), slow.write_at_general(a, line, si, bk, t))
            } else {
                (fast.read(a, t), slow.read_at_general(a, line, si, bk, t))
            };
            assert_eq!(f, s, "fast path diverged at access {i} ({a})");
            // Alternate between back-to-back issue (fill shadows, bank
            // conflicts) and drained issue (fast-path hits).
            t = if i % 2 == 0 {
                f.complete_at + 20
            } else {
                t + 1
            };
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.dirty_lines(), slow.dirty_lines());
    }

    #[test]
    fn fast_path_preserves_aware_cadence() {
        use crate::config::AsymmetricWrite;
        let cfg = || {
            CacheConfig::builder()
                .asymmetric_write(AsymmetricWrite {
                    slow_cycles: 6,
                    slow_period: 2,
                })
                .build()
                .unwrap()
        };
        let mut fast = Cache::new(cfg(), MainMemory::new(100));
        let mut slow = Cache::new(cfg(), MainMemory::new(100));
        let sets = fast.config().sets();
        let banks = fast.config().banks();
        let lb = fast.config().line_bytes();
        let mut t = 0;
        for i in 0..6u64 {
            // Write-hit the same line repeatedly: the slow-write cadence is
            // global array-write count, so fast and general paths must
            // advance it identically.
            let a = Addr((i % 2) * 64);
            let line = a.line(lb);
            let f = fast.write(a, t);
            let s = slow.write_at_general(a, line, line.set_index(sets), line.bank(banks), t);
            assert_eq!(f, s, "cadence diverged at write {i}");
            t = f.complete_at + 20;
        }
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn mirror_survives_invalidation() {
        let mut c = dl1();
        c.write(Addr(0), 0);
        let t = c.read(Addr(64), 300).complete_at + 20;
        assert!(c.invalidate(Addr(0), t));
        // The invalidated line must miss — the fast path must not "hit"
        // a way whose valid bit is clear.
        let out = c.read(Addr(0), t + 10);
        assert_eq!(out.served_by, ServedBy::Lower);
        // The surviving line still fast-hits.
        let out2 = c.read(Addr(64), out.complete_at + 20);
        assert_eq!(out2.served_by, ServedBy::ThisLevel);
        assert_eq!(out2.complete_at, out.complete_at + 20 + 4);
    }

    #[test]
    fn telemetry_records_wear_bank_shares_and_occupancy() {
        let mut c = dl1();
        c.arm_probe();
        let mut t = 0;
        for i in 0..8u64 {
            t = c.write(Addr(i * 64), t).complete_at + 1;
        }
        let probe = c.take_probe();
        // Every cold write is a fill (one array write) plus the write hit
        // that follows it (another), so the wear map totals 2 per access.
        assert_eq!(probe.set_writes.total(), 16);
        assert_eq!(probe.bank_writes.total(), probe.set_writes.total());
        // MSHR occupancy was observed once per miss.
        assert_eq!(probe.mshr_occupancy.total, 8);
        // The same run unprobed must behave identically (the
        // instrumentation is read-only).
        let mut quiet = dl1();
        let mut t2 = 0;
        for i in 0..8u64 {
            t2 = quiet.write(Addr(i * 64), t2).complete_at + 1;
        }
        assert_eq!(t, t2);
        assert_eq!(c.stats(), quiet.stats());
        // Taking the probe disarmed it.
        assert_eq!(c.take_probe(), CacheProbe::default());
    }

    #[test]
    fn wide_line_cache_indexing() {
        // 512-bit (64 B) lines vs 256-bit (32 B): adjacent 32 B blocks share
        // a 64 B line.
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at;
        let out = c.read(Addr(32), t);
        assert_eq!(out.served_by, ServedBy::ThisLevel);
        let mut s = sram_dl1();
        let t = s.read(Addr(0), 0).complete_at;
        let out = s.read(Addr(32), t);
        assert_eq!(out.served_by, ServedBy::Lower);
    }
}
