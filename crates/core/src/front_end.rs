//! The unified data-port front-end.
//!
//! One [`FrontEnd`] type serves both platforms: the single-core
//! [`crate::Platform`] mounts it over an owned L2 (`FrontEnd`, i.e.
//! `FrontEnd<Cache<MainMemory>>`), and every core of a
//! [`crate::MultiPlatform`] mounts it over a handle to the shared L2
//! (`FrontEnd<SharedL2>`).
//!
//! **Owner drains.** A front-end drains and audits what it owns
//! privately — its line buffers and the DL1. The level below is drained
//! by its owner: [`crate::MultiPlatform::run_traces_audited`], the one
//! audited run, drains the shared L2 once, after every core's front-end.

use crate::buffer::LineBuffer;
use crate::stage::{probe_then_fetch, StageSpec, StageStats};
use crate::SttError;
use sttcache_cpu::DataPort;
use sttcache_mem::{AccessOutcome, Addr, Cache, CacheStats, Cycle, MainMemory, MemoryLevel};

/// An evaluated L1 D-cache organization over a DL1 whose next level is
/// `N`, unified behind a single [`DataPort`] so a platform can hold any
/// organization in one core type.
///
/// The front-end is a list of line buffers, outermost first, in front of
/// the DL1. Each buffer's misses flow through the buffers after it, then
/// the DL1. The list is empty for the plain organizations (the SRAM
/// baseline and the drop-in NVM configuration of Fig. 1), holds one
/// buffer for the paper's VWB proposal (Figs. 3–7, 9) and the Fig. 8
/// L0/EMSHR comparison baselines, and two for a catalog
/// [`StackSpec`](crate::StackSpec). New organizations are a list of
/// [`StageSpec`]s, not new front-end code.
///
/// # Example
///
/// ```
/// use sttcache::{nvm_dl1_config, FrontEnd, StageSpec, VwbConfig};
/// use sttcache_cpu::DataPort;
/// use sttcache_mem::{Addr, Cache, MainMemory};
///
/// # fn main() -> Result<(), sttcache::SttError> {
/// let dl1 = Cache::new(nvm_dl1_config()?, MainMemory::new(100));
/// let mut vwb = FrontEnd::new(&[StageSpec::Vwb(VwbConfig::default())], dl1)?;
/// let t0 = vwb.read(Addr(0), 0);     // cold miss, promoted
/// let t1 = vwb.read(Addr(8), t0);    // VWB hit: 1 cycle
/// assert_eq!(t1, t0 + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrontEnd<N = Cache<MainMemory>> {
    /// The line buffers, outermost first.
    pub(crate) buffers: Vec<LineBuffer>,
    pub(crate) dl1: Cache<N>,
}

/// The level below one buffer: the buffers after it, then the DL1.
pub(crate) struct Below<'a, N> {
    rest: &'a mut [LineBuffer],
    dl1: &'a mut Cache<N>,
}

impl<N: MemoryLevel> Below<'_, N> {
    /// The next buffer and the level below it; `None` when only the DL1
    /// is left.
    fn split(&mut self) -> Option<(&mut LineBuffer, Below<'_, N>)> {
        let (next, rest) = self.rest.split_first_mut()?;
        let dl1 = &mut *self.dl1;
        Some((next, Below { rest, dl1 }))
    }

    /// Hands a prefetch hint to the next buffer, or probes the DL1 when
    /// there is none.
    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        match self.split() {
            Some((next, mut below)) => next.prefetch(&mut below, addr, now),
            None => probe_then_fetch(self.dl1, addr, now),
        }
    }

    /// A buffer's fill: reads `addr` and keeps the DL1 bank busy `hold`
    /// cycles past delivery. The next buffer serves the read if there is
    /// one, and the DL1 bank is held once it has answered.
    #[inline]
    pub(crate) fn read_and_hold(&mut self, addr: Addr, now: Cycle, hold: u64) -> AccessOutcome {
        match self.split() {
            Some((next, mut below)) => {
                let out = next.read(&mut below, addr, now);
                self.dl1.occupy_bank(addr, out.complete_at, hold);
                out
            }
            None => self.dl1.read_and_hold(addr, now, hold),
        }
    }
}

impl<N: MemoryLevel> MemoryLevel for Below<'_, N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        match self.split() {
            Some((next, mut below)) => next.read(&mut below, addr, now),
            None => self.dl1.read(addr, now),
        }
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        match self.split() {
            Some((next, mut below)) => next.write(&mut below, addr, now),
            None => self.dl1.write(addr, now),
        }
    }

    fn line_bytes(&self) -> usize {
        self.dl1.line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        self.dl1.stats()
    }

    fn contains(&self, addr: Addr) -> bool {
        self.rest.iter().any(|b| b.contains(addr)) || self.dl1.contains(addr)
    }
}

impl<N: MemoryLevel> FrontEnd<N> {
    /// Mounts the buffers `stages` describes, outermost first, in front of
    /// `dl1`; no stages builds the plain organization.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] if a stage fails
    /// [`StageSpec::validate`] for the DL1's line size.
    pub fn new(stages: &[StageSpec], dl1: Cache<N>) -> Result<Self, SttError> {
        let line_bits = dl1.config().line_bytes() * 8;
        let buffers = stages
            .iter()
            .map(|&spec| LineBuffer::new(spec, line_bits))
            .collect::<Result<_, _>>()?;
        Ok(FrontEnd { buffers, dl1 })
    }

    /// Every buffer in front of the DL1.
    fn below(&mut self) -> Below<'_, N> {
        Below {
            rest: &mut self.buffers,
            dl1: &mut self.dl1,
        }
    }

    /// The DL1 statistics.
    pub fn dl1_stats(&self) -> &CacheStats {
        self.dl1.stats()
    }

    /// Labelled statistics of every buffer in the front-end, outermost
    /// first (empty for the plain organizations).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.buffers
            .iter()
            .map(|b| StageStats {
                kind: b.kind(),
                stats: b.stats(),
            })
            .collect()
    }

    /// Drains only the buffers, outermost first, each one through the
    /// buffers after it: the buffers are volatile register files, so
    /// power-gating must drain them even when the DL1 is non-volatile.
    /// Entries stay resident and become clean. Returns the lines written
    /// back and the cycle at which the last write-back was accepted.
    pub fn flush_buffers(&mut self, now: Cycle) -> (usize, Cycle) {
        let (mut flushed, mut done) = (0, now);
        for i in 0..self.buffers.len() {
            let (head, rest) = self.buffers.split_at_mut(i + 1);
            let mut below = Below {
                rest,
                dl1: &mut self.dl1,
            };
            let (n, t) = head[i].flush_dirty(&mut below, done);
            flushed += n;
            done = t;
        }
        (flushed, done)
    }

    /// Drains the front-end's private dirty state: the buffers (see
    /// [`flush_buffers`](Self::flush_buffers)), then the DL1 into the
    /// level below. Lines stay resident and become clean; what lands
    /// below stays dirty there until its owner drains it. Returns the
    /// lines written back and the cycle at which the last write-back was
    /// accepted.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let (front, done) = self.flush_buffers(now);
        let (n1, t1) = self.dl1.flush_dirty(done);
        (front + n1, t1)
    }

    /// Dirty entries still held by the buffers. Zero after a completed
    /// [`flush_buffers`](Self::flush_buffers).
    pub fn dirty_buffer_entries(&self) -> usize {
        self.buffers.iter().map(LineBuffer::dirty_entries).sum()
    }

    /// Dirty state still held privately (buffer entries plus DL1 dirty
    /// lines). Zero after a completed [`flush_dirty`](Self::flush_dirty).
    pub fn dirty_line_count(&self) -> usize {
        self.dirty_buffer_entries() + self.dl1.dirty_lines()
    }

    /// Base address and line size of every line resident in the buffers
    /// and the DL1, for phantom-line verification against the trace's
    /// footprint.
    pub fn resident_lines(&self) -> Vec<(Addr, usize)> {
        let dl1_bytes = self.dl1.config().line_bytes();
        let buffered = self.buffers.iter().flat_map(LineBuffer::resident_lines);
        buffered
            .chain(self.dl1.resident_lines())
            .map(|a| (a, dl1_bytes))
            .collect()
    }

    /// End-of-run verification of the buffers and the DL1, reported
    /// through [`sttcache_mem::invariants`]: no dirty line may remain
    /// once the front-end has been drained with
    /// [`flush_dirty`](Self::flush_dirty).
    pub fn check_drained(&self, now: Cycle) {
        for b in &self.buffers {
            b.check_invariants(now);
        }
        let front_dirty = self.dirty_buffer_entries();
        if front_dirty > 0 {
            sttcache_mem::invariants::report(
                "front-end",
                now,
                None,
                format!("{front_dirty} dirty buffer entries remain after drain"),
            );
        }
        self.dl1.check_drained(now);
    }
}

/// The single-core front-end owns its L2, so the L2 and memory statistics
/// are reachable from it. Through a shared L2 they belong to the platform.
impl FrontEnd {
    /// The L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.dl1.next_level().stats()
    }

    /// The main-memory statistics.
    pub fn memory_stats(&self) -> &CacheStats {
        self.dl1.next_level().next_level().stats()
    }
}

impl<N: MemoryLevel> DataPort for FrontEnd<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.below().read(addr, now).complete_at
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.below().write(addr, now).complete_at
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        // An ARM `PLD` probes the L1 tags and fetches the line on a miss,
        // without blocking the core; a VWB promotes the line into its own
        // storage instead (the paper's VWB-targeted prefetching).
        self.below().prefetch(addr, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vwb::VwbConfig;
    use crate::{l2_config, nvm_dl1_config, SharedL2};
    use sttcache_mem::Shared;

    fn tail() -> Cache<MainMemory> {
        Cache::new(l2_config().unwrap(), MainMemory::new(100))
    }

    /// An NVM DL1 over `next`, behind the `stages` buffers.
    fn front_end<N: MemoryLevel>(stages: &[StageSpec], next: N) -> FrontEnd<N> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), next);
        FrontEnd::new(stages, dl1).unwrap()
    }

    const VWB: &[StageSpec] = &[StageSpec::Vwb(VwbConfig {
        capacity_bits: 2048,
        hit_cycles: 1,
        promotion_cycles: 0,
        model_search_cost: false,
    })];

    #[test]
    fn plain_front_end_reaches_all_levels() {
        let mut fe = front_end(&[], tail());
        fe.read(Addr(0), 0);
        assert_eq!(fe.dl1_stats().reads, 1);
        assert_eq!(fe.l2_stats().reads, 1);
        assert_eq!(fe.memory_stats().reads, 1);
        assert!(fe.stage_stats().is_empty());
    }

    #[test]
    fn vwb_front_end_reports_buffer_stats() {
        let mut fe = front_end(VWB, tail());
        let t = fe.read(Addr(0), 0);
        fe.read(Addr(8), t);
        let stages = fe.stage_stats();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].kind, "vwb");
        assert_eq!(stages[0].stats.reads, 2);
        assert_eq!(stages[0].stats.read_hits, 1);
    }

    #[test]
    fn plain_prefetch_fetches_missing_lines_only() {
        let mut fe = front_end(&[], tail());
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.dl1_stats().accesses(), 1);
        // A hint for a resident line is dropped after the tag probe.
        fe.prefetch(Addr(0), 500);
        assert_eq!(fe.dl1_stats().accesses(), 1);
    }

    #[test]
    fn vwb_prefetch_promotes() {
        let mut fe = front_end(VWB, tail());
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.stage_stats()[0].stats.prefetch_fills, 1);
    }

    #[test]
    fn stacked_stages_compose_without_new_variants() {
        let stack = crate::catalog::HYBRID_STACK;
        let mut fe = front_end(&[stack.outer, stack.inner], tail());
        let t = fe.read(Addr(0), 0);
        // The VWB promoted the line; a same-line read hits at buffer speed.
        let t2 = fe.read(Addr(8), t);
        assert_eq!(t2, t + 1);
        let stages = fe.stage_stats();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].kind, "vwb");
        assert_eq!(stages[1].kind, "emshr");
        assert_eq!(stages[0].stats.reads, 2);
        // The VWB's promotion read flowed *through* the EMSHR stage.
        assert!(stages[1].stats.reads >= 1);
        // Drain verification covers both stages.
        fe.write(Addr(0), t2);
        assert!(fe.dirty_line_count() > 0);
        let (_, done) = fe.flush_dirty(t2 + 100);
        assert_eq!(fe.dirty_line_count(), 0, "drain incomplete at {done}");
    }

    #[test]
    fn flush_buffers_drains_each_buffer_through_the_ones_after_it() {
        let stack = crate::catalog::HYBRID_STACK;
        let mut fe = front_end(&[stack.outer, stack.inner], tail());
        // A DL1 miss the EMSHR captures and the VWB promotes; the store
        // then dirties the VWB's copy only.
        let t = fe.read(Addr(0), 0);
        let t = fe.write(Addr(0), t);
        assert_eq!(fe.dirty_buffer_entries(), 1);
        let writes = fe.dl1_stats().writes;
        let (flushed, done) = fe.flush_buffers(t);
        assert!(done > t);
        // The VWB's write-back coalesced into the EMSHR's retained entry
        // (one line) and drained from there into the DL1 (a second),
        // which stays dirty.
        assert_eq!((flushed, fe.dirty_buffer_entries()), (2, 0));
        assert_eq!(fe.dl1_stats().writes, writes + 1);
        assert_eq!(fe.dirty_line_count(), 1);
    }

    #[test]
    fn invalid_stages_are_refused() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), tail());
        let tiny = StageSpec::Vwb(VwbConfig {
            capacity_bits: 64,
            ..VwbConfig::default()
        });
        let err = FrontEnd::new(&[tiny], dl1).unwrap_err().to_string();
        assert_eq!(
            err,
            "vwb configuration: capacity 64 bits holds no 512-bit line"
        );
    }

    /// Writes a line through `fe`, drains it, and checks the owner-drains
    /// rule: the stage and the DL1 end clean, while the written-back line
    /// stays dirty in the L2. Returns the cycle the drain finished at.
    fn assert_owner_drains<N: MemoryLevel>(
        mut fe: FrontEnd<N>,
        l2_dirty: impl Fn(&FrontEnd<N>) -> usize,
    ) -> Cycle {
        let t = fe.write(Addr(0), 0);
        assert!(fe.dirty_line_count() > 0);
        let (flushed, done) = fe.flush_dirty(t + 100);
        assert!(flushed > 0);
        assert_eq!(fe.dirty_line_count(), 0);
        assert_eq!(l2_dirty(&fe), 1, "the write-back must stay dirty in the L2");
        done
    }

    #[test]
    fn front_end_drains_only_what_it_owns() {
        for stages in [VWB, &[]] {
            assert_owner_drains(front_end(stages, tail()), |fe| {
                fe.dl1.next_level().dirty_lines()
            });
            // The shared L2's owner drains it through its own handle.
            let l2: SharedL2 = Shared::new(tail());
            let done =
                assert_owner_drains(front_end(stages, l2.clone()), |_| l2.borrow().dirty_lines());
            l2.borrow_mut().flush_dirty(done);
            assert_eq!(l2.borrow().dirty_lines(), 0);
        }
    }
}
