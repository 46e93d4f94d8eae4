//! The unified data-port front-end.
//!
//! One [`FrontEnd`] type serves both platforms: the single-core
//! [`crate::Platform`] mounts it over an owned L2 (`FrontEnd`, i.e.
//! `FrontEnd<Cache<MainMemory>>`), and every core of a
//! [`crate::MultiPlatform`] mounts it over a handle to the shared L2
//! (`FrontEnd<SharedL2>`).
//!
//! **Owner drains.** A front-end drains and audits what it owns
//! privately — the buffer stage and the DL1. The level below is drained
//! by its owner: the multi-core platform drains the shared L2 once, after
//! every core, and single-core harnesses that audit the whole
//! organization drain [`FrontEnd::l2_mut`] after the front-end.

use crate::stage::{probe_then_fetch, BufferStage, Buffered, StageStats};
use sttcache_cpu::{DataPort, MemPort};
use sttcache_mem::{Addr, Cache, CacheStats, Cycle, MainMemory, MemoryLevel};

/// An evaluated L1 D-cache organization over a DL1 whose next level is
/// `N`, unified behind a single [`DataPort`] so a platform can hold any
/// organization in one core type.
///
/// * `Plain` — the core talks straight to the DL1 (the SRAM baseline and
///   the drop-in NVM configuration of Fig. 1);
/// * `Buffered` — any [`BufferStage`] composition in front of the DL1:
///   the paper's VWB proposal (Figs. 3–7, 9), the Fig. 8 L0/EMSHR
///   comparison baselines, and catalog-only stage stacks. New
///   organizations are a stage composition, not a new variant here.
#[derive(Debug, Clone)]
pub enum FrontEnd<N = Cache<MainMemory>> {
    /// Direct DL1 access.
    Plain(MemPort<Cache<N>>),
    /// A buffer-stage composition in front of the DL1.
    Buffered(Buffered<Box<dyn BufferStage>, Cache<N>>),
}

impl<N: MemoryLevel> FrontEnd<N> {
    /// Mounts `stage`, if any, in front of `dl1`: `None` builds the plain
    /// organization.
    pub fn new(stage: Option<Box<dyn BufferStage>>, dl1: Cache<N>) -> Self {
        match stage {
            None => FrontEnd::Plain(MemPort::new(dl1)),
            Some(stage) => FrontEnd::Buffered(Buffered::compose(stage, dl1)),
        }
    }

    /// The DL1 behind whatever buffer structure this front-end has.
    fn dl1(&self) -> &Cache<N> {
        match self {
            FrontEnd::Plain(p) => p.level(),
            FrontEnd::Buffered(b) => b.below(),
        }
    }

    /// Mutable access to the DL1.
    fn dl1_mut(&mut self) -> &mut Cache<N> {
        match self {
            FrontEnd::Plain(p) => p.level_mut(),
            FrontEnd::Buffered(b) => b.below_mut(),
        }
    }

    /// The DL1 statistics.
    pub fn dl1_stats(&self) -> &CacheStats {
        self.dl1().stats()
    }

    /// Labelled statistics of every buffer stage in the front-end,
    /// outermost first (empty for `Plain`).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        match self {
            FrontEnd::Plain(_) => Vec::new(),
            FrontEnd::Buffered(b) => {
                let mut out = Vec::new();
                b.stage().collect_stats(&mut out);
                out
            }
        }
    }

    /// Resets all statistics in the front-end and the hierarchy below it
    /// (`Cache::reset_stats` recurses, so through a shared L2 this clears
    /// the L2 for every core); cache and buffer *contents* are kept
    /// (warm-up support).
    pub fn reset_stats(&mut self) {
        match self {
            FrontEnd::Plain(p) => p.level_mut().reset_stats(),
            FrontEnd::Buffered(b) => b.reset_stats(),
        }
    }

    /// Drains the front-end's private dirty state: the buffer stages into
    /// the DL1, then the DL1 into the level below. Lines stay resident and
    /// become clean; what lands below stays dirty there until its owner
    /// drains it. Returns the lines written back and the cycle at which
    /// the last write-back was accepted.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let (front, done) = match self {
            FrontEnd::Plain(_) => (0, now),
            FrontEnd::Buffered(b) => b.flush_dirty(now),
        };
        let (n1, t1) = self.dl1_mut().flush_dirty(done);
        (front + n1, t1)
    }

    /// Dirty state still held privately (buffer entries plus DL1 dirty
    /// lines). Zero after a completed [`flush_dirty`](Self::flush_dirty).
    pub fn dirty_line_count(&self) -> usize {
        let front = match self {
            FrontEnd::Plain(_) => 0,
            FrontEnd::Buffered(b) => b.dirty_entries(),
        };
        front + self.dl1().dirty_lines()
    }

    /// Base address and line size of every line resident in the stage and
    /// the DL1, for phantom-line verification against a functional oracle.
    pub fn resident_lines(&self) -> Vec<(Addr, usize)> {
        let dl1_bytes = self.dl1().config().line_bytes();
        let mut lines = match self {
            FrontEnd::Plain(_) => Vec::new(),
            FrontEnd::Buffered(b) => b.resident_lines(),
        };
        lines.extend(self.dl1().resident_lines());
        lines.into_iter().map(|a| (a, dl1_bytes)).collect()
    }

    /// End-of-run verification of the stage and the DL1, reported through
    /// [`sttcache_mem::invariants`]: no leaked MSHR allocation and no
    /// dirty line may remain once the front-end has been drained with
    /// [`flush_dirty`](Self::flush_dirty).
    pub fn check_drained(&self, now: Cycle) {
        let front_dirty = match self {
            FrontEnd::Plain(_) => 0,
            FrontEnd::Buffered(b) => {
                b.check_invariants(now);
                b.dirty_entries()
            }
        };
        if front_dirty > 0 {
            sttcache_mem::invariants::report(
                "front-end",
                now,
                None,
                format!("{front_dirty} dirty buffer entries remain after drain"),
            );
        }
        self.dl1().check_drained(now);
    }
}

/// The single-core front-end owns its L2, so the L2 and memory are
/// reachable from it. Through a shared L2 they belong to the platform.
impl FrontEnd {
    /// The L2 behind the DL1.
    pub fn l2(&self) -> &Cache<MainMemory> {
        self.dl1().next_level()
    }

    /// Mutable access to the L2 — how its owner drains it.
    pub fn l2_mut(&mut self) -> &mut Cache<MainMemory> {
        self.dl1_mut().next_level_mut()
    }

    /// The L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2().stats()
    }

    /// The main-memory statistics.
    pub fn memory_stats(&self) -> &CacheStats {
        self.l2().next_level().stats()
    }
}

impl<N: MemoryLevel> DataPort for FrontEnd<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            FrontEnd::Plain(p) => p.read(addr, now),
            FrontEnd::Buffered(b) => b.read(addr, now),
        }
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            FrontEnd::Plain(p) => p.write(addr, now),
            FrontEnd::Buffered(b) => b.write(addr, now),
        }
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        // An ARM `PLD` probes the L1 tags and fetches the line on a miss,
        // without blocking the core. Stages that promote already-resident
        // lines into their own storage (the VWB — the paper's VWB-targeted
        // prefetching) override `BufferStage::prefetch`.
        match self {
            FrontEnd::Plain(p) => probe_then_fetch(p.level_mut(), addr, now),
            FrontEnd::Buffered(b) => b.prefetch(addr, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{StackSpec, StageSpec};
    use crate::vwb::VwbConfig;
    use crate::{l2_config, nvm_dl1_config, SharedL2};
    use sttcache_mem::Shared;

    fn tail() -> Cache<MainMemory> {
        Cache::new(l2_config().unwrap(), MainMemory::new(100))
    }

    /// An NVM DL1 over `next`, behind `spec`'s stage when given.
    fn front_end<N: MemoryLevel>(spec: Option<StageSpec>, next: N) -> FrontEnd<N> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), next);
        let line_bits = dl1.config().line_bytes() * 8;
        FrontEnd::new(spec.map(|s| s.build(line_bits).unwrap()), dl1)
    }

    fn vwb() -> Option<StageSpec> {
        Some(StageSpec::Vwb(VwbConfig::default()))
    }

    #[test]
    fn plain_front_end_reaches_all_levels() {
        let mut fe = front_end(None, tail());
        fe.read(Addr(0), 0);
        assert_eq!(fe.dl1_stats().reads, 1);
        assert_eq!(fe.l2_stats().reads, 1);
        assert_eq!(fe.memory_stats().reads, 1);
        assert!(fe.stage_stats().is_empty());
    }

    #[test]
    fn vwb_front_end_reports_buffer_stats() {
        let mut fe = front_end(vwb(), tail());
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
        let mut fe = front_end(None, tail());
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.dl1_stats().accesses(), 1);
        // A hint for a resident line is dropped after the tag probe.
        fe.prefetch(Addr(0), 500);
        assert_eq!(fe.dl1_stats().accesses(), 1);
    }

    #[test]
    fn vwb_prefetch_promotes() {
        let mut fe = front_end(vwb(), tail());
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.stage_stats()[0].stats.prefetch_fills, 1);
    }

    #[test]
    fn stacked_stages_compose_without_new_variants() {
        let spec = StackSpec {
            name: "test stack",
            outer: StageSpec::Vwb(VwbConfig::default()),
            inner: StageSpec::Emshr(crate::baselines::EmshrConfig::default()),
        };
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), tail());
        let line_bits = dl1.config().line_bytes() * 8;
        let mut fe = FrontEnd::new(Some(Box::new(spec.build(line_bits).unwrap())), dl1);
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

    /// Writes a line through `fe`, drains it, and checks the owner-drains
    /// rule: the stage and the DL1 end clean, while the written-back line
    /// stays dirty in the L2 until `drain_l2` — its owner — runs.
    fn assert_owner_drains<N: MemoryLevel>(
        mut fe: FrontEnd<N>,
        l2_dirty: impl Fn(&FrontEnd<N>) -> usize,
        drain_l2: impl FnOnce(&mut FrontEnd<N>, Cycle),
    ) {
        let t = fe.write(Addr(0), 0);
        assert!(fe.dirty_line_count() > 0);
        let (flushed, done) = fe.flush_dirty(t + 100);
        assert!(flushed > 0);
        assert_eq!(fe.dirty_line_count(), 0);
        assert_eq!(l2_dirty(&fe), 1, "the write-back must stay dirty in the L2");
        drain_l2(&mut fe, done);
        assert_eq!(l2_dirty(&fe), 0);
    }

    #[test]
    fn front_end_drains_only_what_it_owns() {
        for spec in [vwb(), None] {
            assert_owner_drains(
                front_end(spec, tail()),
                |fe| fe.l2().dirty_lines(),
                |fe, now| {
                    fe.l2_mut().flush_dirty(now);
                },
            );
            let l2: SharedL2 = Shared::new(tail());
            assert_owner_drains(
                front_end(spec, l2.clone()),
                |_| l2.borrow().dirty_lines(),
                |_, now| {
                    l2.borrow_mut().flush_dirty(now);
                },
            );
        }
    }
}
