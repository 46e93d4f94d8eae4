//! The unified data-port front-end.

use crate::stage::{probe_then_fetch, BufferStage, Buffered, StageStats, StageTelemetry};
use crate::Hierarchy;
use sttcache_cpu::{DataPort, MemPort};
use sttcache_mem::{Addr, CacheStats, Cycle, MemoryLevel};

/// An evaluated L1 D-cache organization, unified behind a single
/// [`DataPort`] so the [`crate::Platform`] can hold any of them in one
/// core type.
///
/// * `Plain` — the core talks straight to the DL1 (the SRAM baseline and
///   the drop-in NVM configuration of Fig. 1);
/// * `Buffered` — any [`BufferStage`] composition in front of the DL1:
///   the paper's VWB proposal (Figs. 3–7, 9), the Fig. 8 L0/EMSHR
///   comparison baselines, and catalog-only stage stacks. New
///   organizations are a stage composition, not a new variant here.
#[derive(Debug, Clone)]
pub enum FrontEnd {
    /// Direct DL1 access.
    Plain(MemPort<Hierarchy>),
    /// A buffer-stage composition in front of the DL1.
    Buffered(Buffered<Box<dyn BufferStage>, Hierarchy>),
}

impl FrontEnd {
    /// Wraps a ready-built stage composition around `dl1`.
    pub fn buffered(stage: Box<dyn BufferStage>, dl1: Hierarchy) -> Self {
        FrontEnd::Buffered(Buffered::compose(stage, dl1))
    }

    /// The DL1 behind whatever buffer structure this front-end has.
    fn dl1(&self) -> &Hierarchy {
        match self {
            FrontEnd::Plain(p) => p.level(),
            FrontEnd::Buffered(b) => b.below(),
        }
    }

    /// Mutable access to the DL1.
    fn dl1_mut(&mut self) -> &mut Hierarchy {
        match self {
            FrontEnd::Plain(p) => p.level_mut(),
            FrontEnd::Buffered(b) => b.below_mut(),
        }
    }

    /// Statistics of the hierarchy level `depth` below the front buffer
    /// (0 = DL1, 1 = L2, 2 = main memory).
    fn level_stats(&self, depth: usize) -> &CacheStats {
        self.dl1()
            .levels()
            .nth(depth)
            .expect("the hierarchy is dl1 -> l2 -> memory")
            .stats()
    }

    /// The DL1 statistics.
    pub fn dl1_stats(&self) -> &CacheStats {
        self.level_stats(0)
    }

    /// The L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.level_stats(1)
    }

    /// The main-memory statistics.
    pub fn memory_stats(&self) -> &CacheStats {
        self.level_stats(2)
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

    /// Occupancy snapshots of every buffer stage in the front-end,
    /// outermost first (empty for `Plain`); the telemetry-side companion
    /// of [`FrontEnd::stage_stats`].
    pub fn stage_telemetry(&self) -> Vec<StageTelemetry> {
        match self {
            FrontEnd::Plain(_) => Vec::new(),
            FrontEnd::Buffered(b) => {
                let mut out = Vec::new();
                b.stage()
                    .collect_telemetry(b.below().config().line_bytes(), &mut out);
                out
            }
        }
    }

    /// Resets all statistics in the front-end and the hierarchy below it;
    /// cache and buffer *contents* are kept (warm-up support).
    pub fn reset_stats(&mut self) {
        match self {
            FrontEnd::Plain(p) => p.level_mut().reset_stats(),
            FrontEnd::Buffered(b) => b.reset_stats(),
        }
    }

    /// Drains every dirty line in the whole organization to backing
    /// memory: first the front buffer stages into the DL1, then the DL1
    /// into the L2, then the L2 into memory. Lines stay resident and
    /// become clean. Returns the total lines written back and the cycle
    /// at which the last write-back was accepted.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let (front, done) = match self {
            FrontEnd::Plain(_) => (0, now),
            FrontEnd::Buffered(b) => b.flush_dirty(now),
        };
        let dl1 = self.dl1_mut();
        let (n1, t1) = dl1.flush_dirty(done);
        let (n2, t2) = dl1.next_level_mut().flush_dirty(t1);
        (front + n1 + n2, t2)
    }

    /// Dirty state still held anywhere in the organization (front buffer
    /// entries plus DL1 and L2 dirty lines). Zero after a completed
    /// [`flush_dirty`](Self::flush_dirty).
    pub fn dirty_line_count(&self) -> usize {
        let front = match self {
            FrontEnd::Plain(_) => 0,
            FrontEnd::Buffered(b) => b.dirty_entries(),
        };
        front + self.dl1().dirty_lines() + self.dl1().next_level().dirty_lines()
    }

    /// Base address and line size of every line resident anywhere in the
    /// organization, for phantom-line verification against a functional
    /// oracle.
    pub fn resident_lines(&self) -> Vec<(Addr, usize)> {
        let mut lines: Vec<(Addr, usize)> = Vec::new();
        let dl1_bytes = self.dl1().config().line_bytes();
        if let FrontEnd::Buffered(b) = self {
            lines.extend(b.resident_lines().into_iter().map(|a| (a, dl1_bytes)));
        }
        lines.extend(
            self.dl1()
                .resident_lines()
                .into_iter()
                .map(|a| (a, dl1_bytes)),
        );
        let l2 = self.dl1().next_level();
        let l2_bytes = l2.config().line_bytes();
        lines.extend(l2.resident_lines().into_iter().map(|a| (a, l2_bytes)));
        lines
    }

    /// End-of-run verification, reported through
    /// [`sttcache_mem::invariants`]: no leaked MSHR allocation and no
    /// dirty line may remain at any level once the organization has been
    /// drained with [`flush_dirty`](Self::flush_dirty).
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
        self.dl1().next_level().check_drained(now);
    }
}

impl DataPort for FrontEnd {
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
    use crate::{l2_config, nvm_dl1_config};
    use sttcache_mem::{Cache, CacheConfig, MainMemory};

    fn tail() -> Cache<MainMemory> {
        Cache::new(l2_config().unwrap(), MainMemory::new(100))
    }

    fn dl1(cfg: CacheConfig) -> Hierarchy {
        Cache::new(cfg, tail())
    }

    fn buffered(spec: StageSpec) -> FrontEnd {
        let dl1 = dl1(nvm_dl1_config().unwrap());
        let line_bits = dl1.config().line_bytes() * 8;
        FrontEnd::buffered(spec.build(line_bits).unwrap(), dl1)
    }

    #[test]
    fn plain_front_end_reaches_all_levels() {
        let mut fe = FrontEnd::Plain(MemPort::new(dl1(nvm_dl1_config().unwrap())));
        fe.read(Addr(0), 0);
        assert_eq!(fe.dl1_stats().reads, 1);
        assert_eq!(fe.l2_stats().reads, 1);
        assert_eq!(fe.memory_stats().reads, 1);
        assert!(fe.stage_stats().is_empty());
    }

    #[test]
    fn vwb_front_end_reports_buffer_stats() {
        let mut fe = buffered(StageSpec::Vwb(VwbConfig::default()));
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
        let mut fe = FrontEnd::Plain(MemPort::new(dl1(nvm_dl1_config().unwrap())));
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.dl1_stats().accesses(), 1);
        // A hint for a resident line is dropped after the tag probe.
        fe.prefetch(Addr(0), 500);
        assert_eq!(fe.dl1_stats().accesses(), 1);
    }

    #[test]
    fn vwb_prefetch_promotes() {
        let mut fe = buffered(StageSpec::Vwb(VwbConfig::default()));
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.stage_stats()[0].stats.prefetch_fills, 1);
    }

    #[test]
    fn stage_telemetry_reports_capacity_and_residency() {
        let plain = FrontEnd::Plain(MemPort::new(dl1(nvm_dl1_config().unwrap())));
        assert!(plain.stage_telemetry().is_empty());
        let mut fe = buffered(StageSpec::Vwb(VwbConfig::default()));
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(8), t);
        let tel = fe.stage_telemetry();
        assert_eq!(tel.len(), 1);
        assert_eq!(tel[0].kind, "vwb");
        assert_eq!(tel[0].capacity, 4);
        assert_eq!(tel[0].resident, 1);
        assert_eq!(tel[0].dirty, 1);
    }

    #[test]
    fn stacked_stage_telemetry_lists_both_constituents() {
        let spec = StackSpec {
            name: "test stack",
            outer: StageSpec::Vwb(VwbConfig::default()),
            inner: StageSpec::Emshr(crate::baselines::EmshrConfig::default()),
        };
        let dl1 = dl1(nvm_dl1_config().unwrap());
        let line_bits = dl1.config().line_bytes() * 8;
        let mut fe = FrontEnd::buffered(Box::new(spec.build(line_bits).unwrap()), dl1);
        fe.read(Addr(0), 0);
        let tel = fe.stage_telemetry();
        assert_eq!(tel.len(), 2);
        assert_eq!(tel[0].kind, "vwb");
        assert_eq!(tel[1].kind, "emshr");
        assert!(tel.iter().all(|t| t.capacity == 4));
    }

    #[test]
    fn stacked_stages_compose_without_new_variants() {
        let spec = StackSpec {
            name: "test stack",
            outer: StageSpec::Vwb(VwbConfig::default()),
            inner: StageSpec::Emshr(crate::baselines::EmshrConfig::default()),
        };
        let dl1 = dl1(nvm_dl1_config().unwrap());
        let line_bits = dl1.config().line_bytes() * 8;
        let mut fe = FrontEnd::buffered(Box::new(spec.build(line_bits).unwrap()), dl1);
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
}
