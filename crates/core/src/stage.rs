//! Composable data-path stages.
//!
//! Every evaluated L1 D-cache organization is a (possibly empty) stack of
//! small buffer structures — VWB, L0, EMSHR — in front of the DL1. This
//! module makes that composition explicit: a [`BufferStage`] serves reads,
//! writes and prefetch hints against a generic backing [`MemoryLevel`],
//! and exposes the drain/verification surface (`flush_dirty`,
//! `dirty_entries`, `resident_lines`, `check_invariants`) plus a unified
//! [`BufferStats`] view. [`Buffered`] pairs one stage with its backing
//! hierarchy behind [`DataPort`], and [`StackedStage`] nests one stage
//! over another, so new organizations are a composition plus a catalog
//! entry instead of a new front-end variant.

use crate::SttError;
use sttcache_cpu::DataPort;
use sttcache_mem::{AccessOutcome, Addr, CacheStats, Cycle, MemoryLevel};

/// Unified statistics for any [`BufferStage`].
///
/// The per-structure vocabularies map onto one block: VWB *promotions*,
/// L0 *fills* and EMSHR *allocations* are all [`BufferStats::fills`];
/// absorbed stores (VWB write hits, EMSHR coalesced writes) are
/// [`BufferStats::write_hits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Loads presented to the stage.
    pub reads: u64,
    /// Loads served from the stage's own entries.
    pub read_hits: u64,
    /// Stores presented to the stage.
    pub writes: u64,
    /// Stores absorbed by the stage (entry already present).
    pub write_hits: u64,
    /// Lines brought into the stage (promotions, fills, captures).
    pub fills: u64,
    /// Dirty entries written back below on eviction.
    pub dirty_evictions: u64,
    /// Prefetch hints that triggered a fill.
    pub prefetch_fills: u64,
    /// Prefetch hints dropped (line already present or in flight).
    pub prefetch_drops: u64,
}

impl BufferStats {
    /// Read hit rate (0 when idle).
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads as f64
        }
    }

    /// Element-wise sum (used by [`StackedStage`] to aggregate).
    pub fn merged(&self, other: &BufferStats) -> BufferStats {
        BufferStats {
            reads: self.reads + other.reads,
            read_hits: self.read_hits + other.read_hits,
            writes: self.writes + other.writes,
            write_hits: self.write_hits + other.write_hits,
            fills: self.fills + other.fills,
            dirty_evictions: self.dirty_evictions + other.dirty_evictions,
            prefetch_fills: self.prefetch_fills + other.prefetch_fills,
            prefetch_drops: self.prefetch_drops + other.prefetch_drops,
        }
    }
}

/// One stage's statistics, labelled with the stage kind (`"vwb"`, `"l0"`,
/// `"emshr"`), as collected by [`BufferStage::collect_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The stage kind that produced the numbers.
    pub kind: &'static str,
    /// The stage's counters.
    pub stats: BufferStats,
}

/// A point-in-time occupancy snapshot of one stage, as collected by
/// [`BufferStage::collect_telemetry`]. Unlike [`StageStats`] (cumulative
/// counters, always on), this is the end-of-run residency picture the
/// explain report pairs with the cycle-resolved samples in
/// [`sttcache_mem::telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTelemetry {
    /// The stage kind that produced the snapshot.
    pub kind: &'static str,
    /// Lines currently resident in the stage.
    pub resident: usize,
    /// Dirty entries currently held.
    pub dirty: usize,
    /// Entry capacity (0 when the stage does not expose one).
    pub capacity: usize,
}

/// The shared prefetch-hint policy: an ARM `PLD` probes the backing
/// level's tags and fetches the line on a miss, without blocking the core.
/// Stages that promote resident lines into their own storage (the VWB)
/// override [`BufferStage::prefetch`] instead.
/// Generic over the backing level so the plain front-ends call it on
/// their concrete DL1; `?Sized` admits the `&mut dyn MemoryLevel`
/// callers inside boxed stages.
pub fn probe_then_fetch<M: MemoryLevel + ?Sized>(below: &mut M, addr: Addr, now: Cycle) {
    if !below.contains(addr) {
        let _ = below.read(addr, now);
    }
}

/// A small buffer structure between the datapath and a backing
/// [`MemoryLevel`].
///
/// Object-safe: organizations hold stages as `Box<dyn BufferStage>` and
/// compose them with [`StackedStage`] without new enum variants. Timing
/// flows through the [`AccessOutcome`] returned by `read`/`write`; a
/// stage hit reports [`ServedBy::ThisLevel`](sttcache_mem::ServedBy),
/// while misses propagate the backing level's verdict so stacked stages
/// (an EMSHR under a VWB, say) still see where a request was served.
pub trait BufferStage: std::fmt::Debug {
    /// Short stable identifier (`"vwb"`, `"l0"`, `"emshr"`, `"stack"`)
    /// used for stats labelling and report sections.
    fn kind(&self) -> &'static str;

    /// Serves a load at `now`, reading through `below` on a miss.
    fn read(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome;

    /// Serves a store at `now`, writing through `below` on a miss.
    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome;

    /// Handles a software prefetch hint (non-blocking).
    ///
    /// The default is the shared probe-then-fetch policy against `below`;
    /// the VWB overrides this to promote into its own buffer.
    fn prefetch(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) {
        probe_then_fetch(below, addr, now);
    }

    /// Whether the stage itself holds the line containing `addr`
    /// (`line_bytes` is the backing level's line size).
    fn contains(&self, addr: Addr, line_bytes: usize) -> bool;

    /// Writes every dirty entry back into `below`. Entries stay resident
    /// and become clean. Returns the number of lines written and the
    /// completion cycle.
    fn flush_dirty(&mut self, below: &mut dyn MemoryLevel, now: Cycle) -> (usize, Cycle);

    /// Number of dirty entries currently held (drain verification).
    fn dirty_entries(&self) -> usize;

    /// Base addresses of every line resident in the stage.
    fn resident_lines(&self, line_bytes: usize) -> Vec<Addr>;

    /// Structural checks, reported through [`sttcache_mem::invariants`].
    fn check_invariants(&self, now: Cycle);

    /// Resets the stage's statistics (contents are kept).
    fn reset_stats(&mut self);

    /// The stage's counters.
    fn stats(&self) -> BufferStats;

    /// Appends this stage's labelled statistics to `out`; composite
    /// stages recurse so every constituent appears once, outermost first.
    fn collect_stats(&self, out: &mut Vec<StageStats>) {
        out.push(StageStats {
            kind: self.kind(),
            stats: self.stats(),
        });
    }

    /// Appends this stage's occupancy snapshot to `out`; composite stages
    /// recurse, mirroring [`BufferStage::collect_stats`]. The default
    /// derives residency from the drain surface; stages with a known
    /// entry capacity override to report it.
    fn collect_telemetry(&self, line_bytes: usize, out: &mut Vec<StageTelemetry>) {
        out.push(StageTelemetry {
            kind: self.kind(),
            resident: self.resident_lines(line_bytes).len(),
            dirty: self.dirty_entries(),
            capacity: 0,
        });
    }

    /// Clones the stage behind the object-safe interface.
    fn boxed_clone(&self) -> Box<dyn BufferStage>;
}

impl Clone for Box<dyn BufferStage> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

impl BufferStage for Box<dyn BufferStage> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn read(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        (**self).read(below, addr, now)
    }

    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        (**self).write(below, addr, now)
    }

    fn prefetch(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) {
        (**self).prefetch(below, addr, now);
    }

    fn contains(&self, addr: Addr, line_bytes: usize) -> bool {
        (**self).contains(addr, line_bytes)
    }

    fn flush_dirty(&mut self, below: &mut dyn MemoryLevel, now: Cycle) -> (usize, Cycle) {
        (**self).flush_dirty(below, now)
    }

    fn dirty_entries(&self) -> usize {
        (**self).dirty_entries()
    }

    fn resident_lines(&self, line_bytes: usize) -> Vec<Addr> {
        (**self).resident_lines(line_bytes)
    }

    fn check_invariants(&self, now: Cycle) {
        (**self).check_invariants(now);
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }

    fn stats(&self) -> BufferStats {
        (**self).stats()
    }

    fn collect_stats(&self, out: &mut Vec<StageStats>) {
        (**self).collect_stats(out);
    }

    fn collect_telemetry(&self, line_bytes: usize, out: &mut Vec<StageTelemetry>) {
        (**self).collect_telemetry(line_bytes, out);
    }

    fn boxed_clone(&self) -> Box<dyn BufferStage> {
        (**self).boxed_clone()
    }
}

/// A [`BufferStage`] paired with its backing hierarchy, exposed as a
/// [`DataPort`] for the core.
///
/// The concrete organizations are aliases of this type —
/// [`VwbFrontEnd`](crate::VwbFrontEnd),
/// [`L0FrontEnd`](crate::baselines::L0FrontEnd),
/// [`EmshrFrontEnd`](crate::baselines::EmshrFrontEnd) — each with an
/// inherent `new` validating its stage configuration.
#[derive(Debug, Clone)]
pub struct Buffered<S, M> {
    stage: S,
    below: M,
}

impl<S: BufferStage, M: MemoryLevel> Buffered<S, M> {
    /// Pairs a ready-built stage with its backing level.
    pub fn compose(stage: S, below: M) -> Self {
        Buffered { stage, below }
    }

    /// The stage.
    pub fn stage(&self) -> &S {
        &self.stage
    }

    /// Mutable access to the stage.
    pub fn stage_mut(&mut self) -> &mut S {
        &mut self.stage
    }

    /// The backing level.
    pub fn below(&self) -> &M {
        &self.below
    }

    /// Mutable access to the backing level.
    pub fn below_mut(&mut self) -> &mut M {
        &mut self.below
    }

    /// Whether the stage holds the line containing `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.stage.contains(addr, self.below.line_bytes())
    }

    /// Writes every dirty stage entry back into the backing level (the
    /// stage is a volatile register file, so power-gating must drain it
    /// even when the level below is non-volatile). Entries stay resident
    /// and become clean. Returns the number of lines written and the
    /// completion cycle.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        self.stage.flush_dirty(&mut self.below, now)
    }

    /// Number of dirty stage entries currently held (drain verification).
    pub fn dirty_entries(&self) -> usize {
        self.stage.dirty_entries()
    }

    /// Base addresses of the lines currently resident in the stage.
    pub fn resident_lines(&self) -> Vec<Addr> {
        self.stage.resident_lines(self.below.line_bytes())
    }

    /// Structural checks, reported through [`sttcache_mem::invariants`].
    pub fn check_invariants(&self, now: Cycle) {
        self.stage.check_invariants(now);
    }

    /// Resets the stage's and the whole hierarchy's statistics (contents
    /// are kept — used for warm-up runs).
    pub fn reset_stats(&mut self) {
        self.stage.reset_stats();
        self.below.reset_stats();
    }
}

impl<S: BufferStage, M: MemoryLevel> DataPort for Buffered<S, M> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.stage.read(&mut self.below, addr, now).complete_at
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.stage.write(&mut self.below, addr, now).complete_at
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        self.stage.prefetch(&mut self.below, addr, now);
    }
}

/// Adapter presenting "an inner stage over a backing level" as one
/// [`MemoryLevel`], so an outer stage's miss traffic routes *through* the
/// inner stage. The stage's own counters live in its [`BufferStats`];
/// the `CacheStats` surface is an empty placeholder.
struct StagedLevel<'a> {
    stage: &'a mut dyn BufferStage,
    below: &'a mut dyn MemoryLevel,
    stats: CacheStats,
}

impl MemoryLevel for StagedLevel<'_> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stage.read(self.below, addr, now)
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stage.write(self.below, addr, now)
    }

    fn line_bytes(&self) -> usize {
        self.below.line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stage.reset_stats();
        self.below.reset_stats();
    }

    fn contains(&self, addr: Addr) -> bool {
        self.stage.contains(addr, self.below.line_bytes()) || self.below.contains(addr)
    }

    fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        self.below.occupy_bank(addr, from, cycles)
    }
}

/// Two stages in series: `outer` sits toward the datapath, and its miss
/// traffic flows through `inner` before reaching the backing level.
///
/// This is how catalog-only organizations compose existing stages — e.g.
/// the beyond-paper hybrid (a VWB front over an EMSHR-enhanced DL1) is a
/// `StackedStage` of the two existing implementations, with no new
/// front-end code.
#[derive(Debug)]
pub struct StackedStage {
    outer: Box<dyn BufferStage>,
    inner: Box<dyn BufferStage>,
}

impl StackedStage {
    /// Stacks `outer` over `inner`.
    pub fn new(outer: Box<dyn BufferStage>, inner: Box<dyn BufferStage>) -> Self {
        StackedStage { outer, inner }
    }

    /// The datapath-side stage.
    pub fn outer(&self) -> &dyn BufferStage {
        &*self.outer
    }

    /// The memory-side stage.
    pub fn inner(&self) -> &dyn BufferStage {
        &*self.inner
    }
}

impl BufferStage for StackedStage {
    fn kind(&self) -> &'static str {
        "stack"
    }

    fn read(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        let mut level = StagedLevel {
            stage: &mut *self.inner,
            below,
            stats: CacheStats::new(),
        };
        self.outer.read(&mut level, addr, now)
    }

    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        let mut level = StagedLevel {
            stage: &mut *self.inner,
            below,
            stats: CacheStats::new(),
        };
        self.outer.write(&mut level, addr, now)
    }

    fn prefetch(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) {
        let mut level = StagedLevel {
            stage: &mut *self.inner,
            below,
            stats: CacheStats::new(),
        };
        self.outer.prefetch(&mut level, addr, now);
    }

    fn contains(&self, addr: Addr, line_bytes: usize) -> bool {
        self.outer.contains(addr, line_bytes) || self.inner.contains(addr, line_bytes)
    }

    fn flush_dirty(&mut self, below: &mut dyn MemoryLevel, now: Cycle) -> (usize, Cycle) {
        // The outer stage drains through the inner one (its dirty lines
        // belong one stage down, exactly as in live operation), then the
        // inner stage drains into the real backing level.
        let (outer_n, outer_done) = {
            let mut level = StagedLevel {
                stage: &mut *self.inner,
                below,
                stats: CacheStats::new(),
            };
            self.outer.flush_dirty(&mut level, now)
        };
        let (inner_n, done) = self.inner.flush_dirty(below, outer_done);
        (outer_n + inner_n, done)
    }

    fn dirty_entries(&self) -> usize {
        self.outer.dirty_entries() + self.inner.dirty_entries()
    }

    fn resident_lines(&self, line_bytes: usize) -> Vec<Addr> {
        let mut lines = self.outer.resident_lines(line_bytes);
        lines.extend(self.inner.resident_lines(line_bytes));
        lines
    }

    fn check_invariants(&self, now: Cycle) {
        self.outer.check_invariants(now);
        self.inner.check_invariants(now);
    }

    fn reset_stats(&mut self) {
        self.outer.reset_stats();
        self.inner.reset_stats();
    }

    fn stats(&self) -> BufferStats {
        self.outer.stats().merged(&self.inner.stats())
    }

    fn collect_stats(&self, out: &mut Vec<StageStats>) {
        self.outer.collect_stats(out);
        self.inner.collect_stats(out);
    }

    fn collect_telemetry(&self, line_bytes: usize, out: &mut Vec<StageTelemetry>) {
        self.outer.collect_telemetry(line_bytes, out);
        self.inner.collect_telemetry(line_bytes, out);
    }

    fn boxed_clone(&self) -> Box<dyn BufferStage> {
        Box::new(StackedStage {
            outer: self.outer.clone(),
            inner: self.inner.clone(),
        })
    }
}

/// A buildable description of one stage (configuration + kind), `Copy`
/// so organizations stay plain values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSpec {
    /// A Very Wide Buffer stage.
    Vwb(crate::VwbConfig),
    /// An L0-cache stage.
    L0(crate::baselines::L0Config),
    /// An enhanced-MSHR stage.
    Emshr(crate::baselines::EmshrConfig),
}

impl StageSpec {
    /// Builds the stage for a DL1 line of `line_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the configuration is
    /// invalid for the line size.
    pub fn build(self, line_bits: usize) -> Result<Box<dyn BufferStage>, SttError> {
        Ok(match self {
            StageSpec::Vwb(cfg) => Box::new(crate::vwb::VwbStage::new(cfg, line_bits)?),
            StageSpec::L0(cfg) => Box::new(crate::baselines::L0Stage::new(cfg, line_bits)?),
            StageSpec::Emshr(cfg) => Box::new(crate::baselines::EmshrStage::new(cfg, line_bits)?),
        })
    }

    /// The stage's data capacity in bits.
    pub fn capacity_bits(self) -> usize {
        match self {
            StageSpec::Vwb(cfg) => cfg.capacity_bits,
            StageSpec::L0(cfg) => cfg.capacity_bits,
            StageSpec::Emshr(cfg) => cfg.capacity_bits,
        }
    }
}

/// A named two-stage composition (see [`StackedStage`]), `Copy` so it can
/// ride inside [`DCacheOrganization`](crate::DCacheOrganization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackSpec {
    /// Human-readable organization name.
    pub name: &'static str,
    /// The datapath-side stage.
    pub outer: StageSpec,
    /// The memory-side stage.
    pub inner: StageSpec,
}

impl StackSpec {
    /// Builds the composed stage for a DL1 line of `line_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when either constituent
    /// configuration is invalid for the line size.
    pub fn build(self, line_bits: usize) -> Result<StackedStage, SttError> {
        Ok(StackedStage::new(
            self.outer.build(line_bits)?,
            self.inner.build(line_bits)?,
        ))
    }

    /// Total data capacity of both stages in bits.
    pub fn capacity_bits(self) -> usize {
        self.outer.capacity_bits() + self.inner.capacity_bits()
    }
}
