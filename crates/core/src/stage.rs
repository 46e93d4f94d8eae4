//! Buffer organizations as data.
//!
//! Every evaluated L1 D-cache organization is a (possibly empty) list of
//! small line buffers — VWB, L0, EMSHR — in front of the DL1. A
//! [`StageSpec`] names one buffer's policy and configuration, a
//! [`StackSpec`] names two of them in series, and
//! [`DCacheOrganization::stages`](crate::DCacheOrganization::stages)
//! lists an organization's buffers outermost first. One line-buffer type
//! serves all three policies; [`FrontEnd`](crate::FrontEnd) mounts the
//! list in front of its DL1.
//!
//! Buffers report cumulative counters as [`BufferStats`], labelled with
//! their kind in [`StageStats`]. A probed run also returns each buffer's
//! occupancy histogram ([`BufferProbe`](crate::BufferProbe)), which
//! `sim --explain` renders.

use crate::SttError;
use sttcache_mem::{Addr, Cycle, MemoryLevel};

/// Unified statistics for any buffer.
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
}

/// One buffer's statistics, labelled with its kind (`"vwb"`, `"l0"`,
/// `"emshr"`), as collected by
/// [`FrontEnd::stage_stats`](crate::FrontEnd::stage_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The stage kind that produced the numbers.
    pub kind: &'static str,
    /// The stage's counters.
    pub stats: BufferStats,
}

/// The shared prefetch-hint policy: an ARM `PLD` probes the backing
/// level's tags and fetches the line on a miss, without blocking the core.
/// The plain organizations, the L0 and the EMSHR all prefetch this way;
/// the VWB promotes into its own storage instead.
pub(crate) fn probe_then_fetch<M: MemoryLevel + ?Sized>(below: &mut M, addr: Addr, now: Cycle) {
    if !below.contains(addr) {
        let _ = below.read(addr, now);
    }
}

/// One buffer's miss policy and configuration, `Copy` so organizations
/// stay plain values.
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
    /// Short stable identifier (`"vwb"`, `"l0"`, `"emshr"`) labelling the
    /// buffer's statistics and configuration errors.
    pub fn kind(self) -> &'static str {
        match self {
            StageSpec::Vwb(_) => "vwb",
            StageSpec::L0(_) => "l0",
            StageSpec::Emshr(_) => "emshr",
        }
    }

    /// Checks the configuration in front of a DL1 of `line_bits` lines,
    /// without building anything.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the capacity holds no
    /// line or more than 1024, or the hit latency is zero.
    pub fn validate(self, line_bits: usize) -> Result<(), SttError> {
        let hit_cycles = match self {
            StageSpec::Vwb(cfg) => cfg.hit_cycles,
            StageSpec::L0(cfg) => cfg.hit_cycles,
            StageSpec::Emshr(cfg) => cfg.hit_cycles,
        };
        crate::buffer::check(self.kind(), self.capacity_bits(), hit_cycles, line_bits)
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

/// A named two-stage composition, `Copy` so it can ride inside
/// [`DCacheOrganization`](crate::DCacheOrganization): `outer` sits toward
/// the datapath, and its miss traffic flows through `inner` before
/// reaching the DL1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackSpec {
    /// Human-readable organization name.
    pub name: &'static str,
    /// The datapath-side stage.
    pub outer: StageSpec,
    /// The memory-side stage.
    pub inner: StageSpec,
}
