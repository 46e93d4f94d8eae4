//! The L0-cache baseline.
//!
//! A small fully associative cache between the core and the NVM DL1, "a
//! variation of the commonly used L0 cache" (paper §VI, citing the
//! TMS320C64x DSP practice). Matched to the VWB for fairness: same 2 Kbit
//! capacity, fully associative — but it "conform[s] to the interface of the
//! regular size memory array": a fill streams the line through the narrow
//! datapath-width port, so the entry only becomes usable
//! [`L0Config::fill_cycles`] after the critical word, and it allocates on
//! both read and write misses (classic L0 behaviour), costing an extra NVM
//! read on store misses.

use crate::buffer::FaBuffer;
use crate::stage::{BufferStage, BufferStats, Buffered};
use crate::SttError;
use sttcache_mem::{AccessOutcome, Addr, Cache, Cycle, MemoryLevel, ServedBy};

/// L0-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L0Config {
    /// Capacity in bits (2 Kbit to match the VWB).
    pub capacity_bits: usize,
    /// Hit latency in cycles.
    pub hit_cycles: u64,
    /// Extra cycles to stream a line through the narrow interface after
    /// the critical word (512-bit line over the 64-bit datapath = 8 beats).
    pub fill_cycles: u64,
}

impl Default for L0Config {
    fn default() -> Self {
        L0Config {
            capacity_bits: 2048,
            hit_cycles: 1,
            fill_cycles: 8,
        }
    }
}

impl L0Config {
    /// Number of line entries for a DL1 line of `line_bits`.
    pub fn entries(&self, line_bits: usize) -> usize {
        self.capacity_bits / line_bits
    }
}

/// The L0 cache as a composable [`BufferStage`].
#[derive(Debug, Clone)]
pub struct L0Stage {
    pub(crate) config: L0Config,
    pub(crate) buffer: FaBuffer,
    pub(crate) stats: BufferStats,
    /// Cached DL1 line size (fixed at construction) so the per-access
    /// line decode skips the virtual `below.line_bytes()` call.
    line_bytes: usize,
}

impl L0Stage {
    /// Creates the stage for a DL1 line of `line_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the capacity holds no DL1
    /// line or more than 1024, or the hit latency is zero.
    pub fn new(config: L0Config, line_bits: usize) -> Result<Self, SttError> {
        crate::buffer::check("l0", config.capacity_bits, config.hit_cycles, line_bits)?;
        Ok(L0Stage {
            buffer: FaBuffer::new(config.entries(line_bits)),
            config,
            stats: BufferStats::default(),
            line_bytes: line_bits / 8,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &L0Config {
        &self.config
    }

    /// Fetches a line from the backing level and installs it: the
    /// requester gets the critical word when the read completes; the
    /// entry is usable once the narrow-interface fill finishes.
    fn fill(
        &mut self,
        below: &mut dyn MemoryLevel,
        addr: Addr,
        now: Cycle,
        dirty: bool,
    ) -> AccessOutcome {
        let line_bytes = self.line_bytes;
        let line = addr.line(line_bytes);
        let out = below.read(addr, now);
        self.stats.fills += 1;
        let ready = out.complete_at + self.config.fill_cycles;
        // The narrow fill holds the bank just like the read did.
        below.occupy_bank(addr, out.complete_at, self.config.fill_cycles);
        if let Some(evicted) = self.buffer.insert(line, ready, ready, dirty) {
            if evicted.dirty {
                self.stats.dirty_evictions += 1;
                let base = evicted.line.base(line_bytes);
                let _ = below.write(base, out.complete_at);
            }
        }
        if sttcache_mem::telemetry::enabled() {
            use std::sync::OnceLock;
            use sttcache_mem::telemetry::Slot;
            static DEPTH_HIST: OnceLock<Slot> = OnceLock::new();
            DEPTH_HIST
                .get_or_init(|| Slot::histogram("l0", "depth"))
                .observe(self.buffer.len() as u64);
        }
        out
    }
}

impl BufferStage for L0Stage {
    fn kind(&self) -> &'static str {
        "l0"
    }

    fn read(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.reads += 1;
        let line = addr.line(self.line_bytes);
        if let Some(idx) = self.buffer.find(line) {
            self.stats.read_hits += 1;
            let ready = self.buffer.entry(idx).ready_at.max(now);
            self.buffer.touch(idx, ready, false);
            return AccessOutcome {
                complete_at: ready + self.config.hit_cycles,
                served_by: ServedBy::ThisLevel,
            };
        }
        self.fill(below, addr, now, false)
    }

    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.writes += 1;
        let line = addr.line(self.line_bytes);
        if let Some(idx) = self.buffer.find(line) {
            self.stats.write_hits += 1;
            let ready = self.buffer.entry(idx).ready_at.max(now);
            self.buffer.touch(idx, ready, true);
            return AccessOutcome {
                complete_at: ready + self.config.hit_cycles,
                served_by: ServedBy::ThisLevel,
            };
        }
        // Write-allocate into the L0: fetch the line, then write it.
        let out = self.fill(below, addr, now, true);
        AccessOutcome {
            complete_at: out.complete_at + self.config.hit_cycles,
            served_by: out.served_by,
        }
    }

    fn contains(&self, addr: Addr, line_bytes: usize) -> bool {
        self.buffer.find(addr.line(line_bytes)).is_some()
    }

    fn flush_dirty(&mut self, below: &mut dyn MemoryLevel, now: Cycle) -> (usize, Cycle) {
        let line_bytes = below.line_bytes();
        let dirty: Vec<sttcache_mem::LineAddr> = self
            .buffer
            .iter()
            .filter(|e| e.dirty)
            .map(|e| e.line)
            .collect();
        let mut done = now;
        for line in &dirty {
            done = below.write(line.base(line_bytes), done).complete_at;
            self.buffer.clean(*line);
        }
        (dirty.len(), done)
    }

    fn dirty_entries(&self) -> usize {
        self.buffer.iter().filter(|e| e.dirty).count()
    }

    fn resident_lines(&self, line_bytes: usize) -> Vec<Addr> {
        self.buffer
            .iter()
            .map(|e| e.line.base(line_bytes))
            .collect()
    }

    fn check_invariants(&self, now: Cycle) {
        if self.buffer.len() > self.buffer.capacity() {
            sttcache_mem::invariants::report(
                "l0",
                now,
                None,
                format!(
                    "{} entries exceed capacity {}",
                    self.buffer.len(),
                    self.buffer.capacity()
                ),
            );
        }
    }

    fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    fn stats(&self) -> BufferStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn BufferStage> {
        Box::new(self.clone())
    }
}

/// The L0 front-end over an NVM DL1: an [`L0Stage`] composed with a
/// [`Cache`] via [`Buffered`]. Implements
/// [`DataPort`](sttcache_cpu::DataPort).
///
/// # Example
///
/// ```
/// use sttcache::baselines::{L0Config, L0FrontEnd};
/// use sttcache::nvm_dl1_config;
/// use sttcache_cpu::DataPort;
/// use sttcache_mem::{Addr, Cache, MainMemory};
///
/// # fn main() -> Result<(), sttcache::SttError> {
/// let dl1 = Cache::new(nvm_dl1_config()?, MainMemory::new(100));
/// let mut l0 = L0FrontEnd::new(L0Config::default(), dl1)?;
/// let t = l0.read(Addr(0), 0);
/// // The line streams in for fill_cycles after the critical word, so an
/// // immediate same-line access waits out the fill.
/// assert_eq!(l0.read(Addr(8), t), t + 8 + 1);
/// # Ok(())
/// # }
/// ```
pub type L0FrontEnd<N> = Buffered<L0Stage, Cache<N>>;

impl<N: MemoryLevel> L0FrontEnd<N> {
    /// Creates an L0 in front of `dl1`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the capacity holds no DL1
    /// line or more than 1024, or the hit latency is zero.
    pub fn new(config: L0Config, dl1: Cache<N>) -> Result<Self, SttError> {
        let line_bits = dl1.config().line_bytes() * 8;
        Ok(Buffered::compose(L0Stage::new(config, line_bits)?, dl1))
    }

    /// The configuration.
    pub fn config(&self) -> &L0Config {
        &self.stage().config
    }

    /// Statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stage().stats
    }

    /// The DL1 behind the L0.
    pub fn dl1(&self) -> &Cache<N> {
        self.below()
    }

    /// Mutable access to the DL1.
    pub fn dl1_mut(&mut self) -> &mut Cache<N> {
        self.below_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvm_dl1_config;
    use sttcache_cpu::DataPort;
    use sttcache_mem::MainMemory;

    fn l0() -> L0FrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        L0FrontEnd::new(L0Config::default(), dl1).unwrap()
    }

    #[test]
    fn hit_after_fill_completes_is_fast() {
        let mut fe = l0();
        let t = fe.read(Addr(0), 0);
        // Well past the fill: a same-line read is an L0 hit.
        let t2 = fe.read(Addr(8), t + 20);
        assert_eq!(t2, t + 21);
        assert_eq!(fe.stats().read_hits, 1);
    }

    #[test]
    fn fill_streams_through_narrow_interface() {
        let mut fe = l0();
        let t = fe.read(Addr(0), 0);
        // Immediately re-reading the same line waits for the 8-beat fill.
        let t2 = fe.read(Addr(8), t);
        assert_eq!(t2, t + 8 + 1);
    }

    #[test]
    fn write_miss_allocates_and_costs_a_fetch() {
        let mut fe = l0();
        let t = fe.write(Addr(0), 0);
        // Cold: DL1 miss to memory plus the L0 hit on top.
        assert!(t > 100);
        assert!(fe.contains(Addr(0)));
        assert_eq!(fe.stats().write_hits, 0);
        // A warm write is absorbed by the L0.
        let t2 = fe.write(Addr(8), t + 20);
        assert_eq!(t2, t + 21);
        assert_eq!(fe.stats().write_hits, 1);
    }

    #[test]
    fn dirty_eviction_reaches_dl1() {
        let mut fe = l0();
        let mut t = fe.write(Addr(0), 0) + 20;
        let before = fe.dl1().stats().writes;
        for i in 1..=4u64 {
            t = fe.read(Addr(i * 64), t) + 20;
        }
        assert_eq!(fe.stats().dirty_evictions, 1);
        assert_eq!(fe.dl1().stats().writes, before + 1);
    }

    #[test]
    fn capacity_matches_vwb_comparison() {
        let fe = l0();
        // 2 Kbit of 512-bit lines = 4 entries, same as the default VWB.
        assert_eq!(fe.stage().buffer.capacity(), 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(L0FrontEnd::new(
            L0Config {
                capacity_bits: 128,
                ..L0Config::default()
            },
            dl1.clone()
        )
        .is_err());
        assert!(L0FrontEnd::new(
            L0Config {
                hit_cycles: 0,
                ..L0Config::default()
            },
            dl1
        )
        .is_err());
        let sized = |capacity_bits| L0Config {
            capacity_bits,
            ..L0Config::default()
        };
        assert!(L0Stage::new(sized(1024 * 512), 512).is_ok());
        let err = L0Stage::new(sized(1025 * 512), 512)
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("l0 configuration") && err.contains("1025 entries"),
            "{err}"
        );
    }
}
