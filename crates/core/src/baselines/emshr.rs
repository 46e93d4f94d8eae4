//! The enhanced-MSHR (EMSHR) baseline.
//!
//! Komalan et al., *"Feasibility exploration of NVM based I-cache through
//! MSHR enhancements"* (DATE 2014) — reference \[7\] of the paper — extends
//! the cache's MSHR file with data storage so that, after a miss fill, the
//! line is *retained* in the MSHR and subsequent accesses hit there at
//! register speed, and writes coalesce into the held entry.
//!
//! Used here, as in Fig. 8, as a latency-reduction front-end with the same
//! 2 Kbit capacity as the VWB. Its structural weakness for the paper's
//! *read* problem: entries are only allocated on **DL1 misses**, so the
//! frequent NVM *read hits* — the dominant penalty source — still pay the
//! full STT-MRAM sensing latency.

use crate::buffer::FaBuffer;
use crate::stage::{BufferStage, BufferStats, Buffered};
use crate::SttError;
use sttcache_mem::{AccessOutcome, Addr, Cache, Cycle, MemoryLevel, ServedBy};

/// EMSHR configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmshrConfig {
    /// Data capacity of the enhanced MSHR file in bits (2 Kbit to match
    /// the VWB).
    pub capacity_bits: usize,
    /// Hit latency of a retained entry in cycles.
    pub hit_cycles: u64,
}

impl Default for EmshrConfig {
    fn default() -> Self {
        EmshrConfig {
            capacity_bits: 2048,
            hit_cycles: 1,
        }
    }
}

impl EmshrConfig {
    /// Number of data-bearing entries for a DL1 line of `line_bits`.
    pub fn entries(&self, line_bits: usize) -> usize {
        self.capacity_bits / line_bits
    }
}

/// The enhanced MSHR file as a composable [`BufferStage`].
///
/// Statistics mapping onto [`BufferStats`]: `fills` counts entries
/// allocated (DL1 misses captured) and `write_hits` counts stores
/// coalesced into retained entries.
#[derive(Debug, Clone)]
pub struct EmshrStage {
    pub(crate) config: EmshrConfig,
    pub(crate) buffer: FaBuffer,
    pub(crate) stats: BufferStats,
    /// Cached DL1 line size (fixed at construction) so the per-access
    /// line decode skips the virtual `below.line_bytes()` call.
    line_bytes: usize,
}

impl EmshrStage {
    /// Creates the stage for a DL1 line of `line_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the capacity holds no DL1
    /// line or more than 1024, or the hit latency is zero.
    pub fn new(config: EmshrConfig, line_bits: usize) -> Result<Self, SttError> {
        crate::buffer::check("emshr", config.capacity_bits, config.hit_cycles, line_bits)?;
        Ok(EmshrStage {
            buffer: FaBuffer::new(config.entries(line_bits)),
            config,
            stats: BufferStats::default(),
            line_bytes: line_bits / 8,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &EmshrConfig {
        &self.config
    }

    /// Captures a just-missed line into the data-bearing MSHR.
    fn capture(&mut self, below: &mut dyn MemoryLevel, addr: Addr, ready_at: Cycle, dirty: bool) {
        let line_bytes = self.line_bytes;
        let line = addr.line(line_bytes);
        self.stats.fills += 1;
        if let Some(evicted) = self.buffer.insert(line, ready_at, ready_at, dirty) {
            if evicted.dirty {
                self.stats.dirty_evictions += 1;
                let base = evicted.line.base(line_bytes);
                let _ = below.write(base, ready_at);
            }
        }
        if sttcache_mem::telemetry::enabled() {
            use std::sync::OnceLock;
            use sttcache_mem::telemetry::Slot;
            static DEPTH_HIST: OnceLock<Slot> = OnceLock::new();
            DEPTH_HIST
                .get_or_init(|| Slot::histogram("emshr", "depth"))
                .observe(self.buffer.len() as u64);
        }
    }
}

impl BufferStage for EmshrStage {
    fn kind(&self) -> &'static str {
        "emshr"
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
        let out = below.read(addr, now);
        if out.served_by != ServedBy::ThisLevel {
            // A genuine DL1 miss: the MSHR held the fill, so retain it.
            self.capture(below, addr, out.complete_at, false);
        }
        out
    }

    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.writes += 1;
        let line = addr.line(self.line_bytes);
        if let Some(idx) = self.buffer.find(line) {
            // Coalesce into the retained entry; it flushes on replacement.
            self.stats.write_hits += 1;
            let ready = self.buffer.entry(idx).ready_at.max(now);
            self.buffer.touch(idx, ready, true);
            return AccessOutcome {
                complete_at: ready + self.config.hit_cycles,
                served_by: ServedBy::ThisLevel,
            };
        }
        let out = below.write(addr, now);
        if out.served_by != ServedBy::ThisLevel {
            // A write miss allocated in the DL1; retain it dirty-clean (the
            // DL1 already holds the written data, so the entry is clean).
            self.capture(below, addr, out.complete_at, false);
        }
        out
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
                "emshr",
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

/// The EMSHR front-end over an NVM DL1: an [`EmshrStage`] composed with a
/// [`Cache`] via [`Buffered`]. Implements
/// [`DataPort`](sttcache_cpu::DataPort).
///
/// # Example
///
/// ```
/// use sttcache::baselines::{EmshrConfig, EmshrFrontEnd};
/// use sttcache::nvm_dl1_config;
/// use sttcache_cpu::DataPort;
/// use sttcache_mem::{Addr, Cache, MainMemory};
///
/// # fn main() -> Result<(), sttcache::SttError> {
/// let dl1 = Cache::new(nvm_dl1_config()?, MainMemory::new(100));
/// let mut emshr = EmshrFrontEnd::new(EmshrConfig::default(), dl1)?;
/// let t = emshr.read(Addr(0), 0);   // DL1 miss: captured by the EMSHR
/// let t2 = emshr.read(Addr(8), t);  // retained-entry hit: 1 cycle
/// assert_eq!(t2, t + 1);
/// # Ok(())
/// # }
/// ```
pub type EmshrFrontEnd<N> = Buffered<EmshrStage, Cache<N>>;

impl<N: MemoryLevel> EmshrFrontEnd<N> {
    /// Creates an EMSHR front-end over `dl1`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the capacity holds no DL1
    /// line or more than 1024, or the hit latency is zero.
    pub fn new(config: EmshrConfig, dl1: Cache<N>) -> Result<Self, SttError> {
        let line_bits = dl1.config().line_bytes() * 8;
        Ok(Buffered::compose(EmshrStage::new(config, line_bits)?, dl1))
    }

    /// The configuration.
    pub fn config(&self) -> &EmshrConfig {
        &self.stage().config
    }

    /// Statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stage().stats
    }

    /// The DL1 behind the front-end.
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

    fn emshr() -> EmshrFrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        EmshrFrontEnd::new(EmshrConfig::default(), dl1).unwrap()
    }

    #[test]
    fn captures_dl1_misses_only() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        assert!(fe.contains(Addr(0)));
        assert_eq!(fe.stats().fills, 1);
        // Warm DL1 (lines 0..8), pushing line 0 out of the 4-entry EMSHR.
        let mut t2 = t + 10;
        for i in 1..8u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert!(!fe.contains(Addr(0)));
        // Re-reading line 0 is now a DL1 *hit*: the EMSHR does NOT capture
        // it and the access pays the full NVM read.
        let before = fe.stats().fills;
        let t3 = fe.read(Addr(0), t2);
        assert_eq!(t3, t2 + 4);
        assert_eq!(fe.stats().fills, before);
        assert!(!fe.contains(Addr(0)));
    }

    #[test]
    fn retained_entry_serves_reads_fast() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        let t2 = fe.read(Addr(32), t);
        assert_eq!(t2, t + 1);
        assert_eq!(fe.stats().read_hits, 1);
    }

    #[test]
    fn writes_coalesce_into_retained_entries() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        let dl1_writes = fe.dl1().stats().writes;
        let t2 = fe.write(Addr(8), t);
        assert_eq!(t2, t + 1);
        assert_eq!(fe.stats().write_hits, 1);
        assert_eq!(fe.dl1().stats().writes, dl1_writes);
    }

    #[test]
    fn coalesced_dirty_entry_flushes_on_replacement() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(0), t + 1);
        let before = fe.dl1().stats().writes;
        let mut t2 = t + 50;
        for i in 1..=4u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert_eq!(fe.stats().dirty_evictions, 1);
        assert_eq!(fe.dl1().stats().writes, before + 1);
    }

    #[test]
    fn write_miss_goes_to_dl1_and_is_captured() {
        let mut fe = emshr();
        let t = fe.write(Addr(0), 0);
        assert!(t > 100); // write-allocate fetch from memory
        assert!(fe.contains(Addr(0)));
        // Subsequent store coalesces.
        let t2 = fe.write(Addr(8), t + 5);
        assert_eq!(t2, t + 6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(EmshrFrontEnd::new(
            EmshrConfig {
                capacity_bits: 64,
                ..EmshrConfig::default()
            },
            dl1.clone()
        )
        .is_err());
        assert!(EmshrFrontEnd::new(
            EmshrConfig {
                hit_cycles: 0,
                ..EmshrConfig::default()
            },
            dl1
        )
        .is_err());
        let sized = |capacity_bits| EmshrConfig {
            capacity_bits,
            ..EmshrConfig::default()
        };
        assert!(EmshrStage::new(sized(1024 * 512), 512).is_ok());
        let err = EmshrStage::new(sized(1025 * 512), 512)
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("emshr configuration") && err.contains("1025 entries"),
            "{err}"
        );
    }
}
