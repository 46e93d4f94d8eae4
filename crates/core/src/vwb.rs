//! The Very Wide Buffer (paper §IV).
//!
//! The VWB is a small, fully associative, single-ported register-file-like
//! structure between the datapath and the STT-MRAM DL1. Its interface is
//! asymmetric: **wide toward the memory** (a whole cache line transfers in
//! one promotion — the A9-class array already reads out a full line, so no
//! extra circuitry is needed) and **narrow toward the datapath** (a
//! post-decode MUX selects the word). VWB hits therefore decouple reads
//! from the long NVM sensing latency.
//!
//! ## Policies (verbatim from the paper)
//!
//! *Load*: "The VWB is always checked for the data first … On encountering
//! a miss, the NVM DL1 is checked. If the data is present, then it is read
//! from the NVM DL1 and also written into the VWB always. The evicted data
//! from the VWB is stored in the NVM DL1. If the data is not present in the
//! NVM DL1 also, then the miss is served from the next cache level, and the
//! cache line … is then transferred into the processor and the VWB."
//!
//! *Store*: "The data block in the DL1 is only updated via the VWB if it's
//! already present in it. Otherwise, it's directly updated via the
//! processor … we follow the write allocate policy for the data cache array
//! and a non allocate policy for the VWB."
//!
//! ## Timing
//!
//! A promotion "may take as long as 4 cache cycles" because it *is* the
//! 4-cycle wide NVM read: the A9-class array drives the full line, so the
//! transfer rides the demand access and a concurrent access to the same
//! bank stalls behind it (different banks proceed). A narrower fill port
//! can be modelled with [`VwbConfig::promotion_cycles`], which holds the
//! bank for extra cycles past the critical word (ablation knob).

use crate::buffer::FaBuffer;
use crate::stage::{BufferStage, BufferStats, Buffered};
use crate::SttError;
use sttcache_mem::{telemetry, AccessOutcome, Addr, Cache, Cycle, MemoryLevel, ServedBy};

/// VWB configuration.
///
/// # Example
///
/// ```
/// use sttcache::VwbConfig;
///
/// let cfg = VwbConfig::default();
/// assert_eq!(cfg.capacity_bits, 2048); // the paper's 2 Kbit
/// assert_eq!(cfg.entries(512), 4);     // four 512-bit lines
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VwbConfig {
    /// Total VWB capacity in bits (the paper sweeps 1/2/4 Kbit in Fig. 7).
    pub capacity_bits: usize,
    /// Datapath-side hit latency in cycles (register-file speed).
    pub hit_cycles: u64,
    /// Extra cycles the source bank stays busy *after* the promoting
    /// read has completed.
    ///
    /// The wide transfer happens concurrently with the array read (the
    /// A9-class array already drives the full line), so the default is 0:
    /// the promotion "takes as long as 4 cache cycles" because the NVM
    /// read does. Non-zero values model a narrower VWB fill port and are
    /// swept by the ablation bench.
    pub promotion_cycles: u64,
    /// Models the cost of the fully associative search growing with the
    /// entry count ("a fully associative search also becomes a big problem
    /// with the increase in size of the VWB", §VI): when set, the hit
    /// latency becomes `hit_cycles + entries / 8`. Off by default (the
    /// paper's 2-4 Kbit sizes search in one cycle).
    pub model_search_cost: bool,
}

impl Default for VwbConfig {
    fn default() -> Self {
        VwbConfig {
            capacity_bits: 2048,
            hit_cycles: 1,
            promotion_cycles: 0,
            model_search_cost: false,
        }
    }
}

impl VwbConfig {
    /// Number of line entries for a DL1 line of `line_bits`.
    pub fn entries(&self, line_bits: usize) -> usize {
        self.capacity_bits / line_bits
    }

    /// The effective hit latency for a DL1 line of `line_bits`, including
    /// the associative-search cost when modelled.
    pub fn effective_hit_cycles(&self, line_bits: usize) -> u64 {
        if self.model_search_cost {
            self.hit_cycles + self.entries(line_bits) as u64 / 8
        } else {
            self.hit_cycles
        }
    }

    /// Validates against the DL1 line size.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] when the VWB cannot hold even
    /// one DL1 line, would hold more than 1024, or the hit latency is
    /// zero.
    pub fn validate(&self, line_bits: usize) -> Result<(), SttError> {
        crate::buffer::check("vwb", self.capacity_bits, self.hit_cycles, line_bits)
    }
}

/// The VWB as a composable [`BufferStage`]: serves the datapath at
/// register speed and promotes lines out of whatever [`MemoryLevel`]
/// backs it.
#[derive(Debug, Clone)]
pub struct VwbStage {
    pub(crate) config: VwbConfig,
    pub(crate) buffer: FaBuffer,
    pub(crate) stats: BufferStats,
    hit_cycles: u64,
    /// Cached DL1 line size (fixed at construction) so the per-access
    /// line decode skips the virtual `below.line_bytes()` call.
    line_bytes: usize,
    /// Length of the current run of consecutive stores absorbed by the
    /// buffer. Only maintained while the telemetry gate is armed (it
    /// feeds the coalescing-run histogram and nothing else, so disarmed
    /// runs skip even the bookkeeping).
    coalesce_run: u64,
}

impl VwbStage {
    /// Creates the stage for a DL1 line of `line_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] if the configuration fails
    /// [`VwbConfig::validate`] for the line size.
    pub fn new(config: VwbConfig, line_bits: usize) -> Result<Self, SttError> {
        config.validate(line_bits)?;
        Ok(VwbStage {
            buffer: FaBuffer::new(config.entries(line_bits)),
            hit_cycles: config.effective_hit_cycles(line_bits),
            config,
            stats: BufferStats::default(),
            coalesce_run: 0,
            line_bytes: line_bits / 8,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &VwbConfig {
        &self.config
    }

    /// Promotes the line containing `addr`: demand-reads it from the
    /// backing level, installs it into the VWB, handles the dirty eviction
    /// and models the wide transfer's bank occupancy. Returns the backing
    /// level's outcome (critical-word availability).
    fn promote(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        let line_bytes = self.line_bytes;
        let line = addr.line(line_bytes);
        let out = below.read(addr, now);
        self.stats.fills += 1;
        // The wide transfer holds the bank after the critical word.
        below.occupy_bank(addr, out.complete_at, self.config.promotion_cycles);
        if let Some(evicted) = self
            .buffer
            .insert(line, out.complete_at, out.complete_at, false)
        {
            if evicted.dirty {
                // "The evicted data from the VWB is stored in the NVM DL1."
                // The write-back proceeds in the background; it contends for
                // banks but does not block the requester.
                self.stats.dirty_evictions += 1;
                let base = evicted.line.base(line_bytes);
                let _ = below.write(base, out.complete_at);
            }
        }
        if sttcache_mem::invariants::enabled() {
            self.check_invariants(out.complete_at);
        }
        if telemetry::enabled() {
            use std::sync::OnceLock;
            static DEPTH_HIST: OnceLock<telemetry::Slot> = OnceLock::new();
            DEPTH_HIST
                .get_or_init(|| telemetry::Slot::histogram("vwb", "depth"))
                .observe(self.buffer.len() as u64);
        }
        out
    }
}

impl BufferStage for VwbStage {
    fn kind(&self) -> &'static str {
        "vwb"
    }

    fn read(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.reads += 1;
        let line = addr.line(self.line_bytes);
        if let Some(idx) = self.buffer.find(line) {
            // VWB hit: register-file latency once the data has landed.
            self.stats.read_hits += 1;
            let ready = self.buffer.entry(idx).ready_at.max(now);
            self.buffer.touch(idx, ready, false);
            return AccessOutcome {
                complete_at: ready + self.hit_cycles,
                served_by: ServedBy::ThisLevel,
            };
        }
        self.promote(below, addr, now)
    }

    fn write(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) -> AccessOutcome {
        self.stats.writes += 1;
        let line = addr.line(self.line_bytes);
        if let Some(idx) = self.buffer.find(line) {
            // Present in the VWB: update it there (write-back to the DL1
            // happens on eviction).
            self.stats.write_hits += 1;
            let ready = self.buffer.entry(idx).ready_at.max(now);
            self.buffer.touch(idx, ready, true);
            if telemetry::enabled() {
                self.coalesce_run += 1;
            }
            return AccessOutcome {
                complete_at: ready + self.hit_cycles,
                served_by: ServedBy::ThisLevel,
            };
        }
        // "Otherwise, it's directly updated via the processor": write
        // straight into the DL1 (write-allocate there, no VWB allocation).
        if telemetry::enabled() && self.coalesce_run > 0 {
            use std::sync::OnceLock;
            static RUN_HIST: OnceLock<telemetry::Slot> = OnceLock::new();
            // A write miss ends the current run of buffer-absorbed stores.
            RUN_HIST
                .get_or_init(|| telemetry::Slot::histogram("vwb", "coalesce_run"))
                .observe(self.coalesce_run);
            self.coalesce_run = 0;
        }
        below.write(addr, now)
    }

    fn prefetch(&mut self, below: &mut dyn MemoryLevel, addr: Addr, now: Cycle) {
        let line = addr.line(self.line_bytes);
        if self.buffer.find(line).is_some() {
            self.stats.prefetch_drops += 1;
            return;
        }
        self.stats.prefetch_fills += 1;
        let _ = self.promote(below, addr, now);
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
        if sttcache_mem::invariants::enabled() {
            self.check_invariants(done);
            if done < now {
                sttcache_mem::invariants::report(
                    "vwb",
                    now,
                    None,
                    format!("flush_dirty completed in the past (at {done})"),
                );
            }
            if let Some(stale) = self.buffer.iter().find(|e| e.dirty) {
                sttcache_mem::invariants::report(
                    "vwb",
                    done,
                    Some(stale.line.0),
                    "stale dirty entry after flush_dirty".into(),
                );
            }
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
                "vwb",
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

/// The VWB front-end over an NVM DL1: a [`VwbStage`] composed with a
/// [`Cache`] via [`Buffered`].
///
/// Implements [`DataPort`](sttcache_cpu::DataPort), so it slots directly
/// under a [`sttcache_cpu::Core`]. Generic over the DL1's next level `N`.
///
/// # Example
///
/// ```
/// use sttcache::{nvm_dl1_config, VwbConfig, VwbFrontEnd};
/// use sttcache_cpu::DataPort;
/// use sttcache_mem::{Addr, Cache, MainMemory};
///
/// # fn main() -> Result<(), sttcache::SttError> {
/// let dl1 = Cache::new(nvm_dl1_config()?.clone(), MainMemory::new(100));
/// let mut vwb = VwbFrontEnd::new(VwbConfig::default(), dl1)?;
/// let t0 = vwb.read(Addr(0), 0);     // cold miss, promoted
/// let t1 = vwb.read(Addr(8), t0);    // VWB hit: 1 cycle
/// assert_eq!(t1, t0 + 1);
/// # Ok(())
/// # }
/// ```
pub type VwbFrontEnd<N> = Buffered<VwbStage, Cache<N>>;

impl<N: MemoryLevel> VwbFrontEnd<N> {
    /// Creates a VWB in front of `dl1`.
    ///
    /// # Errors
    ///
    /// Returns [`SttError::InvalidBuffer`] if the configuration fails
    /// [`VwbConfig::validate`] for the DL1's line size.
    pub fn new(config: VwbConfig, dl1: Cache<N>) -> Result<Self, SttError> {
        let line_bits = dl1.config().line_bytes() * 8;
        Ok(Buffered::compose(VwbStage::new(config, line_bits)?, dl1))
    }

    /// The configuration.
    pub fn config(&self) -> &VwbConfig {
        &self.stage().config
    }

    /// VWB statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stage().stats
    }

    /// The DL1 behind the VWB.
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

    fn vwb() -> VwbFrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        VwbFrontEnd::new(VwbConfig::default(), dl1).unwrap()
    }

    #[test]
    fn default_config_has_four_entries() {
        let fe = vwb();
        assert_eq!(fe.stage().buffer.capacity(), 4);
    }

    #[test]
    fn vwb_hit_is_one_cycle() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        // Same line, different word: VWB hit.
        let t2 = fe.read(Addr(32), t);
        assert_eq!(t2, t + 1);
        assert_eq!(fe.stats().read_hits, 1);
    }

    #[test]
    fn nvm_hit_promotion_costs_the_nvm_read() {
        let mut fe = vwb();
        // Warm DL1 with lines 0..8 to push line 0 out of the VWB (4
        // entries) but keep it in the DL1.
        let mut t = 0;
        for i in 0..8u64 {
            t = fe.read(Addr(i * 64), t) + 10;
        }
        assert!(!fe.contains(Addr(0)));
        assert!(fe.dl1().contains(Addr(0)));
        // Re-reading line 0: VWB miss, NVM hit: 4 cycles.
        let done = fe.read(Addr(0), t);
        assert_eq!(done, t + 4);
        assert!(fe.contains(Addr(0)));
    }

    #[test]
    fn promotion_extra_occupancy_is_modelled_when_configured() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        let mut fe = VwbFrontEnd::new(
            VwbConfig {
                promotion_cycles: 4,
                ..VwbConfig::default()
            },
            dl1,
        )
        .unwrap();
        let mut t = 0;
        for i in 0..8u64 {
            t = fe.read(Addr(i * 64), t) + 10;
        }
        // Promote line 0 (bank 0): with a narrow fill port the bank stays
        // busy 4 cycles past the critical word.
        let done = fe.read(Addr(0), t);
        assert!(fe.dl1().bank_free_at(Addr(0)) >= done + 4);
    }

    #[test]
    fn default_promotion_is_concurrent_with_the_read() {
        let mut fe = vwb();
        let mut t = 0;
        for i in 0..8u64 {
            t = fe.read(Addr(i * 64), t) + 10;
        }
        let done = fe.read(Addr(0), t);
        // The wide transfer rides the read: no extra bank time.
        assert!(fe.dl1().bank_free_at(Addr(0)) <= done);
    }

    #[test]
    fn store_hit_in_vwb_does_not_touch_dl1() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        let dl1_writes = fe.dl1().stats().writes;
        let t2 = fe.write(Addr(8), t);
        assert_eq!(t2, t + 1);
        assert_eq!(fe.dl1().stats().writes, dl1_writes);
        assert_eq!(fe.stats().write_hits, 1);
    }

    #[test]
    fn store_miss_goes_directly_to_dl1_without_vwb_allocation() {
        let mut fe = vwb();
        let t = fe.write(Addr(0x10000), 0);
        assert!(t > 0);
        assert!(!fe.contains(Addr(0x10000)));
        assert!(fe.dl1().contains(Addr(0x10000))); // write-allocate in DL1
        assert_eq!(fe.stats().write_hits, 0);
    }

    #[test]
    fn dirty_eviction_writes_back_to_dl1() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(0), t + 5); // dirty the VWB line
        let before = fe.dl1().stats().writes;
        // Evict line 0 by promoting 4 more lines.
        let mut t2 = t + 50;
        for i in 1..=4u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert_eq!(fe.stats().dirty_evictions, 1);
        assert_eq!(fe.dl1().stats().writes, before + 1);
    }

    #[test]
    fn prefetch_fills_without_blocking() {
        let mut fe = vwb();
        fe.prefetch(Addr(0x2000), 0);
        assert!(fe.contains(Addr(0x2000)));
        assert_eq!(fe.stats().prefetch_fills, 1);
        // A second hint for the same line is dropped.
        fe.prefetch(Addr(0x2000), 1);
        assert_eq!(fe.stats().prefetch_drops, 1);
        // A later read hits in the VWB once the fill has landed.
        let t = fe.read(Addr(0x2000), 500);
        assert_eq!(t, 501);
    }

    #[test]
    fn read_before_prefetch_lands_waits_for_the_fill() {
        let mut fe = vwb();
        fe.prefetch(Addr(0x2000), 0);
        // Cold fill takes ~104+ cycles; read issued at cycle 1 waits.
        let t = fe.read(Addr(0x2000), 1);
        assert!(t > 100);
        assert_eq!(fe.stats().read_hits, 1);
    }

    #[test]
    fn smaller_vwb_has_fewer_entries() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        let fe = VwbFrontEnd::new(
            VwbConfig {
                capacity_bits: 1024,
                ..VwbConfig::default()
            },
            dl1,
        )
        .unwrap();
        assert_eq!(fe.stage().buffer.capacity(), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(VwbFrontEnd::new(
            VwbConfig {
                capacity_bits: 256,
                ..VwbConfig::default()
            },
            dl1.clone(),
        )
        .is_err());
        assert!(VwbFrontEnd::new(
            VwbConfig {
                hit_cycles: 0,
                ..VwbConfig::default()
            },
            dl1,
        )
        .is_err());
        // Entries are allocated up front: past 1024 lines is refused
        // before anything is allocated, naming the entry count.
        let sized = |capacity_bits| VwbConfig {
            capacity_bits,
            ..VwbConfig::default()
        };
        assert!(sized(1024 * 512).validate(512).is_ok());
        let err = sized(usize::MAX).validate(512).unwrap_err().to_string();
        assert_eq!(
            err,
            "vwb configuration: capacity 18446744073709551615 bits makes \
             36028797018963967 entries of 512 bits, above the limit of 1024"
        );
    }

    #[test]
    fn search_cost_scales_with_entries() {
        // A 16 Kbit VWB (32 entries) with modelled search cost hits in
        // 1 + 32/8 = 5 cycles.
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        let cfg = VwbConfig {
            capacity_bits: 16 * 1024,
            model_search_cost: true,
            ..VwbConfig::default()
        };
        assert_eq!(cfg.effective_hit_cycles(512), 5);
        let mut fe = VwbFrontEnd::new(cfg, dl1).unwrap();
        let t = fe.read(Addr(0), 0);
        assert_eq!(fe.read(Addr(8), t + 10), t + 10 + 5);
        // The paper's 2 Kbit buffer still searches in one cycle.
        assert_eq!(
            VwbConfig {
                model_search_cost: true,
                ..VwbConfig::default()
            }
            .effective_hit_cycles(512),
            1
        );
    }

    #[test]
    fn hit_rate_metric() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        fe.read(Addr(8), t);
        fe.read(Addr(16), t + 10);
        assert!((fe.stats().read_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
