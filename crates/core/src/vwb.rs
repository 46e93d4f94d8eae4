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
//!
//! The policies are the VWB arms of the shared line buffer's miss paths
//! (`crate::buffer`); this module holds the configuration.

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nvm_dl1_config, BufferStats, FrontEnd, StageSpec, SttError};
    use sttcache_cpu::DataPort;
    use sttcache_mem::{Addr, Cache, MainMemory, MemoryLevel};

    /// A VWB of `config` in front of `dl1`.
    fn over(config: VwbConfig, dl1: Cache<MainMemory>) -> Result<FrontEnd<MainMemory>, SttError> {
        FrontEnd::new(&[StageSpec::Vwb(config)], dl1)
    }

    fn stats(fe: &FrontEnd<MainMemory>) -> BufferStats {
        fe.stage_stats()[0].stats
    }

    fn vwb() -> FrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        over(VwbConfig::default(), dl1).unwrap()
    }

    #[test]
    fn default_config_has_four_entries() {
        let fe = vwb();
        assert_eq!(fe.buffers[0].capacity, 4);
    }

    #[test]
    fn vwb_hit_is_one_cycle() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        // Same line, different word: VWB hit.
        let t2 = fe.read(Addr(32), t);
        assert_eq!(t2, t + 1);
        assert_eq!(stats(&fe).read_hits, 1);
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
        assert!(!fe.buffers[0].contains(Addr(0)));
        assert!(fe.dl1.contains(Addr(0)));
        // Re-reading line 0: VWB miss, NVM hit: 4 cycles.
        let done = fe.read(Addr(0), t);
        assert_eq!(done, t + 4);
        assert!(fe.buffers[0].contains(Addr(0)));
    }

    #[test]
    fn promotion_extra_occupancy_is_modelled_when_configured() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        let mut fe = over(
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
        // busy 4 cycles past the critical word, so a DL1 read of the line
        // issued then starts 4 cycles late.
        let done = fe.read(Addr(0), t);
        let read = fe.dl1.config().read_cycles();
        assert!(fe.dl1.read(Addr(0), done).complete_at >= done + 4 + read);
    }

    #[test]
    fn default_promotion_is_concurrent_with_the_read() {
        let mut fe = vwb();
        let mut t = 0;
        for i in 0..8u64 {
            t = fe.read(Addr(i * 64), t) + 10;
        }
        let done = fe.read(Addr(0), t);
        // The wide transfer rides the read: no extra bank time, so a DL1
        // read of the line issued then starts at once.
        let read = fe.dl1.config().read_cycles();
        assert_eq!(fe.dl1.read(Addr(0), done).complete_at, done + read);
    }

    #[test]
    fn store_hit_in_vwb_does_not_touch_dl1() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        let dl1_writes = fe.dl1_stats().writes;
        let t2 = fe.write(Addr(8), t);
        assert_eq!(t2, t + 1);
        assert_eq!(fe.dl1_stats().writes, dl1_writes);
        assert_eq!(stats(&fe).write_hits, 1);
    }

    #[test]
    fn store_miss_goes_directly_to_dl1_without_vwb_allocation() {
        let mut fe = vwb();
        let t = fe.write(Addr(0x10000), 0);
        assert!(t > 0);
        assert!(!fe.buffers[0].contains(Addr(0x10000)));
        assert!(fe.dl1.contains(Addr(0x10000))); // write-allocate in DL1
        assert_eq!(stats(&fe).write_hits, 0);
    }

    #[test]
    fn dirty_eviction_writes_back_to_dl1() {
        let mut fe = vwb();
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(0), t + 5); // dirty the VWB line
        let before = fe.dl1_stats().writes;
        // Evict line 0 by promoting 4 more lines.
        let mut t2 = t + 50;
        for i in 1..=4u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert_eq!(stats(&fe).dirty_evictions, 1);
        assert_eq!(fe.dl1_stats().writes, before + 1);
    }

    #[test]
    fn prefetch_fills_without_blocking() {
        let mut fe = vwb();
        fe.prefetch(Addr(0x2000), 0);
        assert!(fe.buffers[0].contains(Addr(0x2000)));
        assert_eq!(stats(&fe).prefetch_fills, 1);
        // A second hint for the same line is dropped.
        fe.prefetch(Addr(0x2000), 1);
        assert_eq!(stats(&fe).prefetch_drops, 1);
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
        assert_eq!(stats(&fe).read_hits, 1);
    }

    #[test]
    fn smaller_vwb_has_fewer_entries() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        let fe = over(
            VwbConfig {
                capacity_bits: 1024,
                ..VwbConfig::default()
            },
            dl1,
        )
        .unwrap();
        assert_eq!(fe.buffers[0].capacity, 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(over(
            VwbConfig {
                capacity_bits: 256,
                ..VwbConfig::default()
            },
            dl1.clone(),
        )
        .is_err());
        assert!(over(
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
        assert!(StageSpec::Vwb(sized(1024 * 512)).validate(512).is_ok());
        let err = StageSpec::Vwb(sized(usize::MAX))
            .validate(512)
            .unwrap_err()
            .to_string();
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
        let mut fe = over(cfg, dl1).unwrap();
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
        assert!((stats(&fe).read_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
