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
//!
//! The policies are the L0 arms of the shared line buffer's miss paths
//! (`crate::buffer`); this module holds the configuration.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nvm_dl1_config, BufferStats, FrontEnd, StageSpec, SttError};
    use sttcache_cpu::DataPort;
    use sttcache_mem::{Addr, Cache, MainMemory};

    /// An L0 of `config` in front of `dl1`.
    fn over(config: L0Config, dl1: Cache<MainMemory>) -> Result<FrontEnd<MainMemory>, SttError> {
        FrontEnd::new(&[StageSpec::L0(config)], dl1)
    }

    fn stats(fe: &FrontEnd<MainMemory>) -> BufferStats {
        fe.stage_stats()[0].stats
    }

    fn l0() -> FrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        over(L0Config::default(), dl1).unwrap()
    }

    #[test]
    fn hit_after_fill_completes_is_fast() {
        let mut fe = l0();
        let t = fe.read(Addr(0), 0);
        // Well past the fill: a same-line read is an L0 hit.
        let t2 = fe.read(Addr(8), t + 20);
        assert_eq!(t2, t + 21);
        assert_eq!(stats(&fe).read_hits, 1);
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
        assert!(fe.buffers[0].contains(Addr(0)));
        assert_eq!(stats(&fe).write_hits, 0);
        // A warm write is absorbed by the L0.
        let t2 = fe.write(Addr(8), t + 20);
        assert_eq!(t2, t + 21);
        assert_eq!(stats(&fe).write_hits, 1);
    }

    #[test]
    fn dirty_eviction_reaches_dl1() {
        let mut fe = l0();
        let mut t = fe.write(Addr(0), 0) + 20;
        let before = fe.dl1_stats().writes;
        for i in 1..=4u64 {
            t = fe.read(Addr(i * 64), t) + 20;
        }
        assert_eq!(stats(&fe).dirty_evictions, 1);
        assert_eq!(fe.dl1_stats().writes, before + 1);
    }

    #[test]
    fn capacity_matches_vwb_comparison() {
        let fe = l0();
        // 2 Kbit of 512-bit lines = 4 entries, same as the default VWB.
        assert_eq!(fe.buffers[0].capacity, 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(over(
            L0Config {
                capacity_bits: 128,
                ..L0Config::default()
            },
            dl1.clone()
        )
        .is_err());
        assert!(over(
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
        assert!(StageSpec::L0(sized(1024 * 512)).validate(512).is_ok());
        let err = StageSpec::L0(sized(1025 * 512))
            .validate(512)
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("l0 configuration") && err.contains("1025 entries"),
            "{err}"
        );
    }
}
