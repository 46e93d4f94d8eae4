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
//!
//! The policies are the EMSHR arms of the shared line buffer's miss paths
//! (`crate::buffer`); this module holds the configuration. In its
//! [`BufferStats`](crate::BufferStats), `fills` counts entries allocated
//! (DL1 misses captured) and `write_hits` counts stores coalesced into
//! retained entries.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nvm_dl1_config, BufferStats, FrontEnd, StageSpec, SttError};
    use sttcache_cpu::DataPort;
    use sttcache_mem::{Addr, Cache, MainMemory};

    /// An EMSHR of `config` in front of `dl1`.
    fn over(config: EmshrConfig, dl1: Cache<MainMemory>) -> Result<FrontEnd<MainMemory>, SttError> {
        FrontEnd::new(&[StageSpec::Emshr(config)], dl1)
    }

    fn stats(fe: &FrontEnd<MainMemory>) -> BufferStats {
        fe.stage_stats()[0].stats
    }

    fn emshr() -> FrontEnd<MainMemory> {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        over(EmshrConfig::default(), dl1).unwrap()
    }

    #[test]
    fn captures_dl1_misses_only() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        assert!(fe.buffers[0].contains(Addr(0)));
        assert_eq!(stats(&fe).fills, 1);
        // Warm DL1 (lines 0..8), pushing line 0 out of the 4-entry EMSHR.
        let mut t2 = t + 10;
        for i in 1..8u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert!(!fe.buffers[0].contains(Addr(0)));
        // Re-reading line 0 is now a DL1 *hit*: the EMSHR does NOT capture
        // it and the access pays the full NVM read.
        let before = stats(&fe).fills;
        let t3 = fe.read(Addr(0), t2);
        assert_eq!(t3, t2 + 4);
        assert_eq!(stats(&fe).fills, before);
        assert!(!fe.buffers[0].contains(Addr(0)));
    }

    #[test]
    fn retained_entry_serves_reads_fast() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        let t2 = fe.read(Addr(32), t);
        assert_eq!(t2, t + 1);
        assert_eq!(stats(&fe).read_hits, 1);
    }

    #[test]
    fn writes_coalesce_into_retained_entries() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        let dl1_writes = fe.dl1_stats().writes;
        let t2 = fe.write(Addr(8), t);
        assert_eq!(t2, t + 1);
        assert_eq!(stats(&fe).write_hits, 1);
        assert_eq!(fe.dl1_stats().writes, dl1_writes);
    }

    #[test]
    fn coalesced_dirty_entry_flushes_on_replacement() {
        let mut fe = emshr();
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(0), t + 1);
        let before = fe.dl1_stats().writes;
        let mut t2 = t + 50;
        for i in 1..=4u64 {
            t2 = fe.read(Addr(i * 64), t2) + 10;
        }
        assert_eq!(stats(&fe).dirty_evictions, 1);
        assert_eq!(fe.dl1_stats().writes, before + 1);
    }

    #[test]
    fn write_miss_goes_to_dl1_and_is_captured() {
        let mut fe = emshr();
        let t = fe.write(Addr(0), 0);
        assert!(t > 100); // write-allocate fetch from memory
        assert!(fe.buffers[0].contains(Addr(0)));
        // Subsequent store coalesces.
        let t2 = fe.write(Addr(8), t + 5);
        assert_eq!(t2, t + 6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let dl1 = Cache::new(nvm_dl1_config().unwrap(), MainMemory::new(100));
        assert!(over(
            EmshrConfig {
                capacity_bits: 64,
                ..EmshrConfig::default()
            },
            dl1.clone()
        )
        .is_err());
        assert!(over(
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
        assert!(StageSpec::Emshr(sized(1024 * 512)).validate(512).is_ok());
        let err = StageSpec::Emshr(sized(1025 * 512))
            .validate(512)
            .unwrap_err()
            .to_string();
        assert!(
            err.starts_with("emshr configuration") && err.contains("1025 entries"),
            "{err}"
        );
    }
}
