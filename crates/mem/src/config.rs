//! Cache configuration.

use crate::replacement::ReplacementPolicy;
use crate::set::MAX_WAYS;
use crate::MemError;
use sttcache_tech::{ArrayConfig, CellKind};

/// Asymmetric write timing (the AWARE model of Kwon et al., paper
/// reference \[1\]).
///
/// STT-MRAM writes are asymmetric: the 0->1 MTJ transition is slower than
/// 1->0. AWARE restructures the array with redundant blocks so that most
/// writes complete at the fast transition time and only the occasional
/// write pays the slow one. This first-order model makes every
/// `slow_period`-th write take `slow_cycles` instead of the configured
/// write latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsymmetricWrite {
    /// Latency of the slow (0->1 dominated) writes, in cycles.
    pub slow_cycles: u64,
    /// One write in `slow_period` is slow (deterministic, so simulations
    /// stay reproducible).
    pub slow_period: u64,
}

/// Validated configuration for one [`crate::Cache`] level.
///
/// Construct with [`CacheConfig::builder`]; defaults describe the paper's
/// 64 KB 2-way STT-MRAM DL1 (64 B lines, 4-cycle read, 2-cycle write,
/// 4 banks, 4 MSHRs, 4 write-buffer entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: usize,
    associativity: usize,
    line_bytes: usize,
    banks: usize,
    read_cycles: u64,
    write_cycles: u64,
    mshr_entries: usize,
    write_buffer_entries: usize,
    asymmetric_write: Option<AsymmetricWrite>,
    replacement: ReplacementPolicy,
}

/// Builder for [`CacheConfig`].
///
/// # Example
///
/// ```
/// use sttcache_mem::CacheConfig;
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// // The paper's SRAM DL1: 64 KB, 2-way, 32 B lines, 1-cycle access.
/// let sram = CacheConfig::builder()
///     .line_bytes(32)
///     .read_cycles(1)
///     .write_cycles(1)
///     .build()?;
/// assert_eq!(sram.sets(), 1024);
/// # Ok(())
/// # }
/// ```
///
/// A variant of an existing configuration starts from it and sets only
/// what differs:
///
/// ```
/// use sttcache_mem::{CacheConfig, CacheConfigBuilder};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let dl1 = CacheConfig::default();
/// let slow = CacheConfigBuilder::from(dl1).write_cycles(4).build()?;
/// assert_eq!((slow.read_cycles(), slow.write_cycles()), (4, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CacheConfigBuilder(CacheConfig);

impl Default for CacheConfigBuilder {
    fn default() -> Self {
        CacheConfigBuilder(CacheConfig {
            capacity_bytes: 64 * 1024,
            associativity: 2,
            line_bytes: 64,
            banks: 4,
            read_cycles: 4,
            write_cycles: 2,
            mshr_entries: 4,
            write_buffer_entries: 4,
            asymmetric_write: None,
            replacement: ReplacementPolicy::Lru,
        })
    }
}

impl From<CacheConfig> for CacheConfigBuilder {
    fn from(config: CacheConfig) -> Self {
        CacheConfigBuilder(config)
    }
}

impl CacheConfigBuilder {
    /// Total capacity in bytes (power of two).
    pub fn capacity_bytes(&mut self, v: usize) -> &mut Self {
        self.0.capacity_bytes = v;
        self
    }

    /// Set associativity (1 to 64 ways).
    pub fn associativity(&mut self, v: usize) -> &mut Self {
        self.0.associativity = v;
        self
    }

    /// Line size in bytes (power of two).
    pub fn line_bytes(&mut self, v: usize) -> &mut Self {
        self.0.line_bytes = v;
        self
    }

    /// Independently schedulable banks (power of two).
    pub fn banks(&mut self, v: usize) -> &mut Self {
        self.0.banks = v;
        self
    }

    /// Read access latency in cycles (≥ 1).
    pub fn read_cycles(&mut self, v: u64) -> &mut Self {
        self.0.read_cycles = v;
        self
    }

    /// Write access latency in cycles (≥ 1).
    pub fn write_cycles(&mut self, v: u64) -> &mut Self {
        self.0.write_cycles = v;
        self
    }

    /// Number of MSHR entries (≥ 1).
    pub fn mshr_entries(&mut self, v: usize) -> &mut Self {
        self.0.mshr_entries = v;
        self
    }

    /// Number of eviction write-buffer entries (≥ 1).
    pub fn write_buffer_entries(&mut self, v: usize) -> &mut Self {
        self.0.write_buffer_entries = v;
        self
    }

    /// Enables asymmetric (AWARE-style) write timing.
    pub fn asymmetric_write(&mut self, v: AsymmetricWrite) -> &mut Self {
        self.0.asymmetric_write = Some(v);
        self
    }

    /// Replacement policy (true LRU by default, as in the paper).
    pub fn replacement(&mut self, v: ReplacementPolicy) -> &mut Self {
        self.0.replacement = v;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] describing the first invalid field.
    pub fn build(&self) -> Result<CacheConfig, MemError> {
        let b = self.0;
        if b.capacity_bytes == 0 || !b.capacity_bytes.is_power_of_two() {
            return Err(MemError::InvalidCapacity(b.capacity_bytes));
        }
        if b.line_bytes == 0 || !b.line_bytes.is_power_of_two() || b.line_bytes > b.capacity_bytes {
            return Err(MemError::InvalidLineBytes(b.line_bytes));
        }
        let lines = b.capacity_bytes / b.line_bytes;
        if b.associativity == 0
            || b.associativity > lines.min(MAX_WAYS)
            || !lines.is_multiple_of(b.associativity)
        {
            return Err(MemError::InvalidAssociativity(b.associativity));
        }
        let sets = lines / b.associativity;
        if !sets.is_power_of_two() {
            return Err(MemError::InvalidAssociativity(b.associativity));
        }
        if b.banks == 0 || !b.banks.is_power_of_two() {
            return Err(MemError::InvalidBanks(b.banks));
        }
        if b.read_cycles == 0 {
            return Err(MemError::InvalidLatency("read"));
        }
        if b.write_cycles == 0 {
            return Err(MemError::InvalidLatency("write"));
        }
        if b.mshr_entries == 0 {
            return Err(MemError::InvalidBufferDepth {
                buffer: "mshr",
                depth: b.mshr_entries,
            });
        }
        if b.write_buffer_entries == 0 {
            return Err(MemError::InvalidBufferDepth {
                buffer: "write buffer",
                depth: b.write_buffer_entries,
            });
        }
        if let Some(aw) = b.asymmetric_write {
            if aw.slow_cycles < b.write_cycles {
                return Err(MemError::InvalidLatency("asymmetric slow write"));
            }
            if aw.slow_period == 0 {
                return Err(MemError::InvalidLatency("asymmetric write period"));
            }
        }
        Ok(b)
    }
}

impl CacheConfig {
    /// Starts a builder with the paper's STT-MRAM DL1 defaults.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::default()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Associativity.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Bank count.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Read latency in cycles.
    pub fn read_cycles(&self) -> u64 {
        self.read_cycles
    }

    /// Write latency in cycles.
    pub fn write_cycles(&self) -> u64 {
        self.write_cycles
    }

    /// MSHR entry count.
    pub fn mshr_entries(&self) -> usize {
        self.mshr_entries
    }

    /// Write-buffer entry count.
    pub fn write_buffer_entries(&self) -> usize {
        self.write_buffer_entries
    }

    /// Asymmetric write timing, if enabled.
    pub fn asymmetric_write(&self) -> Option<AsymmetricWrite> {
        self.asymmetric_write
    }

    /// Replacement policy.
    pub fn replacement(&self) -> ReplacementPolicy {
        self.replacement
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.associativity
    }

    /// The matching technology-array configuration (for energy/area/leakage
    /// queries against `sttcache-tech`).
    ///
    /// # Errors
    ///
    /// Returns [`sttcache_tech::TechError`] if this cache geometry has no
    /// valid array realization for the given cell (should not happen for
    /// configurations that passed [`CacheConfigBuilder::build`]).
    pub fn array_config(&self, cell: CellKind) -> Result<ArrayConfig, sttcache_tech::TechError> {
        ArrayConfig::builder()
            .capacity_bytes(self.capacity_bytes)
            .associativity(self.associativity)
            .line_bits(self.line_bytes * 8)
            .banks(self.banks)
            .cell(cell)
            .build()
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::builder()
            .build()
            .expect("default cache config is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_stt_dl1() {
        let c = CacheConfig::default();
        assert_eq!(c.capacity_bytes(), 64 * 1024);
        assert_eq!(c.associativity(), 2);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.read_cycles(), 4);
        assert_eq!(c.write_cycles(), 2);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(CacheConfig::builder().capacity_bytes(0).build().is_err());
        assert!(CacheConfig::builder().capacity_bytes(1000).build().is_err());
        assert!(CacheConfig::builder().line_bytes(0).build().is_err());
        assert!(CacheConfig::builder().line_bytes(48).build().is_err());
        assert!(CacheConfig::builder().associativity(0).build().is_err());
        assert!(CacheConfig::builder().banks(3).build().is_err());
        assert!(CacheConfig::builder().read_cycles(0).build().is_err());
        assert!(CacheConfig::builder().write_cycles(0).build().is_err());
        assert!(CacheConfig::builder().mshr_entries(0).build().is_err());
        assert!(CacheConfig::builder()
            .write_buffer_entries(0)
            .build()
            .is_err());
    }

    #[test]
    fn line_bigger_than_capacity_is_rejected() {
        assert!(CacheConfig::builder()
            .capacity_bytes(64)
            .line_bytes(128)
            .build()
            .is_err());
    }

    #[test]
    fn fully_associative_is_allowed() {
        let c = CacheConfig::builder()
            .capacity_bytes(256)
            .line_bytes(64)
            .associativity(4)
            .banks(1)
            .build()
            .unwrap();
        assert_eq!(c.sets(), 1);
    }

    #[test]
    fn associativity_above_64_is_rejected() {
        let ways = |n| CacheConfig::builder().associativity(n).build();
        assert_eq!(ways(64).unwrap().sets(), 16);
        assert_eq!(ways(128), Err(MemError::InvalidAssociativity(128)));
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        // 8 lines / 3 ways does not divide evenly.
        assert!(CacheConfig::builder()
            .capacity_bytes(512)
            .line_bytes(64)
            .associativity(3)
            .build()
            .is_err());
    }

    #[test]
    fn array_config_roundtrip() {
        let c = CacheConfig::default();
        let a = c.array_config(CellKind::SttMram).unwrap();
        assert_eq!(a.capacity_bytes(), c.capacity_bytes());
        assert_eq!(a.line_bits(), c.line_bytes() * 8);
    }
}
