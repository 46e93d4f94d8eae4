//! Canonical cache configurations of the paper's platform (§III, §VI).

use crate::SttError;
use sttcache_mem::CacheConfig;
use sttcache_tech::CellKind;

/// Which technology realizes the L1 D-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlOneTechnology {
    /// The SRAM baseline (Table I left column: 1-cycle access, 256-bit
    /// lines).
    Sram,
    /// The STT-MRAM replacement (Table I right column: 4-cycle read,
    /// 2-cycle write, 512-bit lines).
    SttMram,
}

impl DlOneTechnology {
    /// The matching `sttcache-tech` cell kind.
    pub fn cell_kind(self) -> CellKind {
        match self {
            DlOneTechnology::Sram => CellKind::Sram6T,
            DlOneTechnology::SttMram => CellKind::SttMram,
        }
    }

    /// The canonical L1 D-cache of this technology: [`sram_dl1_config`]
    /// or [`nvm_dl1_config`].
    pub fn dl1_config(self) -> Result<CacheConfig, SttError> {
        match self {
            DlOneTechnology::Sram => sram_dl1_config(),
            DlOneTechnology::SttMram => nvm_dl1_config(),
        }
    }

    /// The canonical L1 I-cache of this technology: [`sram_il1_config`]
    /// or [`nvm_il1_config`].
    pub fn il1_config(self) -> Result<CacheConfig, SttError> {
        match self {
            DlOneTechnology::Sram => sram_il1_config(),
            DlOneTechnology::SttMram => nvm_il1_config(),
        }
    }
}

/// The paper's 64 KB 2-way SRAM DL1: 32 B (256-bit) lines, 1-cycle read and
/// write at 1 GHz (0.787 ns / 0.773 ns).
///
/// # Errors
///
/// Never fails for the built-in geometry; the `Result` keeps the signature
/// aligned with custom configurations.
pub fn sram_dl1_config() -> Result<CacheConfig, SttError> {
    Ok(CacheConfig::builder()
        .capacity_bytes(64 * 1024)
        .associativity(2)
        .line_bytes(32)
        .banks(4)
        .read_cycles(1)
        .write_cycles(1)
        .build()?)
}

/// The paper's 64 KB 2-way STT-MRAM DL1: 64 B (512-bit) lines, 4-cycle
/// read, 2-cycle write at 1 GHz (3.37 ns / 1.86 ns), banked.
///
/// # Errors
///
/// Never fails for the built-in geometry (see [`sram_dl1_config`]).
pub fn nvm_dl1_config() -> Result<CacheConfig, SttError> {
    Ok(CacheConfig::builder()
        .capacity_bytes(64 * 1024)
        .associativity(2)
        .line_bytes(64)
        .banks(4)
        .read_cycles(4)
        .write_cycles(2)
        .build()?)
}

/// The paper's 32 KB 2-way SRAM L1 I-cache (1-cycle access, 32 B lines).
///
/// # Errors
///
/// Never fails for the built-in geometry (see [`sram_dl1_config`]).
pub fn sram_il1_config() -> Result<CacheConfig, SttError> {
    Ok(CacheConfig::builder()
        .capacity_bytes(32 * 1024)
        .associativity(2)
        .line_bytes(32)
        .banks(2)
        .read_cycles(1)
        .write_cycles(1)
        .build()?)
}

/// An STT-MRAM replacement for the L1 I-cache (4-cycle read, 64 B lines) —
/// the configuration the paper's companion work (reference \[7\]) studies.
///
/// # Errors
///
/// Never fails for the built-in geometry (see [`sram_dl1_config`]).
pub fn nvm_il1_config() -> Result<CacheConfig, SttError> {
    Ok(CacheConfig::builder()
        .capacity_bytes(32 * 1024)
        .associativity(2)
        .line_bytes(64)
        .banks(2)
        .read_cycles(4)
        .write_cycles(2)
        .build()?)
}

/// The paper's unified L2: 2 MB, 16-way, 64 B lines, SRAM, 12-cycle access.
///
/// # Errors
///
/// Never fails for the built-in geometry (see [`sram_dl1_config`]).
pub fn l2_config() -> Result<CacheConfig, SttError> {
    Ok(CacheConfig::builder()
        .capacity_bytes(2 * 1024 * 1024)
        .associativity(16)
        .line_bytes(64)
        .banks(4)
        .read_cycles(12)
        .write_cycles(12)
        .mshr_entries(8)
        .write_buffer_entries(8)
        .build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_dl1_matches_table_one() {
        let c = sram_dl1_config().unwrap();
        assert_eq!(c.capacity_bytes(), 64 * 1024);
        assert_eq!(c.associativity(), 2);
        assert_eq!(c.line_bytes() * 8, 256);
        assert_eq!(c.read_cycles(), 1);
        assert_eq!(c.write_cycles(), 1);
    }

    #[test]
    fn nvm_dl1_matches_table_one_and_assumptions() {
        let c = nvm_dl1_config().unwrap();
        assert_eq!(c.line_bytes() * 8, 512);
        // §III: read 4x SRAM, write 2x SRAM.
        assert_eq!(c.read_cycles(), 4);
        assert_eq!(c.write_cycles(), 2);
    }

    #[test]
    fn l2_is_2mb_16way() {
        let c = l2_config().unwrap();
        assert_eq!(c.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(c.associativity(), 16);
    }

    #[test]
    fn technology_maps_to_cells() {
        assert_eq!(DlOneTechnology::Sram.cell_kind(), CellKind::Sram6T);
        assert_eq!(DlOneTechnology::SttMram.cell_kind(), CellKind::SttMram);
    }
}
