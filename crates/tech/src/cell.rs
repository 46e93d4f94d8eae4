//! Memory-cell models.
//!
//! One [`CellModel`] per technology the paper discusses. Each model carries
//! the per-cell parameters the array model needs: intrinsic read/write time
//! (the part of the access that happens *inside* the cell/bit-line/sense
//! path, beyond the shared periphery), cell area in F², per-bit leakage,
//! per-bit dynamic energy and write endurance.
//!
//! The SRAM and STT-MRAM parameter sets are calibrated so the 64 KB 2-way
//! array of the paper's Table I is reproduced exactly; ReRAM and PRAM carry
//! representative published values (the paper rules them out for L1 — PRAM
//! for write latency and integration, both for endurance — and those
//! properties are visible in these numbers).

use crate::mtj::MtjDevice;
use crate::TechError;

/// The memory technologies modelled by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CellKind {
    /// 6T CMOS SRAM (the baseline DL1 technology).
    Sram6T,
    /// STT-MRAM, 2T-2MTJ cell with the paper's perpendicular dual MTJ.
    ///
    /// This is the paper's NVM of choice and the crate default.
    #[default]
    SttMram,
    /// STT-MRAM, legacy 1T-1MTJ cell (higher density, weaker read margin).
    SttMram1T1Mtj,
    /// Resistive RAM (HfOx-class bipolar ReRAM).
    ReRam,
    /// Phase-change RAM (GST mushroom cell).
    Pram,
}

impl CellKind {
    /// All kinds, for exhaustive sweeps and tests.
    pub const ALL: [CellKind; 5] = [
        CellKind::Sram6T,
        CellKind::SttMram,
        CellKind::SttMram1T1Mtj,
        CellKind::ReRam,
        CellKind::Pram,
    ];

    /// Human-readable technology name.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Sram6T => "SRAM",
            CellKind::SttMram => "STT-MRAM",
            CellKind::SttMram1T1Mtj => "STT-MRAM (1T-1MTJ)",
            CellKind::ReRam => "ReRAM",
            CellKind::Pram => "PRAM",
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Raw per-cell parameters consumed by the array model.
///
/// Obtain a calibrated set through [`CellModel::parameters`]; construct a
/// custom set directly for what-if studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParameters {
    /// Intrinsic read time in ns (bit-line development + sensing).
    pub read_ns: f64,
    /// Intrinsic write time in ns (cell flip / pulse + driver).
    pub write_ns: f64,
    /// Cell area in F².
    pub area_f2: f64,
    /// Per-bit standby leakage in nW (HP flavour, 32 nm).
    pub leakage_nw_per_bit: f64,
    /// Dynamic read energy per accessed bit in pJ.
    pub read_pj_per_bit: f64,
    /// Dynamic write energy per accessed bit in pJ.
    pub write_pj_per_bit: f64,
    /// Write endurance in cycles.
    pub endurance_cycles: f64,
}

impl CellParameters {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] if any field is non-positive
    /// or non-finite.
    pub fn validate(&self) -> Result<(), TechError> {
        let fields: [(&'static str, f64); 7] = [
            ("read_ns", self.read_ns),
            ("write_ns", self.write_ns),
            ("area_f2", self.area_f2),
            ("leakage_nw_per_bit", self.leakage_nw_per_bit),
            ("read_pj_per_bit", self.read_pj_per_bit),
            ("write_pj_per_bit", self.write_pj_per_bit),
            ("endurance_cycles", self.endurance_cycles),
        ];
        for (name, value) in fields {
            // Leakage may legitimately be zero for NVM cells.
            let ok = value.is_finite() && (value > 0.0 || name == "leakage_nw_per_bit");
            if !ok || value < 0.0 {
                return Err(TechError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// A calibrated cell model for one [`CellKind`].
///
/// # Example
///
/// ```
/// use sttcache_tech::{CellKind, CellModel};
///
/// let stt = CellModel::new(CellKind::SttMram);
/// let sram = CellModel::new(CellKind::Sram6T);
/// // Table I: STT-MRAM is ~3.5x denser than SRAM (42 F² vs 146 F²).
/// assert!(sram.parameters().area_f2 / stt.parameters().area_f2 > 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellModel {
    kind: CellKind,
    params: CellParameters,
}

impl CellModel {
    /// Creates the calibrated model for `kind`.
    pub fn new(kind: CellKind) -> Self {
        let params = match kind {
            // Calibrated so the 64 KB 2-way array reads in 0.787 ns and
            // writes in 0.773 ns at 32 nm HP (Table I).
            CellKind::Sram6T => CellParameters {
                read_ns: 0.250,
                write_ns: 0.236,
                area_f2: 146.0,
                leakage_nw_per_bit: 147.6,
                read_pj_per_bit: 0.040,
                write_pj_per_bit: 0.042,
                endurance_cycles: 1e16,
            },
            // Paper cell: 2T-2MTJ with the perpendicular dual MTJ. The
            // intrinsic read is dominated by MTJ sensing (2.4 ns at 100 %
            // TMR) plus the high-resistance bit-line development (0.433 ns);
            // the write by the 1.2 ns precessional pulse plus driver
            // (0.123 ns). With the shared periphery this reproduces
            // Table I's 3.37 ns / 1.86 ns at 64 KB.
            CellKind::SttMram => CellParameters {
                read_ns: 2.833,
                write_ns: 1.323,
                area_f2: 42.0,
                leakage_nw_per_bit: 0.0,
                read_pj_per_bit: 0.030,
                write_pj_per_bit: 0.250,
                endurance_cycles: 1e15,
            },
            // 1T-1MTJ: denser but the single-ended read margin is weaker
            // (longer sensing) and write endurance/stability is what pushed
            // industry to 2T-2MTJ (paper §III).
            CellKind::SttMram1T1Mtj => CellParameters {
                read_ns: 3.6,
                write_ns: 1.9,
                area_f2: 22.0,
                leakage_nw_per_bit: 0.0,
                read_pj_per_bit: 0.028,
                write_pj_per_bit: 0.300,
                endurance_cycles: 1e12,
            },
            // Fast read, small cell, but limited endurance (paper §II:
            // "plagued by severe endurance issues").
            CellKind::ReRam => CellParameters {
                read_ns: 1.1,
                write_ns: 9.0,
                area_f2: 16.0,
                leakage_nw_per_bit: 0.0,
                read_pj_per_bit: 0.022,
                write_pj_per_bit: 0.450,
                endurance_cycles: 1e10,
            },
            // Very slow writes and CMOS-integration problems rule PRAM out
            // for high-level caches (paper §I).
            CellKind::Pram => CellParameters {
                read_ns: 2.2,
                write_ns: 90.0,
                area_f2: 12.0,
                leakage_nw_per_bit: 0.0,
                read_pj_per_bit: 0.035,
                write_pj_per_bit: 2.8,
                endurance_cycles: 1e8,
            },
        };
        CellModel { kind, params }
    }

    /// Builds an STT-MRAM cell model from an explicit [`MtjDevice`],
    /// recomputing the intrinsic read/write times from the device physics.
    ///
    /// Bit-line and driver overheads (0.433 ns / 0.123 ns) and energies are
    /// inherited from the calibrated paper cell.
    pub fn from_mtj(mtj: &MtjDevice, write_overdrive: f64) -> Self {
        let base = CellModel::new(CellKind::SttMram);
        let params = CellParameters {
            read_ns: mtj.sensing_time_ns() + 0.433,
            write_ns: mtj.write_pulse_ns(write_overdrive) + 0.123,
            ..base.params
        };
        CellModel {
            kind: CellKind::SttMram,
            params,
        }
    }

    /// Creates a model with custom parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] if `params` fails
    /// [`CellParameters::validate`].
    pub fn with_parameters(kind: CellKind, params: CellParameters) -> Result<Self, TechError> {
        params.validate()?;
        Ok(CellModel { kind, params })
    }

    /// The technology kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The parameter set.
    pub fn parameters(&self) -> &CellParameters {
        &self.params
    }
}

impl Default for CellModel {
    fn default() -> Self {
        CellModel::new(CellKind::SttMram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_models_validate() {
        for kind in CellKind::ALL {
            CellModel::new(kind).parameters().validate().unwrap();
        }
    }

    #[test]
    fn stt_read_is_the_bottleneck_not_write() {
        // The paper's key technology claim: with realistic TMR the read
        // intrinsic exceeds the write intrinsic for the 2T-2MTJ cell.
        let p = *CellModel::new(CellKind::SttMram).parameters();
        assert!(p.read_ns > p.write_ns);
    }

    #[test]
    fn sram_is_fastest_and_leakiest() {
        let sram = *CellModel::new(CellKind::Sram6T).parameters();
        for kind in [CellKind::SttMram, CellKind::ReRam, CellKind::Pram] {
            let nvm = *CellModel::new(kind).parameters();
            assert!(sram.read_ns < nvm.read_ns, "{kind}");
            assert!(sram.leakage_nw_per_bit > nvm.leakage_nw_per_bit, "{kind}");
        }
    }

    #[test]
    fn pram_write_is_prohibitive_for_l1() {
        let pram = *CellModel::new(CellKind::Pram).parameters();
        let stt = *CellModel::new(CellKind::SttMram).parameters();
        assert!(pram.write_ns > 10.0 * stt.write_ns);
    }

    #[test]
    fn endurance_ordering_matches_paper() {
        // SRAM >= STT-MRAM >> ReRAM > PRAM.
        let e = |k: CellKind| CellModel::new(k).parameters().endurance_cycles;
        assert!(e(CellKind::Sram6T) >= e(CellKind::SttMram));
        assert!(e(CellKind::SttMram) > 1e4 * e(CellKind::ReRam));
        assert!(e(CellKind::ReRam) > e(CellKind::Pram));
    }

    #[test]
    fn from_mtj_matches_paper_cell() {
        let mtj = MtjDevice::paper_device().unwrap();
        let cell = CellModel::from_mtj(&mtj, 2.0);
        let builtin = CellModel::new(CellKind::SttMram);
        assert!((cell.parameters().read_ns - builtin.parameters().read_ns).abs() < 1e-9);
        assert!((cell.parameters().write_ns - builtin.parameters().write_ns).abs() < 1e-9);
    }

    #[test]
    fn custom_parameters_are_validated() {
        let mut p = *CellModel::new(CellKind::Sram6T).parameters();
        p.read_ns = -1.0;
        assert!(CellModel::with_parameters(CellKind::Sram6T, p).is_err());
        p.read_ns = f64::INFINITY;
        assert!(CellModel::with_parameters(CellKind::Sram6T, p).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(CellKind::SttMram.to_string(), "STT-MRAM");
        assert_eq!(CellKind::Sram6T.to_string(), "SRAM");
    }
}
