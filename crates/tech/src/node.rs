//! Process technology nodes.
//!
//! The paper evaluates a 32 nm high-performance (HP) node. This module keeps
//! the node description separate from the cell models so the same cell can be
//! scaled across nodes (the paper obtains its STT-MRAM numbers "by means of
//! appropriate technology scaling" from published 65/45 nm prototypes).

use crate::TechError;

/// Transistor flavour of a process node.
///
/// High-performance transistors are fast but leaky; low-standby-power
/// transistors trade speed for drastically lower sub-threshold leakage.
/// The paper's Table I uses the HP flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum TransistorFlavor {
    /// High performance (fast, leaky). Paper default.
    #[default]
    HighPerformance,
    /// Low operating power.
    LowOperatingPower,
    /// Low standby power.
    LowStandbyPower,
}

impl TransistorFlavor {
    /// Multiplier applied to per-cell leakage relative to the HP flavour.
    pub fn leakage_factor(self) -> f64 {
        match self {
            TransistorFlavor::HighPerformance => 1.0,
            TransistorFlavor::LowOperatingPower => 0.12,
            TransistorFlavor::LowStandbyPower => 0.015,
        }
    }

    /// Multiplier applied to gate/logic delay relative to the HP flavour.
    pub fn delay_factor(self) -> f64 {
        match self {
            TransistorFlavor::HighPerformance => 1.0,
            TransistorFlavor::LowOperatingPower => 1.35,
            TransistorFlavor::LowStandbyPower => 1.9,
        }
    }
}

/// A process technology node: feature size, supply voltage and transistor
/// flavour.
///
/// All array-model delays and energies are expressed relative to this node;
/// [`TechNode::hp_32nm`] is the calibration point for the paper's Table I.
///
/// # Example
///
/// ```
/// use sttcache_tech::TechNode;
///
/// let node = TechNode::hp_32nm();
/// assert_eq!(node.feature_nm(), 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechNode {
    feature_nm: f64,
    vdd: f64,
    flavor: TransistorFlavor,
}

impl TechNode {
    /// The paper's evaluation node: 32 nm, high-performance transistors,
    /// 0.9 V supply.
    pub fn hp_32nm() -> Self {
        TechNode {
            feature_nm: 32.0,
            vdd: 0.9,
            flavor: TransistorFlavor::HighPerformance,
        }
    }

    /// A 22 nm HP node (forward scaling).
    pub fn hp_22nm() -> Self {
        TechNode {
            feature_nm: 22.0,
            vdd: 0.8,
            flavor: TransistorFlavor::HighPerformance,
        }
    }

    /// Creates a custom node.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] if `feature_nm` or `vdd` is
    /// not strictly positive.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` also rejects NaN
    pub fn new(feature_nm: f64, vdd: f64, flavor: TransistorFlavor) -> Result<Self, TechError> {
        if !(feature_nm > 0.0) {
            return Err(TechError::InvalidParameter {
                name: "feature_nm",
                value: feature_nm,
            });
        }
        if !(vdd > 0.0) {
            return Err(TechError::InvalidParameter {
                name: "vdd",
                value: vdd,
            });
        }
        Ok(TechNode {
            feature_nm,
            vdd,
            flavor,
        })
    }

    /// Feature size F in nanometres.
    pub fn feature_nm(&self) -> f64 {
        self.feature_nm
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Transistor flavour.
    pub fn flavor(&self) -> TransistorFlavor {
        self.flavor
    }

    /// Area of one F² in mm² (`F` in nm ⇒ `F²` in nm², converted to mm²).
    pub fn f2_mm2(&self) -> f64 {
        let f_mm = self.feature_nm * 1e-6;
        f_mm * f_mm
    }

    /// Delay scale of this node relative to the 32 nm HP calibration node.
    ///
    /// First-order Dennard-style scaling: gate delay shrinks roughly linearly
    /// with feature size; the flavour factor is applied on top.
    pub fn delay_scale(&self) -> f64 {
        (self.feature_nm / 32.0) * self.flavor.delay_factor()
    }

    /// Dynamic-energy scale relative to the 32 nm HP calibration node
    /// (CV² scaling: capacitance ∝ F, energy ∝ F·Vdd²).
    pub fn energy_scale(&self) -> f64 {
        (self.feature_nm / 32.0) * (self.vdd / 0.9).powi(2)
    }

    /// Leakage-power scale relative to the 32 nm HP calibration node.
    ///
    /// Sub-threshold leakage per transistor *grows* as nodes shrink (the
    /// paper's motivation for NVMs); this is modelled as an inverse-linear
    /// dependence on feature size times the flavour factor.
    pub fn leakage_scale(&self) -> f64 {
        (32.0 / self.feature_nm) * self.flavor.leakage_factor()
    }
}

impl Default for TechNode {
    fn default() -> Self {
        TechNode::hp_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_node_scales_are_unity() {
        let n = TechNode::hp_32nm();
        assert_eq!(n.delay_scale(), 1.0);
        assert_eq!(n.energy_scale(), 1.0);
        assert_eq!(n.leakage_scale(), 1.0);
    }

    #[test]
    fn smaller_node_is_faster_and_leakier() {
        let n22 = TechNode::hp_22nm();
        assert!(n22.delay_scale() < 1.0);
        assert!(n22.leakage_scale() > 1.0);
    }

    #[test]
    fn larger_node_is_slower() {
        let n45 = TechNode::new(45.0, 1.0, TransistorFlavor::HighPerformance).unwrap();
        assert!(n45.delay_scale() > 1.0);
        assert!(n45.energy_scale() > 1.0);
    }

    #[test]
    fn invalid_nodes_are_rejected() {
        assert!(TechNode::new(0.0, 1.0, TransistorFlavor::HighPerformance).is_err());
        assert!(TechNode::new(32.0, -0.1, TransistorFlavor::HighPerformance).is_err());
        assert!(TechNode::new(f64::NAN, 1.0, TransistorFlavor::HighPerformance).is_err());
    }

    #[test]
    fn f2_area_is_consistent() {
        let n = TechNode::hp_32nm();
        // 32 nm = 3.2e-5 mm, squared = 1.024e-9 mm².
        assert!((n.f2_mm2() - 1.024e-9).abs() < 1e-12);
    }

    #[test]
    fn low_power_flavors_leak_less_but_are_slower() {
        let hp = TransistorFlavor::HighPerformance;
        let lstp = TransistorFlavor::LowStandbyPower;
        assert!(lstp.leakage_factor() < hp.leakage_factor());
        assert!(lstp.delay_factor() > hp.delay_factor());
    }
}
