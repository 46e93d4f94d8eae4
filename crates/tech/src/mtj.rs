//! Magnetic tunnel junction (MTJ) device model.
//!
//! STT-MRAM stores a bit in the relative magnetic orientation of the free and
//! pinned layers of an MTJ. The paper's central technology observation is
//! that with realistic tunnel-magnetoresistance (TMR) ratios — constrained by
//! cell stability and endurance, and by the industry shift from 1T-1MTJ to
//! 2T-2MTJ cells — the *read* sensing latency, not the write pulse, is the
//! bottleneck for L1-class arrays. This module captures that trade-off:
//! lower TMR ⇒ smaller read margin ⇒ longer sensing time.

use crate::TechError;

/// The MTJ stack geometry (perpendicular vs in-plane anisotropy).
///
/// The paper's cell is "the advanced perpendicular dual MTJ cell with low
/// power, high speed write operation and high magneto-resistive ratio"
/// (Noguchi et al., VLSI 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum MtjStack {
    /// Perpendicular magnetic anisotropy, dual-interface stack (paper cell).
    #[default]
    PerpendicularDual,
    /// Perpendicular magnetic anisotropy, single interface.
    PerpendicularSingle,
    /// Legacy in-plane stack.
    InPlane,
}

impl MtjStack {
    /// Relative write-current requirement of this stack (perpendicular dual
    /// is the most write-efficient).
    pub fn write_current_factor(self) -> f64 {
        match self {
            MtjStack::PerpendicularDual => 1.0,
            MtjStack::PerpendicularSingle => 1.4,
            MtjStack::InPlane => 2.6,
        }
    }
}

/// Switching regime of an STT write pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SwitchingMode {
    /// Sub-10 ns precessional switching (cache-class writes).
    Precessional,
    /// 10–100 ns thermally assisted regime.
    ThermalActivation,
}

/// An MTJ device with its electrical and magnetic parameters.
///
/// # Example
///
/// ```
/// use sttcache_tech::MtjDevice;
///
/// # fn main() -> Result<(), sttcache_tech::TechError> {
/// let mtj = MtjDevice::paper_device()?;
/// // Realistic TMR for a stable, endurable cell is ~100 %.
/// assert!((mtj.tmr() - 1.0).abs() < 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtjDevice {
    stack: MtjStack,
    /// Parallel-state resistance in ohms.
    r_parallel: f64,
    /// TMR ratio: (R_ap − R_p) / R_p, as a fraction (1.0 = 100 %).
    tmr: f64,
    /// Thermal stability factor Δ = E_b / k_B·T.
    thermal_stability: f64,
    /// Critical switching current in microamperes.
    critical_current_ua: f64,
}

impl MtjDevice {
    /// The paper's device: advanced perpendicular dual-MTJ with a realistic
    /// (stability- and endurance-constrained) TMR of ~100 %.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in parameters; the `Result` mirrors
    /// [`MtjDevice::new`] so doc examples exercise the fallible path.
    pub fn paper_device() -> Result<Self, TechError> {
        MtjDevice::new(MtjStack::PerpendicularDual, 2500.0, 1.0, 60.0, 35.0)
    }

    /// Creates an MTJ device.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidParameter`] if any parameter is outside
    /// its physical range (`r_parallel > 0`, `0 < tmr ≤ 4`,
    /// `thermal_stability ≥ 30` for non-volatile retention,
    /// `critical_current_ua > 0`).
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0)` also rejects NaN
    pub fn new(
        stack: MtjStack,
        r_parallel: f64,
        tmr: f64,
        thermal_stability: f64,
        critical_current_ua: f64,
    ) -> Result<Self, TechError> {
        if !(r_parallel > 0.0) {
            return Err(TechError::InvalidParameter {
                name: "r_parallel",
                value: r_parallel,
            });
        }
        if !(tmr > 0.0 && tmr <= 4.0) {
            return Err(TechError::InvalidParameter {
                name: "tmr",
                value: tmr,
            });
        }
        if !(thermal_stability >= 30.0) {
            return Err(TechError::InvalidParameter {
                name: "thermal_stability",
                value: thermal_stability,
            });
        }
        if !(critical_current_ua > 0.0) {
            return Err(TechError::InvalidParameter {
                name: "critical_current_ua",
                value: critical_current_ua,
            });
        }
        Ok(MtjDevice {
            stack,
            r_parallel,
            tmr,
            thermal_stability,
            critical_current_ua,
        })
    }

    /// The stack geometry.
    pub fn stack(&self) -> MtjStack {
        self.stack
    }

    /// Parallel-state resistance in ohms.
    pub fn r_parallel(&self) -> f64 {
        self.r_parallel
    }

    /// TMR ratio as a fraction (1.0 = 100 %).
    pub fn tmr(&self) -> f64 {
        self.tmr
    }

    /// Thermal stability factor Δ.
    pub fn thermal_stability(&self) -> f64 {
        self.thermal_stability
    }

    /// Critical switching current in µA.
    pub fn critical_current_ua(&self) -> f64 {
        self.critical_current_ua
    }

    /// Read-sensing time in nanoseconds for a given sense-amplifier
    /// reference margin.
    ///
    /// Sensing resolves the resistance difference between R_p and R_ap; the
    /// usable signal scales with `TMR / (2 + TMR)` (mid-point referenced
    /// sensing), and the sense amplifier integrates until the bit-line
    /// differential exceeds its offset. Lower TMR ⇒ longer integration.
    /// Calibrated so the paper device senses in ≈2.4 ns, which combined with
    /// array overheads yields Table I's 3.37 ns read at 64 KB.
    pub fn sensing_time_ns(&self) -> f64 {
        // Signal fraction available to the sense amp.
        let signal = self.tmr / (2.0 + self.tmr);
        // Paper device: tmr = 1.0 ⇒ signal = 1/3 ⇒ 0.8 / (1/3) = 2.4 ns.
        0.8 / signal
    }

    /// Write-pulse width in nanoseconds for a given overdrive ratio
    /// `i_write / i_critical` in the precessional regime.
    ///
    /// STT switching time scales roughly as `1 / (I/Ic − 1)` above the
    /// critical current. Calibrated so the paper device with 2× overdrive
    /// switches in ≈1.2 ns (array overheads bring the 64 KB write to
    /// Table I's 1.86 ns).
    ///
    /// # Panics
    ///
    /// Panics if `overdrive <= 1.0` (no switching below critical current).
    pub fn write_pulse_ns(&self, overdrive: f64) -> f64 {
        assert!(
            overdrive > 1.0,
            "write overdrive must exceed the critical current"
        );
        let base = 1.2 * self.stack.write_current_factor();
        base / (overdrive - 1.0)
    }

    /// Switching mode for a given pulse width.
    pub fn switching_mode(&self, pulse_ns: f64) -> SwitchingMode {
        if pulse_ns < 10.0 {
            SwitchingMode::Precessional
        } else {
            SwitchingMode::ThermalActivation
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_device_is_valid() {
        let mtj = MtjDevice::paper_device().unwrap();
        assert_eq!(mtj.stack(), MtjStack::PerpendicularDual);
    }

    #[test]
    fn lower_tmr_senses_slower() {
        let hi = MtjDevice::new(MtjStack::PerpendicularDual, 2500.0, 2.0, 60.0, 35.0).unwrap();
        let lo = MtjDevice::new(MtjStack::PerpendicularDual, 2500.0, 0.5, 60.0, 35.0).unwrap();
        assert!(lo.sensing_time_ns() > hi.sensing_time_ns());
    }

    #[test]
    fn paper_sensing_time_matches_calibration() {
        let mtj = MtjDevice::paper_device().unwrap();
        assert!((mtj.sensing_time_ns() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn higher_overdrive_switches_faster() {
        let mtj = MtjDevice::paper_device().unwrap();
        assert!(mtj.write_pulse_ns(3.0) < mtj.write_pulse_ns(1.5));
    }

    #[test]
    #[should_panic(expected = "overdrive")]
    fn subcritical_write_panics() {
        let mtj = MtjDevice::paper_device().unwrap();
        let _ = mtj.write_pulse_ns(0.9);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(MtjDevice::new(MtjStack::InPlane, -1.0, 1.0, 60.0, 35.0).is_err());
        assert!(MtjDevice::new(MtjStack::InPlane, 2500.0, 0.0, 60.0, 35.0).is_err());
        assert!(MtjDevice::new(MtjStack::InPlane, 2500.0, 9.0, 60.0, 35.0).is_err());
        assert!(MtjDevice::new(MtjStack::InPlane, 2500.0, 1.0, 10.0, 35.0).is_err());
        assert!(MtjDevice::new(MtjStack::InPlane, 2500.0, 1.0, 60.0, 0.0).is_err());
    }

    #[test]
    fn in_plane_needs_more_write_current() {
        assert!(
            MtjStack::InPlane.write_current_factor()
                > MtjStack::PerpendicularDual.write_current_factor()
        );
    }

    #[test]
    fn switching_mode_boundary() {
        let mtj = MtjDevice::paper_device().unwrap();
        assert_eq!(mtj.switching_mode(2.0), SwitchingMode::Precessional);
        assert_eq!(mtj.switching_mode(50.0), SwitchingMode::ThermalActivation);
    }
}
