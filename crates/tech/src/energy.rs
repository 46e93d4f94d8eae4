//! Energy accounting helpers.
//!
//! The paper defers full power models ("power models have yet to be fully
//! developed though") but claims the NVM's energy advantage; this module is
//! the extension that makes those claims measurable: a leakage integrator
//! over simulated time.

use crate::Milliwatts;

/// Integrates leakage power over simulated time for a set of components.
///
/// # Example
///
/// ```
/// use sttcache_tech::LeakageIntegrator;
///
/// let mut leak = LeakageIntegrator::new(1.0); // 1 GHz clock
/// leak.add_component("dl1", 28.35);
/// leak.add_component("l2", 300.0);
/// // 1e6 cycles at 1 GHz = 1 ms; 328.35 mW over 1 ms = 328.35 µJ.
/// let uj = leak.energy_uj(1_000_000);
/// assert!((uj - 328.35).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageIntegrator {
    clock_ghz: f64,
    components: Vec<(String, Milliwatts)>,
}

impl LeakageIntegrator {
    /// Creates an integrator for a platform clocked at `clock_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if `clock_ghz` is not strictly positive.
    pub fn new(clock_ghz: f64) -> Self {
        assert!(clock_ghz > 0.0, "clock frequency must be positive");
        LeakageIntegrator {
            clock_ghz,
            components: Vec::new(),
        }
    }

    /// Registers a component and its leakage power in mW.
    pub fn add_component(&mut self, name: impl Into<String>, leakage_mw: Milliwatts) {
        self.components.push((name.into(), leakage_mw));
    }

    /// Total registered leakage power in mW.
    pub fn total_mw(&self) -> Milliwatts {
        self.components.iter().map(|(_, mw)| mw).sum()
    }

    /// Leakage energy in microjoules over `cycles` simulated cycles.
    pub fn energy_uj(&self, cycles: u64) -> f64 {
        let seconds = cycles as f64 / (self.clock_ghz * 1e9);
        // mW · s = mJ; convert to µJ.
        self.total_mw() * seconds * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_integrates_linearly_in_time() {
        let mut leak = LeakageIntegrator::new(2.0);
        leak.add_component("x", 100.0);
        let e1 = leak.energy_uj(1_000_000);
        let e2 = leak.energy_uj(2_000_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-12);
    }

    #[test]
    fn empty_integrator_is_zero() {
        let leak = LeakageIntegrator::new(1.0);
        assert_eq!(leak.total_mw(), 0.0);
        assert_eq!(leak.energy_uj(1_000_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "clock frequency")]
    fn zero_clock_panics() {
        let _ = LeakageIntegrator::new(0.0);
    }
}
