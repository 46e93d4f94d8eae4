//! Penalty metrics.
//!
//! Every figure in the paper reports *performance penalty*: the execution-
//! time increase of a configuration relative to the SRAM D-cache baseline,
//! in percent ("SRAM D-cache baseline = 100 %").

/// Performance penalty in percent of `cycles` relative to
/// `baseline_cycles`.
///
/// Negative values mean the configuration is *faster* than the baseline
/// (possible when code transformations are applied on top).
///
/// # Panics
///
/// Panics if `baseline_cycles` is zero.
///
/// # Example
///
/// ```
/// assert_eq!(sttcache::penalty_pct(100, 154), 54.0);
/// assert_eq!(sttcache::penalty_pct(100, 92), -8.0);
/// ```
pub fn penalty_pct(baseline_cycles: u64, cycles: u64) -> f64 {
    assert!(
        baseline_cycles > 0,
        "baseline must have run for at least one cycle"
    );
    (cycles as f64 - baseline_cycles as f64) / baseline_cycles as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_is_relative_increase() {
        assert_eq!(penalty_pct(200, 300), 50.0);
        assert_eq!(penalty_pct(100, 100), 0.0);
        assert!(penalty_pct(100, 95) < 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        let _ = penalty_pct(0, 10);
    }
}
