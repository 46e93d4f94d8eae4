//! Combined observer-armed gate for the resident-hit fast paths.
//!
//! The fast paths in [`Cache`] must bail whenever *either* the telemetry
//! gate or the invariant gate is armed. Checking both per access costs
//! two atomic loads and two branches; since each source gate changes
//! only through its `set_enabled` function (or, for the invariant gate,
//! its one-time environment read), their disjunction is cached here as a
//! third tri-state atomic and the steady-state check is a single relaxed
//! load.
//!
//! [`Cache`]: crate::Cache

use std::sync::atomic::{AtomicU8, Ordering};

/// Combined state: 0 = uninitialised, 1 = neither armed, 2 = some armed.
static ARMED: AtomicU8 = AtomicU8::new(0);

/// Whether any observer (telemetry or invariants) is armed.
#[inline]
pub(crate) fn any_observer_armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => refresh(),
    }
}

/// Recomputes the cached disjunction from the two source gates, forcing
/// the invariant gate's environment read if it has not happened yet. Both
/// `set_enabled` functions call this after every store, so the cache
/// cannot go stale: once initialised, the source gates only move through
/// `set_enabled`.
#[cold]
pub(crate) fn refresh() -> bool {
    let on = crate::telemetry::enabled() || crate::invariants::enabled();
    ARMED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_gate_tracks_both_sources() {
        // Like the other gate-toggling tests in this crate, this briefly
        // owns the process-wide gates and restores them to off.
        crate::telemetry::set_enabled(false);
        crate::invariants::set_enabled(false);
        assert!(!any_observer_armed());

        crate::telemetry::set_enabled(true);
        assert!(any_observer_armed());
        crate::telemetry::set_enabled(false);
        assert!(!any_observer_armed());

        crate::invariants::set_enabled(true);
        assert!(any_observer_armed());
        crate::invariants::set_enabled(false);
        assert!(!any_observer_armed());
    }
}
