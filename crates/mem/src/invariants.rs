//! Runtime invariant checker behind a zero-cost env gate.
//!
//! Every structural invariant the timing models rely on — MSHR occupancy
//! bounds, replacement-state validity, bank-schedule consistency, FIFO
//! ordering of the buffers, monotone completion times — can be checked on
//! the hot paths when `STTCACHE_INVARIANTS=1` is set (or when a test calls
//! [`set_enabled`]). When the gate is off the only cost is a single
//! relaxed atomic load per check site, so production sweeps pay nothing
//! measurable (the repo benchmark, `benchmark/`, runs every workload
//! disarmed, so a cost that grows shows in its end-to-end metrics).
//!
//! Violations are *reported*, not panicked: each one becomes a structured
//! [`InvariantViolation`] naming the component, the cycle it was detected
//! at, and (when meaningful) the address involved. Reports accumulate in a
//! thread-local buffer so the parallel sweep workers never contaminate
//! each other; harnesses drain them with [`take_violations`].

use crate::addr::Cycle;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// A single detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The component that detected the violation (`"mshr"`, `"set"`,
    /// `"banks"`, `"write-buffer"`, `"store-buffer"`, `"vwb"`, `"l0"`,
    /// `"emshr"`, `"core"`, `"front-end"`).
    pub component: &'static str,
    /// The cycle at which the violation was detected.
    pub cycle: Cycle,
    /// The byte or line address involved, when one is meaningful.
    pub addr: Option<u64>,
    /// Human-readable description of what was violated.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} @ cycle {}] ", self.component, self.cycle)?;
        if let Some(a) = self.addr {
            write!(f, "addr {a:#x}: ")?;
        }
        f.write_str(&self.detail)
    }
}

/// Gate state: 0 = uninitialised, 1 = off, 2 = on.
static GATE: AtomicU8 = AtomicU8::new(0);

/// At most this many violations are retained per thread; the rest are
/// counted but dropped (a broken invariant on a hot path would otherwise
/// allocate without bound).
const MAX_RETAINED: usize = 256;

thread_local! {
    static VIOLATIONS: RefCell<(Vec<InvariantViolation>, usize)> =
        const { RefCell::new((Vec::new(), 0)) };
}

/// Whether invariant checking is enabled on this process.
///
/// Reads `STTCACHE_INVARIANTS` once through [`crate::env_gate`], panicking
/// with its error on a malformed value (the binaries exit 2 on it before
/// any work); afterwards it is a single relaxed atomic load.
/// [`set_enabled`] overrides the environment at any time.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = crate::env_gate("STTCACHE_INVARIANTS").unwrap_or_else(|e| panic!("{e}"));
    // Racing first calls agree on the same env-derived value, so a plain
    // store is fine; a concurrent set_enabled wins either way on its own
    // subsequent store.
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the gate on or off, overriding `STTCACHE_INVARIANTS`.
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Records a violation in the calling thread's buffer.
///
/// Callers are expected to have consulted [`enabled`] first; reporting
/// itself is unconditional so harness-level checks (drain verification)
/// can report even when the hot-path gate is off.
pub fn report(component: &'static str, cycle: Cycle, addr: Option<u64>, detail: String) {
    VIOLATIONS.with(|v| {
        let mut v = v.borrow_mut();
        v.1 += 1;
        if v.0.len() < MAX_RETAINED {
            v.0.push(InvariantViolation {
                component,
                cycle,
                addr,
                detail,
            });
        }
    });
}

/// Drains and returns this thread's recorded violations, resetting the
/// total count. At most the first 256 are retained verbatim; the return
/// also reports how many were observed in total.
pub fn take_violations() -> (Vec<InvariantViolation>, usize) {
    VIOLATIONS.with(|v| {
        let mut v = v.borrow_mut();
        let total = v.1;
        v.1 = 0;
        (std::mem::take(&mut v.0), total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles_and_reports_are_thread_local() {
        set_enabled(true);
        assert!(enabled());
        report("mshr", 42, Some(0x1000), "test violation".into());
        let (list, total) = take_violations();
        assert_eq!(total, 1);
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].component, "mshr");
        assert_eq!(list[0].cycle, 42);
        assert_eq!(list[0].addr, Some(0x1000));
        assert_eq!(take_violations().1, 0);

        // Another thread sees an empty buffer even while this one reports.
        report("set", 1, None, "local".into());
        let other = std::thread::spawn(|| take_violations().1).join().unwrap();
        assert_eq!(other, 0);
        take_violations();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }

    #[test]
    fn retention_is_capped_but_counting_is_not() {
        take_violations();
        for i in 0..300 {
            report("banks", i, None, "overflow".into());
        }
        let (list, total) = take_violations();
        assert_eq!(total, 300);
        assert_eq!(list.len(), MAX_RETAINED);
    }

    #[test]
    fn display_names_component_cycle_and_addr() {
        let v = InvariantViolation {
            component: "vwb",
            cycle: 7,
            addr: Some(0x40),
            detail: "dirty entry after flush".into(),
        };
        let s = v.to_string();
        assert!(s.contains("vwb"), "{s}");
        assert!(s.contains("cycle 7"), "{s}");
        assert!(s.contains("0x40"), "{s}");
    }
}
