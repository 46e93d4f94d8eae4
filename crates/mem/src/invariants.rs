//! Runtime invariant checker behind a zero-cost env gate.
//!
//! Every structural invariant the timing models rely on — MSHR occupancy
//! bounds, replacement-state validity, bank-schedule consistency, FIFO
//! ordering of the buffers, monotone completion times — can be checked on
//! the hot paths when `STTCACHE_INVARIANTS=1` is set, or while an [`Armed`]
//! guard from [`arm`] lives anywhere in the process. When the gate is off
//! the only cost is a single relaxed atomic load per check site, so
//! production sweeps pay nothing measurable (the repo benchmark,
//! `benchmark/`, runs every workload disarmed, so a cost that grows shows
//! in its end-to-end metrics).
//!
//! Violations are *reported*, not panicked: each one becomes a structured
//! [`InvariantViolation`] naming the component, the cycle it was detected
//! at, and (when meaningful) the address involved. Reports accumulate in a
//! thread-local buffer so the parallel sweep workers never contaminate
//! each other; harnesses drain them with [`take_violations`].

use crate::addr::Cycle;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Gate state: [`UNSET`] until the environment is read, then [`OFF`] or
/// [`ON`].
static GATE: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// The gate's holders: every live [`Armed`] guard, plus one for the
/// process's whole life when `STTCACHE_INVARIANTS=1`. The gate is on
/// exactly while a holder remains. Every store to it happens under this
/// lock, so an arming and a disarming cannot interleave.
static HOLDERS: Mutex<usize> = Mutex::new(0);

/// The holder count. Every update is a single step, so a panic elsewhere
/// while it was held cannot have left it inconsistent.
fn holders() -> MutexGuard<'static, usize> {
    HOLDERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// At most this many violations are retained per thread; the rest are
/// counted but dropped (a broken invariant on a hot path would otherwise
/// allocate without bound).
const MAX_RETAINED: usize = 256;

thread_local! {
    static VIOLATIONS: RefCell<(Vec<InvariantViolation>, usize)> =
        const { RefCell::new((Vec::new(), 0)) };
}

/// Whether invariant checking is enabled on this process: armed by
/// `STTCACHE_INVARIANTS=1` or by a live [`Armed`] guard.
///
/// The first call reads `STTCACHE_INVARIANTS` through
/// [`crate::env_gate`], panicking with its error on a malformed value
/// (the binaries exit 2 on it before any work); afterwards it is a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => init_from_env(),
    }
}

/// Whether the gate is known to be off: read from the environment and
/// held by nobody. Unlike [`enabled`], it never reads the environment,
/// so a hot path that takes its shortcut only when this holds makes no
/// call; until the first [`enabled`] it answers `false`.
#[inline(always)]
pub(crate) fn disarmed() -> bool {
    GATE.load(Ordering::Relaxed) == OFF
}

#[cold]
fn init_from_env() -> bool {
    let mut holders = holders();
    if GATE.load(Ordering::Relaxed) == UNSET {
        if crate::env_gate("STTCACHE_INVARIANTS").unwrap_or_else(|e| panic!("{e}")) {
            *holders += 1;
        }
        GATE.store(if *holders > 0 { ON } else { OFF }, Ordering::Relaxed);
    }
    GATE.load(Ordering::Relaxed) == ON
}

/// Keeps the gate armed while it lives; see [`arm`].
#[derive(Debug)]
#[must_use = "the gate is armed only while the guard lives"]
pub struct Armed(());

/// Arms the gate until the returned guard drops. Guards nest and may
/// live on any thread: the last one to drop disarms the gate, unless
/// `STTCACHE_INVARIANTS=1` armed the process, which stays armed.
pub fn arm() -> Armed {
    // Read the environment first, so its hold is counted.
    enabled();
    let mut holders = holders();
    *holders += 1;
    GATE.store(ON, Ordering::Relaxed);
    Armed(())
}

impl Drop for Armed {
    fn drop(&mut self) {
        let mut holders = holders();
        *holders -= 1;
        if *holders == 0 {
            GATE.store(OFF, Ordering::Relaxed);
        }
    }
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

    /// Asserts that the gate is off when nothing holds it. Holds the
    /// holders' lock, so no other test can arm or disarm in between.
    fn assert_off_without_holders() {
        let holders = holders();
        if *holders == 0 {
            assert_eq!(GATE.load(Ordering::Relaxed), OFF);
        }
    }

    #[test]
    fn gate_toggles_and_reports_are_thread_local() {
        let armed = arm();
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
        drop(armed);
        assert_off_without_holders();
    }

    #[test]
    fn a_guard_stays_armed_while_another_thread_arms_and_disarms() {
        let held = arm();
        std::thread::spawn(|| {
            let other = arm();
            assert!(enabled());
            drop(other);
        })
        .join()
        .unwrap();
        assert!(enabled(), "another thread's guard disarmed a live one");
        let nested = arm();
        drop(nested);
        assert!(enabled(), "a nested guard disarmed its outer one");
        drop(held);
        assert_off_without_holders();
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
