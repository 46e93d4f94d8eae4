//! Bank scheduling.
//!
//! The paper simulates "a banked NVM array, so no conflict will exist if
//! both operations target different banks. Otherwise, the processor must be
//! stalled". Each bank tracks the cycle until which it is busy; a request to
//! a busy bank is delayed to the bank's free cycle and the delay is reported
//! so the platform can attribute the stall.

use crate::addr::Cycle;

/// Per-bank busy-until scheduler.
///
/// # Example
///
/// ```
/// use sttcache_mem::BankSchedule;
///
/// let mut banks = BankSchedule::new(2);
/// // Occupy bank 0 for cycles 10..14 (e.g. a 4-cycle VWB promotion).
/// let start = banks.reserve(0, 10, 4);
/// assert_eq!(start, 10);
/// // A conflicting access to bank 0 waits; bank 1 does not.
/// assert_eq!(banks.reserve(0, 12, 1), 14);
/// assert_eq!(banks.reserve(1, 12, 1), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSchedule {
    free_at: Vec<Cycle>,
    conflict_cycles: u64,
}

impl BankSchedule {
    /// Creates a schedule for `banks` banks, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        BankSchedule {
            free_at: vec![0; banks],
            conflict_cycles: 0,
        }
    }

    /// Reserves `bank` for `occupancy` cycles starting no earlier than
    /// `now`; returns the actual start cycle (`>= now`, delayed past any
    /// in-flight operation on the same bank).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn reserve(&mut self, bank: usize, now: Cycle, occupancy: u64) -> Cycle {
        let start = self.reserve_quiet(bank, now, occupancy);
        if crate::invariants::enabled() {
            self.check_reservation(bank, now, occupancy);
        }
        start
    }

    /// [`BankSchedule::reserve`] minus the gated invariant check:
    /// identical `free_at`/`conflict_cycles` mutation, no gate probe. Only
    /// sound to call when the invariant gate is known to be off — the
    /// cache's hit fast path establishes exactly that before using it.
    #[inline(always)]
    pub(crate) fn reserve_quiet(&mut self, bank: usize, now: Cycle, occupancy: u64) -> Cycle {
        let start = self.free_at[bank].max(now);
        self.conflict_cycles += start - now;
        self.free_at[bank] = start + occupancy;
        start
    }

    /// Reports a reservation of `bank` at `now` that left the bank free
    /// before `now + occupancy`: the schedule lost time, so its conflict
    /// accounting cannot match the bank's busy window.
    #[cold]
    fn check_reservation(&self, bank: usize, now: Cycle, occupancy: u64) {
        if self.free_at[bank] < now + occupancy {
            crate::invariants::report(
                "banks",
                now,
                None,
                format!(
                    "bank {bank} free_at {} < now {now} + occupancy {occupancy}",
                    self.free_at[bank]
                ),
            );
        }
    }

    /// Total cycles requests have waited on busy banks since construction.
    pub fn conflict_cycles(&self) -> u64 {
        self.conflict_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_banks_are_free() {
        let mut banks = BankSchedule::new(4);
        for b in 0..4 {
            assert_eq!(banks.reserve(b, 0, 4), 0);
        }
        assert_eq!(banks.conflict_cycles(), 0);
    }

    #[test]
    fn same_bank_serializes() {
        let mut banks = BankSchedule::new(1);
        assert_eq!(banks.reserve(0, 0, 4), 0);
        assert_eq!(banks.reserve(0, 1, 4), 4);
        assert_eq!(banks.reserve(0, 100, 4), 100);
    }

    #[test]
    fn different_banks_overlap() {
        let mut banks = BankSchedule::new(2);
        assert_eq!(banks.reserve(0, 0, 10), 0);
        assert_eq!(banks.reserve(1, 0, 10), 0);
    }

    #[test]
    fn conflict_cycles_accumulate() {
        let mut banks = BankSchedule::new(1);
        banks.reserve(0, 0, 4);
        banks.reserve(0, 1, 1); // waits 3
        banks.reserve(0, 2, 1); // waits 3 (bank free at 5)
        assert_eq!(banks.conflict_cycles(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankSchedule::new(0);
    }
}
