//! Shared hierarchy levels.
//!
//! The paper's platform has a *unified* L2: both the instruction and the
//! data side miss into the same array. Ownership-based composition
//! (`Cache<Cache<MainMemory>>`) cannot express that, so [`Shared`] wraps a
//! level in shared-mutable form; clones refer to the same underlying
//! level, and every port sees the same contents, bank contention and
//! statistics.
//!
//! The simulator is single-threaded (one core, one global cycle order), so
//! `Rc<RefCell<..>>` is the right tool; `Shared` is deliberately `!Send`.

use crate::addr::{Addr, Cycle};
use crate::cache::AccessOutcome;
use crate::stats::CacheStats;
use crate::MemoryLevel;
use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// A cloneable handle to a shared hierarchy level.
///
/// [`MemoryLevel::stats`] on a handle returns the shared level's counters
/// *as of the last access made through that handle* (the trait hands out a
/// plain reference, which cannot observe later accesses through other
/// handles); use [`Shared::stats_snapshot`] for the live totals.
///
/// # Example
///
/// ```
/// use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory, MemoryLevel, Shared};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let l2 = Shared::new(Cache::new(
///     CacheConfig::builder()
///         .capacity_bytes(2 * 1024 * 1024)
///         .associativity(16)
///         .read_cycles(12)
///         .write_cycles(12)
///         .build()?,
///     MainMemory::new(100),
/// ));
/// let mut dl1 = Cache::new(CacheConfig::builder().build()?, l2.clone());
/// let mut il1 = Cache::new(
///     CacheConfig::builder().capacity_bytes(32 * 1024).build()?,
///     l2.clone(),
/// );
/// dl1.read(Addr(0), 0);
/// il1.read(Addr(0x4000_0000), 0);
/// // Both misses reached the one L2.
/// assert_eq!(l2.stats_snapshot().reads, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Shared<M> {
    inner: Rc<RefCell<M>>,
    /// Mirror of the underlying stats, refreshed on every access through
    /// this handle, so `stats()` can return a plain reference.
    stats_mirror: CacheStats,
    line_bytes: usize,
}

impl<M> Clone for Shared<M> {
    fn clone(&self) -> Self {
        Shared {
            inner: Rc::clone(&self.inner),
            stats_mirror: self.stats_mirror,
            line_bytes: self.line_bytes,
        }
    }
}

impl<M: MemoryLevel> Shared<M> {
    /// Wraps a level for sharing.
    pub fn new(level: M) -> Self {
        let line_bytes = level.line_bytes();
        let stats_mirror = *level.stats();
        Shared {
            inner: Rc::new(RefCell::new(level)),
            stats_mirror,
            line_bytes,
        }
    }

    /// Borrows the underlying level immutably.
    ///
    /// # Panics
    ///
    /// Panics if the level is currently borrowed mutably (cannot happen
    /// through the [`MemoryLevel`] interface, which never holds borrows
    /// across calls).
    pub fn borrow(&self) -> Ref<'_, M> {
        self.inner.borrow()
    }

    /// Borrows the underlying level mutably — the owner-side escape hatch
    /// for operations that are not part of [`MemoryLevel`], such as
    /// draining a shared level once at end of run (`Cache::flush_dirty`)
    /// while every port still holds its handle.
    ///
    /// # Panics
    ///
    /// Panics if the level is currently borrowed (cannot happen through
    /// the [`MemoryLevel`] interface, which never holds borrows across
    /// calls).
    pub fn borrow_mut(&self) -> RefMut<'_, M> {
        self.inner.borrow_mut()
    }

    /// A live snapshot of the shared level's statistics.
    pub fn stats_snapshot(&self) -> CacheStats {
        *self.inner.borrow().stats()
    }
}

impl<M: MemoryLevel> MemoryLevel for Shared<M> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let out = self.inner.borrow_mut().read(addr, now);
        self.stats_mirror = *self.inner.borrow().stats();
        out
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let out = self.inner.borrow_mut().write(addr, now);
        self.stats_mirror = *self.inner.borrow().stats();
        out
    }

    fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    fn stats(&self) -> &CacheStats {
        &self.stats_mirror
    }

    fn contains(&self, addr: Addr) -> bool {
        self.inner.borrow().contains(addr)
    }

    fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        self.inner.borrow_mut().occupy_bank(addr, from, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::CacheConfig;
    use crate::memory::MainMemory;

    fn shared_l2() -> Shared<Cache<MainMemory>> {
        Shared::new(Cache::new(
            CacheConfig::builder()
                .capacity_bytes(1024 * 1024)
                .associativity(16)
                .read_cycles(12)
                .write_cycles(12)
                .banks(1)
                .build()
                .expect("test l2 config"),
            MainMemory::new(100),
        ))
    }

    #[test]
    fn two_ports_see_one_array() {
        let l2 = shared_l2();
        let mut a = l2.clone();
        let mut b = l2.clone();
        // Port A warms a line; port B hits it.
        let t = a.read(Addr(0x1000), 0).complete_at;
        let before = l2.stats_snapshot();
        let out = b.read(Addr(0x1000), t + 20);
        assert_eq!(l2.stats_snapshot().read_hits, before.read_hits + 1);
        assert_eq!(out.complete_at, t + 20 + 12);
    }

    #[test]
    fn contention_is_shared() {
        let l2 = shared_l2();
        let mut a = l2.clone();
        let mut b = l2.clone();
        let t = a.read(Addr(0), 0).complete_at + 50;
        a.read(Addr(0), t);
        // Same cycle, same (single) bank: port B queues behind port A.
        let out = b.read(Addr(64), t);
        assert!(out.complete_at > t + 12);
    }

    #[test]
    fn handle_stats_are_as_of_last_access() {
        let l2 = shared_l2();
        let mut a = l2.clone();
        let mut b = l2.clone();
        a.read(Addr(0), 0);
        b.read(Addr(4096), 0);
        // Handle A's mirror predates B's access...
        assert_eq!(a.stats().reads, 1);
        // ...while the live snapshot sees both.
        assert_eq!(l2.stats_snapshot().reads, 2);
    }

    #[test]
    fn owner_can_drain_through_borrow_mut() {
        let l2 = shared_l2();
        let mut a = l2.clone();
        let t = a.write(Addr(0), 0).complete_at;
        assert!(l2.borrow().dirty_lines() > 0);
        let (n, _) = l2.borrow_mut().flush_dirty(t);
        assert_eq!(n, 1);
        assert_eq!(l2.borrow().dirty_lines(), 0);
    }

    #[test]
    fn composes_under_a_cache() {
        let l2 = shared_l2();
        let mut dl1 = Cache::new(
            CacheConfig::builder().build().expect("dl1 config"),
            l2.clone(),
        );
        dl1.read(Addr(0), 0);
        assert_eq!(l2.stats_snapshot().reads, 1);
        assert_eq!(dl1.next_level().line_bytes(), 64);
    }
}
