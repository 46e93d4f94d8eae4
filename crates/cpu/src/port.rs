//! The core's data port.

use sttcache_mem::{Addr, Cycle, MemoryLevel};

/// The interface between the core and its L1 data-cache front-end.
///
/// The plain drop-in configurations adapt a [`MemoryLevel`] through
/// [`MemPort`]; the paper's VWB organization and the L0/EMSHR baselines
/// implement this trait directly in the `sttcache` crate.
pub trait DataPort {
    /// Issues a read at cycle `now`; returns the data-ready cycle.
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle;

    /// Issues a write at cycle `now`; returns the cycle at which the write
    /// has been accepted by the memory system.
    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle;

    /// Issues a non-binding prefetch hint at cycle `now`.
    ///
    /// The default implementation ignores the hint (plain caches in this
    /// model do not prefetch; the VWB front-end overrides this).
    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        let _ = (addr, now);
    }
}

/// Adapts any [`MemoryLevel`] into a [`DataPort`].
///
/// # Example
///
/// ```
/// use sttcache_cpu::{DataPort, MemPort};
/// use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let dl1 = Cache::new(CacheConfig::builder().build()?, MainMemory::new(100));
/// let mut port = MemPort::new(dl1);
/// let done = port.read(Addr(0), 0);
/// assert!(done > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemPort<M> {
    level: M,
}

impl<M: MemoryLevel> MemPort<M> {
    /// Wraps a memory level.
    pub fn new(level: M) -> Self {
        MemPort { level }
    }

    /// The wrapped level.
    pub fn level(&self) -> &M {
        &self.level
    }

    /// Unwraps the port.
    pub fn into_inner(self) -> M {
        self.level
    }
}

impl<M: MemoryLevel> DataPort for MemPort<M> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.level.read(addr, now).complete_at
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.level.write(addr, now).complete_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttcache_mem::{Cache, CacheConfig, MainMemory};

    #[test]
    fn mem_port_forwards_and_exposes_level() {
        let dl1 = Cache::new(
            CacheConfig::builder().build().unwrap(),
            MainMemory::new(100),
        );
        let mut port = MemPort::new(dl1);
        let t = port.read(Addr(0), 0);
        assert_eq!(t, 104);
        assert_eq!(port.level().stats().reads, 1);
        let w = port.write(Addr(0), t + 10);
        assert_eq!(w, t + 12);
        let inner = port.into_inner();
        assert_eq!(inner.stats().writes, 1);
    }

    #[test]
    fn default_prefetch_is_a_no_op() {
        let dl1 = Cache::new(
            CacheConfig::builder().build().unwrap(),
            MainMemory::new(100),
        );
        let mut port = MemPort::new(dl1);
        port.prefetch(Addr(0), 0);
        assert_eq!(port.level().stats().accesses(), 0);
    }
}
