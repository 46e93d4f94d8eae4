//! Hardware next-line prefetcher.
//!
//! A tagged sequential prefetcher wrapped around a [`Cache`]: when two
//! consecutive demand reads touch adjacent lines, the line after next is
//! fetched in the background. This is the *hardware* alternative to the
//! paper's software (VWB-targeted) prefetching and is compared against it
//! by the extension experiments — the interesting result being that a
//! next-line prefetcher in the NVM DL1 cannot help NVM *read hits*, which
//! are the paper's actual bottleneck.

use crate::addr::{Addr, Cycle, LineAddr};
use crate::cache::{AccessOutcome, Cache};
use crate::stats::CacheStats;
use crate::MemoryLevel;

/// Statistics for the hardware prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetcherStats {
    /// Prefetches issued to the cache.
    pub issued: u64,
    /// Streams detected (adjacent-line read pairs).
    pub streams: u64,
    /// Prefetch candidates dropped because the line was already present.
    pub filtered: u64,
}

/// A next-line prefetcher in front of a [`Cache`].
///
/// Implements [`MemoryLevel`] and is therefore a drop-in wrapper anywhere
/// a cache goes.
///
/// # Example
///
/// ```
/// use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory, MemoryLevel, NextLinePrefetcher};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let dl1 = Cache::new(CacheConfig::builder().build()?, MainMemory::new(100));
/// let mut pf = NextLinePrefetcher::new(dl1);
/// let mut now = 0;
/// // A sequential walk triggers stream detection and background fills.
/// for i in 0..4u64 {
///     now = pf.read(Addr(i * 64), now).complete_at + 5;
/// }
/// assert!(pf.prefetcher_stats().issued > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher<N> {
    inner: Cache<N>,
    last_line: Option<LineAddr>,
    stats: PrefetcherStats,
}

impl<N: MemoryLevel> NextLinePrefetcher<N> {
    /// Wraps a cache.
    pub fn new(inner: Cache<N>) -> Self {
        NextLinePrefetcher {
            inner,
            last_line: None,
            stats: PrefetcherStats::default(),
        }
    }

    /// The wrapped cache.
    pub fn inner(&self) -> &Cache<N> {
        &self.inner
    }

    /// Prefetcher statistics.
    pub fn prefetcher_stats(&self) -> &PrefetcherStats {
        &self.stats
    }

    fn observe(&mut self, line: LineAddr, now: Cycle) {
        if self.last_line == Some(LineAddr(line.0.wrapping_sub(1))) {
            self.stats.streams += 1;
            let next = LineAddr(line.0 + 1);
            let base = next.base(self.inner.config().line_bytes());
            if self.inner.contains(base) {
                self.stats.filtered += 1;
            } else {
                self.stats.issued += 1;
                // Background fill: the caller does not wait, but banks,
                // MSHRs and the next level see the traffic.
                let _ = self.inner.read(base, now);
            }
        }
        self.last_line = Some(line);
    }
}

impl<N: MemoryLevel> MemoryLevel for NextLinePrefetcher<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let out = self.inner.read(addr, now);
        let line = addr.line(self.inner.config().line_bytes());
        // Observe after the demand access so the prefetch contends behind
        // it, not ahead of it.
        self.observe(line, out.complete_at);
        out
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        self.inner.write(addr, now)
    }

    fn line_bytes(&self) -> usize {
        self.inner.line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn contains(&self, addr: Addr) -> bool {
        self.inner.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::memory::MainMemory;

    fn pf() -> NextLinePrefetcher<MainMemory> {
        NextLinePrefetcher::new(Cache::new(
            CacheConfig::builder().build().expect("test config"),
            MainMemory::new(100),
        ))
    }

    #[test]
    fn sequential_walk_prefetches_ahead() {
        let mut p = pf();
        let mut now = 0;
        for i in 0..3u64 {
            now = p.read(Addr(i * 64), now).complete_at + 10;
        }
        assert!(p.prefetcher_stats().streams >= 2);
        assert!(p.prefetcher_stats().issued >= 1);
        // Line 3 was prefetched: a demand read at a quiet time is a hit.
        let out = p.read(Addr(3 * 64), now + 200);
        assert_eq!(out.served_by, crate::cache::ServedBy::ThisLevel);
    }

    #[test]
    fn random_accesses_do_not_trigger() {
        let mut p = pf();
        let mut now = 0;
        for addr in [0u64, 0x4000, 0x800, 0x10000] {
            now = p.read(Addr(addr), now).complete_at + 10;
        }
        assert_eq!(p.prefetcher_stats().streams, 0);
        assert_eq!(p.prefetcher_stats().issued, 0);
    }

    #[test]
    fn present_lines_are_filtered() {
        let mut p = pf();
        let mut now = 0;
        // Warm lines 0..4 backwards, then walk forwards: the next lines
        // are already present.
        for i in (0..4u64).rev() {
            now = p.read(Addr(i * 64), now).complete_at + 10;
        }
        for i in 0..3u64 {
            now = p.read(Addr(i * 64), now).complete_at + 10;
        }
        assert!(p.prefetcher_stats().filtered >= 2);
    }

    #[test]
    fn writes_do_not_train_the_prefetcher() {
        let mut p = pf();
        let mut now = 0;
        for i in 0..4u64 {
            now = p.write(Addr(i * 64), now).complete_at + 10;
        }
        assert_eq!(p.prefetcher_stats().streams, 0);
    }
}
