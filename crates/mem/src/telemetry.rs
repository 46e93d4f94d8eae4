//! The instruments `sim --explain` reads.
//!
//! The aggregate statistics ([`crate::CacheStats`], the stage stats in
//! `sttcache-core`) say *which* organization wins; these instruments say
//! *why*: per-bank write shares and conflict cycles, outstanding-miss,
//! write-buffer and front-end buffer depth histograms, coalescing runs,
//! and per-set write traffic (the wear map `sttcache_tech::endurance`
//! consumes).
//!
//! An instrument belongs to the component that records it, and only a
//! probed run arms one: a [`Cache`](crate::Cache) holds an optional
//! [`CacheProbe`](crate::CacheProbe), and the line buffers and the core's
//! store buffer hold theirs the same way. Every other run leaves them
//! `None`, so recording costs it one branch on a field it already holds.
//! `sim --explain` builds the one run it explains probed and renders the
//! instruments that run returns.
//!
//! There are two instrument shapes, both bounded by construction:
//! [`Histogram`]s index small occupancy values directly and spill the
//! tail into an overflow bucket, and [`IndexedCounter`]s (wear maps,
//! per-bank shares) stop growing at [`INDEXED_CAP`] slots.

/// Histogram values at or above this index share one overflow bucket.
/// Occupancies (MSHR depth, buffer depth, coalescing runs) are tiny, so
/// direct value indexing keeps percentiles exact where it matters.
const HISTOGRAM_CAP: usize = 1024;

/// Indexed counters (wear maps, per-bank tallies) stop growing at this
/// many slots; out-of-range indices are counted in
/// [`IndexedCounter::clipped`].
pub const INDEXED_CAP: usize = 65_536;

/// Value-indexed histogram of small non-negative observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[v]` = number of observations of value `v` (below the cap).
    pub counts: Vec<u64>,
    /// Observations at or above the cap (1024) that `counts` stops at.
    pub overflow: u64,
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    /// Records one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        self.total += 1;
        self.sum += value;
        self.max = self.max.max(value);
        if (value as usize) < HISTOGRAM_CAP {
            if self.counts.len() <= value as usize {
                self.counts.resize(value as usize + 1, 0);
            }
            self.counts[value as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `p`-th percentile (`p` in 0..=100) of the observed values.
    ///
    /// Exact for values below the bucket cap; observations in the
    /// overflow bucket report as [`Histogram::max`]. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: u8) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Rank of the requested percentile, 1-based, nearest-rank method.
        let rank = ((u64::from(p.min(100)) * self.total).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return value as u64;
            }
        }
        self.max
    }
}

/// Densely indexed counters — per-set wear maps, per-bank access tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexedCounter {
    /// `counts[i]` = accumulated count for index `i`.
    pub counts: Vec<u64>,
    /// Events whose index was at or above [`INDEXED_CAP`].
    pub clipped: u64,
}

impl IndexedCounter {
    /// Adds `n` at `index`; an index at or above [`INDEXED_CAP`] counts
    /// in [`IndexedCounter::clipped`] instead.
    pub(crate) fn add(&mut self, index: usize, n: u64) {
        if index >= INDEXED_CAP {
            self.clipped += n;
            return;
        }
        if self.counts.len() <= index {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += n;
    }

    /// Total across all indices (excluding clipped events).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(index, count)` of the largest counter, if any count is non-zero.
    pub fn hottest(&self) -> Option<(usize, u64)> {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_exact_for_small_values() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 2, 2, 3, 3, 3, 3] {
            h.observe(v);
        }
        assert_eq!(h.total, 10);
        assert_eq!(h.max, 3);
        assert_eq!(h.percentile(50), 2);
        assert_eq!(h.percentile(90), 3);
        assert_eq!(h.percentile(100), 3);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_overflow_reports_as_max() {
        let mut h = Histogram::default();
        h.observe(5);
        h.observe(2_000_000);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.max, 2_000_000);
        assert_eq!(h.percentile(100), 2_000_000);
        assert_eq!(h.percentile(10), 5);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn indexed_counters_grow_clip_and_rank() {
        let mut x = IndexedCounter::default();
        x.add(3, 10);
        x.add(0, 4);
        x.add(3, 1);
        x.add(INDEXED_CAP + 7, 2);
        assert_eq!(x.counts[3], 11);
        assert_eq!(x.counts[0], 4);
        assert_eq!(x.total(), 15);
        assert_eq!(x.clipped, 2);
        assert_eq!(x.hottest(), Some((3, 11)));
    }

    #[test]
    fn hottest_prefers_the_lowest_index_on_ties() {
        let mut x = IndexedCounter::default();
        x.add(5, 7);
        x.add(2, 7);
        assert_eq!(x.hottest(), Some((2, 7)));
        assert_eq!(IndexedCounter::default().hottest(), None);
    }
}
