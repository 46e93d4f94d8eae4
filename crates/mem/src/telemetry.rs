//! Telemetry registry behind a zero-cost gate.
//!
//! The aggregate statistics ([`crate::CacheStats`], the stage stats in
//! `sttcache-core`) say *which* organization wins; this module records
//! *why*, for the `sim --explain` attribution reports: per-bank write
//! shares and conflict cycles, outstanding-miss, write-buffer and
//! front-end buffer depth histograms, coalescing runs, and per-set write
//! traffic (the wear map `sttcache_tech::endurance` consumes). All of it
//! is gathered the same way the invariant checkers are
//! ([`crate::invariants`]): hot paths consult [`enabled`] — one relaxed
//! atomic load, off until [`set_enabled`] arms it — and only then touch
//! the registry, so disarmed sweeps pay nothing measurable (the repo
//! benchmark, `benchmark/`, runs every workload disarmed, so a cost that
//! grows shows in its end-to-end metrics).
//!
//! There are two instrument shapes, both bounded by construction:
//! [`Histogram`]s index small occupancy values directly and spill the
//! tail into an overflow bucket, and [`IndexedCounter`]s (wear maps,
//! per-bank shares) stop growing at [`INDEXED_CAP`] slots. The registry
//! is thread-local so parallel sweep workers never contaminate each
//! other; harnesses drain it with [`take`].
//!
//! Recording is direct-indexed: a [`Slot`] interns its
//! `(component, metric)` key once (at component construction) and every
//! subsequent record is a vector index into thread-local storage — no
//! per-event map walk.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Whether the registry records; off until [`set_enabled`] arms it.
static GATE: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is enabled in this process: a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    GATE.load(Ordering::Relaxed)
}

/// Arms or disarms the gate for the whole process.
pub fn set_enabled(on: bool) {
    GATE.store(on, Ordering::Relaxed);
    crate::gates::refresh();
}

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
    fn observe(&mut self, value: u64) {
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
    fn add(&mut self, index: usize, n: u64) {
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

/// Metric key: `(component, metric)`, both static names so recording
/// never allocates for the key.
pub type MetricKey = (&'static str, &'static str);

/// Everything one thread recorded since the last [`take`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Value-indexed histograms.
    pub histograms: BTreeMap<MetricKey, Histogram>,
    /// Densely indexed counters (wear maps, per-bank tallies).
    pub indexed: BTreeMap<MetricKey, IndexedCounter>,
}

impl TelemetrySnapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty() && self.indexed.is_empty()
    }

    /// Histogram for the metric, if recorded.
    pub fn histogram(&self, component: &str, metric: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, h)| h)
    }

    /// Indexed counter for the metric, if recorded.
    pub fn indexed_for(&self, component: &str, metric: &str) -> Option<&IndexedCounter> {
        self.indexed
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, x)| x)
    }
}

/// What a slot records into — one storage variant per instrument shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Histogram,
    Indexed,
}

/// Process-wide metric intern table: slot id → `(key, kind)`. Appended
/// under a mutex when a [`Slot`] is first resolved (at component
/// construction); the id is stable for the life of the process, so
/// recording never consults the table.
static INTERN: Mutex<Vec<(MetricKey, SlotKind)>> = Mutex::new(Vec::new());

/// A pre-resolved metric handle.
///
/// Looking a metric up by name on every event would cost armed runs
/// more than the simulation being measured. A `Slot` does the lookup
/// once — components resolve their slots at
/// construction (and again in `set_telemetry_component`) and armed
/// recording becomes a direct index into a thread-local vector.
///
/// Resolving the same `(component, metric)` pair always yields the same
/// slot, so equality of slot-holding structs matches equality of their
/// component labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

fn intern(key: MetricKey, kind: SlotKind) -> Slot {
    let mut table = INTERN.lock().expect("telemetry intern table poisoned");
    if let Some(id) = table.iter().position(|&(k, kd)| k == key && kd == kind) {
        return Slot(id as u32);
    }
    table.push((key, kind));
    Slot((table.len() - 1) as u32)
}

impl Slot {
    /// Resolves the histogram slot for `(component, metric)`.
    pub fn histogram(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Histogram)
    }

    /// Resolves the indexed-counter slot for `(component, metric)`.
    pub fn indexed(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Indexed)
    }

    /// Observes `value` in this histogram slot.
    #[inline]
    pub fn observe(self, value: u64) {
        self.with(|d| match d {
            SlotData::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "observe on a non-histogram slot"),
        });
    }

    /// Adds `n` at `index` in this indexed-counter slot.
    #[inline]
    pub fn add_at(self, index: usize, n: u64) {
        self.with(|d| match d {
            SlotData::Indexed(x) => x.add(index, n),
            _ => debug_assert!(false, "add_at on a non-indexed slot"),
        });
    }

    /// Runs `f` on this slot's thread-local storage, materializing it on
    /// first touch (the only point that consults the intern table).
    #[inline]
    fn with(self, f: impl FnOnce(&mut SlotData)) {
        SLOTS.with(|s| {
            let mut slots = s.borrow_mut();
            let i = self.0 as usize;
            if slots.len() <= i {
                slots.resize_with(i + 1, || None);
            }
            if slots[i].is_none() {
                slots[i] = Some(SlotData::fresh(self));
            }
            f(slots[i].as_mut().expect("slot just materialized"));
        });
    }
}

/// One slot's thread-local storage.
#[derive(Debug, Clone)]
enum SlotData {
    Histogram(Histogram),
    Indexed(IndexedCounter),
}

impl SlotData {
    #[cold]
    fn fresh(slot: Slot) -> SlotData {
        let kind = INTERN.lock().expect("telemetry intern table poisoned")[slot.0 as usize].1;
        match kind {
            SlotKind::Histogram => SlotData::Histogram(Histogram::default()),
            SlotKind::Indexed => SlotData::Indexed(IndexedCounter::default()),
        }
    }
}

thread_local! {
    /// Direct-indexed per-thread storage: `SLOTS[id]` is the data of the
    /// intern table's slot `id`, `None` until first touched on this
    /// thread. Parallel sweep workers share the global ids but never each
    /// other's data.
    static SLOTS: RefCell<Vec<Option<SlotData>>> = const { RefCell::new(Vec::new()) };
}

/// Drains and returns everything recorded on this thread.
pub fn take() -> TelemetrySnapshot {
    SLOTS.with(|s| {
        let mut slots = s.borrow_mut();
        let table = INTERN.lock().expect("telemetry intern table poisoned");
        let mut snap = TelemetrySnapshot::default();
        for (id, data) in slots.iter_mut().enumerate() {
            let Some(data) = data.take() else { continue };
            let (key, _) = table[id];
            match data {
                SlotData::Histogram(h) => {
                    snap.histograms.insert(key, h);
                }
                SlotData::Indexed(x) => {
                    snap.indexed.insert(key, x);
                }
            }
        }
        snap
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn histogram_percentiles_are_exact_for_small_values() {
        take();
        let slot = Slot::histogram("mshr", "occupancy");
        for v in [0u64, 1, 1, 2, 2, 2, 3, 3, 3, 3] {
            slot.observe(v);
        }
        let snap = take();
        let h = snap.histogram("mshr", "occupancy").unwrap();
        assert_eq!(h.total, 10);
        assert_eq!(h.max, 3);
        assert_eq!(h.percentile(50), 2);
        assert_eq!(h.percentile(90), 3);
        assert_eq!(h.percentile(100), 3);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_overflow_reports_as_max() {
        take();
        let slot = Slot::histogram("wb", "depth");
        slot.observe(5);
        slot.observe(2_000_000);
        let snap = take();
        let h = snap.histogram("wb", "depth").unwrap();
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
        take();
        let slot = Slot::indexed("dl1", "wear");
        slot.add_at(3, 10);
        slot.add_at(0, 4);
        slot.add_at(3, 1);
        slot.add_at(INDEXED_CAP + 7, 2);
        let snap = take();
        let x = snap.indexed_for("dl1", "wear").unwrap();
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

    #[test]
    fn slots_are_stable_and_merge_with_by_name_recording() {
        take();
        let slot = Slot::indexed("slot-test", "events");
        slot.add_at(0, 5);
        // Resolving the same name again yields the same slot, so both
        // recordings land in one counter.
        assert_eq!(slot, Slot::indexed("slot-test", "events"));
        Slot::indexed("slot-test", "events").add_at(0, 2);
        let snap = take();
        assert_eq!(snap.indexed_for("slot-test", "events").unwrap().total(), 7);
        assert!(take().is_empty());
    }

    #[test]
    fn same_key_different_kind_gets_its_own_slot() {
        take();
        let h = Slot::histogram("slot-test", "depth");
        let x = Slot::indexed("slot-test", "depth");
        assert_ne!(h, x);
        h.observe(3);
        x.add_at(1, 3);
        let snap = take();
        assert_eq!(snap.histogram("slot-test", "depth").unwrap().total, 1);
        assert_eq!(snap.indexed_for("slot-test", "depth").unwrap().total(), 3);
    }

    #[test]
    fn registry_is_thread_local() {
        take();
        Slot::indexed("dl1", "set_writes").add_at(0, 9);
        let other = std::thread::spawn(|| take().is_empty()).join().unwrap();
        assert!(other);
        let snap = take();
        assert_eq!(snap.indexed_for("dl1", "set_writes").unwrap().total(), 9);
    }
}
