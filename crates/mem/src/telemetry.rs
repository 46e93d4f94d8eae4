//! Cycle-resolved telemetry registry behind a zero-cost env gate.
//!
//! The aggregate statistics ([`crate::CacheStats`], the stage stats in
//! `sttcache-core`) say *which* organization wins; this module records
//! *why*: per-bank busy and conflict occupancy, outstanding-miss depth,
//! buffer depth and coalescing-run histograms, and per-set write traffic
//! (the wear map `sttcache_tech::endurance` consumes). All of it is
//! gathered the same way the invariant checkers are
//! ([`crate::invariants`]): hot paths consult [`enabled`] — one relaxed
//! atomic load, armed by `STTCACHE_TELEMETRY=1` or [`set_enabled`] — and
//! only then touch the registry, so disarmed sweeps pay nothing
//! measurable (the repo benchmark, `benchmark/`, runs every workload
//! disarmed, so a cost that grows shows in its end-to-end metrics).
//!
//! Memory is bounded by construction: histograms index small occupancy
//! values directly and spill the tail into an overflow bucket, time
//! series use a stride-doubling sampler that never retains more than
//! [`SERIES_CAP`] points, and indexed counters (wear maps, per-bank
//! shares) stop growing at [`INDEXED_CAP`] slots. The registry is
//! thread-local so parallel sweep workers never contaminate each other;
//! harnesses drain it with [`take`].
//!
//! Armed recording is direct-indexed: a [`Slot`] interns its
//! `(component, metric)` key once (at component construction) and every
//! subsequent record is a vector index into thread-local storage — no
//! per-event map walk. The by-name functions ([`count`], [`observe`],
//! [`sample`], [`record_indexed`]) stay as the convenient cold-path API
//! and resolve their slot on each call.

use crate::addr::Cycle;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Gate state: 0 = uninitialised, 1 = off, 2 = on.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry collection is enabled in this process.
///
/// Reads `STTCACHE_TELEMETRY` once (any value other than `0`/`false`/""
/// enables the gate); afterwards it is a single relaxed atomic load.
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
    let on = std::env::var("STTCACHE_TELEMETRY")
        .map(|v| !v.is_empty() && v != "0" && v != "false")
        .unwrap_or(false);
    // Racing first calls agree on the same env-derived value, so a plain
    // store is fine; a concurrent set_enabled wins either way on its own
    // subsequent store.
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces the gate on or off, overriding `STTCACHE_TELEMETRY`.
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    crate::gates::refresh();
}

/// Histogram values at or above this index share one overflow bucket.
/// Occupancies (MSHR depth, buffer depth, coalescing runs) are tiny, so
/// direct value indexing keeps percentiles exact where it matters.
const HISTOGRAM_CAP: usize = 1024;

/// A time series never retains more than this many points.
pub const SERIES_CAP: usize = 512;

/// Indexed counters (wear maps, per-bank tallies) stop growing at this
/// many slots; out-of-range indices are counted in
/// [`IndexedCounter::clipped`].
pub const INDEXED_CAP: usize = 65_536;

/// Value-indexed histogram of small non-negative observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[v]` = number of observations of value `v` (below the cap).
    pub counts: Vec<u64>,
    /// Observations at or above [`HISTOGRAM_CAP`].
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

/// Bounded cycle-resolved time series: a fixed-stride sampler that keeps
/// every `stride`-th observation and, whenever the buffer fills, drops
/// every other retained point and doubles the stride. Deterministic,
/// memory-bounded, and uniform over the run regardless of its length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Retained `(cycle, value)` samples in observation order.
    pub points: Vec<(Cycle, u64)>,
    /// Current sampling stride (1 = every observation retained).
    pub stride: u64,
    /// Total observations offered, including ones the stride skipped.
    pub seen: u64,
}

impl Default for Series {
    fn default() -> Self {
        Series {
            points: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Series {
    fn sample(&mut self, cycle: Cycle, value: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() == SERIES_CAP {
                // Keep even indices, double the stride: the retained set
                // stays uniformly spaced over everything seen so far.
                let kept: Vec<_> = self.points.iter().copied().step_by(2).collect();
                self.points = kept;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.points.push((cycle, value));
            }
        }
        self.seen += 1;
    }

    /// Largest retained value (0 when empty).
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
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
    /// Plain monotonic counters.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Value-indexed histograms.
    pub histograms: BTreeMap<MetricKey, Histogram>,
    /// Cycle-resolved time series.
    pub series: BTreeMap<MetricKey, Series>,
    /// Densely indexed counters (wear maps, per-bank tallies).
    pub indexed: BTreeMap<MetricKey, IndexedCounter>,
}

impl TelemetrySnapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
            && self.indexed.is_empty()
    }

    /// Counter value, 0 when the metric was never recorded.
    pub fn counter(&self, component: &str, metric: &str) -> u64 {
        self.counters
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, &v)| v)
            .unwrap_or(0)
    }

    /// Histogram for the metric, if recorded.
    pub fn histogram(&self, component: &str, metric: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, h)| h)
    }

    /// Series for the metric, if recorded.
    pub fn series_for(&self, component: &str, metric: &str) -> Option<&Series> {
        self.series
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, s)| s)
    }

    /// Indexed counter for the metric, if recorded.
    pub fn indexed_for(&self, component: &str, metric: &str) -> Option<&IndexedCounter> {
        self.indexed
            .iter()
            .find(|((c, m), _)| *c == component && *m == metric)
            .map(|(_, x)| x)
    }
}

/// What a slot records into — one storage variant per recording surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Counter,
    Histogram,
    Series,
    Indexed,
}

/// Process-wide metric intern table: slot id → `(key, kind)`. Appended
/// under a mutex when a [`Slot`] is first resolved (component
/// construction, or the legacy by-name entry points); the id is stable
/// for the life of the process, so recording never consults the table.
static INTERN: Mutex<Vec<(MetricKey, SlotKind)>> = Mutex::new(Vec::new());

/// A pre-resolved metric handle.
///
/// Recording by name walks a key map on every event; armed sweeps spend
/// more time in that lookup than in the simulation being measured. A
/// `Slot` does the lookup once — components resolve their slots at
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
    /// Resolves the plain-counter slot for `(component, metric)`.
    pub fn counter(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Counter)
    }

    /// Resolves the histogram slot for `(component, metric)`.
    pub fn histogram(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Histogram)
    }

    /// Resolves the time-series slot for `(component, metric)`.
    pub fn series(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Series)
    }

    /// Resolves the indexed-counter slot for `(component, metric)`.
    pub fn indexed(component: &'static str, metric: &'static str) -> Slot {
        intern((component, metric), SlotKind::Indexed)
    }

    /// Adds `n` to this counter slot on this thread.
    #[inline]
    pub fn add(self, n: u64) {
        self.with(|d| match d {
            SlotData::Counter(c) => *c += n,
            _ => debug_assert!(false, "add on a non-counter slot"),
        });
    }

    /// Observes `value` in this histogram slot.
    #[inline]
    pub fn observe(self, value: u64) {
        self.with(|d| match d {
            SlotData::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "observe on a non-histogram slot"),
        });
    }

    /// Offers a `(cycle, value)` point to this series slot.
    #[inline]
    pub fn sample(self, cycle: Cycle, value: u64) {
        self.with(|d| match d {
            SlotData::Series(s) => s.sample(cycle, value),
            _ => debug_assert!(false, "sample on a non-series slot"),
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
    Counter(u64),
    Histogram(Histogram),
    Series(Series),
    Indexed(IndexedCounter),
}

impl SlotData {
    #[cold]
    fn fresh(slot: Slot) -> SlotData {
        let kind = INTERN.lock().expect("telemetry intern table poisoned")[slot.0 as usize].1;
        match kind {
            SlotKind::Counter => SlotData::Counter(0),
            SlotKind::Histogram => SlotData::Histogram(Histogram::default()),
            SlotKind::Series => SlotData::Series(Series::default()),
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

/// Adds `n` to the counter `(component, metric)` on this thread.
///
/// Callers are expected to have consulted [`enabled`] first; recording
/// itself is unconditional so harnesses can feed the registry directly.
/// By-name entry points resolve the [`Slot`] on every call — hot paths
/// hold a pre-resolved `Slot` instead.
pub fn count(component: &'static str, metric: &'static str, n: u64) {
    Slot::counter(component, metric).add(n);
}

/// Observes `value` in the histogram `(component, metric)`.
pub fn observe(component: &'static str, metric: &'static str, value: u64) {
    Slot::histogram(component, metric).observe(value);
}

/// Offers a `(cycle, value)` point to the series `(component, metric)`.
pub fn sample(component: &'static str, metric: &'static str, cycle: Cycle, value: u64) {
    Slot::series(component, metric).sample(cycle, value);
}

/// Adds `n` at `index` in the indexed counter `(component, metric)`.
pub fn record_indexed(component: &'static str, metric: &'static str, index: usize, n: u64) {
    Slot::indexed(component, metric).add_at(index, n);
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
                SlotData::Counter(c) => {
                    snap.counters.insert(key, c);
                }
                SlotData::Histogram(h) => {
                    snap.histograms.insert(key, h);
                }
                SlotData::Series(series) => {
                    snap.series.insert(key, series);
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
    fn counters_accumulate_and_drain() {
        take();
        count("dl1", "set_writes", 3);
        count("dl1", "set_writes", 4);
        count("l2", "set_writes", 1);
        let snap = take();
        assert_eq!(snap.counter("dl1", "set_writes"), 7);
        assert_eq!(snap.counter("l2", "set_writes"), 1);
        assert_eq!(snap.counter("dl1", "missing"), 0);
        assert!(take().is_empty());
    }

    #[test]
    fn histogram_percentiles_are_exact_for_small_values() {
        take();
        for v in [0u64, 1, 1, 2, 2, 2, 3, 3, 3, 3] {
            observe("mshr", "occupancy", v);
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
        observe("wb", "depth", 5);
        observe("wb", "depth", 2_000_000);
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
    fn series_is_bounded_and_stride_doubles() {
        take();
        let n = (SERIES_CAP as u64) * 5;
        for i in 0..n {
            sample("banks", "busy", i, i);
        }
        let snap = take();
        let s = snap.series_for("banks", "busy").unwrap();
        assert!(s.points.len() <= SERIES_CAP);
        assert!(s.stride > 1);
        assert_eq!(s.seen, n);
        assert_eq!(s.peak(), s.points.iter().map(|&(_, v)| v).max().unwrap());
        // Retained points are stride-spaced observations of the original
        // stream, so values are strictly increasing here.
        assert!(s.points.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn short_series_retains_everything() {
        take();
        for i in 0..10u64 {
            sample("wb", "depth", i * 3, i);
        }
        let snap = take();
        let s = snap.series_for("wb", "depth").unwrap();
        assert_eq!(s.points.len(), 10);
        assert_eq!(s.stride, 1);
    }

    #[test]
    fn indexed_counters_grow_clip_and_rank() {
        take();
        record_indexed("dl1", "wear", 3, 10);
        record_indexed("dl1", "wear", 0, 4);
        record_indexed("dl1", "wear", 3, 1);
        record_indexed("dl1", "wear", INDEXED_CAP + 7, 2);
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
        let slot = Slot::counter("slot-test", "events");
        assert_eq!(slot, Slot::counter("slot-test", "events"));
        slot.add(5);
        // The by-name path resolves to the same slot, so both recordings
        // land in one counter.
        count("slot-test", "events", 2);
        let snap = take();
        assert_eq!(snap.counter("slot-test", "events"), 7);
        assert!(take().is_empty());
    }

    #[test]
    fn same_key_different_kind_gets_its_own_slot() {
        take();
        let h = Slot::histogram("slot-test", "depth");
        let s = Slot::series("slot-test", "depth");
        h.observe(3);
        s.sample(10, 3);
        let snap = take();
        assert_eq!(snap.histogram("slot-test", "depth").unwrap().total, 1);
        assert_eq!(snap.series_for("slot-test", "depth").unwrap().seen, 1);
    }

    #[test]
    fn registry_is_thread_local() {
        take();
        count("dl1", "set_writes", 9);
        let other = std::thread::spawn(|| take().is_empty()).join().unwrap();
        assert!(other);
        assert_eq!(take().counter("dl1", "set_writes"), 9);
    }
}
