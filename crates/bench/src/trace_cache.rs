//! Record-once/replay-many trace cache for the sweep grid.
//!
//! Every figure sweeps a kernel × organization × transformation grid, but
//! a kernel's architectural event stream depends only on the *kernel*
//! side of the grid — `(kernel, problem size, transformation set)` — and
//! never on the cache organization under test. The cache records each
//! such stream exactly once into a compact [`Trace`] and replays it
//! through [`Platform::run_trace`] for every organization — skipping the
//! kernel's floating-point arithmetic and per-access virtual dispatch on
//! every grid point after the first. Replay is the only route a sweep
//! takes; direct execution ([`Platform::run`]) survives only as the
//! reference replay is checked against.
//!
//! Concurrency: [`SweepRunner`](crate::parallel::SweepRunner) workers that
//! race on the same key block on a per-key [`OnceLock`] while the first
//! arrival records, then share the resulting `Arc<Trace>` — a stream is
//! recorded once for as long as it stays cached. Memory: a stream with
//! one consumer is dropped by it after its last replay
//! ([`release_trace`]); shared streams stay until exit. The cache has no
//! cap: its resident bytes are the sum of the finished recordings still
//! in its map.
//!
//! Replay is cycle-for-cycle and statistic-for-statistic identical to
//! direct execution (the kernels are deterministic and the recorder's
//! compute coalescing is timing-neutral). Setting `STTCACHE_TRACE_CHECK=1`
//! re-verifies that invariant at runtime: every non-memoized,
//! kernel-backed grid point is also executed directly, and the full
//! [`RunResult`]s are compared.

use crate::profile::{self, Phase};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use sttcache::{Platform, PlatformConfig, RunResult};
use sttcache_cpu::{Engine, Trace, TraceRecorder};
use sttcache_workloads::{ProblemSize, Transformations, Workload};

/// Identifies one recorded event stream: the organization-independent
/// half of a sweep grid point. The workload side comes from the catalog
/// (`sttcache_workloads::catalog`) — affine kernels, irregular kernels
/// and externally ingested traces (whose [`Workload::External`] identity
/// is already a content hash) all key the cache the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// The workload identity.
    pub workload: Workload,
    /// The problem size the kernel ran at (ignored by external traces,
    /// which carry no kernel).
    pub size: ProblemSize,
    /// The code transformations applied to the kernel (likewise ignored
    /// by external traces).
    pub transforms: Transformations,
}

impl TraceKey {
    /// The key for one (workload, size, transformation-set) stream.
    pub fn new(
        workload: impl Into<Workload>,
        size: ProblemSize,
        transforms: Transformations,
    ) -> Self {
        TraceKey {
            workload: workload.into(),
            size,
            transforms,
        }
    }

    /// Human-readable form (diagnostics only).
    pub fn label(&self) -> String {
        format!(
            "{}/{:?}/{}",
            self.workload.label(),
            self.size,
            self.transforms.label()
        )
    }
}

/// Hit/miss/release counters of a [`TraceCache`], and the high-water
/// mark of its resident bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Lookups that found a resident or in-flight trace.
    pub hits: u64,
    /// Lookups that had to record.
    pub misses: u64,
    /// Entries dropped by [`TraceCache::release`].
    pub releases: u64,
    /// The most trace bytes that were ever resident at once.
    pub peak_resident_bytes: usize,
}

impl TraceCacheStats {
    /// Hits over total lookups, in [0, 1]; 1 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    /// Each key's once-cell: its workers block on it while the first
    /// arrival records, and it holds the recording once finished.
    entries: HashMap<TraceKey, Arc<OnceLock<Arc<Trace>>>>,
    stats: TraceCacheStats,
}

impl Inner {
    /// Heap bytes of the finished recordings in the map (in-flight ones
    /// have none yet).
    fn resident_bytes(&self) -> usize {
        self.entries
            .values()
            .filter_map(|cell| cell.get())
            .map(|trace| trace.heap_bytes())
            .sum()
    }
}

/// A thread-shared store of recorded traces: one map from each key to
/// its recording, plus the counters.
///
/// The process-wide instance behind [`cached_trace`] is what the sweeps
/// use; independent instances exist so tests can exercise lifetime and
/// concurrency behaviour without touching global state.
#[derive(Default)]
pub struct TraceCache {
    inner: Mutex<Inner>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace cache lock")
    }

    /// Returns the trace for `key`, recording it with `record` if absent.
    ///
    /// Exactly one caller records per key at a time: concurrent callers
    /// block on the recorder's once-cell and share its result. The
    /// returned `Arc` stays valid even if the entry is released.
    pub fn get_or_record(&self, key: TraceKey, record: impl FnOnce() -> Trace) -> Arc<Trace> {
        let cell = {
            let mut inner = self.lock();
            let Inner { entries, stats } = &mut *inner;
            if let Some(cell) = entries.get(&key) {
                stats.hits += 1;
                cell.clone()
            } else {
                stats.misses += 1;
                entries.entry(key).or_default().clone()
            }
        };
        // Record outside the lock: losers of the race block here (inside
        // `get_or_init`) instead of serializing the whole cache.
        let mut recorded = false;
        let trace = cell
            .get_or_init(|| {
                recorded = true;
                Arc::new(record())
            })
            .clone();
        if recorded {
            // The recording counts only while its cell is still in the
            // map: a key released mid-recording adds nothing.
            let mut inner = self.lock();
            let resident = inner.resident_bytes();
            inner.stats.peak_resident_bytes = inner.stats.peak_resident_bytes.max(resident);
        }
        trace
    }

    /// Drops `key`'s entry, whether resident or still recording;
    /// releasing an absent key does nothing. Every `Arc` already handed
    /// out stays valid, and the next request for `key` records it again
    /// (a miss).
    pub fn release(&self, key: TraceKey) {
        let mut inner = self.lock();
        if inner.entries.remove(&key).is_some() {
            inner.stats.releases += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        self.lock().stats
    }

    /// Heap bytes of the finished recordings still in the cache
    /// (capacity, not length: see [`Trace::heap_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.lock().resident_bytes()
    }

    /// Whether `key`'s finished recording is resident: recorded, and not
    /// released since.
    pub fn is_resident(&self, key: TraceKey) -> bool {
        self.lock()
            .entries
            .get(&key)
            .is_some_and(|cell| cell.get().is_some())
    }

    /// Number of entries (resident + in-flight).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache every sweep shares.
fn global() -> &'static TraceCache {
    static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
    GLOBAL.get_or_init(TraceCache::new)
}

/// Counter snapshot of the process-wide cache (for `--profile`).
pub fn global_stats() -> TraceCacheStats {
    global().stats()
}

/// Resident bytes and entry count of the process-wide cache.
pub fn global_footprint() -> (usize, usize) {
    let g = global();
    (g.resident_bytes(), g.len())
}

/// Whether the process-wide cache holds `key`'s finished recording.
pub fn global_is_resident(key: TraceKey) -> bool {
    global().is_resident(key)
}

/// Stream lengths seen per (workload, size): different transformation
/// sets of one kernel emit streams within a small factor of each other,
/// so the last observed length sizes the next recording's buffer up front
/// and skips most of the growth-reallocation cascade of multi-megabyte
/// event vectors (at worst one reallocation remains).
fn capacity_hint() -> &'static Mutex<HashMap<(Workload, ProblemSize), usize>> {
    static HINTS: OnceLock<Mutex<HashMap<(Workload, ProblemSize), usize>>> = OnceLock::new();
    HINTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records one kernel-backed workload's event stream by running its
/// kernel against a [`TraceRecorder`] (the only place the sweeps pay for
/// the kernel's real arithmetic). External workloads never get here:
/// [`cached_trace`] serves them from their registry.
///
/// # Panics
///
/// Panics if `workload` has no kernel (an external trace).
pub fn record_trace(
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) -> Trace {
    let workload = workload.into();
    let start = Instant::now();
    let hint = capacity_hint()
        .lock()
        .expect("capacity hint lock")
        .get(&(workload, size))
        .copied()
        .unwrap_or(0);
    let mut rec = TraceRecorder::with_capacity(hint);
    let kernel = workload.kernel(size).expect("kernel-backed workload");
    kernel.run(&mut rec, transforms);
    let mut trace = rec.into_trace();
    // Drop the hint/growth slack: the cache holds the trace at its
    // capacity, which then equals its length.
    trace.shrink_to_fit();
    capacity_hint()
        .lock()
        .expect("capacity hint lock")
        .insert((workload, size), trace.len());
    profile::credit(Phase::Record, start, trace.len() as u64);
    trace
}

/// The shared trace for one grid key, recording it on first use. External
/// workloads return their registered stream directly — the registry
/// already keeps it resident, so the cache would only count it twice.
pub fn cached_trace(
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) -> Arc<Trace> {
    let workload = workload.into();
    if let Workload::External(id) = workload {
        return crate::workload::external_trace(id)
            .expect("external workload used before registration");
    }
    global().get_or_record(TraceKey::new(workload, size, transforms), || {
        record_trace(workload, size, transforms)
    })
}

/// Drops the process-wide cache's recording of one grid key once its only
/// consumer has replayed it for the last time ([`TraceCache::release`]).
/// Results already memoized keep answering; a later request records the
/// stream again.
pub fn release_trace(
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) {
    global().release(TraceKey::new(workload, size, transforms));
}

/// The second cache level: finished simulations. The simulator is fully
/// deterministic, so one (platform configuration, trace key) pair always
/// produces the same [`RunResult`] — each organization replays each
/// stream once and every later request for the same grid point (figures
/// share many: Fig. 9's grid is entirely a subset of Figs. 1/3/5's) is a
/// lookup. Keyed by the configuration's `Debug` fingerprint, which
/// captures the organization and every override.
fn result_memo() -> &'static Mutex<HashMap<(String, TraceKey), RunResult>> {
    static MEMO: OnceLock<Mutex<HashMap<(String, TraceKey), RunResult>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Simulations answered from the result memo (process-wide).
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);

/// Number of simulations answered from the result memo so far.
pub fn result_memo_hits() -> u64 {
    MEMO_HITS.load(Ordering::Relaxed)
}

/// Number of distinct simulations resident in the result memo.
pub fn result_memo_entries() -> usize {
    result_memo().lock().expect("result memo lock").len()
}

/// Runs one grid point described by its configuration. This is the
/// execution path every sweep and binary uses.
///
/// The grid point's event stream is recorded once ([`cached_trace`]),
/// replayed at most once per distinct platform configuration, and the
/// finished [`RunResult`] is memoized — repeated grid points across
/// figures cost a map lookup and skip even the platform's hierarchy
/// construction. `STTCACHE_TRACE_CHECK=1` also executes the kernel
/// directly on every non-memoized, kernel-backed grid point and asserts
/// that replay matched it.
///
/// # Panics
///
/// Panics if `cfg` is invalid (the sweeps only pass validated
/// configurations).
pub fn run_config(
    cfg: &PlatformConfig,
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) -> RunResult {
    let workload = workload.into();
    let memo_key = (
        format!("{cfg:?}"),
        TraceKey::new(workload, size, transforms),
    );
    if let Some(hit) = result_memo()
        .lock()
        .expect("result memo lock")
        .get(&memo_key)
    {
        MEMO_HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    let platform = Platform::with_config(cfg.clone()).expect("sweep configuration is valid");
    let trace = cached_trace(workload, size, transforms);
    let start = Instant::now();
    let result = platform.run_trace(&trace);
    profile::credit(Phase::Replay, start, trace.len() as u64);
    check_replay(&platform, workload, size, transforms, &result);
    result_memo()
        .lock()
        .expect("result memo lock")
        .insert(memo_key, result.clone());
    result
}

/// Under `STTCACHE_TRACE_CHECK=1`, executes `workload`'s kernel directly
/// on `platform` and asserts that `replayed`, its trace's replay there,
/// matched it. External workloads have no kernel to cross-execute: their
/// recorded stream is the direct path, so they skip the check.
pub(crate) fn check_replay(
    platform: &Platform,
    workload: Workload,
    size: ProblemSize,
    transforms: Transformations,
    replayed: &RunResult,
) {
    if !trace_check_requested() {
        return;
    }
    if let Some(kernel) = workload.kernel(size) {
        let direct = platform.run(|e: &mut dyn Engine| kernel.run(e, transforms));
        assert_eq!(
            &direct,
            replayed,
            "trace replay diverged from direct execution on {} ({})",
            TraceKey::new(workload, size, transforms).label(),
            platform.config().organization.name()
        );
    }
}

/// Feeds one grid key's shared trace into an arbitrary engine — the
/// entry point for hand-built hierarchies that do not go through
/// [`Platform`].
pub fn drive<E: Engine>(
    e: &mut E,
    workload: impl Into<Workload>,
    size: ProblemSize,
    transforms: Transformations,
) {
    let trace = cached_trace(workload, size, transforms);
    let start = Instant::now();
    trace.replay_into(e);
    profile::credit(Phase::Replay, start, trace.len() as u64);
}

/// Whether `STTCACHE_TRACE_CHECK=1` asked for the replay-vs-direct
/// cross-check on every replayed grid point; a malformed value panics
/// with [`sttcache_mem::env_gate`]'s error.
fn trace_check_requested() -> bool {
    static CHECK: OnceLock<bool> = OnceLock::new();
    *CHECK.get_or_init(|| {
        sttcache_mem::env_gate("STTCACHE_TRACE_CHECK").unwrap_or_else(|e| panic!("{e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use sttcache_cpu::TraceEvent;

    fn trace_of(n: usize) -> Trace {
        (0..n)
            .map(|i| TraceEvent::Compute { ops: i as u32 + 1 })
            .collect()
    }

    // Synthetic keys: the raw cache is identity-agnostic, so tests key on
    // `Workload::External` hashes without touching the kernel catalog.
    fn key(n: u64) -> TraceKey {
        TraceKey::new(
            Workload::External(n),
            ProblemSize::Mini,
            Transformations::none(),
        )
    }

    #[test]
    fn records_once_and_hits_after() {
        let cache = TraceCache::new();
        let recordings = AtomicUsize::new(0);
        for _ in 0..3 {
            let t = cache.get_or_record(key(1), || {
                recordings.fetch_add(1, Ordering::SeqCst);
                trace_of(8)
            });
            assert_eq!(t.len(), 8);
        }
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), trace_of(8).heap_bytes());
    }

    #[test]
    fn racing_workers_share_one_recording() {
        let cache = Arc::new(TraceCache::new());
        let recordings = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let recordings = recordings.clone();
                std::thread::spawn(move || {
                    let t = cache.get_or_record(key(2), || {
                        recordings.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so losers really block.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        trace_of(4)
                    });
                    assert_eq!(t.len(), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn growth_slack_is_charged_and_shrinking_removes_it() {
        let mut rec = TraceRecorder::with_capacity(64);
        rec.compute(1);
        let mut fat = rec.into_trace();
        let one_event = trace_of(1).heap_bytes();
        assert!(fat.heap_bytes() >= 64 * one_event);
        fat.shrink_to_fit();
        assert_eq!(fat.heap_bytes(), one_event);
    }

    #[test]
    fn over_allocated_traces_count_at_their_capacity() {
        // One compute event, forty slots of capacity: the cache holds the
        // whole buffer, so it reports the capacity, not the length.
        let cache = TraceCache::new();
        let t = cache.get_or_record(key(1), || {
            let mut rec = TraceRecorder::with_capacity(40);
            rec.compute(1);
            rec.into_trace()
        });
        assert_eq!(t.len(), 1);
        assert!(t.heap_bytes() >= 40 * trace_of(1).heap_bytes());
        assert_eq!(cache.resident_bytes(), t.heap_bytes());
        assert_eq!(cache.stats().peak_resident_bytes, t.heap_bytes());
    }

    #[test]
    fn release_uncharges_and_the_next_lookup_records_again() {
        let cache = TraceCache::new();
        let held = cache.get_or_record(key(1), || trace_of(10));
        cache.get_or_record(key(2), || trace_of(5));
        let both = cache.resident_bytes();
        cache.release(key(1));
        assert_eq!(cache.resident_bytes(), trace_of(5).heap_bytes());
        assert!(!cache.is_resident(key(1)) && cache.is_resident(key(2)));
        // The Arc handed out before the release still reads its trace.
        assert_eq!(held.len(), 10);
        let again = cache.get_or_record(key(1), || trace_of(10));
        assert!(
            !Arc::ptr_eq(&held, &again),
            "a released key was not re-recorded"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.releases), (0, 3, 1));
        assert_eq!(s.peak_resident_bytes, both);
    }

    #[test]
    fn releasing_an_absent_key_is_a_no_op() {
        let cache = TraceCache::new();
        cache.get_or_record(key(1), || trace_of(3));
        let before = (cache.stats(), cache.resident_bytes(), cache.len());
        cache.release(key(2));
        assert_eq!((cache.stats(), cache.resident_bytes(), cache.len()), before);
    }

    #[test]
    fn a_release_while_recording_leaves_nothing_resident() {
        let cache = TraceCache::new();
        let t = cache.get_or_record(key(1), || {
            cache.release(key(1));
            trace_of(4)
        });
        assert_eq!(t.len(), 4);
        assert_eq!((cache.resident_bytes(), cache.len()), (0, 0));
        assert!(!cache.is_resident(key(1)));
        assert_eq!(cache.stats().releases, 1);

        // A request that arrives between the release and the first
        // recorder's return records the key afresh. The first recorder
        // must not charge that still-recording entry; its own recorder
        // charges it once it returns.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cache = &cache;
            cache.get_or_record(key(2), || {
                cache.release(key(2));
                s.spawn(move || {
                    cache.get_or_record(key(2), || {
                        started_tx.send(()).expect("test is waiting");
                        go_rx.recv().expect("test releases the recorder");
                        trace_of(4)
                    })
                });
                started_rx.recv().expect("second recorder started");
                trace_of(4)
            });
            assert_eq!(cache.resident_bytes(), 0);
            assert!(!cache.is_resident(key(2)));
            go_tx.send(()).expect("second recorder is waiting");
        });
        assert_eq!(cache.resident_bytes(), trace_of(4).heap_bytes());
        assert!(cache.is_resident(key(2)));
    }

    #[test]
    fn hit_rate_spans_the_lookup_history() {
        let s = TraceCacheStats {
            hits: 3,
            misses: 1,
            ..TraceCacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TraceCacheStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TraceCache::new();
        let a = cache.get_or_record(key(1), || trace_of(1));
        let b = cache.get_or_record(
            TraceKey::new(
                Workload::External(1),
                ProblemSize::Mini,
                Transformations::all(),
            ),
            || trace_of(2),
        );
        let c = cache.get_or_record(
            TraceKey::new(
                Workload::External(1),
                ProblemSize::Small,
                Transformations::none(),
            ),
            || trace_of(3),
        );
        assert_eq!((a.len(), b.len(), c.len()), (1, 2, 3));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }
}
