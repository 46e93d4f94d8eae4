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
//! ([`release_trace`]); shared streams stay until exit, bounded by
//! `STTCACHE_TRACE_CACHE_BYTES` (least-recently-used traces are evicted
//! past the cap).
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
use std::sync::{Arc, Mutex, OnceLock};
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

/// Hit/miss/eviction/release counters of a [`TraceCache`], and the
/// high-water mark of its resident bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Lookups that found a resident or in-flight trace.
    pub hits: u64,
    /// Lookups that had to record.
    pub misses: u64,
    /// Traces evicted to stay under the memory cap.
    pub evictions: u64,
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

/// One cache slot: the shared once-cell workers block on, plus LRU
/// bookkeeping. `bytes == 0` marks an in-flight recording that is not
/// yet accounted against the cap (and is never evicted).
struct Entry {
    cell: Arc<OnceLock<Arc<Trace>>>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    entries: HashMap<TraceKey, Entry>,
    resident_bytes: usize,
    tick: u64,
    stats: TraceCacheStats,
}

/// A bounded, thread-shared store of recorded traces.
///
/// The process-wide instance behind [`cached_trace`] is what the sweeps
/// use; independent instances exist so tests can exercise capacity and
/// concurrency behaviour without touching global state.
pub struct TraceCache {
    cap_bytes: usize,
    inner: Mutex<Inner>,
}

impl TraceCache {
    /// A cache capped at `STTCACHE_TRACE_CACHE_BYTES` (default 512 MiB).
    ///
    /// # Errors
    ///
    /// Names the variable and its value if it is not a byte count.
    pub fn from_env() -> Result<Self, String> {
        let cap = crate::env_knob("STTCACHE_TRACE_CACHE_BYTES", 0)?;
        Ok(TraceCache::with_cap_bytes(cap.unwrap_or(512 * 1024 * 1024)))
    }

    /// A cache capped at `cap_bytes` of resident trace data. A cap of 0
    /// keeps nothing resident but still de-duplicates concurrent
    /// recordings of the same key.
    pub fn with_cap_bytes(cap_bytes: usize) -> Self {
        TraceCache {
            cap_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                stats: TraceCacheStats::default(),
            }),
        }
    }

    /// The configured memory cap in bytes.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Returns the trace for `key`, recording it with `record` if absent.
    ///
    /// Exactly one caller records per key at a time: concurrent callers
    /// block on the recorder's once-cell and share its result. The
    /// returned `Arc` stays valid even if the entry is evicted.
    pub fn get_or_record(&self, key: TraceKey, record: impl FnOnce() -> Trace) -> Arc<Trace> {
        let cell = {
            let mut inner = self.inner.lock().expect("trace cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                let cell = entry.cell.clone();
                inner.stats.hits += 1;
                cell
            } else {
                inner.stats.misses += 1;
                let cell = Arc::new(OnceLock::new());
                inner.entries.insert(
                    key,
                    Entry {
                        cell: cell.clone(),
                        bytes: 0,
                        last_used: tick,
                    },
                );
                cell
            }
        };
        // Record outside the lock: losers of the race block here (inside
        // `get_or_init`) instead of serializing the whole cache.
        let trace = cell.get_or_init(|| Arc::new(record())).clone();
        self.account(key, &cell, &trace);
        trace
    }

    /// Charges a freshly recorded trace against the cap (first caller to
    /// get here wins), then evicts least-recently-used accounted entries
    /// until the cap holds. The just-used `key` goes last so a single
    /// over-cap entry still gets returned (and then dropped) rather than
    /// churning other entries first. Only the entry that owns `cell` is
    /// charged: if `key` was released while recording, the entry a later
    /// request put in its place is still in flight with its own cell.
    fn account(&self, key: TraceKey, cell: &Arc<OnceLock<Arc<Trace>>>, trace: &Arc<Trace>) {
        let mut inner = self.inner.lock().expect("trace cache lock");
        if let Some(entry) = inner.entries.get_mut(&key) {
            if entry.bytes == 0 && Arc::ptr_eq(&entry.cell, cell) {
                // Capacity, not length (`Trace::heap_bytes`): slack is
                // charged; `record_trace` shrinks its recordings.
                let bytes = trace.heap_bytes().max(1);
                entry.bytes = bytes;
                inner.resident_bytes += bytes;
            }
        }
        while inner.resident_bytes > self.cap_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.bytes > 0)
                .min_by_key(|(k, e)| (**k == key, e.last_used))
                .map(|(k, _)| *k);
            let Some(k) = victim else {
                break; // only in-flight entries left
            };
            let e = inner.entries.remove(&k).expect("victim exists");
            inner.resident_bytes -= e.bytes;
            inner.stats.evictions += 1;
        }
        inner.stats.peak_resident_bytes = inner.stats.peak_resident_bytes.max(inner.resident_bytes);
    }

    /// Drops `key`'s entry, whether resident or still recording, and
    /// un-charges its bytes; releasing an absent key does nothing. Every
    /// `Arc` already handed out stays valid, and the next request for
    /// `key` records it again (a miss).
    pub fn release(&self, key: TraceKey) {
        let mut inner = self.inner.lock().expect("trace cache lock");
        if let Some(e) = inner.entries.remove(&key) {
            inner.resident_bytes -= e.bytes;
            inner.stats.releases += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        self.inner.lock().expect("trace cache lock").stats
    }

    /// Bytes of trace data currently resident (excludes in-flight
    /// recordings).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("trace cache lock").resident_bytes
    }

    /// Whether `key`'s finished recording is resident: recorded, and
    /// neither evicted nor released since.
    pub fn is_resident(&self, key: TraceKey) -> bool {
        let inner = self.inner.lock().expect("trace cache lock");
        inner.entries.get(&key).is_some_and(|e| e.bytes > 0)
    }

    /// Number of entries (resident + in-flight).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace cache lock").entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache every sweep shares.
///
/// # Panics
///
/// Panics, naming the variable, if `STTCACHE_TRACE_CACHE_BYTES` is
/// malformed (the binaries reject it with exit 2 before any work).
fn global() -> &'static TraceCache {
    static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceCache::from_env().unwrap_or_else(|e| panic!("{e}")))
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
    // Drop the hint/growth slack before the cache charges the trace
    // against its byte cap — resident memory then equals accounted bytes.
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
/// already keeps it resident, so charging the LRU cap a second time would
/// only evict kernel recordings.
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
    if trace_check_requested() {
        // External workloads have no kernel to cross-execute: their
        // recorded stream is the direct path.
        if let Some(kernel) = workload.kernel(size) {
            let direct = platform.run(|e: &mut dyn Engine| kernel.run(e, transforms));
            assert_eq!(
                direct,
                result,
                "trace replay diverged from direct execution on {} ({})",
                TraceKey::new(workload, size, transforms).label(),
                cfg.organization.name()
            );
        }
    }
    result_memo()
        .lock()
        .expect("result memo lock")
        .insert(memo_key, result.clone());
    result
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
        let cache = TraceCache::with_cap_bytes(1 << 20);
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
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), trace_of(8).heap_bytes());
    }

    #[test]
    fn racing_workers_share_one_recording() {
        let cache = Arc::new(TraceCache::with_cap_bytes(1 << 20));
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
    fn lru_eviction_respects_the_cap() {
        let per_trace = trace_of(10).heap_bytes();
        let cache = TraceCache::with_cap_bytes(2 * per_trace);
        cache.get_or_record(key(1), || trace_of(10));
        cache.get_or_record(key(2), || trace_of(10));
        // Touch Gemm so Atax becomes the LRU victim.
        cache.get_or_record(key(1), || unreachable!("resident"));
        cache.get_or_record(key(3), || trace_of(10));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() <= cache.cap_bytes());
        // Gemm survived; Atax re-records.
        cache.get_or_record(key(1), || unreachable!("mru survives"));
        let misses_before = cache.stats().misses;
        cache.get_or_record(key(2), || trace_of(10));
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn zero_cap_keeps_nothing_resident_but_still_returns_traces() {
        let cache = TraceCache::with_cap_bytes(0);
        let t = cache.get_or_record(key(1), || trace_of(5));
        assert_eq!(t.len(), 5); // caller's Arc outlives the eviction
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
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
    fn over_allocated_traces_evict_at_their_true_footprint() {
        // One compute event, forty slots of capacity. Under length-based
        // accounting this entry would sit comfortably inside a cap sized
        // for twenty events; its real footprint is double the cap, so it
        // must be charged — and evicted — at capacity.
        let cache = TraceCache::with_cap_bytes(trace_of(20).heap_bytes());
        let t = cache.get_or_record(key(1), || {
            let mut rec = TraceRecorder::with_capacity(40);
            rec.compute(1);
            rec.into_trace()
        });
        assert_eq!(t.len(), 1); // the caller's Arc is unaffected
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn release_uncharges_and_the_next_lookup_records_again() {
        let cache = TraceCache::with_cap_bytes(1 << 20);
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
        let cache = TraceCache::with_cap_bytes(1 << 20);
        cache.get_or_record(key(1), || trace_of(3));
        let before = (cache.stats(), cache.resident_bytes(), cache.len());
        cache.release(key(2));
        assert_eq!((cache.stats(), cache.resident_bytes(), cache.len()), before);
    }

    #[test]
    fn a_release_while_recording_leaves_nothing_resident() {
        let cache = TraceCache::with_cap_bytes(1 << 20);
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
        let cache = TraceCache::with_cap_bytes(1 << 20);
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
