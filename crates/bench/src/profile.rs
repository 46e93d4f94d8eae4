//! Host-time recording: where a run's wall-clock goes.
//!
//! This module is the one recorder of host time. The trace cache credits
//! every simulation to one of two phases — *record* (running a kernel
//! into a [`TraceRecorder`]) and *replay* (driving a timing model from a
//! cached trace) — with a single `credit` call, and the binaries time
//! every printed artifact with [`time_artifact`]. The one recording has
//! two exports:
//!
//! * [`ProfileReport::render_text`], which `--profile` prints to stderr:
//!   the run's wall-clock; per phase, its time summed across workers, its
//!   runs and its ns/event; the trace-cache and result-memo counters; and
//!   per-artifact seconds;
//! * [`export_chrome_json`], which `--telemetry-json PATH` writes: one
//!   Chrome `trace_event` span per phase run and per artifact, stamped
//!   with its start offset from a process epoch and the worker thread
//!   that ran it, loadable in `chrome://tracing` / Perfetto.
//!
//! The phase counters are always on (three relaxed atomic adds per
//! simulation). Spans are off until [`arm`] runs: before it, a credit
//! appends nothing and costs one relaxed atomic load. The span sink is bounded at [`SPAN_CAP`] — a full sink drops
//! further spans and counts them, so a pathological sweep cannot grow
//! memory without bound. Stdout stays byte-identical in every mode.
//!
//! [`TraceRecorder`]: sttcache_cpu::TraceRecorder

use crate::{parallel::SweepRunner, trace_cache};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The two phases the trace cache attributes simulation time to, in
/// the order the text report renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Running a kernel into a trace recorder.
    Record,
    /// Driving a timing model from a cached trace.
    Replay,
}

impl Phase {
    /// The phase's span name.
    fn name(self) -> &'static str {
        match self {
            Phase::Record => "record",
            Phase::Replay => "replay",
        }
    }
}

/// The sink never retains more than this many spans.
pub const SPAN_CAP: usize = 65_536;

/// One phase's accumulated wall-clock, run count and event count.
struct PhaseCounter {
    ns: AtomicU64,
    runs: AtomicU64,
    events: AtomicU64,
}

impl PhaseCounter {
    const fn new() -> Self {
        PhaseCounter {
            ns: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

/// One completed span, timestamped in microseconds from the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (a phase or artifact name).
    pub name: &'static str,
    /// Category: `"phase"` for trace-cache phases, `"artifact"` for
    /// printed figures.
    pub cat: &'static str,
    /// Start offset from the epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Small dense thread number (0 = first thread seen).
    pub tid: u64,
}

/// Phase counters plus the bounded span sink. The process-wide instance
/// behind `credit` is what the binaries use; tests build their own so
/// exact counts can be asserted without touching global state.
struct Recorder {
    phases: [PhaseCounter; 2],
    armed: AtomicBool,
    spans: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
}

impl Recorder {
    const fn new() -> Self {
        Recorder {
            phases: [const { PhaseCounter::new() }; 2],
            armed: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn phase(&self, phase: Phase) -> &PhaseCounter {
        &self.phases[phase as usize]
    }

    /// Adds one run of `phase` to its counters and, while armed, appends
    /// its span.
    fn credit(&self, phase: Phase, start: Instant, took: Duration, events: u64) {
        let c = self.phase(phase);
        // Saturate at the cast *and* at the accumulation: a counter that
        // reaches the ceiling pins there instead of silently wrapping.
        let ns = saturating_ns(took);
        let _ =
            c.ns.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(ns))
            });
        c.runs.fetch_add(1, Ordering::Relaxed);
        c.events.fetch_add(events, Ordering::Relaxed);
        self.span(phase.name(), "phase", start, took);
    }

    /// Appends one completed span; a no-op while disarmed.
    fn span(&self, name: &'static str, cat: &'static str, start: Instant, took: Duration) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        // A start captured before the first `arm` clamps to the epoch.
        let ts = start
            .checked_duration_since(epoch())
            .unwrap_or(Duration::ZERO);
        let event = SpanEvent {
            name,
            cat,
            ts_us: saturating_us(ts),
            dur_us: saturating_us(took),
            tid: thread_number(),
        };
        let mut spans = self.spans.lock().expect("span sink lock");
        if spans.len() < SPAN_CAP {
            spans.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&self) -> (Vec<SpanEvent>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span sink lock"));
        (spans, self.dropped.swap(0, Ordering::Relaxed))
    }
}

static RECORDER: Recorder = Recorder::new();

/// A duration as nanoseconds, saturating at `u64::MAX`.
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A duration as microseconds, saturating at `u64::MAX`.
fn saturating_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The instant all span timestamps are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Maps opaque [`ThreadId`]s to small dense numbers so the export's
/// `tid` field is stable and readable.
fn thread_number() -> u64 {
    static IDS: OnceLock<Mutex<HashMap<ThreadId, u64>>> = OnceLock::new();
    let map = IDS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().expect("thread id map lock");
    let next = map.len() as u64;
    *map.entry(std::thread::current().id()).or_insert(next)
}

/// Arms span recording and pins the trace epoch to now (first arm only).
pub fn arm() {
    epoch();
    RECORDER.armed.store(true, Ordering::Relaxed);
}

/// Credits one run of `phase` that started at `start` and has just
/// finished, over `events` events: adds the run to the phase counters
/// and, while spans are armed, appends its span.
pub(crate) fn credit(phase: Phase, start: Instant, events: u64) {
    RECORDER.credit(phase, start, start.elapsed(), events);
}

/// Runs `print` as the artifact `name`, appends its span while armed,
/// and returns `(name, seconds)` for [`ProfileReport::figures`].
pub fn time_artifact(name: &'static str, print: impl FnOnce()) -> (&'static str, f64) {
    let start = Instant::now();
    print();
    let took = start.elapsed();
    RECORDER.span(name, "artifact", start, took);
    (name, took.as_secs_f64())
}

/// Drains every recorded span (and resets the dropped counter),
/// returning them in recording order together with the drop count.
pub fn drain_spans() -> (Vec<SpanEvent>, u64) {
    RECORDER.drain()
}

/// Renders spans as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in an object, as `chrome://tracing` and Perfetto load it).
/// Hand-rolled — the workspace is dependency-free. `dropped` non-zero
/// is surfaced in `otherData` so truncation is never silent.
pub fn export_chrome_json(events: &[SpanEvent], dropped: u64) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {} }}{}",
            e.name, e.cat, e.ts_us, e.dur_us, e.tid, comma
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{ \"spans\": {}, \"dropped\": {} }}",
        events.len(),
        dropped
    );
    out.push_str("}\n");
    out
}

/// Point-in-time view of the phase counters and the trace cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSnapshot {
    /// Seconds spent recording traces.
    pub record_seconds: f64,
    /// Number of recordings.
    pub record_runs: u64,
    /// Events recorded.
    pub record_events: u64,
    /// Seconds spent replaying cached traces.
    pub replay_seconds: f64,
    /// Number of replays.
    pub replay_runs: u64,
    /// Events replayed.
    pub replay_events: u64,
    /// Trace-cache counters.
    pub cache: trace_cache::TraceCacheStats,
    /// Bytes of trace data resident in the process-wide cache.
    pub cache_resident_bytes: usize,
    /// Entries in the process-wide cache.
    pub cache_entries: usize,
    /// Simulations answered from the result memo.
    pub memo_hits: u64,
    /// Distinct simulations resident in the result memo.
    pub memo_entries: usize,
}

/// Snapshots the global phase counters and cache state.
pub fn snapshot() -> ProfileSnapshot {
    let [record, replay] = &RECORDER.phases;
    let (cache_resident_bytes, cache_entries) = trace_cache::global_footprint();
    ProfileSnapshot {
        record_seconds: record.seconds(),
        record_runs: record.runs(),
        record_events: record.events(),
        replay_seconds: replay.seconds(),
        replay_runs: replay.runs(),
        replay_events: replay.events(),
        cache: trace_cache::global_stats(),
        cache_resident_bytes,
        cache_entries,
        memo_hits: trace_cache::result_memo_hits(),
        memo_entries: trace_cache::result_memo_entries(),
    }
}

impl ProfileSnapshot {
    /// Events the replay phase fed the timing model.
    pub fn replay_phase_events(&self) -> u64 {
        self.replay_events
    }
}

/// Nanoseconds per event, 0.0 when no events were credited (a phase
/// that never ran has no meaningful rate).
fn ns_per_event(seconds: f64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        seconds * 1e9 / events as f64
    }
}

/// A finished profiled run: the per-artifact wall-clock a binary measured
/// plus the phase counters, ready to render.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// `(artifact name, seconds)` in emission order.
    pub figures: Vec<(&'static str, f64)>,
    /// End-to-end wall-clock of the profiled run in seconds.
    pub total_seconds: f64,
    /// Worker threads the sweeps used.
    pub workers: usize,
    /// Phase counters at the end of the run.
    pub phases: ProfileSnapshot,
}

impl ProfileReport {
    /// The report of a run that began at `start` and printed `figures`:
    /// wall-clock so far, the current worker count and a [`snapshot`] of
    /// the phase counters.
    pub fn finish(start: Instant, figures: Vec<(&'static str, f64)>) -> Self {
        ProfileReport {
            figures,
            total_seconds: start.elapsed().as_secs_f64(),
            workers: SweepRunner::current().workers(),
            phases: snapshot(),
        }
    }

    /// The human-readable summary `--profile` prints to stderr.
    pub fn render_text(&self) -> String {
        let p = &self.phases;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {:.3}s total, {} workers\n",
            self.total_seconds, self.workers,
        ));
        out.push_str(&format!(
            "  phases: record {:.3}s/{} runs, replay {:.3}s/{} runs\n",
            p.record_seconds, p.record_runs, p.replay_seconds, p.replay_runs,
        ));
        out.push_str(&format!(
            "  ns/event: record {:.1}, replay {:.1}\n",
            ns_per_event(p.record_seconds, p.record_events),
            ns_per_event(p.replay_seconds, p.replay_events),
        ));
        out.push_str(&format!(
            "  trace cache: {} hits, {} misses, {} releases ({:.1}% hit rate), \
             {} traces / {} KiB resident, peak {} KiB\n",
            p.cache.hits,
            p.cache.misses,
            p.cache.releases,
            p.cache.hit_rate() * 100.0,
            p.cache_entries,
            p.cache_resident_bytes / 1024,
            p.cache.peak_resident_bytes / 1024,
        ));
        out.push_str(&format!(
            "  result memo: {} hits, {} distinct simulations\n",
            p.memo_hits, p.memo_entries,
        ));
        for (name, secs) in &self.figures {
            out.push_str(&format!("  {name:<8} {secs:>8.3}s\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        ProfileReport {
            figures: vec![("table1", 0.001), ("fig1", 0.25)],
            total_seconds: 1.5,
            workers: 4,
            phases: ProfileSnapshot {
                record_seconds: 0.2,
                record_runs: 3,
                record_events: 30_000,
                replay_seconds: 0.9,
                replay_runs: 100,
                replay_events: 1_000_000,
                cache: trace_cache::TraceCacheStats {
                    hits: 97,
                    misses: 3,
                    releases: 2,
                    peak_resident_bytes: 5 * 1024 * 1024,
                },
                cache_resident_bytes: 3 * 1024 * 1024,
                cache_entries: 3,
                memo_hits: 40,
                memo_entries: 60,
            },
        }
    }

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "record",
                cat: "phase",
                ts_us: 0,
                dur_us: 1500,
                tid: 0,
            },
            SpanEvent {
                name: "fig1",
                cat: "artifact",
                ts_us: 1500,
                dur_us: 250,
                tid: 1,
            },
        ]
    }

    /// `(nanoseconds, runs, events)` of one phase of a recorder.
    fn totals(rec: &Recorder, phase: Phase) -> (u64, u64, u64) {
        let c = rec.phase(phase);
        (c.ns.load(Ordering::Relaxed), c.runs(), c.events())
    }

    #[test]
    fn text_report_names_every_phase_and_figure() {
        let text = sample().render_text();
        for needle in [
            "record 0.200s",
            "replay 0.900s",
            "trace cache: 97 hits, 3 misses, 2 releases (97.0% hit rate), \
             3 traces / 3072 KiB resident, peak 5120 KiB\n",
            "table1",
            "fig1",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }

    #[test]
    fn snapshot_accumulates_phase_time() {
        // One credit on a disarmed recorder adds exactly one run, its
        // events and its time to that phase alone, and appends no span.
        let rec = Recorder::new();
        rec.credit(Phase::Replay, Instant::now(), Duration::from_millis(7), 10);
        assert_eq!(totals(&rec, Phase::Replay), (7_000_000, 1, 10));
        assert_eq!(totals(&rec, Phase::Record), (0, 0, 0));
        assert_eq!(rec.drain(), (Vec::new(), 0));
    }

    #[test]
    fn disarmed_recording_is_a_no_op_and_armed_spans_drain() {
        let rec = Recorder::new();
        rec.span("fig1", "artifact", Instant::now(), Duration::ZERO);
        assert_eq!(rec.drain(), (Vec::new(), 0));

        // Armed, one credit still counts once and appends exactly one
        // span of the same duration, stamped with this thread.
        rec.armed.store(true, Ordering::Relaxed);
        rec.credit(Phase::Record, Instant::now(), Duration::from_micros(7), 3);
        assert_eq!(totals(&rec, Phase::Record), (7_000, 1, 3));
        let (spans, dropped) = rec.drain();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].name, spans[0].cat, spans[0].dur_us),
            ("record", "phase", 7)
        );
        assert_eq!(spans[0].tid, thread_number());
        assert_eq!(rec.drain(), (Vec::new(), 0));
    }

    #[test]
    fn full_sink_drops_and_counts_instead_of_growing() {
        let rec = Recorder::new();
        rec.armed.store(true, Ordering::Relaxed);
        for _ in 0..SPAN_CAP + 2 {
            rec.span("fig1", "artifact", Instant::now(), Duration::ZERO);
        }
        let (spans, dropped) = rec.drain();
        assert_eq!((spans.len(), dropped), (SPAN_CAP, 2));
    }

    #[test]
    fn nanosecond_cast_saturates_instead_of_truncating() {
        // ~584 years of nanoseconds overflows u64; the cast must pin at
        // the ceiling, not wrap to a small number.
        assert_eq!(saturating_ns(Duration::from_secs(u64::MAX)), u64::MAX);
        assert_eq!(saturating_ns(Duration::from_millis(5)), 5_000_000);
        assert_eq!(saturating_ns(Duration::ZERO), 0);
        // And the accumulation saturates too, so a pinned counter stays
        // pinned rather than wrapping on the next credit.
        let rec = Recorder::new();
        rec.credit(
            Phase::Replay,
            Instant::now(),
            Duration::from_secs(u64::MAX),
            0,
        );
        rec.credit(Phase::Replay, Instant::now(), Duration::from_millis(1), 0);
        assert_eq!(totals(&rec, Phase::Replay), (u64::MAX, 2, 0));
    }

    #[test]
    fn replay_phase_events_reads_the_replay_count() {
        let p = sample().phases;
        assert_eq!(p.replay_phase_events(), 1_000_000);
    }

    #[test]
    fn ns_per_event_is_zero_when_no_events_ran() {
        assert_eq!(ns_per_event(1.0, 0), 0.0);
        assert!((ns_per_event(0.9, 1_000_000) - 900.0).abs() < 1e-9);
        assert!(sample()
            .render_text()
            .contains("ns/event: record 6666.7, replay 900.0\n"));
    }

    /// Pins the Chrome `trace_event` schema: every event is a complete
    /// (`"ph": "X"`) event carrying exactly the keys `chrome://tracing`
    /// and Perfetto require. Renaming or dropping one breaks every
    /// consumer of `figures --telemetry-json`, so this test must change
    /// in lockstep with the exporter.
    #[test]
    fn chrome_trace_schema_keys_are_pinned() {
        let json = export_chrome_json(&sample_events(), 3);
        assert!(json.starts_with("{\n  \"traceEvents\": ["));
        for key in [
            "\"traceEvents\"",
            "\"name\"",
            "\"cat\"",
            "\"ph\": \"X\"",
            "\"ts\"",
            "\"dur\"",
            "\"pid\": 1",
            "\"tid\"",
            "\"otherData\"",
            "\"spans\": 2",
            "\"dropped\": 3",
        ] {
            assert!(json.contains(key), "missing schema key {key} in:\n{json}");
        }
        // Two events, both complete-phase, comma-separated (valid JSON).
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_export_is_still_well_formed() {
        let json = export_chrome_json(&[], 0);
        assert!(json.contains("\"traceEvents\": [\n  ]"));
        assert!(json.contains("\"spans\": 0"));
    }
}
