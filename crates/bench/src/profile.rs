//! Per-phase wall-clock accounting for `--profile`.
//!
//! The trace cache attributes every simulation's time to one of three
//! phases — *record* (running a kernel into a [`TraceRecorder`]),
//! *replay* (driving a platform from a cached trace) and *direct* (the
//! uncached path) — into process-global atomic counters, so the
//! record-once/replay-many win is measurable from the binaries without
//! plumbing timers through every sweep. The binaries add per-figure
//! wall-clock on top and render the whole thing as a human summary
//! (stderr) or JSON (`--profile-json`), keeping stdout byte-identical to
//! the committed reference output.
//!
//! [`TraceRecorder`]: sttcache_cpu::TraceRecorder

use crate::trace_cache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The three phases the trace cache attributes simulation time to, in
/// the order the report renders them. Doubles as the index into
/// [`PHASES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Record,
    Replay,
    Direct,
}

/// One phase's accumulated wall-clock, run count and event count.
struct PhaseCounter {
    ns: AtomicU64,
    runs: AtomicU64,
    events: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // template for the array below
const ZERO_PHASE: PhaseCounter = PhaseCounter {
    ns: AtomicU64::new(0),
    runs: AtomicU64::new(0),
    events: AtomicU64::new(0),
};

/// Per-phase counters, indexed by [`Phase`].
static PHASES: [PhaseCounter; 3] = [ZERO_PHASE; 3];

/// A duration as nanoseconds, saturating at `u64::MAX`.
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn add(phase: Phase, d: Duration, events: u64) {
    let c = &PHASES[phase as usize];
    // Saturate at the cast *and* at the accumulation: a counter that
    // reaches the ceiling pins there instead of silently wrapping (a
    // `min(u64::MAX) as u64` cast alone would still overflow the sum).
    let ns = saturating_ns(d);
    let _ =
        c.ns.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_add(ns))
        });
    c.runs.fetch_add(1, Ordering::Relaxed);
    c.events.fetch_add(events, Ordering::Relaxed);
}

/// Credits one trace-recording run over `events` recorded events.
pub fn add_record(d: Duration, events: u64) {
    add(Phase::Record, d, events);
}

/// Credits one cached-trace replay over `events` replayed events.
pub fn add_replay(d: Duration, events: u64) {
    add(Phase::Replay, d, events);
}

/// Credits one direct (uncached) kernel execution over `events` memory
/// operations (loads + stores + prefetches the core issued).
pub fn add_direct(d: Duration, events: u64) {
    add(Phase::Direct, d, events);
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
    /// Seconds spent in direct (uncached) kernel execution.
    pub direct_seconds: f64,
    /// Number of direct executions.
    pub direct_runs: u64,
    /// Memory operations the core issued across direct executions.
    pub direct_events: u64,
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
    let secs = |p: Phase| PHASES[p as usize].ns.load(Ordering::Relaxed) as f64 / 1e9;
    let runs = |p: Phase| PHASES[p as usize].runs.load(Ordering::Relaxed);
    let events = |p: Phase| PHASES[p as usize].events.load(Ordering::Relaxed);
    let (cache_resident_bytes, cache_entries) = trace_cache::global_footprint();
    ProfileSnapshot {
        record_seconds: secs(Phase::Record),
        record_runs: runs(Phase::Record),
        record_events: events(Phase::Record),
        replay_seconds: secs(Phase::Replay),
        replay_runs: runs(Phase::Replay),
        replay_events: events(Phase::Replay),
        direct_seconds: secs(Phase::Direct),
        direct_runs: runs(Phase::Direct),
        direct_events: events(Phase::Direct),
        cache: trace_cache::global_stats(),
        cache_resident_bytes,
        cache_entries,
        memo_hits: trace_cache::result_memo_hits(),
        memo_entries: trace_cache::result_memo_entries(),
    }
}

impl ProfileSnapshot {
    /// Simulation seconds across all three phases.
    pub fn simulation_seconds(&self) -> f64 {
        self.record_seconds + self.replay_seconds + self.direct_seconds
    }

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

/// A finished profiled run: the per-figure wall-clock a binary measured
/// plus the phase counters, ready to render.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// `(artifact name, seconds)` in emission order.
    pub figures: Vec<(&'static str, f64)>,
    /// End-to-end wall-clock of the profiled run in seconds.
    pub total_seconds: f64,
    /// Worker threads the sweeps used.
    pub workers: usize,
    /// Whether the trace cache was enabled.
    pub cache_enabled: bool,
    /// Phase counters at the end of the run.
    pub phases: ProfileSnapshot,
}

impl ProfileReport {
    /// The human-readable summary `--profile` prints to stderr.
    pub fn render_text(&self) -> String {
        let p = &self.phases;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {:.3}s total, {} workers, trace cache {}\n",
            self.total_seconds,
            self.workers,
            if self.cache_enabled { "on" } else { "off" }
        ));
        out.push_str(&format!(
            "  phases: record {:.3}s/{} runs, replay {:.3}s/{} runs, \
             direct {:.3}s/{} runs, aggregate {:.3}s\n",
            p.record_seconds,
            p.record_runs,
            p.replay_seconds,
            p.replay_runs,
            p.direct_seconds,
            p.direct_runs,
            (self.total_seconds - p.simulation_seconds()).max(0.0),
        ));
        out.push_str(&format!(
            "  ns/event: record {:.1}, replay {:.1}, direct {:.1}\n",
            ns_per_event(p.record_seconds, p.record_events),
            ns_per_event(p.replay_seconds, p.replay_events),
            ns_per_event(p.direct_seconds, p.direct_events),
        ));
        out.push_str(&format!(
            "  trace cache: {} hits, {} misses, {} evictions \
             ({:.1}% hit rate), {} traces / {} KiB resident\n",
            p.cache.hits,
            p.cache.misses,
            p.cache.evictions,
            p.cache.hit_rate() * 100.0,
            p.cache_entries,
            p.cache_resident_bytes / 1024,
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

    /// The machine-readable form `--profile-json` writes (hand-rolled —
    /// the workspace is dependency-free).
    pub fn render_json(&self) -> String {
        let p = &self.phases;
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"total_seconds\": {:.6},\n",
            self.total_seconds
        ));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"trace_cache_enabled\": {},\n",
            self.cache_enabled
        ));
        out.push_str("  \"phases\": {\n");
        let mut phase = |name: &str, seconds: f64, runs: u64, events: u64| {
            out.push_str(&format!(
                "    \"{name}_seconds\": {seconds:.6},\n    \"{name}_runs\": {runs},\n\
                 \x20   \"{name}_events\": {events},\n\
                 \x20   \"{name}_ns_per_event\": {:.3},\n",
                ns_per_event(seconds, events)
            ));
        };
        phase("record", p.record_seconds, p.record_runs, p.record_events);
        phase("replay", p.replay_seconds, p.replay_runs, p.replay_events);
        phase("direct", p.direct_seconds, p.direct_runs, p.direct_events);
        out.push_str(&format!(
            "    \"aggregate_seconds\": {:.6}\n  }},\n",
            (self.total_seconds - p.simulation_seconds()).max(0.0)
        ));
        out.push_str("  \"trace_cache\": {\n");
        out.push_str(&format!(
            "    \"hits\": {},\n    \"misses\": {},\n    \"evictions\": {},\n",
            p.cache.hits, p.cache.misses, p.cache.evictions
        ));
        out.push_str(&format!(
            "    \"hit_rate\": {:.6},\n    \"resident_bytes\": {},\n    \"entries\": {}\n  }},\n",
            p.cache.hit_rate(),
            p.cache_resident_bytes,
            p.cache_entries
        ));
        out.push_str(&format!(
            "  \"result_memo\": {{ \"hits\": {}, \"entries\": {} }},\n",
            p.memo_hits, p.memo_entries
        ));
        out.push_str("  \"figures\": [\n");
        for (i, (name, secs)) in self.figures.iter().enumerate() {
            let comma = if i + 1 < self.figures.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"name\": \"{name}\", \"seconds\": {secs:.6} }}{comma}\n"
            ));
        }
        out.push_str("  ]\n}\n");
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
            cache_enabled: true,
            phases: ProfileSnapshot {
                record_seconds: 0.2,
                record_runs: 3,
                record_events: 30_000,
                replay_seconds: 0.9,
                replay_runs: 100,
                replay_events: 1_000_000,
                direct_seconds: 0.0,
                direct_runs: 0,
                direct_events: 0,
                cache: trace_cache::TraceCacheStats {
                    hits: 97,
                    misses: 3,
                    evictions: 0,
                },
                cache_resident_bytes: 3 * 1024 * 1024,
                cache_entries: 3,
                memo_hits: 40,
                memo_entries: 60,
            },
        }
    }

    #[test]
    fn text_report_names_every_phase_and_figure() {
        let text = sample().render_text();
        for needle in [
            "record 0.200s",
            "replay 0.900s",
            "direct 0.000s",
            "table1",
            "fig1",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let json = sample().render_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"total_seconds\": 1.500000",
            "\"workers\": 4",
            "\"hit_rate\": 0.970000",
            "\"name\": \"fig1\"",
        ] {
            assert!(json.contains(needle), "missing '{needle}' in:\n{json}");
        }
    }

    #[test]
    fn snapshot_accumulates_phase_time() {
        let before = snapshot();
        add_record(Duration::from_millis(5), 10);
        add_replay(Duration::from_millis(7), 10);
        add_direct(Duration::from_millis(11), 10);
        let after = snapshot();
        assert!(after.record_seconds >= before.record_seconds + 0.004);
        assert!(after.replay_seconds >= before.replay_seconds + 0.006);
        assert!(after.direct_seconds >= before.direct_seconds + 0.010);
        // Other tests in this binary may add phase time concurrently, so
        // only lower bounds are safe to assert.
        assert!(after.record_runs > before.record_runs);
        assert!(after.replay_runs > before.replay_runs);
        assert!(after.direct_runs > before.direct_runs);
        assert!(after.record_events >= before.record_events + 10);
        assert!(after.replay_events >= before.replay_events + 10);
        assert!(after.direct_events >= before.direct_events + 10);
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
        assert_eq!(
            u64::MAX.saturating_add(saturating_ns(Duration::from_millis(1))),
            u64::MAX
        );
    }

    #[test]
    fn simulation_seconds_sums_every_phase() {
        let p = sample().phases;
        assert!((p.simulation_seconds() - 1.1).abs() < 1e-12);
        assert_eq!(p.replay_phase_events(), 1_000_000);
    }

    /// Pins the `--profile-json` schema: `scripts/bench_gate.sh` greps
    /// these keys out of committed and fresh snapshots, so renaming or
    /// dropping one silently breaks the regression gate. Adding keys is
    /// fine; this test must be updated in lockstep with the gate script
    /// when a key it reads changes.
    #[test]
    fn json_schema_keys_are_pinned() {
        let json = sample().render_json();
        for key in [
            "\"total_seconds\"",
            "\"workers\"",
            "\"trace_cache_enabled\"",
            "\"phases\"",
            "\"record_seconds\"",
            "\"record_runs\"",
            "\"replay_seconds\"",
            "\"replay_runs\"",
            "\"direct_seconds\"",
            "\"direct_runs\"",
            "\"record_events\"",
            "\"record_ns_per_event\"",
            "\"replay_events\"",
            "\"replay_ns_per_event\"",
            "\"direct_events\"",
            "\"direct_ns_per_event\"",
            "\"aggregate_seconds\"",
            "\"trace_cache\"",
            "\"hits\"",
            "\"misses\"",
            "\"evictions\"",
            "\"hit_rate\"",
            "\"resident_bytes\"",
            "\"entries\"",
            "\"result_memo\"",
            "\"figures\"",
            "\"name\"",
            "\"seconds\"",
        ] {
            assert!(json.contains(key), "missing schema key {key} in:\n{json}");
        }
        // The gate greps the first match of each key, so the keys it
        // reads must occur exactly once.
        assert_eq!(json.matches("\"replay_seconds\"").count(), 1);
        assert_eq!(json.matches("\"replay_ns_per_event\"").count(), 1);
    }

    #[test]
    fn ns_per_event_is_zero_when_no_events_ran() {
        assert_eq!(ns_per_event(1.0, 0), 0.0);
        assert!((ns_per_event(0.9, 1_000_000) - 900.0).abs() < 1e-9);
        assert!(sample()
            .render_json()
            .contains("\"replay_ns_per_event\": 900.000"));
    }
}
