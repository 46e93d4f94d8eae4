//! Property-based tests on the trace infrastructure: binary round-trips
//! over arbitrary event streams, and replay equivalence — a recorded
//! kernel replayed through a platform must produce the identical timing.
//!
//! Randomness comes from the in-repo seeded harness
//! (`sttcache_bench::testkit`); failures print their reproducing seed.

use sttcache::{DCacheOrganization, Platform};
use sttcache_bench::testkit::{run_cases, Rng};
use sttcache_cpu::{Engine, Trace, TraceEvent, TraceRecorder};
use sttcache_mem::Addr;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

fn arb_event(rng: &mut Rng) -> TraceEvent {
    match rng.usize_in(0, 5) {
        0 => TraceEvent::Load {
            addr: Addr(rng.next_u64()),
            bytes: rng.u8_in(1, 65),
        },
        1 => TraceEvent::Store {
            addr: Addr(rng.next_u64()),
            bytes: rng.u8_in(1, 65),
        },
        2 => TraceEvent::Prefetch {
            addr: Addr(rng.next_u64()),
        },
        3 => TraceEvent::Compute {
            ops: rng.u32_in(1, 10_000),
        },
        _ => TraceEvent::Branch { taken: rng.bool() },
    }
}

/// Arbitrary event streams survive the binary format bit-exactly.
#[test]
fn binary_roundtrip() {
    run_cases("binary_roundtrip", 128, |rng| {
        let events = rng.vec_of(0, 300, arb_event);
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
        assert_eq!(trace, back);
    });
}

/// Replaying a trace into a recorder reproduces it (replay is a
/// faithful engine driver).
#[test]
fn replay_identity() {
    run_cases("replay_identity", 128, |rng| {
        let events = rng.vec_of(0, 200, arb_event);
        let trace: Trace = events.into_iter().collect();
        let mut rec = TraceRecorder::new();
        trace.replay_into(&mut rec);
        let rerecorded = rec.into_trace();
        // Compute events may coalesce, so compare the summaries and the
        // total compute volume instead of exact event lists.
        assert_eq!(trace.summary(), rerecorded.summary());
        let volume = |t: &Trace| -> u64 {
            t.events()
                .iter()
                .map(|e| match e {
                    TraceEvent::Compute { ops } => *ops as u64,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(volume(&trace), volume(&rerecorded));
    });
}

/// Truncating a serialized trace anywhere inside the payload never
/// panics — it errors.
#[test]
fn truncation_is_an_error_not_a_panic() {
    run_cases("truncation_is_an_error_not_a_panic", 128, |rng| {
        let events = rng.vec_of(1, 50, arb_event);
        let cut = rng.usize_in(0, 64);
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let cut = cut.min(buf.len().saturating_sub(1));
        let truncated = &buf[..buf.len() - 1 - cut];
        // Either a clean error, or (if the cut removed whole trailing
        // events but the header count disagrees) still an error.
        assert!(Trace::read_from(&mut &truncated[..]).is_err());
    });
}

/// Recording a kernel and replaying the trace through a platform gives the
/// identical cycle count as running the kernel directly.
#[test]
fn trace_replay_reproduces_direct_timing() {
    for org in [
        DCacheOrganization::NvmDropIn,
        DCacheOrganization::nvm_vwb_default(),
    ] {
        let kernel = PolyBench::Atax.kernel(ProblemSize::Mini);
        let direct = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| kernel.run(e, Transformations::all()))
            .cycles();

        let mut rec = TraceRecorder::new();
        kernel.run(&mut rec, Transformations::all());
        let trace = rec.into_trace();
        let replayed = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| trace.replay_into(e))
            .cycles();

        assert_eq!(direct, replayed, "{}", org.name());
    }
}

/// The empty trace is a fixed point: it round-trips through the binary
/// format and replays as a no-op into any engine.
#[test]
fn empty_trace_roundtrips_and_replays_as_noop() {
    let trace = Trace::default();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write");
    let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
    assert_eq!(trace, back);
    assert!(back.is_empty());

    let mut rec = TraceRecorder::new();
    trace.replay_into(&mut rec);
    assert!(rec.into_trace().is_empty());

    // An empty trace replayed through a platform costs nothing but the
    // fixed pipeline drain.
    let empty_cycles = Platform::new(DCacheOrganization::SramBaseline)
        .expect("canonical configuration")
        .run_trace(&trace)
        .cycles();
    let idle_cycles = Platform::new(DCacheOrganization::SramBaseline)
        .expect("canonical configuration")
        .run(|_: &mut dyn Engine| {})
        .cycles();
    assert_eq!(empty_cycles, idle_cycles);
}

/// Maximum-width addresses (all 64 bits set) survive the varint encoding
/// bit-exactly alongside ordinary events.
#[test]
fn max_width_addresses_roundtrip() {
    run_cases("max_width_addresses_roundtrip", 64, |rng| {
        let mut events = rng.vec_of(0, 50, arb_event);
        events.push(TraceEvent::Load {
            addr: Addr(u64::MAX),
            bytes: 64,
        });
        events.push(TraceEvent::Store {
            addr: Addr(u64::MAX),
            bytes: 1,
        });
        events.push(TraceEvent::Prefetch {
            addr: Addr(u64::MAX),
        });
        events.push(TraceEvent::Compute { ops: u32::MAX });
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
        assert_eq!(trace, back);
    });
}

/// The monomorphic chunked replay (`replay_into` via `Platform::run_trace`)
/// and the `dyn Engine` path time out identically on arbitrary streams.
#[test]
fn monomorphic_replay_matches_dyn_replay_on_platforms() {
    run_cases("monomorphic_replay_matches_dyn_replay", 32, |rng| {
        let events = rng.vec_of(0, 200, arb_event);
        let trace: Trace = events.into_iter().collect();
        let org = DCacheOrganization::NvmDropIn;
        let via_dyn = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| trace.replay_into(e));
        let via_mono = Platform::new(org)
            .expect("canonical configuration")
            .run_trace(&trace);
        assert_eq!(via_dyn, via_mono);
    });
}

/// Recording the same kernel twice yields bit-identical traces — the
/// workloads are deterministic, which is what makes a shared trace cache
/// sound in the first place.
#[test]
fn kernel_recording_is_deterministic() {
    for bench in [PolyBench::Gemm, PolyBench::Atax, PolyBench::Jacobi2d] {
        for t in [Transformations::none(), Transformations::all()] {
            let record = || {
                let mut rec = TraceRecorder::new();
                bench.kernel(ProblemSize::Mini).run(&mut rec, t);
                rec.into_trace()
            };
            assert_eq!(record(), record(), "{} with {t}", bench.name());
        }
    }
}

/// The binary format is compact: well under 16 bytes per event for
/// realistic kernels.
#[test]
fn trace_format_is_compact() {
    let mut rec = TraceRecorder::new();
    PolyBench::Gemm
        .kernel(ProblemSize::Mini)
        .run(&mut rec, Transformations::none());
    let trace = rec.into_trace();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write");
    let per_event = buf.len() as f64 / trace.len() as f64;
    assert!(per_event < 16.0, "{per_event:.2} bytes/event");
}
