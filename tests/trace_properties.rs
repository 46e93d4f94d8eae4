//! Property-based tests on the trace infrastructure: binary round-trips
//! over arbitrary event streams, a reader that never panics on corrupt
//! bytes, and replay equivalence — a recorded kernel replayed through a
//! platform must produce the identical timing.
//!
//! Randomness comes from the in-repo seeded harness
//! (`sttcache_bench::testkit`); failures print their reproducing seed.

use sttcache::{DCacheOrganization, Platform};
use sttcache_bench::testkit::{run_cases, Rng};
use sttcache_cpu::{Engine, Trace, TraceEvent, TraceRecorder};
use sttcache_mem::Addr;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// The trace format's address domain: 48 bits.
const ADDRESS_LIMIT: u64 = 1 << 48;

fn arb_event(rng: &mut Rng) -> TraceEvent {
    let addr = Addr(rng.next_u64() % ADDRESS_LIMIT);
    match rng.usize_in(0, 5) {
        0 => TraceEvent::Load {
            addr,
            bytes: rng.u8_in(1, 65),
        },
        1 => TraceEvent::Store {
            addr,
            bytes: rng.u8_in(1, 65),
        },
        2 => TraceEvent::Prefetch { addr },
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
            t.iter()
                .map(|e| match e {
                    TraceEvent::Compute { ops } => ops as u64,
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

/// Flipping any one bit of a valid file either still decodes or fails
/// with an error naming what it hit — never a panic.
#[test]
fn single_bit_flips_decode_or_name_their_event() {
    run_cases("single_bit_flips_decode_or_name_their_event", 256, |rng| {
        let trace: Trace = rng.vec_of(1, 50, arb_event).into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let bit = rng.usize_in(0, buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        if let Err(e) = Trace::read_from(buf.as_slice()) {
            // A larger count runs the reader off the end at some event.
            let named = match bit / 64 {
                0 => "magic".to_string(),
                1 => "event ".to_string(),
                word => format!("event {}:", word - 2),
            };
            assert!(e.to_string().contains(&named), "flip of bit {bit}: {e}");
        }
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

/// The widest addresses the format holds (2^48 − 1) survive the event
/// word bit-exactly alongside ordinary events.
#[test]
fn max_width_addresses_roundtrip() {
    let addr = Addr(ADDRESS_LIMIT - 1);
    run_cases("max_width_addresses_roundtrip", 64, |rng| {
        let mut events = rng.vec_of(0, 50, arb_event);
        events.push(TraceEvent::Load { addr, bytes: 255 });
        events.push(TraceEvent::Store { addr, bytes: 1 });
        events.push(TraceEvent::Prefetch { addr });
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

/// An address at or above 2^48 does not fit the event word: recording
/// one is a program bug, and the recorder panics naming the address.
#[test]
#[should_panic(expected = "0x1000000000000")]
fn the_recorder_refuses_an_address_at_2_pow_48() {
    TraceRecorder::new().store(Addr(ADDRESS_LIMIT), 8);
}

/// `Trace::from_iter` refuses the same address, naming it.
#[test]
#[should_panic(expected = "0x1000000000000")]
fn from_iter_refuses_an_address_at_2_pow_48() {
    let addr = Addr(ADDRESS_LIMIT);
    Trace::from_iter([TraceEvent::Prefetch { addr }]);
}

/// One 8-byte word per event, on disk after the 16-byte header and in
/// memory once the recorder's growth slack is released.
#[test]
fn trace_format_is_compact() {
    let mut rec = TraceRecorder::new();
    PolyBench::Gemm
        .kernel(ProblemSize::Mini)
        .run(&mut rec, Transformations::none());
    let mut trace = rec.into_trace();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write");
    assert_eq!(buf.len(), 16 + 8 * trace.len());
    trace.shrink_to_fit();
    assert_eq!(trace.heap_bytes(), 8 * trace.len());
}
