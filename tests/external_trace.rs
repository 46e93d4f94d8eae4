//! External trace ingestion: recorded traces written to disk must flow
//! back through the full replay stack with zero special cases.
//!
//! Covers the round-trip property (write → read → replay is bit-for-bit
//! identical to the in-memory replay) across the whole workload catalog,
//! byte-identity of an ingested `file:` workload through every replay
//! mode (the trace-cache pipeline, serial vs parallel sweeps), the 2-core
//! mix grammar, and rejection of truncated/corrupt files, and of files
//! that would alias another core's address stripe, through the mix token,
//! and of a penalty for a trace that runs for no cycles.

use sttcache::{DCacheOrganization, Platform, PlatformConfig, CORE_ADDRESS_STRIDE};
use sttcache_bench::multicore::MixSpec;
use sttcache_bench::{parallel::SweepRunner, trace_cache, workload};
use sttcache_cpu::{Engine, Trace, TraceRecorder};
use sttcache_mem::Addr;
use sttcache_workloads::{catalog, PolyBench, ProblemSize, Transformations, Workload};

/// Writes a trace to a unique temp file and returns its `file:` token.
fn write_trace(trace: &Trace, tag: &str) -> (std::path::PathBuf, String) {
    let path =
        std::env::temp_dir().join(format!("sttcache_ext_{tag}_{}.trace", std::process::id()));
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("trace serializes");
    std::fs::write(&path, &bytes).expect("temp file writable");
    let token = format!("file:{}", path.display());
    (path, token)
}

/// Write → read → replay equals the in-memory replay, bit for bit, for
/// every kernel-backed workload in the catalog.
#[test]
fn round_trip_replay_is_bit_identical_across_the_catalog() {
    let platform = Platform::new(DCacheOrganization::NvmDropIn).expect("canonical organization");
    for spec in catalog::catalog() {
        let recorded =
            trace_cache::record_trace(spec.workload, ProblemSize::Mini, Transformations::none());
        let mut bytes = Vec::new();
        recorded.write_to(&mut bytes).expect("trace serializes");
        let read_back = Trace::read_from(&mut bytes.as_slice()).expect("trace deserializes");
        assert_eq!(
            recorded, read_back,
            "{}: serialization round trip",
            spec.cli
        );
        assert_eq!(
            platform.run_trace(&recorded),
            platform.run_trace(&read_back),
            "{}: replay of the read-back trace diverged",
            spec.cli
        );
    }
}

/// An ingested trace file replays byte-identically through every mode of
/// the replay stack: direct replay is the reference, and the trace-cache
/// pipeline must match it, alone and from serial and parallel sweeps.
#[test]
fn ingested_trace_replays_byte_identical_in_every_mode() {
    let recorded =
        trace_cache::record_trace(PolyBench::Gemm, ProblemSize::Mini, Transformations::all());
    let (path, token) = write_trace(&recorded, "modes");
    let w = workload::resolve(&token).expect("ingestion succeeds");
    assert!(matches!(w, Workload::External(_)));

    let size = ProblemSize::Mini;
    let t = Transformations::none(); // external traces carry no kernel to transform
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::nvm_vwb_default(),
    ] {
        let platform = Platform::new(org).expect("canonical organization");
        let reference = platform.run_trace(&recorded);

        let registry = trace_cache::cached_trace(w, size, t);
        assert_eq!(*registry, recorded, "registry holds the ingested bytes");

        // The full pipeline: trace cache, replay and result memo.
        assert_eq!(
            trace_cache::run_config(&PlatformConfig::new(org), w, size, t),
            reference,
            "{}: the trace-cache pipeline diverged",
            org.name()
        );

        // Serial and parallel sweeps agree with the reference cycle count.
        let points = [w; 4];
        for workers in [1usize, 4] {
            let cycles = SweepRunner::with_workers(workers).map(&points, |_, &wl| {
                trace_cache::run_config(&PlatformConfig::new(org), wl, size, t).cycles()
            });
            for c in cycles {
                assert_eq!(
                    c.expect("external replay never fails"),
                    reference.cycles(),
                    "{}: {workers}-worker sweep diverged",
                    org.name()
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A `file:` entry in the 2-core mix grammar routes through the same
/// stack: the parse round-trips its token, the co-scheduled run is
/// deterministic, and the external core executes exactly the recorded
/// event stream.
#[test]
fn file_mix_entry_co_schedules_deterministically() {
    let recorded =
        trace_cache::record_trace(PolyBench::Mvt, ProblemSize::Mini, Transformations::none());
    let (path, token) = write_trace(&recorded, "mix");
    let spec = format!("{token}@100:vwb+gemm:sram");
    let mix = MixSpec::parse(&spec).expect("file mix entry parses");
    assert_eq!(mix.entries.len(), 2);
    assert_eq!(mix.entries[0].offset, 100);
    assert!(
        workload::token_of(mix.entries[0].workload).starts_with("file:"),
        "external entry must round-trip to its file token"
    );

    let run = || {
        sttcache_bench::multicore::run_mix(
            &mix,
            DCacheOrganization::nvm_vwb_default(),
            ProblemSize::Mini,
            Transformations::none(),
            None,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "file-backed mix must be deterministic");

    let (loads, stores, prefetches, branches) = recorded.summary();
    let core0 = &first.cores[0].core;
    assert_eq!(
        (core0.loads, core0.stores, core0.prefetches, core0.branches),
        (loads, stores, prefetches, branches),
        "the external core must execute exactly the recorded events"
    );
    std::fs::remove_file(&path).ok();
}

/// Truncated and corrupt recordings are rejected at the mix-grammar
/// boundary with the ingestion error, not deep in the replay stack.
#[test]
fn mix_grammar_rejects_broken_trace_files() {
    let recorded =
        trace_cache::record_trace(PolyBench::Atax, ProblemSize::Mini, Transformations::none());
    let mut bytes = Vec::new();
    recorded.write_to(&mut bytes).expect("trace serializes");

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let truncated = dir.join(format!("sttcache_ext_trunc_{pid}.trace"));
    std::fs::write(&truncated, &bytes[..bytes.len() / 3]).expect("temp file writable");
    let corrupt = dir.join(format!("sttcache_ext_corrupt_{pid}.trace"));
    std::fs::write(&corrupt, b"these are not trace bytes").expect("temp file writable");

    for path in [&truncated, &corrupt] {
        let err = MixSpec::parse(&format!("gemm+file:{}", path.display()))
            .expect_err("broken recordings must not parse");
        assert!(
            err.contains("cannot ingest trace file"),
            "unexpected error: {err}"
        );
    }
    let err = MixSpec::parse("gemm+file:/no/such/dir/missing.trace")
        .expect_err("missing files must not parse");
    assert!(err.contains("cannot ingest trace file"), "{err}");

    std::fs::remove_file(&truncated).ok();
    std::fs::remove_file(&corrupt).ok();
}

/// Core `i` of a mix runs in the address stripe from
/// `i · CORE_ADDRESS_STRIDE`, so a mix of two or more entries refuses a
/// `file:` trace that reaches 4 GiB, naming the entry and the address.
/// Alone, nothing is relocated and the same file still runs.
#[test]
fn mix_refuses_file_traces_that_reach_the_next_core_stripe() {
    let file = |base: u64, tag: &str| {
        let mut rec = TraceRecorder::new();
        (0..64).for_each(|i| rec.load(Addr(base + 64 * i), 8));
        write_trace(&rec.into_trace(), tag)
    };
    let (high_path, high) = file(CORE_ADDRESS_STRIDE, "stripe_high");
    let (low_path, low) = file(0, "stripe_low");
    let err = MixSpec::parse(&format!("{high}+{low}@100000"))
        .expect_err("a trace reaching 4 GiB must not share a mix");
    assert!(err.contains(&high) && err.contains("0x100000000"), "{err}");
    for (path, token) in [(high_path, high), (low_path, low)] {
        let mix = MixSpec::parse(&token).expect("a one-entry mix relocates nothing");
        let sram = DCacheOrganization::SramBaseline;
        let none = Transformations::none();
        let run = sttcache_bench::multicore::run_mix(&mix, sram, ProblemSize::Mini, none, None);
        assert_eq!(run.cores[0].core.loads, 64);
        std::fs::remove_file(&path).ok();
    }
}

/// A trace that runs for no cycles (no events, or one zero-length
/// compute burst) has no penalty against the SRAM baseline: `--baseline`
/// and `--explain` exit 2 naming the file before printing anything.
#[test]
fn zero_cycle_traces_have_no_penalty_to_report() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let empty = dir.join(format!("sttcache_ext_empty_{pid}.trace"));
    let header = |count: u64| [*b"STTRACE2", count.to_le_bytes()].concat();
    std::fs::write(&empty, header(0)).expect("temp file writable");
    let idle = dir.join(format!("sttcache_ext_idle_{pid}.trace"));
    let compute_zero = 0x0300_0000_0000_0000u64.to_le_bytes();
    std::fs::write(&idle, [header(1), compute_zero.to_vec()].concat()).expect("temp file writable");

    for path in [&empty, &idle] {
        let path = path.to_str().expect("utf-8 temp path");
        for flag in ["--baseline", "--explain"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_sim"))
                .args(["--trace-file", path, flag])
                .output()
                .expect("sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{path} {flag}:\n{stderr}");
            assert!(out.stdout.is_empty(), "{path} {flag} printed output");
            assert!(stderr.contains(path), "{path} {flag}:\n{stderr}");
            assert!(stderr.contains("0 cycles"), "{path} {flag}:\n{stderr}");
            assert!(!stderr.contains("panicked"), "{path} {flag}:\n{stderr}");
        }
    }
    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&idle).ok();
}
