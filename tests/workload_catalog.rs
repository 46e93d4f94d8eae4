//! Workload-catalog conformance battery.
//!
//! Mirrors the pipeline-stage conformance suite at the workload layer:
//! every catalog entry must pass the shared kernel-conformance contract,
//! CLI tokens must be unique and round-trip through the one resolver,
//! trace-key identities must be stable and collision-free, the README's
//! workload table must match what the catalog generates, no consumer
//! outside `crates/workloads` may enumerate `PolyBench` privately — the
//! catalog is the only authority on what is runnable — and every recorded
//! event stream matches `tests/golden/streams.txt`.

use std::collections::HashSet;

use sttcache_bench::{trace_cache::TraceKey, workload};
use sttcache_cpu::TraceRecorder;
use sttcache_workloads::catalog;
use sttcache_workloads::conformance::{all_transform_combos, assert_kernel_conformance};
use sttcache_workloads::kernels::{
    Atax, Covariance, Doitgen, Fdtd2d, FloydWarshall, Gemver, Syr2k, Trmm,
};
use sttcache_workloads::{Kernel, ProblemSize, Transformations, WorkloadFamily};

/// Every catalog entry — affine and irregular alike — passes the same
/// conformance bar the PolyBench ports pass: real loads and stores, a
/// finite checksum, and all eight transformation combinations agreeing
/// with the scalar reference.
#[test]
fn every_catalog_entry_passes_kernel_conformance() {
    for spec in catalog::catalog() {
        assert_kernel_conformance(&*spec.kernel(ProblemSize::Mini));
    }
}

/// The catalog carries the full affine suite plus at least four
/// irregular pointer-chasing kernels.
#[test]
fn catalog_spans_both_kernel_families() {
    let affine = catalog::family(WorkloadFamily::Affine);
    let irregular = catalog::family(WorkloadFamily::Irregular);
    assert_eq!(affine.len(), 28, "the paper's affine suite shrank");
    assert!(
        irregular.len() >= 4,
        "the irregular family needs at least 4 kernels, found {}",
        irregular.len()
    );
    assert_eq!(
        affine.len() + irregular.len(),
        catalog::catalog().len(),
        "families must partition the catalog"
    );
}

/// CLI tokens are unique and round-trip through the single resolver the
/// `sim`/`figures` binaries and the mix grammar share.
#[test]
fn cli_tokens_are_unique_and_round_trip() {
    let entries = catalog::catalog();
    let tokens: HashSet<&str> = entries.iter().map(|e| e.cli).collect();
    assert_eq!(tokens.len(), entries.len(), "duplicate CLI tokens");
    for e in &entries {
        let resolved = workload::resolve(e.cli).expect("catalog token resolves");
        assert_eq!(resolved, e.workload, "{}: resolver round trip", e.cli);
        assert_eq!(workload::token_of(e.workload), e.cli);
        assert_eq!(workload::label_of(e.workload), e.name);
    }
}

/// Trace-key identity is stable (same inputs — same key) and
/// collision-free across workloads, sizes and transformations.
#[test]
fn trace_key_identity_is_stable_and_collision_free() {
    let mut keys = HashSet::new();
    for e in catalog::catalog() {
        for size in [ProblemSize::Mini, ProblemSize::Small] {
            for transforms in [Transformations::none(), Transformations::all()] {
                let key = TraceKey::new(e.workload, size, transforms);
                assert_eq!(key, TraceKey::new(e.workload, size, transforms));
                assert!(keys.insert(key), "{}: trace-key collision", e.cli);
            }
        }
        let label = TraceKey::new(e.workload, ProblemSize::Mini, Transformations::none()).label();
        assert!(
            label.starts_with(e.name),
            "{}: key label '{label}' must lead with the catalog name",
            e.cli
        );
    }
}

/// The README's workload table is generated from the catalog; this keeps
/// the two from drifting. Regenerate with
/// `sttcache_workloads::catalog::readme_table()` when the family grows.
#[test]
fn readme_workload_table_matches_the_catalog() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the repo root");
    let table = catalog::readme_table();
    assert!(
        readme.contains(&table),
        "README workload table is out of sync with the catalog; \
         regenerate it from catalog::readme_table():\n{table}"
    );
}

fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// No consumer in the bench crate enumerates `PolyBench` privately: the
/// grid, the figures, the mix grammar and the binaries all walk the
/// workload catalog. Doc comments may still *mention* PolyBench (it is
/// the paper's suite); code may not name it.
#[test]
fn bench_crate_code_never_names_polybench() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src"));
    let mut files = Vec::new();
    rust_sources(root, &mut files);
    assert!(files.len() >= 10, "bench source walk looks broken");
    let mut offenders = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source file readable");
        for (n, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue; // comments may cite the suite by name
            }
            if trimmed.contains("PolyBench") {
                offenders.push(format!("{}:{}: {}", path.display(), n + 1, trimmed));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bench code must go through the workload catalog, not PolyBench:\n{}",
        offenders.join("\n")
    );
}

/// One golden line: the size tag, the workload, the transformation label,
/// the event count and [`sttcache_cpu::Trace::content_hash`] of the
/// recording.
fn stream_line(tag: &str, name: &str, kernel: &dyn Kernel, t: Transformations) -> String {
    let mut rec = TraceRecorder::new();
    kernel.run(&mut rec, t);
    let trace = rec.into_trace();
    let (len, hash) = (trace.len(), trace.content_hash());
    format!("{tag} {name} {} {len} {hash:016x}", t.label())
}

/// Every catalog workload under every transformation set at one size.
fn catalog_streams(size: ProblemSize) -> Vec<String> {
    let tag = format!("{size:?}").to_lowercase();
    let mut lines = Vec::new();
    for spec in catalog::catalog() {
        let kernel = spec.kernel(size);
        for t in all_transform_combos() {
            lines.push(stream_line(&tag, spec.cli, &*kernel, t));
        }
    }
    lines
}

/// Checks one tag's lines of `tests/golden/streams.txt`, in order, naming
/// every stream that moved.
fn assert_streams_match_the_golden(tag: &str, got: &[String]) {
    let want: Vec<&str> = include_str!("golden/streams.txt")
        .lines()
        .filter(|line| line.split(' ').next() == Some(tag))
        .collect();
    assert_eq!(got.len(), want.len(), "{tag}: stream count moved");
    let moved: Vec<String> = want
        .iter()
        .zip(got)
        .filter(|(w, g)| *w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} {tag} event streams moved:\n{}",
        moved.len(),
        want.len(),
        moved.join("\n")
    );
}

/// The recorded event stream of every catalog workload under every
/// transformation set is pinned at Mini: the figures replay these
/// recordings, so a kernel rewrite that keeps them keeps every figure.
#[test]
fn mini_event_streams_match_the_golden() {
    assert_streams_match_the_golden("mini", &catalog_streams(ProblemSize::Mini));
}

/// Odd sizes leave a scalar tail after the 4-wide groups in loops whose
/// catalog sizes are all multiples of four, so these streams pin the
/// tail rules the catalog never reaches. A width of 17 (18 for fdtd-2d's
/// `ey` rows) starts a tail on a line boundary, where a hint the tail
/// should not emit would show.
#[test]
fn odd_size_probe_streams_match_the_golden() {
    let probes: [(&str, Box<dyn Kernel>); 12] = [
        ("atax(11,13)", Box::new(Atax::new(11, 13))),
        ("atax(11,17)", Box::new(Atax::new(11, 17))),
        ("covariance(12,9)", Box::new(Covariance::new(12, 9))),
        ("covariance(12,17)", Box::new(Covariance::new(12, 17))),
        ("doitgen(4,4,9)", Box::new(Doitgen::new(4, 4, 9))),
        ("fdtd-2d(5,18,2)", Box::new(Fdtd2d::new(5, 18, 2))),
        ("floyd-warshall(11)", Box::new(FloydWarshall::new(11))),
        ("gemver(13)", Box::new(Gemver::new(13))),
        ("gemver(17)", Box::new(Gemver::new(17))),
        ("syr2k(9,11)", Box::new(Syr2k::new(9, 11))),
        ("syr2k(9,17)", Box::new(Syr2k::new(9, 17))),
        ("trmm(9,10)", Box::new(Trmm::new(9, 10))),
    ];
    let mut lines = Vec::new();
    for (name, kernel) in &probes {
        for t in all_transform_combos() {
            lines.push(stream_line("probe", name, &**kernel, t));
        }
    }
    assert_streams_match_the_golden("probe", &lines);
}

/// The same pin at Small, the size `figures --small` and the two-core
/// benchmark record: 120 M events, so it runs in the release leg of CI.
#[test]
#[ignore = "slow in debug: records 120 M events at the small problem size"]
fn small_event_streams_match_the_golden() {
    assert_streams_match_the_golden("small", &catalog_streams(ProblemSize::Small));
}
