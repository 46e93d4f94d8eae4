#!/usr/bin/env bash
# Hermetic CI: build, test and lint fully offline, then smoke-check that
# the figures binary still reproduces the committed reference run
# byte-for-byte (serially and in parallel).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release --offline
cargo build --release --offline --examples
cargo test -q --offline
# Second test leg with the runtime invariant checkers armed: every
# component self-checks on every access and any violation fails the run.
STTCACHE_INVARIANTS=1 cargo test -q --offline
cargo clippy --offline --workspace --all-targets -- -D warnings

# Differential fuzzer: adversarial traces on every catalog organization,
# cross-checked against the shadow-memory oracle and the SRAM baseline.
./target/release/sttcache-check --quick
# Same battery as randomized 2-4 core mixes over the shared L2:
# co-scheduled runs cross-checked against per-core isolated runs, the
# per-core shadow oracles and the residency/conservation audit.
./target/release/sttcache-check --quick --kind multicore
# The irregular pointer-chasing family through the oracle differential —
# data-dependent streams, no affine safety net.
./target/release/sttcache-check --quick --kind irregular --events 2000

smoke="$(mktemp)"
trap 'rm -f "$smoke"' EXIT

./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

./target/release/figures all --serial > "$smoke"
diff -u figures_output.txt "$smoke"

# The trace cache must be invisible in the output: byte-identical with
# the cache off, with every baseline grid point's replay cross-checked
# against direct execution, and with the runtime invariant checkers
# armed.
./target/release/figures all --no-trace-cache > "$smoke"
diff -u figures_output.txt "$smoke"

STTCACHE_TRACE_CHECK=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

STTCACHE_INVARIANTS=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

# Telemetry must be observation-only: byte-identical output with the
# component registry armed while exporting the span trace.
ttrace="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace"' EXIT
./target/release/figures all --telemetry-json "$ttrace" > "$smoke" 2> /dev/null
diff -u figures_output.txt "$smoke"
grep -q '"traceEvents"' "$ttrace"
grep -q '"ph": "X"' "$ttrace"

# Multi-core: the shared-hierarchy interleave is deterministic, so the
# opt-in contention figure must be byte-identical serially, at any
# worker count and with the invariant checkers armed — and a two-core
# sim run must reproduce itself exactly.
mc="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace" "$mc"' EXIT
./target/release/figures multicore --serial > "$smoke"
./target/release/figures multicore --jobs 4 > "$mc"
diff -u "$smoke" "$mc"
STTCACHE_INVARIANTS=1 ./target/release/figures multicore > "$mc"
diff -u "$smoke" "$mc"
./target/release/sim --cores 2 > "$smoke"
./target/release/sim --cores 2 > "$mc"
diff -u "$smoke" "$mc"

# The opt-in irregular sweep is deterministic at any worker count.
./target/release/figures irregular --serial > "$smoke"
./target/release/figures irregular --jobs 4 > "$mc"
diff -u "$smoke" "$mc"

# External trace ingestion: a recorded trace must replay byte-identically
# through --trace-file (same cycles the recording example reports) and
# parse as a file: mix entry.
exttrace="$(mktemp -u).trace"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$exttrace"' EXIT
./target/release/examples/trace_sweep "$exttrace" > /dev/null
./target/release/sim --trace-file "$exttrace" --org vwb > "$smoke"
./target/release/sim --trace-file "$exttrace" --org vwb > "$mc"
diff -u "$smoke" "$mc"
grep -q '^# sim: trace:' "$smoke"
./target/release/sim --cores 2 --mix "file:$exttrace@64:vwb+gemm:sram" > "$mc"
grep -q 'file:' "$mc"

# The profile export is observation-only too: stdout byte-identical, and
# the stderr report names the replay phase and every artifact of
# `figures all`.
prof="$(mktemp)"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$exttrace" "$prof"' EXIT
./target/release/figures all --profile > "$smoke" 2> "$prof"
diff -u figures_output.txt "$smoke"
grep -q 'replay [0-9.]*s/[0-9]* runs' "$prof"
for artifact in table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ext; do
    grep -q "^  $artifact " "$prof"
done

# The benchmark package builds against these crates: lint it, run its
# tests, and run its quick pass, which exits 1 on any golden mismatch.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchout="$(mktemp -d)"
trap 'rm -rf "$smoke" "$ttrace" "$mc" "$exttrace" "$prof" "$benchout"' EXIT
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick --out "$benchout"

echo "ci: fmt, build, tests (plain + invariants armed), clippy, differential + multicore + irregular fuzzers, figures smoke (serial, trace cache off and cross-checked, invariants armed, telemetry export, profile), multi-core + irregular determinism, external-trace replay, trace-cache checks and the benchmark package (fmt, clippy, tests, quick golden pass) all green"
