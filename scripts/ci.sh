#!/usr/bin/env bash
# Hermetic CI: build, test and lint fully offline, then smoke-check that
# the figures binary still reproduces the committed reference run
# byte-for-byte (serially, and at two and four workers).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release --offline
cargo build --release --offline --examples
# Every example must run to a zero exit; trace_sweep is checked below.
for example in quickstart polybench_sweep design_space energy_report tech_pareto; do
    ./target/release/examples/"$example" > /dev/null
done
cargo test -q --offline
# Second test leg with the runtime invariant checkers armed: every
# component self-checks on every access and any violation fails the run.
STTCACHE_INVARIANTS=1 cargo test -q --offline
# The ignored tests run in release: the event-stream pin at Small
# (tests/golden/streams.txt) and the --small reproduction shapes.
cargo test --release --offline -q -p sttcache-bench --test integration --test workload_catalog -- --ignored
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc warnings (broken or redundant intra-doc links) fail the run.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

smoke="$(mktemp)"
trap 'rm -f "$smoke"' EXIT

# Differential fuzzer: adversarial traces alone on every catalog
# organization, each drained run audited against the trace's footprint
# (event counts, touched memory, surviving dirt, traffic conservation).
./target/release/sttcache-check --quick > "$smoke"
# Same battery as randomized 2-4 core mixes over the shared L2: the same
# audit per core, plus determinism and per-core isolated runs.
./target/release/sttcache-check --quick --kind multicore >> "$smoke"
# The irregular pointer-chasing family through the same audit —
# data-dependent streams, no affine safety net.
./target/release/sttcache-check --quick --kind irregular --events 2000 >> "$smoke"
# The transcripts name every case the three batteries ran, so a battery
# that loses or reorders a case fails here.
diff -u tests/golden/check_quick.txt "$smoke"
# The same three legs over 40 seeded cases per family: 720 verdicts, in
# order.
{
    ./target/release/sttcache-check --seed 7 --cases 40
    ./target/release/sttcache-check --seed 7 --cases 40 --kind multicore
    ./target/release/sttcache-check --seed 7 --cases 40 --kind irregular --events 2000
} > "$smoke"
diff -u tests/golden/check_seed.txt "$smoke"

# The ablation cycle tables must not move. At Mini their associativity,
# write-buffer and replacement sweeps are flat; replacement victims are
# pinned by tests/properties.rs::replacement_outcomes_are_pinned.
cargo bench --offline -q -p sttcache-bench --bench ablations > "$smoke"
diff -u tests/golden/ablations.txt "$smoke"
# The tables are the only sweep of the VWB's nonzero promotion holds and
# of the FIFO, tree-PLRU and random DL1 policies. Armed, every cache
# access takes the general path, so the hit fast path, and a fill's
# request served from it, are checked against the general one.
STTCACHE_INVARIANTS=1 cargo bench --offline -q -p sttcache-bench --bench ablations | diff -u tests/golden/ablations.txt -

./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

# The CSV route of every per-benchmark figure must not move either.
for fig in fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9; do
    ./target/release/figures --csv "$fig"
done > "$smoke"
diff -u tests/golden/figures_csv.txt "$smoke"

./target/release/figures all --serial > "$smoke"
diff -u figures_output.txt "$smoke"

# More workers than cores: four workers take and return recycled
# tag-store storage concurrently.
./target/release/figures all --jobs 4 > "$smoke"
diff -u figures_output.txt "$smoke"

# The trace cache must be invisible in the output: byte-identical with
# every replayed grid point cross-checked against direct execution.
STTCACHE_TRACE_CHECK=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

# The armed full sweep: with the invariant checkers armed, every cache
# access of every grid point bails from the hit fast path to the general
# path, which must reproduce the reference byte for byte.
STTCACHE_INVARIANTS=1 ./target/release/figures all > "$smoke"
diff -u figures_output.txt "$smoke"

# The span export must be observation-only: byte-identical output while
# `--telemetry-json` records spans, the only thing it arms.
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
# Runs of three and four cores must match their golden, in the order
# tests/cli.rs::sim_multicore_runs_match_the_golden runs them.
{
    ./target/release/sim --cores 4
    ./target/release/sim --cores 3 --org emshr --explain
    ./target/release/sim --mix "gemm@0:vwb+gemm@0:vwb+gemm@0:vwb"
} > "$smoke"
diff -u tests/golden/sim_multicore.txt "$smoke"

# The opt-in irregular sweep is deterministic at any worker count.
./target/release/figures irregular --serial > "$smoke"
./target/release/figures irregular --jobs 4 > "$mc"
diff -u "$smoke" "$mc"

# The opt-in sweeps are where the L0, the EMSHR and the hybrid run on
# pointer-chasing kernels and over the shared L2, and `catalog` is the
# only figure with the hybrid column: each must match its golden. A new
# catalog entry adds a column, so it regenerates these goldens. Every
# replayed grid point is also checked against direct execution: no other
# check replays the irregular kernels that way.
for sweep in catalog irregular multicore; do
    STTCACHE_TRACE_CHECK=1 ./target/release/figures "$sweep" > "$smoke"
    diff -u "tests/golden/$sweep.txt" "$smoke"
done

# External trace ingestion: a recorded trace must replay byte-identically
# through --trace-file, match the recorded kernel's own replay, and parse
# as a file: mix entry.
exttrace="$(mktemp -u).trace"
trap 'rm -f "$smoke" "$ttrace" "$mc" "$exttrace"' EXIT
./target/release/examples/trace_sweep "$exttrace" > /dev/null
./target/release/sim --trace-file "$exttrace" --org vwb > "$smoke"
./target/release/sim --trace-file "$exttrace" --org vwb > "$mc"
diff -u "$smoke" "$mc"
grep -q '^# sim: trace:' "$smoke"
# The example records bicg at Mini with every transformation: below the
# `# sim:` header line, the file replays exactly as the kernel does.
./target/release/sim --bench bicg --opts all --org vwb | tail -n +2 > "$mc"
tail -n +2 "$smoke" | diff -u "$mc" -
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
# Each of the 144 streams is recorded once: the 88 that one work item
# replays (Fig. 6's leave-one-out sets, Ext. 2's prefetch-only set) are
# released after it, and only the 56 shared ones stay resident.
for count in '144 misses' '88 releases' '56 traces'; do
    grep -q "^  trace cache: .*$count" "$prof"
done

# A reader that closes the pipe early ends the run quietly: under
# pipefail, each pipeline fails if the binary exits nonzero.
./target/release/figures all | head -1 > /dev/null
./target/release/sim --cores 2 | head -1 > /dev/null
./target/release/sttcache-check --quick | head -1 > /dev/null

# The benchmark package builds against these crates: lint it, run its
# tests, and run its quick pass, which exits 1 on any golden mismatch.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchout="$(mktemp -d)"
trap 'rm -rf "$smoke" "$ttrace" "$mc" "$exttrace" "$prof" "$benchout"' EXIT
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick --out "$benchout"

echo "ci: fmt, build, example runs, tests (plain + invariants armed, ignored tests in release), clippy, rustdoc -D warnings, differential + multicore + irregular fuzzers (quick and seeded transcripts pinned to their goldens), ablation tables (plain and invariants armed), figures CSV golden, figures smoke (serial, four workers, replay cross-checked against direct execution, invariants armed with the general cache path on every access, span-only telemetry export, profile with trace-cache miss, release and resident counts), early-closed stdout pipelines, multi-core + irregular determinism, catalog + irregular + multicore goldens (replay cross-checked against direct execution), sim_multicore golden, external-trace replay (pinned to the kernel's own replay), trace-cache checks and the benchmark package (fmt, clippy, tests, quick golden pass) all green"
