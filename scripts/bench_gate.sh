#!/usr/bin/env bash
# Bench regression gate: re-measure the full figures sweep and compare it
# against the committed snapshot (BENCH_sweep.json). The gate fails when
# the fresh run regresses by more than 25 % on either
#
#   * total_seconds — the whole sweep's wall-clock,
#   * replay_seconds — the wall-clock of replaying cached traces through
#     the timing model, or
#   * replay_ns_per_event — the same phase normalized per replayed
#     event, so a regression shows even if the event mix shrinks, or
#   * two_core_mix_ms — the wall-clock of the default two-core mix over
#     the shared L2 (`sim --cores 2`), re-measured here min-of-three,
#   * irregular_sweep_ms — the wall-clock of the opt-in irregular
#     pointer-chasing sweep (`figures irregular`), re-measured the same
#     way,
#
# and when the committed snapshot's recorded telemetry-gate overhead
# (disarmed_overhead_pct, written by scripts/bench_snapshot.sh) exceeds
# 2 % — the zero-cost-when-off claim is gated here, not asserted.
#
# A key missing from a stale snapshot degrades gracefully: the gate says
# so on stderr, treats the value as 0 and keeps going instead of dying in
# a grep pipeline.
#
# The fresh run is taken serially (one worker) so the comparison does not
# depend on the machine's core count. Knobs:
#
#   STTCACHE_BENCH_GATE=warn     report regressions but exit 0 (set it on
#                                shared runners whose wall-clock is noisy;
#                                CI enforces `fail` by default)
#   STTCACHE_BENCH_GATE_FACTOR   regression factor (default 1.25)
#
# usage: scripts/bench_gate.sh [committed.json]
set -euo pipefail
cd "$(dirname "$0")/.."

committed="${1:-BENCH_sweep.json}"
mode="${STTCACHE_BENCH_GATE:-fail}"
factor="${STTCACHE_BENCH_GATE_FACTOR:-1.25}"

if [ ! -f "$committed" ]; then
    echo "bench_gate: no committed snapshot at $committed" >&2
    exit 2
fi

cargo build --release --offline -p sttcache-bench --bin figures --bin sim > /dev/null
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
./target/release/figures all --serial --profile-json "$fresh" > /dev/null

# First numeric value for a key in the hand-rolled, one-key-per-line
# profile JSON; empty (not a pipeline failure) when the key is absent —
# under `set -euo pipefail` a bare no-match grep would kill the script.
json_num() {
    grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk '{print $2}' || true
}
num_or_zero() {
    local v
    v="$(json_num "$1" "$2")"
    if [ -z "$v" ]; then
        echo "bench_gate: key '$2' missing from $1 (stale snapshot?" \
            "re-run scripts/bench_snapshot.sh) — treating as 0" >&2
        v=0
    fi
    echo "$v"
}

fresh_total="$(num_or_zero "$fresh" total_seconds)"
base_total="$(num_or_zero "$committed" total_seconds)"
fresh_replay="$(num_or_zero "$fresh" replay_seconds)"
base_replay="$(num_or_zero "$committed" replay_seconds)"

status=0
check_metric() {
    local name="$1" fresh_v="$2" base_v="$3" unit="${4:-s}"
    if awk -v f="$fresh_v" -v b="$base_v" -v k="$factor" \
        'BEGIN{exit !(b > 0 && f > b * k)}'; then
        echo "bench_gate: REGRESSION on $name: $fresh_v $unit vs committed $base_v $unit (> ${factor}x)"
        status=1
    else
        echo "bench_gate: $name ok: $fresh_v $unit vs committed $base_v $unit (limit ${factor}x)"
    fi
}

check_metric "total_seconds" "$fresh_total" "$base_total"
check_metric "replay phase" "$fresh_replay" "$base_replay"

# Per-event replay cost: wall-clock normalized by the number of replayed
# events, so the gate still bites when a perf regression hides behind a
# smaller event mix (and vice versa).
fresh_nspe="$(num_or_zero "$fresh" replay_ns_per_event)"
base_nspe="$(num_or_zero "$committed" replay_ns_per_event)"
check_metric "replay phase ns/event" "$fresh_nspe" "$base_nspe" "ns/event"

# Two-core mix wall-clock (min of three runs, like the snapshot's own
# measurement) against the committed recording. A snapshot from before
# the multi-core platform lands degrades to a warning via num_or_zero,
# and check_metric never fires on a zero baseline.
fresh_mc=0
for _ in 1 2 3; do
    t_start=$(date +%s%N)
    ./target/release/sim --cores 2 > /dev/null
    t=$((($(date +%s%N) - t_start) / 1000000))
    if [ "$fresh_mc" -eq 0 ] || [ "$t" -lt "$fresh_mc" ]; then
        fresh_mc=$t
    fi
done
base_mc="$(num_or_zero "$committed" two_core_mix_ms)"
check_metric "two-core mix (sim --cores 2)" "$fresh_mc" "$base_mc" "ms"

# Irregular pointer-chasing sweep wall-clock, measured and gated the
# same way; a pre-catalog snapshot degrades to a warning via
# num_or_zero.
fresh_irr=0
for _ in 1 2 3; do
    t_start=$(date +%s%N)
    ./target/release/figures irregular > /dev/null
    t=$((($(date +%s%N) - t_start) / 1000000))
    if [ "$fresh_irr" -eq 0 ] || [ "$t" -lt "$fresh_irr" ]; then
        fresh_irr=$t
    fi
done
base_irr="$(num_or_zero "$committed" irregular_sweep_ms)"
check_metric "irregular sweep (figures irregular)" "$fresh_irr" "$base_irr" "ms"

# The committed snapshot must uphold the telemetry zero-cost-when-off
# claim: the recorded disarmed-gate overhead stays under 2 %.
disarmed_pct="$(num_or_zero "$committed" disarmed_overhead_pct)"
if awk -v p="$disarmed_pct" 'BEGIN{exit !(p > 2.0)}'; then
    echo "bench_gate: REGRESSION on telemetry disarmed overhead: ${disarmed_pct}% (> 2%)"
    status=1
else
    echo "bench_gate: telemetry disarmed overhead ok: ${disarmed_pct}% (limit 2%)"
fi

if [ "$status" -ne 0 ] && [ "$mode" = "warn" ]; then
    echo "bench_gate: WARN mode — regression reported, not failing the build"
    exit 0
fi
exit "$status"
