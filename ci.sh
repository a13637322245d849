#!/usr/bin/env bash
# The full gate: formatting, clippy deny-wall, the repo-specific lint
# wall, the workspace analyzer (drift + parallel-readiness rules), build
# + tests, then the benchmark artifact gates: schema validation, the
# bench-diff regression comparison of a fresh deterministic --quick run
# against the committed baselines, and the continuous self-profiling
# gates (overhead bound, snapshot determinism, profile/v1 schema).
# Run from the repo root; fails fast.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo xtask lint"
cargo xtask lint

echo "== cargo xtask analyze (drift + parallel-readiness gates)"
# Writes the bluefield-offload/analyzer/v1 report as a side effect;
# archived next to the bench artifacts at the end of the run.
cargo xtask analyze

echo "== bench_results hygiene (committed baselines only)"
# The committed baseline tree must hold nothing but *.metrics.json
# documents: a stray file (scratch output, notes, stale logs) would
# masquerade as a baseline and silently drift out of date.
stray=0
for f in bench_results/*; do
    case "$f" in
        *.metrics.json) ;;
        *)
            echo "unexpected file in bench_results/: $f (only *.metrics.json belongs here)"
            stray=1
            ;;
    esac
done
[ "$stray" -eq 0 ] || exit 1

echo "== cargo build --release"
cargo build --release

echo "== cargo test (classic engine, SIMNET_THREADS=1)"
if ! SIMNET_THREADS=1 cargo test -q --workspace; then
    # The checker explorer drops flight-recorder dumps next to failing
    # schedules; surface them so the trace travels with the CI log.
    if ls target/failure-dumps/*.flight.txt >/dev/null 2>&1; then
        echo "flight-recorder dumps from failing runs:"
        ls -l target/failure-dumps/
    fi
    exit 1
fi

echo "== cargo test (sharded engine, SIMNET_THREADS=4)"
# The same tier-1 suite with every cluster routed through the sharded
# conservative-lookahead runtime: worker threads are a pure speed knob,
# so both passes must be green with identical verdicts (the equivalence
# suite in tests/engine_equivalence.rs additionally byte-compares the
# artifacts the two engines produce).
if ! SIMNET_THREADS=4 cargo test -q --workspace; then
    if ls target/failure-dumps/*.flight.txt >/dev/null 2>&1; then
        echo "flight-recorder dumps from failing runs:"
        ls -l target/failure-dumps/
    fi
    exit 1
fi

echo "== perfbench self-test (tiny shapes of the repo benchmark)"
# Builds perfbench-runner and checks its gates, metric names and layer
# accounting on seconds-long shapes; the full benchmark is
# `python3 perfbench/run.py` (see perfbench/README.md).
python3 perfbench/selftest.py

echo "== fault soak (ctrl + data-plane + tenant-isolation + breaker matrix)"
# Bounded fixed-seed soak across ten suites, all through the
# conformance checker with payload verification:
#   * ctrl matrix    — drop/dup/delay/crash/xreg plans x seeds x 1/2/4
#                      proxies on the verified stencil and alltoall;
#   * payload        — bit-flip x torn-write x silent-drop corruption on
#                      the stencil and on a persistent group whose send
#                      buffer is rewritten every call: must heal
#                      byte-correct via bounded retransmission;
#   * starved        — post burst against tiny admission/staging/journal
#                      caps: credits + QueueFull pacing, depths bounded;
#   * noisy-neighbor — a flooding tenant vs a well-behaved one at 2 and
#                      4 proxies, clean and under a drop/dup/crash plan:
#                      the victim's p99 group-window latency must stay
#                      within the committed bound factor of its solo p99
#                      (per-tenant lifecycle histograms);
#   * quota-retry    — hard-quota sheds under a lossy ctrl plane: typed
#                      QuotaExceeded, retry succeeds, never a stall;
#   * doomed-group   — every GroupPacket dropped: Group_Wait must fail
#                      typed, never stall;
#   * armed-health   — the whole ctrl matrix rerun with the fabric
#                      health engine armed: breakers/budgets must stay
#                      lossless (invariants 16-18 in the checker);
#   * breaker-recovery — sustained cross-GVMI registration failures:
#                      trip, fast-path through cooldown, probe, close,
#                      zero request failures end to end;
#   * brownout       — total payload loss: the data retry budget sheds
#                      before retransmission exhaustion and surfaces
#                      exactly one typed RetryBudgetExhausted per end;
#   * flapping-link  — SOAK_LONG only: xreg failures + ctrl drops + a
#                      proxy crash mid-run, breakers armed, lossless.
# SOAK_LONG=1 widens the matrix (8 seeds, deeper corruption stacks, the
# delay-heavy noisy-neighbor plan) for nightly-style runs; failures
# leave replayable flight-recorder dumps in
# target/failure-dumps/. The soak runs on the sharded engine
# (SIMNET_THREADS=4): recovery under faults must not depend on the
# engine, and the =1 behaviour is pinned by the equivalence suite.
if ! SOAK_LONG="${SOAK_LONG:-}" SIMNET_THREADS=4 \
    cargo run --release --quiet -p checker --bin fault_soak; then
    if ls target/failure-dumps/*.flight.txt >/dev/null 2>&1; then
        echo "flight-recorder dumps from failing soak scenarios:"
        ls -l target/failure-dumps/
    fi
    exit 1
fi

echo "== bench artifacts (fresh --quick run into target/bench-scratch)"
rm -rf target/bench-scratch
for bin in engine_speed ext_allgather ext_bluefield3 ext_proxy_count \
    ext_scale_alltoall ext_scale_stencil \
    fig02_rdma_latency fig03_rdma_bandwidth fig04_pingpong_staging \
    fig05_registration fig11_stencil_time fig12_stencil_overlap \
    fig13_ialltoall_time fig14_ialltoall_overlap fig15_scatter_dest \
    fig16_p3dfft fig17_hpl; do
    BENCH_OUT_DIR=target/bench-scratch \
        cargo run --release --quiet -p bench-harness --bin "$bin" -- --quick \
        >/dev/null
done

echo "== sharded-engine byte equivalence (threads 1 vs 4, --quick)"
# The acceptance property at CI scale: the scale benches (and fig11 /
# fig13) rerun at 1 and 4 worker threads with wall-clock keys suppressed
# (BENCH_NO_WALL=1) must write byte-identical metrics documents.
# SCALE_LONG=1 repeats the scale-bench check at the full 1024-rank shape
# (minutes on one CPU).
rm -rf target/equiv-t1 target/equiv-t4
equiv_scales=(--quick)
if [ -n "${SCALE_LONG:-}" ]; then equiv_scales+=(""); fi
for scale in "${equiv_scales[@]}"; do
    for bin in ext_scale_alltoall ext_scale_stencil; do
        for t in 1 4; do
            # shellcheck disable=SC2086  # $scale is intentionally word-split
            BENCH_OUT_DIR="target/equiv-t$t" BENCH_NO_WALL=1 \
                cargo run --release --quiet -p bench-harness --bin "$bin" -- \
                --threads "$t" $scale >/dev/null
        done
    done
done
# Two protocol benches on top: their proxies are scheduler-polled tasks,
# so this byte-compares task-backed processes across the two engines.
for bin in fig11_stencil_time fig13_ialltoall_time; do
    for t in 1 4; do
        BENCH_OUT_DIR="target/equiv-t$t" BENCH_NO_WALL=1 SIMNET_THREADS="$t" \
            cargo run --release --quiet -p bench-harness --bin "$bin" -- --quick \
            >/dev/null
    done
done
for doc in target/equiv-t1/*.metrics.json; do
    if ! cmp "$doc" "target/equiv-t4/$(basename "$doc")"; then
        echo "sharded engine diverged from the classic engine: $doc"
        exit 1
    fi
done
echo "scale and protocol artifacts byte-identical at 1 and 4 worker threads"

echo "== continuous self-profiling (BENCH_PROFILE=1, overhead gate)"
# The engine self-benchmark reruns its spec with the span profiler, the
# per-shard engine attribution and the telemetry bus armed, interleaving
# unprofiled and profiled repetitions; the binary exits nonzero if the
# profiled best-of-N exceeds the unprofiled one by more than the gate.
rm -rf target/profile target/profile-run
BENCH_OUT_DIR=target/profile-run BENCH_PROFILE=1 BENCH_PROFILE_GATE_PCT=5 \
    cargo run --release --quiet -p bench-harness --bin engine_speed -- --quick \
    >/dev/null
echo "profiling overhead within the 5% gate"

echo "== profile determinism (snapshots byte-identical, threads 1 vs 4)"
# Like the metrics equivalence above: with wall-clock keys suppressed a
# profile/v1 document is a pure function of the deterministic event
# stream and the telemetry interval, so the 1- and 4-worker documents
# must be byte-identical (the engine section is wall-gated precisely
# because shard topology follows the thread count).
rm -rf target/profile-equiv-t1 target/profile-equiv-t4
for t in 1 4; do
    BENCH_OUT_DIR=target/profile-run BENCH_PROFILE_DIR="target/profile-equiv-t$t" \
        BENCH_PROFILE=1 BENCH_NO_WALL=1 SIMNET_THREADS="$t" \
        cargo run --release --quiet -p bench-harness --bin engine_speed -- --quick \
        >/dev/null
done
for doc in target/profile-equiv-t1/*.profile.json; do
    if ! cmp "$doc" "target/profile-equiv-t4/$(basename "$doc")"; then
        echo "profile document depends on the worker thread count: $doc"
        exit 1
    fi
done
echo "profile artifacts byte-identical at 1 and 4 worker threads"

echo "== profile schema (bluefield-offload/profile/v1) + self-time table"
cargo xtask validate-metrics target/profile/*.profile.json
cargo xtask profile --top 8

echo "== metrics schema (bluefield-offload/metrics/v1)"
cargo xtask validate-metrics target/bench-scratch/*.metrics.json

echo "== bench-diff against committed baselines"
cargo xtask bench-diff bench_results target/bench-scratch
# Machine-readable copy of the same verdict for downstream tooling.
cargo xtask bench-diff bench_results target/bench-scratch --json \
    > target/bench-scratch/bench-diff.json
echo "bench-diff report: target/bench-scratch/bench-diff.json"

# Archive the analyzer verdict and the self-profiling reports next to
# the bench artifacts so one directory carries every machine-readable
# CI report.
cp target/analyze/report.json target/bench-scratch/analyze-report.json
cp target/profile/*.profile.json target/bench-scratch/
echo "analyzer report: target/bench-scratch/analyze-report.json"
echo "self-profiling reports: target/bench-scratch/*.profile.json"
echo "engine self-benchmark: target/bench-scratch/engine_speed.metrics.json"

echo "ci.sh: all gates passed"
