#!/usr/bin/env bash
# Full local gate for drift-lab, as one command:
#
#   ./scripts/ci.sh
#
# 1. tier-1 (ROADMAP): release build + the root package's test suite,
#    then every workspace crate's unit tests — and the number of test
#    binaries that reported must not drop below the floor checked in here
# 2. lint gate: clippy over the whole workspace, warnings are errors
# 3. the wide v2/v3 differential matrix (a 6000-message trace size on
#    top) — opt-in via DRIFT_STRESS=1
# 4. bench harnesses in check mode (each bench body runs once); the
#    ingest smoke run asserts what holds on any host (every decode path
#    returns the source trace, v3 costs 25-40 % more bytes than v2) and
#    refreshes BENCH_ingest.json with report-only rates, the census smoke
#    run refreshes BENCH_census.json and the perf gate below fails the
#    script if the SIMD census-kernel throughput regresses, the
#    stage-share gate runs the POP example and fails unless `lower` runs
#    at >= 1.5x the event rate of `clc`, the collective-cost gate bounds
#    what an allreduce adds to `clc`'s time per event, the inlining gate
#    looks for the graph accessors and the shared CLC step among the
#    symbols, four grep gates keep the deleted intra-job parallelism, the
#    second CLC walker and the in-process router from coming back under
#    their old names, the codec's frame grammar in its one file and the
#    CLC arithmetic in its one step, and a size ratchet holds the
#    line count of the three production crates under a ceiling that only
#    goes down; the
#    syncd smoke run refreshes BENCH_syncd.json and a sanity gate checks
#    its report; the incremental smoke run refreshes
#    BENCH_incremental.json and the residency gate fails the script if
#    the windowed engine's resident columns stop being O(window); the
#    syncd_net smoke run refreshes BENCH_syncd_net.json and the wire
#    gate bounds socket-vs-in-process overhead, and the "upload never
#    sleeps on progress" gate runs the count-based reader tests in release
#    (idle back-offs <= idle reads, on scripted, byte-by-byte and real
#    loopback sessions); the online smoke run
#    refreshes BENCH_online.json and the online gate fails the script
#    unless the no-lookahead filter strictly undercuts endpoint
#    interpolation's violation census on every non-constant drift model
# 5. VOPR chaos campaign: 500 seeded simulation schedules against the
#    stepped service (5000 with DRIFT_STRESS=1); any failing seed is
#    shrunk, written to vopr-failure-<seed>.simt, and printed with a
#    copy-pasteable repro command — plus a netchaos campaign of seeded
#    connection-fault sessions through the wire stack
# 6. service + network smokes: the sync_service example runs headless
#    and must show >=1 retried job and 0 service crashes in its metrics
#    exporter; the net_service example must hold every wire-path
#    invariant over a real loopback socket; `experiments all --fast` must
#    exit 0 and print every section once
# 7. the frozen end-to-end benchmark's own gate: its tests, then a smoke
#    run of all four workloads that exits non-zero on any unverified job
#    or seed-2008 pin mismatch
#
# Steps 1-3 stop the script at the first failure. Everything from step 4
# on runs through `gate`, which records a failing gate's name and goes on:
# some of those gates compare wall-clock ratios that depend on the host
# (the socket path is below its floor on a box with two contended vCPUs),
# and one of them failing must not hide the verdict of the campaigns,
# smokes and the frozen benchmark after it. The script exits non-zero at
# the end with the list of failed gates.
set -euo pipefail
cd "$(dirname "$0")/.."

# `test result:` lines `cargo test -q --workspace` printed when this floor
# was last set (one per test binary and doc-test target). Raise it when a
# PR adds a test target; a drop means a target silently stopped running.
# Last reset downwards when intra-job parallelism was deleted: one binary
# (`parallel_differential`) and the tests of the sharded stages, the replay
# CLC, its ring capacities and the worker-count axes went with their
# subject.
WORKSPACE_TEST_BINARIES_FLOOR=48
# Tests those binaries passed between them when the floor was last set.
# Last reset when the map-based CLC walker moved under tests/ as the oracle
# and the in-process router was deleted: five comparisons against the
# walker left `clocksync`'s unit tests for `tests/csr_differential.rs`
# (ten tests there now: the moved ones, the recorded-output pins of the
# POMP and clock-domain lowerings, `pop_batch`'s input), the lowerings
# brought five unit tests (four in `clocksync`, one in `bench`), and the
# router's two unit tests and its differential test went with their
# subject. Then the `DTL1` codec, the times-only decode lane, the text
# writer and the `TimeColumn` wrapper took their eleven tests with them
# (nine unit tests of `tracefmt::io`, one of `tracefmt::column`, the v1
# property of `tests/codec_roundtrip.rs`) while the one frame grammar
# brought five (the encoders' byte-stability golden, two archive tests, the
# split-magic reply of `tests/net_differential.rs`, the readers-agree
# property of `tests/proptest_stream_faults.rs`). The binary floor did not
# move. Raised by four when the CLC step was written once: the two
# oracle-free equivariances of `tests/proptest_invariants.rs`, the
# oversized-window pin of `tests/windowed_differential.rs` and the
# self-message pin of `tests/end_to_end.rs`.
WORKSPACE_TESTS_FLOOR=634

failed_gates=()

# gate NAME COMMAND...: run one gate; on failure record NAME and continue.
# The command runs as an `if` condition, where `set -e` does not apply, so
# gate functions return non-zero explicitly.
gate() {
    local name=$1
    shift
    echo "==> gate: ${name}"
    if ! "$@"; then
        echo "gate FAILED: ${name}" >&2
        failed_gates+=("$name")
    fi
}

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace: cargo test -q --workspace"
ws_log=$(mktemp)
trap 'rm -f "$ws_log"' EXIT
cargo test -q --workspace 2>&1 | tee "$ws_log"
ws_binaries=$(grep -c '^test result:' "$ws_log" || true)
echo "    ${ws_binaries} test binaries reported (floor ${WORKSPACE_TEST_BINARIES_FLOOR})"
if [[ "$ws_binaries" -lt "$WORKSPACE_TEST_BINARIES_FLOOR" ]]; then
    echo "workspace: only ${ws_binaries} test binaries reported, floor is ${WORKSPACE_TEST_BINARIES_FLOOR}" >&2
    exit 1
fi
ws_tests=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$ws_log")
echo "    ${ws_tests} tests passed (floor ${WORKSPACE_TESTS_FLOOR})"
if [[ "$ws_tests" -lt "$WORKSPACE_TESTS_FLOOR" ]]; then
    echo "workspace: only ${ws_tests} tests passed, floor is ${WORKSPACE_TESTS_FLOOR}" >&2
    exit 1
fi

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${DRIFT_STRESS:-0}" == "1" ]]; then
    # The v2↔v3 differential matrix widens itself under DRIFT_STRESS=1
    # (adds a 6000-message trace size) in both the AVX2 and the
    # forced-scalar test binary.
    echo "==> stress: v2/v3 differential matrix (wide, DRIFT_STRESS=1)"
    cargo test -q --test columnar_differential --test columnar_differential_scalar
else
    echo "==> stress: skipped (set DRIFT_STRESS=1 to run the wide matrix)"
fi

gate "bench check: engine" cargo bench -p bench --bench engine -- --test
gate "bench check: census" cargo bench -p bench --bench census -- --test
gate "bench check: ingest" cargo bench -p bench --bench ingest -- --test
gate "bench check: syncd_throughput" cargo bench -p bench --bench syncd_throughput -- --test
gate "bench check: incremental" cargo bench -p bench --bench incremental -- --test
gate "bench check: syncd_net" cargo bench -p bench --bench syncd_net -- --test
gate "bench check: online" cargo bench -p bench --bench online -- --test

# Kernel-throughput gate: the SIMD-width census kernels against the
# reference walk — a single-thread-vs-single-thread ratio on the same
# host, so it holds at every CPU count. The floor sits well under the
# measured margin (~5.5x on the reference host) to absorb scheduler noise.
kernel_throughput_gate() {
    local census_speedup census_eps
    census_speedup=$(sed -n 's/.*"census_kernel_over_reference_speedup": \([0-9.]*\).*/\1/p' BENCH_census.json)
    census_eps=$(sed -n 's/.*"census_events_per_sec": \([0-9.]*\).*/\1/p' BENCH_census.json)
    if [[ -z "$census_speedup" || -z "$census_eps" ]]; then
        echo "perf gate: could not read census kernel fields from BENCH_census.json" >&2
        return 1
    fi
    echo "    census kernel ${census_eps} events/s, ${census_speedup}x over reference walk"
    if ! awk -v s="$census_speedup" 'BEGIN { exit !(s >= 3.0) }'; then
        echo "perf gate: census kernel speedup ${census_speedup}x < 3.0x over the reference walk" >&2
        return 1
    fi
}
gate "kernel throughput from BENCH_census.json" kernel_throughput_gate

# Stage-share gate: on the POP example (32 ranks, 600 allreduces — 98 % of
# its 608 000 constraints are collective) `lower` must run at >= 1.5x the
# event rate of `clc`. Both rows come from one run on one host, so the
# ratio is machine-independent: `lower` ran at 12.5 M items/s while it
# expanded every allreduce into its 32 x 31 logical edges and runs at
# 40-65 M items/s with collectives lowered as member rows; `clc` ran at
# 5-7 M items/s while it evaluated those edges one by one and runs at
# 17-18 M items/s evaluating each allreduce once — a ratio of 2.3-4x now,
# 0.7x should `lower` re-expand. The rate is the fourth field of a stage
# row (`PipelineStats::render`: name, items, "items", rate, "items/s").
stage_share_gate() {
    local out lower clc
    cargo build --release -q --example pop_correction || return 1
    out=$(target/release/examples/pop_correction) || return 1
    lower=$(awk '$1 == "lower" { print $4 }' <<<"$out")
    clc=$(awk '$1 == "clc" { print $4 }' <<<"$out")
    if [[ -z "$lower" || -z "$clc" ]]; then
        echo "stage-share gate: no lower/clc rows in the example's stage table" >&2
        return 1
    fi
    echo "    lower ${lower} items/s, clc ${clc} items/s"
    if ! awk -v l="$lower" -v c="$clc" 'BEGIN { exit !(l >= 1.5 * c) }'; then
        echo "stage-share gate: lower at ${lower} items/s is under 1.5x clc's ${clc}" >&2
        return 1
    fi
}
gate "stage shares: pop_correction" stage_share_gate

# Collective-cost gate: the `clc` stage's time per event on the POP program
# with its allreduces over the same program without them (`engine` bench,
# `clc/pop_allreduce` and `clc/pop_halo_only`: 32 ranks x 600 steps, one
# run, one host, so the ratio is machine-independent). An allreduce end is
# bounded by 31 begins: evaluated edge by edge the program with allreduces
# cost 2.0-2.5x per event of its halo exchange alone (three alternating
# runs at the parent of the aggregated evaluation), evaluated once per
# instance 0.9-1.3x. The threshold sits midway.
clc_collective_gate() {
    local out with without
    out=$(cargo bench -q -p bench --bench engine -- clc/pop_) || return 1
    with=$(awk '$1 == "clc/pop_allreduce" { print $(NF - 1) }' <<<"$out")
    without=$(awk '$1 == "clc/pop_halo_only" { print $(NF - 1) }' <<<"$out")
    if [[ -z "$with" || -z "$without" ]]; then
        echo "collective-cost gate: no clc/pop_* rows in the engine bench's output" >&2
        return 1
    fi
    echo "    clc at ${with} events/s with allreduces, ${without} events/s without"
    if ! awk -v w="$with" -v o="$without" 'BEGIN { exit !(o <= 1.6 * w) }'; then
        echo "collective-cost gate: an event costs the clc stage over 1.6x as much with allreduces (${with} vs ${without} events/s)" >&2
        return 1
    fi
}
gate "collective cost: clc/pop_allreduce vs clc/pop_halo_only" clc_collective_gate

# Inlining gate: the per-edge accessors of the dependency graph and the
# shared CLC step must stay inlined into the CLC kernels. The windowed loops
# are large, so an accessor that grows is outlined silently, which cost the
# message-only `stream_windowed` workload 10-15 % when it happened (PR 15);
# the step, the walk and the sweep's `step` / `advance` are `inline(always)`
# for the same reason. Outlined, they would show up as symbols of their
# own: in `pop_correction` (the batch kernel) or in `net_service` (the one
# example that runs the windowed engine).
inlining_gate() {
    local example syms
    command -v nm >/dev/null || { echo "    (no nm on this host: skipped)"; return 0; }
    for example in pop_correction net_service; do
        cargo build --release -q --example "$example" || return 1
        syms=$(nm -C "target/release/examples/${example}" | grep -E \
            'DepGraph::(in_of|out_of|message_in|member_slot)|EdgeIter.*::next|columnar::(forward_step|backward_walk)|Sweep.*::(step|advance)|Timeline.*::[gs]et' || true)
        if [[ -n "$syms" ]]; then
            echo "inlining gate: outlined in ${example}:" >&2
            echo "$syms" >&2
            return 1
        fi
    done
}
gate "inlined graph accessors and CLC step: nm pop_correction, net_service" inlining_gate

# A job is single-threaded (DESIGN §9); none of the names its parallel
# paths went by may come back.
gate "no intra-job parallelism" bash -c \
    "! grep -rnE 'ParallelConfig|WireParallel|pool_workers|use_replay|run_sharded' crates src tests examples"

# One CLC walker (the CSR kernel; the map-based one is the tests' oracle
# under tests/common/) and one service tier (DESIGN §16.5): no hash map
# under the CLC or the pipeline, none of the second walker's or the
# in-process router's names outside tests/.
gate "one CLC walker, one service tier" bash -c \
    "! grep -rn HashMap crates/core/src/clc crates/core/src/pipeline \
     && ! grep -rnE 'JobRouter|RouterConfig|steal_back|deps_from_parts|extract_deps' crates src examples"

# One frame grammar (DESIGN §14): magic negotiation, the header checks, the
# v3 pad, the trailer and the after-trailer rule live in one private file
# of `tracefmt::io`, every reader and writer goes through it, and nobody
# sniffs a stream's version from its first bytes (the one literal left is
# `simsched`'s workload test, which counts what it generated).
one_frame_grammar_gate() {
    local owners sniffers
    owners=$(grep -rlE 'v3_pad|check_block_header|MAGIC_COLUMNAR' crates)
    sniffers=$(grep -rlE 'b"DT[CL]' crates/*/src | grep -v '^crates/simsched/src/workload.rs$' || true)
    if [[ "$owners" != "crates/tracefmt/src/io/frame.rs" || -n "$sniffers" ]]; then
        echo "one frame grammar: the grammar's names are in [${owners//$'\n'/ }]," \
            "magic literals in [${sniffers//$'\n'/ }]" >&2
        return 1
    fi
}
gate "one frame grammar" one_frame_grammar_gate

# One CLC step (DESIGN §15.2): the forward step's amortized candidate and
# the backward walk's ramp are each written once under `crates/core/src`, in
# `clc/columnar.rs`; the batch passes and the windowed sweeps call them. A
# second `gap.scale(` or `scale(frac` is a second copy of the arithmetic.
one_clc_step_gate() {
    local pattern hits
    for pattern in 'gap\.scale(' 'scale(frac'; do
        hits=$(grep -rn "$pattern" crates/core/src || true)
        if [[ $(grep -c . <<<"$hits") -ne 1 || "$hits" != crates/core/src/clc/columnar.rs:* ]]; then
            echo "one CLC step: '${pattern}' must appear once, in clc/columnar.rs; found:" >&2
            echo "${hits:-    (nowhere)}" >&2
            return 1
        fi
    done
}
gate "one CLC step" one_clc_step_gate

# Size ratchet (ROADMAP item 2): lines under the three production crates'
# src/ against a ceiling that only ever goes down — lower it to the printed
# count whenever a PR shrinks them; a PR that needs to raise it says why.
# The public-item counts are reported beside it, not gated.
SRC_LINES_CEILING=19052
size_ratchet_gate() {
    local lines
    lines=$(find crates/{core,tracefmt,syncd}/src -name '*.rs' -print0 | xargs -0 cat | wc -l)
    echo "    crates/{core,tracefmt,syncd}/src: ${lines} lines (ceiling ${SRC_LINES_CEILING})"
    for crate in core tracefmt syncd; do
        echo "    crates/${crate}/src public items: $(grep -rhE '^\s*pub (fn|struct|enum|type|const|trait) ' "crates/${crate}/src" | wc -l)"
    done
    if [[ "$lines" -gt "$SRC_LINES_CEILING" ]]; then
        echo "size ratchet: ${lines} lines, ceiling is ${SRC_LINES_CEILING}" >&2
        return 1
    fi
}
gate "size ratchet: core + tracefmt + syncd" size_ratchet_gate

# Residency gate: the incremental windowed engine's whole contract is
# that its resident timestamp columns are O(window), not O(trace). The
# bench runs the same workload at 1x and 10x the events; the measured
# column high-water mark must stay (near) flat across that growth, and
# must undercut the batch engine's 8 x n_events gather at the 10x scale.
# Both ratios are machine-independent (bytes, not seconds), so the gate
# holds at every CPU count.
residency_gate() {
    local res_growth res_margin res_peak
    res_growth=$(sed -n 's/.*"residency_growth_under_10x": \([0-9.]*\).*/\1/p' BENCH_incremental.json)
    res_margin=$(sed -n 's/.*"batch_over_windowed_resident": \([0-9.]*\).*/\1/p' BENCH_incremental.json)
    res_peak=$(sed -n 's/.*"large_peak_resident_bytes": \([0-9]*\).*/\1/p' BENCH_incremental.json)
    if [[ -z "$res_growth" || -z "$res_margin" || -z "$res_peak" ]]; then
        echo "residency gate: could not read fields from BENCH_incremental.json" >&2
        return 1
    fi
    echo "    peak ${res_peak} B, growth under 10x events ${res_growth}x, batch/windowed ${res_margin}x"
    if ! awk -v g="$res_growth" 'BEGIN { exit !(g < 2.0) }'; then
        echo "residency gate: windowed columns grew ${res_growth}x under 10x events (must stay < 2.0x)" >&2
        return 1
    fi
    if ! awk -v m="$res_margin" 'BEGIN { exit !(m >= 4.0) }'; then
        echo "residency gate: windowed columns only ${res_margin}x below the batch gather (need >= 4.0x)" >&2
        return 1
    fi
}
gate "O(window) columns from BENCH_incremental.json" residency_gate

# Online-sync gate: the whole point of the online method is that a
# drift-tracking filter with NO lookahead still beats postmortem endpoint
# interpolation wherever drift is non-constant. The bench races the
# methods over fixed-seed scenarios and records violation censuses —
# integer counts from a deterministic pipeline, so the gate is
# machine-independent and holds at every CPU count. The online census
# must be strictly below interpolation's on every non-constant drift
# model, and never above it on the dynamic-membership churn scenarios.
online_gate() {
    local model oi oo
    for model in sawtooth sinusoid randomwalk; do
        oi=$(sed -n "s/.*\"census_${model}_interp\": \([0-9]*\).*/\1/p" BENCH_online.json)
        oo=$(sed -n "s/.*\"census_${model}_online\": \([0-9]*\).*/\1/p" BENCH_online.json)
        if [[ -z "$oi" || -z "$oo" ]]; then
            echo "online gate: could not read ${model} censuses from BENCH_online.json" >&2
            return 1
        fi
        echo "    ${model}: interp ${oi} -> online ${oo}"
        if [[ "$oo" -ge "$oi" ]]; then
            echo "online gate: ${model}: online census ${oo} not strictly below interp ${oi}" >&2
            return 1
        fi
    done
    for model in churn_2_islands churn_3_islands_heavy; do
        oi=$(sed -n "s/.*\"census_${model}_interp\": \([0-9]*\).*/\1/p" BENCH_online.json)
        oo=$(sed -n "s/.*\"census_${model}_online\": \([0-9]*\).*/\1/p" BENCH_online.json)
        if [[ -z "$oi" || -z "$oo" ]]; then
            echo "online gate: could not read ${model} censuses from BENCH_online.json" >&2
            return 1
        fi
        echo "    ${model}: interp ${oi} -> online ${oo}"
        if [[ "$oo" -gt "$oi" ]]; then
            echo "online gate: ${model}: online census ${oo} above interp ${oi}" >&2
            return 1
        fi
    done
}
gate "violation censuses from BENCH_online.json" online_gate

# VOPR campaign: every seed must pass every invariant and replay
# identically from its decision trace. On failure the runner prints the
# seed and the exact command to reproduce it, so nothing extra is needed
# here beyond propagating the exit code.
if [[ "${DRIFT_STRESS:-0}" == "1" ]]; then
    vopr_seeds=5000
else
    vopr_seeds=500
fi
gate "vopr campaign (${vopr_seeds} seeds)" \
    cargo run --release -q -p simsched --bin vopr -- --seeds "$vopr_seeds"

# Connection-fault campaign: seeded sessions with truncated uploads,
# flipped bytes, and dropped downloads driven through the full wire
# stack; every seed must leave the server quiescent (no leaked admission
# charge, no executor crash) and every clean session bit-identical to a
# direct run. Failing seeds print their own repro command.
if [[ "${DRIFT_STRESS:-0}" == "1" ]]; then
    net_seeds=200
else
    net_seeds=25
fi
gate "netchaos campaign (${net_seeds} seeds)" \
    cargo run --release -q -p simsched --bin vopr -- --net-seeds "$net_seeds"

# Sanity gate over the syncd bench report. The CPU-aware throughput gate
# lives inside the bench itself; here we only check the report is sane.
#
# Seam-overhead gate: the Runtime/StepService seam must cost nothing in
# production. The service/direct throughput ratio is host-relative (both
# sides run on the same machine in the same process), so it is stable
# across CPU counts; the pre-seam baseline measured 1.202 on 1 cpu, and a
# ratio well below 1.0 would mean the executor path started paying for
# its abstractions.
#
# Measurement policy (explicit, so a flaky host doesn't get blamed on
# the code): the bench reports the *median of three strictly
# alternating direct/service rounds* — the methodology of "Reliable
# benchmarking: requirements and solutions" (arXiv:1505.07734) — so one
# noisy round (cold caches, a background task) is discarded by
# construction, and this gate reads that median. There is therefore NO
# retry loop here: a median below the floor across three rounds is a
# real regression, not noise, and must fail the gate.
syncd_report_gate() {
    local svc_jps p50 p99 ratio
    svc_jps=$(sed -n 's/.*"service_jobs_per_sec": \([0-9.]*\).*/\1/p' BENCH_syncd.json)
    p50=$(sed -n 's/.*"job_latency_p50_seconds": \([0-9.]*\).*/\1/p' BENCH_syncd.json)
    p99=$(sed -n 's/.*"job_latency_p99_seconds": \([0-9.]*\).*/\1/p' BENCH_syncd.json)
    if [[ -z "$svc_jps" || -z "$p50" || -z "$p99" ]]; then
        echo "perf gate: could not read syncd fields from BENCH_syncd.json" >&2
        return 1
    fi
    echo "    service ${svc_jps} jobs/s, latency p50 ${p50}s p99 ${p99}s"
    if ! awk -v j="$svc_jps" -v a="$p50" -v b="$p99" \
            'BEGIN { exit !(j > 0 && a <= b && b > 0) }'; then
        echo "perf gate: implausible syncd report (jobs/s ${svc_jps}, p50 ${p50}, p99 ${p99})" >&2
        return 1
    fi
    ratio=$(sed -n 's/.*"service_over_direct_ratio": \([0-9.]*\).*/\1/p' BENCH_syncd.json)
    if [[ -z "$ratio" ]]; then
        echo "perf gate: could not read service_over_direct_ratio from BENCH_syncd.json" >&2
        return 1
    fi
    echo "    service/direct ratio ${ratio}x (pre-seam baseline 1.202x)"
    if ! awk -v r="$ratio" 'BEGIN { exit !(r >= 0.90) }'; then
        echo "perf gate: service/direct ratio ${ratio}x < 0.90x — executor seam regressed throughput" >&2
        return 1
    fi
}
gate "syncd service report from BENCH_syncd.json" syncd_report_gate

# Wire-overhead gate: the framed loopback path (syncd-client -> TCP ->
# syncd-server) versus the same jobs submitted in-process. Same
# median-of-three alternating-rounds policy as the seam gate above; the
# floor bounds protocol overhead (framing, kernel copies, credit
# round-trips, reply re-encode) to 30% of throughput even on a
# single-CPU host where serialization cannot overlap job execution.
wire_overhead_gate() {
    local net_ratio net_jps
    net_ratio=$(sed -n 's/.*"socket_over_inproc_ratio": \([0-9.]*\).*/\1/p' BENCH_syncd_net.json)
    net_jps=$(sed -n 's/.*"socket_jobs_per_sec": \([0-9.]*\).*/\1/p' BENCH_syncd_net.json)
    if [[ -z "$net_ratio" || -z "$net_jps" ]]; then
        echo "perf gate: could not read fields from BENCH_syncd_net.json" >&2
        return 1
    fi
    echo "    socket ${net_jps} jobs/s, socket/in-process ratio ${net_ratio}x"
    if ! awk -v r="$net_ratio" 'BEGIN { exit !(r >= 0.7) }'; then
        echo "perf gate: socket path at ${net_ratio}x of in-process throughput (floor 0.7x)" >&2
        return 1
    fi
}
gate "wire overhead from BENCH_syncd_net.json" wire_overhead_gate

# Read-granularity gate: a connection backs off only after a read on which
# the transport had nothing (`NetIdleSleeps <= NetIdleReads`), never after
# one that consumed bytes without completing a frame — which once capped
# ingest at 64 KiB per 0.55 ms and which the ratio above cannot see (its
# jobs are one frame, one read). Counts, so it holds on any host: the
# scripted read_limit x idle_every grid, the 1.3 MB loopback job, the
# per-read stop check and split Cancel of the driver's unit tests, and the
# byte-by-byte netchaos leg. A filter that stops matching must fail the
# gate, hence the count of tests that ran.
upload_progress_gate() {
    local out ran
    out=$(
        cargo test --release -q --test proptest_wire --test net_differential \
            never_sleeps_on_progress 2>&1 &&
        cargo test --release -q -p syncd --lib net::conn::tests 2>&1 &&
        cargo test --release -q -p simsched --lib tiny_window_starves 2>&1
    ) || { printf '%s\n' "$out" >&2; return 1; }
    ran=$(awk '/^test result: ok/ { n += $4 } END { print n + 0 }' <<<"$out")
    echo "    ${ran} count-based reader tests passed"
    if [[ "$ran" -lt 5 ]]; then
        echo "upload-progress gate: only ${ran} of its 5 tests ran" >&2
        return 1
    fi
}
gate "upload never sleeps on progress" upload_progress_gate

# Network smoke: client -> TCP server -> client round trip, headless.
# The example asserts bit-identity with the in-process pipeline, typed
# auth rejection and incremental streaming; any broken invariant panics
# and fails the gate.
gate "network smoke: net_service example" cargo run --release --example net_service

# Service smoke: the multi-tenant example must survive a poisoned stream —
# at least one retry recorded, zero panics escaping an executor.
service_smoke_gate() {
    local smoke_out retried crashes
    smoke_out=$(cargo run --release --example sync_service) || return 1
    retried=$(sed -n 's/^syncd_jobs_retried_total \([0-9]*\)$/\1/p' <<<"$smoke_out")
    crashes=$(sed -n 's/^syncd_service_crashes_total \([0-9]*\)$/\1/p' <<<"$smoke_out")
    echo "    retried=${retried:-?} crashes=${crashes:-?}"
    if [[ -z "$retried" || -z "$crashes" || "$retried" -lt 1 || "$crashes" -ne 0 ]]; then
        echo "service smoke: expected >=1 retried job and 0 service crashes" >&2
        printf '%s\n' "$smoke_out" >&2
        return 1
    fi
}
gate "service smoke: sync_service example" service_smoke_gate

# The paper's figures as a smoke run (ROADMAP item 3's entry point): the
# whole campaign in its short form must run to the end in release, and no
# section may be printed twice (`all` once ran the timer taxonomy under two
# names).
experiments_gate() {
    local out dup
    out=$(cargo run --release -q -p experiments -- all --fast) || return 1
    dup=$(grep '^## ' <<<"$out" | sort | uniq -d)
    echo "    $(grep -c '^## ' <<<"$out") sections"
    if [[ -n "$dup" ]]; then
        echo "experiments: sections printed more than once:" >&2
        echo "$dup" >&2
        return 1
    fi
}
gate "experiments all --fast" experiments_gate

# The frozen benchmark (benchmark/, its own package and lock file) is the
# judge of every perf PR; a library change that breaks its build, its
# per-job verification or its pinned fingerprints must fail here first.
gate "benchmark: cargo test" \
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
gate "benchmark: run --smoke" \
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

if [[ ${#failed_gates[@]} -gt 0 ]]; then
    echo "==> ${#failed_gates[@]} gate(s) FAILED:" >&2
    printf '    %s\n' "${failed_gates[@]}" >&2
    exit 1
fi
echo "==> all gates green"
