#!/usr/bin/env bash
# Full local gate for drift-lab, as one command:
#
#   ./scripts/ci.sh
#
# Three steps stop the script at the first failure:
#
#   tier-1 (ROADMAP): release build + the root package's test suite
#   every workspace crate's tests, with floors on the number of test
#     binaries that reported and of tests they passed
#   clippy over the whole workspace, warnings are errors
#   (DRIFT_STRESS=1 adds the wide one-shot/streamed differential matrix
#   here and widens the two campaigns below)
#
# Everything after them runs through `gate`, which records a failing gate's
# name and goes on, so one red gate never hides the verdict of the ones
# behind it; the script ends with the number of gates run and the list of
# those that failed. The gates, in order:
#
#   bench check: engine | census | ingest | online
#       each kernel bench runs its body once and holds its own asserts:
#       census kernels >= 3x the reference walk (one process, one input),
#       both ingest shapes decode through the index to their source
#   stage shares            `lower` >= 1.5x `clc` items/s, one run of the
#                           POP example
#   collective cost         `clc` per event with allreduces <= 1.6x without,
#                           median of five alternating engine bench rounds
#   inlined accessors       `nm` lists no graph accessor and no CLC step
#   deleted names stay deleted | no hash map under the CLC |
#   one frame grammar | one CLC step
#       grep gates: deleted names stay deleted, the CLC and the pipeline
#       stay hash-free, the codec's grammar and the CLC arithmetic stay in
#       their one file
#   size ratchet            lines under crates/{core,tracefmt,syncd}/src
#                           against a ceiling that only goes down
#   simulation size ratchet the same over the simulation side's ten crates
#   capture, frame, reader, lane, consumer, CLC, presync, census,
#   simulator and job-path mutants
#                           scripts/mutants.sh: 44 one-line mutants of the
#                           trace capture, the frame grammar, the one
#                           stream reader and its record walker, the
#                           windowed ring lane, sweep, replay, finality
#                           frontier, walk stops and chunk consumer,
#                           the batch CLC, its walk and its moved-event set,
#                           Eq. 3's presync and its rounding, the p2p
#                           census bound, the classed collective census
#                           threshold, the simulator's message path and
#                           the service's job bookkeeping, each killed by
#                           its named tests
#   vopr campaign | netchaos campaign
#       seeded schedules against the stepped service, seeded connection
#       faults through the wire stack; a failing seed prints its repro
#   upload never sleeps on progress
#       five count-based reader tests, by name, in release
#   network smoke | service smoke
#       the two service examples, headless
#   experiments: the paper's claims
#       `experiments all` exits 0 (every claim it prints holds) and prints
#       crates/experiments/golden/all_seed2008.txt byte for byte; over
#       seeds 2008-2015 every claim holds on at least 7 of 8
#   benchmark: cargo test | run --smoke
#       the frozen end-to-end benchmark's own verdict: every job verified,
#       every seed-2008 pin equal
#   pairs smoke             scripts/pairs.sh builds, runs one A/A pair of
#                           one short workload and prints a row for every
#                           metric (a smoke test, not a measurement)
#
# What a gate compares is a count, a byte ratio, a grep, a text the
# program prints against the one checked in beside it, or two timings
# taken by one process in one run; none reads a number an earlier step
# stored, and none holds one process's wall time against another's. How
# fast a whole job runs is `benchmark/`'s to say (BENCHMARK.json), by
# alternating runs of two commits — not this script's.
#
# The script leaves the checkout as it found it: `git status --porcelain`
# is recorded first and compared last, also when run from a copy.
set -euo pipefail
cd "$(dirname "$0")/.."

# `test result:` lines `cargo test -q --workspace` printed when this floor
# was last set (one per test binary and doc-test target). Raise it when a
# PR adds a test target; a drop means a target silently stopped running.
# Last reset downwards when intra-job parallelism was deleted: one binary
# (`parallel_differential`) and the tests of the sharded stages, the replay
# CLC, its ring capacities and the worker-count axes went with their
# subject. Raised by 1 when one batch job's heap budget got a binary of
# its own (`tests/job_memory.rs`: a counting global allocator), and by 1
# when admission's charge was held against two jobs' peaks in another
# (`tests/admission_memory.rs`), and by 1 when the simulator's truth became
# an adversary of the lowering and the CLC (`tests/truth.rs`). Lowered by
# 1 when CPU detection alone came to choose the census kernel: the
# forced-scalar differential binary (`tests/columnar_differential_scalar.rs`)
# went with the environment override it set.
WORKSPACE_TEST_BINARIES_FLOOR=51
# Tests those binaries passed between them when the floor was last set.
# Last reset downwards when the trace tooling and the logical clocks left
# the shipped crates and POMP barriers became member rows: 33 tests went
# with their subjects — the unit tests of `tracefmt::{render, archive,
# profile, regions}` (20) and `clocksync::{lamport, vector}` (8), `mpisim`'s
# `wrapper_ids_match_the_tracefmt_registry`, the constraint-list tests of
# `DepGraph::try_from_edges` and `controlled_logical_clock_generic` (one
# each), `proptest_invariants::lamport_and_vector_conditions_hold` and
# `end_to_end::logical_clocks_agree_with_vector_clocks_on_simulated_traces`
# — and three came: the census's `i64`-edge unit test and property, and the
# POMP pin of a thread with a barrier exit but no enter. Raised when the
# capture became one scan: its byte budget (a binary of its own), the
# fallback-grouping and malformed-collective legs and two pins of the
# matcher's edges came. Lowered by 14 when `DTC3` became the only binary
# layout: 17 tests went — 14 `DTC2` tests whose `DTC3` twins stay, and the
# v2-vs-v3 decode comparison, the glued-version refusal at admission and
# at submit, whose subjects went — and 3 came: a dropped frame caught by
# the trailer, the decoder at every buffer alignment, and a `DTC2` magic
# refused alike by the three readers. Lowered by 7 when the simulator got
# one message path and its uncalled items left: 7 unit tests went with
# their subjects — `simclock::aging`'s five (`aging_integral_is_quadratic`,
# `aging_defeats_a_straight_line`, `steps_accumulate`,
# `backward_step_is_hidden_by_the_tracer_clamp`, `unsorted_steps_panic`),
# `clock::tests::reset_monotonicity_allows_lower_reads` and `mpisim`'s
# `subcommunicator_collectives`; the `same_clock` asserts now read
# `ideal_at`, in the test that held them. Five came: four simulator pins
# in `end_to_end` and the `experiments` argument parser's test. Raised by
# 2 when the windowed engine certified its μ = 1 pass per event: the
# finality check's order test and a read of a retired lane segment as a
# panic. Raised by 5 when the batch job's timestamp stages stopped paying
# for what does not change: the classed collective census against the
# reference and at its threshold, `round_ties_away` against `f64::round`
# on the hard cases and over arbitrary bit patterns, and the `pop_batch`
# job's heap budget (`cyclic_trace_leaves_the_columns_untouched` became
# `cyclic_trace_leaves_the_trace_untouched`, through the public driver).
# Raised by 2 when the census and the CLC graph came to share one message
# table: admission's charge against the peaks of a batch and a windowed
# job, and the graph's links resolving to the table's rows. Lowered by 9
# when a job came to run once and uncalled items left: 13 tests went with
# their subjects — `syncd::runtime`'s `real_runtime_sleep_advances_now`,
# `simsched::rt`'s `advance_to_is_monotonic` and `simclock::virt`'s
# `advance_to_is_a_monotonic_max` (nothing sleeps or advances to a wake
# time), `netsim::engine`'s four unit tests and its doc test (the event
# queue nothing ran), and `tracefmt`'s `set_time_and_snapshots`,
# `event_lookup_and_mutation`, `time_span`, `mnemonics_are_unique` and
# `flatten_trace_matches_slab_layout` — and four came: the version-4
# `JobConfig` layout refused as a unit test, a property and a session, and
# a poisoned stream failing on its only run over a socket
# (`step::tests::retry_parks_until_virtual_backoff_expires` became
# `a_poisoned_stream_fails_on_the_step_after_dispatch`). Lowered by 7 when
# the simulator came to return true time and the models of it left: 13
# tests went with their subjects — `tracefmt::diff`'s three unit tests and
# its doc test, `survey::predict`'s six, `predict_exp`'s two and
# `extensions::prediction_module_agrees_with_platform_parameters` — and six
# came: the simulator's truth per event, `TruthReport` on a fixture, a
# cancelled token before undecodable bytes in each stream driver, and
# `tests/truth.rs`'s feasibility adversary and CLC-against-truth property.
# Lowered by 10 when `experiments` became one campaign that checks the
# paper's claims: 13 tests went with their subjects — the domain-aware
# CLC's nine unit tests and its three integration tests
# (`domain_clc_reproduces_its_recorded_output`,
# `domain_clc_on_simulated_cluster_respects_chip_domains`,
# `domain_clc_keeps_constraints_and_never_moves_backward`), and the batch
# certificate's `an_unordered_moved_event_is_refused` (the certificate
# checks the span only) — and three came: Fig. 4's, Fig. 5's and Table
# II's claims on counterexamples beside their short runs, and the interval
# distortion's 1 µs floor. Lowered by 10 when each event of the CLC's
# graph came to have one constraint source: 12 tests went with their
# subjects — the OpenMP CLC lowering's seven unit tests
# (`pomp_clc_restores_all_rules`,
# `a_region_lowers_to_two_edges_and_one_member_row_per_thread`,
# `consistent_trace_untouched`, `repairs_a_simulated_openmp_run`,
# `a_thread_without_a_barrier_enter_keeps_its_region_on_stored_edges`,
# `rules_against_program_order_are_a_typed_cycle`,
# `i64_edge_timestamps_saturate`) and its three integration tests
# (`csr_differential::pomp_lowering_reproduces_the_recorded_walker_output`,
# `extensions::pomp_clc_fixes_a_full_openmp_benchmark_run`,
# `proptest_invariants::pomp_clc_always_restores_pomp_rules`), the
# forced-scalar binary's `streamed_ingest_is_bit_identical_on_scalar_kernels`
# and the wire scanner's `wanted_is_a_truthful_read_hint` — and two came:
# a collective and its p2p twin giving the same timestamps
# (`tests/proptest_csr.rs`), and the census kernels against an `i128`
# oracle on random lanes (`census.rs`).
WORKSPACE_TESTS_FLOOR=563

tree_before=$(git status --porcelain)
gates_run=0
failed_gates=()

# gate NAME COMMAND...: run one gate; on failure record NAME and continue.
# The command runs as an `if` condition, where `set -e` does not apply, so
# gate functions return non-zero explicitly.
gate() {
    local name=$1
    shift
    gates_run=$((gates_run + 1))
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
    # The one-shot/streamed differential matrix widens itself under
    # DRIFT_STRESS=1 (adds a 6000-message trace size).
    echo "==> stress: differential matrix (wide, DRIFT_STRESS=1)"
    cargo test -q --test columnar_differential
else
    echo "==> stress: skipped (set DRIFT_STRESS=1 to run the wide matrix)"
fi

gate "bench check: engine" cargo bench -p bench --bench engine -- --test
gate "bench check: census" cargo bench -p bench --bench census -- --test
gate "bench check: ingest" cargo bench -p bench --bench ingest -- --test
gate "bench check: online" cargo bench -p bench --bench online -- --test

# Stage-share gate: on the POP example (32 ranks, 600 allreduces — 98 % of
# its 608 000 constraints are collective) `lower` must run at >= 1.5x the
# event rate of `clc`. Both rows come from one run on one host, so the
# ratio is machine-independent: `lower` ran at 12.5 M items/s while it
# expanded every allreduce into its 32 x 31 logical edges and runs at
# 40-65 M items/s with collectives lowered as member rows; `clc` ran at
# 5-7 M items/s while it evaluated those edges one by one, at 12-18 M
# items/s evaluating each allreduce once, and at 15-18 M items/s since it
# certifies its mu = 1 re-sweep instead of running it (one-shot runs on a
# loaded 2-vCPU host, `lower` at 38-50 M) — a ratio of 2.4-3x then. Since
# the CLC copies no slab (a 1-bit moved set and a snapshot of the
# constraint consumers only) `clc` runs at 24-33 M items/s and the ratio
# reads 1.85-2.0x in three runs here; the threshold is unchanged, and
# `lower` re-expanding would read 0.5x. The rate is the fourth field of a stage
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
# host, so the ratio is machine-independent). An allreduce end is bounded
# by 31 begins: evaluated edge by edge the program with allreduces cost
# 2.0-2.5x per event of its halo exchange alone (three alternating runs at
# the parent of the aggregated evaluation), evaluated once per instance
# 0.9-1.3x. Once the closing mu = 1 pass stopped running, both programs
# got faster and the ratio read 1.3-1.5x, and a single run crossed 1.6x
# about one time in six. So the gate takes five rounds, each timing the
# two programs in their own bench process and in alternating order
# (arXiv:1505.07734), and holds the median ratio to the threshold, which
# sits where it was; it prints every round's ratio and the quartiles.
clc_collective_gate() {
    local round name out rate with without ratios=() q1 median q3
    for round in 1 2 3 4 5; do
        local order=(pop_allreduce pop_halo_only)
        ((round % 2)) || order=(pop_halo_only pop_allreduce)
        for name in "${order[@]}"; do
            out=$(cargo bench -q -p bench --bench engine -- "clc/${name}") || return 1
            rate=$(awk -v row="clc/${name}" '$1 == row { print $(NF - 1) }' <<<"$out")
            if [[ -z "$rate" ]]; then
                echo "collective-cost gate: no clc/${name} row in the engine bench's output" >&2
                return 1
            fi
            if [[ "$name" == pop_allreduce ]]; then with=$rate; else without=$rate; fi
        done
        ratios+=("$(awk -v w="$with" -v o="$without" 'BEGIN { printf "%.3f", o / w }')")
    done
    read -r q1 median q3 < <(printf '%s\n' "${ratios[@]}" | sort -g | awk 'NR >= 2 && NR <= 4' | xargs)
    echo "    halo-only / allreduce events/s by round: ${ratios[*]}"
    echo "    median ${median}x, quartiles ${q1}x-${q3}x (threshold 1.6x)"
    if ! awk -v m="$median" 'BEGIN { exit !(m <= 1.6) }'; then
        echo "collective-cost gate: an event costs the clc stage ${median}x as much with allreduces (median of 5), over 1.6x" >&2
        return 1
    fi
}
gate "collective cost: clc/pop_allreduce vs clc/pop_halo_only" clc_collective_gate

# Inlining gate: the per-edge accessors of the dependency graph (`in_of`,
# `out_of`, the per-event `link` and the receive's `stored_in`, and the
# `Link` word's tests) and the
# shared CLC step must stay inlined into the CLC kernels. The windowed loops
# are large, so an accessor that grows is outlined silently, which cost the
# message-only `stream_windowed` workload 10-15 % when it happened (PR 15);
# the step, the walk, the backward caps' bound accessor (`CollPass::latest`;
# the fold behind it is outlined) and their snapshot read
# (`Snapshot::at`), the moved-event mark (`Moved::mark`, and the walks'
# marking `Timeline`), the sweep's `step` / `advance`, the input check
# of the sweep and the replay (`Source::fill`; the block decode behind it
# is outlined on purpose), the replay step and the finality frontier of the windowed
# apply (`Apply::replay`, `Apply::settle`), the per-edge
# `DepGraph::locate` of the sweep and the walks, and the windowed lane's
# ring accessors (`slot`, `push`, `push_slices`, `slices`, the frontiers'
# `first_above`; only its resize path is outlined on purpose) are
# `inline(always)` for the same reason. So is
# the capture's per-record path: `Capture::feed`, its one message path
# `Capture::message`, and the record walker (`walk_records`,
# `Record::kind`) that batch decode and the streamed capture share; an
# outlined `feed` cost ~0.15 ms of a 0.8 ms churn capture.
# Outlined, they would show up as symbols of their own: in `pop_correction`
# (the batch kernel) or in `net_service` (the one example that runs the
# windowed engine).
inlining_gate() {
    local example syms
    command -v nm >/dev/null || { echo "    (no nm on this host: skipped)"; return 0; }
    for example in pop_correction net_service; do
        cargo build --release -q --example "$example" || return 1
        syms=$(nm -C "target/release/examples/${example}" | grep -E \
            'DepGraph::(in_of|out_of|link|stored_in|locate)|graph::Link::|EdgeIter.*::next|CollPass::latest|graph::Snapshot::at|columnar::Moved::mark|columnar::(forward_step|candidate|backward_walk|latest_allowed)|Sweep.*::(step|advance)|windowed::Apply.*::(replay|settle)|windowed::Source.*::fill|Timeline.*::[gs]et|windowed::Lane::(slot|push|slices|first_above)|analysis::Capture::(feed|message)$|segment::(walk_records|Record::kind)' || true)
        if [[ -n "$syms" ]]; then
            echo "inlining gate: outlined in ${example}:" >&2
            echo "$syms" >&2
            return 1
        fi
    done
}
gate "inlined graph accessors and CLC step: nm pop_correction, net_service" inlining_gate

# Deleted names stay deleted: a job is single-threaded (DESIGN §9), so no
# name its parallel paths went by; one service tier (DESIGN §16.5), so none
# of the in-process router's; none of the trace tooling's (time-line
# rendering, archives, composition profiles, the region-name registry) or
# the logical clocks' (ROADMAP item 7); and no second way into the CLC's
# dependency graph beside its one lowering (DESIGN §11.1). The map-based
# walker's names live on only as the tests' oracle, under tests/common/.
# One scan captures messages and collectives (DESIGN §9.1): none of the
# two-pass capture's streaming faces or its rank table. One binary layout
# (DESIGN §14.3): none of the second layout's encoders, version enum,
# glued-version error or the service's refusal path and version echo. One
# message path in the simulator (DESIGN §7): none of the clock models
# nothing ran (crystal aging, stepped clocks), the Allan curve, the sleep
# op that was a compute, or the run options only their own tests set.
# One stream reader (DESIGN §14.3): none of the push decoder's names, and
# none of clocksync's items nothing called (slack diagnostics, the
# regression map, the probe error bound). Four drivers (DESIGN §12): none
# of the cancellable twins the one cancellable driver per engine replaced,
# no trace job or its rollback snapshot in the service (it takes bytes), no
# interpolation-only method beside `clc: None`, no text codec, no unsafe
# cast of timestamp bytes. One cross-timeline sweep in the windowed engine
# (DESIGN §15.3): none of the second forward sweep's in-edge arming, the
# discovery-only driver or the μ = 1 re-sweep lanes. Windowed walks check
# their own consumers (DESIGN §15.3): none of the apply's out-edge scan or
# its prefix frontier, the per-event input decoder driven to an index, or
# the emitter's second decode that counted moved events. The CLC ends with its
# walks (DESIGN §11.1): none of the closing μ = 1 pass's certificates
# (`sweep_leaves`, `certified`), its per-event step (`restep`) or its
# stage row. `clocksync` ships what
# a synchronizer runs: none of the §V survey's old paths (the baselines,
# `predict`, the domain-aware CLC, piecewise interpolation, the line fit),
# anchored so that their new home, `experiments::survey`, does not match.
# One link word per event (DESIGN §11.1): none of the graph's per-event
# offset arrays, its member-slot word or the lowering's list of message
# edges, anchored as words. A job runs once (DESIGN §12): none of the retry
# budget's knobs, the backoff step and its parked executor phase, the
# wake-time query or the retry counter. None of the simulator's event queue
# nothing ran, or the tracefmt items only their own tests called. The
# simulator returns true time (DESIGN §7): none of the trace diff that
# scored corrections against the raw trace, or the residual model and its
# experiment that predicted Eq. 3's error. No clock-domain-aware CLC: truth
# showed it moving events away from their true times (ROADMAP item 12 fits
# offsets per rank instead). One constraint source per event (DESIGN
# §11.1): none of the OpenMP CLC lowering, its link flag or its stored-edge
# accessors. CPU detection alone picks the census kernel: no environment
# override. None of the wire scanner's uncalled read hint. One capture
# fills the message table row by row (DESIGN §9.1): none of the zipped
# record view, the table collected from an iterator of event ids, or the
# streamed capture's second home in the windowed engine. One record walker
# (DESIGN §9.1): none of the per-block kind vector's decoder, the
# kind-per-record callback or the field-splitting kind decoder.
deleted_names_gate() {
    local hits
    hits=$(
        grep -rnE 'ParallelConfig|WireParallel|pool_workers|use_replay|run_sharded|JobRouter|RouterConfig|steal_back|render_timeline|RenderOptions|read_archive|write_archive|ArchiveError|TraceProfile|KindCounts|RegionRegistry|lamport_timestamps|satisfies_lamport_condition|vector_timestamps|VectorStamp|stamp_events|controlled_logical_clock_generic|try_from_edges|MessageMatcher|CollectiveScanner|CollCall|group_calls_by_comm|assemble_collective_instances|RankIds|ColumnarVersion|MixedVersions|to_binary_columnar_blocked|MalformedStream|RejectedMalformed|input_version|to_binary_columnar\(|AgingDrift|SteppedClock|adev_curve|MpiOp::Sleep|tracing_initially|extra_comms|StreamDecoder|TraceBuilder|feed_into|finish_parts|message_slacks|slack_stats|SlackStats|required_accuracy|RegressionInterpolation|error_bound|synchronize_with_cancel|synchronize_stream_with_cancel|synchronize_stream_incremental_with_cancel|JobInput::Trace|snapshot_times|restore_times|SyncMethod::Interp|to_text|from_text|copy_i64_from_le_bytes|as_i64_slice_le|arm_in_edges|discover_walks|refwd|ingest_block|rwalk|decode_to|Apply::scan|count_moved|sweep_leaves|certified|restep|clc:resweep' \
            crates src tests examples
        grep -rnE 'deps_from_parts|extract_deps' crates src examples
        grep -rnwE 'in_offsets|out_offsets|coll_slot|triples' crates src tests examples
        grep -rnE '\bclocksync::(baselines|predict|AffineMap|Corridor|PiecewiseInterpolation)\b|\bclc::domains\b|\btracefmt::fit_line\b' \
            crates src tests examples
        grep -rnE 'max_retries|retry_backoff|with_max_retries|RunStep::Backoff|BackoffStarted|ExecPhase::Parked|StepEvent::Parked|next_wake|Counter::Retried|jobs_retried_total|EventQueue|flatten_trace|to_time_vecs|check_pomp_at' \
            crates src tests examples
        grep -rnE 'diff_traces|TraceDiff|ProcDiff|DiffError|predict_exp|WanderModel|safe_run_length' \
            crates src tests examples
        grep -rnE 'controlled_logical_clock_with_domains|domain_misalignment' crates src tests examples
        grep -rnE 'controlled_logical_clock_pomp|pomp_constraints|is_ruled|rules_in|rules_out|TRACEFMT_NO_AVX2|HELLO_SIZE_HINT' \
            crates src tests examples
        grep -rnE 'capture_streamed|TraceAnalysis::capture_stream|\bZipped\b|into_matching|MessageTable::collect' \
            crates src tests examples
        grep -rnE 'decode_block_kinds|for_each_kind|kind_from_fields' crates src tests examples
    ) || true
    if [[ -n "$hits" ]]; then
        echo "deleted names are back:" >&2
        echo "$hits" >&2
        return 1
    fi
}
gate "deleted names stay deleted" deleted_names_gate

# One CLC walker (the CSR kernel; DESIGN §11): no hash map under the CLC or
# the pipeline.
gate "no hash map under the CLC or the pipeline" bash -c \
    "! grep -rn HashMap crates/core/src/clc crates/core/src/pipeline"

# One frame grammar (DESIGN §14): the magic, the header checks, the pad,
# the trailer and the after-trailer rule live in one private file of
# `tracefmt::io`, every reader and writer goes through it, and no shipped
# source reads a stream's first bytes itself.
one_frame_grammar_gate() {
    local owners sniffers
    owners=$(grep -rlE 'frame_pad|check_block_header|MAGIC_COLUMNAR' crates)
    sniffers=$(grep -rlE 'b"DT[CL]' crates/*/src || true)
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
# The public-item counts are reported beside it, not gated. Raised by 34
# (from 17 944) when the capture became one scan: the (from, to) bucket
# grouping rides beside the two counting passes it falls back to, kept
# because it measured 1.18x on online_churn's events/s against the passes
# alone, and the collective checks the scan added (a CollEnd's op, every
# member's root). Lowered from 17 978 when `DTC3` became the only layout.
# Raised by 150 (from 17 472) when the windowed lanes became rings: the
# ring's two-piece slices, its grow/shrink policy and its model test
# outweigh the segment deque they replace; measured 1.17-1.19x on
# stream_windowed's events/s. Raised by 123 (from 17 622) when the batch
# CLC certified its mu = 1 re-sweep instead of running it and capped
# classed collective begins from one fold per instance: the certificate,
# the backward half of the fold and two unit tests that need the crate's
# private items; measured 1.15x (seed 2008) and 1.25x (seed 7) on
# pop_batch's events/s, 9/10 pairs each. Lowered from 17 745 when the
# header index became the one way into a stream's bodies: the push decoder
# and its trace builder, the column concatenation, and clocksync's
# uncalled slack diagnostics, regression map and probe error bound went.
# Lowered from 17 338 when the drivers went from seven to four and the
# service took bytes only: the cancellable twins, the trace job and its
# rollback snapshot, the interpolation-only method, the text codec and
# the unsafe timestamp cast went. Raised by 290 (from 17 038) when the
# windowed engine went to one cross-timeline sweep: the replay with its
# demand-paced schedule, the per-event finality check and the μ = 1 step
# for what it refuses, the emission's moved-event count from re-decoded
# input, and three unit tests (the refused-event traces, the check's order
# test, a read of a retired segment) outweigh the second forward sweep and
# the re-sweep lanes they replace; measured 1.3x on stream_windowed's
# events/s at seeds 2008 and 7. Lowered from 17 328 when the §V survey
# code (the baselines, `predict`, the domain-aware CLC, piecewise
# interpolation, the line fit) moved to `experiments::survey`. Raised by
# 241 (from 15 515) when the batch job's timestamp stages stopped paying
# for what does not change: the classed N-to-N census bound (+156 in
# census.rs, 107 of them its two reference tests and their fixtures), and
# the CLC's moved-event set, marking timeline and consumer snapshot in
# place of its two full-slab copies (+85 in clc/, net of the `commit`
# helper and the POMP driver's own pass, which went); measured 1.33x
# (seed 2008) and 1.23x (seed 7) on pop_batch's events/s, 10/10 pairs each.
# Raised by 339 (from 15 756) when the census and the CLC graph came to
# share one message table and the graph to keep one link word per event:
# the `MessageTable` with its accessors and the census's shared shape
# helpers (+85 in census.rs, net of the check lane; the collective table
# uses them, -11 in coll.rs), the link word, the POMP edges' CSR over the
# events they link and a unit test (+155 in graph.rs, net of the per-event
# CSR and its counting sort), and the capture's table-filling finish and
# chunked call column (+103 in analysis.rs); measured 1.19x (seed 2008)
# and 1.17x (seed 7) on pop_batch's events/s, 10/10 pairs each. Lowered
# from 16 095 when a job came to run once: the retry budget, the backoff
# step, the parked executor phase, the runtime's sleep and the retry
# counter left `syncd` (-190), and `tracefmt` items only their own tests
# called (`TraceColumns::{to_time_vecs, set_time, is_locally_monotone}`,
# `Trace::{event_mut, time_span}`, `CensusPlan::flatten_trace`,
# `EventKind::{mnemonic, is_collective}`, the reports' `violation_pct`,
# `check_pomp_at`) left with their tests (-157). Lowered from 15 747 when
# the simulator came to return true time: `tracefmt::diff` left (-211 with
# its re-exports), and so did the service's dispatch-time cancel and
# deadline checks (-13), net of a unit test per stream driver pinning the
# cancel check before the decoder (+24). Lowered from 15 547 when the
# windowed engine came to decide its mu = 1 pass once and to retire F by
# time: its code grew by 35 lines (the decision, the time frontier and
# its latency margin, net of the clamp-read counters and the doubling
# reach), and three of its unit tests that only call the public entry
# point (a zero window, an empty stream, a local cycle) moved into
# tests/windowed_differential.rs as one (-62); measured 1.41x (seed 2008)
# and 1.35x (seed 7) on stream_windowed's events/s, 10/10 pairs each.
# Lowered from 15 521 when the batch CLC's mu = 1 certificate came to
# decide from each timeline's span alone, as the windowed engine does: its
# order and consumer-cap checks, which `backward_walk` keeps by
# construction, left with their unit test and the walk's return value.
# Lowered from 15 485 when the CLC came to end with its walks: the closing
# mu = 1 pass left both engines — the batch certificate and second forward
# pass, the windowed decision, per-event certificate, step and finality
# reads — with the finality check's unit test. Lowered from 15 323 when
# each event of the CLC's graph came to have one constraint source: the
# OpenMP CLC lowering left with its unit tests (-318 in clc/pomp.rs), and
# with it the graph's stored-edge CSR, link flag and fallthroughs (-143 in
# graph.rs); `CancelToken`'s deadline left for the probe that already
# carries one (-11); the census kernel stopped reading an environment
# override, net of its random-lane oracle property (+49). Lowered from
# 14 888 to 14 884 when one record walker came to serve batch decode and the
# streamed capture: the per-block kind decoder, the kind-per-record
# callback and the field-splitting decoder left, and the wire's code
# tables became one (-41 in io/segment.rs), net of the capture's one
# message path and its stream-order error (+15 in analysis.rs) and of the
# sweep's skip and the slice replay (+22 in windowed.rs, net of its
# emitter's consumer checks and the report's empty censuses, shortened).
# Lowered to 14 824 when windowed walks came to check their own consumers:
# the apply's out-edge scan and prefix frontier, the emitter's second
# decode and its count left, and both windowed passes decode their input
# through one `Source::fill`, net of the walk's resume point and its unit
# test.
SRC_LINES_CEILING=14824
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

# The simulation side's ratchet (ROADMAP item 14): the same rule over the
# ten crates that simulate, measure and drive — lower it to the printed
# count whenever a PR shrinks them. Set at 16 420 lines (from 16 891) when
# `mpisim::run` got one send path, one receive completion and one record
# site, and the simulation side's uncalled public items left. Lowered to
# 16 418 when `syncd-wire`'s docs stopped citing the push decoder, and to
# 16 410 when the campaigns' trace jobs became stream jobs and the io
# bench's text rows left with the text codec. Raised by 1 810 (from
# 16 410) when the §V survey code moved out of `clocksync` and `tracefmt`
# into `experiments::survey` with its tests: the size ratchet above fell by
# 1 813 in the same change (what moved, plus re-exports, crate docs and the
# domain-aware CLC's private-kernel plumbing), so the two together fell by
# 3 — the survey's docs got shorter, and its domain tests carry their own
# copy of a cyclic fixture `clocksync` keeps private. Raised by 57 (from
# 18 220) when `simclock::round_ties_away` took Eq. 3's rounding off libm:
# its tests against `f64::round` (the hard-case table shared with
# `Dur::scale`'s, and a property over arbitrary bit patterns). Lowered
# from 18 277 when a job came to run once: `netsim`'s event queue, which
# nothing ran (-157), `simsched`'s retry knobs, backoff observation and
# wake-time drain (-88), `VirtualClock::advance_to` (-21) and the wire's
# retry budget and attempt count (-5 net of the version-4 refusal test);
# `syncdctl` grew by 2 to send interpolation as method 1 without a CLC.
# Lowered from 18 008 when the simulator came to return true time: the
# residual model (`survey::predict`) and its experiment left (-363), net of
# the truth the simulator and the churn generator keep, `TruthReport` with
# its test and the §V survey's truth columns, net of the distortion code
# the survey and the μ ablation no longer carry (+174). Lowered from
# 17 819 when `experiments` became one campaign: `--fast` and its scale
# pairs, `RunLength::scaled`, the §V wall-time column and the domain-aware
# CLC (-391 with its tests) left, net of one claim function per section
# and a test of each on a counterexample. Lowered from 17 567 when the
# wire scanner's uncalled read hint, boundary query and Hello size hint
# left with the hint's unit test (-27).
SIM_LINES_CEILING=17540
SIM_CRATES=(bench experiments mpisim netsim onlinesync simclock simsched syncd-client syncd-wire workloads)
sim_size_ratchet_gate() {
    local lines crate
    lines=$(for crate in "${SIM_CRATES[@]}"; do find "crates/${crate}/src" -name '*.rs' -print0; done |
        xargs -0 cat | wc -l)
    echo "    simulation crates' src: ${lines} lines (ceiling ${SIM_LINES_CEILING})"
    for crate in "${SIM_CRATES[@]}"; do
        echo "    crates/${crate}/src public items: $(grep -rhE '^\s*pub (fn|struct|enum|type|const|trait) ' "crates/${crate}/src" | wc -l)"
    done
    if [[ "$lines" -gt "$SIM_LINES_CEILING" ]]; then
        echo "simulation size ratchet: ${lines} lines, ceiling is ${SIM_LINES_CEILING}" >&2
        return 1
    fi
}
gate "size ratchet: simulation crates" sim_size_ratchet_gate

# Capture, frame, reader, lane, consumer, CLC, presync, census, simulator
# and job-path mutants (ROADMAP item 9): every one of the 44 one-line
# mutants in scripts/mutants.sh — of the trace capture:
# unstable grouping, the positional zip without its tag check, an unknown
# peer taken for rank 0, the root and end-op checks skipped, either
# grouping path dropping the side bit, the message table keeping the rows
# of unmatched receives, a pair's l_min read for (to, from); of the frame
# grammar: trailer counters or header ids unchecked, timestamp segments
# unpadded; of the one
# stream reader: every block decoded to the start of its timeline, a
# cross-chunk read that keeps the first chunk's offset, a record walker
# that swaps sends and receives, a streamed capture that feeds a block one
# index late; of the windowed
# ring lane: a slice split one short of the ring's end, a segment retired
# while it owes a read; of the simulator: the send path without its
# non-overtaking clamp, the receive completion without the send overhead,
# a resumed call recording its Enter twice; of the batch CLC: the class
# fold without its own-position exclusion, a remote bound equal to the
# candidate taken as a jump, a backward walk without its successor's shift
# or without its consumers' cap (the two properties the CLC's output rests
# on now that no closing pass follows the walks; both die on the
# reference's postcondition assertion, applied to the library's output), a
# walk's window start 1 ps late, a backward walk that does not mark what
# it raises in the moved-event set, a stopped walk resumed one event low;
# of Eq. 3's presync: an offset added
# without saturating, and the rounding behind it by a plain + 0.5; of the
# census: the p2p bound's `l_min` with its sign flipped, the classed
# collective threshold 1 ps loose; of the windowed driver: a consumer's
# refusal ignored, the sweep skipping a timeline whose producer is ready
# (a stall it reports as a cycle), the replay ignoring a recorded jump,
# the finality frontier reaching a walk's break element (a debug build's
# read of a retired segment), a walk reading the F of a consumer not yet
# replayed (a debug build's read past the lane's end), the sweep not
# marking what it raises; of the graph's links: every collective end linked to
# its instance's first member row, a receive linked as a send, a message
# edge without the message table's l_min; of the service's job path: a
# finished job's budget charge never released, a failed job counted as
# completed, a caught panic not counted — must turn its named tests red in
# a copy of the checkout.
gate "capture, frame, reader, lane, consumer, CLC, presync, census, simulator and job-path mutants: scripts/mutants.sh" ./scripts/mutants.sh

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

# Read-granularity gate: a connection backs off only after a read on which
# the transport had nothing (`NetIdleSleeps <= NetIdleReads`), never after
# one that consumed bytes without completing a frame — which once capped
# ingest at 64 KiB per 0.55 ms. Counts, so it holds on any host: the
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
# exactly one failed job (the poisoned one, on its only run), zero panics
# escaping an executor.
service_smoke_gate() {
    local smoke_out failed crashes
    smoke_out=$(cargo run --release --example sync_service) || return 1
    failed=$(sed -n 's/^syncd_jobs_failed_total \([0-9]*\)$/\1/p' <<<"$smoke_out")
    crashes=$(sed -n 's/^syncd_service_crashes_total \([0-9]*\)$/\1/p' <<<"$smoke_out")
    echo "    failed=${failed:-?} crashes=${crashes:-?}"
    if [[ -z "$failed" || -z "$crashes" || "$failed" -ne 1 || "$crashes" -ne 0 ]]; then
        echo "service smoke: expected 1 failed job and 0 service crashes" >&2
        printf '%s\n' "$smoke_out" >&2
        return 1
    fi
}
gate "service smoke: sync_service example" service_smoke_gate

# The paper's claims (ROADMAP item 1). `experiments all` runs the paper's
# durations, prints one `claim <id>: holds|FAILS` line per claim and exits 1
# if one fails; at seed 2008 it must exit 0 and print the golden text byte
# for byte (so no section is printed twice and no column goes missing).
# After a change that moves the output on purpose, refresh the golden by
# redirecting the binary's output,
#   cargo run --release -q -p experiments -- all > crates/experiments/golden/all_seed2008.txt
# and say in CHANGES.md what moved. A claim is judged across seeds, not on
# one run (arXiv:1505.07734): over seeds 2008-2015 (2008 is the golden run)
# each claim's pass count is printed, and one that holds on fewer than 7
# of the 8 fails the gate.
experiments_gate() {
    local golden=crates/experiments/golden/all_seed2008.txt out seed code claims
    out=$(cargo run --release -q -p experiments -- all) || {
        echo "experiments all: exit $? (1: a claim fails)" >&2
        grep '^claim .*: FAILS' <<<"$out" >&2
        return 1
    }
    if ! diff <(printf '%s\n' "$out") "$golden" >&2; then
        echo "experiments all: output differs from ${golden} (diff above)" >&2
        return 1
    fi
    claims=$(grep '^claim ' <<<"$out")$'\n'
    for seed in 2009 2010 2011 2012 2013 2014 2015; do
        out=$(target/release/experiments all --seed "$seed") && code=0 || code=$?
        if [[ "$code" -gt 1 ]]; then
            echo "experiments all --seed ${seed}: exit ${code}" >&2
            return 1
        fi
        claims+=$(grep '^claim ' <<<"$out")$'\n'
    done
    awk 'NF { id = $2; sub(/:$/, "", id); if (!(id in n)) order[++k] = id; n[id]++; ok[id] += ($3 == "holds") }
        END {
            for (i = 1; i <= k; i++) {
                id = order[i]
                printf "    claim %-13s holds on %d of %d seeds\n", id, ok[id], n[id]
                if (ok[id] < 7) bad = 1
            }
            exit bad
        }' <<<"$claims"
}
gate "experiments: the paper's claims" experiments_gate

# The frozen benchmark (benchmark/, its own package and lock file) is the
# judge of every perf PR; a library change that breaks its build, its
# per-job verification or its pinned fingerprints must fail here first.
gate "benchmark: cargo test" \
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
gate "benchmark: run --smoke" \
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

# Parent/change pairs (ROADMAP item 23), the way every perf claim is
# judged: one A/A pair of one second per seed only checks that the script
# builds, runs and parses; a verdict from one pair says nothing.
pairs_smoke_gate() {
    local out rows
    out=$(./scripts/pairs.sh --aa --pairs 1 --seconds 1 --workload pop_batch 2>&1) || {
        printf '%s\n' "$out" >&2
        return 1
    }
    rows=$(grep -cE '^  (events_per_s|setup_s|job_s_p50|job_s_p95|peak_rss_mb) +parent .* wins [01]/1 ' <<<"$out" || true)
    if [[ "$rows" -ne 10 || $(grep -c 'failed runs parent 0 change 0' <<<"$out") -ne 2 ]]; then
        printf '%s\n' "$out" >&2
        echo "pairs smoke: ${rows} of 10 metric rows, or a run failed" >&2
        return 1
    fi
}
gate "pairs smoke: scripts/pairs.sh --aa" pairs_smoke_gate

echo "==> ${gates_run} gates run"
if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
    echo "the run changed the working tree:" >&2
    diff <(printf '%s\n' "$tree_before") <(git status --porcelain) >&2 || true
    failed_gates+=("working tree left as found")
fi
if [[ ${#failed_gates[@]} -gt 0 ]]; then
    echo "==> ${#failed_gates[@]} gate(s) FAILED:" >&2
    printf '    %s\n' "${failed_gates[@]}" >&2
    exit 1
fi
echo "==> all gates green"
