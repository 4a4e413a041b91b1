#!/usr/bin/env bash
# Mutation-kill gate for the trace capture, the frame grammar, the one
# stream reader, the windowed engine's ring lanes, replay, μ = 1 decision,
# finality check and chunk consumer, the batch CLC, its walk constructor, its moved-event
# set and its graph's links (message and collective), Eq. 3's presync and
# the rounding behind it, the p2p census bound, the classed collective
# census threshold, the simulator's message path and the service's job
# path — a job's terminal bookkeeping in `syncd` (ROADMAP item 9):
#
#   ./scripts/mutants.sh
#
# Each mutant changes one line of one source file in a fresh `cp -a` copy
# of the checkout and must turn every test named beside it red; the
# unmutated copy passes every named test first, so a red test is the
# mutant's doing. A mutant that survives is a finding: add the test that
# kills it. One row per mutant; the script fails if any survives.
#
# The copy lives at one path (target/mutants/tree) and builds into one
# target directory (target/mutants/target), so a run after the first
# rebuilds only the mutated crate and what depends on it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
work="$root/target/mutants"
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

# Five lines per mutant, a blank line between: what it breaks, the file it
# edits, the line as it stands (indentation aside), the mutant's line, and
# the tests that must fail, space-separated (`crate::path` for a unit test,
# `tests/<file>.rs::<name>` otherwise).
mutants=$(cat <<'EOF'
unstable grouping: equal keys come out reversed
crates/tracefmt/src/analysis.rs
for i in items.rev() {
for i in items {
tests/proptest_matching.rs::a_pair_leaves_its_latest_sends_unmatched

positional zip without its tag-agreement check
crates/tracefmt/src/analysis.rs
if s.iter().zip(r.iter()).any(|(&s, &r)| tag(msgs, s) != tag(msgs, r)) {
if false {
tests/proptest_matching.rs::tags_reordered_inside_a_pair_match_per_tag_fifo

a peer no timeline carries is rank id 0
crates/tracefmt/src/analysis.rs
id.map_or(NOBODY, |id| id as u32)
id.map_or(0, |id| id as u32)
tests/proptest_matching.rs::peers_no_timeline_carries_stay_unmatched

members naming different roots are accepted
crates/tracefmt/src/analysis.rs
if call.root != root {
if false {
tests/proptest_matching.rs::malformed_collectives_fail_alike_batch_and_streamed

a CollEnd of another op is accepted
crates/tracefmt/src/analysis.rs
if op != call.op {
if false {
tests/proptest_matching.rs::malformed_collectives_fail_alike_batch_and_streamed

bucket grouping drops the side bit
crates/tracefmt/src/analysis.rs
let key = (from * u + to) << 1 | side;
let key = (from * u + to) << 1;
tests/proptest_matching.rs::sort_based_matching_equals_the_fifo_oracle

fallback grouping drops the side bit
crates/tracefmt/src/analysis.rs
let by_to = |k| pair_of(rec(k), own).1 as usize * 2 + usize::from(rec(k).is_recv());
let by_to = |k| pair_of(rec(k), own).1 as usize * 2;
tests/proptest_matching.rs::wide_traces_match_the_oracle_through_the_fallback_grouping

trailer counters unchecked
crates/tracefmt/src/io/frame.rs
if n_events != self.events as u32 || payload_len != self.blocks as u32 {
if false {
tracefmt::io::tests::a_dropped_frame_is_caught_by_the_trailer_counters

header rank and thread ids unchecked
crates/tracefmt/src/io/frame.rs
if rank > MAX_LOCATION_ID || thread > MAX_LOCATION_ID {
if false {
tracefmt::io::tests::rejects_corrupt_rank_and_oversized_headers

timestamp segments unpadded
crates/tracefmt/src/io/frame.rs
((8 - (frame_start + HEADER_BYTES as u64) % 8) % 8) as usize
0
tracefmt::io::tests::encoder_output_is_byte_stable tracefmt::io::frame::tests::timestamp_segments_are_8_aligned

every block decoded to its timeline's start
crates/tracefmt/src/io/decode.rs
let first = block.first_idx as usize;
let first = 0;
tracefmt::io::tests::round_trip_various_block_sizes

cross-chunk read keeps the first chunk's offset
crates/tracefmt/src/io/index.rs
in_off = 0;
// in_off = 0;
tracefmt::io::tests::decodes_identically_at_any_chunk_size

lane slice split one short of the ring's end
crates/core/src/pipeline/windowed.rs
let first = n.min(tail.len());
let first = n.min(tail.len() - 1);
clocksync::pipeline::windowed::tests::ring_lane_matches_a_vec_model tests/windowed_differential.rs::windowed_engine_differential_matrix

lane retires a segment that owes a read
crates/core/src/pipeline/windowed.rs
while head + self.w <= upto && self.reads.front().is_none_or(|&pending| pending == 0) {
while head + self.w <= upto {
clocksync::pipeline::windowed::tests::ring_lane_matches_a_vec_model tests/windowed_differential.rs::windowed_engine_differential_matrix

send path without the non-overtaking clamp
crates/mpisim/src/runtime.rs
*clamp = (depart + transfer).max(*clamp);
*clamp = depart + transfer;
mpisim::runtime::tests::non_overtaking_holds_under_jitter

receive completion without the send overhead
crates/mpisim/src/runtime.rs
st.now = st.now.max(arrival) + self.cluster.latency.send_overhead;
st.now = st.now.max(arrival);
tests/end_to_end.rs::simulator_pin_pingpong_unwrapped tests/end_to_end.rs::simulator_pin_nonblocking_mix

a resumed blocked call records its Enter again
crates/mpisim/src/runtime.rs
if self.wrap && !self.states[rank].entered_call {
if self.wrap {
tests/end_to_end.rs::simulator_pin_nonblocking_mix tests/end_to_end.rs::simulator_pin_pop_wrapped

certificate without its span check
crates/core/src/clc/columnar.rs
last.checked_sub(*first).is_some_and(|span| span < 1 << 52)
true
tests/csr_differential.rs::a_gap_the_sweep_rounds_is_refused_by_the_certificate tests/proptest_csr.rs::certified_clc_equals_the_always_sweeping_reference

class fold without its own-position exclusion
crates/core/src/clc/graph.rs
let own = self.top[c].without(pos).map(|v| v.saturating_add(lat(c, c)));
let own = self.top[c].first.map(|(v, _)| v.saturating_add(lat(c, c)));
clocksync::clc::columnar::tests::aggregated_ends_equal_the_view_walk tests/csr_differential.rs::aggregated_begin_caps_equal_the_reference

a remote bound at the candidate taken as a jump
crates/core/src/clc/columnar.rs
Some(r) if r > candidate => {
Some(r) if r >= candidate => {
tests/csr_differential.rs::a_tie_is_not_a_jump

Eq. 3 presync adds its offset without saturating
crates/core/src/interp.rs
t.saturating_add(self.offset_at(t))
t + self.offset_at(t)
tests/proptest_invariants.rs::presync_saturates_at_the_i64_edges

p2p census bound with its l_min sign flipped
crates/tracefmt/src/census.rs
self.lat.push(l_min.as_ps());
self.lat.push(-l_min.as_ps());
tracefmt::census::tests::p2p_census_is_bit_identical_to_reference tests/proptest_invariants.rs::censuses_count_exactly_at_the_i64_edges

windowed driver ignores a consumer's refusal
crates/core/src/pipeline/windowed.rs
if (self.consume)(chunk) {
if (self.consume)(chunk) || true {
clocksync::pipeline::windowed::tests::a_refused_chunk_cancels_the_run

the windowed replay ignores a recorded jump
crates/core/src/pipeline/windowed.rs
jump.at
candidate(orig, last, mu)
clocksync::pipeline::windowed::tests::windowed_matches_batch_for_every_window_size tests/windowed_differential.rs::windowed_engine_differential_matrix

windowed finality check without its order condition
crates/core/src/pipeline/windowed.rs
&& c >= walked
&& true
clocksync::pipeline::windowed::tests::an_unordered_event_is_not_final

an event the finality check refuses keeps its walked time
crates/core/src/pipeline/windowed.rs
let fin = if holds { c } else { self.restep(p, i, c, last) };
let fin = c;
clocksync::pipeline::windowed::tests::windowed_matches_batch_for_every_window_size

windowed certificate decided without its span check
crates/core/src/pipeline/windowed.rs
idle: span.is_some_and(|span| span < 1 << 52),
idle: true,
clocksync::pipeline::windowed::tests::windowed_matches_batch_for_every_window_size tests/windowed_differential.rs::the_mu_1_decision_matches_batch_at_its_boundary

a walk's window starts 1 ps later
crates/core/src/clc/columnar.rs
Walk { k, delta, window, w_start: at.saturating_sub(delta).saturating_sub(window) }
Walk { k, delta, window, w_start: at.saturating_sub(delta).saturating_sub(window).saturating_add(Dur::from_ps(1)) }
tests/columnar_differential.rs::columnar_is_bit_identical_across_the_config_matrix

every collective end linked to its instance's first member row
crates/core/src/clc/graph.rs
claim(end, END, inst.first_row + pos)?;
claim(end, END, inst.first_row)?;
clocksync::clc::tests::collective_one_to_n_repair tests/csr_differential.rs::csr_lowers_every_collective_flavour tests/truth.rs::traces_stamped_with_their_truth_are_feasible

a receive whose link resolves to the send side
crates/core/src/clc/graph.rs
claim(recv, RECV, m)?;
claim(recv, SEND, m)?;
clocksync::clc::graph::tests::links_resolve_to_the_message_table tests/csr_differential.rs::adapter_matches_the_oracle_on_mixed_traces tests/truth.rs::traces_stamped_with_their_truth_are_feasible

a message edge that drops the table's l_min
crates/core/src/clc/graph.rs
return Edges::run(&self.msgs.sends()[m..=m], &self.msgs.lats()[m..=m]);
return Edges::run(&self.msgs.sends()[m..=m], &[0]);
clocksync::clc::graph::tests::links_resolve_to_the_message_table tests/csr_differential.rs::adapter_matches_the_oracle_on_mixed_traces

a backward walk that does not mark what it raises
crates/core/src/clc/columnar.rs
self.moved.mark(self.base + i as usize, v != *t);
// self.moved.mark(self.base + i as usize, v != *t);
clocksync::clc::columnar::tests::certified_runs_equal_the_forced_sweep tests/csr_differential.rs::adapter_matches_the_oracle_on_mixed_traces

the classed collective census threshold 1 ps loose
crates/tracefmt/src/census.rs
Some(t) if end >= t => {
Some(t) if end >= t.saturating_sub(1) => {
tracefmt::census::tests::an_end_at_the_class_threshold_is_clear_and_one_ps_under_is_not

rounding by a plain + 0.5
crates/simclock/src/time.rs
(y + 0.499_999_999_999_999_94_f64.copysign(y)) as i64
(y + 0.5_f64.copysign(y)) as i64
simclock::time::tests::round_ties_away_equals_libm_round_on_the_hard_cases simclock::time::tests::scale_equals_libm_round_on_the_hard_cases

a finished job's budget charge is never released
crates/syncd/src/service.rs
shared.release(self.cost);
// shared.release(self.cost);
syncd::service::tests::poisoned_stream_fails_typed_on_its_only_run syncd::step::tests::a_poisoned_stream_fails_on_the_step_after_dispatch

a failed job is counted as completed
crates/syncd/src/service.rs
metrics.inc(Counter::Failed);
metrics.inc(Counter::Completed);
syncd::service::tests::poisoned_stream_fails_typed_on_its_only_run syncd::step::tests::a_poisoned_stream_fails_on_the_step_after_dispatch

a caught panic is not counted
crates/syncd/src/service.rs
shared.metrics.inc(Counter::JobPanics);
// shared.metrics.inc(Counter::JobPanics);
syncd::step::tests::probe_panic_is_contained_as_a_worker_crash tests/simsched_invariants.rs::crafted_schedule_reaches_panicked
EOF
)

names=() files=() origs=() repls=() tests=()
while IFS= read -r name && IFS= read -r file && IFS= read -r orig && IFS= read -r repl &&
    IFS= read -r test; do
    names+=("$name") files+=("$file") origs+=("$orig") repls+=("$repl") tests+=("$test")
    IFS= read -r _ || true
done <<<"$mutants"

# A fresh copy of the checkout without build outputs or history. The files
# the mutants edit get a new mtime, so cargo never mistakes a restored line
# for the build of the mutant before it.
fresh_copy() {
    rm -rf "$tree"
    mkdir -p "$tree"
    for entry in "$root"/* "$root"/.gitignore; do
        case "${entry##*/}" in target | benchmark | bench-logs) continue ;; esac
        cp -a "$entry" "$tree/"
    done
    for file in $(printf '%s\n' "${files[@]}" | sort -u); do
        touch "$tree/$file"
    done
}

# run_test NAME: 0 when the named test passes in the copy, 1 when it
# fails. A copy that does not build stops the script: a mutant that does
# not compile is a broken mutant, not a killed one.
run_test() {
    local name=$1 target filter
    if [[ "$name" == tests/* ]]; then
        target=${name#tests/}
        target=(--test "${target%%.rs::*}")
        filter=${name##*::}
    else
        target=(-p "${name%%::*}" --lib)
        filter=${name#*::}
    fi
    if ! (cd "$tree" && cargo test -q --no-run "${target[@]}") >/dev/null 2>&1; then
        echo "mutants: the copy does not build for ${name}" >&2
        exit 1
    fi
    (cd "$tree" && cargo test -q "${target[@]}" "$filter" -- --exact) >/dev/null 2>&1
}

# mutate FILE ORIGINAL MUTANT: replace the one line of the copy's FILE that
# is ORIGINAL once stripped of its indentation.
mutate() {
    local file=$1 path="$tree/$1" out
    out=$(awk -v orig="$2" -v repl="$3" '
        { line = $0; sub(/^[ \t]+/, "", line) }
        line == orig { n++; match($0, /^[ \t]*/); print substr($0, 1, RLENGTH) repl; next }
        { print }
        END { if (n != 1) exit 1 }' "$path") || {
        echo "mutants: '$2' is not exactly one line of $file" >&2
        return 1
    }
    printf '%s\n' "$out" >"$path"
}

t0=$(date +%s)
fresh_copy
for test in $(printf '%s\n' "${tests[@]}" | tr ' ' '\n' | sort -u); do
    if ! run_test "$test"; then
        echo "mutants: ${test} fails on the unmutated copy" >&2
        exit 1
    fi
done

survivors=0
printf '%-50s %-9s %s\n' "mutant" "verdict" "named tests"
for k in "${!names[@]}"; do
    fresh_copy
    mutate "${files[$k]}" "${origs[$k]}" "${repls[$k]}"
    # Killed only when every named test turns red.
    verdict=killed
    for test in ${tests[$k]}; do
        if run_test "$test"; then
            verdict=SURVIVED
        fi
    done
    [[ "$verdict" == killed ]] || survivors=$((survivors + 1))
    printf '%-50s %-9s %s\n' "${names[$k]}" "$verdict" "${tests[$k]}"
done
echo "${#names[@]} mutants, ${survivors} survived, $(($(date +%s) - t0)) s"
[[ "$survivors" -eq 0 ]]
