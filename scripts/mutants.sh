#!/usr/bin/env bash
# Mutation-kill gate for the trace capture (ROADMAP item 9):
#
#   ./scripts/mutants.sh
#
# Each mutant changes one line of `crates/tracefmt/src/analysis.rs` in a
# fresh `cp -a` copy of the checkout and must turn the test named beside it
# red; the unmutated copy passes every named test first, so a red test is
# the mutant's doing. A mutant that survives is a finding: add the test
# that kills it. One row per mutant; the script fails if any survives.
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
file=crates/tracefmt/src/analysis.rs

# Four lines per mutant, a blank line between: what it breaks, the line as
# it stands (indentation aside), the mutant's line, the test that must fail
# (`crate::path` for a unit test, `tests/<file>.rs::<name>` otherwise).
mutants=$(cat <<'EOF'
unstable grouping: equal keys come out reversed
for i in items.rev() {
for i in items {
tests/proptest_matching.rs::a_pair_leaves_its_latest_sends_unmatched

positional zip without its tag-agreement check
if s.iter().zip(r.iter()).any(|(&s, &r)| tag(msgs, s) != tag(msgs, r)) {
if false {
tests/proptest_matching.rs::tags_reordered_inside_a_pair_match_per_tag_fifo

a peer no timeline carries is rank id 0
id.map_or(NOBODY, |id| id as u32)
id.map_or(0, |id| id as u32)
tests/proptest_matching.rs::peers_no_timeline_carries_stay_unmatched

members naming different roots are accepted
if call.root != root {
if false {
tests/proptest_matching.rs::malformed_collectives_fail_alike_batch_and_streamed

a CollEnd of another op is accepted
if op != call.op {
if false {
tests/proptest_matching.rs::malformed_collectives_fail_alike_batch_and_streamed

bucket grouping drops the side bit
let key = (from * u + to) << 1 | side;
let key = (from * u + to) << 1;
tests/proptest_matching.rs::sort_based_matching_equals_the_fifo_oracle

fallback grouping drops the side bit
let by_to = |k| pair_of(rec(k), &own).1 as usize * 2 + usize::from(rec(k).is_recv());
let by_to = |k| pair_of(rec(k), &own).1 as usize * 2;
tests/proptest_matching.rs::wide_traces_match_the_oracle_through_the_fallback_grouping
EOF
)

# A fresh copy of the checkout without build outputs or history. The file
# the mutants edit gets a new mtime, so cargo never mistakes a restored line
# for the build of the mutant before it.
fresh_copy() {
    rm -rf "$tree"
    mkdir -p "$tree"
    for entry in "$root"/* "$root"/.gitignore; do
        case "${entry##*/}" in target | benchmark | bench-logs) continue ;; esac
        cp -a "$entry" "$tree/"
    done
    touch "$tree/$file"
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

# mutate ORIGINAL MUTANT: replace the one line of the copy's file that is
# ORIGINAL once stripped of its indentation.
mutate() {
    local path="$tree/$file" out
    out=$(awk -v orig="$1" -v repl="$2" '
        { line = $0; sub(/^[ \t]+/, "", line) }
        line == orig { n++; match($0, /^[ \t]*/); print substr($0, 1, RLENGTH) repl; next }
        { print }
        END { if (n != 1) exit 1 }' "$path") || {
        echo "mutants: '$1' is not exactly one line of $file" >&2
        return 1
    }
    printf '%s\n' "$out" >"$path"
}

t0=$(date +%s)
names=() origs=() repls=() tests=()
while IFS= read -r name && IFS= read -r orig && IFS= read -r repl && IFS= read -r test; do
    names+=("$name") origs+=("$orig") repls+=("$repl") tests+=("$test")
    IFS= read -r _ || true
done <<<"$mutants"

fresh_copy
for test in $(printf '%s\n' "${tests[@]}" | sort -u); do
    if ! run_test "$test"; then
        echo "mutants: ${test} fails on the unmutated copy" >&2
        exit 1
    fi
done

survivors=0
printf '%-50s %-9s %s\n' "mutant" "verdict" "named test"
for k in "${!names[@]}"; do
    fresh_copy
    mutate "${origs[$k]}" "${repls[$k]}"
    if run_test "${tests[$k]}"; then
        verdict=SURVIVED
        survivors=$((survivors + 1))
    else
        verdict=killed
    fi
    printf '%-50s %-9s %s\n' "${names[$k]}" "$verdict" "${tests[$k]}"
done
echo "${#names[@]} mutants, ${survivors} survived, $(($(date +%s) - t0)) s"
[[ "$survivors" -eq 0 ]]
