#!/usr/bin/env bash
# Parent/change pairs for the end-to-end benchmark (ROADMAP item 23):
#
#   ./scripts/pairs.sh --parent REV [--workload W]... [--seeds 2008,7]
#                      [--pairs 10] [--seconds 8] [--aa]
#
# Builds the benchmark (`benchmark/`, its own package) twice, both
# `--offline`: at REV, exported with `git archive` into a temporary
# directory that is removed on exit (no worktree is registered, so nothing
# is left to prune if the script is killed), and in the working tree. Then
# runs strictly alternating pairs, one process per run, each from its own
# checkout root (the benchmark writes `benchmark/out/` there): the parent
# first in odd pairs and second in even ones (ABBA), so drift in the host's
# load falls on both sides alike (separate launches, alternation and
# dispersion, arXiv:1505.07734). Each run is `benchmark run --workload W
# --seed S --seconds N --trace 0`; its last stdout line is the result.
#
# For every workload x seed, one block in the `bench-logs/` format: per
# end-to-end metric the two medians with their quartiles, change / parent,
# the pairs the change won, |median difference| against the parent's
# interquartile distance, and the verdict of the pairs rule (ROADMAP, "How
# work is judged"): `gain` or `loss` when the change is better (worse) in
# at least 9 of 10 pairs (the same share of any other count) and the
# medians lie further apart than the parent's quartiles, else `-`. Every
# run follows, one line each. `--aa` runs the working tree's binary on
# both sides (no REV needed): an A/A calibration of the rule.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    echo "usage: scripts/pairs.sh --parent REV [--workload W]... [--seeds 2008,7] [--pairs 10] [--seconds 8] [--aa]" >&2
    exit 2
}

parent="" seeds="2008,7" pairs=10 seconds=8 aa=0 workloads=()
while (($#)); do
    case "$1" in
    --parent) [[ $# -ge 2 ]] || usage; parent=$2; shift 2 ;;
    --workload) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    --seeds) [[ $# -ge 2 ]] || usage; seeds=$2; shift 2 ;;
    --pairs) [[ $# -ge 2 ]] || usage; pairs=$2; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds=$2; shift 2 ;;
    --aa) aa=1; shift ;;
    *) usage ;;
    esac
done
[[ "$aa" == 1 || -n "$parent" ]] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
((${#workloads[@]})) || workloads=(pop_batch stream_windowed net_mixed online_churn)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

build() {
    (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2
}

echo "# building the change (working tree)" >&2
build "$root"
change_root=$root
if [[ "$aa" == 1 ]]; then
    parent_root=$root
    parent_name="change (A/A)"
else
    rev=$(git rev-parse --short "$parent^{commit}")
    echo "# building the parent ($rev) in $tmp/parent" >&2
    mkdir "$tmp/parent"
    git archive "$rev" | tar -x -C "$tmp/parent"
    build "$tmp/parent"
    parent_root=$tmp/parent
    parent_name=$rev
fi

metrics=(events_per_s setup_s job_s_p50 job_s_p95 peak_rss_mb)

# run SIDE ROOT WORKLOAD SEED PAIR: one benchmark process; appends one
# line `workload seed pair side failed attempted metric=value...` to the
# run log, or `... failed run` when the process fails or prints no result.
runs="$tmp/runs"
run() {
    local side=$1 dir=$2 w=$3 seed=$4 k=$5 line
    line=$(cd "$dir" && ./benchmark/target/release/benchmark run --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || line=""
    if [[ "$line" != "{"* ]]; then
        echo "$w $seed $k $side run failed" >>"$runs"
        return
    fi
    # The number after `"NAME": ` (or after `"NAME": {"value": `).
    field() { grep -o "\"$1\": \({\"value\": \)\?[^,}]*" <<<"$line" | head -n 1 | sed 's/.*: //' || true; }
    local out="$w $seed $k $side $(field failed) $(field attempted)"
    for m in "${metrics[@]}"; do
        out+=" $m=$(field "$m")"
    done
    echo "$out" >>"$runs"
}

IFS=, read -r -a seed_list <<<"$seeds"
: >"$runs"
for w in "${workloads[@]}"; do
    for seed in "${seed_list[@]}"; do
        for ((k = 1; k <= pairs; k++)); do
            echo "# $w seed $seed pair $k/$pairs" >&2
            if ((k % 2)); then
                run parent "$parent_root" "$w" "$seed" "$k"
                run change "$change_root" "$w" "$seed" "$k"
            else
                run change "$change_root" "$w" "$seed" "$k"
                run parent "$parent_root" "$w" "$seed" "$k"
            fi
        done
    done
done

echo "Pairs: parent = $parent_name, change = the working tree; ${pairs} pairs x ${seconds} s per workload and seed, ABBA."
echo "Summary (median [quartiles], change / parent, pairs won by the change):"
awk -v metrics="${metrics[*]}" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    # Linear-interpolated quantile of the sorted a[1..n].
    function q(a, n, p,    h, i) {
        h = (n - 1) * p + 1; i = int(h)
        return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
    }
    BEGIN { nm = split(metrics, name, " ") }
    $5 == "run" { failed_run[$1 " " $2 " " $4]++; next }
    {
        key = $1 " " $2
        if (!(key in seen)) { seen[key] = 1; order[++nk] = key }
        side = $4
        fails[key " " side] += $5; tries[key " " side] += $6
        for (f = 7; f <= NF; f++) {
            split($f, kv, "="); v[key " " side " " kv[1] " " $3] = kv[2]; has[key " " side " " kv[1] " " $3] = 1
        }
        if ($3 > maxk[key]) maxk[key] = $3
    }
    END {
        for (o = 1; o <= nk; o++) {
            key = order[o]; split(key, ws, " ")
            printf "== %s seed %s: %d pairs, failed parent %d/%d change %d/%d, failed runs parent %d change %d\n", ws[1], ws[2], maxk[key], fails[key " parent"], tries[key " parent"], fails[key " change"], tries[key " change"], failed_run[key " parent"], failed_run[key " change"]
            for (m = 1; m <= nm; m++) {
                mn = name[m]; higher = (mn == "events_per_s")
                np = nc = n = wins = 0
                for (k = 1; k <= maxk[key]; k++) {
                    pk = key " parent " mn " " k; ck = key " change " mn " " k
                    if (pk in has) P[++np] = v[pk] + 0
                    if (ck in has) C[++nc] = v[ck] + 0
                    if ((pk in has) && (ck in has)) {
                        n++
                        if (higher ? v[ck] + 0 > v[pk] + 0 : v[ck] + 0 < v[pk] + 0) wins++
                    }
                }
                if (np == 0 || nc == 0) { printf "  %-12s no result\n", mn; continue }
                sort(P, np); sort(C, nc)
                pm = q(P, np, 0.5); cm = q(C, nc, 0.5); iqr = q(P, np, 0.75) - q(P, np, 0.25)
                d = cm - pm; ad = d < 0 ? -d : d
                verdict = "-"
                if (ad > iqr && wins >= 0.9 * n) verdict = "gain"
                if (ad > iqr && n - wins >= 0.9 * n && (higher ? d < 0 : d > 0)) verdict = "loss"
                if (verdict == "gain" && (higher ? d < 0 : d > 0)) verdict = "-"
                printf "  %-12s  parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  ratio %.3f  wins %d/%d  |dmed| %.4g vs parent IQR %.4g  %s\n", mn, pm, q(P, np, 0.25), q(P, np, 0.75), cm, q(C, nc, 0.25), q(C, nc, 0.75), pm == 0 ? 0 : cm / pm, wins, n, ad, iqr, verdict
                delete P; delete C
            }
        }
    }' "$runs"
echo
echo "Every run:"
awk '$5 == "run" { printf "  %s seed %5s pair %2d %-6s run failed\n", $1, $2, $3, $4; next }
    { printf "  %s seed %5s pair %2d %-6s", $1, $2, $3, $4
      for (f = 7; f <= NF; f++) { split($f, kv, "="); printf "  %s %.4g", kv[1], kv[2] }
      printf "  failed %d/%d\n", $5, $6 }' "$runs"
