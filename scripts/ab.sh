#!/usr/bin/env bash
# Paired runs of the acceptance benchmark on two revisions.
#
#   scripts/ab.sh REV_A REV_B N WORKLOAD
#
# Checks the committed files of each revision out into a directory of
# its own (`git archive`: what the acceptance driver runs, and nothing
# is left behind in `.git`), lets each checkout's `benchmark/run.sh`
# build into its own CARGO_TARGET_DIR, then runs N pairs at
# `--seconds 25 --trace 0 --seed 1..N`, alternating which side of a pair
# goes first. Prints, per end-to-end metric of BENCHMARK.json, both
# medians with their quartiles, the ratio B/A, the pairs B won and every
# run's value in seed order.
#
# The checkouts, build directories and one result line per run stay in
# $AB_DIR (default: a fresh `mktemp -d`), which is printed at the end.
set -euo pipefail

usage() { sed -n "2,16p" "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; }
case "${1:-}" in -h | --help) usage; exit 0 ;; esac
if [ "$#" -ne 4 ]; then usage >&2; exit 2; fi
rev_a=$1 rev_b=$2 pairs=$3 workload=$4
case "$pairs" in '' | *[!0-9]* | 0) echo "N must be a positive integer: $pairs" >&2; exit 2 ;; esac

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
dir=${AB_DIR:-$(mktemp -d)}
for side in a b; do
    rev=rev_$side
    mkdir -p "$dir/$side/src" "$dir/$side/runs"
    git -C "$repo" archive "${!rev}" | tar -x -C "$dir/$side/src"
done

run() { # side seed
    (cd "$dir/$1/src" && CARGO_TARGET_DIR="$dir/$1/target" bash benchmark/run.sh \
        --workload "$workload" --seed "$2" --seconds 25 --trace 0 --out "$dir/$1/out") |
        tail -n 1 >"$dir/$1/runs/$2.json"
}

for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        echo "pair $seed/$pairs: $side" >&2
        run "$side" "$seed"
    done
done

python3 - "$repo/BENCHMARK.json" "$dir" "$pairs" "$rev_a" "$rev_b" "$workload" <<'PY'
import json, statistics, sys

bench, root, pairs, rev_a, rev_b, workload = sys.argv[1:]
runs = {
    side: [json.load(open(f"{root}/{side}/runs/{seed}.json")) for seed in range(1, int(pairs) + 1)]
    for side in "ab"
}
for side, docs in runs.items():
    bad = [i + 1 for i, d in enumerate(docs) if not d["correct"] or d["failed"]]
    print(f"{side}: {len(docs)} runs, incorrect or with failed ops: {bad or 'none'}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: A = {rev_a}, B = {rev_b}, {pairs} alternating pairs")
print(f"{'metric':<12} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'B/A':>6}  B won")
for metric in json.load(open(bench))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    a = [d["metrics"][name]["value"] for d in runs["a"]]
    b = [d["metrics"][name]["value"] for d in runs["b"]]
    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    qa, qb = quartiles(a), quartiles(b)
    cells = [f"{q2:.5g} [{q1:.5g}, {q3:.5g}]" for q1, q2, q3 in (qa, qb)]
    print(f"{name:<12} {cells[0]:<34} {cells[1]:<34} {qb[1] / qa[1]:>6.3f}  {won}/{len(a)}")
    for side, xs in (("A", a), ("B", b)):
        print(f"  {side} per run: {' '.join(f'{x:.5g}' for x in xs)}")
PY
echo "results kept in $dir" >&2
