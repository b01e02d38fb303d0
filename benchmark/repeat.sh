#!/usr/bin/env bash
# Repeatability check: runs the timed suite N times, twice (sets A and
# B, run i of either set with seed 20240427 + i), then prints per
# workload x metric the quartiles, spread and largest single-run
# deviation of both sets and how much worse B's median is than A's.
# Exits non-zero when any pair leaves its bound in BENCHMARK.json.
#
#   bash benchmark/repeat.sh N [extra run.sh flags, e.g. --scale 0.3]
set -euo pipefail
n="${1:?usage: repeat.sh N [run.sh flags]}"
shift
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out/repeat
rm -rf "$out"
for set in A B; do
    for i in $(seq 1 "$n"); do
        mkdir -p "$out/$set/run$i"
        echo "set $set run $i/$n" >&2
        bash benchmark/run.sh --trace 0 --seed $((20240427 + i)) \
            --out "$out/$set/run$i" "$@" >"$out/$set/run$i/log.txt"
    done
done
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dqec_benchmark" \
    compare "$out/A" "$out/B"
