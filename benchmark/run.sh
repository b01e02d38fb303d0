#!/usr/bin/env bash
# The one command of the benchmark: builds the `dqec_benchmark` crate
# offline in release mode, then runs it.
#
#   bash benchmark/run.sh
#       the suite: four timed runs (end-to-end metrics), then four
#       traced replays (per-layer metrics, Chrome traces in benchmark/out)
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as the acceptance driver calls it; the last line of
#       standard output is the machine-readable result
#   bash benchmark/run.sh --scale 0.3
#       a smoke run: --scale multiplies shot, chiplet and request counts
#
# Every run prints a table (metric, value, unit, min/max over segments,
# sample count) and then one JSON line. The exit code is non-zero when a
# correctness check fails. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --offline --release --locked --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dqec_benchmark" run "$@"
