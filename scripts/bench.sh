#!/usr/bin/env bash
# Runs the sweep timing harness in release mode and leaves
# BENCH_sweep.json in the repo root for the perf trajectory. Numbers
# are medians over --iters individually timed iterations (one untimed
# warmup), reported per row in nanoseconds; the `char` section
# compares one-shot characterization per point against the
# multi-temperature stripe on a single thread.
#
# Usage: scripts/bench.sh [--iters N] [--out PATH]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p coldtall-bench --bin bench_sweep
exec target/release/bench_sweep "$@"
