#!/usr/bin/env bash
# Builds the `coldtall` daemon and the end-to-end benchmark in release
# mode, then runs the benchmark. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
# CARGO_TARGET_DIR defaults to .bench_build at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin coldtall >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/coldtall-e2ebench" --root "$root" --daemon "$target/release/coldtall" "$@"
