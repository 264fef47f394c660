#!/usr/bin/env bash
# The repo's one-stop verification gate: the full test suite (unit,
# integration, golden-file, doc tests) plus a warning-free clippy pass
# over every target. CI, the verify skill, and pre-commit hooks all
# call this script so "green" means the same thing everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q
# The adversarial-input gate runs explicitly so a filtered or partial
# test invocation can never silently skip it: no CLI argument or
# environment variable may reach a panic.
cargo test -q --test fault_injection
# The perf gate: the batched execution paths must report exactly one
# geometry solve per distinct temperature-stripped design-point key
# (the `geometry.solves` counter over the full study x temperature
# grid). Counter-based, so it cannot flake on machine load the way a
# wall-clock threshold would.
cargo test -q --test batch perf_smoke
# The evaluation-kernel perf gate: on a warm explorer the batched
# evaluation path must be strictly faster per row than the scalar
# per-row loop (interleaved median timing, so a one-off scheduler
# hiccup lands on both sides alike).
cargo test -q --test eval_batch perf_smoke
# The characterization-kernel perf gate: the SoA multi-temperature
# stripe over pre-solved geometries must beat the per-point oracle per
# dispatch while staying bit-identical (same interleaved-median
# discipline as the eval gate).
cargo test -q --test batch multi_temperature_stripe_is_faster_than_per_point
# The warm-start replay gate: a geometry store written by one process
# must restore the full study set into a fresh explorer byte-identically
# with zero geometry solves, and corrupt or stale-epoch lines must be
# skipped, never trusted and never fatal.
cargo test -q -p coldtall-serve geomstore
# The adaptive-search gates: the branch-and-bound frontier must be
# bit-identical to the exhaustive extraction (at 1 and 4 pool threads,
# under every constraint combination), and the search must provably
# avoid work — points skipped > 0 with strictly fewer evaluations than
# the grid holds. Counter-based, never wall-clock.
cargo test -q --test search matches_exhaustive
cargo test -q --test search perf_smoke
# The search's cheap-bookkeeping oracles. They gate bit-identity, not
# wall-clock: the heap pops regions in exactly the order of the linear
# scan it replaced; the column-kernel floors equal the per-candidate
# `Ctx` floors bit-for-bit on every study geometry over 60-400 K (and
# the geometry code epoch is unchanged); and the hand-built design-point
# keys equal the `format!` forms, with the study plan's persisted hash
# pinned so existing run registries keep replaying.
cargo test -q -p coldtall-core --lib heap_pops_in_the_linear_scan_order
cargo test -q -p coldtall-array --lib column_floors_match_the_ctx_floors_bit_for_bit
cargo test -q -p coldtall-core --lib keys_match_the_formatted_canonical_forms
cargo test -q -p coldtall-core --lib study_plan_hash_is_pinned
# The serve gates: the daemon on an ephemeral port must answer
# concurrent TCP clients bit-identically to direct library calls, and a
# registry written by a 4-thread daemon must replay into a 1-thread
# daemon whose sweep is byte-identical (the registry-replay golden
# check). Explicit here so a filtered run can never skip the
# subprocess-spawning suite.
cargo test -q --test serve concurrent_tcp_clients_get_bit_identical_responses
cargo test -q --test serve registry_replay_warms_a_fresh_daemon_bit_identically
# The hostile-input gate: a non-UTF-8 line, an over-long line, a
# character split across the read timeout and seeded random noise must
# each get a typed error (or, when split, the right answer) over TCP
# and stdin, and the next request on the same stream must be answered.
cargo test -q --test serve hostile_
# The store-sync gates: after every step of seeded random interleavings
# (characterize, replay, sync, plan change, a second explorer), the
# incremental registry and geometry-store sync must write the same
# file as the full walk it replaced; a sync racing four publishing
# threads must lose no entry to its cursor; and a failed append must
# never advance the cursor.
cargo test -q --test store_sync incremental_sync_matches_the_full_walk
cargo test -q --test store_sync no_publication_is_lost_to_the_sync_cursor
cargo test -q --test store_sync append_never_advances_the_cursor
# The cryo-NVM gates: every study artifact (including the Δ(T)
# STT-MRAM region study) must regenerate byte-identically to its
# golden under results/, and the adaptive search over the cryo-STT
# region (77-387 K x 1-8 dies, both tentpoles) must match the
# exhaustive sweep's frontier bit-for-bit while still skipping work.
cargo test -q --test golden_results artifacts_match_golden_files
cargo test -q --test search cryo_stt_region_search_matches_exhaustive
# The single-thread artifact gate: regenerating all 19 artifacts with
# the pool allowed 4 threads must leave the `pool.spinups` gauge where
# it was. Counter-based, not wall-clock: it checks that no artifact
# fans out, never how long one takes.
cargo test -q --test artifact_threads
cargo clippy --workspace --all-targets -- -D warnings
# Documentation is part of the API surface: a broken intra-doc link or
# an undocumented public item on the strict modules fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
# For information only, not a gate: the non-test line count that
# CHANGES.md tracks change over change.
echo "non-test Rust lines: $(scripts/loc.sh)"
