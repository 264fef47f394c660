#!/usr/bin/env bash
# Prints one fixed count of non-test Rust lines: every tracked `.rs`
# file under crates/ and src/, skipping files under any `tests/`
# directory, counted up to (not including) the first `#[cfg(test)]`
# line of each file. The same count is reported change over change, so
# a drop means code left the production build, not that it moved.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(git ls-files -- 'crates/*.rs' 'src/*.rs' | grep -v '/tests/')
awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines++ }
    END { print lines + 0 }
' "${files[@]}"
