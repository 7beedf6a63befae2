#!/usr/bin/env bash
# Builds the benchmark (offline, from this checkout's sources) and runs it.
#
#   benchmark/run.sh                      every workload, untraced; writes out/results.json
#   benchmark/run.sh --trace              every workload, traced; per-layer table + Chrome traces
#   benchmark/run.sh --selfcheck          the full set twice; fails if two runs disagree
#   benchmark/run.sh --quick              ~20 s smoke run, not for claims
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; the last line is the result object
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that stdout ends with the result line.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
exec "$target/release/dace-benchmark" --out "$here/out" "$@"
