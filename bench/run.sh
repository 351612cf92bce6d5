#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bench/run.sh [--seed N]                 every workload, each as its own
#                                           process, untraced then traced
#   bench/run.sh --repeat N [--seed N]      the whole set N times (seeds N,
#                                           N+1, ...): spread table and bounds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; the last line of stdout is
#                                           the result object (BENCHMARK.json)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cores="$(nproc)"
if (( cores < 2 )); then
    echo "error: the harness needs a core each for its sender and its receiver; nproc is $cores" >&2
    exit 3
fi

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
target="${CARGO_TARGET_DIR:-$here/../target/bench}"

# Always ask cargo: it rebuilds exactly when a source file is newer than the
# binary, so a stale release build cannot be measured.
if ! (cd "$here" && cargo build --release --offline --locked --quiet) >&2; then
    echo "error: the release build of bench/ failed; nothing was measured" >&2
    exit 3
fi

export AMS_BENCH_DIR="$here"
AMS_BENCH_RUSTC="$(rustc --version)"
export AMS_BENCH_RUSTC
exec "$target/release/ams-benchmark" "$@"
