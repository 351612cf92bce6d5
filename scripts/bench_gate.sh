#!/usr/bin/env bash
# Perf regression gate: rerun the smoke benchmarks and evaluate the check
# table (crates/ams-bench/src/gate.rs) on them against the committed smoke
# baselines under results-smoke/.
#
#   ./scripts/bench_gate.sh               # self-test + rerun + compare
#   ./scripts/bench_gate.sh --self-test   # only prove the gate can fail
#
# rows: cargo run --release -q -p ams-bench --bin bench_gate -- \
#           self-test results-smoke/BENCH_serve.smoke.json \
#           results-smoke/BENCH_hotpath.smoke.json
#
# Called from scripts/check.sh (full and --smoke modes). Smoke records are
# written under target/ — the committed BENCH_serve.json /
# BENCH_hotpath.json full-run records are never clobbered by a gate run.

set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BASE=results-smoke/BENCH_serve.smoke.json
HOTPATH_BASE=results-smoke/BENCH_hotpath.smoke.json

self_test_only=0
for arg in "$@"; do
    case "$arg" in
    --self-test) self_test_only=1 ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

# 1) Prove the gate can fail: every row's own injected regression must
#    trip that row, or this exits non-zero.
echo "==> bench_gate self-test (every row must catch its own injected regression)"
cargo run --release -q -p ams-bench --bin bench_gate -- \
    self-test "$SERVE_BASE" "$HOTPATH_BASE"

if [[ $self_test_only -eq 1 ]]; then
    exit 0
fi

# 2) Re-measure. The serve smoke run asserts its invariants in-process and
#    exits non-zero if its own record fails a row of the table.
echo "==> bench_serve --smoke"
cargo run --release -q -p ams-bench --bin bench_serve -- --smoke >/dev/null
echo "==> bench_hotpath --smoke"
cargo run --release -q -p ams-bench --bin bench_hotpath -- --smoke >/dev/null

# 3) Compare against the committed baselines.
echo "==> bench_gate serve"
cargo run --release -q -p ams-bench --bin bench_gate -- \
    serve "$SERVE_BASE" target/BENCH_serve.smoke.json
echo "==> bench_gate hotpath"
cargo run --release -q -p ams-bench --bin bench_gate -- \
    hotpath "$HOTPATH_BASE" target/BENCH_hotpath.smoke.json

echo "Bench gate passed."
