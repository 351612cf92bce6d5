#!/usr/bin/env bash
# One-command gate for every PR: formatting, lints (clippy + a compile
# check of bench/ + rustdoc intra-doc links + the queue-core and pop-gate
# purity grep + the ams-lint workspace analyzer), the perf gate, and the
# tier-1 verify.
# Three modes:
#
#   ./scripts/check.sh          # full: fmt + clippy + doc links + release
#                               #       build + bench gate + tier-1 tests
#                               #       + bench/'s tests + every
#                               #       experiment at --smoke (digest of
#                               #       its outputs checked against
#                               #       results-smoke/experiments.sha256)
#                               #       + the serve_demo and Prometheus smokes
#   ./scripts/check.sh --quick  # fmt + clippy + doc links + fast
#                               #       label-cache and pool-packer passes
#                               #       (PROPTEST_CASES=16) + the held-
#                               #       worker tests 5x + debug tests +
#                               #       the same bench/ tests and smokes,
#                               #       one experiment (table1_zoo) only
#                               #       (no release build, no bench gate);
#                               #       CI's quick lane runs exactly this
#   ./scripts/check.sh --smoke  # fmt + clippy + doc links + bench gate
#                               #       only (the fast perf-regression
#                               #       lane; runs scripts/bench_gate.sh,
#                               #       which also asserts serve==serial
#                               #       equivalence)
#
# PROPTEST_CASES=16 ./scripts/check.sh gives a faster property-test pass
# while iterating; leave it unset for the full default case counts.

set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
    case "$arg" in
    --quick) mode=quick ;;
    --smoke) mode=smoke ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The claim surface (all modes): bench/ is a package of its own that the
# workspace never compiles, reaching into the public API (`ams::serve::net`,
# the frame types, `Request`/`Router`/`ShardQueue`). A refactor that breaks
# its imports must fail here, not in the benchmark pipeline. `--locked`
# and the explicit target dir keep the step from writing under bench/.
echo "==> cargo check (bench/, offline, locked)"
(cd bench && CARGO_TARGET_DIR="$PWD/../target/bench" cargo check --release --offline --locked)

# Intra-doc links (all modes): a doc comment naming an item that was
# renamed or deleted must fail here, not rot silently.
echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

# The queue's decision core and the worker's pop gate are pure (all
# modes): time is an argument, a shard's published wait arrives as a
# `Load` value, and the lock, the condvars, the clock, the sleep, the
# atomics and the obs handle live in the shells (`queue/mod.rs`,
# `server/worker.rs`). One word from that list in `core.rs` or `gate.rs` —
# code, comment or doc — fails here.
for pure in crates/ams-serve/src/queue/core.rs crates/ams-serve/src/server/gate.rs; do
    echo "==> $pure stays pure (no clock, lock, condvar, sleep, atomic or obs)"
    if grep -nE 'Instant::now|SystemTime|Mutex|Condvar|sleep|Atomic|ServerObs' "$pure"; then
        echo "$pure must stay a pure function of its arguments" >&2
        exit 1
    fi
done

# Workspace-specific static analysis (all modes — it is fast): first prove
# every rule can fire on its injected-violation fixtures, then require the
# tree itself to be clean. Rules and allow-list syntax: LINTS.md.
echo "==> ams-lint --self-test"
cargo run -q -p ams-lint -- --self-test
echo "==> ams-lint (workspace must be clean)"
cargo run -q -p ams-lint -- .

if [[ $mode == full ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

if [[ $mode == full || $mode == smoke ]]; then
    # Perf-regression gate: smoke sweeps compared against the committed
    # baselines (plus the in-process serve==serial invariants).
    ./scripts/bench_gate.sh
fi

if [[ $mode == quick ]]; then
    # Targeted first pass over the label cache: the stripe/eviction unit
    # tests plus the cross-policy coalescing + cancellation-storm suite,
    # capped at 16 proptest cases so exactly-once violations surface in
    # seconds before the full debug run below.
    echo "==> label-cache tests (PROPTEST_CASES=16)"
    PROPTEST_CASES=16 cargo test -q -p ams-serve --lib cache::
    PROPTEST_CASES=16 cargo test -q -p ams-serve --test cache_coalescing
    # And over the virtual-GPU pool packer: a packing that overfills the
    # pool, depends on the group order or loses to id order fails here.
    echo "==> ams-sim tests (PROPTEST_CASES=16)"
    PROPTEST_CASES=16 cargo test -q -p ams-sim
    # The wall-clock tests that hold a worker through its pool (or time a
    # member's own finish, or merge a later batch into an open group), five
    # runs each: a hold that is too short fails here, not one run in ten.
    echo "==> held-worker tests (5 runs)"
    for _ in 1 2 3 4 5; do
        cargo test -q -p ams-serve --test client_api -- \
            pending_excludes_cancelled_tombstones_like_the_depth_gauge \
            a_member_completes_at_its_own_finish_not_its_batchs \
            a_later_batch_joins_an_open_group
        cargo test -q -p ams-serve --test serve_equivalence -- \
            partial_batch_shed_counted_once_and_excluded_from_recall
        cargo test -q -p ams-serve --test obs_reconciliation -- \
            every_terminal_path_lands_in_one_bucket_classless_and_with_one_class
    done
fi

if [[ $mode == full || $mode == quick ]]; then
    echo "==> cargo test -q"
    cargo test -q
    # bench/'s own tests against this tree: it reaches into `ams::serve::net`
    # and the frame types' serde impls through the public API and builds
    # against its own lock file.
    echo "==> cargo test (bench/, offline, locked)"
    (cd bench && CARGO_TARGET_DIR="$PWD/../target/bench" cargo test --offline --locked)
    # `ams-bench [--smoke] [name…]` is the only way to regenerate a table or
    # figure; a typo must list the names and exit 2, not run everything. The
    # full mode runs all 15 experiments from a fresh directory and fails
    # when the digest of what they write (file names and bytes, table3's
    # wall-clock "time per decision" row masked) differs from the committed
    # results-smoke/experiments.sha256.
    if [[ $mode == full ]]; then
        echo "==> experiment runner smoke (every experiment, digest checked; an unknown name exits 2)"
        ./scripts/experiments_digest.sh
    else
        echo "==> experiment runner smoke (one named experiment; an unknown name exits 2)"
        cargo run -q -p ams-bench -- --smoke table1_zoo
    fi
    rc=0
    cargo run -q -p ams-bench -- no_such_experiment || rc=$?
    if [[ $rc -ne 2 ]]; then
        echo "an unknown experiment name must exit 2, got $rc" >&2
        exit 1
    fi
    # The composed service over TCP with two forked clients, then drift +
    # online adaptation.
    echo "==> serve_demo --smoke"
    cargo run -q --example serve_demo -- --smoke
    # A scrape a collector cannot parse is silent monitoring loss: format
    # breakage gets its own named failure.
    echo "==> metrics exposition smoke (the Prometheus scrape stays parseable)"
    cargo test -q -p ams-serve --test obs_reconciliation prometheus_exposition_is_well_formed
fi

# Size (all modes): the Rust line counts every CHANGES.md entry reports,
# measured the same way each time.
workspace_loc=$(find crates tests examples -name '*.rs' | xargs cat | wc -l)
sim_loc=$(find crates/ams-sim -name '*.rs' | xargs cat | wc -l)
serve_loc=$(find crates/ams-serve -name '*.rs' | xargs cat | wc -l)
examples_loc=$(find examples -name '*.rs' | xargs cat | wc -l)
echo "==> Rust LoC: workspace $workspace_loc, ams-sim $sim_loc, ams-serve $serve_loc, examples $examples_loc"

echo "All checks passed."
