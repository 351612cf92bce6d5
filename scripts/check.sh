#!/usr/bin/env bash
# One-command gate for every PR: formatting, lints (clippy at the
# workspace's [workspace.lints] levels, which hold the no-panic zones,
# SAFETY comments and lint-escape reasons (LINTS.md), with
# crates/ams-sim/clippy.toml banning clocks, locks, atomics, channels,
# spawns and sleeps there, and a fixture proving each lint and ban fires +
# a compile check of bench/ + rustdoc with every warning an error + the
# serving path's clock-read and lock-site ratchets + the library-lines
# ratchet), the perf gate, and the tier-1 verify.
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

# ams-sim is pure (all modes): its clippy.toml bans every clock, lock,
# condvar, atomic, channel, spawn and sleep, so the clippy step above is
# the purity check of the crate that holds the queue's and the worker's
# time rules. The same step holds the no-panic zones (each carries the
# `#[deny]` that the fixture below carries), every SAFETY comment and every
# lint escape's reason. A lint or ban that silently stopped firing would
# pass it, so a package nested under crates/ams-sim (clippy reads the
# nearest clippy.toml up the tree), linted at the workspace's own levels,
# uses every banned item, call, macro and index, an unargued `unsafe` block
# and a reasonless `allow`, and must fail clippy naming each one.
echo "==> crates/ams-sim/fixtures/impure fails clippy on every lint and ban"
fixture=crates/ams-sim/fixtures/impure
workspace_lints=$(awk '
    /^\[/ { prefix = ($0 == "[workspace.lints.rust]") ? "" : ($0 == "[workspace.lints.clippy]") ? "clippy::" : "-"; next }
    prefix != "-" && /^[a-z_]+ = "[a-z]+"$/ {
        gsub(/"/, "", $3)
        print ($3 == "deny") ? "-D" : ($3 == "allow") ? "-A" : ($3 == "forbid") ? "-F" : "-W", prefix $1
    }' Cargo.toml)
# Each multi-line `#[deny(…)]` is a no-panic zone's: `file:line<TAB>lints`.
zone_denies() {
    awk '/^[[:space:]]*#!?\[deny\($/ { on = 1; at = FILENAME ":" FNR; attr = ""; next }
        on && /^[[:space:]]*\)\]$/ { print at "\t" attr; on = 0; next }
        on { gsub(/[[:space:],]/, ""); attr = attr " " $0 }' "$@"
}
zone_lints=$(zone_denies $fixture/src/lib.rs | cut -f2)
stray_zones=$(zone_denies $(find crates -name '*.rs' -not -path '*/fixtures/*') |
    awk -F'\t' -v want="$zone_lints" '$2 != want')
if [[ -z $zone_lints || -n $stray_zones ]]; then
    echo "$stray_zones" >&2
    echo "these no-panic zone attributes differ from $fixture's:$zone_lints" >&2
    exit 1
fi
# Clippy reads only the nearest clippy.toml: ams-sim's repeats the root's
# macro bans, and the two lists must not drift apart.
if ! diff <(sed -n '/^disallowed-macros/,/^]/p' clippy.toml) \
    <(sed -n '/^disallowed-macros/,/^]/p' crates/ams-sim/clippy.toml) >&2; then
    echo "crates/ams-sim/clippy.toml's disallowed-macros differ from the root clippy.toml's" >&2
    exit 1
fi
impure_rc=0
impure_out=$(cd $fixture &&
    CARGO_TARGET_DIR="$PWD/../../../../target/impure" \
        cargo clippy --offline --locked -- -D warnings $workspace_lints 2>&1) || impure_rc=$?
if [[ $impure_rc -eq 0 ]]; then
    echo "clippy passed $fixture: the lints and purity bans do not fire" >&2
    exit 1
fi
named() {
    echo "$impure_out" >&2
    echo "clippy did not name $1 in $fixture" >&2
    exit 1
}
for banned in $(grep -oE 'path = "[^"]+"' crates/ams-sim/clippy.toml | cut -d'"' -f2); do
    case $banned in
    # `std::assert` is `core::assert` re-exported: clippy names either.
    std::assert* | core::assert*)
        grep -qE "disallowed macro \`(std|core)::${banned#*::}\`" <<<"$impure_out" ||
            named "the banned \`$banned\`"
        ;;
    *)
        grep -qE "disallowed (type|method) \`$banned\`" <<<"$impure_out" ||
            named "the banned \`$banned\`"
        ;;
    esac
done
for lint in $zone_lints $(awk '$1 == "-D" { print $2 }' <<<"$workspace_lints"); do
    case $lint in
    clippy::*) grep -qF "index.html#${lint#clippy::}" <<<"$impure_out" || named "\`$lint\`" ;;
    *) grep -qF "\`-D ${lint//_/-}\`" <<<"$impure_out" || named "\`$lint\`" ;;
    esac
done

# The claim surface (all modes): bench/ is a package of its own that the
# workspace never compiles, reaching into the public API (`ams::serve::net`,
# the frame types, `Request`/`Router`/`ShardQueue`). A refactor that breaks
# its imports must fail here, not in the benchmark pipeline. `--locked`
# and the explicit target dir keep the step from writing under bench/.
echo "==> cargo check (bench/, offline, locked)"
(cd bench && CARGO_TARGET_DIR="$PWD/../target/bench" cargo check --release --offline --locked)

# Docs (all modes): every rustdoc warning is an error — a doc comment
# naming an item that was renamed or deleted, a public doc linking to a
# private item, a redundant link target — so none rots silently.
echo "==> cargo doc (every rustdoc warning is an error)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The serving path's clock reads are a ratchet (all modes): lines in
# ams-serve/src that read the wall clock may only go down. A rule over time
# belongs in ams-sim, fed the shell's one read; a PR that removes reads
# lowers the limit to the new count.
clock_reads_max=8
echo "==> ams-serve clock reads (at most $clock_reads_max lines)"
clock_lines=$(grep -rnE 'Instant::now\(\)|\.elapsed\(\)' crates/ams-serve/src || true)
clock_reads=$(grep -c . <<<"$clock_lines" || true)
if [[ $clock_reads -gt $clock_reads_max ]]; then
    echo "$clock_lines" >&2
    echo "$clock_reads lines read the clock in ams-serve/src, above the ratchet's $clock_reads_max" >&2
    exit 1
fi

# The serving path's lock acquisitions are a ratchet too (all modes): lines
# in ams-serve/src that call `.lock()` may only
# go down — a simpler shape must not be bought with an extra lock hold. A PR
# that removes some lowers the limit to the new count.
lock_sites_max=53
echo "==> ams-serve lock sites (at most $lock_sites_max lines)"
lock_lines=$(grep -rnE '\.lock\(\)' crates/ams-serve/src || true)
lock_sites=$(grep -c . <<<"$lock_lines" || true)
if [[ $lock_sites -gt $lock_sites_max ]]; then
    echo "$lock_lines" >&2
    echo "$lock_sites lines take a lock in ams-serve/src, above the ratchet's $lock_sites_max" >&2
    exit 1
fi

# The labeling crates take no lock at all (all modes): an agent predictor's
# scratch belongs to the calling thread, so ams-core, ams-nn and ams-rl
# share nothing behind a mutex. Lines naming `.lock()`, `Mutex` or `RwLock`
# there are a ratchet at 0, so a scratch pool cannot come back.
labeling_lock_sites_max=0
echo "==> ams-core/nn/rl lock sites (at most $labeling_lock_sites_max lines)"
labeling_lock_lines=$(grep -rnE '\.lock\(\)|Mutex|RwLock' crates/ams-core/src crates/ams-nn/src crates/ams-rl/src || true)
labeling_lock_sites=$(grep -c . <<<"$labeling_lock_lines" || true)
if [[ $labeling_lock_sites -gt $labeling_lock_sites_max ]]; then
    echo "$labeling_lock_lines" >&2
    echo "$labeling_lock_sites lines name a lock in ams-core/nn/rl, above the ratchet's $labeling_lock_sites_max" >&2
    exit 1
fi

# The serving tests' sleeps are a ratchet too (all modes): a test that
# needs a worker held or time to pass drives it deterministically (a
# blocking predictor, literal µs into the pure cores), so lines in
# ams-serve/tests that call `thread::sleep` may only go down. A PR that
# removes some lowers the limit to the new count.
test_sleeps_max=10
echo "==> ams-serve test sleeps (at most $test_sleeps_max lines)"
sleep_lines=$(grep -rnE 'thread::sleep' crates/ams-serve/tests || true)
test_sleeps=$(grep -c . <<<"$sleep_lines" || true)
if [[ $test_sleeps -gt $test_sleeps_max ]]; then
    echo "$sleep_lines" >&2
    echo "$test_sleeps lines sleep in ams-serve/tests, above the ratchet's $test_sleeps_max" >&2
    exit 1
fi

# The library is a ratchet too (all modes): Rust lines under crates/ and
# examples/ up to each file's first `#[cfg(test)]`, skipping tests/
# directories, fixtures and the two out-of-line test modules, may only go
# down. Tests stay free. A PR that removes library lines lowers the limit
# to the new count.
lib_loc_max=22150
echo "==> library lines (at most $lib_loc_max)"
lib_loc=$(find crates examples -name '*.rs' -not -path '*/tests/*' -not -path '*/fixtures/*' \
    -not -path crates/ams-serve/src/queue/tests.rs -not -path crates/ams-core/src/scheduler/reference.rs -print0 |
    xargs -0 awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n }')
if [[ $lib_loc -gt $lib_loc_max ]]; then
    echo "$lib_loc library lines, above the ratchet's $lib_loc_max" >&2
    exit 1
fi

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
echo "==> Rust LoC: workspace $workspace_loc, library $lib_loc, ams-sim $sim_loc, ams-serve $serve_loc, examples $examples_loc"

echo "All checks passed."
