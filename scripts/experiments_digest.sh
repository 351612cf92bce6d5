#!/usr/bin/env bash
# Experiments digest: run all 15 experiments at --smoke from a fresh
# directory, take one sha256 over what they write (file names and bytes,
# table3's wall-clock "time per decision" row masked), and compare it with
# the committed results-smoke/experiments.sha256.
#
#   ./scripts/experiments_digest.sh
#
# A PR that changes no behaviour leaves the digest unchanged. A PR that
# changes a table or figure on purpose writes the printed digest into
# results-smoke/experiments.sha256 and says why in CHANGES.md.
#
# Called from scripts/check.sh (full mode).

set -euo pipefail
cd "$(dirname "$0")/.."

want_file=results-smoke/experiments.sha256
exp_dir=target/experiments-smoke

rm -rf "$exp_dir"
mkdir -p "$exp_dir"
(cd "$exp_dir" && cargo run --release -q -p ams-bench -- --smoke >/dev/null)
exp_files=$(find "$exp_dir/results-smoke" -type f | wc -l)
exp_digest=$(cd "$exp_dir/results-smoke" && find . -type f | LC_ALL=C sort |
    while read -r f; do
        echo "$f"
        sed '/^time per decision/d' "$f"
    done | sha256sum | cut -d' ' -f1)
echo "==> experiments digest: sha256 $exp_digest over $exp_files files (table3 timing row masked)"

want=$(cat "$want_file")
if [[ $exp_digest != "$want" ]]; then
    echo "experiments digest $exp_digest differs from $want_file ($want):" \
        "an experiment's output changed" >&2
    exit 1
fi
