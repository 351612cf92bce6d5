//! The repo's own standing acceptance test: the full workspace must
//! lint clean. Running this under `cargo test` (tier-1) means the
//! panic-freedom zones, unsafe/atomics audits and lock discipline are
//! enforced even where `scripts/check.sh` isn't — a PR that introduces
//! an unjustified ordering fails the test suite, not just the lint lane.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let (findings, nfiles) = ams_lint::scan_root(&root).expect("workspace root is readable");
    assert!(
        nfiles > 50,
        "walker found only {nfiles} files — scan root is wrong"
    );
    if !findings.is_empty() {
        for f in &findings {
            eprintln!("{}", f.render());
        }
        panic!(
            "{} ams-lint finding(s) — fix them or allow-list each with a reason (see LINTS.md)",
            findings.len()
        );
    }
}

#[test]
fn self_test_proves_every_rule_fires() {
    assert!(ams_lint::selftest::run(), "ams-lint --self-test failed");
}
