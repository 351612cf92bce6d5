//! `--self-test`: prove every rule can fire.
//!
//! Each fixture under `fixtures/` carries injected violations; the
//! tables below pin the exact (rule, line) set the analyzer must
//! produce — no more, no less. Expectations are hardcoded here rather
//! than as inline fixture markers on purpose: a trailing marker comment
//! would itself count as "adjacent comment" evidence for the
//! `atomic-order` and `safety-comment` rules and mask the violation it
//! annotates.
//!
//! The fixture directory is excluded from workspace scans (the walker
//! skips any `fixtures/` component), and fixtures are never compiled —
//! they are `include_str!` data, free to reference undefined types.

use crate::{analyze, RULES};
use std::collections::BTreeSet;

struct Fixture {
    /// Synthetic display path — chosen so path-scoped rules
    /// (ledger-event, atomic-order, lock-nesting, forbid-unsafe) see
    /// the basenames and crate layout they key on.
    path: &'static str,
    src: &'static str,
    expect: &'static [(&'static str, u32)],
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        path: "fixtures/no_panic.rs",
        src: include_str!("../fixtures/no_panic.rs"),
        expect: &[
            ("no-panic", 10), // .unwrap()
            ("no-panic", 11), // .expect()
            ("no-panic", 13), // panic!
            ("no-panic", 15), // assert_eq!
            ("no-panic", 17), // todo!
            ("no-panic", 18), // unimplemented!
            ("no-panic", 19), // unreachable!
            ("no-panic", 22), // buf[i] indexing
        ],
    },
    Fixture {
        path: "crates/ams-serve/src/server/worker.rs",
        src: include_str!("../fixtures/ledger_server.rs"),
        expect: &[
            ("ledger-event", 5),  // bump(Admitted) beside an Enqueued emit
            ("ledger-event", 6),  // a second bump is no evidence for the first
            ("ledger-event", 25), // bump(kind): the kind is not named
        ],
    },
    Fixture {
        path: "fixtures/unsafe_audit.rs",
        src: include_str!("../fixtures/unsafe_audit.rs"),
        expect: &[
            ("safety-comment", 5),  // unsafe impl Send, no SAFETY
            ("safety-comment", 11), // unsafe block, no SAFETY
        ],
    },
    Fixture {
        path: "crates/ams-serve/src/obs/ring.rs",
        src: include_str!("../fixtures/atomic_ring.rs"),
        expect: &[
            ("atomic-order", 4),  // head.load, no justification
            ("atomic-order", 11), // tail.swap, no justification
            ("atomic-order", 16), // state CAS, no justification
        ],
    },
    Fixture {
        path: "crates/ams-serve/src/adapt.rs",
        src: include_str!("../fixtures/atomic_adapt.rs"),
        expect: &[
            ("atomic-order", 5),  // generation.store, no justification
            ("atomic-order", 16), // generation.swap, no justification
        ],
    },
    Fixture {
        path: "crates/ams-serve/src/cache.rs",
        src: include_str!("../fixtures/lock_nesting.rs"),
        expect: &[
            ("lock-nesting", 5), // second stripe lock while g1 is live
        ],
    },
    Fixture {
        path: "fixtures/directives.rs",
        src: include_str!("../fixtures/directives.rs"),
        expect: &[
            ("directive", 4),  // allow without reason
            ("directive", 5),  // allow of unknown rule
            ("directive", 6),  // allow without parens
            ("directive", 9),  // end without begin
            ("directive", 11), // unknown zone name
            ("directive", 14), // unrecognized verb
            ("directive", 16), // begin never closed
        ],
    },
    Fixture {
        path: "crates/ams-fake/src/lib.rs",
        src: include_str!("../fixtures/missing_forbid_lib.rs"),
        expect: &[("forbid-unsafe", 1)],
    },
    Fixture {
        path: "crates/ams-clean/src/lib.rs",
        src: include_str!("../fixtures/has_forbid_lib.rs"),
        expect: &[],
    },
    Fixture {
        path: "fixtures/clean_tricky.rs",
        src: include_str!("../fixtures/clean_tricky.rs"),
        expect: &[],
    },
];

/// Run all fixtures; print a PASS/FAIL line per fixture plus diffs, and
/// verify every rule in [`RULES`] fired at least once somewhere.
pub fn run() -> bool {
    let mut ok = true;
    let mut fired: BTreeSet<&str> = BTreeSet::new();
    for fx in FIXTURES {
        let findings = analyze(fx.path, fx.src);
        let mut actual: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        actual.sort_unstable();
        let mut expected: Vec<(&str, u32)> = fx.expect.to_vec();
        expected.sort_unstable();
        for (rule, _) in &actual {
            fired.insert(rule);
        }
        if actual == expected {
            println!(
                "self-test PASS {} ({} expected finding{})",
                fx.path,
                expected.len(),
                if expected.len() == 1 { "" } else { "s" }
            );
        } else {
            ok = false;
            println!("self-test FAIL {}", fx.path);
            for want in &expected {
                if !actual.contains(want) {
                    println!("  missing: [{}] expected at line {}", want.0, want.1);
                }
            }
            for got in &actual {
                if !expected.contains(got) {
                    let msg = findings
                        .iter()
                        .find(|f| (f.rule, f.line) == (got.0, got.1))
                        .map(|f| f.message.as_str())
                        .unwrap_or("");
                    println!("  unexpected: [{}] at line {} — {}", got.0, got.1, msg);
                }
            }
        }
    }
    for rule in RULES {
        if !fired.contains(rule) {
            ok = false;
            println!("self-test FAIL: rule [{rule}] never fired on any fixture");
        }
    }
    if ok {
        println!(
            "self-test: {} fixtures match exactly; all {} rules fired",
            FIXTURES.len(),
            RULES.len()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    /// Tier-1 (`cargo test`) runs the full self-test too, so "every
    /// rule can fire" is enforced even where check.sh isn't run.
    #[test]
    fn self_test_passes() {
        assert!(super::run(), "ams-lint self-test failed; see stdout");
    }
}
