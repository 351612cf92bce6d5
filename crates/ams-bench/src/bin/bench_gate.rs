//! CLI front-end of the bench regression gate (`ams_bench::gate`).
//!
//! ```text
//! bench_gate serve   <baseline.json> <candidate.json>
//! bench_gate hotpath <baseline.json> <candidate.json>
//! bench_gate self-test <serve_baseline.json> <hotpath_baseline.json>
//! ```
//!
//! `serve`/`hotpath` evaluate the check table on a fresh smoke record
//! against the committed baseline and exit non-zero on any failed row.
//! `self-test` proves the gate can fail: it applies every row's own
//! injected regression to a copy of the baseline, requires that row to
//! catch it, and lists the rows — the listing *is* the documentation of
//! what is gated.

use ams_bench::gate::{run_gate, self_test, GateKind};
use serde::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate serve <baseline> <candidate>\n\
         \x20      bench_gate hotpath <baseline> <candidate>\n\
         \x20      bench_gate self-test <serve_baseline> <hotpath_baseline>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, a, b] = args.as_slice() else {
        return usage();
    };
    let result = (|| -> Result<bool, String> {
        match cmd.as_str() {
            "serve" | "hotpath" => {
                let kind = if cmd == "serve" {
                    GateKind::Serve
                } else {
                    GateKind::Hotpath
                };
                let outcome = run_gate(kind, &load(a)?, &load(b)?);
                eprintln!("[bench_gate] {cmd}: {a} (baseline) vs {b} (candidate)");
                eprint!("{}", outcome.render());
                Ok(outcome.ok())
            }
            "self-test" => {
                let rows = self_test(&load(a)?, &load(b)?)?;
                eprintln!(
                    "[bench_gate] self-test: {} rows, each caught its own injected regression:",
                    rows.len()
                );
                for row in rows {
                    eprintln!("  caught {row}");
                }
                Ok(true)
            }
            _ => Err("unknown subcommand".into()),
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[bench_gate] FAILED — perf regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[bench_gate] error: {e}");
            ExitCode::FAILURE
        }
    }
}
