//! The one experiment runner: regenerates the paper's tables and figures,
//! sharing trained agents across experiments. Results land in `results/`
//! (`results-smoke/` with `--smoke`).
//!
//! Usage: `cargo run --release -p ams-bench -- [--smoke] [name…]` — the
//! named experiments in table order, all of them when none is named. An
//! unknown name prints the list and exits 2; a result that cannot be
//! written names its path and exits 1.

use ams_bench::experiments::*;
use ams_bench::{ExperimentConfig, Harness};
use std::io;
use std::time::Instant;

/// One experiment: its name and the library function that runs it.
type Experiment = (&'static str, fn(&mut Harness) -> io::Result<()>);

/// Every experiment, in the order a full run executes them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1_zoo", |h| table1_zoo(h).map(drop)),
    ("fig02_policy_gap", |h| fig02_policy_gap(h).map(drop)),
    ("fig04_05_prediction", |h| fig04_05_prediction(h).map(drop)),
    ("table2_rules", |h| table2_rules(h).map(drop)),
    ("fig06_rules_vs_agent", |h| {
        fig06_rules_vs_agent(h).map(drop)
    }),
    ("fig07_sequence", |h| fig07_sequence(h).map(drop)),
    ("fig08_transfer", |h| fig08_transfer(h).map(drop)),
    ("fig09_theta", |h| fig09_theta(h).map(drop)),
    ("fig10_deadline", |h| fig10_deadline(h).map(drop)),
    ("fig11_memory", |h| fig11_memory(h).map(drop)),
    ("fig12_transfer_deadline", |h| {
        fig12_transfer_deadline(h).map(drop)
    }),
    ("table3_overhead", |h| table3_overhead(h).map(drop)),
    ("ablation_chunked", |h| ablation_chunked(h).map(drop)),
    ("ablation_reward", |h| ablation_reward(h).map(drop)),
    ("ablation_graph", |h| ablation_graph(h).map(drop)),
];

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let known = |n: &String| EXPERIMENTS.iter().any(|(name, _)| name == n);
    if flags.iter().any(|f| f != "--smoke") || !names.iter().all(known) {
        eprintln!("usage: ams-bench [--smoke] [name…]\nexperiments:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    let cfg = if flags.is_empty() {
        ExperimentConfig::default()
    } else {
        ExperimentConfig::smoke()
    };
    eprintln!("[ams-bench] config: {cfg:?}");
    let started = Instant::now();
    let mut h = Harness::new(cfg);
    for (name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let t0 = Instant::now();
        eprintln!("=== {name} ===");
        if let Err(e) = run(&mut h) {
            eprintln!("[ams-bench] {name}: cannot write results: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[ams-bench] {name} done in {:.1?} (total {:.1?})",
            t0.elapsed(),
            started.elapsed()
        );
    }
}
