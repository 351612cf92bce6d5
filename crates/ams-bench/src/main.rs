//! The one experiment runner: regenerates the paper's tables and figures,
//! sharing trained agents across experiments. Results land in `results/`
//! (`results-smoke/` with `--smoke`).
//!
//! Usage: `cargo run --release -p ams-bench -- [--smoke] [name…]` — the
//! named experiments in table order, all of them when none is named. An
//! unknown name prints the list and exits 2.

use ams_bench::experiments::*;
use ams_bench::{ExperimentConfig, Harness};
use std::time::Instant;

/// One experiment: its name and the library function that runs it.
type Experiment = (&'static str, fn(&mut Harness));

/// Every experiment, in the order a full run executes them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1_zoo", |h| drop(table1_zoo(h))),
    ("fig02_policy_gap", |h| drop(fig02_policy_gap(h))),
    ("fig04_05_prediction", |h| drop(fig04_05_prediction(h))),
    ("table2_rules", |h| drop(table2_rules(h))),
    ("fig06_rules_vs_agent", |h| drop(fig06_rules_vs_agent(h))),
    ("fig07_sequence", |h| drop(fig07_sequence(h))),
    ("fig08_transfer", |h| drop(fig08_transfer(h))),
    ("fig09_theta", |h| drop(fig09_theta(h))),
    ("fig10_deadline", |h| drop(fig10_deadline(h))),
    ("fig11_memory", |h| drop(fig11_memory(h))),
    ("fig12_transfer_deadline", |h| {
        drop(fig12_transfer_deadline(h))
    }),
    ("table3_overhead", |h| drop(table3_overhead(h))),
    ("ablation_chunked", |h| drop(ablation_chunked(h))),
    ("ablation_reward", |h| drop(ablation_reward(h))),
    ("ablation_graph", |h| drop(ablation_graph(h))),
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
        run(&mut h);
        eprintln!(
            "[ams-bench] {name} done in {:.1?} (total {:.1?})",
            t0.elapsed(),
            started.elapsed()
        );
    }
}
