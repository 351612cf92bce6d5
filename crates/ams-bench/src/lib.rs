//! # ams-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§II and
//! §VI) on the simulation substrate. Each experiment is a library function
//! the `ams-bench` runner picks by name (`cargo run -p ams-bench --
//! [--smoke] [name…]`); results are printed as aligned tables (the same
//! rows/series the paper plots) and written as JSON under `results/`.
//!
//! Absolute numbers differ from the paper (its testbed was a Tesla P100
//! running real DNNs); the claims being reproduced are the *shapes*: who
//! wins, by roughly what factor, and where crossovers fall.
//! `cargo run --release -p ams-bench` prints the measured side of every
//! experiment.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod hotpath;
pub mod serve;

pub use harness::{ExperimentConfig, Harness};
