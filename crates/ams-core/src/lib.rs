//! # ams-core — Adaptive Model Scheduling
//!
//! The paper's primary contribution (Yuan, Zhang, Li, Xiong — ICDE 2020):
//! given a set of deep-learning models and a stream of data items, adaptively
//! schedule a subset of models per item to maximize the value of extracted
//! labels under resource constraints.
//!
//! The crate composes the substrates:
//!
//! * [`predictor`] — the model-value prediction interface: a trained DRL
//!   agent (from `ams-rl`), oracle predictors for upper bounds, and uniform
//!   predictors for baselines.
//! * [`scheduler`] — Algorithm 1 (deadline constraint, cost-profit greedy
//!   on `Q/m.time`) and Algorithm 2 (deadline + GPU-memory constraint on a
//!   multi-processor pool), plus the relaxed **optimal\*** upper bound of
//!   §V-C.
//! * [`policies`] — the one serial runner (Algorithm 1, the unconstrained
//!   greedy, the rules and every run-to-recall policy pick over it) and
//!   the run-to-recall policies: random, optimal (true-value descending),
//!   Q-greedy.
//! * [`rules`] — the handcrafted-rule baseline of Table II.
//! * [`chunked`] — the §I explore–exploit scheduler for correlated chunks.
//! * [`graph`] — the model-relationship graph sketched as future work in
//!   §VIII, usable as a lightweight statistical value predictor.
//! * [`metrics`] — CDFs, series and summaries used by the experiments.
//! * [`framework`] — the user-facing facade: the
//!   "prediction → scheduling → execution → state update" loop of Fig. 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod framework;
pub mod graph;
pub mod metrics;
pub mod policies;
pub mod predictor;
pub mod rules;
pub mod scheduler;
pub mod streaming;

pub use framework::{AdaptiveModelScheduler, Budget, LabelingOutcome};
pub use predictor::{
    AgentPredictor, OraclePredictor, SnapshotPredictor, StaticValuePredictor, UniformPredictor,
    ValuePredictor,
};
pub use scheduler::deadline::{schedule_deadline, DeadlineResult};
pub use scheduler::deadline_memory::{schedule_deadline_memory, DeadlineMemoryResult};
pub use scheduler::optimal_star::{optimal_star_deadline, optimal_star_deadline_memory};
