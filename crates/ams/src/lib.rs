//! # ams — Adaptive Model Scheduling (facade)
//!
//! One-stop crate re-exporting the whole reproduction of
//! *"Comprehensive and Efficient Data Labeling via Adaptive Model
//! Scheduling"* (ICDE 2020):
//!
//! * [`models`] — the 30-model / 10-task / 1104-label zoo (Table I).
//! * [`data`] — synthetic scenes, the five dataset profiles, simulated
//!   inference and ground-truth tables.
//! * [`nn`] — the dense neural-network substrate.
//! * [`rl`] — the labeling MDP and the four DRL training schemas.
//! * [`sim`] — the virtual-time serial executor, the shared GPU memory pool,
//!   and batched admission.
//! * [`core`] — value prediction, Algorithms 1–2, baselines, rules, the
//!   relation graph, and the [`core::framework::AdaptiveModelScheduler`]
//!   facade.
//! * [`serve`] — the sharded serving front-end: a request/response client
//!   API (completion tickets, per-request label delivery, cancellation),
//!   bounded queues with backpressure, model-affinity routing with
//!   deadline-aware spill, batched admission, deadline shedding, a content-addressed label cache with request
//!   coalescing, latency telemetry, and online adaptation (a background
//!   trainer learning from served outcomes and hot-swapping
//!   generation-counted weight snapshots into the predict path).
//!
//! ## Quickstart
//!
//! ```
//! use ams::prelude::*;
//!
//! // 1. A zoo of 30 simulated vision models and a stream of data items.
//! let zoo = ModelZoo::standard();
//! let dataset = Dataset::generate(DatasetProfile::Coco2017, 50, 42);
//! let truth = TruthTable::build(&zoo, &zoo.catalog(), &dataset, 0.5);
//!
//! // 2. Train a small DRL agent to predict model values.
//! let split = dataset.split_1_to_4();
//! let (train_items, test_items) = truth.split(split);
//! let cfg = TrainConfig { episodes: 40, ..TrainConfig::fast_test(Algo::DuelingDqn) };
//! let (agent, _stats) = train(train_items, zoo.len(), &cfg);
//!
//! // 3. Label items under a 1-second deadline (Algorithm 1).
//! let scheduler = AdaptiveModelScheduler::new(
//!     zoo,
//!     Box::new(AgentPredictor::new(agent)),
//!     0.5,
//!     dataset.world_seed,
//! );
//! let outcome = scheduler.label_item(&test_items[0], Budget::Deadline { ms: 1000 });
//! assert!(outcome.elapsed_ms <= 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ams_core as core;
pub use ams_data as data;
pub use ams_models as models;
pub use ams_nn as nn;
pub use ams_rl as rl;
pub use ams_serve as serve;
pub use ams_sim as sim;

/// Everything a typical user needs, importable in one line.
pub mod prelude {
    pub use ams_core::chunked::{self, ChunkedConfig};
    pub use ams_core::framework::{AdaptiveModelScheduler, Budget, LabelingOutcome};
    pub use ams_core::graph::{GraphPredictor, ModelRelationGraph};
    pub use ams_core::metrics::{Cdf, Figure, Series};
    pub use ams_core::policies::{self, Rollout};
    pub use ams_core::predictor::{
        AgentPredictor, OraclePredictor, SnapshotPredictor, StaticValuePredictor, UniformPredictor,
        ValuePredictor,
    };
    pub use ams_core::rules::{rule_rollout, Rule, RuleBook, Trigger};
    pub use ams_core::scheduler::deadline::{schedule_deadline, DeadlineResult};
    pub use ams_core::scheduler::deadline_memory::{
        schedule_deadline_memory, DeadlineMemoryResult,
    };
    pub use ams_core::scheduler::optimal_star;
    pub use ams_core::streaming::{StreamProcessor, StreamStats};
    pub use ams_data::{
        infer, infer_all, Dataset, DatasetProfile, DogInstance, ItemTruth, Person, Place, Scene,
        SceneGenerator, TemplateKind, TruthTable,
    };
    pub use ams_models::{
        Detection, LabelCatalog, LabelId, LabelSet, ModelId, ModelOutput, ModelSpec, ModelZoo,
        QualityProfile, SkillTier, Task,
    };
    pub use ams_rl::{
        learn_step_batched, train, AgentSnapshot, Algo, BatchScratch, LabelingEnv, OnlineConfig,
        OnlineTrainer, RewardConfig, Smoothing, TrainConfig, TrainStats, TrainedAgent,
    };
    pub use ams_serve::{
        AdaptConfig, AdaptReport, AffinityConfig, AmsServer, BackpressurePolicy, CacheConfig,
        CacheReport, ClassReport, Client, Completion, EventKind, LabelResult, LatencySummary,
        MetricsSnapshot, NetClient, NetEvent, NetServer, ObsConfig, ObsReport, RoutingMode,
        ServeConfig, ServeReport, ShedReason, SloClass, SloConfig, SloReport, SubmitOptions,
        SubmitOutcome, Ticket, TraceReport, WireError,
    };
    pub use ams_sim::{
        batched_makespan, BatchLatencyModel, ExecTrace, Job, Pool, SerialExecutor, Span,
    };
}
