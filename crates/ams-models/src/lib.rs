//! # ams-models — model-zoo substrate
//!
//! This crate defines the *static* side of the adaptive model scheduling
//! problem: the visual-analysis **tasks** (Table I of the paper), the global
//! **label catalog** (1104 labels across 10 tasks), and the **model zoo**
//! (30 simulated deep-learning models, 3 per task) with calibrated time and
//! GPU-memory costs and per-model quality profiles.
//!
//! Nothing here executes a model: execution is a function of a data item's
//! latent content and lives in `ams-data::infer`. This crate is purely the
//! catalog that schedulers and agents reason about — mirroring the paper,
//! where the scheduler only observes `(labels, confidences, m.time, m.mem)`.
//!
//! ## Calibration
//!
//! Costs are calibrated so that running all 30 models ("no policy") costs
//! about 5.16 s per item — the figure reported in §II of the paper — with
//! per-model times in the 50–450 ms band and peak memory in the 500–8000 MB
//! band (Table III). See [`zoo::ModelZoo::standard`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod label;
pub mod labelset;
pub mod output;
pub mod spec;
pub mod task;
pub mod zoo;

pub use label::{LabelCatalog, LabelId};
pub use labelset::LabelSet;
pub use output::{Detection, ModelOutput, OutputView};
pub use spec::{ModelId, ModelSpec, QualityProfile, SkillTier};
pub use task::Task;
pub use zoo::ModelZoo;
