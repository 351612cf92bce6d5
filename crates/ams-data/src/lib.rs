//! # ams-data — synthetic data substrate
//!
//! The paper evaluates on 394 170 real images from five public datasets and
//! obtains ground truth by running all 30 models on every image. Neither the
//! images nor the pretrained models are available here, so this crate builds
//! the closest synthetic equivalent:
//!
//! * [`scene`] — a **latent scene graph** per data item: the ground-truth
//!   semantic content (persons with face/pose/action/emotion/gender/hands,
//!   dogs with breeds, objects, a place). This plays the role of the pixels.
//! * [`templates`] + [`generator`] — a generative model over scenes with
//!   strong *conditional structure* (indoor place → household objects,
//!   person → face → emotion, sports place → sports action, …). The DRL
//!   agent's entire job is to mine exactly this structure from model
//!   outputs, so the substitution preserves the learning problem.
//! * [`dataset`] — five dataset profiles mirroring the content skews of
//!   Stanford40 / PASCAL VOC 2012 / MSCOCO 2017 / MirFlickr25 / Places365,
//!   with the paper's 1:4 train/test split.
//! * [`mod@infer`] — **simulated model execution**: a deterministic stochastic
//!   map `(scene, model spec) → ModelOutput` honouring each model's quality
//!   profile (recall, confidence noise, false positives).
//! * [`truth`] — the "execute everything once" ground-truth table the paper
//!   builds in §VI-A, with the value/recall algebra of Eq. (1) on top.
//!
//! Everything is deterministic under a `world_seed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod generator;
pub mod infer;
pub mod rng;
pub mod scene;
pub mod templates;
pub mod truth;

pub use dataset::{Dataset, DatasetProfile, Split};
pub use generator::SceneGenerator;
pub use infer::{infer, infer_all};
pub use scene::{DogInstance, Person, Place, Scene};
pub use templates::TemplateKind;
pub use truth::{ItemTruth, TruthTable};
