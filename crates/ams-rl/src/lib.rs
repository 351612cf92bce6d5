//! # ams-rl — reinforcement-learning substrate
//!
//! Implements §IV of the paper: the labeling MDP and the deep-RL machinery
//! that learns to predict model values from the labeling state.
//!
//! * [`mod@env`] — the MDP: observation = binary labeling state (1104 bits),
//!   actions = 30 models + the END action, reward per Eq. (3)
//!   (`ln(θ_m Σ conf + 1)` for new valuable labels, `−1` otherwise, `0`
//!   for END).
//! * [`replay`] — experience replay over sparse-state transitions.
//! * [`policy`] — ε-greedy action selection with availability masking
//!   (already-executed models cannot be selected again).
//! * [`algo`] — the four training schemas compared in §VI-B: DQN,
//!   DoubleDQN, DuelingDQN and DeepSARSA.
//! * [`trainer`] — the TD learner (target network, Adam, Huber TD loss,
//!   the one learn step) and the offline training loop over it.
//! * [`online`] — online adaptation: generation-stamped weight snapshots,
//!   the outcome→transition builder, and a trainer-step API that steps
//!   [`trainer`]'s learner over an externally fed replay (the serving
//!   hot-swap's learning half).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algo;
pub mod env;
pub mod online;
pub mod policy;
pub mod replay;
pub mod trainer;

pub use algo::Algo;
pub use env::{LabelingEnv, RewardConfig, Smoothing, StepResult};
pub use online::{outcome_transitions, AgentSnapshot, OnlineConfig, OnlineTrainer};
pub use policy::{epsilon_greedy, masked_argmax, EpsilonSchedule};
pub use replay::{ReplayBuffer, Transition};
pub use trainer::{learn_step_batched, train, BatchScratch, TrainConfig, TrainStats, TrainedAgent};
