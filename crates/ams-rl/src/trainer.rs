//! The DRL training loop (§IV-B): experience replay, target network,
//! Adam on a Huber TD loss, ε-greedy behaviour policy with the END action.

use crate::algo::Algo;
use crate::env::{LabelingEnv, RewardConfig};
use crate::policy::{epsilon_greedy, masked_argmax, EpsilonSchedule};
use crate::replay::{ReplayBuffer, Transition};
use ams_data::ItemTruth;
use ams_nn::{
    Adam, BatchBwdCache, BatchFwdCache, BatchInput, FwdCache, Huber, Input, Mat, Optimizer, QNet,
    QNetConfig, QNetGrads,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Training schema.
    pub algo: Algo,
    /// Number of episodes (items are drawn uniformly from the train set).
    pub episodes: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// Replay capacity.
    pub replay_cap: usize,
    /// Environment steps before learning starts.
    pub warmup: usize,
    /// Hard target-network sync period (in learning steps).
    pub target_sync: usize,
    /// Run a gradient step every `learn_every` environment steps
    /// (2 halves training cost with negligible quality loss).
    pub learn_every: usize,
    /// ε-greedy schedule.
    pub epsilon: EpsilonSchedule,
    /// Hidden layer widths (paper: `[256]`).
    pub hidden: Vec<usize>,
    /// Dimension of the observation (1104 for the standard catalog).
    pub input_dim: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether the END action is available (the paper's §IV-B addition;
    /// disable for the convergence ablation).
    pub use_end_action: bool,
    /// Reward function.
    pub reward: RewardConfig,
}

impl TrainConfig {
    /// Sensible defaults for the standard 30-model zoo.
    ///
    /// γ defaults to 0.1: the framework's prediction component estimates
    /// the *value of executing a model now* (§IV), which Algorithms 1–2
    /// divide by cost. A near-myopic discount makes `Q(s,m) ≈ E[r(m)|s]` —
    /// the marginal-value estimate those ratios need — while γ near 1 buries
    /// it under a shared return-to-go term and `Q/time` degenerates to
    /// cheapest-first (measured by `cargo run --release -p ams-bench --bin
    /// probe_gamma`).
    pub fn new(algo: Algo) -> Self {
        Self {
            algo,
            episodes: 1500,
            gamma: 0.1,
            lr: 1e-3,
            batch: 32,
            replay_cap: 50_000,
            warmup: 200,
            target_sync: 250,
            learn_every: 2,
            epsilon: EpsilonSchedule {
                start: 1.0,
                end: 0.05,
                decay_episodes: 800,
            },
            hidden: vec![256],
            input_dim: 1104,
            seed: 0,
            use_end_action: true,
            reward: RewardConfig::default(),
        }
    }

    /// Quick configuration for unit tests (tiny network, few episodes).
    pub fn fast_test(algo: Algo) -> Self {
        Self {
            episodes: 60,
            warmup: 32,
            target_sync: 50,
            hidden: vec![32],
            epsilon: EpsilonSchedule {
                start: 1.0,
                end: 0.1,
                decay_episodes: 40,
            },
            ..Self::new(algo)
        }
    }
}

/// Per-episode training statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainStats {
    /// Total reward per episode.
    pub episode_rewards: Vec<f32>,
    /// Episode lengths (number of actions taken).
    pub episode_lengths: Vec<usize>,
    /// Mean Huber loss per episode (0 until learning starts).
    pub episode_losses: Vec<f32>,
    /// Total environment steps.
    pub steps: usize,
    /// Total learning (gradient) steps.
    pub learn_steps: usize,
}

impl TrainStats {
    /// Mean total reward over the trailing `n` episodes.
    pub fn trailing_reward(&self, n: usize) -> f32 {
        let k = self.episode_rewards.len().min(n);
        if k == 0 {
            return 0.0;
        }
        let tail = &self.episode_rewards[self.episode_rewards.len() - k..];
        tail.iter().sum::<f32>() / k as f32
    }
}

/// A trained value-prediction agent: the Q network plus its metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedAgent {
    /// The learned Q network.
    pub net: QNet,
    /// Schema it was trained with.
    pub algo: Algo,
    /// Number of models (actions excluding END).
    pub num_models: usize,
    /// Reward config used in training (θ, thresholds).
    pub reward: RewardConfig,
}

impl TrainedAgent {
    /// Q values for a sparse labeling state; returns one value per action
    /// (END last when present).
    pub fn q_values(&self, state_sparse: &[u32]) -> Vec<f32> {
        self.net.q_values(Input::Sparse(state_sparse))
    }
}

/// Train an agent on a slice of ground-truth items (the train split).
pub fn train(
    items: &[ItemTruth],
    num_models: usize,
    cfg: &TrainConfig,
) -> (TrainedAgent, TrainStats) {
    assert!(!items.is_empty(), "empty training set");
    let actions = num_models + usize::from(cfg.use_end_action);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut net = QNet::new(
        QNetConfig {
            input_dim: cfg.input_dim,
            hidden: cfg.hidden.clone(),
            actions,
            dueling: cfg.algo.dueling_head(),
        },
        cfg.seed ^ 0x51ED_CAFE,
    );
    let mut target = net.clone();
    let mut opt = Adam::new(cfg.lr);
    let mut replay = ReplayBuffer::new(cfg.replay_cap);
    let huber = Huber::default();
    let mut stats = TrainStats::default();
    let mut scratch = BatchScratch::new(&net);
    let mut act_cache = FwdCache::default();
    let mut sparse_scratch: Vec<u32> = Vec::new();

    for ep in 0..cfg.episodes {
        let eps = cfg.epsilon.at(ep);
        let item = &items[rng.gen_range(0..items.len())];
        let mut env = LabelingEnv::new(item, &cfg.reward, num_models, cfg.use_end_action);

        let mut state: Arc<[u32]> = {
            env.state().write_sparse(&mut sparse_scratch);
            Arc::from(&sparse_scratch[..])
        };
        let mut avail = env.available_mask();
        let q = net.forward(Input::Sparse(&state), &mut act_cache);
        let mut action = epsilon_greedy(q, avail, eps, &mut rng);

        let mut ep_reward = 0.0f32;
        let mut ep_len = 0usize;
        let mut ep_loss = 0.0f32;
        let mut ep_loss_n = 0usize;

        loop {
            let step = env.step(action);
            ep_reward += step.reward;
            ep_len += 1;
            stats.steps += 1;

            let next_state: Arc<[u32]> = {
                env.state().write_sparse(&mut sparse_scratch);
                Arc::from(&sparse_scratch[..])
            };
            let next_avail = env.available_mask();
            let next_action = if step.done {
                0
            } else {
                let qn = net.forward(Input::Sparse(&next_state), &mut act_cache);
                epsilon_greedy(qn, next_avail, eps, &mut rng)
            };

            replay.push(Transition {
                state,
                action: action as u8,
                reward: step.reward,
                next_state: Arc::clone(&next_state),
                next_avail,
                next_action: next_action as u8,
                done: step.done,
            });

            if replay.len() >= cfg.warmup.max(cfg.batch)
                && stats.steps.is_multiple_of(cfg.learn_every.max(1))
            {
                let loss = learn_step_batched(
                    &mut net,
                    &target,
                    &mut opt,
                    &replay,
                    cfg,
                    &huber,
                    &mut rng,
                    &mut scratch,
                );
                ep_loss += loss;
                ep_loss_n += 1;
                stats.learn_steps += 1;
                if stats.learn_steps % cfg.target_sync == 0 {
                    target.copy_from(&net);
                }
            }

            if step.done {
                break;
            }
            state = next_state;
            avail = next_avail;
            debug_assert!(avail != 0);
            action = next_action;
        }

        stats.episode_rewards.push(ep_reward);
        stats.episode_lengths.push(ep_len);
        stats.episode_losses.push(if ep_loss_n > 0 {
            ep_loss / ep_loss_n as f32
        } else {
            0.0
        });
    }

    (
        TrainedAgent {
            net,
            algo: cfg.algo,
            num_models,
            reward: cfg.reward.clone(),
        },
        stats,
    )
}

/// Reusable buffers for [`learn_step_batched`].
pub struct BatchScratch {
    grads: QNetGrads,
    q_cache: BatchFwdCache,
    next_act_cache: BatchFwdCache,
    tgt_cache: BatchFwdCache,
    bwd: BatchBwdCache,
    gq: Mat,
    y: Vec<f32>,
    a_star: Vec<usize>,
}

impl BatchScratch {
    /// Scratch shaped for `net`.
    pub fn new(net: &QNet) -> Self {
        Self {
            grads: net.zero_grads(),
            q_cache: BatchFwdCache::default(),
            next_act_cache: BatchFwdCache::default(),
            tgt_cache: BatchFwdCache::default(),
            bwd: BatchBwdCache::default(),
            gq: Mat::zeros(0, 0),
            y: Vec::new(),
            a_star: Vec::new(),
        }
    }
}

/// One minibatch gradient step via batched passes; returns the mean Huber
/// loss.
///
/// The sampled transitions are gathered into batch matrices and each
/// network runs exactly once per role — one batched forward of the target
/// net (plus one of the online net for DoubleDQN's argmax), one batched
/// forward of the online net on the current states, and one batched
/// backward — instead of the ~`2 x batch` scalar passes of
/// `ams_bench::hotpath::learn_step_scalar`. Sampling consumes the same RNG
/// stream and the batched kernels agree with the scalar ones to float
/// rounding (the head kernels reassociate their reductions, and `1/batch`
/// is folded into the output gradient instead of a post-hoc rescale), so
/// training trajectories match the scalar implementation up to last-ULP
/// noise — asserted by that module's test over identical RNG streams.
#[allow(clippy::too_many_arguments)] // net/target/opt/replay are distinct roles
pub fn learn_step_batched(
    net: &mut QNet,
    target: &QNet,
    opt: &mut Adam,
    replay: &ReplayBuffer,
    cfg: &TrainConfig,
    huber: &Huber,
    rng: &mut StdRng,
    scratch: &mut BatchScratch,
) -> f32 {
    let idx = replay.sample_indices(cfg.batch, rng);
    let batch = idx.len();
    let actions = net.actions();

    // Gather the minibatch as per-sample sparse rows (no copies).
    let states: Vec<&[u32]> = idx.iter().map(|&i| &*replay.get(i).state).collect();
    let next_states: Vec<&[u32]> = idx.iter().map(|&i| &*replay.get(i).next_state).collect();

    // TD targets from one batched pass over the next states.
    scratch.y.resize(batch, 0.0);
    if cfg.algo == Algo::DoubleDqn {
        scratch.a_star.resize(batch, 0);
        let qo = net.forward_batch(
            BatchInput::Sparse(&next_states),
            &mut scratch.next_act_cache,
        );
        for (s, &i) in idx.iter().enumerate() {
            let tr = replay.get(i);
            if !tr.done {
                scratch.a_star[s] = masked_argmax(qo.row(s), tr.next_avail);
            }
        }
    }
    let qt = target.forward_batch(BatchInput::Sparse(&next_states), &mut scratch.tgt_cache);
    for (s, &i) in idx.iter().enumerate() {
        let tr = replay.get(i);
        scratch.y[s] = if tr.done {
            tr.reward
        } else {
            let row = qt.row(s);
            let bootstrap = match cfg.algo {
                Algo::Dqn | Algo::DuelingDqn => row[masked_argmax(row, tr.next_avail)],
                Algo::DoubleDqn => row[scratch.a_star[s]],
                Algo::DeepSarsa => row[tr.next_action as usize],
            };
            tr.reward + cfg.gamma * bootstrap
        };
    }

    // One batched forward over the current states, then the loss gradient.
    let q = net.forward_batch(BatchInput::Sparse(&states), &mut scratch.q_cache);
    let mut total_loss = 0.0f32;
    let inv_batch = 1.0 / cfg.batch as f32;
    scratch.gq.resize_zeroed(batch, actions);
    for (s, &i) in idx.iter().enumerate() {
        let tr = replay.get(i);
        let a = tr.action as usize;
        let residual = q.get(s, a) - scratch.y[s];
        total_loss += huber.loss(residual);
        // 1/batch is folded in here, replacing the full-gradient rescale
        // sweep of the scalar path.
        *scratch.gq.get_mut(s, a) = huber.dloss(residual) * inv_batch;
    }

    // One batched backward, then the optimizer step.
    scratch.grads.zero();
    net.backward_batch(
        BatchInput::Sparse(&states),
        &scratch.q_cache,
        &scratch.gq,
        &mut scratch.grads,
        &mut scratch.bwd,
    );
    let g = scratch.grads.tensors();
    let mut p = net.tensors_mut();
    opt.step(&mut p, &g);
    total_loss / cfg.batch as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;

    fn fixture() -> TruthTable {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 30, 21);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    }

    #[test]
    fn training_runs_and_improves_reward() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 150,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, stats) = train(table.items(), 30, &cfg);
        assert_eq!(stats.episode_rewards.len(), 150);
        assert_eq!(agent.num_models, 30);
        // With the END action the agent should learn to stop instead of
        // accumulating -1s: late episodes must beat the random-exploration
        // start on average.
        let early: f32 = stats.episode_rewards[..30].iter().sum::<f32>() / 30.0;
        let late = stats.trailing_reward(30);
        assert!(
            late > early,
            "training should improve reward: early {early:.2} late {late:.2}"
        );
    }

    #[test]
    fn all_four_algos_train() {
        let table = fixture();
        for algo in Algo::ALL {
            let cfg = TrainConfig {
                episodes: 20,
                ..TrainConfig::fast_test(algo)
            };
            let (agent, stats) = train(table.items(), 30, &cfg);
            assert_eq!(stats.episode_rewards.len(), 20);
            assert!(stats.learn_steps > 0, "{algo}: learning must start");
            let q = agent.q_values(&[]);
            assert_eq!(q.len(), 31);
            assert!(q.iter().all(|v| v.is_finite()), "{algo}: finite Qs");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 15,
            ..TrainConfig::fast_test(Algo::DoubleDqn)
        };
        let (a1, s1) = train(table.items(), 30, &cfg);
        let (a2, s2) = train(table.items(), 30, &cfg);
        assert_eq!(s1.episode_rewards, s2.episode_rewards);
        let q1 = a1.q_values(&[3, 100, 500]);
        let q2 = a2.q_values(&[3, 100, 500]);
        for (x, y) in q1.iter().zip(&q2) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn no_end_action_mode_trains() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 10,
            use_end_action: false,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, stats) = train(table.items(), 30, &cfg);
        assert_eq!(agent.q_values(&[]).len(), 30);
        // every episode must run all 30 models (no early stop available)
        assert!(stats.episode_lengths.iter().all(|&l| l == 30));
    }

    #[test]
    fn episode_lengths_bounded_by_actions() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 25,
            ..TrainConfig::fast_test(Algo::DeepSarsa)
        };
        let (_, stats) = train(table.items(), 30, &cfg);
        assert!(stats.episode_lengths.iter().all(|&l| (1..=31).contains(&l)));
    }
}
