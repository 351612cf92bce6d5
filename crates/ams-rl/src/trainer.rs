//! The DRL training loop (§IV-B): experience replay, target network,
//! Adam on a Huber TD loss, ε-greedy behaviour policy with the END action.
//!
//! The TD learner — online net, target net, Adam, replay, learn-step count
//! — exists once, as the crate-private `Learner`. Offline [`train`] feeds
//! it from its own episodes; [`crate::online::OnlineTrainer`] from served
//! outcomes.

use crate::algo::Algo;
use crate::env::{LabelingEnv, RewardConfig};
use crate::policy::{epsilon_greedy, masked_argmax, EpsilonSchedule};
use crate::replay::ReplayBuffer;
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
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// Replay capacity.
    pub replay_cap: usize,
    /// Environment steps before learning starts.
    pub warmup: usize,
    /// Hard target-network sync period (in learning steps; 0 syncs after
    /// every step).
    pub target_sync: usize,
    /// ε-greedy schedule.
    pub epsilon: EpsilonSchedule,
    /// Hidden layer widths (paper: `[256]`).
    pub hidden: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Whether the END action is available (the paper's §IV-B addition;
    /// disable for the convergence ablation).
    pub use_end_action: bool,
    /// Reward function.
    pub reward: RewardConfig,
}

/// Discount factor of both learners, offline and online.
///
/// 0.1: the framework's prediction component estimates the *value of
/// executing a model now* (§IV), which Algorithms 1–2 divide by cost. A
/// near-myopic discount makes `Q(s,m) ≈ E[r(m)|s]` — the marginal-value
/// estimate those ratios need — while γ near 1 buries it under a shared
/// return-to-go term and `Q/time` degenerates to cheapest-first (PERF.md,
/// "Discount factor γ", has the measured table).
pub const GAMMA: f32 = 0.1;

/// Offline training runs a learn step every `LEARN_EVERY` environment
/// steps (2 halves training cost with negligible quality loss).
const LEARN_EVERY: usize = 2;

impl TrainConfig {
    /// Sensible defaults for the standard 30-model zoo (the discount is
    /// [`GAMMA`]).
    pub fn new(algo: Algo) -> Self {
        Self {
            algo,
            episodes: 1500,
            lr: 1e-3,
            batch: 32,
            replay_cap: 50_000,
            warmup: 200,
            target_sync: 250,
            epsilon: EpsilonSchedule {
                start: 1.0,
                end: 0.05,
                decay_episodes: 800,
            },
            hidden: vec![256],
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = QNet::new(
        QNetConfig {
            input_dim: items[0].universe(),
            hidden: cfg.hidden.clone(),
            actions: num_models + usize::from(cfg.use_end_action),
            dueling: cfg.algo.dueling_head(),
        },
        cfg.seed ^ 0x51ED_CAFE,
    );
    let mut learner = Learner::new(net, cfg.clone());
    let mut stats = TrainStats::default();
    let mut act_cache = FwdCache::default();
    let mut sparse: Vec<u32> = Vec::new();

    for ep in 0..cfg.episodes {
        let eps = cfg.epsilon.at(ep);
        let item = &items[rng.gen_range(0..items.len())];
        let mut env = LabelingEnv::new(item, &cfg.reward, num_models, cfg.use_end_action);

        env.state().write_sparse(&mut sparse);
        let mut state: Arc<[u32]> = Arc::from(&sparse[..]);
        let q = learner.net.forward(Input::Sparse(&state), &mut act_cache);
        let mut action = epsilon_greedy(q, env.available_mask(), eps, &mut rng);

        let (mut ep_reward, mut ep_len) = (0.0f32, 0usize);

        while !env.is_done() {
            let mut t = env.step_transition(state, action, &mut sparse);
            ep_reward += t.reward;
            ep_len += 1;
            stats.steps += 1;
            if !t.done {
                let qn = learner
                    .net
                    .forward(Input::Sparse(&t.next_state), &mut act_cache);
                t.next_action = epsilon_greedy(qn, t.next_avail, eps, &mut rng) as u8;
            }
            action = usize::from(t.next_action);
            state = Arc::clone(&t.next_state);
            learner.replay.push(t);
            if stats.steps.is_multiple_of(LEARN_EVERY) {
                learner.learn_step(&mut rng);
            }
        }

        stats.episode_rewards.push(ep_reward);
        stats.episode_lengths.push(ep_len);
    }

    stats.learn_steps = learner.steps;
    (learner.agent(), stats)
}

/// The TD learner both training loops step: the online network (which
/// ε-greedy acting reads too), its target, Adam, the replay memory and
/// the learn-step count.
pub(crate) struct Learner {
    pub(crate) net: QNet,
    target: QNet,
    opt: Adam,
    pub(crate) replay: ReplayBuffer,
    scratch: BatchScratch,
    pub(crate) cfg: TrainConfig,
    pub(crate) steps: usize,
}

impl Learner {
    /// A learner continuing from `net` under `cfg`; `batch` and
    /// `target_sync` are floored at 1.
    pub(crate) fn new(net: QNet, mut cfg: TrainConfig) -> Self {
        cfg.batch = cfg.batch.max(1);
        cfg.target_sync = cfg.target_sync.max(1);
        Self {
            target: net.clone(),
            opt: Adam::new(cfg.lr),
            replay: ReplayBuffer::new(cfg.replay_cap),
            scratch: BatchScratch::new(&net),
            net,
            cfg,
            steps: 0,
        }
    }

    /// Whether the replay holds enough experience to learn.
    pub(crate) fn ready(&self) -> bool {
        self.replay.len() >= self.cfg.warmup.max(self.cfg.batch)
    }

    /// One [`learn_step_batched`] minibatch drawn from `rng`; `None`
    /// before [`Learner::ready`]. Syncs the target network every
    /// `target_sync` steps.
    pub(crate) fn learn_step(&mut self, rng: &mut StdRng) -> Option<f32> {
        if !self.ready() {
            return None;
        }
        let loss = learn_step_batched(
            &mut self.net,
            &self.target,
            &mut self.opt,
            &self.replay,
            &self.cfg,
            &Huber::default(),
            rng,
            &mut self.scratch,
        );
        self.steps += 1;
        if self.steps.is_multiple_of(self.cfg.target_sync) {
            self.target.copy_from(&self.net);
        }
        Some(loss)
    }

    /// The current weights as a trained agent.
    pub(crate) fn agent(&self) -> TrainedAgent {
        TrainedAgent {
            net: self.net.clone(),
            algo: self.cfg.algo,
            num_models: self.net.actions() - usize::from(self.cfg.use_end_action),
            reward: self.cfg.reward.clone(),
        }
    }
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
            tr.reward + GAMMA * bootstrap
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

    /// `target_sync` is a public field: 0 syncs the target after every
    /// learn step instead of dividing by zero.
    #[test]
    fn zero_target_sync_trains() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 20,
            target_sync: 0,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (_, stats) = train(table.items(), 30, &cfg);
        assert!(stats.learn_steps > 0, "learning must start");
    }

    /// Pins trained weights across commits: an FNV-1a fold over the bits
    /// of every weight and episode reward `train()` produces at
    /// `fast_test` size for each algorithm (and once without END), then
    /// over an `OnlineTrainer` continuing from the DQN agent on the
    /// fixture's outcomes — its losses and its exported weights after 120
    /// learn steps (one target sync). Any change to a draw order, the
    /// warmup, the target sync or a TD target moves it.
    #[test]
    fn golden_digest() {
        use crate::online::{OnlineConfig, OnlineTrainer};
        use ams_models::ModelId;
        fn fold<'a>(h: u64, xs: impl IntoIterator<Item = &'a f32>) -> u64 {
            let mix = |h: u64, x: &f32| (h ^ u64::from(x.to_bits())).wrapping_mul(0x100_0000_01b3);
            xs.into_iter().fold(h, mix)
        }
        let table = fixture();
        let no_end = TrainConfig {
            use_end_action: false,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut agents = Vec::new();
        for cfg in Algo::ALL
            .map(TrainConfig::fast_test)
            .into_iter()
            .chain([no_end])
        {
            let (agent, stats) = train(table.items(), 30, &cfg);
            h = fold(
                agent.net.tensors().into_iter().fold(h, fold),
                &stats.episode_rewards,
            );
            agents.push(agent);
        }
        let cfg = OnlineConfig {
            warmup: 32,
            seed: 5,
            ..OnlineConfig::default()
        };
        let mut online = OnlineTrainer::new(&agents[0], &cfg);
        for (i, item) in table.items().iter().enumerate() {
            let executed: Vec<ModelId> = (0..4 + i % 6)
                .map(|k| ModelId(((i * 7 + k * 11) % 30) as u8))
                .collect();
            online.absorb(item, &executed);
        }
        let losses: Vec<f32> = (0..120).filter_map(|_| online.learn_step()).collect();
        assert_eq!(losses.len(), 120, "the fixture warms the online trainer");
        h = online
            .export(1)
            .agent()
            .net
            .tensors()
            .into_iter()
            .fold(fold(h, &losses), fold);
        assert_eq!(h, 0x897e_da89_628f_8c2d, "trainer digest {h:#018x}");
    }
}
