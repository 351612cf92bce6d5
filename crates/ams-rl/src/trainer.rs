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
    Adam, BatchBwdCache, BatchFwdCache, BatchInput, Dense, FwdCache, Huber, Input, Mat, Optimizer,
    QNet, QNetConfig, QNetGrads,
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

/// Reusable buffers for [`learn_step_batched`], and its memo of target-net
/// Q rows.
pub struct BatchScratch {
    grads: QNetGrads,
    q_cache: BatchFwdCache,
    next_act_cache: BatchFwdCache,
    tgt_cache: BatchFwdCache,
    bwd: BatchBwdCache,
    gq: Mat,
    y: Vec<f32>,
    a_star: Vec<usize>,
    target_rows: TargetRows,
    /// The minibatch's active input indices, ascending and distinct: the
    /// only rows of the first layer's weight gradient the step writes.
    rows: Vec<u32>,
    /// One bit per input index, set while `rows` is collected and clear
    /// between steps.
    row_bits: Vec<u64>,
}

/// The target net's Q row of each replay slot's next state, kept across
/// learn steps. A row is valid for the target weights
/// ([`QNet::stamp`]) and the push into that slot
/// ([`ReplayBuffer::stamp`]) it was computed for, and for nothing else:
/// the target changes only at a sync and a slot only when the ring wraps
/// over it, so between those every sample of the slot reuses one row.
struct TargetRows {
    /// Per slot, the `(target stamp, push stamp)` its row holds.
    keys: Vec<Option<(u64, u64)>>,
    /// The rows, `width` (the action count) floats per slot.
    q: Vec<f32>,
    width: usize,
    /// This step's slots whose row must be computed.
    missing: Vec<usize>,
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
            target_rows: TargetRows {
                keys: Vec::new(),
                q: Vec::new(),
                width: net.actions(),
                missing: Vec::new(),
            },
            rows: Vec::new(),
            row_bits: vec![0; net.config().input_dim.div_ceil(64)],
        }
    }
}

impl TargetRows {
    /// Make the target's row valid for every non-terminal slot in `idx`,
    /// running one batched forward over the distinct slots that lack one.
    fn fill(
        &mut self,
        target: &QNet,
        replay: &ReplayBuffer,
        idx: &[usize],
        cache: &mut BatchFwdCache,
    ) {
        if self.keys.len() < replay.len() {
            // Reserved for the whole ring at once, so growing never copies
            // the rows; a page is touched only when its slots fill.
            let slots = replay.capacity();
            self.keys.reserve_exact(slots - self.keys.len());
            self.q.reserve_exact(slots * self.width - self.q.len());
            self.keys.resize(replay.len(), None);
            self.q.resize(replay.len() * self.width, 0.0);
        }
        self.missing.clear();
        for &i in idx {
            let key = Some((target.stamp(), replay.stamp(i)));
            if !replay.get(i).done && self.keys[i] != key {
                self.keys[i] = key;
                self.missing.push(i);
            }
        }
        if self.missing.is_empty() {
            return;
        }
        let next: Vec<&[u32]> = self
            .missing
            .iter()
            .map(|&i| &*replay.get(i).next_state)
            .collect();
        let qt = target.forward_batch(BatchInput::Sparse(&next), cache);
        let w = self.width;
        for (r, &i) in self.missing.iter().enumerate() {
            self.q[i * w..(i + 1) * w].copy_from_slice(qt.row(r));
        }
    }

    /// Slot `i`'s row, valid after a [`TargetRows::fill`] that covered it.
    fn row(&self, i: usize) -> &[f32] {
        &self.q[i * self.width..(i + 1) * self.width]
    }
}

/// One minibatch gradient step via batched passes; returns the mean Huber
/// loss.
///
/// The sampled transitions are gathered into batch matrices and each
/// network runs at most once per role — one batched forward of the target
/// net (plus one of the online net for DoubleDQN's argmax), one batched
/// forward of the online net on the current states, and one batched
/// backward — instead of the ~`2 x batch` scalar passes of
/// `ams_bench::hotpath::learn_step_scalar`. Sampling consumes the same RNG
/// stream and the batched kernels agree with the scalar ones to float
/// rounding (the head kernels reassociate their reductions, and `1/batch`
/// is folded into the output gradient instead of a post-hoc rescale), so
/// training trajectories match the scalar implementation up to last-ULP
/// noise — asserted by that module's test over identical RNG streams.
///
/// The target forward covers only the sampled non-terminal slots whose
/// row `scratch` does not hold yet for these target weights: a sample's
/// [`QNet::forward_batch`] row does not depend on the rest of its batch,
/// so a memoized row is the row a full pass would compute, bit for bit,
/// whoever calls with whatever target and replay. Adam steps only the
/// first-layer rows the minibatch's states touch ([`Adam::step_rows`]),
/// bitwise the dense step.
#[expect(
    clippy::too_many_arguments,
    reason = "net/target/opt/replay are distinct roles"
)]
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

    // TD targets: the online net's argmax for DoubleDQN, then the target
    // net's rows.
    scratch.y.resize(batch, 0.0);
    if cfg.algo == Algo::DoubleDqn {
        let next_states: Vec<&[u32]> = idx.iter().map(|&i| &*replay.get(i).next_state).collect();
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
    let qt = &mut scratch.target_rows;
    qt.fill(target, replay, &idx, &mut scratch.tgt_cache);
    for (s, &i) in idx.iter().enumerate() {
        let tr = replay.get(i);
        scratch.y[s] = if tr.done {
            tr.reward
        } else {
            let row = qt.row(i);
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

    // One batched backward, then the optimizer step over the rows of the
    // first layer the minibatch touched (a net with no trunk steps
    // densely). The gradient is zero between steps: only what this step
    // wrote is cleared after it.
    net.backward_batch(
        BatchInput::Sparse(&states),
        &scratch.q_cache,
        &scratch.gq,
        &mut scratch.grads,
        &mut scratch.bwd,
    );
    collect_rows(&states, &mut scratch.row_bits, &mut scratch.rows);
    let row_len = net.trunk().first().map(Dense::fan_out);
    let g = scratch.grads.tensors();
    let mut p = net.tensors_mut();
    match row_len {
        Some(row_len) => opt.step_rows(&mut p, &g, row_len, &scratch.rows),
        None => opt.step(&mut p, &g),
    }
    scratch.grads.zero_rows(&scratch.rows);
    total_loss / cfg.batch as f32
}

/// The distinct indices active in any of `states`, ascending, into `rows`,
/// through the all-clear bitmap `bits` (left all-clear).
fn collect_rows(states: &[&[u32]], bits: &mut [u64], rows: &mut Vec<u32>) {
    for &i in states.iter().flat_map(|s| s.iter()) {
        bits[i as usize / 64] |= 1 << (i % 64);
    }
    rows.clear();
    for (w, word) in bits.iter_mut().enumerate() {
        let mut b = std::mem::take(word);
        while b != 0 {
            rows.push(w as u32 * 64 + b.trailing_zeros());
            b &= b - 1;
        }
    }
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

    /// The memo of target rows is invisible. A `BatchScratch` kept across
    /// steps, which reuses rows, and a fresh one per step, which computes
    /// every row, give bit-identical losses and weights through a replay
    /// ring that wraps (48 slots, 2 to 8 pushes per step) and a target
    /// synced every 5 steps, so rows go stale both ways.
    #[test]
    fn target_row_memo_matches_fresh_scratch() {
        use crate::online::outcome_transitions;
        use ams_models::ModelId;
        let table = fixture();
        for algo in [Algo::Dqn, Algo::DoubleDqn, Algo::DeepSarsa] {
            let cfg = TrainConfig::fast_test(algo);
            let run = |fresh: bool| {
                let mut net = QNet::new(
                    QNetConfig {
                        input_dim: table.items()[0].universe(),
                        hidden: cfg.hidden.clone(),
                        actions: 31,
                        dueling: false,
                    },
                    3,
                );
                let mut target = net.clone();
                let mut opt = Adam::new(cfg.lr);
                let mut replay = ReplayBuffer::new(48);
                let mut rng = StdRng::seed_from_u64(1);
                let mut scratch = BatchScratch::new(&net);
                let (mut losses, mut computed, mut pushes) = (Vec::new(), 0, 0);
                let mut buf = Vec::new();
                for step in 0..60 {
                    let item = &table.items()[step % table.len()];
                    let executed: Vec<ModelId> = (0..1 + step % 7)
                        .map(|k| ModelId(((step * 5 + k * 13) % 30) as u8))
                        .collect();
                    buf.clear();
                    pushes += outcome_transitions(item, &executed, &cfg.reward, 30, true, &mut buf);
                    buf.drain(..).for_each(|t| replay.push(t));
                    if fresh {
                        scratch = BatchScratch::new(&net);
                    }
                    losses.push(learn_step_batched(
                        &mut net,
                        &target,
                        &mut opt,
                        &replay,
                        &cfg,
                        &Huber::default(),
                        &mut rng,
                        &mut scratch,
                    ));
                    computed += scratch.target_rows.missing.len();
                    if step % 5 == 4 {
                        target.copy_from(&net);
                    }
                }
                let weights: Vec<u32> =
                    net.tensors().concat().iter().map(|w| w.to_bits()).collect();
                let losses: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
                (losses, weights, computed, pushes)
            };
            let (memo_losses, memo_weights, memo_computed, pushes) = run(false);
            let (fresh_losses, fresh_weights, fresh_computed, _) = run(true);
            assert!(pushes > 3 * 48, "the ring must wrap: {pushes} pushes");
            assert!(
                memo_computed < fresh_computed,
                "{algo}: the memo was never hit ({memo_computed} rows computed)"
            );
            assert_eq!(memo_losses, fresh_losses, "{algo}: losses");
            assert_eq!(memo_weights, fresh_weights, "{algo}: weights");
        }
    }

    /// FNV-1a step over the bits of `xs`.
    fn fold<'a>(h: u64, xs: impl IntoIterator<Item = &'a f32>) -> u64 {
        let mix = |h: u64, x: &f32| (h ^ u64::from(x.to_bits())).wrapping_mul(0x100_0000_01b3);
        xs.into_iter().fold(h, mix)
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

    /// Pins a training run long enough for Adam's first moments on idle
    /// first-layer rows to decay into the subnormal range (≈750 steps
    /// idle; 809 of this run's 1 564 learn steps see subnormal moments),
    /// which `golden_digest`'s ~400-step runs never reach: the weights and
    /// episode rewards of a DQN `train()` at `fast_test` width.
    #[test]
    fn long_run_golden_digest() {
        let table = fixture();
        let cfg = TrainConfig {
            episodes: 360,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, stats) = train(table.items(), 30, &cfg);
        assert!(
            stats.learn_steps >= 1500,
            "{} learn steps",
            stats.learn_steps
        );
        let h = agent
            .net
            .tensors()
            .into_iter()
            .fold(0xcbf2_9ce4_8422_2325, fold);
        let h = fold(h, &stats.episode_rewards);
        assert_eq!(
            h, 0xa7db_38ef_e2e9_3789,
            "long-run trainer digest {h:#018x}"
        );
    }
}
