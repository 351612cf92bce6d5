//! Online adaptation: the training-loop half of a *serving* system.
//!
//! The batch trainer ([`crate::trainer::train`]) owns its environment and
//! rolls episodes itself. A serving front-end cannot: episodes happen on
//! worker threads (each labeled request is one episode prefix), and the
//! learner only sees their *outcomes* after the fact. This module closes
//! that loop with three pieces:
//!
//! * [`AgentSnapshot`] — an immutable, generation-stamped export of agent
//!   weights. Snapshots are what a hot-swap publishes: predict paths pin
//!   one `Arc<AgentSnapshot>` per batch, so a concurrent re-publish can
//!   never tear a forward pass.
//! * [`outcome_transitions`] — the outcome→transition builder: replays the
//!   labeling MDP over the model sequence a scheduler actually executed,
//!   reconstructing the Eq. (3) rewards and sparse states the batch
//!   trainer would have seen, terminated by the END action (the scheduler
//!   stopping *is* the END decision).
//! * [`OnlineTrainer`] — a trainer-step API over an externally fed replay:
//!   absorb outcomes, run [`learn_step_batched`] minibatches on a cloned
//!   network, export snapshots. All randomness flows from the configured
//!   seed — no ambient RNG state — so an adaptation run is reproducible
//!   given the same outcome sequence.

use crate::env::LabelingEnv;
use crate::replay::{ReplayBuffer, Transition};
use crate::trainer::{learn_step_batched, BatchScratch, TrainConfig, TrainedAgent};
use ams_data::ItemTruth;
use ams_models::ModelId;
use ams_nn::{Adam, Huber, InferScratch, QInfer, QNet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// An immutable, generation-stamped export of a trained agent, together
/// with the inference view ([`QInfer`]) of its network.
///
/// Generations are assigned by the publisher (monotonically increasing;
/// the pre-adaptation weights are generation 0). The snapshot is plain
/// data: cloning the `Arc` that wraps it is the only synchronization a
/// reader needs, and the weights inside never mutate — which is what lets
/// the view be built once, by whoever constructs the snapshot (the
/// trainer thread, for a hot-swap), and then only read by the predict
/// path. The agent is private so the view can never describe other
/// weights than the ones beside it.
#[derive(Debug, Clone)]
pub struct AgentSnapshot {
    agent: TrainedAgent,
    infer: QInfer,
    /// Publisher-assigned generation counter.
    pub generation: u64,
}

impl AgentSnapshot {
    /// Freeze `agent` as generation `generation`, building its view.
    pub fn new(agent: TrainedAgent, generation: u64) -> Self {
        let infer = QInfer::new(&agent.net);
        Self {
            agent,
            infer,
            generation,
        }
    }

    /// The initial (generation 0) snapshot of an agent.
    pub fn initial(agent: TrainedAgent) -> Self {
        Self::new(agent, 0)
    }

    /// The exported agent (weights + metadata).
    pub fn agent(&self) -> &TrainedAgent {
        &self.agent
    }

    /// Q values over *models only* (END dropped) for a sparse labeling
    /// state, through the inference kernel: bit-identical to
    /// `agent().net.forward`, allocation-free given a reused `scratch`.
    /// `out.len()` must be the agent's `num_models`.
    pub fn model_q_into(&self, state_sparse: &[u32], scratch: &mut InferScratch, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.agent.num_models);
        self.infer
            .q_into(&self.agent.net, state_sparse, scratch, out);
    }
}

/// Replay the labeling MDP over the model sequence a scheduler executed
/// on `item`, reconstructing the transitions a behaviour policy that chose
/// exactly those models would have generated.
///
/// `next_action` is filled with the action actually taken next (the
/// on-policy trace DeepSARSA needs). When `use_end_action` is set and the
/// episode did not already terminate by exhausting every model, a final
/// END transition is appended: a scheduler stopping early (deadline hit,
/// no positive predicted value left) is precisely the END decision of
/// §IV-B, so served outcomes teach the stop action too.
///
/// Models outside the zoo range or repeated in `executed` are skipped
/// defensively (schedulers never produce them; a corrupted tap must not
/// poison the learner).
pub fn outcome_transitions(
    item: &ItemTruth,
    executed: &[ModelId],
    cfg: &crate::env::RewardConfig,
    num_models: usize,
    use_end_action: bool,
    out: &mut Vec<Transition>,
) -> usize {
    let mut env = LabelingEnv::new(item, cfg, num_models, use_end_action);
    let mut sparse: Vec<u32> = Vec::new();
    env.state().write_sparse(&mut sparse);
    let mut state: Arc<[u32]> = Arc::from(&sparse[..]);
    let mut pushed = 0usize;

    // The action sequence actually taken: the executed models (filtered to
    // the available set), then END when the episode stopped early.
    let actions: Vec<usize> = executed
        .iter()
        .map(|m| m.index())
        .filter(|&a| a < num_models)
        .collect();
    for (k, &action) in actions.iter().enumerate() {
        if env.available_mask() >> action & 1 == 0 {
            continue; // duplicate in a corrupted tap; skip defensively
        }
        let step = env.step(action);
        env.state().write_sparse(&mut sparse);
        let next_state: Arc<[u32]> = Arc::from(&sparse[..]);
        let next_avail = env.available_mask();
        // The action taken at next_state is the following executed model,
        // or END when the scheduler stopped after this one.
        let next_action = if step.done {
            0
        } else {
            actions
                .get(k + 1)
                .copied()
                .filter(|&a| a < num_models)
                .unwrap_or(env.end_action())
        };
        out.push(Transition {
            state,
            action: action as u8,
            reward: step.reward,
            next_state: Arc::clone(&next_state),
            next_avail,
            next_action: next_action as u8,
            done: step.done,
        });
        pushed += 1;
        state = next_state;
        if step.done {
            return pushed;
        }
    }

    if use_end_action && !env.is_done() {
        let step = env.step(env.end_action());
        env.state().write_sparse(&mut sparse);
        let next_state: Arc<[u32]> = Arc::from(&sparse[..]);
        out.push(Transition {
            state,
            action: env.end_action() as u8,
            reward: step.reward,
            next_state,
            next_avail: env.available_mask(),
            next_action: 0,
            done: true,
        });
        pushed += 1;
    }
    pushed
}

/// Discount factor of the online learner (see [`TrainConfig::new`] for why
/// it is near 0).
const GAMMA: f32 = 0.1;
/// Replay capacity in transitions; old experience ages out.
const REPLAY_CAP: usize = 8192;
/// Hard target-network sync period, in learn steps.
const TARGET_SYNC: usize = 100;

/// Knobs of an [`OnlineTrainer`]. The action space, algorithm, and reward
/// function are inherited from the seed agent, not configured here — an
/// online learner must match the network it continues from. The discount,
/// replay capacity and target-sync period are the constants `GAMMA`,
/// `REPLAY_CAP` and `TARGET_SYNC`.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Minibatch size per learn step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Transitions required before the first learn step.
    pub warmup: usize,
    /// Seed for minibatch sampling — the only randomness in the loop.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            batch: 32,
            lr: 1e-3,
            warmup: 64,
            seed: 0,
        }
    }
}

/// A trainer-step API over an externally fed replay buffer.
///
/// Owns a clone of the seed agent's network (the serving snapshot is
/// never trained in place), a target network, the optimizer, the replay
/// buffer, and a seeded RNG. The caller decides *when* to absorb
/// outcomes, step, and export — this type only guarantees that given the
/// same call sequence it produces the same weights.
pub struct OnlineTrainer {
    net: QNet,
    target: QNet,
    opt: Adam,
    replay: ReplayBuffer,
    scratch: BatchScratch,
    rng: StdRng,
    cfg: TrainConfig,
    num_models: usize,
    use_end_action: bool,
    steps: u64,
    transitions: u64,
}

impl OnlineTrainer {
    /// A trainer continuing from `agent` under `cfg`.
    pub fn new(agent: &TrainedAgent, cfg: &OnlineConfig) -> Self {
        let use_end_action = agent.net.actions() > agent.num_models;
        // learn_step_batched reads algo/gamma/batch from a TrainConfig;
        // build one around the online knobs (episode/ε fields are unused
        // by the step API but kept coherent).
        let train_cfg = TrainConfig {
            gamma: GAMMA,
            lr: cfg.lr,
            batch: cfg.batch.max(1),
            replay_cap: REPLAY_CAP,
            warmup: cfg.warmup,
            target_sync: TARGET_SYNC,
            seed: cfg.seed,
            use_end_action,
            reward: agent.reward.clone(),
            ..TrainConfig::new(agent.algo)
        };
        Self {
            net: agent.net.clone(),
            target: agent.net.clone(),
            opt: Adam::new(cfg.lr),
            replay: ReplayBuffer::new(REPLAY_CAP),
            scratch: BatchScratch::new(&agent.net),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg: train_cfg,
            num_models: agent.num_models,
            use_end_action,
            steps: 0,
            transitions: 0,
        }
    }

    /// Convert one served outcome into transitions and feed the replay.
    /// Returns the number of transitions absorbed.
    pub fn absorb(&mut self, item: &ItemTruth, executed: &[ModelId]) -> usize {
        let mut buf = Vec::new();
        let n = outcome_transitions(
            item,
            executed,
            &self.cfg.reward,
            self.num_models,
            self.use_end_action,
            &mut buf,
        );
        for t in buf {
            self.replay.push(t);
        }
        self.transitions += n as u64;
        n
    }

    /// Whether enough experience has accumulated to learn.
    pub fn ready(&self) -> bool {
        self.replay.len() >= self.cfg.warmup.max(self.cfg.batch)
    }

    /// One minibatch gradient step; `None` before warmup. Syncs the
    /// target network every `TARGET_SYNC` steps.
    pub fn learn_step(&mut self) -> Option<f32> {
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
            &mut self.rng,
            &mut self.scratch,
        );
        self.steps += 1;
        if self.steps.is_multiple_of(self.cfg.target_sync as u64) {
            self.target.copy_from(&self.net);
        }
        Some(loss)
    }

    /// Learn steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Transitions absorbed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Export the current weights as a snapshot stamped `generation`. The
    /// snapshot's inference view is built here, on the caller's (the
    /// trainer's) thread, so a reader that pins the snapshot pays nothing.
    pub fn export(&self, generation: u64) -> AgentSnapshot {
        AgentSnapshot::new(
            TrainedAgent {
                net: self.net.clone(),
                algo: self.cfg.algo,
                num_models: self.num_models,
                reward: self.cfg.reward.clone(),
            },
            generation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::env::RewardConfig;
    use crate::trainer::train;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;

    fn fixture() -> TruthTable {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 24, 11);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    }

    fn seed_agent(table: &TruthTable) -> TrainedAgent {
        let cfg = TrainConfig {
            episodes: 12,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        train(table.items(), 30, &cfg).0
    }

    #[test]
    fn outcome_transitions_match_env_replay() {
        let table = fixture();
        let item = table.item(0);
        let cfg = RewardConfig::default();
        let executed = [ModelId(3), ModelId(7), ModelId(0)];
        let mut out = Vec::new();
        let n = outcome_transitions(item, &executed, &cfg, 30, true, &mut out);
        // 3 model steps + the appended END transition.
        assert_eq!(n, 4);
        assert_eq!(out.len(), 4);
        // Rewards agree with a manual env replay.
        let mut env = LabelingEnv::new(item, &cfg, 30, true);
        for (k, &m) in executed.iter().enumerate() {
            let step = env.step(m.index());
            assert_eq!(out[k].reward, step.reward, "step {k}");
            assert_eq!(out[k].action, m.index() as u8);
            assert!(!out[k].done);
        }
        // On-policy chaining: each next_action is the following action.
        assert_eq!(out[0].next_action, 7);
        assert_eq!(out[1].next_action, 0);
        assert_eq!(out[2].next_action, 30, "stop is the END action");
        let end = &out[3];
        assert_eq!(end.action, 30);
        assert_eq!(end.reward, cfg.end_reward);
        assert!(end.done);
        // States chain: one step's next_state is the next step's state.
        for w in out.windows(2) {
            assert_eq!(&*w[0].next_state, &*w[1].state);
        }
    }

    #[test]
    fn outcome_transitions_skip_corrupt_sequences() {
        let table = fixture();
        let item = table.item(1);
        let cfg = RewardConfig::default();
        // Duplicate and out-of-range entries are dropped, not fatal.
        let executed = [ModelId(2), ModelId(2), ModelId(63)];
        let mut out = Vec::new();
        let n = outcome_transitions(item, &executed, &cfg, 30, true, &mut out);
        assert_eq!(n, 2); // model 2 once + END
        assert_eq!(out[0].action, 2);
        assert_eq!(out[1].action, 30);
    }

    #[test]
    fn empty_outcome_yields_lone_end_transition() {
        let table = fixture();
        let cfg = RewardConfig::default();
        let mut out = Vec::new();
        let n = outcome_transitions(table.item(2), &[], &cfg, 30, true, &mut out);
        assert_eq!(n, 1);
        assert!(out[0].done);
        assert_eq!(out[0].action, 30);
        // Without the END action an empty outcome carries no experience.
        out.clear();
        let n = outcome_transitions(table.item(2), &[], &cfg, 30, false, &mut out);
        assert_eq!(n, 0);
    }

    #[test]
    fn trainer_warms_up_then_steps_and_syncs() {
        let table = fixture();
        let agent = seed_agent(&table);
        let cfg = OnlineConfig {
            warmup: 16,
            batch: 8,
            ..OnlineConfig::default()
        };
        let mut tr = OnlineTrainer::new(&agent, &cfg);
        assert!(tr.learn_step().is_none(), "no step before warmup");
        let executed: Vec<ModelId> = (0..6).map(ModelId).collect();
        let mut absorbed = 0;
        for i in 0..4 {
            absorbed += tr.absorb(table.item(i), &executed);
        }
        assert_eq!(absorbed as u64, tr.transitions());
        assert!(tr.ready());
        for _ in 0..5 {
            let loss = tr.learn_step().expect("past warmup");
            assert!(loss.is_finite());
        }
        assert_eq!(tr.steps(), 5);
    }

    #[test]
    fn export_preserves_weights_and_metadata() {
        let table = fixture();
        let agent = seed_agent(&table);
        let tr = OnlineTrainer::new(&agent, &OnlineConfig::default());
        let snap = tr.export(7);
        assert_eq!(snap.generation, 7);
        assert_eq!(snap.agent.num_models, agent.num_models);
        assert_eq!(snap.agent.algo, agent.algo);
        // Before any learn step the export equals the seed agent.
        let probe = [4u32, 90, 700];
        let a = agent.q_values(&probe);
        let b = snap.agent.q_values(&probe);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-7);
        }
        let init = AgentSnapshot::initial(agent);
        assert_eq!(init.generation, 0);
    }

    #[test]
    fn training_moves_weights_and_is_deterministic_under_seed() {
        let table = fixture();
        let agent = seed_agent(&table);
        let cfg = OnlineConfig {
            warmup: 32,
            seed: 99,
            ..OnlineConfig::default()
        };
        let run = || {
            let mut tr = OnlineTrainer::new(&agent, &cfg);
            let executed: Vec<ModelId> = (0..8).map(ModelId).collect();
            let mut losses = Vec::new();
            for i in 0..table.len() {
                tr.absorb(table.item(i), &executed);
                if let Some(l) = tr.learn_step() {
                    losses.push(l);
                }
            }
            (tr.export(1), losses)
        };
        let (s1, l1) = run();
        let (s2, l2) = run();
        assert!(!l1.is_empty(), "learning must have started");
        assert_eq!(l1, l2, "seeded runs produce identical loss trajectories");
        let probe = [1u32, 50, 300];
        let q1 = s1.agent.q_values(&probe);
        let q2 = s2.agent.q_values(&probe);
        assert_eq!(q1, q2, "seeded runs produce identical weights");
        // And the weights actually moved off the seed agent.
        let q0 = agent.q_values(&probe);
        assert!(
            q1.iter().zip(&q0).any(|(a, b)| (a - b).abs() > 1e-9),
            "learn steps must change the network"
        );
    }
}
