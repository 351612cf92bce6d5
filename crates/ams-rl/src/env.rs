//! The labeling MDP (§IV of the paper).
//!
//! * **Observation**: the labeling state — a binary vector over the 1104
//!   labels, bit `i` set when label `i` has been output (at or above the
//!   value threshold) by an executed model. Encoded sparsely.
//! * **Actions**: one per model, plus an **END** action (index
//!   `num_models`) whose reward is 0 and which terminates the episode. END
//!   exists only for training (§IV-B); schedulers stop on resource
//!   exhaustion instead.
//! * **Reward** (Eq. 3): for a model whose execution yields new valuable
//!   labels `O'`, `r = ln(θ_m · Σ_{l∈O'} conf_l + 1)` under the default
//!   [`Smoothing::Log`]; a model yielding nothing new is punished with −1.

use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId};
use serde::{Deserialize, Serialize};

/// Reward smoothing applied to the new-label confidence mass (§IV-A
/// discusses log vs other smoothings; kept configurable for the ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Smoothing {
    /// `ln(θ · Σconf + 1)` — the paper's choice.
    Log,
    /// Mean confidence of new labels, scaled by θ.
    Mean,
    /// Raw sum `θ · Σconf` (exhibits the label-count bias the paper warns
    /// about — a face-landmark model outputs up to 70 labels at once).
    Sum,
}

/// Reward-function configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Confidence threshold for a label to count as valuable.
    pub value_threshold: f32,
    /// Per-model priority θ_m (§IV-A / §VI-E). Empty means all-ones.
    pub theta: Vec<f32>,
    /// Smoothing of the new-label confidence mass.
    pub smoothing: Smoothing,
    /// Reward when a model outputs nothing new (the paper uses −1).
    pub punishment: f32,
    /// Reward of the END action (the paper uses 0).
    pub end_reward: f32,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            value_threshold: ams_data::truth::DEFAULT_VALUE_THRESHOLD,
            theta: Vec::new(),
            smoothing: Smoothing::Log,
            punishment: -1.0,
            end_reward: 0.0,
        }
    }
}

impl RewardConfig {
    /// θ for model `m` (1.0 when unset).
    pub fn theta_of(&self, m: ModelId) -> f32 {
        self.theta.get(m.index()).copied().unwrap_or(1.0)
    }

    /// A config with one model's θ raised (the §VI-E experiment).
    pub fn with_theta(mut self, m: ModelId, theta: f32, num_models: usize) -> Self {
        if self.theta.len() < num_models {
            self.theta.resize(num_models, 1.0);
        }
        self.theta[m.index()] = theta;
        self
    }
}

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Reward of the action just taken.
    pub reward: f32,
    /// Whether the episode terminated (END taken, or all models executed).
    pub done: bool,
}

/// One episode of the labeling MDP over a single data item.
#[derive(Debug, Clone)]
pub struct LabelingEnv<'a> {
    item: &'a ItemTruth,
    cfg: &'a RewardConfig,
    num_models: usize,
    use_end_action: bool,
    state: LabelSet,
    executed: u64,
    steps: usize,
    finished: bool,
}

impl<'a> LabelingEnv<'a> {
    /// Fresh episode on `item`.
    pub fn new(
        item: &'a ItemTruth,
        cfg: &'a RewardConfig,
        num_models: usize,
        use_end_action: bool,
    ) -> Self {
        assert!(num_models <= 63, "availability mask is u64");
        Self {
            item,
            cfg,
            num_models,
            use_end_action,
            state: LabelSet::new(item.universe()),
            executed: 0,
            steps: 0,
            finished: false,
        }
    }

    /// Index of the END action.
    pub fn end_action(&self) -> usize {
        self.num_models
    }

    /// The current labeling state as sparse active-label indices.
    pub fn state_sparse(&self) -> Vec<u32> {
        self.state.to_sparse()
    }

    /// The current labeling state set.
    pub fn state(&self) -> &LabelSet {
        &self.state
    }

    /// Bitmask of available actions: unexecuted models, plus END if enabled.
    pub fn available_mask(&self) -> u64 {
        if self.finished {
            return 0;
        }
        let models = !self.executed & ((1u64 << self.num_models) - 1);
        if self.use_end_action {
            models | (1u64 << self.num_models)
        } else {
            models
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether the episode has terminated.
    pub fn is_done(&self) -> bool {
        self.finished
    }

    /// Recall rate of the value recovered so far.
    pub fn recall(&self) -> f64 {
        if self.item.total_value <= 0.0 {
            return 1.0;
        }
        let recovered: f64 = self
            .item
            .valuable
            .iter()
            .filter(|&&(l, _)| self.state.contains(l))
            .map(|&(_, p)| f64::from(p))
            .sum();
        recovered / self.item.total_value
    }

    /// Take `action`; returns the reward and termination flag.
    ///
    /// # Panics
    /// Panics on unavailable actions (executed models, out-of-range ids,
    /// or any action after termination).
    pub fn step(&mut self, action: usize) -> StepResult {
        assert!(!self.finished, "episode already finished");
        assert!(
            self.available_mask() >> action & 1 == 1,
            "action {action} unavailable (mask {:b})",
            self.available_mask()
        );
        self.steps += 1;
        if self.use_end_action && action == self.end_action() {
            self.finished = true;
            return StepResult {
                reward: self.cfg.end_reward,
                done: true,
            };
        }

        let m = ModelId(action as u8);
        self.executed |= 1 << action;

        // O'(m, d): this model's valuable detections not yet in the state.
        let t = self.cfg.value_threshold;
        let mut new_conf_sum = 0.0f64;
        let mut new_count = 0usize;
        for d in self.item.output(m).valuable(t) {
            if !self.state.contains(d.label) {
                new_conf_sum += f64::from(d.confidence);
                new_count += 1;
            }
        }
        self.item.apply(&mut self.state, m, t);

        let reward = if new_count == 0 {
            self.cfg.punishment
        } else {
            let theta = f64::from(self.cfg.theta_of(m));
            match self.cfg.smoothing {
                Smoothing::Log => ((theta * new_conf_sum) + 1.0).ln() as f32,
                Smoothing::Mean => (theta * new_conf_sum / new_count as f64) as f32,
                Smoothing::Sum => (theta * new_conf_sum) as f32,
            }
        };

        let all_done = self.executed == (1u64 << self.num_models) - 1;
        if all_done {
            self.finished = true;
        }
        StepResult {
            reward,
            done: self.finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;

    fn table() -> TruthTable {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 12, 5);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    }

    #[test]
    fn fresh_env_has_empty_state_and_full_mask() {
        let t = table();
        let cfg = RewardConfig::default();
        let env = LabelingEnv::new(t.item(0), &cfg, 30, true);
        assert!(env.state_sparse().is_empty());
        assert_eq!(env.available_mask().count_ones(), 31);
        assert!(!env.is_done());
    }

    #[test]
    fn end_action_terminates_with_zero_reward() {
        let t = table();
        let cfg = RewardConfig::default();
        let mut env = LabelingEnv::new(t.item(0), &cfg, 30, true);
        let r = env.step(30);
        assert_eq!(
            r,
            StepResult {
                reward: 0.0,
                done: true
            }
        );
        assert_eq!(env.available_mask(), 0);
    }

    #[test]
    fn duplicate_model_unavailable() {
        let t = table();
        let cfg = RewardConfig::default();
        let mut env = LabelingEnv::new(t.item(0), &cfg, 30, true);
        env.step(3);
        assert_eq!(env.available_mask() >> 3 & 1, 0);
    }

    #[test]
    #[should_panic(expected = "unavailable")]
    fn stepping_executed_model_panics() {
        let t = table();
        let cfg = RewardConfig::default();
        let mut env = LabelingEnv::new(t.item(0), &cfg, 30, true);
        env.step(3);
        env.step(3);
    }

    #[test]
    fn rewards_match_eq3() {
        let t = table();
        let cfg = RewardConfig::default();
        for idx in 0..t.len() {
            let item = t.item(idx);
            let mut env = LabelingEnv::new(item, &cfg, 30, true);
            for a in 0..30usize {
                let m = ModelId(a as u8);
                let expected_new = item.new_label_confidence(env.state(), m, 0.5);
                let r = env.step(a);
                if expected_new > 0.0 {
                    let want = (expected_new + 1.0).ln() as f32;
                    assert!((r.reward - want).abs() < 1e-5, "item {idx} model {a}");
                    assert!(r.reward > 0.0);
                } else {
                    assert_eq!(r.reward, -1.0, "item {idx} model {a}");
                }
            }
            assert!(env.is_done(), "all models executed terminates");
            assert!((env.recall() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn second_same_task_model_usually_punished() {
        // Running both flagship and compact place classifiers back to back:
        // the second usually adds nothing valuable that is new.
        let t = table();
        let cfg = RewardConfig::default();
        let mut punished = 0;
        let mut n = 0;
        for idx in 0..t.len() {
            let mut env = LabelingEnv::new(t.item(idx), &cfg, 30, true);
            env.step(3); // place-cls-flagship
            let r = env.step(5); // place-cls-compact
            n += 1;
            if r.reward < 0.0 {
                punished += 1;
            }
        }
        assert!(
            punished * 2 > n,
            "redundant model should usually be punished ({punished}/{n})"
        );
    }

    #[test]
    fn theta_scales_reward() {
        let t = table();
        let base = RewardConfig::default();
        let boosted = RewardConfig::default().with_theta(ModelId(6), 10.0, 30);
        // find an item where face detection (model 6) produces value
        for idx in 0..t.len() {
            let item = t.item(idx);
            if item.model_value[6] > 0.0 {
                let mut e1 = LabelingEnv::new(item, &base, 30, true);
                let mut e2 = LabelingEnv::new(item, &boosted, 30, true);
                let r1 = e1.step(6).reward;
                let r2 = e2.step(6).reward;
                assert!(r2 > r1, "θ=10 must increase reward ({r2} vs {r1})");
                return;
            }
        }
        panic!("no item with face-detection value in fixture");
    }

    #[test]
    fn smoothing_orderings() {
        let t = table();
        // Find an item/model pair with several new labels; Sum ≥ Log and
        // Sum ≥ Mean there.
        for idx in 0..t.len() {
            let item = t.item(idx);
            for a in 0..30usize {
                let out = item.output(ModelId(a as u8));
                if out.valuable(0.5).count() >= 3 {
                    let mk = |s: Smoothing| RewardConfig {
                        smoothing: s,
                        ..Default::default()
                    };
                    let cfgs = (mk(Smoothing::Sum), mk(Smoothing::Log), mk(Smoothing::Mean));
                    let mut e_sum = LabelingEnv::new(item, &cfgs.0, 30, true);
                    let mut e_log = LabelingEnv::new(item, &cfgs.1, 30, true);
                    let mut e_mean = LabelingEnv::new(item, &cfgs.2, 30, true);
                    let rs = e_sum.step(a).reward;
                    let rl = e_log.step(a).reward;
                    let rm = e_mean.step(a).reward;
                    assert!(rs >= rl && rs >= rm, "sum dominates: {rs} {rl} {rm}");
                    assert!(rm <= 1.0, "mean of confidences bounded by 1");
                    return;
                }
            }
        }
        panic!("no multi-label output in fixture");
    }

    #[test]
    fn no_end_action_mode() {
        let t = table();
        let cfg = RewardConfig::default();
        let env = LabelingEnv::new(t.item(0), &cfg, 30, false);
        assert_eq!(env.available_mask().count_ones(), 30);
    }
}
