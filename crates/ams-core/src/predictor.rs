//! Model-value prediction: the interface between the learned agent and the
//! scheduling algorithms.

use ams_data::ItemTruth;
use ams_models::LabelSet;
use ams_nn::InferScratch;
use ams_rl::{AgentSnapshot, TrainedAgent};
use std::sync::{Arc, Mutex};

/// Predicts the value of executing each model given the current labeling
/// state (Fig. 3's "model value prediction" component).
///
/// Implementations that peek at the ground truth (`item`) are *oracles* and
/// only legitimate for upper-bound baselines; the deployable implementation
/// is [`AgentPredictor`], which uses only the labeling state.
pub trait ValuePredictor: Send + Sync {
    /// Number of models scored.
    fn num_models(&self) -> usize;

    /// Predicted value per model, written into `out`
    /// (`out.len() == num_models`). Scores for already-executed models are
    /// ignored by schedulers.
    ///
    /// This is the scheduling hot path: it runs once per decision step per
    /// item, so implementations keep it allocation-free and schedulers
    /// reuse one `out` buffer across the whole item.
    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]);

    /// Predicted value per model as a fresh vector (convenience wrapper
    /// over [`ValuePredictor::predict_into`]).
    fn predict(&self, state: &LabelSet, item: &ItemTruth) -> Vec<f32> {
        let mut out = vec![0.0; self.num_models()];
        self.predict_into(state, item, &mut out);
        out
    }

    /// Short display name for experiment output.
    fn name(&self) -> &'static str;
}

/// Per-call scratch of the agent predictors: the sparse state encoding
/// and the inference kernel's buffers, both reused across predictions.
#[derive(Default)]
struct AgentScratch {
    sparse: Vec<u32>,
    infer: InferScratch,
}

/// The one agent forward pass behind [`AgentPredictor`] and
/// [`SnapshotPredictor`]: check a scratch out of `pool`, encode `state`,
/// run the snapshot's inference kernel (bit-identical to the training
/// path's `QNet::forward`, which is not called at serve time) straight
/// into `out`, and return the scratch. The lock is held only for the
/// pop/push, not for the network forward, so concurrent callers rarely
/// contend.
fn pooled_q_values(
    pool: &Mutex<Vec<AgentScratch>>,
    snapshot: &AgentSnapshot,
    state: &LabelSet,
    out: &mut [f32],
) {
    let mut scratch = pool.lock().expect("scratch pool").pop().unwrap_or_default();
    state.write_sparse(&mut scratch.sparse);
    snapshot.model_q_into(&scratch.sparse, &mut scratch.infer, out);
    pool.lock().expect("scratch pool").push(scratch);
}

/// The deployable predictor: a trained DRL agent's Q values.
///
/// The agent is frozen into an [`AgentSnapshot`] at construction (its
/// inference view is built once, there). Forward passes run against a
/// small pool of reusable scratch buffers, so prediction allocates
/// nothing in steady state and concurrent callers (the serving workers of
/// `ams-serve`, which share one scheduler) each check out their own
/// scratch instead of serializing on a shared one.
pub struct AgentPredictor {
    snapshot: AgentSnapshot,
    scratch_pool: Mutex<Vec<AgentScratch>>,
}

impl AgentPredictor {
    /// Wrap a trained agent.
    pub fn new(agent: TrainedAgent) -> Self {
        Self {
            snapshot: AgentSnapshot::initial(agent),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Access the wrapped agent.
    pub fn agent(&self) -> &TrainedAgent {
        self.snapshot.agent()
    }
}

impl ValuePredictor for AgentPredictor {
    fn num_models(&self) -> usize {
        self.snapshot.agent().num_models
    }

    fn predict_into(&self, state: &LabelSet, _item: &ItemTruth, out: &mut [f32]) {
        pooled_q_values(&self.scratch_pool, &self.snapshot, state, out);
    }

    fn name(&self) -> &'static str {
        "drl-agent"
    }
}

/// A predictor over a pinned, generation-stamped weight snapshot — the
/// serve-time face of online adaptation.
///
/// Unlike [`AgentPredictor`], which owns its agent for the process
/// lifetime, this predictor reads from an [`AgentSnapshot`] behind an
/// `Arc` and can be repointed at a newer generation with
/// [`SnapshotPredictor::set_snapshot`]. The swap takes `&mut self`: a
/// predict in progress holds `&self`, so the borrow checker — not a lock —
/// guarantees a forward pass can never observe half-old, half-new weights.
/// Workers pin one snapshot per batch (one generation check, then every
/// predict in the batch sees the same coherent weights) and keep their
/// scratch buffers across swaps; the snapshot arrives with its inference
/// view already built by the publisher, so repointing is a pointer store.
pub struct SnapshotPredictor {
    snapshot: Arc<AgentSnapshot>,
    scratch_pool: Mutex<Vec<AgentScratch>>,
}

impl SnapshotPredictor {
    /// A predictor pinned to `snapshot`.
    pub fn new(snapshot: Arc<AgentSnapshot>) -> Self {
        Self {
            snapshot,
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Generation of the pinned snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<AgentSnapshot> {
        &self.snapshot
    }

    /// Repoint at a newer snapshot, keeping the scratch buffers. Takes
    /// `&mut self` so no concurrent predict can straddle the swap.
    pub fn set_snapshot(&mut self, snapshot: Arc<AgentSnapshot>) {
        self.snapshot = snapshot;
    }
}

impl ValuePredictor for SnapshotPredictor {
    fn num_models(&self) -> usize {
        self.snapshot.agent().num_models
    }

    fn predict_into(&self, state: &LabelSet, _item: &ItemTruth, out: &mut [f32]) {
        pooled_q_values(&self.scratch_pool, &self.snapshot, state, out);
    }

    fn name(&self) -> &'static str {
        "drl-agent-snapshot"
    }
}

/// Oracle: the *true marginal value* of each model given the state.
/// Used to realize the optimal\* upper bound of §V-C.
pub struct OraclePredictor {
    num_models: usize,
    threshold: f32,
}

impl OraclePredictor {
    /// Oracle over `num_models` models at the given value threshold.
    pub fn new(num_models: usize, threshold: f32) -> Self {
        Self {
            num_models,
            threshold,
        }
    }
}

impl ValuePredictor for OraclePredictor {
    fn num_models(&self) -> usize {
        self.num_models
    }

    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        for (m, o) in out.iter_mut().enumerate() {
            *o = item.marginal_value(state, ams_models::ModelId(m as u8), self.threshold) as f32;
        }
    }

    fn name(&self) -> &'static str {
        "oracle-marginal"
    }
}

/// Oracle with *static* per-model values (ignores overlap): the knowledge
/// the paper's "optimal policy" baseline of §VI-B uses (models sorted by
/// their own true output value).
pub struct StaticValuePredictor {
    num_models: usize,
}

impl StaticValuePredictor {
    /// Static oracle over `num_models` models.
    pub fn new(num_models: usize) -> Self {
        Self { num_models }
    }
}

impl ValuePredictor for StaticValuePredictor {
    fn num_models(&self) -> usize {
        self.num_models
    }

    fn predict_into(&self, _state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(&item.model_value) {
            *o = v as f32;
        }
    }

    fn name(&self) -> &'static str {
        "oracle-static"
    }
}

/// Uninformed predictor: identical value for every model. Under Algorithm 1
/// this degenerates to cheapest-first; mainly useful in tests.
pub struct UniformPredictor {
    num_models: usize,
}

impl UniformPredictor {
    /// Uniform scores over `num_models` models.
    pub fn new(num_models: usize) -> Self {
        Self { num_models }
    }
}

impl ValuePredictor for UniformPredictor {
    fn num_models(&self) -> usize {
        self.num_models
    }

    fn predict_into(&self, _state: &LabelSet, _item: &ItemTruth, out: &mut [f32]) {
        out.fill(1.0);
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::{LabelSet, ModelId, ModelZoo};

    fn fixture() -> TruthTable {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::MirFlickr25, 10, 3);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    }

    #[test]
    fn oracle_matches_marginal_value() {
        let t = fixture();
        let item = t.item(0);
        let oracle = OraclePredictor::new(30, 0.5);
        let state = LabelSet::new(item.universe());
        let p = oracle.predict(&state, item);
        for (m, &got) in p.iter().enumerate() {
            let want = item.marginal_value(&state, ModelId(m as u8), 0.5) as f32;
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn oracle_decays_as_state_fills() {
        let t = fixture();
        let item = t.item(0);
        let oracle = OraclePredictor::new(30, 0.5);
        let mut state = LabelSet::new(item.universe());
        let before: f32 = oracle.predict(&state, item).iter().sum();
        // execute everything
        for m in 0..30 {
            item.apply(&mut state, ModelId(m), 0.5);
        }
        let after: f32 = oracle.predict(&state, item).iter().sum();
        assert_eq!(after, 0.0, "no marginal value left after full execution");
        assert!(before >= after);
    }

    #[test]
    fn static_predictor_is_state_independent() {
        let t = fixture();
        let item = t.item(1);
        let p = StaticValuePredictor::new(30);
        let empty = LabelSet::new(item.universe());
        let mut full = LabelSet::new(item.universe());
        for m in 0..30 {
            item.apply(&mut full, ModelId(m), 0.5);
        }
        assert_eq!(p.predict(&empty, item), p.predict(&full, item));
    }

    #[test]
    fn snapshot_predictor_matches_agent_predictor_and_swaps() {
        use ams_rl::{train, Algo, TrainConfig};
        let t = fixture();
        let cfg = TrainConfig {
            episodes: 8,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, _) = train(t.items(), 30, &cfg);
        let direct = AgentPredictor::new(agent.clone());
        let mut snap = SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(agent.clone())));
        assert_eq!(snap.generation(), 0);
        assert_eq!(snap.num_models(), 30);
        // Both predictors must equal the training path's forward bit for
        // bit: the inference kernel replaces it, it does not approximate it.
        let same = |agent: &TrainedAgent, state: &LabelSet, got: &[Vec<f32>]| {
            let mut sparse = Vec::new();
            state.write_sparse(&mut sparse);
            let mut cache = ams_nn::FwdCache::default();
            let want = agent
                .net
                .forward(ams_nn::Input::Sparse(&sparse), &mut cache);
            let bits = |q: &[f32]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for q in got {
                assert_eq!(bits(q), bits(&want[..agent.num_models]));
            }
        };
        let item = t.item(0);
        let mut state = LabelSet::new(item.universe());
        same(
            &agent,
            &state,
            &[direct.predict(&state, item), snap.predict(&state, item)],
        );
        item.apply(&mut state, ModelId(4), 0.5);
        same(
            &agent,
            &state,
            &[direct.predict(&state, item), snap.predict(&state, item)],
        );
        // Repointing at a newer generation changes what predicts.
        let cfg2 = TrainConfig {
            episodes: 8,
            seed: 5,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent2, _) = train(t.items(), 30, &cfg2);
        snap.set_snapshot(Arc::new(AgentSnapshot::new(agent2.clone(), 3)));
        assert_eq!(snap.generation(), 3);
        assert_ne!(
            direct.predict(&state, item),
            snap.predict(&state, item),
            "the swap took effect"
        );
        same(
            &agent2,
            &state,
            &[
                AgentPredictor::new(agent2.clone()).predict(&state, item),
                snap.predict(&state, item),
            ],
        );
    }

    #[test]
    fn uniform_predictor_scores_equal() {
        let t = fixture();
        let p = UniformPredictor::new(30);
        let state = LabelSet::new(1104);
        let scores = p.predict(&state, t.item(0));
        assert_eq!(scores, vec![1.0; 30]);
        assert_eq!(p.num_models(), 30);
    }
}
