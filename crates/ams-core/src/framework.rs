//! The user-facing facade: Fig. 3's
//! "prediction → scheduling → execution → state update" loop behind one
//! type.
//!
//! [`AdaptiveModelScheduler`] owns the zoo, the catalog and a value
//! predictor, and labels data items under a chosen [`Budget`]. In the paper
//! the execution step invokes real models on a GPU; here it consults the
//! simulated-inference substrate (`ams-data::infer`), which plays the same
//! role at zero cost — the scheduling logic is identical.

use crate::policies::serial_run;
use crate::predictor::ValuePredictor;
use crate::scheduler::deadline::deadline_run;
use crate::scheduler::deadline_memory::deadline_memory_run;
use crate::scheduler::{recall, ItemRun, QRow};
use ams_data::{ItemTruth, Scene};
use ams_models::{LabelCatalog, LabelId, ModelId, ModelZoo};

/// Resource constraint for labeling one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// No constraint: Q-greedy until no model predicts positive value.
    Unconstrained,
    /// Per-item deadline in milliseconds (Algorithm 1).
    Deadline {
        /// Time budget, ms.
        ms: u64,
    },
    /// Deadline + shared GPU memory pool (Algorithm 2).
    DeadlineMemory {
        /// Time budget, ms.
        ms: u64,
        /// Memory budget, MB.
        mem_mb: u32,
    },
}

/// A request's full serving fingerprint: the affinity signature and value
/// estimate produced by one top-k scan, plus a 64-bit hash of the item's
/// *complete* content so exact duplicates are detected — not merely items
/// that land in the same affinity cluster.
///
/// Two items with equal `content` hashes produce identical labeling
/// outcomes under the same scheduler and budget (labeling is a pure
/// function of the item's truth row), which is what lets a serving-side
/// result cache answer repeats without re-invoking any model. Distinct
/// items collide with probability ~2⁻⁶⁴ per pair; see PERF.md ("Label
/// cache") for the collision stance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Affinity signature: bitmask of the item's top-k models (routing key).
    pub signature: u64,
    /// Summed static value of the masked models (admission value estimate).
    pub value: f64,
    /// FNV-1a hash over the item's full content (exact-duplicate cache key).
    pub content: u64,
}

/// 64-bit FNV-1a over an item's full ground-truth content: scene id, every
/// model's detections, the valuable-label profile, and the per-model value
/// vector. Everything the labeling path can read flows into the hash, so
/// equal hashes mean (up to the ~2⁻⁶⁴ collision floor) equal labels.
pub fn content_hash(item: &ItemTruth) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(PRIME)
    }
    let mut h = mix(OFFSET, item.scene_id);
    for out in item.outputs() {
        h = mix(h, u64::from(out.model.0));
        h = mix(h, out.detections.len() as u64);
        for d in out.detections {
            h = mix(h, u64::from(d.label.0));
            h = mix(h, u64::from(d.confidence.to_bits()));
        }
    }
    h = mix(h, item.valuable.len() as u64);
    for &(label, profit) in &item.valuable {
        h = mix(h, u64::from(label.0));
        h = mix(h, u64::from(profit.to_bits()));
    }
    h = mix(h, item.total_value.to_bits());
    for &v in &item.model_value {
        h = mix(h, v.to_bits());
    }
    h
}

/// Result of labeling one data item.
#[derive(Debug, Clone)]
pub struct LabelingOutcome {
    /// Labels extracted (with confidences), sorted by label id.
    pub labels: Vec<(LabelId, f32)>,
    /// Models executed (completion order under parallel budgets).
    pub executed: Vec<ModelId>,
    /// Value of the extracted labels, `f(S, d)`.
    pub value: f64,
    /// Recall of the full-execution value.
    pub recall: f64,
    /// Virtual execution time consumed, ms.
    pub elapsed_ms: u64,
}

/// The adaptive model scheduling framework.
pub struct AdaptiveModelScheduler {
    zoo: ModelZoo,
    catalog: LabelCatalog,
    predictor: Box<dyn ValuePredictor>,
    value_threshold: f32,
    world_seed: u64,
}

impl AdaptiveModelScheduler {
    /// Assemble the framework.
    pub fn new(
        zoo: ModelZoo,
        predictor: Box<dyn ValuePredictor>,
        value_threshold: f32,
        world_seed: u64,
    ) -> Self {
        assert_eq!(
            predictor.num_models(),
            zoo.len(),
            "predictor/zoo size mismatch"
        );
        let catalog = zoo.catalog();
        Self {
            zoo,
            catalog,
            predictor,
            value_threshold,
            world_seed,
        }
    }

    /// The model zoo.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The label catalog.
    pub fn catalog(&self) -> &LabelCatalog {
        &self.catalog
    }

    /// The value predictor in use.
    pub fn predictor(&self) -> &dyn ValuePredictor {
        self.predictor.as_ref()
    }

    /// The item's *affinity signature*: a bitmask over the zoo of the
    /// `top_k` models whose own output is most valuable on this item
    /// ([`ItemTruth::model_value`]; ties broken toward the lower model
    /// index, models with zero static value skipped — nothing schedules
    /// them first).
    ///
    /// This is the cheap per-request fingerprint a serving router keys on:
    /// no predictor forward, no labeling work, just a top-k scan of the
    /// request's precomputed value profile. In a real deployment the
    /// profile would come from a lightweight scene classifier; in this
    /// reproduction the simulated request *is* its ground truth, and the
    /// static per-model values (the same knowledge the paper's "optimal
    /// policy" baseline sorts by) play that role. Crucially it is
    /// **item-discriminative even under the deployable state-only DRL
    /// predictor**, whose empty-state scores are identical for every item.
    ///
    /// Requests with equal signatures execute largely overlapping model
    /// sets, so routing equal signatures to the same shard coalesces
    /// bigger same-model batches. The signature is a pure function of the
    /// item: routing stays deterministic.
    pub fn affinity_signature(&self, item: &ItemTruth, top_k: usize) -> u64 {
        self.affinity_value_scan(item, top_k).0
    }

    /// The affinity signature *and* the summed static value of the masked
    /// models — the same top-k scan as [`affinity_signature`], returning
    /// the value it already computed along the way.
    ///
    /// This is the serving layer's per-request **value hook**: the returned
    /// sum is a cheap prediction of how much label value the request will
    /// yield (the models that would be scheduled first, weighted by what
    /// their output is worth on this item), available at admission time
    /// with no predictor forward and no labeling work. SLO-aware shedding
    /// uses it to decide *which* request to drop when overloaded — the
    /// economics MCAL frames as minimum-cost selection — so the value
    /// estimate comes for free with routing.
    ///
    /// [`affinity_signature`]: AdaptiveModelScheduler::affinity_signature
    pub fn affinity_value_scan(&self, item: &ItemTruth, top_k: usize) -> (u64, f64) {
        let n = self.zoo.len().min(64).min(item.model_value.len());
        let mut mask = 0u64;
        let mut value = 0.0f64;
        for _ in 0..top_k.min(n) {
            let mut best: Option<(usize, f64)> = None;
            for (m, &v) in item.model_value.iter().enumerate().take(n) {
                if mask >> m & 1 == 0 && v > 0.0 && best.map(|(_, bv)| v > bv).unwrap_or(true) {
                    best = Some((m, v));
                }
            }
            let Some((m, v)) = best else { break };
            mask |= 1 << m;
            value += v;
        }
        (mask, value)
    }

    /// The item's full [`Fingerprint`]: affinity signature + value estimate
    /// from one top-k scan, plus the full-content hash. This is the single
    /// per-request scan the serving front-end performs — routing, admission
    /// pricing, and the content-addressed result cache all key off the one
    /// returned struct, so the top-k scan runs exactly once per request.
    pub fn fingerprint(&self, item: &ItemTruth, top_k: usize) -> Fingerprint {
        let (signature, value) = self.affinity_value_scan(item, top_k);
        Fingerprint {
            signature,
            value,
            content: content_hash(item),
        }
    }

    /// Label a scene: simulates model execution on demand, then schedules.
    pub fn label_scene(&self, scene: &Scene, budget: Budget) -> LabelingOutcome {
        // The truth row for the scene *is* the set of all model outputs —
        // exactly what executing models on the item would yield. Built
        // directly: no scene clone, no one-element dataset or table.
        let item = ams_data::ItemTruth::build(
            &self.zoo,
            &self.catalog,
            scene,
            self.world_seed,
            self.value_threshold,
        );
        self.label_item(&item, budget)
    }

    /// Label a pre-executed ground-truth item under `budget`.
    pub fn label_item(&self, item: &ItemTruth, budget: Budget) -> LabelingOutcome {
        self.label_item_with(self.predictor.as_ref(), item, budget)
    }

    /// Label an item under `budget`, scoring models with a caller-supplied
    /// predictor instead of the framework's own.
    ///
    /// This is the hook online adaptation serves through: each worker pins
    /// a [`SnapshotPredictor`](crate::predictor::SnapshotPredictor) to one
    /// weight generation per batch and labels through it, so a concurrent
    /// hot-swap never tears an in-flight prediction. With
    /// `self.predictor()` as the argument this is exactly
    /// [`label_item`](AdaptiveModelScheduler::label_item).
    pub fn label_item_with(
        &self,
        predictor: &dyn ValuePredictor,
        item: &ItemTruth,
        budget: Budget,
    ) -> LabelingOutcome {
        let threshold = self.value_threshold;
        let run = match budget {
            Budget::Unconstrained => self.greedy_run(predictor, item),
            Budget::Deadline { ms } => deadline_run(predictor, &self.zoo, item, ms, threshold),
            Budget::DeadlineMemory { ms, mem_mb } => {
                deadline_memory_run(predictor, &self.zoo, item, ms, mem_mb, threshold)
            }
        };
        self.outcome(item, run)
    }

    /// Greedy by predicted value until no unexecuted model has positive
    /// predicted value (the "no resource constraint" mode of §V).
    fn greedy_run(&self, predictor: &dyn ValuePredictor, item: &ItemTruth) -> ItemRun {
        let n = self.zoo.len();
        let mut row = QRow::new(n);
        serial_run(
            item,
            &self.zoo,
            u64::MAX,
            self.value_threshold,
            |state, mask, _, _| {
                if mask.count_ones() as usize == n {
                    return None; // every model has run
                }
                let q = row.at(predictor, state, item);
                let mut best: Option<(usize, f32)> = None;
                for (m, &v) in q.iter().enumerate() {
                    if mask >> m & 1 == 0 && best.map(|(_, bv)| v > bv).unwrap_or(true) {
                        best = Some((m, v));
                    }
                }
                let (m, v) = best?;
                if v <= 0.0 {
                    return None; // nothing left worth running
                }
                Some(ModelId(m as u8))
            },
        )
    }

    /// The outcome of `run`: its labels are its final state's, each at the
    /// highest confidence an executed model reported for it.
    fn outcome(&self, item: &ItemTruth, run: ItemRun) -> LabelingOutcome {
        let mut labels = Vec::with_capacity(run.state.count());
        labels.extend(run.state.iter().map(|l| (l, f32::NEG_INFINITY)));
        for &m in &run.executed {
            for d in item.output(m).valuable(self.value_threshold) {
                if let Ok(i) = labels.binary_search_by_key(&d.label, |&(l, _)| l) {
                    labels[i].1 = labels[i].1.max(d.confidence);
                }
            }
        }
        LabelingOutcome {
            labels,
            recall: recall(item, run.value),
            value: run.value,
            elapsed_ms: run.elapsed_ms,
            executed: run.executed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::OraclePredictor;
    use ams_data::{Dataset, DatasetProfile};

    fn scheduler() -> AdaptiveModelScheduler {
        let zoo = ModelZoo::standard();
        let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
        AdaptiveModelScheduler::new(zoo, predictor, 0.5, 7)
    }

    fn one_scene() -> Scene {
        Dataset::generate(DatasetProfile::Coco2017, 3, 7)
            .scenes
            .remove(1)
    }

    #[test]
    fn unconstrained_oracle_full_recall() {
        let s = scheduler();
        let out = s.label_scene(&one_scene(), Budget::Unconstrained);
        assert!(
            (out.recall - 1.0).abs() < 1e-9,
            "oracle unconstrained recalls all"
        );
        // and it should have skipped worthless models
        assert!(
            out.executed.len() < 30,
            "executed {} models",
            out.executed.len()
        );
    }

    #[test]
    fn deadline_budget_respected() {
        let s = scheduler();
        let out = s.label_scene(&one_scene(), Budget::Deadline { ms: 600 });
        assert!(out.elapsed_ms <= 600);
        assert!(out.recall <= 1.0);
    }

    #[test]
    fn deadline_memory_budget_runs() {
        let s = scheduler();
        let out = s.label_scene(
            &one_scene(),
            Budget::DeadlineMemory {
                ms: 800,
                mem_mb: 12288,
            },
        );
        assert!(out.elapsed_ms <= 800);
        assert!(!out.labels.is_empty() || out.recall == 1.0);
    }

    #[test]
    fn labels_are_sorted_and_valuable() {
        let s = scheduler();
        let out = s.label_scene(&one_scene(), Budget::Unconstrained);
        for w in out.labels.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert!(out.labels.iter().all(|&(_, c)| c >= 0.5));
    }

    #[test]
    fn affinity_signature_is_stable_and_bounded() {
        let s = scheduler();
        let scenes = Dataset::generate(DatasetProfile::Coco2017, 6, 7).scenes;
        for scene in &scenes {
            let item = ams_data::ItemTruth::build(s.zoo(), s.catalog(), scene, 7, 0.5);
            let sig = s.affinity_signature(&item, 4);
            assert_eq!(sig, s.affinity_signature(&item, 4), "deterministic");
            assert!(sig.count_ones() <= 4, "at most top_k bits");
            // Signature bits point at real models.
            assert_eq!(sig >> s.zoo().len(), 0, "bits within the zoo");
        }
        // top_k = 0 yields the empty signature.
        let item = ams_data::ItemTruth::build(s.zoo(), s.catalog(), &scenes[0], 7, 0.5);
        assert_eq!(s.affinity_signature(&item, 0), 0);
    }

    #[test]
    fn affinity_signature_tracks_the_items_best_models() {
        // The single-bit signature is exactly the model with the highest
        // static output value on the item.
        let s = scheduler();
        let scene = one_scene();
        let item = ams_data::ItemTruth::build(s.zoo(), s.catalog(), &scene, 7, 0.5);
        let best = item
            .model_value
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(m, _)| m)
            .unwrap();
        let sig = s.affinity_signature(&item, 1);
        assert_eq!(sig, 1 << best);
        // Larger top_k only adds bits.
        let sig4 = s.affinity_signature(&item, 4);
        assert_eq!(sig4 & sig, sig, "top-1 remains in top-4");
    }

    #[test]
    fn affinity_value_scan_sums_the_masked_models() {
        let s = scheduler();
        let scenes = Dataset::generate(DatasetProfile::Coco2017, 6, 7).scenes;
        for scene in &scenes {
            let item = ams_data::ItemTruth::build(s.zoo(), s.catalog(), scene, 7, 0.5);
            for top_k in [0usize, 1, 2, 4] {
                let (sig, value) = s.affinity_value_scan(&item, top_k);
                assert_eq!(sig, s.affinity_signature(&item, top_k), "same scan");
                let want: f64 = item
                    .model_value
                    .iter()
                    .enumerate()
                    .filter(|&(m, _)| sig >> m & 1 == 1)
                    .map(|(_, &v)| v)
                    .sum();
                assert!((value - want).abs() < 1e-12, "top_k={top_k}");
                // Value only grows with k, and is 0 iff the mask is empty.
                assert_eq!(value == 0.0, sig == 0);
            }
        }
        // A zero-value profile yields an empty signature and zero value.
        let mut flat = ams_data::ItemTruth::build(s.zoo(), s.catalog(), &scenes[0], 7, 0.5);
        flat.model_value.iter_mut().for_each(|v| *v = 0.0);
        assert_eq!(s.affinity_value_scan(&flat, 4), (0, 0.0));
    }

    #[test]
    fn fingerprint_extends_the_scan_with_a_content_hash() {
        let s = scheduler();
        let scenes = Dataset::generate(DatasetProfile::Coco2017, 6, 7).scenes;
        for scene in &scenes {
            let item = ams_data::ItemTruth::build(s.zoo(), s.catalog(), scene, 7, 0.5);
            let fp = s.fingerprint(&item, 2);
            let (sig, value) = s.affinity_value_scan(&item, 2);
            assert_eq!(fp.signature, sig, "same top-k scan");
            assert!((fp.value - value).abs() < 1e-12);
            assert_eq!(fp.content, content_hash(&item), "content hash attached");
            assert_eq!(fp, s.fingerprint(&item, 2), "deterministic");
            // An identical rebuild of the same scene hashes identically —
            // the property the result cache relies on for exact hits.
            let again = ams_data::ItemTruth::build(s.zoo(), s.catalog(), scene, 7, 0.5);
            assert_eq!(content_hash(&again), fp.content);
        }
    }

    #[test]
    fn content_hash_separates_items_the_signature_conflates() {
        let s = scheduler();
        let scenes = Dataset::generate(DatasetProfile::Coco2017, 24, 7).scenes;
        let items: Vec<_> = scenes
            .iter()
            .map(|sc| ams_data::ItemTruth::build(s.zoo(), s.catalog(), sc, 7, 0.5))
            .collect();
        // Distinct items never share a content hash (24 items, 64-bit
        // hash: a collision here would be a hash bug, not bad luck)...
        for (i, a) in items.iter().enumerate() {
            for b in items.iter().skip(i + 1) {
                assert_ne!(content_hash(a), content_hash(b));
            }
        }
        // ...while the coarse top-k signature does conflate some of them —
        // that's the gap the full-content hash closes.
        let mut sigs: Vec<u64> = items.iter().map(|it| s.affinity_signature(it, 1)).collect();
        sigs.sort_unstable();
        sigs.dedup();
        assert!(sigs.len() < items.len(), "top-1 signatures cluster");
        // Any content perturbation moves the hash: value profile, valuable
        // labels, and raw detections are all covered.
        let base = &items[0];
        let mut tweaked = base.clone();
        tweaked.model_value[0] += 1.0;
        assert_ne!(content_hash(base), content_hash(&tweaked));
        let mut tweaked = base.clone();
        tweaked.total_value += 1.0;
        assert_ne!(content_hash(base), content_hash(&tweaked));
        let mut tweaked = base.clone();
        tweaked.scene_id ^= 1;
        assert_ne!(content_hash(base), content_hash(&tweaked));
    }

    /// The label cache keys and stripes on `content_hash`, so it mixes
    /// exactly what it mixed when each model's output was its own vector:
    /// these are that layout's values.
    #[test]
    fn content_hash_is_pinned() {
        let s = scheduler();
        let scenes = Dataset::generate(DatasetProfile::Coco2017, 24, 64).scenes;
        let hash =
            |i: usize| content_hash(&ItemTruth::build(s.zoo(), s.catalog(), &scenes[i], 64, 0.5));
        assert_eq!(hash(0), 0x3267_1615_1619_55ed);
        assert_eq!(hash(3), 0x82d7_9754_f776_04f0);
    }

    #[test]
    fn label_item_with_own_predictor_equals_label_item() {
        let s = scheduler();
        let items: Vec<_> = Dataset::generate(DatasetProfile::Coco2017, 5, 7)
            .scenes
            .iter()
            .map(|sc| ams_data::ItemTruth::build(s.zoo(), s.catalog(), sc, 7, 0.5))
            .collect();
        for budget in [
            Budget::Unconstrained,
            Budget::Deadline { ms: 700 },
            Budget::DeadlineMemory {
                ms: 700,
                mem_mb: 12288,
            },
        ] {
            for item in &items {
                let a = s.label_item(item, budget);
                let b = s.label_item_with(s.predictor(), item, budget);
                assert_eq!(a.labels, b.labels);
                assert_eq!(a.executed, b.executed);
                assert_eq!(a.value, b.value);
                assert_eq!(a.elapsed_ms, b.elapsed_ms);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn size_mismatch_rejected() {
        let zoo = ModelZoo::standard();
        let predictor = Box::new(OraclePredictor::new(5, 0.5));
        let _ = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 7);
    }
}
