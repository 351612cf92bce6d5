//! Ground-truth tables: the paper's "execute all 30 models on every image
//! and store outputs + confidences" step (§VI-A), plus the value algebra of
//! Eq. (1) built on top.
//!
//! ## Value semantics
//!
//! * A label `l` is **valuable** for item `d` when some model outputs it
//!   with confidence ≥ `value_threshold`; its profit `p_l` is the *maximum*
//!   confidence any model assigns it.
//! * A subset `S ⊆ M` **recalls** `l` when some `m ∈ S` outputs `l` at or
//!   above the threshold.
//! * `f(S, d) = Σ p_l` over labels recalled by `S` — non-negative, monotone
//!   and submodular in `S` (Lemma 1), and order-independent.
//! * The **recall rate** of `S` is `f(S, d) / f(M, d)`.

use crate::dataset::Dataset;
use crate::infer::infer_into;
use ams_models::{Detection, LabelCatalog, LabelId, LabelSet, ModelId, ModelZoo, OutputView};
use serde::{Deserialize, Serialize};

/// Default "valuable label" confidence threshold.
pub const DEFAULT_VALUE_THRESHOLD: f32 = 0.5;

/// Per-item ground truth: every model's output plus precomputed value data.
///
/// Four exact-size heap buffers. Every model's detections sit in one
/// buffer, run after run, each run sorted by label and deduplicated; the
/// run table beside it holds `(model, end)` per run, so run `i` is
/// `detections[end of run i - 1 .. end of run i]` (the first starts at 0)
/// and the last end is the buffer's length. An item [`ItemTruth::build`]
/// makes has one run per zoo model, in `ModelId` order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItemTruth {
    /// Scene id this truth belongs to.
    pub scene_id: u64,
    /// `(model, end)` of each run of [`ItemTruth::detections`].
    pub runs: Box<[(ModelId, u32)]>,
    /// Every model's detections, run after run.
    pub detections: Box<[Detection]>,
    /// Valuable labels with their profits, sorted by label.
    pub valuable: Box<[(LabelId, f32)]>,
    /// `f(M, d)`: total value of the full execution.
    pub total_value: f64,
    /// Static per-model value: `Σ conf` over the model's own valuable
    /// detections (used by the paper's "optimal" baseline, which sorts
    /// models by true output value).
    pub model_value: Box<[f64]>,
}

impl ItemTruth {
    /// Execute the whole zoo on one scene and collect its ground truth —
    /// the single-item unit of [`TruthTable::build`]. Framework code labels
    /// ad-hoc scenes through this without materializing a one-element
    /// dataset and table.
    pub fn build(
        zoo: &ModelZoo,
        catalog: &LabelCatalog,
        scene: &crate::scene::Scene,
        world_seed: u64,
        threshold: f32,
    ) -> Self {
        // About four detections a model: most items fill it without growing.
        let mut detections = Vec::with_capacity(4 * zoo.len());
        let runs: Vec<(ModelId, u32)> = zoo
            .specs()
            .iter()
            .map(|spec| {
                infer_into(scene, spec, catalog, world_seed, &mut detections);
                (spec.id, detections.len() as u32)
            })
            .collect();
        let mut item = ItemTruth {
            scene_id: scene.id,
            runs: runs.into(),
            detections: detections.into(),
            valuable: Box::default(),
            total_value: 0.0,
            model_value: Box::default(),
        };

        // profit of each label = max confidence across models, if ≥ threshold
        let mut best: Vec<(LabelId, f32)> = Vec::new();
        for out in item.outputs() {
            for d in out.valuable(threshold) {
                match best.binary_search_by_key(&d.label, |&(l, _)| l) {
                    Ok(i) => best[i].1 = best[i].1.max(d.confidence),
                    Err(i) => best.insert(i, (d.label, d.confidence)),
                }
            }
        }
        item.total_value = Self::profit_sum(&best);
        item.valuable = best.into();
        item.model_value = item.outputs().map(|o| o.value(threshold)).collect();
        item
    }

    /// `f(M, d)` of a valuable-label profile: its profits summed in label
    /// order, the one expression [`ItemTruth::total_value`] is built by.
    pub fn profit_sum(valuable: &[(LabelId, f32)]) -> f64 {
        valuable.iter().map(|&(_, c)| f64::from(c)).sum()
    }

    /// Whether the run table indexes the detection buffer: no end below
    /// the one before it, and the last end is the number of detections (0
    /// without runs). [`ItemTruth::output`] slices by it; every item
    /// [`ItemTruth::build`] makes passes, and so does every item the wire
    /// decodes, whose ends are the running sum of the counts it carries.
    // No-panic zone (LINTS.md): the server runs it on every item a peer
    // sends, before anything slices by the table.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )]
    pub fn runs_consistent(&self) -> bool {
        let mut start = 0;
        self.runs.iter().all(|&(_, end)| {
            let rising = start <= end;
            start = end;
            rising
        }) && start as usize == self.detections.len()
    }

    /// Output of one model.
    pub fn output(&self, m: ModelId) -> OutputView<'_> {
        self.run(m.index())
    }

    /// Every run's output, in run-table order.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = OutputView<'_>> + '_ {
        (0..self.runs.len()).map(|i| self.run(i))
    }

    fn run(&self, i: usize) -> OutputView<'_> {
        let start = i.checked_sub(1).map_or(0, |p| self.runs[p].1);
        let (model, end) = self.runs[i];
        OutputView {
            model,
            detections: &self.detections[start as usize..end as usize],
        }
    }

    /// Profit of a label on this item (0 when not valuable).
    pub fn profit(&self, l: LabelId) -> f64 {
        self.valuable
            .binary_search_by_key(&l, |&(id, _)| id)
            .map(|i| f64::from(self.valuable[i].1))
            .unwrap_or(0.0)
    }

    /// Marginal value of executing `m` given labels already recalled in
    /// `state`: `Σ p_l` over the model's valuable detections whose label is
    /// not yet in `state`. This is
    /// `f(S ∪ {m}, d) − f(S, d)` when `state` is the recalled-label set of
    /// `S`.
    pub fn marginal_value(&self, state: &LabelSet, m: ModelId, threshold: f32) -> f64 {
        self.output(m)
            .valuable(threshold)
            .filter(|d| !state.contains(d.label))
            .map(|d| self.profit(d.label))
            .sum()
    }

    /// New-label value as the *reward* sees it (Eq. 3 numerator): sum of
    /// this model's own confidences over newly recalled valuable labels.
    pub fn new_label_confidence(&self, state: &LabelSet, m: ModelId, threshold: f32) -> f64 {
        self.output(m)
            .valuable(threshold)
            .filter(|d| !state.contains(d.label))
            .map(|d| f64::from(d.confidence))
            .sum()
    }

    /// Apply `m`'s execution to the recalled-label state; returns the value
    /// gained (profit mass newly recalled).
    pub fn apply(&self, state: &mut LabelSet, m: ModelId, threshold: f32) -> f64 {
        let mut gained = 0.0;
        for d in self.output(m).valuable(threshold) {
            if state.insert(d.label) {
                gained += self.profit(d.label);
            }
        }
        gained
    }

    /// `f(S, d)` for an explicit model subset.
    pub fn value_of_set(&self, models: &[ModelId], threshold: f32) -> f64 {
        let mut state = LabelSet::new(self.universe());
        let mut total = 0.0;
        for &m in models {
            total += self.apply(&mut state, m, threshold);
        }
        total
    }

    /// Recall rate of an explicit model subset.
    pub fn recall_of_set(&self, models: &[ModelId], threshold: f32) -> f64 {
        if self.total_value <= 0.0 {
            return 1.0;
        }
        self.value_of_set(models, threshold) / self.total_value
    }

    /// Universe size for state sets (max label index + 1 — the catalog len).
    pub fn universe(&self) -> usize {
        1104
    }

    /// Models whose execution yields at least one valuable label.
    pub fn valuable_models(&self, threshold: f32) -> Vec<ModelId> {
        (0..self.runs.len())
            .map(|i| ModelId(i as u8))
            .filter(|&m| {
                self.model_value[m.index()] > 0.0
                    && self.output(m).valuable(threshold).next().is_some()
            })
            .collect()
    }
}

/// The full ground-truth table for a dataset under one world seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TruthTable {
    /// World seed executions were drawn under.
    pub world_seed: u64,
    /// Valuable-label confidence threshold.
    pub value_threshold: f32,
    /// Number of models per item.
    pub num_models: usize,
    items: Vec<ItemTruth>,
}

impl TruthTable {
    /// Execute the whole zoo on every scene of `dataset` and collect ground
    /// truth (the paper's §VI-A procedure).
    pub fn build(
        zoo: &ModelZoo,
        catalog: &LabelCatalog,
        dataset: &Dataset,
        threshold: f32,
    ) -> Self {
        let items = dataset
            .scenes
            .iter()
            .map(|scene| ItemTruth::build(zoo, catalog, scene, dataset.world_seed, threshold))
            .collect();
        Self {
            world_seed: dataset.world_seed,
            value_threshold: threshold,
            num_models: zoo.len(),
            items,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Ground truth of the `i`-th item.
    pub fn item(&self, i: usize) -> &ItemTruth {
        &self.items[i]
    }

    /// All items.
    pub fn items(&self) -> &[ItemTruth] {
        &self.items
    }

    /// Split views matching a dataset split.
    pub fn split(&self, split: crate::dataset::Split) -> (&[ItemTruth], &[ItemTruth]) {
        self.items.split_at(split.train_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetProfile;

    fn small_table() -> (ModelZoo, TruthTable) {
        let zoo = ModelZoo::standard();
        let catalog = zoo.catalog();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 40, 11);
        let table = TruthTable::build(&zoo, &catalog, &ds, DEFAULT_VALUE_THRESHOLD);
        (zoo, table)
    }

    #[test]
    fn build_covers_all_items_and_models() {
        let (zoo, table) = small_table();
        assert_eq!(table.len(), 40);
        for it in table.items() {
            assert_eq!(it.runs.len(), zoo.len());
        }
    }

    #[test]
    fn total_value_equals_full_set_value() {
        let (zoo, table) = small_table();
        let all: Vec<ModelId> = zoo.ids().collect();
        for it in table.items() {
            let v = it.value_of_set(&all, table.value_threshold);
            assert!(
                (v - it.total_value).abs() < 1e-9,
                "item {}: {v} vs {}",
                it.scene_id,
                it.total_value
            );
            assert!((it.recall_of_set(&all, table.value_threshold) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn value_is_monotone_in_set() {
        let (zoo, table) = small_table();
        let all: Vec<ModelId> = zoo.ids().collect();
        for it in table.items().iter().take(10) {
            let mut prev = 0.0;
            for k in 0..=all.len() {
                let v = it.value_of_set(&all[..k], table.value_threshold);
                assert!(v >= prev - 1e-12, "monotonicity violated at k={k}");
                prev = v;
            }
        }
    }

    #[test]
    fn marginal_value_matches_apply() {
        let (zoo, table) = small_table();
        let t = table.value_threshold;
        for it in table.items().iter().take(10) {
            let mut state = LabelSet::new(it.universe());
            for m in zoo.ids() {
                let predicted = it.marginal_value(&state, m, t);
                let gained = it.apply(&mut state, m, t);
                assert!((predicted - gained).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn profits_are_max_confidences() {
        let (_, table) = small_table();
        for it in table.items().iter().take(10) {
            for &(l, p) in it.valuable.iter() {
                let max_conf = it
                    .outputs()
                    .filter_map(|o| o.confidence_of(l))
                    .fold(0.0f32, f32::max);
                assert!((p - max_conf).abs() < 1e-6);
                assert!(p >= table.value_threshold);
            }
        }
    }

    #[test]
    fn some_executions_are_wasted() {
        // Fig. 1 / §II: a large portion of executions yield nothing valuable.
        let (_, table) = small_table();
        let executions = table.items().len() * table.num_models;
        let valuable: usize = table
            .items()
            .iter()
            .map(|it| {
                (0..table.num_models)
                    .filter(|&m| {
                        it.output(ModelId(m as u8))
                            .valuable(table.value_threshold)
                            .next()
                            .is_some()
                    })
                    .count()
            })
            .sum();
        let rate = valuable as f64 / executions as f64;
        assert!(rate > 0.15 && rate < 0.75, "valuable-execution rate {rate}");
    }

    #[test]
    fn valuable_models_nonempty_for_typical_items() {
        let (_, table) = small_table();
        let nonempty = table
            .items()
            .iter()
            .filter(|it| !it.valuable_models(table.value_threshold).is_empty())
            .count();
        assert!(
            nonempty >= 38,
            "{nonempty}/40 items should have valuable models"
        );
    }

    /// A run table whose ends fall, or that does not end at the buffer's
    /// length, is inconsistent; a built item's own table is not.
    #[test]
    fn runs_consistent_refuses_tables_that_do_not_index_the_buffer() {
        let (_, table) = small_table();
        let it = table.item(0);
        assert!(it.runs_consistent());
        let with_runs = |runs: &[(ModelId, u32)]| ItemTruth {
            runs: runs.into(),
            ..it.clone()
        };
        let n = it.detections.len() as u32;
        let (m0, m1) = (ModelId(0), ModelId(1));
        let consistent = |runs: &[(ModelId, u32)]| with_runs(runs).runs_consistent();
        assert!(!consistent(&[(m0, n), (m1, n - 1)]), "falling end");
        assert!(!consistent(&[(m0, 1), (m1, n + 1)]), "past the buffer");
        assert!(!consistent(&[(m0, 1), (m1, n - 1)]), "short of the buffer");
        assert!(!consistent(&[]), "detections without runs");
        assert!(consistent(&[(m0, 0), (m1, n)]));
    }

    #[test]
    fn deterministic_rebuild() {
        let (_, a) = small_table();
        let (_, b) = small_table();
        for (x, y) in a.items().iter().zip(b.items()) {
            assert_eq!(x.valuable.len(), y.valuable.len());
            assert!((x.total_value - y.total_value).abs() < 1e-12);
        }
    }
}
