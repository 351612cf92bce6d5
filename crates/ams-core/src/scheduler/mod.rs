//! The adaptive scheduling algorithms of §V.
//!
//! * [`deadline`] — Algorithm 1: single-processor, per-item deadline;
//!   cost-profit greedy on `Q(m,d) / m.time`.
//! * [`deadline_memory`] — Algorithm 2: multi-processor with a shared GPU
//!   memory pool; greedy seed on `Q/(time·mem)`, memory fill on `Q/mem`
//!   under a temporary deadline, re-plan on every completion.
//! * [`optimal_star`] — the relaxed fractional upper bound of §V-C used as
//!   the "optimal\*" baseline in Figs. 10–12.

pub mod deadline;
pub mod deadline_memory;
pub mod optimal_star;
#[cfg(test)]
mod reference;

use crate::predictor::ValuePredictor;
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId};

/// One item's Q row and the labeling-state size it was computed at: the
/// one place that decides when a scheduler must ask the predictor again.
///
/// Within one item the state only grows (a model's run adds labels, never
/// removes one), so an unchanged [`LabelSet::count`] means an unchanged
/// state, and [`ValuePredictor::predict_into`] is a pure function of the
/// state and the item. A model that recalls no new label therefore leaves
/// the row as it was, and the next pick reuses it.
pub struct QRow {
    q: Vec<f32>,
    /// `count()` of the state `q` was predicted at; `None` before the
    /// first prediction.
    at: Option<usize>,
}

impl QRow {
    /// An empty row for `num_models` models, for one item.
    pub fn new(num_models: usize) -> Self {
        Self {
            q: vec![0.0; num_models],
            at: None,
        }
    }

    /// The Q row at `state`, predicted only if the state grew since the
    /// last call.
    pub fn at(
        &mut self,
        predictor: &dyn ValuePredictor,
        state: &LabelSet,
        item: &ItemTruth,
    ) -> &[f32] {
        let count = state.count();
        if self.at != Some(count) {
            predictor.predict_into(state, item, &mut self.q);
            self.at = Some(count);
        }
        &self.q
    }
}

/// What labeling one item leaves, without an execution trace: the form
/// the labeling path consumes.
pub(crate) struct ItemRun {
    /// Models that contributed, in execution (completion) order.
    pub executed: Vec<ModelId>,
    /// Value recalled, `f(S, d)`.
    pub value: f64,
    /// Virtual time consumed, ms.
    pub elapsed_ms: u64,
    /// The labeling state at the end: the union of the valuable labels of
    /// `executed`.
    pub state: LabelSet,
}

/// Recall rate of `value` on `item` (1 for an item with nothing to find).
pub(crate) fn recall(item: &ItemTruth, value: f64) -> f64 {
    if item.total_value > 0.0 {
        value / item.total_value
    } else {
        1.0
    }
}

/// Ranking score used by the greedy selections: predicted values are
/// clamped at zero (a model predicted to yield nothing should not look
/// better merely because it is slow or small), with the raw prediction and
/// cost as deterministic tie-breakers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GreedyScore {
    /// Clamped value-per-cost ratio.
    pub ratio: f64,
    /// Raw predicted value (tie-break).
    pub raw: f64,
    /// Negated cost (tie-break: prefer cheaper).
    pub neg_cost: f64,
}

impl GreedyScore {
    pub(crate) fn new(q: f32, cost: f64) -> Self {
        let q = f64::from(q);
        Self {
            ratio: q.max(0.0) / cost.max(1e-9),
            raw: q,
            neg_cost: -cost,
        }
    }

    pub(crate) fn better_than(&self, other: &GreedyScore) -> bool {
        (self.ratio, self.raw, self.neg_cost) > (other.ratio, other.raw, other.neg_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_values_rank_by_ratio() {
        let a = GreedyScore::new(2.0, 1.0);
        let b = GreedyScore::new(3.0, 2.0);
        assert!(a.better_than(&b));
    }

    #[test]
    fn negative_values_rank_by_raw_then_cost() {
        // Both ratios clamp to 0 → fall back to raw prediction.
        let a = GreedyScore::new(-0.5, 10.0);
        let b = GreedyScore::new(-1.0, 1.0);
        assert!(a.better_than(&b), "less-bad prediction wins");
        // Equal raw → cheaper wins.
        let c = GreedyScore::new(-1.0, 1.0);
        let d = GreedyScore::new(-1.0, 5.0);
        assert!(c.better_than(&d));
    }
}
