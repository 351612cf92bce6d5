//! Algorithm 1: model scheduling under a per-item deadline (§V-A).
//!
//! Single-processor setting: models execute serially. Each iteration
//! filters models that no longer fit the remaining budget, then picks the
//! unexecuted model maximizing `Q(m,d) / m.time` — the cost-profit greedy
//! heuristic with the DRL agent's Q value standing in for the unknown
//! profit. The labeling state is updated with the model's actual output and
//! the next iteration re-predicts if that output added a label.

use super::{GreedyScore, ItemRun, QRow};
use crate::policies::{run_serial, serial_run};
use crate::predictor::ValuePredictor;
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId, ModelZoo};

/// Outcome of scheduling one item under a deadline.
#[derive(Debug, Clone)]
pub struct DeadlineResult {
    /// Models executed, in order.
    pub executed: Vec<ModelId>,
    /// Value recalled, `f(S, d)`.
    pub value: f64,
    /// Recall rate `f(S,d) / f(M,d)`.
    pub recall: f64,
    /// Virtual time consumed, ms.
    pub elapsed_ms: u64,
    /// Execution trace.
    pub trace: ams_sim::ExecTrace,
}

/// Run Algorithm 1 on one item.
pub fn schedule_deadline(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    threshold: f32,
) -> DeadlineResult {
    run_serial(
        item,
        zoo,
        budget_ms,
        threshold,
        picker(predictor, zoo, item),
    )
}

/// [`schedule_deadline`] without the trace: the labeling path's form.
pub(crate) fn deadline_run(
    predictor: &dyn ValuePredictor,
    zoo: &ModelZoo,
    item: &ItemTruth,
    budget_ms: u64,
    threshold: f32,
) -> ItemRun {
    serial_run(
        item,
        zoo,
        budget_ms,
        threshold,
        picker(predictor, zoo, item),
    )
}

/// Algorithm 1 as a [`run_serial`] picker for one item: the next model,
/// `None` when no unexecuted model fits the remaining budget.
fn picker<'a>(
    predictor: &'a dyn ValuePredictor,
    zoo: &'a ModelZoo,
    item: &'a ItemTruth,
) -> impl FnMut(&LabelSet, u64, u64, f64) -> Option<ModelId> + 'a {
    debug_assert_eq!(predictor.num_models(), zoo.len());
    let mut row = QRow::new(zoo.len());
    move |state, mask, remaining, _| {
        // Line 3: filter models that don't fit the remaining budget —
        // before predicting, so the last call of an item predicts nothing.
        let mut fits = 0u64;
        for (m, spec) in zoo.specs().iter().enumerate() {
            if mask >> m & 1 == 0 && u64::from(spec.time_ms) <= remaining {
                fits |= 1 << m;
            }
        }
        if fits == 0 {
            return None;
        }
        // Line 4: argmax Q(m,d) / m.time, ties to the lower index.
        let q = row.at(predictor, state, item);
        let mut best: Option<(usize, GreedyScore)> = None;
        for m in (0..zoo.len()).filter(|&m| fits >> m & 1 == 1) {
            let time_ms = zoo.spec(ModelId(m as u8)).time_ms;
            let score = GreedyScore::new(q[m], f64::from(time_ms) / 1000.0);
            if best.map(|(_, s)| score.better_than(&s)).unwrap_or(true) {
                best = Some((m, score));
            }
        }
        best.map(|(m, _)| ModelId(m as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{OraclePredictor, UniformPredictor};
    use ams_data::{Dataset, DatasetProfile, TruthTable};

    fn fixture() -> (ModelZoo, TruthTable) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 30, 13);
        let t = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        (zoo, t)
    }

    #[test]
    fn respects_deadline() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        for budget in [100u64, 500, 1000, 3000] {
            for item in t.items().iter().take(8) {
                let r = schedule_deadline(&oracle, &zoo, item, budget, 0.5);
                assert!(
                    r.elapsed_ms <= budget,
                    "elapsed {} > budget {budget}",
                    r.elapsed_ms
                );
                let sum: u64 = r
                    .executed
                    .iter()
                    .map(|&m| u64::from(zoo.spec(m).time_ms))
                    .sum();
                assert_eq!(sum, r.elapsed_ms);
                assert!(r.trace.is_serial());
            }
        }
    }

    #[test]
    fn zero_budget_executes_nothing() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let r = schedule_deadline(&oracle, &zoo, t.item(0), 0, 0.5);
        assert!(r.executed.is_empty());
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn large_budget_reaches_full_recall_with_oracle() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let total: u64 = zoo.total_time_ms().into();
        for item in t.items().iter().take(8) {
            let r = schedule_deadline(&oracle, &zoo, item, total, 0.5);
            assert!(r.recall >= 1.0 - 1e-9, "recall {}", r.recall);
        }
    }

    #[test]
    fn recall_monotone_in_budget() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        for item in t.items().iter().take(6) {
            let mut prev = 0.0;
            for budget in [200u64, 500, 1000, 2000, 5200] {
                let r = schedule_deadline(&oracle, &zoo, item, budget, 0.5);
                assert!(
                    r.recall >= prev - 1e-9,
                    "recall must grow with budget ({} < {prev})",
                    r.recall
                );
                prev = r.recall;
            }
        }
    }

    #[test]
    fn oracle_beats_uniform_at_tight_budget() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let uniform = UniformPredictor::new(30);
        let mut oracle_sum = 0.0;
        let mut uniform_sum = 0.0;
        for item in t.items() {
            oracle_sum += schedule_deadline(&oracle, &zoo, item, 500, 0.5).recall;
            uniform_sum += schedule_deadline(&uniform, &zoo, item, 500, 0.5).recall;
        }
        assert!(
            oracle_sum > uniform_sum,
            "oracle {oracle_sum:.2} must beat uniform {uniform_sum:.2} at 0.5 s"
        );
    }

    #[test]
    fn value_matches_recall_times_total() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let item = t.item(0);
        let r = schedule_deadline(&oracle, &zoo, item, 1000, 0.5);
        assert!((r.value - r.recall * item.total_value).abs() < 1e-9);
    }
}
