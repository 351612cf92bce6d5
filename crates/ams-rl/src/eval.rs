//! Q-value-greedy rollouts and the §VI-B evaluation metrics.
//!
//! The §VI-B protocol: greedily execute the unexecuted model with maximal
//! predicted Q until the *true* recalled value reaches a target recall rate
//! (the stop condition is oracle-determined, footnote 1 of the paper). The
//! metrics are the average number of executed models and the average
//! execution time per item. The END action is masked out — it exists only
//! for training (§IV-B).

use crate::trainer::TrainedAgent;
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId, ModelZoo};

/// One greedy rollout's outcome.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Models in execution order.
    pub executed: Vec<ModelId>,
    /// Total execution time of the models run, ms.
    pub time_ms: u64,
    /// Final recall rate of the true output value.
    pub recall: f64,
}

/// Run the Q-greedy policy on one item until `recall_target` is reached
/// (or every model has been executed).
pub fn q_greedy_rollout(
    agent: &TrainedAgent,
    zoo: &ModelZoo,
    item: &ItemTruth,
    recall_target: f64,
    value_threshold: f32,
) -> Rollout {
    let num_models = agent.num_models;
    let mut state = LabelSet::new(item.universe());
    let mut executed: Vec<ModelId> = Vec::new();
    let mut executed_mask = 0u64;
    let mut time_ms = 0u64;
    let mut recalled = 0.0f64;
    let total = item.total_value;
    let mut sparse: Vec<u32> = Vec::new();
    let mut cache = ams_nn::FwdCache::default();

    while executed.len() < num_models {
        if total > 0.0 && recalled / total >= recall_target - 1e-12 {
            break;
        }
        if total <= 0.0 {
            break; // nothing valuable on this item
        }
        state.write_sparse(&mut sparse);
        let q = agent.q_values_cached(&sparse, &mut cache);
        // argmax over unexecuted models (END, when present, sits past them)
        let mut best = usize::MAX;
        let mut best_q = f32::NEG_INFINITY;
        for (a, &v) in q[..num_models].iter().enumerate() {
            if executed_mask >> a & 1 == 0 && v > best_q {
                best_q = v;
                best = a;
            }
        }
        let m = ModelId(best as u8);
        executed_mask |= 1 << best;
        executed.push(m);
        time_ms += u64::from(zoo.spec(m).time_ms);
        recalled += item.apply(&mut state, m, value_threshold);
    }

    let recall = if total > 0.0 { recalled / total } else { 1.0 };
    Rollout {
        executed,
        time_ms,
        recall,
    }
}

/// Aggregate §VI-B metrics across a test set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalSummary {
    /// Average number of executed models per item.
    pub avg_models: f64,
    /// Average execution time per item, seconds.
    pub avg_time_s: f64,
    /// Average achieved recall.
    pub avg_recall: f64,
}

/// Evaluate the Q-greedy policy across `items` at one recall target.
/// Items are processed in parallel with scoped threads.
pub fn evaluate_q_greedy(
    agent: &TrainedAgent,
    zoo: &ModelZoo,
    items: &[ItemTruth],
    recall_target: f64,
    value_threshold: f32,
) -> EvalSummary {
    if items.is_empty() {
        return EvalSummary::default();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let chunk = items.len().div_ceil(threads);
    let partials: Vec<(f64, f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut models = 0.0;
                    let mut time = 0.0;
                    let mut recall = 0.0;
                    for item in part {
                        let r = q_greedy_rollout(agent, zoo, item, recall_target, value_threshold);
                        models += r.executed.len() as f64;
                        time += r.time_ms as f64 / 1000.0;
                        recall += r.recall;
                    }
                    (models, time, recall)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("eval worker"))
            .collect()
    });

    let n = items.len() as f64;
    let (m, t, r) = partials.into_iter().fold((0.0, 0.0, 0.0), |acc, p| {
        (acc.0 + p.0, acc.1 + p.1, acc.2 + p.2)
    });
    EvalSummary {
        avg_models: m / n,
        avg_time_s: t / n,
        avg_recall: r / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::trainer::{train, TrainConfig};
    use ams_data::{Dataset, DatasetProfile, TruthTable};

    fn fixture() -> (ModelZoo, TruthTable, TrainedAgent) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 24, 33);
        let table = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        let cfg = TrainConfig {
            episodes: 30,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, _) = train(table.items(), 30, &cfg);
        (zoo, table, agent)
    }

    #[test]
    fn rollout_reaches_target() {
        let (zoo, table, agent) = fixture();
        for item in table.items().iter().take(8) {
            let r = q_greedy_rollout(&agent, &zoo, item, 0.8, 0.5);
            assert!(
                r.recall >= 0.8 || r.executed.len() == 30,
                "recall {}",
                r.recall
            );
            // no duplicates
            let mut seen = std::collections::HashSet::new();
            for m in &r.executed {
                assert!(seen.insert(*m), "duplicate model {m}");
            }
            // time is the sum of spec times
            let t: u64 = r
                .executed
                .iter()
                .map(|&m| u64::from(zoo.spec(m).time_ms))
                .sum();
            assert_eq!(t, r.time_ms);
        }
    }

    #[test]
    fn higher_recall_needs_no_fewer_models() {
        let (zoo, table, agent) = fixture();
        for item in table.items().iter().take(8) {
            let lo = q_greedy_rollout(&agent, &zoo, item, 0.4, 0.5);
            let hi = q_greedy_rollout(&agent, &zoo, item, 1.0, 0.5);
            assert!(lo.executed.len() <= hi.executed.len());
        }
    }

    #[test]
    fn summary_aggregates() {
        let (zoo, table, agent) = fixture();
        let s = evaluate_q_greedy(&agent, &zoo, table.items(), 1.0, 0.5);
        assert!(s.avg_models > 0.0 && s.avg_models <= 30.0);
        assert!(s.avg_time_s > 0.0 && s.avg_time_s <= 5.5);
        assert!(
            s.avg_recall > 0.99,
            "full-recall eval must recall everything"
        );
    }

    #[test]
    fn parallel_eval_matches_serial() {
        let (zoo, table, agent) = fixture();
        let par = evaluate_q_greedy(&agent, &zoo, table.items(), 0.8, 0.5);
        // serial re-computation
        let mut models = 0.0;
        let mut time = 0.0;
        for item in table.items() {
            let r = q_greedy_rollout(&agent, &zoo, item, 0.8, 0.5);
            models += r.executed.len() as f64;
            time += r.time_ms as f64 / 1000.0;
        }
        let n = table.len() as f64;
        assert!((par.avg_models - models / n).abs() < 1e-9);
        assert!((par.avg_time_s - time / n).abs() < 1e-9);
    }

    #[test]
    fn empty_items_summary_is_default() {
        let (zoo, _, agent) = fixture();
        let s = evaluate_q_greedy(&agent, &zoo, &[], 1.0, 0.5);
        assert_eq!(s, EvalSummary::default());
    }
}
