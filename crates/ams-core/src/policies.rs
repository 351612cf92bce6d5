//! Run-to-recall execution policies (§VI-B protocol) and the shared
//! rollout runner.
//!
//! These policies answer: "in what order do we execute models until the
//! recalled value reaches a target?" They power Figs. 2, 4, 5, 6 and 8:
//!
//! * **Random** — uniformly random order (the paper's random policy).
//! * **Optimal** — models in descending order of their true output value
//!   (the paper's optimal policy; knows the ground truth).
//! * **Q-greedy** — maximal predicted value first (via any
//!   [`ValuePredictor`]; with an [`crate::AgentPredictor`] this is the
//!   paper's Q-value greedy policy).

use crate::predictor::ValuePredictor;
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId, ModelZoo};
use ams_rl::Rollout;
use ams_sim::{Job, Pool};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Execute models chosen by `pick` until the recall target is reached or
/// every model has run. `pick(state, executed_mask)` must return an
/// unexecuted model.
pub fn run_to_recall(
    item: &ItemTruth,
    zoo: &ModelZoo,
    recall_target: f64,
    threshold: f32,
    mut pick: impl FnMut(&LabelSet, u64) -> ModelId,
) -> Rollout {
    let n = zoo.len();
    let mut state = LabelSet::new(item.universe());
    let mut executed = Vec::new();
    let mut mask = 0u64;
    let mut time_ms = 0u64;
    let mut recalled = 0.0f64;
    let total = item.total_value;

    while executed.len() < n && total > 0.0 && recalled / total < recall_target - 1e-12 {
        let m = pick(&state, mask);
        assert_eq!(mask >> m.index() & 1, 0, "policy picked executed model {m}");
        mask |= 1 << m.index();
        executed.push(m);
        time_ms += u64::from(zoo.spec(m).time_ms);
        recalled += item.apply(&mut state, m, threshold);
    }
    let recall = if total > 0.0 { recalled / total } else { 1.0 };
    Rollout {
        executed,
        time_ms,
        recall,
    }
}

/// Random policy: a fresh uniformly random order per item.
pub fn random_rollout(
    item: &ItemTruth,
    zoo: &ModelZoo,
    recall_target: f64,
    threshold: f32,
    seed: u64,
) -> Rollout {
    let mut order: Vec<ModelId> = zoo.ids().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ item.scene_id.wrapping_mul(0x9E37_79B9));
    order.shuffle(&mut rng);
    let mut i = 0;
    run_to_recall(item, zoo, recall_target, threshold, |_, _| {
        let m = order[i];
        i += 1;
        m
    })
}

/// Random packing under a deadline and a memory budget (the §VI-G
/// baseline): shuffle the models with `shuffle_seed`; at every completion
/// admit, in that order, each pending model that fits the free memory and
/// can finish by the deadline. Only models that finish by the deadline
/// count. Returns the recall.
pub fn random_packing_recall(
    item: &ItemTruth,
    zoo: &ModelZoo,
    budget_ms: u64,
    mem_mb: u32,
    threshold: f32,
    shuffle_seed: u64,
) -> f64 {
    let mut pending: Vec<ModelId> = zoo.ids().collect();
    pending.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
    let mut pool = Pool::new(mem_mb);
    let mut state = LabelSet::new(item.universe());
    let mut value = 0.0;
    while pool.now_ms() < budget_ms {
        let now = pool.now_ms();
        pending.retain(|&m| {
            let spec = zoo.spec(m);
            let admit = pool.fits(spec.mem_mb) && now + u64::from(spec.time_ms) <= budget_ms;
            if admit {
                pool.admit(Job {
                    id: m.index(),
                    time_ms: spec.time_ms,
                    mem_mb: spec.mem_mb,
                });
            }
            !admit
        });
        let Some((_, id, _)) = pool.wait_next() else {
            break;
        };
        if pool.now_ms() <= budget_ms {
            value += item.apply(&mut state, ModelId(id as u8), threshold);
        }
    }
    if item.total_value > 0.0 {
        value / item.total_value
    } else {
        1.0
    }
}

/// Optimal policy (§VI-B): executes models in descending order of their
/// *true* output value.
pub fn optimal_rollout(
    item: &ItemTruth,
    zoo: &ModelZoo,
    recall_target: f64,
    threshold: f32,
) -> Rollout {
    let mut order: Vec<ModelId> = zoo.ids().collect();
    order.sort_by(|a, b| {
        item.model_value[b.index()]
            .partial_cmp(&item.model_value[a.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    let mut i = 0;
    run_to_recall(item, zoo, recall_target, threshold, |_, _| {
        let m = order[i];
        i += 1;
        m
    })
}

/// Q-greedy policy: maximal predicted value among unexecuted models.
pub fn predictor_greedy_rollout(
    item: &ItemTruth,
    zoo: &ModelZoo,
    predictor: &dyn ValuePredictor,
    recall_target: f64,
    threshold: f32,
) -> Rollout {
    let mut q = vec![0.0f32; predictor.num_models()];
    run_to_recall(item, zoo, recall_target, threshold, move |state, mask| {
        predictor.predict_into(state, item, &mut q);
        let mut best = usize::MAX;
        let mut best_q = f32::NEG_INFINITY;
        for (a, &v) in q.iter().enumerate() {
            if mask >> a & 1 == 0 && v > best_q {
                best_q = v;
                best = a;
            }
        }
        ModelId(best as u8)
    })
}

/// "No policy": execute everything; per-item time is the full zoo cost.
pub fn no_policy_time_ms(zoo: &ModelZoo) -> u64 {
    u64::from(zoo.total_time_ms())
}

/// Aggregate a rollout metric over items: returns
/// `(avg executed models, avg time seconds)`.
pub fn aggregate_rollouts<'a>(
    items: impl Iterator<Item = &'a ItemTruth>,
    mut run: impl FnMut(&ItemTruth) -> Rollout,
) -> (f64, f64) {
    let mut n = 0usize;
    let mut models = 0.0;
    let mut time = 0.0;
    for item in items {
        let r = run(item);
        models += r.executed.len() as f64;
        time += r.time_ms as f64 / 1000.0;
        n += 1;
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        (models / n as f64, time / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{OraclePredictor, StaticValuePredictor};
    use ams_data::{Dataset, DatasetProfile, TruthTable};

    fn fixture() -> (ModelZoo, TruthTable) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 40, 77);
        let t = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        (zoo, t)
    }

    #[test]
    fn all_policies_reach_full_recall() {
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        for item in t.items().iter().take(10) {
            for r in [
                random_rollout(item, &zoo, 1.0, 0.5, 1),
                optimal_rollout(item, &zoo, 1.0, 0.5),
                predictor_greedy_rollout(item, &zoo, &oracle, 1.0, 0.5),
            ] {
                assert!(r.recall >= 1.0 - 1e-9, "recall {}", r.recall);
            }
        }
    }

    #[test]
    fn optimal_beats_random_on_average() {
        let (zoo, t) = fixture();
        let (rand_models, rand_time) =
            aggregate_rollouts(t.items().iter(), |it| random_rollout(it, &zoo, 1.0, 0.5, 9));
        let (opt_models, opt_time) =
            aggregate_rollouts(t.items().iter(), |it| optimal_rollout(it, &zoo, 1.0, 0.5));
        assert!(
            opt_models < rand_models,
            "optimal executes fewer models ({opt_models:.1} vs {rand_models:.1})"
        );
        assert!(opt_time < rand_time);
    }

    #[test]
    fn oracle_greedy_at_least_matches_static_optimal() {
        // The marginal-value oracle accounts for overlap, so it should not
        // need more executions than the static-value order on average.
        let (zoo, t) = fixture();
        let oracle = OraclePredictor::new(30, 0.5);
        let static_p = StaticValuePredictor::new(30);
        let (om, _) = aggregate_rollouts(t.items().iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &oracle, 1.0, 0.5)
        });
        let (sm, _) = aggregate_rollouts(t.items().iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &static_p, 1.0, 0.5)
        });
        assert!(om <= sm + 0.5, "oracle-marginal {om:.2} vs static {sm:.2}");
    }

    #[test]
    fn lower_targets_cost_less() {
        let (zoo, t) = fixture();
        for item in t.items().iter().take(10) {
            let lo = optimal_rollout(item, &zoo, 0.5, 0.5);
            let hi = optimal_rollout(item, &zoo, 1.0, 0.5);
            assert!(lo.executed.len() <= hi.executed.len());
            assert!(lo.time_ms <= hi.time_ms);
        }
    }

    #[test]
    fn random_rollout_is_deterministic_per_seed() {
        let (zoo, t) = fixture();
        let a = random_rollout(t.item(0), &zoo, 1.0, 0.5, 42);
        let b = random_rollout(t.item(0), &zoo, 1.0, 0.5, 42);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn no_policy_time_is_zoo_total() {
        let (zoo, _) = fixture();
        assert_eq!(no_policy_time_ms(&zoo), u64::from(zoo.total_time_ms()));
    }

    #[test]
    fn rollouts_never_duplicate_models() {
        let (zoo, t) = fixture();
        for item in t.items().iter().take(20) {
            let r = random_rollout(item, &zoo, 1.0, 0.5, 5);
            let mut seen = std::collections::HashSet::new();
            assert!(r.executed.iter().all(|m| seen.insert(*m)));
        }
    }
}
