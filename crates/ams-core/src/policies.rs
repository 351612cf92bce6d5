//! The serial runner every one-model-at-a-time policy runs on, and the
//! run-to-recall execution policies (§VI-B protocol) built over it.
//!
//! [`run_serial`] is the loop of Fig. 3: a picker chooses a model, the
//! model runs under the time budget, its labels are credited to the
//! state, and the picker chooses again until it returns `None`; the
//! [`SerialExecutor`] trace is replayed from the picks. Algorithm 1, the
//! unconstrained greedy, the Table II rules and the Fig. 10 baselines are
//! pickers over it.
//!
//! The run-to-recall policies answer: "in what order do we execute models
//! until the recalled value reaches a target?" They power Figs. 2, 4, 5,
//! 6 and 8:
//!
//! * **Random** — uniformly random order (the paper's random policy).
//! * **Optimal** — models in descending order of their true output value
//!   (the paper's optimal policy; knows the ground truth).
//! * **Q-greedy** — maximal predicted value first (via any
//!   [`ValuePredictor`]; with an [`crate::AgentPredictor`] this is the
//!   paper's Q-value greedy policy).

use crate::predictor::ValuePredictor;
use crate::scheduler::deadline::DeadlineResult;
use crate::scheduler::{recall, ItemRun, QRow};
use ams_data::ItemTruth;
use ams_models::{LabelSet, ModelId, ModelZoo};
use ams_sim::{Job, Pool, SerialExecutor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One run-to-recall rollout's outcome.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Models in execution order.
    pub executed: Vec<ModelId>,
    /// Total execution time of the models run, ms.
    pub time_ms: u64,
    /// Final recall rate of the true output value.
    pub recall: f64,
}

/// Run the models `pick` chooses, one at a time, within `budget_ms`
/// (`u64::MAX` for no budget), until it returns `None`.
///
/// `pick(state, executed_mask, remaining_ms, value)` sees the labeling
/// state, the mask of executed models, the budget left and the value
/// recalled so far, and must return an unexecuted model that fits the
/// remaining budget.
pub fn run_serial(
    item: &ItemTruth,
    zoo: &ModelZoo,
    budget_ms: u64,
    threshold: f32,
    pick: impl FnMut(&LabelSet, u64, u64, f64) -> Option<ModelId>,
) -> DeadlineResult {
    let run = serial_run(item, zoo, budget_ms, threshold, pick);
    // The runs were back to back from 0, so the trace is a replay.
    let mut ex = SerialExecutor::new(budget_ms);
    for &m in &run.executed {
        let spec = zoo.spec(m);
        ex.run(Job {
            id: m.index(),
            time_ms: spec.time_ms,
            mem_mb: spec.mem_mb,
        });
    }
    DeadlineResult {
        recall: recall(item, run.value),
        value: run.value,
        elapsed_ms: run.elapsed_ms,
        executed: run.executed,
        trace: ex.into_trace(),
    }
}

/// [`run_serial`]'s loop without the trace, keeping the final state: the
/// labeling path's form.
pub(crate) fn serial_run(
    item: &ItemTruth,
    zoo: &ModelZoo,
    budget_ms: u64,
    threshold: f32,
    mut pick: impl FnMut(&LabelSet, u64, u64, f64) -> Option<ModelId>,
) -> ItemRun {
    let mut state = LabelSet::new(item.universe());
    let mut executed = Vec::with_capacity(zoo.len());
    let mut mask = 0u64;
    let mut value = 0.0f64;
    let mut elapsed_ms = 0u64;
    while let Some(m) = pick(&state, mask, budget_ms - elapsed_ms, value) {
        assert_eq!(mask >> m.index() & 1, 0, "policy picked executed model {m}");
        let time_ms = u64::from(zoo.spec(m).time_ms);
        assert!(
            time_ms <= budget_ms - elapsed_ms,
            "policy picked model {m} past the budget"
        );
        elapsed_ms += time_ms;
        mask |= 1 << m.index();
        executed.push(m);
        value += item.apply(&mut state, m, threshold);
    }
    ItemRun {
        executed,
        value,
        elapsed_ms,
        state,
    }
}

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
    let total = item.total_value;
    let r = run_serial(item, zoo, u64::MAX, threshold, |state, mask, _, value| {
        let more = (mask.count_ones() as usize) < n
            && total > 0.0
            && value / total < recall_target - 1e-12;
        more.then(|| pick(state, mask))
    });
    Rollout {
        executed: r.executed,
        time_ms: r.elapsed_ms,
        recall: r.recall,
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
    recall(item, value)
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
    let mut row = QRow::new(predictor.num_models());
    run_to_recall(item, zoo, recall_target, threshold, move |state, mask| {
        let q = row.at(predictor, state, item);
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

    /// Pins every serial policy: an FNV-1a fold over each run's executed
    /// ids, the bits of its value, its elapsed time and the bits of its
    /// recall — Algorithm 1 under two predictors at three budgets, the
    /// unconstrained greedy, the random, optimal and Q-greedy rollouts at
    /// two targets, and the Table II rules. Recorded before the serial
    /// loops became one runner; any change to a pick, a tie-break or an
    /// accumulation order moves it.
    #[test]
    fn golden_digest() {
        use crate::framework::{AdaptiveModelScheduler, Budget};
        use crate::predictor::UniformPredictor;
        use crate::rules::{rule_rollout, RuleBook};
        use crate::scheduler::deadline::schedule_deadline;
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        }
        fn fold(h: u64, executed: &[ModelId], value: f64, elapsed_ms: u64, recall: f64) -> u64 {
            let mut h = mix(h, executed.len() as u64);
            for m in executed {
                h = mix(h, m.index() as u64);
            }
            [value.to_bits(), elapsed_ms, recall.to_bits()]
                .into_iter()
                .fold(h, mix)
        }
        let (zoo, t) = fixture();
        let catalog = zoo.catalog();
        let book = RuleBook::table2(&catalog);
        let oracle = OraclePredictor::new(30, 0.5);
        let uniform = UniformPredictor::new(30);
        let sched = AdaptiveModelScheduler::new(
            zoo.clone(),
            Box::new(OraclePredictor::new(30, 0.5)),
            0.5,
            7,
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for item in t.items() {
            for p in [&oracle as &dyn ValuePredictor, &uniform] {
                for budget in [300u64, 900, 2500] {
                    let r = schedule_deadline(p, &zoo, item, budget, 0.5);
                    h = fold(h, &r.executed, r.value, r.elapsed_ms, r.recall);
                }
            }
            let r = sched.label_item(item, Budget::Unconstrained);
            h = fold(h, &r.executed, r.value, r.elapsed_ms, r.recall);
            for target in [0.6, 1.0] {
                for r in [
                    random_rollout(item, &zoo, target, 0.5, 11),
                    optimal_rollout(item, &zoo, target, 0.5),
                    predictor_greedy_rollout(item, &zoo, &oracle, target, 0.5),
                    rule_rollout(item, &zoo, &catalog, &book, target, 0.5, 11),
                ] {
                    h = fold(h, &r.executed, 0.0, r.time_ms, r.recall);
                }
            }
        }
        assert_eq!(h, 0x97d9_302c_740b_3abd, "serial-policy digest {h:#018x}");
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
