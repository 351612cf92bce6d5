//! Integration tests of the training pipeline: the four schemas, END-action
//! behaviour, θ priorities, and determinism across the crate boundary.

use ams::prelude::*;

fn truth(n: usize, seed: u64) -> (ModelZoo, TruthTable) {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, n, seed);
    let table = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
    (zoo, table)
}

#[test]
fn four_schemas_produce_working_predictors() {
    let (zoo, table) = truth(60, 3);
    for algo in Algo::ALL {
        let cfg = TrainConfig {
            episodes: 50,
            ..TrainConfig::fast_test(algo)
        };
        let (agent, stats) = train(table.items(), zoo.len(), &cfg);
        assert!(stats.learn_steps > 0, "{algo}");
        // the agent must plug into the scheduler stack and respect budgets
        let predictor = AgentPredictor::new(agent);
        let r = schedule_deadline(&predictor, &zoo, table.item(0), 1500, 0.5);
        assert!(r.elapsed_ms <= 1500, "{algo}");
    }
}

#[test]
fn end_action_lets_episodes_stop_early() {
    let (_, table) = truth(60, 5);
    let with_end = TrainConfig {
        episodes: 120,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let without_end = TrainConfig {
        use_end_action: false,
        ..with_end.clone()
    };
    let (_, s_with) = train(table.items(), 30, &with_end);
    let (_, s_without) = train(table.items(), 30, &without_end);
    // without END every episode runs all 30 models; with END the trained
    // agent learns to terminate, so late episodes are shorter on average
    assert!(s_without.episode_lengths.iter().all(|&l| l == 30));
    let late_with: f64 = s_with.episode_lengths[80..]
        .iter()
        .map(|&l| l as f64)
        .sum::<f64>()
        / 40.0;
    assert!(
        late_with < 30.0,
        "END action should shorten late episodes (avg {late_with:.1})"
    );
}

#[test]
fn theta_priority_shifts_reward_toward_model() {
    let (_, table) = truth(60, 7);
    let face = ModelId(6); // face-det-flagship
    let base = RewardConfig::default();
    let boosted = RewardConfig::default().with_theta(face, 10.0, 30);
    // same item, same new labels: boosted θ yields strictly larger reward
    let item = table
        .items()
        .iter()
        .find(|it| it.model_value[face.index()] > 0.0)
        .expect("an item where the face detector is valuable");
    let mut env_base = LabelingEnv::new(item, &base, 30, true);
    let mut env_boost = LabelingEnv::new(item, &boosted, 30, true);
    let r_base = env_base.step(face.index()).reward;
    let r_boost = env_boost.step(face.index()).reward;
    assert!(r_boost > r_base);
}

#[test]
fn training_is_reproducible_across_calls() {
    let (_, table) = truth(40, 11);
    let cfg = TrainConfig {
        episodes: 25,
        ..TrainConfig::fast_test(Algo::DoubleDqn)
    };
    let (a, sa) = train(table.items(), 30, &cfg);
    let (b, sb) = train(table.items(), 30, &cfg);
    assert_eq!(sa.episode_rewards, sb.episode_rewards);
    assert_eq!(sa.steps, sb.steps);
    let qa = a.q_values(&[10, 90, 400]);
    let qb = b.q_values(&[10, 90, 400]);
    for (x, y) in qa.iter().zip(&qb) {
        assert!((x - y).abs() < 1e-7);
    }
}

#[test]
fn eval_metrics_consistent_with_rollouts() {
    let (zoo, table) = truth(50, 13);
    let cfg = TrainConfig {
        episodes: 40,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(table.items(), zoo.len(), &cfg);
    let predictor = AgentPredictor::new(agent);
    let rollout =
        |it: &ItemTruth| policies::predictor_greedy_rollout(it, &zoo, &predictor, 0.7, 0.5);
    let (avg_models, avg_time_s) = policies::aggregate_rollouts(table.items().iter(), rollout);
    assert!(table
        .items()
        .iter()
        .all(|it| rollout(it).recall >= 0.7 - 1e-9));
    assert!(avg_models >= 1.0);
    assert!(avg_time_s > 0.0);
}
