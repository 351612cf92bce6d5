//! Shape tests: small-scale versions of the paper's headline claims that
//! must hold qualitatively on every run. The full-fidelity numbers are
//! what `cargo run --release -p ams-bench` prints.

use ams::core::policies::{
    aggregate_rollouts, optimal_rollout, random_packing_recall, random_rollout,
};
use ams::core::predictor::OraclePredictor;
use ams::core::scheduler::optimal_star;
use ams::prelude::*;

fn fixture() -> (ModelZoo, TruthTable) {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, 80, 2020);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
    (zoo, truth)
}

/// §II: the optimal policy needs a small fraction of the no-policy time
/// (paper: 22.1%), and random barely helps (paper: ~90%).
#[test]
fn policy_gap_shape() {
    let (zoo, truth) = fixture();
    let no_policy = zoo.total_time_ms() as f64 / 1000.0;
    let (_, t_rand) = aggregate_rollouts(truth.items().iter(), |it| {
        random_rollout(it, &zoo, 1.0, 0.5, 3)
    });
    let (_, t_opt) = aggregate_rollouts(truth.items().iter(), |it| {
        optimal_rollout(it, &zoo, 1.0, 0.5)
    });
    assert!(
        t_opt / no_policy < 0.5,
        "optimal should be far below no-policy ({:.2})",
        t_opt / no_policy
    );
    assert!(
        t_rand / no_policy > 0.6,
        "random should stay close to no-policy ({:.2})",
        t_rand / no_policy
    );
    assert!(
        t_opt < t_rand * 0.62,
        "optimal well below random ({:.2} vs {:.2})",
        t_opt,
        t_rand
    );
}

/// §VI-F shape: with a competent value predictor Algorithm 1 beats both
/// Q-greedy-without-costs and random under tight deadlines, and its ratio
/// to optimal* clears 1 − 1/e.
#[test]
fn deadline_scheduling_shape() {
    let (zoo, truth) = fixture();
    let oracle = OraclePredictor::new(zoo.len(), 0.5);
    let budget = 500u64; // the paper's headline 0.5 s budget
    let mut alg1 = 0.0;
    let mut star = 0.0;
    let mut rand = 0.0;
    for item in truth.items() {
        alg1 += schedule_deadline(&oracle, &zoo, item, budget, 0.5).recall;
        star += optimal_star::recall::deadline(&zoo, item, budget, 0.5);
        // random under deadline: shuffle then run what fits
        let r = random_rollout(item, &zoo, 1.0, 0.5, 9);
        let mut remaining = budget;
        let mut state = LabelSet::new(item.universe());
        let mut v = 0.0;
        for m in r.executed {
            let t = u64::from(zoo.spec(m).time_ms);
            if t <= remaining {
                remaining -= t;
                v += item.apply(&mut state, m, 0.5);
            }
        }
        rand += if item.total_value > 0.0 {
            v / item.total_value
        } else {
            1.0
        };
    }
    let n = truth.len() as f64;
    let (alg1, star, rand) = (alg1 / n, star / n, rand / n);
    assert!(
        alg1 > rand * 1.3,
        "Algorithm 1 ({alg1:.2}) must clearly beat random ({rand:.2}) at 0.5s"
    );
    assert!(
        alg1 / star > 1.0 - 1.0 / std::f64::consts::E,
        "ratio {:.2} above 1-1/e",
        alg1 / star
    );
}

/// §VI-G shape: Algorithm 2's edge over random packing shrinks as the
/// memory budget grows.
#[test]
fn memory_scheduling_shape() {
    let (zoo, truth) = fixture();
    let oracle = OraclePredictor::new(zoo.len(), 0.5);
    let budget = 800u64;
    let mut edge = Vec::new();
    for mem in [8192u32, 16384] {
        let mut agent = 0.0;
        let mut rand_total = 0.0;
        for item in truth.items() {
            agent += schedule_deadline_memory(&oracle, &zoo, item, budget, mem, 0.5).recall;
            rand_total += random_packing_recall(item, &zoo, budget, mem, 0.5, item.scene_id ^ 77);
        }
        edge.push(agent / rand_total.max(1e-9));
    }
    assert!(
        edge[0] > 1.0,
        "Algorithm 2 must beat random packing at 8GB (x{:.2})",
        edge[0]
    );
    assert!(
        edge[0] > edge[1] - 0.02,
        "the edge should shrink (or stay flat) with more memory: 8GB x{:.2} vs 16GB x{:.2}",
        edge[0],
        edge[1]
    );
}

/// §VI-B shape at miniature scale: even a briefly-trained agent's Q-greedy
/// policy needs fewer executions than random at a 0.8 recall target.
#[test]
fn trained_agent_beats_random_small_scale() {
    let (zoo, truth) = fixture();
    let split = ams::data::dataset::Split {
        train_len: 30,
        total: truth.len(),
    };
    let (train_items, test_items) = truth.split(split);
    let cfg = TrainConfig {
        episodes: 220,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(train_items, zoo.len(), &cfg);
    let predictor = AgentPredictor::new(agent);
    let (agent_models, _) = aggregate_rollouts(test_items.iter(), |it| {
        ams::core::policies::predictor_greedy_rollout(it, &zoo, &predictor, 0.8, 0.5)
    });
    let (rand_models, _) = aggregate_rollouts(test_items.iter(), |it| {
        random_rollout(it, &zoo, 0.8, 0.5, 5)
    });
    assert!(
        agent_models < rand_models * 0.9,
        "agent ({agent_models:.1}) should clearly beat random ({rand_models:.1}) at 0.8 recall"
    );
}
