//! Micro-bench: the two training/serving hot paths this workspace
//! optimizes — one DQN gradient step (scalar reference vs batched kernels)
//! and one stream-labeled item through the serial engine.
//! `cargo run --release -p ams-bench --bin bench_hotpath` produces the
//! recorded `BENCH_hotpath.json` from the same fixtures.

use ams::prelude::*;
use ams::rl::{learn_step_batched, BatchScratch};
use ams_bench::hotpath::{learn_step_scalar, LearnSetup, ScalarScratch};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_learn_step(c: &mut Criterion) {
    let LearnSetup {
        cfg,
        mut net,
        target,
        replay,
    } = LearnSetup::paper(Algo::Dqn, 32);
    let huber = ams::nn::Huber::default();

    let mut opt = ams::nn::Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(3);
    let mut scratch = ScalarScratch::new(&net);
    c.bench_function("learn_step_scalar_b32", |b| {
        b.iter(|| {
            black_box(learn_step_scalar(
                &mut net,
                &target,
                &mut opt,
                &replay,
                &cfg,
                &huber,
                &mut rng,
                &mut scratch,
            ))
        })
    });

    let mut opt = ams::nn::Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(3);
    let mut scratch = BatchScratch::new(&net);
    c.bench_function("learn_step_batched_b32", |b| {
        b.iter(|| {
            black_box(learn_step_batched(
                &mut net,
                &target,
                &mut opt,
                &replay,
                &cfg,
                &huber,
                &mut rng,
                &mut scratch,
            ))
        })
    });
}

fn bench_stream(c: &mut Criterion) {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, 60, 7);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
    let tcfg = TrainConfig {
        episodes: 60,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(truth.items(), zoo.len(), &tcfg);
    let budget = Budget::Deadline { ms: 1000 };
    let scheduler = AdaptiveModelScheduler::new(
        ModelZoo::standard(),
        Box::new(AgentPredictor::new(agent)),
        0.5,
        ds.world_seed,
    );

    let mut serial = StreamProcessor::new(scheduler, budget);
    c.bench_function("stream_serial_60_items", |b| {
        b.iter(|| {
            serial.reset_stats();
            serial.process_all(truth.items());
            black_box(serial.stats().items)
        })
    });
}

criterion_group!(benches, bench_learn_step, bench_stream);
criterion_main!(benches);
