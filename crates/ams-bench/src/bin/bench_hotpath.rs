//! Hot-path benchmark: scalar vs batched `learn_step`, the serve-time Q
//! inference kernel against the training forward it replaces, and the
//! serial stream engine's throughput. Writes the measured trajectory to
//! `BENCH_hotpath.json` (methodology in `PERF.md`).
//!
//! `--smoke` runs a shortened pass (fewer timed iterations, smaller stream
//! fixture) and writes `target/BENCH_hotpath.smoke.json` instead — the CI
//! bench gate compares it against the committed smoke baseline without
//! ever clobbering the full record.
//!
//! Run with: `cargo run --release -p ams-bench --bin bench_hotpath [-- --smoke]`

use ams::nn::{BatchFwdCache, BatchInput, FwdCache, InferScratch, Input, QInfer, QNet};
use ams::prelude::*;
use ams::rl::BatchScratch;
use ams_bench::hotpath::{
    learn_step_scalar, learn_step_seed, LearnSetup, ScalarScratch, SeedAdam, SeedScratch,
};
use serde::Serialize;
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Measurement {
    name: String,
    iters: u64,
    ns_per_iter: f64,
}

/// The whole benchmark record.
#[derive(Debug, Serialize)]
struct Record {
    description: String,
    cores_available: usize,
    smoke: bool,
    batch: usize,
    /// The seed repository's learn step (scalar passes, per-call backward
    /// allocations, non-vectorized Adam) — the pre-PR baseline.
    learn_seed_ns: f64,
    /// The in-tree scalar reference after the allocation-hoisting fixes
    /// (shares the vectorized Adam with the batched path).
    learn_scalar_ns: f64,
    learn_batched_ns: f64,
    /// Seed scalar baseline / batched: the speedup this PR's batched +
    /// vectorized substrate delivers for one gradient step at `batch`.
    learn_speedup: f64,
    /// Hoisted in-tree scalar / batched: the share of the win owed to
    /// batching alone (both sides use the vectorized Adam, which Amdahl
    /// makes the common floor).
    learn_speedup_vs_hoisted_scalar: f64,
    /// One whole offline `train()` at `bench/`'s set-up shape
    /// ([`ams_bench::hotpath::bench_training`]): 300 episodes, ~2 200
    /// learn steps, target syncs and Adam's subnormal phase included.
    train_300_ms: f64,
    /// `train_300_ms` ÷ its learn steps, in ns: the realistic learn step
    /// (episode stepping and ε-greedy acting included) that the fixed-
    /// target `learn_batched_ns` fixture does not see.
    learn_step_train_ns: f64,
    /// `learn_seed_ns` ÷ `learn_step_train_ns`: the realistic step against
    /// the frozen seed step timed in the same run, which the gate reads
    /// so the machine's speed cancels.
    train_step_speedup: f64,
    /// Max |Q_batched − Q_scalar| over a replay minibatch (must be < 1e-5).
    q_equivalence_max_abs_diff: f64,
    /// One `QNet::forward` (the training forward) on the stream fixture's
    /// trained agent, mean over replay states.
    q_forward_ns: f64,
    /// One `QInfer::q_into` (the serve-time kernel) on the same agent and
    /// states.
    q_infer_ns: f64,
    /// Max |Q_infer − Q_forward| over those states; the kernel is
    /// bit-identical, so this must be exactly 0.
    q_infer_max_abs_diff: f64,
    /// Σ id-order list makespan ÷ Σ packed makespan over the stream
    /// fixture's batches ([`ams_bench::hotpath::pack_gain`]): what choosing
    /// the virtual-GPU pool's admission order saves. Virtual time only, so
    /// it repeats exactly.
    pack_gain: f64,
    /// Σ per-batch packed makespan ÷ the end of the same batches streamed
    /// back to back through one pool
    /// ([`ams_bench::hotpath::stream_gain`]): what letting each batch fill
    /// the memory the last one leaves saves. Virtual time only, so it
    /// repeats exactly.
    stream_gain: f64,
    /// The same streams' end ÷ their end with the serving worker's
    /// look-ahead (`LOOK_AHEAD_BATCHES` batches), each batch's runs joining the not-yet-started invocations of their
    /// models ([`ams_bench::hotpath::merge_gain`]): what sharing a setup
    /// across batches saves. Virtual time only, so it repeats exactly.
    merge_gain: f64,
    stream_items: usize,
    /// Heap bytes of the 240-item training world's ground truth
    /// ([`ams_bench::hotpath::truth_heap_bytes`]): an exact count, the
    /// same in smoke and full runs.
    truth_heap_bytes: usize,
    /// Compute-only serial-engine throughput (virtual execution elided).
    compute_serial_items_per_s: f64,
    /// Deployment-shaped throughput: each item additionally waits
    /// `elapsed_ms x exec_emulation_scale` of wall-clock, emulating the
    /// real model executions the virtual clock elides.
    exec_emulation_scale: f64,
    serial_items_per_s: f64,
    trajectory: Vec<Measurement>,
}

/// Time `f` with warmup; returns (ns/iter, iters).
fn time_ns(mut f: impl FnMut(), warmup: u64, iters: u64) -> (f64, u64) {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    (t0.elapsed().as_nanos() as f64 / iters as f64, iters)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Shortened smoke pass: enough iterations that the speedup ratios are
    // stable to well under the gate tolerances, small enough for CI.
    let (warmup, iters) = if smoke { (10u64, 80u64) } else { (30, 300) };
    let mut trajectory: Vec<Measurement> = Vec::new();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ---- learn-step: seed baseline vs scalar vs batched -----------------
    let LearnSetup {
        cfg,
        mut net,
        target,
        replay,
    } = LearnSetup::paper(Algo::Dqn, 32);
    let huber = ams::nn::Huber::default();

    let mut opt_seed = SeedAdam::new(cfg.lr);
    let mut rng_seed = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(11)
    };
    let mut scratch_seed = SeedScratch::new(&net);
    let (seed_ns, seed_iters) = time_ns(
        || {
            learn_step_seed(
                &mut net,
                &target,
                &mut opt_seed,
                &replay,
                &cfg,
                &huber,
                &mut rng_seed,
                &mut scratch_seed,
            );
        },
        warmup,
        iters,
    );
    trajectory.push(Measurement {
        name: "learn_step_seed_baseline_b32".into(),
        iters: seed_iters,
        ns_per_iter: seed_ns,
    });

    let mut opt_s = ams::nn::Adam::new(cfg.lr);
    let mut rng_s = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(11)
    };
    let mut scratch_s = ScalarScratch::new(&net);
    let (scalar_ns, scalar_iters) = time_ns(
        || {
            learn_step_scalar(
                &mut net,
                &target,
                &mut opt_s,
                &replay,
                &cfg,
                &huber,
                &mut rng_s,
                &mut scratch_s,
            );
        },
        warmup,
        iters,
    );
    trajectory.push(Measurement {
        name: "learn_step_scalar_b32".into(),
        iters: scalar_iters,
        ns_per_iter: scalar_ns,
    });

    let mut net_b = QNet::new(net.config().clone(), 42);
    let mut opt_b = ams::nn::Adam::new(cfg.lr);
    let mut rng_b = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(11)
    };
    let mut scratch_b = BatchScratch::new(&net_b);
    let (batched_ns, batched_iters) = time_ns(
        || {
            ams::rl::learn_step_batched(
                &mut net_b,
                &target,
                &mut opt_b,
                &replay,
                &cfg,
                &huber,
                &mut rng_b,
                &mut scratch_b,
            );
        },
        warmup,
        iters,
    );
    trajectory.push(Measurement {
        name: "learn_step_batched_b32".into(),
        iters: batched_iters,
        ns_per_iter: batched_ns,
    });

    // ---- a whole offline training at bench/'s set-up shape --------------
    let (world, train_cfg) = ams_bench::hotpath::bench_training();
    let t0 = Instant::now();
    let (_, train_stats) = train(world.items(), 30, &train_cfg);
    let train_ns = t0.elapsed().as_nanos() as f64;
    let learn_step_train_ns = train_ns / train_stats.learn_steps as f64;
    trajectory.push(Measurement {
        name: "train_300_episodes_per_learn_step".into(),
        iters: train_stats.learn_steps as u64,
        ns_per_iter: learn_step_train_ns,
    });

    // ---- batched-Q equivalence over a replay minibatch ------------------
    let states: Vec<&[u32]> = (0..32).map(|i| &*replay.get(i).state).collect();
    let mut bcache = BatchFwdCache::default();
    let qb = net.forward_batch(BatchInput::Sparse(&states), &mut bcache);
    let mut cache = FwdCache::default();
    let mut max_diff = 0.0f64;
    for (s, st) in states.iter().enumerate() {
        let qs = net.forward(Input::Sparse(st), &mut cache);
        for (a, &v) in qs.iter().enumerate() {
            max_diff = max_diff.max(f64::from((qb.get(s, a) - v).abs()));
        }
    }
    assert!(
        max_diff < 1e-5,
        "batched Q diverged from scalar: {max_diff}"
    );

    let emu_scale = 1.0e-3; // 1 wall-clock us per virtual execution ms
    let setup = if smoke {
        ams_bench::hotpath::StreamSetup::paper(96, 24)
    } else {
        ams_bench::hotpath::StreamSetup::paper(240, 120)
    };

    // ---- serve-time Q kernel vs the training forward --------------------
    // Same trained agent the stream section serves, over replay states
    // (realistic density: a handful to tens of active labels).
    let agent_net = &setup.agent.net;
    let view = QInfer::new(agent_net);
    let mut infer_scratch = InferScratch::default();
    let mut q_infer = vec![0.0f32; agent_net.actions()];
    let probe: Vec<&[u32]> = (0..256).map(|i| &*replay.get(i).state).collect();
    let mut q_infer_max_diff = 0.0f64;
    for st in &probe {
        view.q_into(agent_net, st, &mut infer_scratch, &mut q_infer);
        let qs = agent_net.forward(Input::Sparse(st), &mut cache);
        for (&got, &want) in q_infer.iter().zip(qs) {
            // Judged on bits, so a signed-zero or NaN mismatch (whose
            // |difference| is 0 or NaN) still reports a positive value.
            let diff = if got.to_bits() == want.to_bits() {
                0.0
            } else {
                f64::from((got - want).abs()).max(f64::MIN_POSITIVE)
            };
            q_infer_max_diff = q_infer_max_diff.max(diff);
        }
    }
    assert!(
        q_infer_max_diff == 0.0,
        "inference kernel diverged from QNet::forward: {q_infer_max_diff:e}"
    );
    let per_state = |(ns, iters): (f64, u64)| (ns / probe.len() as f64, iters);
    let (q_forward_ns, q_forward_iters) = per_state(time_ns(
        || {
            for st in &probe {
                std::hint::black_box(agent_net.forward(Input::Sparse(st), &mut cache));
            }
        },
        warmup,
        iters,
    ));
    let (q_infer_ns, q_infer_iters) = per_state(time_ns(
        || {
            for st in &probe {
                view.q_into(agent_net, st, &mut infer_scratch, &mut q_infer);
                std::hint::black_box(&q_infer);
            }
        },
        warmup,
        iters,
    ));
    trajectory.push(Measurement {
        name: "q_forward_training_path".into(),
        iters: q_forward_iters * probe.len() as u64,
        ns_per_iter: q_forward_ns,
    });
    trajectory.push(Measurement {
        name: "q_infer_kernel".into(),
        iters: q_infer_iters * probe.len() as u64,
        ns_per_iter: q_infer_ns,
    });

    // ---- stream engine: the serial reference -----------------------------
    let budget = Budget::Deadline { ms: 1000 };
    let items = setup.truth.items();
    let mut serial = StreamProcessor::new(setup.scheduler(), budget);

    // Compute-only (virtual execution elided): core-bound. Enough rounds
    // that the measurement spans tens of milliseconds — at ~5 µs/item the
    // old 3-round window was noise-dominated.
    let serial_rounds = if smoke { 8usize } else { 20 };
    serial.process_all(items.iter().take(24)); // warmup
    serial.reset_stats();
    let t0 = Instant::now();
    for _ in 0..serial_rounds {
        serial.process_all(items);
    }
    let compute_serial_ips = (items.len() * serial_rounds) as f64 / t0.elapsed().as_secs_f64();

    // Deployment-shaped: emulate waiting on the actual model executions.
    serial.exec_emulation_scale = emu_scale;
    let t0 = Instant::now();
    serial.process_all(items);
    let serial_s = t0.elapsed().as_secs_f64();
    let serial_ips = items.len() as f64 / serial_s;
    trajectory.push(Measurement {
        name: "stream_serial_deployment".into(),
        iters: items.len() as u64,
        ns_per_iter: serial_s * 1e9 / items.len() as f64,
    });

    let record = Record {
        description: "AMS hot-path benchmark: DQN learn_step (paper architecture 1104->256->31, \
                      batch 32) and serial stream-labeling throughput (240 items, 1s \
                      deadline, DRL-agent predictor). See PERF.md for methodology."
            .into(),
        cores_available: cores,
        smoke,
        batch: cfg.batch,
        learn_seed_ns: seed_ns,
        learn_scalar_ns: scalar_ns,
        learn_batched_ns: batched_ns,
        learn_speedup: seed_ns / batched_ns,
        learn_speedup_vs_hoisted_scalar: scalar_ns / batched_ns,
        train_300_ms: train_ns / 1e6,
        learn_step_train_ns,
        train_step_speedup: seed_ns / learn_step_train_ns,
        q_equivalence_max_abs_diff: max_diff,
        q_forward_ns,
        q_infer_ns,
        q_infer_max_abs_diff: q_infer_max_diff,
        pack_gain: ams_bench::hotpath::pack_gain(&setup),
        stream_gain: ams_bench::hotpath::stream_gain(&setup),
        merge_gain: ams_bench::hotpath::merge_gain(&setup),
        stream_items: items.len(),
        truth_heap_bytes: ams_bench::hotpath::truth_heap_bytes(world.items()),
        compute_serial_items_per_s: compute_serial_ips,
        exec_emulation_scale: emu_scale,
        serial_items_per_s: serial_ips,
        trajectory,
    };

    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    // Smoke runs are a CI gate, not a measurement: don't clobber the
    // committed full-run record.
    let path = if smoke {
        "target/BENCH_hotpath.smoke.json"
    } else {
        "BENCH_hotpath.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
    eprintln!(
        "learn_step speedup: {:.2}x | 300-episode training {:.0} ms | Q forward {:.0} ns -> kernel \
         {:.0} ns | serial stream on {} core(s): {:.0} items/s compute-only",
        record.learn_speedup,
        record.train_300_ms,
        record.q_forward_ns,
        record.q_infer_ns,
        cores,
        record.compute_serial_items_per_s
    );
}
