//! Isolated layer probes: each times one layer's public function on the
//! workload's own items, on one thread, after the timed window has ended.
//! A probe's number is the median over five batches of the mean time per
//! call; it says what the layer costs alone, not what it costs in situ.

use crate::metrics::Values;
use crate::stats::median;
use crate::workload::{Prepared, THRESHOLD};
use ams::models::{LabelSet, ModelZoo};
use ams::nn::{Adam, BatchFwdCache, BatchInput, FwdCache, Huber, Input};
use ams::prelude::*;
use ams::rl::{outcome_transitions, ReplayBuffer};
use ams::serve::net::{decode_value, encode_value, ClientFrame, ServerFrame, WireRequest};
use ams::serve::{Request, Router, ShardQueue};
use ams::sim::Job;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per probe (after one untimed).
const BATCHES: usize = 5;
/// Pool items a probe cycles over.
const ITEMS: usize = 256;

/// Median over [`BATCHES`] of the mean ns per call of `op`, which is called
/// `calls` times a batch with the call's index.
fn time_ns(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        (0..calls).for_each(&mut op);
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    batch();
    let timed: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&timed)
}

/// A predictor that counts its evaluations.
struct Counting<'a> {
    inner: &'a dyn ValuePredictor,
    evals: AtomicU64,
}

impl ValuePredictor for Counting<'_> {
    fn num_models(&self) -> usize {
        self.inner.num_models()
    }
    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_into(state, item, out);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn frame_bytes(frame: &impl Serialize) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    encode_value(&frame.to_value(), &mut out);
    out
}

/// Run every probe and record its metric. `results` are labeled answers
/// from the traced window, the completions the codec probes encode.
pub fn run(prep: &Prepared, results: &[LabelResult], values: &mut Values) {
    let items: Vec<&Arc<ItemTruth>> = prep.pool.iter().take(ITEMS).collect();
    let item = |i: usize| items[i % items.len()];
    let sched = prep.scheduler();
    let zoo = ModelZoo::standard();
    let budget = prep.spec.budget;

    // --- net: the frame codec, both directions -------------------------
    let requests: Vec<ClientFrame> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            ClientFrame::Request(WireRequest {
                id: i as u64,
                item: (***it).clone(),
                class: 0,
                deadline_us: None,
                value: None,
            })
        })
        .collect();
    let request_bytes: Vec<Vec<u8>> = requests.iter().map(frame_bytes).collect();
    let completions: Vec<ServerFrame> = results
        .iter()
        .take(ITEMS)
        .map(|r| ServerFrame::Completion(Completion::Labeled(r.clone())))
        .collect();
    let completion_bytes: Vec<Vec<u8>> = completions.iter().map(frame_bytes).collect();
    let mean_len = |frames: &[Vec<u8>]| {
        // Payload plus the 4-byte length prefix.
        frames.iter().map(|f| f.len() + 4).sum::<usize>() as f64 / frames.len().max(1) as f64
    };
    values.set("net.request_bytes", mean_len(&request_bytes));
    values.set("net.completion_bytes", mean_len(&completion_bytes));
    values.set(
        "net.encode_request_ns",
        time_ns(512, |i| {
            black_box(frame_bytes(&requests[i % requests.len()]));
        }),
    );
    values.set(
        "net.decode_request_ns",
        time_ns(512, |i| {
            let v = decode_value(&request_bytes[i % request_bytes.len()]).expect("own frame");
            black_box(ClientFrame::from_value(&v).expect("own frame"));
        }),
    );
    if completions.is_empty() {
        values.set("net.encode_completion_ns", 0.0);
        values.set("net.decode_completion_ns", 0.0);
    } else {
        values.set(
            "net.encode_completion_ns",
            time_ns(4096, |i| {
                black_box(frame_bytes(&completions[i % completions.len()]));
            }),
        );
        values.set(
            "net.decode_completion_ns",
            time_ns(4096, |i| {
                let bytes = &completion_bytes[i % completion_bytes.len()];
                let v = decode_value(bytes).expect("own frame");
                black_box(ServerFrame::from_value(&v).expect("own frame"));
            }),
        );
    }

    // --- router / framework: fingerprint, content hash, label_item -----
    let routing = prep.serve_config().routing;
    let router = Router::new(routing, 2);
    values.set(
        "router.fingerprint_ns",
        time_ns(8192, |i| {
            black_box(router.fingerprint(&sched, item(i), false));
        }),
    );
    values.set(
        "router.fingerprint_content_ns",
        time_ns(8192, |i| {
            black_box(router.fingerprint(&sched, item(i), true));
        }),
    );
    values.set(
        "framework.content_hash_ns",
        time_ns(8192, |i| {
            black_box(ams::core::framework::content_hash(item(i)));
        }),
    );
    values.set(
        "framework.label_item_ns",
        time_ns(512, |i| {
            black_box(sched.label_item(item(i), budget));
        }),
    );

    // --- predictor / nn / scheduler ------------------------------------
    // States a scheduler meets mid-item: the item's two most valuable
    // models already executed.
    let states: Vec<LabelSet> = items
        .iter()
        .map(|it| {
            let mut state = LabelSet::new(it.universe());
            for m in it.valuable_models(THRESHOLD).into_iter().take(2) {
                it.apply(&mut state, m, THRESHOLD);
            }
            state
        })
        .collect();
    let sparse: Vec<Vec<u32>> = states.iter().map(LabelSet::to_sparse).collect();
    let predictor = sched.predictor();
    let mut q = vec![0.0f32; zoo.len()];
    values.set(
        "predictor.predict_ns",
        time_ns(4096, |i| {
            predictor.predict_into(&states[i % states.len()], item(i), &mut q);
            black_box(&q);
        }),
    );
    let counting = Counting {
        inner: predictor,
        evals: AtomicU64::new(0),
    };
    for it in &items {
        black_box(sched.label_item_with(&counting, it, budget));
    }
    values.set(
        "predictor.evals_per_item",
        counting.evals.load(Ordering::Relaxed) as f64 / items.len() as f64,
    );
    let net = &prep.agent.net;
    let mut cache = FwdCache::default();
    values.set(
        "nn.forward_ns",
        time_ns(4096, |i| {
            black_box(net.forward(Input::Sparse(&sparse[i % sparse.len()]), &mut cache));
        }),
    );
    let rows: Vec<&[u32]> = sparse.iter().take(32).map(Vec::as_slice).collect();
    let mut batch_cache = BatchFwdCache::default();
    values.set(
        "nn.forward_batch_row_ns",
        time_ns(256, |_| {
            black_box(net.forward_batch(BatchInput::Sparse(&rows), &mut batch_cache));
        }) / rows.len() as f64,
    );
    values.set(
        "scheduler.alg1_ns",
        time_ns(512, |i| {
            black_box(schedule_deadline(predictor, &zoo, item(i), 1000, THRESHOLD));
        }),
    );
    values.set(
        "scheduler.alg2_ns",
        time_ns(512, |i| {
            black_box(schedule_deadline_memory(
                predictor,
                &zoo,
                item(i),
                1000,
                8192,
                THRESHOLD,
            ));
        }),
    );

    // --- sim: batched admission of one 8-request batch -----------------
    let outcomes: Vec<LabelingOutcome> = items
        .iter()
        .take(128)
        .map(|it| sched.label_item(it, budget))
        .collect();
    let cfg = prep.serve_config();
    let batches: Vec<Vec<(Job, usize)>> = outcomes
        .chunks(cfg.max_batch)
        .map(|batch| {
            let mut count = vec![0usize; zoo.len()];
            for m in batch.iter().flat_map(|o| &o.executed) {
                count[m.index()] += 1;
            }
            zoo.specs()
                .iter()
                .enumerate()
                .filter(|(m, _)| count[*m] > 0)
                .map(|(m, spec)| {
                    let job = Job {
                        id: m,
                        time_ms: spec.time_ms,
                        mem_mb: spec.mem_mb,
                    };
                    (job, count[m])
                })
                .collect()
        })
        .collect();
    values.set(
        "sim.admit_batch_ns",
        time_ns(4096, |i| {
            black_box(batched_makespan(
                &batches[i % batches.len()],
                cfg.pool_mb,
                &cfg.batch_model,
            ));
        }),
    );

    // --- queue: push + pop through a shard queue -----------------------
    let signatures: Vec<u64> = items
        .iter()
        .map(|it| sched.affinity_signature(it, 2))
        .collect();
    let plain = ShardQueue::new(64, BackpressurePolicy::Block);
    values.set(
        "queue.push_pop_ns",
        time_ns(512, |i| {
            for j in 0..8 {
                let n = i * 8 + j;
                plain.push(Request::new(
                    Arc::clone(item(n)),
                    signatures[n % items.len()],
                ));
            }
            black_box(plain.pop_batch(8));
        }) / 8.0,
    );
    // The overload shape: 16 slots, 24 arrivals, so a third of the pushes
    // price and evict a victim, and pops are earliest-deadline-first.
    let slo = ShardQueue::with_slo(16, BackpressurePolicy::ShedOldest, true, true);
    values.set(
        "queue.push_pop_slo_ns",
        time_ns(256, |i| {
            for j in 0..24 {
                let n = i * 24 + j;
                let (class, weight, deadline_us) = if n % 2 == 0 {
                    (0, 4.0, 120_000)
                } else {
                    (1, 1.0, 600_000)
                };
                let request = Request::new(Arc::clone(item(n)), signatures[n % items.len()])
                    .with_slo(class, weight * item(n).total_value, Some(deadline_us));
                slo.push(request);
            }
            black_box(slo.pop_batch(8));
            black_box(slo.pop_batch(8));
        }) / 24.0,
    );

    // --- cache: submit -> recv of a warm entry, in process --------------
    let server = AmsServer::start(
        prep.scheduler(),
        budget,
        ServeConfig {
            exec_emulation_scale: 0.0,
            slo: None,
            adapt: None,
            ..prep.serve_config()
        },
    );
    let client = server.client();
    let hot = Arc::clone(item(0));
    client.submit(Arc::clone(&hot));
    black_box(client.recv());
    values.set(
        "cache.hit_roundtrip_ns",
        time_ns(4096, |_| {
            client.submit(Arc::clone(&hot));
            black_box(client.recv());
        }),
    );
    let report = server.shutdown();
    assert!(
        report.cache_hit >= (4096 * BATCHES) as u64,
        "the cache probe must be answered from the cache"
    );

    // --- rl: the trainer's learn step and snapshot export ---------------
    let agent = &prep.agent;
    let use_end = agent.net.actions() > agent.num_models;
    let mut replay = ReplayBuffer::new(4096);
    let mut online = OnlineTrainer::new(agent, &OnlineConfig::default());
    let mut transitions = Vec::new();
    for (it, outcome) in items.iter().zip(&outcomes) {
        transitions.clear();
        outcome_transitions(
            it,
            &outcome.executed,
            &agent.reward,
            agent.num_models,
            use_end,
            &mut transitions,
        );
        transitions.drain(..).for_each(|t| replay.push(t));
        online.absorb(it, &outcome.executed);
    }
    let train_cfg = TrainConfig {
        batch: 32,
        ..TrainConfig::new(agent.algo)
    };
    let (mut learner, target) = (agent.net.clone(), agent.net.clone());
    let mut opt = Adam::new(train_cfg.lr);
    let mut scratch = BatchScratch::new(&learner);
    let mut rng = StdRng::seed_from_u64(9);
    let huber = Huber::default();
    values.set(
        "rl.learn_step_ns",
        time_ns(32, |_| {
            black_box(learn_step_batched(
                &mut learner,
                &target,
                &mut opt,
                &replay,
                &train_cfg,
                &huber,
                &mut rng,
                &mut scratch,
            ));
        }),
    );
    assert!(
        online.ready(),
        "probe outcomes must warm the online trainer"
    );
    values.set(
        "rl.online_learn_step_ns",
        time_ns(32, |_| {
            black_box(online.learn_step());
        }),
    );
    values.set(
        "rl.export_snapshot_ns",
        time_ns(64, |i| {
            black_box(online.export(i as u64));
        }),
    );
}
