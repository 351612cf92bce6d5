//! The held-worker burst: requests that queue while the only worker is
//! labeling an idle pool's batch join that batch before it is admitted.
//! An exact count, no clock: the worker is held inside its first label
//! (its predictor blocks until released) while `max_batch − 1` more
//! requests queue, and the whole burst then takes one admission.

use super::Ctx;
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The row gating this module's field.
pub const CHECKS: &[Check] = &[Check {
    name: "a burst queued during labeling joins the open batch",
    // Deterministic: a candidate that moves it changed when a batch closes.
    rule: Rule::Same("held_burst_admissions"),
    breaks: Break::Scale("held_burst_admissions", 2.0),
}];

/// A predictor whose first prediction reports that it has begun and then
/// blocks until released.
struct Held {
    inner: AgentPredictor,
    hold: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl ValuePredictor for Held {
    fn num_models(&self) -> usize {
        self.inner.num_models()
    }

    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        let hold = self.hold.lock().expect("held predictor").take();
        if let Some((begun, release)) = hold {
            begun.send(()).expect("the burst waits for the hold");
            release.recv().expect("the burst releases the hold");
        }
        self.inner.predict_into(state, item, out);
    }

    fn name(&self) -> &'static str {
        "held"
    }
}

/// Admissions a burst of `max_batch` fixture items took on one worker
/// without emulation, the worker held labeling the first while the rest
/// queued.
pub fn run(ctx: &Ctx) -> u64 {
    let (begun_tx, begun) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let predictor = Held {
        inner: AgentPredictor::new(ctx.fx.agent.clone()),
        hold: Mutex::new(Some((begun_tx, release_rx))),
    };
    let zoo = ModelZoo::standard();
    let scheduler = AdaptiveModelScheduler::new(zoo, Box::new(predictor), 0.5, ctx.fx.world_seed);
    let n = ctx.base.max_batch;
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: n,
        exec_emulation_scale: 0.0,
        ..ctx.base.clone()
    };
    let server = AmsServer::start(scheduler, ctx.budget, cfg);
    let client = server.client_with_capacity(n);
    let submit = |item: &Arc<ItemTruth>| {
        let accepted = client.submit(Arc::clone(item)).is_accepted();
        assert!(accepted, "held burst: a blocking queue of {n} admits {n}");
    };
    submit(&ctx.items[0]);
    begun.recv().expect("the worker labels the first request");
    ctx.items[1..n].iter().for_each(submit);
    release.send(()).expect("the worker is held");
    let labeled = (0..n)
        .filter_map(|_| client.recv())
        .filter(|c| c.labeled().is_some());
    assert_eq!(labeled.count(), n, "held burst: every request is labeled");
    let report = server.shutdown();
    assert!(report.is_conserved(), "held burst: the ledger conserves");
    eprintln!(
        "[bench_serve] held burst: {n} requests queued during one label took {} admission(s)",
        report.batches
    );
    report.batches
}
