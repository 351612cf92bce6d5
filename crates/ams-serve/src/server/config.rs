//! Serving configuration: the knobs two callers actually set differently,
//! and the normalisation [`AmsServer::start`](super::AmsServer::start)
//! applies before anything reads them.

use crate::adapt::AdaptConfig;
use crate::cache::CacheConfig;
use crate::obs::ObsConfig;
use crate::queue::BackpressurePolicy;
use crate::router::RoutingMode;
use ams_sim::BatchLatencyModel;
use serde::{Deserialize, Serialize};

/// One request class of the service-level objective: a deadline and a
/// value weight.
///
/// A request of this class must complete within `deadline_ms` of entering
/// its queue to be worth anything; its predicted label value (the
/// scheduler's cheap affinity-value scan, computed during routing) is
/// scaled by `weight`, so an interactive class can be worth several times
/// a bulk class to the shedding economics. The paper's objective is the
/// aggregate *value* of labels produced under a time budget — the class
/// carries exactly the two numbers that objective needs per request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloClass {
    /// Stable class name for reports.
    pub name: String,
    /// Wall-clock completion deadline from enqueue, ms.
    pub deadline_ms: u64,
    /// Multiplier on the request's predicted label value.
    pub weight: f64,
}

impl SloClass {
    /// A named class with the given deadline and weight.
    pub fn new(name: impl Into<String>, deadline_ms: u64, weight: f64) -> Self {
        Self {
            name: name.into(),
            deadline_ms,
            weight: weight.max(0.0),
        }
    }
}

/// SLO-aware admission and shedding configuration.
///
/// With classes configured, every request carries a deadline and a
/// weighted value. `aware` switches three behaviors on together (off =
/// "blind" mode — identical scheduling to a classless server, but with the
/// per-class value/latency ledger still recorded, which is what makes an
/// honest blind-vs-aware comparison on the same stream possible):
///
/// * **admission control** — `submit` predicts the shard's queue wait
///   (depth × the amortized per-request batch time the workers publish,
///   plus the pool wait ahead of a popped request) and sheds a request *before* it occupies a slot when the prediction
///   already exceeds its deadline;
/// * **value-weighted shedding** — on ShedOldest overflow, evict the
///   queued request with the worst value-per-remaining-deadline (expired
///   requests first — they are dead weight) instead of the head;
/// * **EDF dequeue** — workers assemble batches around the
///   earliest-deadline request instead of the oldest, composing with
///   signature coalescing (the urgent head still gets a signature-pure
///   batch).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The request classes. Class 0 is the default for
    /// [`Client::submit`](super::Client::submit);
    /// [`Client::submit_with`](super::Client::submit_with) with
    /// `SubmitOptions::class(c)` picks others.
    /// Normalized to at least one class at server start.
    pub classes: Vec<SloClass>,
    /// Admission control, value-weighted shedding and EDF dequeue, all on
    /// (`true`) or all off (`false`).
    pub aware: bool,
}

impl SloConfig {
    /// All three SLO-aware behaviors on.
    pub fn aware(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            aware: true,
        }
    }

    /// Classes tracked (deadlines, values, per-class ledger) but every
    /// SLO-aware behavior off: oldest-first eviction, FIFO dequeue, no
    /// admission control — the blind baseline.
    pub fn blind(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            aware: false,
        }
    }
}

impl Default for SloConfig {
    /// One "default" class: 1 s deadline, unit weight, all behaviors on.
    fn default() -> Self {
        Self::aware(vec![SloClass::new("default", 1_000, 1.0)])
    }
}

/// Serving front-end configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards (each with its own bounded queue). Min 1.
    pub shards: usize,
    /// Workers per shard. Min 1.
    pub workers_per_shard: usize,
    /// Pending-request capacity of each shard queue. Min 1.
    pub queue_capacity: usize,
    /// What a full queue does to the next submission.
    pub policy: BackpressurePolicy,
    /// How submissions map to shards: scene-id hash or model-affinity
    /// routing (see [`crate::router`]).
    pub routing: RoutingMode,
    /// Max requests a worker coalesces into one batched admission. Min 1.
    pub max_batch: usize,
    /// Calibrated setup + marginal latency split for batched invocations.
    pub batch_model: BatchLatencyModel,
    /// Virtual GPU pool each batched invocation packs into, MB.
    pub pool_mb: u32,
    /// SLO classes plus the SLO-aware admission/shedding behaviors
    /// (`None` = classless serving: every request is class 0, unit-valued
    /// and deadline-free unless its ticket carries its own
    /// [`SubmitOptions::deadline_us`](super::SubmitOptions::deadline_us)).
    pub slo: Option<SloConfig>,
    /// Wall-clock milliseconds per *virtual* millisecond of the worker's
    /// GPU pool (see
    /// [`ams_core::streaming::StreamProcessor::exec_emulation_scale`]): a
    /// request is delivered once its own last model finishes on the pool,
    /// and the next batch is popped when the pool can take it. 0 makes the
    /// pool instantaneous.
    pub exec_emulation_scale: f64,
    /// Content-addressed label cache with in-flight coalescing (see
    /// [`crate::cache`]); `None` disables it — on a unique stream the
    /// cached and uncached servers behave identically.
    pub cache: Option<CacheConfig>,
    /// Live observability: the lifecycle event stream, the cumulative
    /// metrics registry behind
    /// [`AmsServer::metrics_snapshot`](super::AmsServer::metrics_snapshot), and the
    /// shed/deadline-miss flight recorder (see [`crate::obs`]). `None`
    /// disables the whole layer — no channels, no aggregator thread, and a
    /// branch-on-`None` as the only hot-path residue.
    pub obs: Option<ObsConfig>,
    /// Online adaptation (see [`crate::adapt`]): a background trainer
    /// taps served outcomes and hot-swaps updated agent weights into the
    /// predict path, generation by generation. `None` serves the
    /// scheduler's own predictor frozen — byte-identical behavior to a
    /// server built without adaptation.
    pub adapt: Option<AdaptConfig>,
}

impl Default for ServeConfig {
    /// 4 shards × 1 worker, 64-deep queues, lossless blocking admission,
    /// batches of up to 8 on a 12 GB pool — the paper's single-P100 shape.
    fn default() -> Self {
        Self {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::default(),
            routing: RoutingMode::default(),
            max_batch: 8,
            batch_model: BatchLatencyModel::default(),
            pool_mb: 12_288,
            slo: None,
            exec_emulation_scale: 0.0,
            cache: None,
            obs: None,
            adapt: None,
        }
    }
}

impl ServeConfig {
    /// The config the server actually runs: every count floored at 1, an
    /// empty SLO class list replaced by the default class, negative class
    /// weights floored at 0.
    pub(super) fn normalized(self) -> Self {
        Self {
            shards: self.shards.max(1),
            workers_per_shard: self.workers_per_shard.max(1),
            queue_capacity: self.queue_capacity.max(1),
            max_batch: self.max_batch.max(1),
            slo: self.slo.map(|mut s| {
                if s.classes.is_empty() {
                    s.classes = SloConfig::default().classes;
                }
                for c in &mut s.classes {
                    c.weight = c.weight.max(0.0);
                }
                s
            }),
            ..self
        }
    }

    /// How many ledger classes the server runs: one without `slo` — the
    /// implicit class 0 (no deadline, unit value, blind).
    pub(super) fn classes(&self) -> usize {
        self.slo.as_ref().map_or(1, |s| s.classes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_floors_counts_and_repairs_the_slo() {
        let zeroed = ServeConfig {
            shards: 0,
            workers_per_shard: 0,
            queue_capacity: 0,
            max_batch: 0,
            slo: Some(SloConfig::aware(Vec::new())),
            ..ServeConfig::default()
        }
        .normalized();
        let counts = (
            zeroed.shards,
            zeroed.workers_per_shard,
            zeroed.queue_capacity,
        );
        assert_eq!((counts, zeroed.max_batch), ((1, 1, 1), 1));
        let classes = &zeroed.slo.as_ref().expect("slo survives").classes;
        assert_eq!(classes.len(), 1, "empty class list takes the default class");
        assert_eq!(classes[0].name, "default");

        // `SloClass::new` floors weights; a literal can still carry a
        // negative one.
        let mut class = SloClass::new("neg", 10, 1.0);
        class.weight = -2.0;
        let cfg = ServeConfig {
            slo: Some(SloConfig::blind(vec![class])),
            ..ServeConfig::default()
        };
        assert_eq!(cfg.normalized().slo.expect("slo").classes[0].weight, 0.0);
    }
}
