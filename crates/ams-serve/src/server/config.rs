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

/// Online batch-limit control: AIMD on the tail latency, bounded by the
/// calibrated batch latency model.
///
/// Each shard starts at the server's configured `max_batch` (clamped into
/// `[min_batch, max_batch]` below) and retunes after every `window`
/// completed requests:
///
/// * observed total-latency p99 **above** `target_p99_ms` → multiplicative
///   decrease (the limit halves, floored at `min_batch`);
/// * otherwise → additive increase (the limit grows by one, capped at
///   `max_batch`) — but only if the [`BatchLatencyModel`] predicts the
///   grown batch's execute tail still fits the target. The model's
///   [`growth_ratio`](BatchLatencyModel::growth_ratio) is scale-free, so
///   the prediction `queue_p99 + exec_p99 × ratio` needs no knowledge of
///   absolute model latencies: the step is bounded before it is taken
///   instead of oscillating through a violation it could have foreseen.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBatchConfig {
    /// Wall-clock total-latency (queue wait + execute) p99 target, ms.
    pub target_p99_ms: u64,
    /// AIMD floor: the limit never shrinks below this. Min 1.
    pub min_batch: usize,
    /// AIMD ceiling: the limit never grows past this.
    pub max_batch: usize,
    /// Completed requests per shard between adjustments. Min 1.
    pub window: u64,
}

impl Default for AdaptiveBatchConfig {
    /// 50 ms p99 target, limits in `[1, 32]`, retune every 16 requests.
    fn default() -> Self {
        Self {
            target_p99_ms: 50,
            min_batch: 1,
            max_batch: 32,
            window: 16,
        }
    }
}

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
    /// Admission reservation: the fraction of every shard queue's slots
    /// guaranteed to this class (0.0 = no reserve, purely shared slots).
    /// A burst of another class can fill the shared pool but never the
    /// slots this class holds in reserve, so it cannot starve this class
    /// of *admission*. Fractions are clamped so the per-queue reserved
    /// slots never exceed the capacity (earlier classes keep their full
    /// reserve).
    pub reserve: f64,
}

impl SloClass {
    /// A named class with the given deadline and weight (no reservation).
    pub fn new(name: impl Into<String>, deadline_ms: u64, weight: f64) -> Self {
        Self {
            name: name.into(),
            deadline_ms,
            weight: weight.max(0.0),
            reserve: 0.0,
        }
    }

    /// Guarantee the class `fraction` of every shard queue's slots at
    /// admission (clamped into `[0, 1]`).
    pub fn with_reserve(mut self, fraction: f64) -> Self {
        self.reserve = fraction.clamp(0.0, 1.0);
        self
    }
}

/// SLO-aware admission and shedding configuration.
///
/// With classes configured, every request carries a deadline and a
/// weighted value, and three behaviors become selectable (all off =
/// "blind" mode — identical scheduling to a classless server, but with the
/// per-class value/latency ledger still recorded, which is what makes an
/// honest blind-vs-aware comparison on the same stream possible):
///
/// * **admission control** — `submit` predicts the shard's queue wait
///   (depth × the amortized per-request batch time the workers publish,
///   i.e. the same headroom signal the adaptive batch controller tunes
///   against) and sheds a request *before* it occupies a slot when the
///   prediction already exceeds its deadline;
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
    /// Shed at admission when the predicted queue wait exceeds the
    /// request's deadline.
    pub admission_control: bool,
    /// Evict the worst value-per-remaining-deadline request on overflow
    /// instead of the head.
    pub value_weighted_shedding: bool,
    /// Earliest-deadline-first head selection at dequeue.
    pub edf_dequeue: bool,
}

impl SloConfig {
    /// All three SLO-aware behaviors on.
    pub fn aware(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            admission_control: true,
            value_weighted_shedding: true,
            edf_dequeue: true,
        }
    }

    /// Classes tracked (deadlines, values, per-class ledger) but every
    /// SLO-aware behavior off: oldest-first eviction, FIFO dequeue, no
    /// admission control — the blind baseline.
    pub fn blind(classes: Vec<SloClass>) -> Self {
        Self {
            classes,
            admission_control: false,
            value_weighted_shedding: false,
            edf_dequeue: false,
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
    /// With [`ServeConfig::adaptive`] set this is the *starting* limit;
    /// the controller then retunes each shard online.
    pub max_batch: usize,
    /// Online per-shard batch-limit control (`None` keeps `max_batch`
    /// fixed).
    pub adaptive: Option<AdaptiveBatchConfig>,
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
    /// disables the whole layer — no rings, no aggregator thread, and a
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
            adaptive: None,
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
    /// The config the server actually runs: every count floored at 1, the
    /// adaptive band made non-empty, an empty SLO class list replaced by
    /// the default class, negative class weights floored at 0.
    pub(super) fn normalized(self) -> Self {
        Self {
            shards: self.shards.max(1),
            workers_per_shard: self.workers_per_shard.max(1),
            queue_capacity: self.queue_capacity.max(1),
            max_batch: self.max_batch.max(1),
            adaptive: self.adaptive.map(|a| AdaptiveBatchConfig {
                min_batch: a.min_batch.max(1),
                max_batch: a.max_batch.max(a.min_batch.max(1)),
                window: a.window.max(1),
                ..a
            }),
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

    /// Every shard's starting batch limit (of a normalized config): the
    /// static `max_batch`, clamped into the adaptive band when the
    /// controller runs.
    pub(super) fn start_limit(&self) -> usize {
        self.adaptive.map_or(self.max_batch, |a| {
            self.max_batch.clamp(a.min_batch, a.max_batch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_floors_counts_and_repairs_the_slo_and_adaptive_band() {
        let banded = |max_batch, min_batch, band_max, window| ServeConfig {
            max_batch,
            adaptive: Some(AdaptiveBatchConfig {
                min_batch,
                max_batch: band_max,
                window,
                ..AdaptiveBatchConfig::default()
            }),
            ..ServeConfig::default()
        };
        let band = |c: &ServeConfig| c.adaptive.map(|a| (a.min_batch, a.max_batch, a.window));
        let zeroed = ServeConfig {
            shards: 0,
            workers_per_shard: 0,
            queue_capacity: 0,
            slo: Some(SloConfig::aware(Vec::new())),
            ..banded(0, 0, 0, 0)
        }
        .normalized();
        let counts = (
            zeroed.shards,
            zeroed.workers_per_shard,
            zeroed.queue_capacity,
        );
        assert_eq!((counts, zeroed.max_batch), ((1, 1, 1), 1));
        assert_eq!(band(&zeroed), Some((1, 1, 1)));
        let classes = &zeroed.slo.as_ref().expect("slo survives").classes;
        assert_eq!(classes.len(), 1, "empty class list takes the default class");
        assert_eq!(classes[0].name, "default");

        // A ceiling under the floor is lifted to it, and the static limit
        // starts inside the band from either side.
        assert_eq!(band(&banded(8, 6, 2, 16).normalized()), Some((6, 6, 16)));
        assert_eq!(banded(64, 2, 16, 16).normalized().start_limit(), 16);
        assert_eq!(banded(1, 4, 16, 16).normalized().start_limit(), 4);
        assert_eq!(ServeConfig::default().normalized().start_limit(), 8);

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
