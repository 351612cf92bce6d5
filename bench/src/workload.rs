//! The five workloads: what each offers the server, and the set-up that
//! turns a workload seed into generated items, a trained agent and the
//! serial reference the oracle compares against.

use crate::check::{labels_digest, Reference};
use ams::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Confidence threshold of a valuable label, the repository's default.
pub const THRESHOLD: f32 = 0.5;
/// Closed loop: requests in flight on the one connection.
pub const CLOSED_WINDOW: usize = 32;
/// Open loop: a window the schedule never fills, so arrivals stay on time.
pub const OPEN_WINDOW: usize = 8192;
/// Open loop: requests per burst, all due at the burst's instant.
pub const BURST: usize = 8;
/// Items the offline agent trains on, and the world they are drawn from.
/// The agent is part of the server under test, like its shape: it is the
/// same for every workload seed, which varies the requests only.
const TRAIN_ITEMS: usize = 240;
const TRAIN_WORLD_SEED: u64 = 2020;
/// Share of `drift_adapt_open`'s stream drawn before the mixture shifts.
const DRIFT_PHASE1: f64 = 0.25;

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// At most [`CLOSED_WINDOW`] requests in flight; the next is sent when
    /// one completes.
    Closed,
    /// Bursts of [`BURST`] on a fixed schedule of this many requests per
    /// second, whatever the server does.
    Open(f64),
}

/// What the request stream is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// Every request a distinct Coco2017 item.
    Unique,
    /// Coco2017 items redrawn with this repeat rate, skewed quadratically
    /// toward the earliest ones.
    Zipf(f64),
    /// Distinct Coco2017 items, then distinct Places365 items.
    Drift,
}

/// One workload. The server shape (2 shards x 1 worker, batches of 8,
/// affinity routing, cache and observability on) is the same for all.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub pace: Pace,
    pub stream: Stream,
    /// Wall milliseconds slept per virtual GPU millisecond.
    pub emulation: f64,
    pub budget: Budget,
    /// Timed passes, each on a fresh server over the same stream.
    pub passes: usize,
    /// Closed loop only: requests generated per pass and second of window,
    /// a ceiling the server is not expected to reach.
    pub closed_rate_cap: f64,
    /// Latency limit per SLO class, us.
    pub limits_us: &'static [u64],
    /// Sustained overload: shed-oldest 16-deep queues and SLO-aware
    /// admission over an interactive and a bulk class.
    pub overload: bool,
    /// Serve an undertrained boot agent with the online trainer attached.
    pub adapt: bool,
}

const DEADLINE: Budget = Budget::Deadline { ms: 1000 };
const DEADLINE_MEMORY: Budget = Budget::DeadlineMemory {
    ms: 1000,
    mem_mb: 8192,
};

/// The workload list, in report order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "wire_cpu_closed",
            why: "GPU free and every request a cache miss: codec, hashing, cache insert/evict, queue, Q-eval, Algorithm 1 and completion delivery are the bottleneck.",
            pace: Pace::Closed,
            stream: Stream::Unique,
            emulation: 0.0,
            budget: DEADLINE,
            passes: 4,
            closed_rate_cap: 12_000.0,
            limits_us: &[50_000],
            overload: false,
            adapt: false,
        },
        Spec {
            name: "wire_gpu_open",
            why: "0.7x of Algorithm-2 capacity with the GPU emulated: latency is batch formation and the virtual GPU pool, so CPU-layer optimisations must change nothing here.",
            pace: Pace::Open(260.0),
            stream: Stream::Unique,
            emulation: 0.02,
            budget: DEADLINE_MEMORY,
            passes: 1,
            closed_rate_cap: 0.0,
            limits_us: &[150_000],
            overload: false,
            adapt: false,
        },
        Spec {
            name: "zipf_gpu_closed",
            why: "Repeat rate 0.8: three in four requests are cache hits or coalesce onto an in-flight leader, so the cache's read path, fan-out and bill saving dominate.",
            pace: Pace::Closed,
            stream: Stream::Zipf(0.8),
            emulation: 0.02,
            budget: DEADLINE_MEMORY,
            passes: 1,
            closed_rate_cap: 3_000.0,
            limits_us: &[400_000],
            overload: false,
            adapt: false,
        },
        Spec {
            name: "slo_overload_open",
            why: "1.5x of Algorithm-1 capacity, two SLO classes: admission pricing, EDF dequeue and value-weighted eviction decide what is answered in time.",
            pace: Pace::Open(875.0),
            stream: Stream::Unique,
            emulation: 0.02,
            budget: DEADLINE,
            passes: 1,
            closed_rate_cap: 0.0,
            limits_us: &[120_000, 600_000],
            overload: true,
            adapt: false,
        },
        Spec {
            name: "drift_adapt_open",
            why: "Item mixture shifts under a boot agent while the online trainer learns and hot-swaps weights: the only workload where learn steps and snapshot swaps run.",
            pace: Pace::Open(1000.0),
            stream: Stream::Drift,
            emulation: 0.005,
            budget: DEADLINE,
            passes: 1,
            closed_rate_cap: 0.0,
            limits_us: &[50_000],
            overload: false,
            adapt: true,
        },
    ]
}

/// Sizes that scale with the run: `--quick` divides all of them by ten.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the untraced timed window (all passes together).
    pub window: Duration,
    /// Episodes of offline agent training.
    pub episodes: usize,
    /// Requests of the warm-up that precedes each timed pass.
    pub warmup: usize,
}

impl Scale {
    pub fn new(seconds: f64, quick: bool) -> Self {
        let k = if quick { 0.1 } else { 1.0 };
        Self {
            window: Duration::from_secs_f64(seconds * k),
            episodes: (300.0 * k) as usize,
            warmup: (500.0 * k) as usize,
        }
    }
}

impl Spec {
    /// Requests the stream must hold for one pass of `window` seconds.
    fn stream_len(&self, window: Duration) -> usize {
        let rate = match self.pace {
            Pace::Closed => self.closed_rate_cap,
            Pace::Open(rate) => rate,
        };
        let n = (rate * window.as_secs_f64() / self.passes as f64).round() as usize;
        // Whole bursts, and at least one.
        n.div_ceil(BURST).max(1) * BURST
    }

    /// The SLO classes of the overload workload.
    fn slo(&self) -> Option<SloConfig> {
        self.overload.then(|| {
            SloConfig::aware(vec![
                SloClass::new("interactive", self.limits_us[0] / 1000, 4.0),
                SloClass::new("bulk", self.limits_us[1] / 1000, 1.0),
            ])
        })
    }

    /// SLO class of the `k`-th request: classes alternate.
    pub fn class_of(&self, k: usize) -> usize {
        k % self.limits_us.len()
    }
}

/// Everything a timed window needs, made from the workload seed alone.
pub struct Prepared {
    pub spec: Spec,
    /// Distinct generated items.
    pub pool: Vec<Arc<ItemTruth>>,
    /// The request stream of one pass, as indices into `pool`.
    pub stream: Vec<u32>,
    /// Serial-engine answer per pool item.
    pub reference: Vec<Reference>,
    /// The agent the server predicts with at start.
    pub agent: TrainedAgent,
    pub world_seed: u64,
    /// `drift_adapt_open`: first stream position of the shifted mixture.
    pub phase2_from: usize,
}

/// The skewed repeat stream `bench_serve`'s Zipf sweep uses: each draw
/// repeats an earlier item with probability `repeat`, picked with quadratic
/// skew toward the earliest, and otherwise introduces the next fresh item.
/// Returns the stream as item indices and the number of distinct items.
pub fn zipf_stream(len: usize, repeat: f64, seed: u64) -> (Vec<u32>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut distinct = 0u32;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        if distinct > 0 && rng.gen_bool(repeat) {
            let u: f64 = rng.gen();
            out.push(((u * u * f64::from(distinct)) as u32).min(distinct - 1));
        } else {
            out.push(distinct);
            distinct += 1;
        }
    }
    (out, distinct as usize)
}

fn generate(profile: DatasetProfile, n: usize, world_seed: u64) -> Vec<Arc<ItemTruth>> {
    let zoo = ModelZoo::standard();
    let catalog = zoo.catalog();
    // `TruthTable::build`, item by item: the table lends its items out but
    // does not give them up, and the requests need them behind an `Arc`.
    Dataset::generate(profile, n, world_seed)
        .scenes
        .iter()
        .map(|scene| {
            Arc::new(ItemTruth::build(
                &zoo, &catalog, scene, world_seed, THRESHOLD,
            ))
        })
        .collect()
}

impl Prepared {
    /// Generate items, train the agent and label the pool serially. The
    /// program under test sees none of the seeds, only the items.
    pub fn new(spec: &Spec, seed: u64, scale: Scale) -> Self {
        let len = spec.stream_len(scale.window);
        let (stream, distinct) = match spec.stream {
            Stream::Zipf(repeat) => zipf_stream(len, repeat, seed ^ 0x21BF),
            _ => ((0..len as u32).collect(), len),
        };
        let phase2_from = match spec.stream {
            Stream::Drift => (len as f64 * DRIFT_PHASE1) as usize,
            _ => len,
        };
        let mut pool = generate(DatasetProfile::Coco2017, phase2_from.min(distinct), seed);
        pool.extend(generate(
            DatasetProfile::Places365,
            distinct - pool.len(),
            seed ^ 0xD21F7,
        ));

        let cfg = TrainConfig {
            // The drifting workload boots from a deliberately undertrained
            // agent so the online trainer has headroom.
            episodes: if spec.adapt { 2 } else { scale.episodes },
            ..TrainConfig::new(Algo::Dqn)
        };
        let zoo = ModelZoo::standard();
        let train_world =
            Dataset::generate(DatasetProfile::Coco2017, TRAIN_ITEMS, TRAIN_WORLD_SEED);
        let train_set = TruthTable::build(&zoo, &zoo.catalog(), &train_world, THRESHOLD);
        let (agent, _) = train(train_set.items(), zoo.len(), &cfg);

        let mut prepared = Self {
            spec: spec.clone(),
            pool,
            stream,
            reference: Vec::new(),
            agent,
            world_seed: seed,
            phase2_from,
        };
        let serial = prepared.scheduler();
        prepared.reference = prepared
            .pool
            .iter()
            .map(|item| {
                let out = serial.label_item(item, spec.budget);
                Reference {
                    digest: labels_digest(&out.labels),
                    value: out.value,
                }
            })
            .collect();
        prepared
    }

    /// A fresh scheduler over a clone of the start agent.
    pub fn scheduler(&self) -> AdaptiveModelScheduler {
        let predictor: Box<dyn ValuePredictor> = if self.spec.adapt {
            // The exact predictor the adaptive path serves until its first
            // swap: generation 0 of the boot agent.
            Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
                self.agent.clone(),
            ))))
        } else {
            Box::new(AgentPredictor::new(self.agent.clone()))
        };
        AdaptiveModelScheduler::new(ModelZoo::standard(), predictor, THRESHOLD, self.world_seed)
    }

    /// The fixed server shape plus this workload's knobs.
    pub fn serve_config(&self) -> ServeConfig {
        let spec = &self.spec;
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 8,
            queue_capacity: if spec.overload { 16 } else { 64 },
            policy: if spec.overload {
                BackpressurePolicy::ShedOldest
            } else {
                BackpressurePolicy::Block
            },
            routing: RoutingMode::Affinity(AffinityConfig {
                top_k: 2,
                spill_lag: 8,
            }),
            exec_emulation_scale: spec.emulation,
            slo: spec.slo(),
            cache: Some(CacheConfig::default()),
            obs: Some(ObsConfig::default()),
            adapt: spec
                .adapt
                .then(|| AdaptConfig::new(self.agent.clone()).seed(0xAD47)),
            ..ServeConfig::default()
        }
    }

    /// The `k`-th request's item.
    pub fn item(&self, k: usize) -> &Arc<ItemTruth> {
        &self.pool[self.stream[k] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_deterministic_per_seed() {
        let (a, distinct_a) = zipf_stream(4000, 0.6, 7);
        let (b, distinct_b) = zipf_stream(4000, 0.6, 7);
        let (c, _) = zipf_stream(4000, 0.6, 8);
        assert_eq!(a, b);
        assert_eq!(distinct_a, distinct_b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_stream_distinct_count_follows_the_repeat_rate() {
        let (stream, distinct) = zipf_stream(8000, 0.6, 7);
        let max = *stream.iter().max().expect("non-empty") as usize;
        assert_eq!(max + 1, distinct, "fresh items are introduced in order");
        let mut seen = vec![false; distinct];
        stream.iter().for_each(|&i| seen[i as usize] = true);
        assert!(seen.iter().all(|&s| s), "every distinct item is requested");
        // Fresh share is 1 - repeat = 0.4, within sampling noise.
        let share = distinct as f64 / stream.len() as f64;
        assert!((0.37..0.43).contains(&share), "fresh share {share}");
        // Repeat rate 0 is the plain unique stream.
        let (unique, n) = zipf_stream(100, 0.0, 7);
        assert_eq!(n, 100);
        assert_eq!(unique, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn stream_lengths_are_whole_bursts_of_the_fixed_rates() {
        let specs = all();
        let second = Duration::from_secs(10);
        assert_eq!(specs[1].stream_len(second), 2600);
        assert_eq!(specs[3].stream_len(second), 8752);
        assert_eq!(specs[4].stream_len(second), 10_000);
        assert_eq!(specs[0].stream_len(second), 30_000);
        assert!(specs.iter().all(|s| s.stream_len(second) % BURST == 0));
    }
}
