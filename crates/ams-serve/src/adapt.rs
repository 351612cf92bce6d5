//! Online scheduler adaptation under live traffic: a background trainer
//! that taps served outcomes, learns on them, and hot-swaps updated agent
//! weights into the predict path — closing the loop the paper's offline
//! pipeline leaves open (train once, serve frozen).
//!
//! ## Architecture
//!
//! ```text
//! workers ──(outcome tap: bounded mpsc, try_send)──▶ trainer thread
//!    ▲                                                   │ absorb → learn
//!    │                                                   │ every `swap_every` steps
//!    └────────(SnapshotCell: generation-counted Arc)◀────┘ publish(gen+1)
//! ```
//!
//! * **Taps** — each worker holds an `AdaptTap`: a clone of the bounded
//!   experience channel's sender plus the shared `SnapshotCell`. After a
//!   batch executes, the worker offers each outcome (item + executed model
//!   sequence) with a non-blocking `try_send`; a full channel *drops* the
//!   sample and counts it — the serving hot path never waits on learning.
//! * **Trainer** — one background thread owns an
//!   [`ams_rl::OnlineTrainer`]: it replays each outcome into
//!   transitions, steps the learner, and every
//!   [`AdaptConfig::swap_every`] learn steps exports the weights as a new
//!   generation. All randomness flows from [`OnlineConfig::seed`], so a
//!   paced replay of the same stream reproduces the same weight
//!   trajectory. Channel disconnect (every worker joined and the server's
//!   own sender dropped) is the trainer's stop signal.
//! * **Swap** — `SnapshotCell::publish` installs the new
//!   `Arc<AgentSnapshot>` under a mutex and *then* stores the generation
//!   counter with `Release`. Workers poll with one `Acquire` load per
//!   batch (`SnapshotCell::generation`) and take the slot lock only on
//!   a generation change — the steady-state read path is a single atomic
//!   load, no lock. A pinned
//!   [`ams_core::SnapshotPredictor`] keeps every
//!   predict inside one batch on one coherent weight set; a swap can never
//!   tear a forward pass.
//!
//! With [`ServeConfig::adapt`](crate::ServeConfig::adapt) unset, none of
//! this exists: workers call the scheduler exactly as before — the frozen
//! path is byte-identical to a server built without this module.

use crate::obs::{Event, EventKind, ServerObs, NO_SHARD, NO_TICKET};
use ams_core::SnapshotPredictor;
use ams_data::ItemTruth;
use ams_models::ModelId;
use ams_rl::{AgentSnapshot, OnlineConfig, OnlineTrainer, TrainedAgent};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Observability correlation id for swap events: not a request.
const NO_REQ: u64 = u64::MAX;

/// Online-adaptation configuration for
/// [`ServeConfig::adapt`](crate::ServeConfig::adapt).
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// The boot agent: generation 0, what the server serves until the
    /// trainer publishes its first swap (and forever when traffic is too
    /// thin to warm the replay buffer up).
    pub agent: TrainedAgent,
    /// Bounded experience-channel capacity (outcomes queued between the
    /// workers and the trainer). A full channel drops new samples —
    /// counted in [`AdaptReport::experiences_dropped`] — rather than
    /// stalling a worker. Min 1.
    pub channel_capacity: usize,
    /// Learner hyperparameters (batch, lr, warmup) plus the **seed**
    /// every bit of trainer randomness derives from; the discount, replay
    /// capacity and target sync are constants of `ams_rl`.
    pub online: OnlineConfig,
    /// Learn steps attempted per absorbed outcome (more = faster
    /// tracking, more CPU on the trainer thread). Min 1.
    pub steps_per_outcome: u32,
    /// Publish a new weight generation every this many learn steps.
    /// Min 1.
    pub swap_every: u64,
}

impl AdaptConfig {
    /// Adaptation from `agent` with default learning shape: a 1024-deep
    /// experience channel, one learn step per outcome, a swap every 32
    /// steps.
    pub fn new(agent: TrainedAgent) -> Self {
        Self {
            agent,
            channel_capacity: 1024,
            online: OnlineConfig::default(),
            steps_per_outcome: 1,
            swap_every: 32,
        }
    }

    /// Builder: seed the trainer's RNG (see [`OnlineConfig::seed`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.online.seed = seed;
        self
    }
}

/// The merged online-adaptation record (present on
/// [`ServeReport`](crate::ServeReport) when the server ran with
/// [`ServeConfig::adapt`](crate::ServeConfig::adapt)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Final published weight generation (0 = the boot weights were never
    /// replaced).
    pub generation: u64,
    /// Weight swaps published into the predict path. Reconciles with the
    /// event stream: `obs.total(WeightsSwapped) == swaps`.
    pub swaps: u64,
    /// Gradient steps taken.
    pub learn_steps: u64,
    /// Replay transitions built from served outcomes.
    pub transitions: u64,
    /// Outcomes received over the experience channel.
    pub experiences: u64,
    /// Outcomes dropped at the taps because the channel was full.
    pub experiences_dropped: u64,
    /// Downsampled TD-loss trajectory (evenly decimated, oldest first) —
    /// the learning curve the drift benchmark plots.
    pub losses: Vec<f32>,
}

/// One served outcome crossing the experience channel: the item and the
/// model sequence the scheduler actually ran on it.
pub(crate) struct ExperienceSample {
    pub(crate) item: Arc<ItemTruth>,
    pub(crate) executed: Vec<ModelId>,
}

// No-panic zone (LINTS.md), the four impls down to `WorkerAdapt`'s: a
// panic on the weight swap or snapshot read path poisons the slot every
// worker and the trainer share.

/// Double-buffered, generation-counted snapshot slot.
///
/// `publish` replaces the slot under the mutex and then stores the new
/// generation with `Release`; readers poll `generation` with one `Acquire`
/// load and take the lock only when the number moved. The mutex is never
/// held across a forward pass — readers clone the `Arc` out and predict
/// against their own pin — so the swap path and the predict path contend
/// for nanoseconds, not milliseconds. A poisoned lock (a panicking writer
/// mid-swap is impossible — `publish` only moves an `Arc` — but a reader
/// could panic elsewhere while holding it) is recovered, not propagated:
/// the slot always holds a coherent `Arc`.
pub(crate) struct SnapshotCell {
    /// Published generation; always written *after* the slot it
    /// describes. Release/Acquire ordering below.
    generation: AtomicU64,
    slot: Mutex<Arc<AgentSnapshot>>,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
impl SnapshotCell {
    /// A cell holding `snapshot` as the current generation.
    pub(crate) fn new(snapshot: Arc<AgentSnapshot>) -> Self {
        Self {
            generation: AtomicU64::new(snapshot.generation),
            slot: Mutex::new(snapshot),
        }
    }

    /// The published generation: one atomic load — the whole steady-state
    /// read path.
    pub(crate) fn generation(&self) -> u64 {
        // Acquire pairs with the Release store in `publish`: a reader that
        // observes generation G also observes the slot that carries G.
        self.generation.load(Ordering::Acquire)
    }

    /// Clone the current snapshot out of the slot.
    pub(crate) fn read(&self) -> Arc<AgentSnapshot> {
        let slot = self
            .slot
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(&slot)
    }

    /// Install `snapshot` as the new current generation.
    pub(crate) fn publish(&self, snapshot: Arc<AgentSnapshot>) {
        let generation = snapshot.generation;
        {
            let mut slot = self
                .slot
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *slot = snapshot;
        }
        // Release pairs with the Acquire load in `generation`: the slot
        // swap above happens-before any reader that sees this number.
        self.generation.store(generation, Ordering::Release);
    }
}

/// State shared between the workers, the trainer, and the server handle.
pub(crate) struct AdaptShared {
    pub(crate) cell: SnapshotCell,
    /// Samples dropped at the taps (full channel), summed across workers.
    dropped: AtomicU64,
    /// Early-stop for the abort path; the graceful stop signal is channel
    /// disconnect.
    stop: AtomicBool,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
impl AdaptShared {
    /// Current published weight generation (the `ams_adapt_generation`
    /// gauge).
    pub(crate) fn generation(&self) -> u64 {
        self.cell.generation()
    }
}

/// A worker's handle into the adaptation loop: the experience sender plus
/// the snapshot cell, cloned per worker at spawn.
pub(crate) struct AdaptTap {
    tx: SyncSender<ExperienceSample>,
    shared: Arc<AdaptShared>,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
impl AdaptTap {
    /// Offer one served outcome to the trainer without blocking. A full
    /// channel (or a trainer that already exited) drops the sample and
    /// counts the drop — the serving path never waits on learning.
    pub(crate) fn offer(&self, item: &Arc<ItemTruth>, executed: &[ModelId]) {
        let sample = ExperienceSample {
            item: Arc::clone(item),
            executed: executed.to_vec(),
        };
        match self.tx.try_send(sample) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A worker's serving-side adaptation state: its tap plus the predictor
/// pinned to the generation it last observed.
pub(crate) struct WorkerAdapt {
    tap: AdaptTap,
    pub(crate) predictor: SnapshotPredictor,
    generation: u64,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
impl WorkerAdapt {
    /// Pin the worker to the cell's current snapshot.
    pub(crate) fn new(tap: AdaptTap) -> Self {
        let snapshot = tap.shared.cell.read();
        let generation = snapshot.generation;
        Self {
            tap,
            predictor: SnapshotPredictor::new(snapshot),
            generation,
        }
    }

    /// Repin to the latest published generation if it moved — one atomic
    /// load in the common (unchanged) case. Called once per batch, so
    /// every predict inside a batch sees one coherent weight set.
    pub(crate) fn refresh(&mut self) {
        let current = self.tap.shared.cell.generation();
        if current != self.generation {
            let snapshot = self.tap.shared.cell.read();
            self.generation = snapshot.generation;
            self.predictor.set_snapshot(snapshot);
        }
    }

    /// Offer one served outcome to the trainer (never blocks).
    pub(crate) fn offer(&self, item: &Arc<ItemTruth>, executed: &[ModelId]) {
        self.tap.offer(item, executed);
    }
}

/// The live adaptation runtime: the shared cell, the server-held sender,
/// and the joinable trainer thread.
pub(crate) struct AdaptRuntime {
    pub(crate) shared: Arc<AdaptShared>,
    tx: SyncSender<ExperienceSample>,
    handle: JoinHandle<AdaptReport>,
}

impl AdaptRuntime {
    /// Boot the snapshot cell at generation 0 and spawn the trainer
    /// thread.
    pub(crate) fn start(cfg: &AdaptConfig, obs: Option<Arc<ServerObs>>) -> Self {
        let shared = Arc::new(AdaptShared {
            cell: SnapshotCell::new(Arc::new(AgentSnapshot::initial(cfg.agent.clone()))),
            dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let (tx, rx) = sync_channel(cfg.channel_capacity.max(1));
        let handle = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            crate::spawn_named("ams-trainer", move || {
                trainer_loop(&cfg, &shared, rx, obs.as_deref())
            })
        };
        Self { shared, tx, handle }
    }

    /// A per-worker tap (sender clone + shared cell).
    pub(crate) fn tap(&self) -> AdaptTap {
        AdaptTap {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful finish: drop the server's sender (the workers' tap clones
    /// are already gone once they joined), let the trainer drain the
    /// channel to disconnect, and fold its final record. Call only after
    /// the workers are joined, or the channel never disconnects.
    pub(crate) fn finish(self) -> AdaptReport {
        drop(self.tx);
        self.handle.join().expect("adapt trainer panicked")
    }

    /// Abort finish: ask the trainer to stop at the next check instead of
    /// draining the backlog, then join. The report is discarded by the
    /// caller (abort produces no `ServeReport`).
    pub(crate) fn abort(self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        drop(self.tx);
        let _ = self.handle.join();
    }
}

/// Push a loss sample with bounded memory: once the trajectory hits the
/// cap, decimate it (keep every other sample) and double the stride, so
/// the record stays evenly spaced over the whole run.
fn push_loss(losses: &mut Vec<f32>, stride: &mut u64, seen: &mut u64, loss: f32) {
    if seen.is_multiple_of(*stride) {
        losses.push(loss);
        if losses.len() >= 256 {
            let mut keep = 0;
            losses.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            *stride *= 2;
        }
    }
    *seen += 1;
}

/// The trainer thread: receive outcomes, replay them into transitions,
/// step the learner, and publish a new weight generation every
/// `swap_every` steps. Exits on channel disconnect (graceful drain) or
/// the abort flag.
fn trainer_loop(
    cfg: &AdaptConfig,
    shared: &AdaptShared,
    rx: Receiver<ExperienceSample>,
    obs: Option<&ServerObs>,
) -> AdaptReport {
    let mut trainer = OnlineTrainer::new(&cfg.agent, &cfg.online);
    let steps_per_outcome = cfg.steps_per_outcome.max(1);
    let swap_every = cfg.swap_every.max(1);
    let mut experiences = 0u64;
    let mut swaps = 0u64;
    let mut generation = 0u64;
    let mut last_swap_step = 0u64;
    let mut losses = Vec::new();
    let (mut loss_stride, mut loss_seen) = (1u64, 0u64);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let sample = match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(sample) => sample,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        };
        experiences += 1;
        trainer.absorb(&sample.item, &sample.executed);
        for _ in 0..steps_per_outcome {
            if !trainer.ready() {
                break;
            }
            if let Some(loss) = trainer.learn_step() {
                push_loss(&mut losses, &mut loss_stride, &mut loss_seen, loss);
            }
            if trainer.steps() - last_swap_step >= swap_every {
                last_swap_step = trainer.steps();
                generation += 1;
                swaps += 1;
                shared.cell.publish(Arc::new(trainer.export(generation)));
                if let Some(o) = obs {
                    let swapped =
                        Event::new(EventKind::WeightsSwapped, NO_REQ, NO_TICKET, NO_SHARD, 0);
                    o.emit(swapped.detail(generation));
                }
            }
        }
    }
    AdaptReport {
        generation,
        swaps,
        learn_steps: trainer.steps(),
        transitions: trainer.transitions(),
        experiences,
        experiences_dropped: shared.dropped.load(Ordering::Relaxed),
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_core::ValuePredictor;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::{LabelSet, ModelZoo};
    use ams_rl::{train, Algo, TrainConfig};
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use std::sync::OnceLock;

    fn boot_agent() -> (TrainedAgent, TruthTable) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 12, 7);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        let cfg = TrainConfig {
            episodes: 6,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, _) = train(truth.items(), 30, &cfg);
        (agent, truth)
    }

    /// One shared boot fixture for the swap-storm proptest: training is
    /// the expensive part, and the cases only need *some* coherent
    /// weights to publish.
    fn storm_fixture() -> &'static (TrainedAgent, TruthTable) {
        static FIXTURE: OnceLock<(TrainedAgent, TruthTable)> = OnceLock::new();
        FIXTURE.get_or_init(boot_agent)
    }

    #[test]
    fn snapshot_cell_publish_is_visible_and_ordered() {
        let (agent, _) = boot_agent();
        let cell = SnapshotCell::new(Arc::new(AgentSnapshot::initial(agent.clone())));
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.read().generation, 0);
        cell.publish(Arc::new(AgentSnapshot::new(agent, 5)));
        assert_eq!(cell.generation(), 5);
        assert_eq!(cell.read().generation, 5);
    }

    #[test]
    fn trainer_loop_learns_swaps_and_reports() {
        let (agent, truth) = boot_agent();
        let cfg = AdaptConfig {
            channel_capacity: 64,
            online: OnlineConfig {
                warmup: 8,
                batch: 8,
                ..OnlineConfig::default()
            },
            steps_per_outcome: 2,
            swap_every: 4,
            agent,
        };
        let runtime = AdaptRuntime::start(&cfg, None);
        let tap = runtime.tap();
        let executed: Vec<ModelId> = (0..6).map(ModelId).collect();
        for _ in 0..4 {
            for item in truth.items() {
                tap.offer(&Arc::new(item.clone()), &executed);
            }
        }
        drop(tap);
        let report = runtime.finish();
        assert!(report.experiences > 0);
        assert!(report.learn_steps > 0, "trainer must warm up and step");
        assert!(report.swaps > 0, "steps_per_outcome×outcomes ≫ swap_every");
        assert_eq!(report.generation, report.swaps);
        assert!(report.transitions >= report.experiences);
        assert!(!report.losses.is_empty());
    }

    #[test]
    fn trainer_is_deterministic_under_seed() {
        let (agent, truth) = boot_agent();
        let run = |seed: u64| {
            let cfg = AdaptConfig {
                online: OnlineConfig {
                    warmup: 8,
                    batch: 8,
                    seed,
                    ..OnlineConfig::default()
                },
                swap_every: 4,
                ..AdaptConfig::new(agent.clone())
            };
            let runtime = AdaptRuntime::start(&cfg, None);
            let tap = runtime.tap();
            let executed: Vec<ModelId> = (0..8).map(ModelId).collect();
            for _ in 0..3 {
                for item in truth.items() {
                    tap.offer(&Arc::new(item.clone()), &executed);
                }
            }
            drop(tap);
            let report = runtime.finish();
            (report.swaps, report.learn_steps, report.losses)
        };
        // Same seed → identical learning trajectory; the channel is
        // drained by one thread in submission order, so wall-clock
        // scheduling cannot perturb it.
        assert_eq!(run(11), run(11));
        // A different seed must actually change the trajectory.
        assert_ne!(run(11).2, run(12).2);
    }

    #[test]
    fn full_channel_drops_and_counts_instead_of_blocking() {
        let (agent, truth) = boot_agent();
        let shared = Arc::new(AdaptShared {
            cell: SnapshotCell::new(Arc::new(AgentSnapshot::initial(agent))),
            dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        // No trainer draining: a 2-deep channel fills after two offers.
        let (tx, _rx) = sync_channel(2);
        let tap = AdaptTap {
            tx,
            shared: Arc::clone(&shared),
        };
        let item = Arc::new(truth.item(0).clone());
        for _ in 0..5 {
            tap.offer(&item, &[ModelId(0)]);
        }
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6 })]

        /// Concurrent swaps under a predict storm never yield a torn
        /// snapshot. The coherence contract of [`SnapshotCell`]: a reader
        /// that loads generation G and then reads the slot gets a
        /// snapshot stamped **at least** G (`publish` writes the slot
        /// before the counter), never one that was never published, and
        /// successive reads never go backwards. Every pinned snapshot
        /// supports a full forward pass mid-storm.
        #[test]
        fn concurrent_swaps_never_tear_snapshots(
            readers in 1usize..4,
            publishes in 1u64..40,
        ) {
            let (agent, truth) = storm_fixture();
            let cell = Arc::new(SnapshotCell::new(Arc::new(AgentSnapshot::initial(
                agent.clone(),
            ))));
            let item = Arc::new(truth.item(0).clone());
            let reader_handles: Vec<_> = (0..readers)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    let item = Arc::clone(&item);
                    std::thread::spawn(move || -> Result<(), String> {
                        let mut predictor = SnapshotPredictor::new(cell.read());
                        let state = LabelSet::new(item.universe());
                        let mut out = vec![0.0f32; predictor.num_models()];
                        let mut last_counter = 0u64;
                        let mut last_pinned = 0u64;
                        loop {
                            let before = cell.generation();
                            if before < last_counter {
                                return Err(format!(
                                    "counter went backwards: {before} after {last_counter}"
                                ));
                            }
                            last_counter = before;
                            let snapshot = cell.read();
                            if snapshot.generation < before {
                                return Err(format!(
                                    "torn read: slot at {} behind counter {before}",
                                    snapshot.generation
                                ));
                            }
                            if snapshot.generation > publishes {
                                return Err(format!(
                                    "phantom generation {} (only {publishes} published)",
                                    snapshot.generation
                                ));
                            }
                            if snapshot.generation < last_pinned {
                                return Err(format!(
                                    "slot went backwards: {} after {last_pinned}",
                                    snapshot.generation
                                ));
                            }
                            last_pinned = snapshot.generation;
                            // The predict storm: every pinned snapshot must
                            // carry an intact network.
                            predictor.set_snapshot(snapshot);
                            predictor.predict_into(&state, &item, &mut out);
                            if out.iter().any(|v| !v.is_finite()) {
                                return Err("non-finite Q values from pinned snapshot".into());
                            }
                            if before >= publishes {
                                return Ok(());
                            }
                        }
                    })
                })
                .collect();
            let publisher = {
                let cell = Arc::clone(&cell);
                let agent = agent.clone();
                std::thread::spawn(move || {
                    for generation in 1..=publishes {
                        cell.publish(Arc::new(AgentSnapshot::new(agent.clone(), generation)));
                    }
                })
            };
            publisher.join().expect("publisher thread");
            for handle in reader_handles {
                let verdict = handle.join().expect("reader thread");
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
            prop_assert_eq!(cell.generation(), publishes);
            prop_assert_eq!(cell.read().generation, publishes);
        }
    }

    #[test]
    fn loss_trajectory_stays_bounded_and_spaced() {
        let mut losses = Vec::new();
        let (mut stride, mut seen) = (1u64, 0u64);
        for i in 0..10_000 {
            push_loss(&mut losses, &mut stride, &mut seen, i as f32);
        }
        assert!(losses.len() < 256);
        assert!(losses.len() >= 64, "decimation must not starve the record");
        let as_idx: Vec<u64> = losses.iter().map(|&l| l as u64).collect();
        let gaps: Vec<u64> = as_idx.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g == gaps[0]),
            "retained samples stay evenly spaced: {gaps:?}"
        );
    }
}
