//! The serving bench behind `bench_serve` and `BENCH_serve.json`: one
//! module per sweep, each owning its record struct, a `run(&Ctx)` and the
//! [`Check`](crate::gate::Check) rows that gate its record fields.
//!
//! Every run goes through [`Ctx::run_paced`] — start a server, submit a
//! stream through the ticketed [`Client`], shut down, account for every
//! ticket — so two kinds of guarantee are each stated once:
//!
//! * **Invariants** are deterministic and abort the process where they
//!   are measured, with no way to skip them: every ledger conserves and
//!   every ticket delivers exactly one terminal event (in `run_paced`),
//!   lossless serve stats equal the serial engine's
//!   ([`Ctx::check_serial`]), and a unique stream makes the label cache a
//!   no-op ([`zipf`]). The record carries them as flags.
//! * **Economics** depend on wall-clock timing — the routing win, the SLO
//!   win, cache monotonicity, the drift win, the observability tax, the
//!   capacity floor. They are table rows only:
//!   `bench_serve` writes its record first and then lets the same table
//!   `bench_gate` uses decide its exit code.

pub mod capacity;
pub mod drift;
pub mod held;
pub mod routing;
pub mod slo;
pub mod zipf;

use crate::hotpath::StreamSetup;
use ams::prelude::*;
use serde::Serialize;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What every sweep shares: the fixture, its item stream, the base server
/// shape, the serial engine's stats over the stream, and the running
/// ticket and invariant ledgers that end up in the record.
pub struct Ctx {
    /// CI-sized fixture and streams.
    pub smoke: bool,
    /// Truth table and trained agent ([`StreamSetup`], shared with
    /// `bench_hotpath` so the two records stay comparable).
    pub fx: StreamSetup,
    /// The fixture's items, ready to submit.
    pub items: Vec<Arc<ItemTruth>>,
    /// Per-item budget of every run.
    pub budget: Budget,
    /// The server shape sweeps derive theirs from.
    pub base: ServeConfig,
    /// The serial engine's stats over `items` — what a lossless serve run
    /// must reproduce.
    pub want: StreamStats,
    tickets: Cell<u64>,
    stats_match: Cell<bool>,
    exactly_once: Cell<bool>,
}

/// One finished run.
pub struct Run {
    /// The server's final report.
    pub report: ServeReport,
    /// First submission to the end of the drain.
    pub elapsed: Duration,
    /// Every terminal event the client received.
    pub events: Vec<Completion>,
    /// Ticket id of each accepted submission, in stream order.
    pub tickets: Vec<u64>,
}

impl Run {
    /// `n` per second of this run's wall clock.
    pub fn per_s(&self, n: u64) -> f64 {
        n as f64 / self.elapsed.as_secs_f64()
    }

    /// Stream position of each ticket (lossless runs: `tickets` has no
    /// holes).
    pub fn index_of(&self) -> HashMap<u64, usize> {
        self.tickets
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i))
            .collect()
    }
}

/// Whether two runs labeled the same stream identically: every
/// [`StreamStats`] field is an order-independent sum, exact for the
/// integers and to 1e-9 for the float sums.
pub fn stats_match(got: &StreamStats, want: &StreamStats) -> bool {
    got.items == want.items
        && got.total_exec_ms == want.total_exec_ms
        && got.total_executions == want.total_executions
        && got.per_model_runs == want.per_model_runs
        && (got.recall_sum - want.recall_sum).abs() < 1e-9
        && (got.value_sum - want.value_sum).abs() < 1e-9
}

/// 1 − virtual pool busy time / serial virtual bill.
pub fn saving_fraction(r: &ServeReport) -> f64 {
    1.0 - r.virtual_exec_ms as f64 / r.stats.total_exec_ms.max(1) as f64
}

impl Ctx {
    /// Build the fixture and label it serially. Full size matches
    /// `bench_hotpath`'s workload exactly (240 items, 120 episodes);
    /// smoke shrinks both knobs so the CI gate stays in seconds.
    pub fn new(smoke: bool) -> Self {
        let fx = if smoke {
            StreamSetup::paper(96, 24)
        } else {
            StreamSetup::paper(240, 120)
        };
        let budget = Budget::Deadline { ms: 1000 };
        let mut serial = StreamProcessor::new(fx.scheduler(), budget);
        serial.process_all(fx.truth.items());
        Self {
            smoke,
            items: fx.truth.items().iter().cloned().map(Arc::new).collect(),
            budget,
            base: ServeConfig {
                shards: 4,
                workers_per_shard: 2,
                max_batch: 8,
                queue_capacity: 8,
                policy: BackpressurePolicy::Block,
                // 20 wall-clock µs per virtual execution ms: a batch's
                // compressed pool time (~1-2 virtual s) costs tens of wall
                // ms, so queues genuinely build and batches genuinely
                // coalesce while every sweep still finishes in seconds.
                exec_emulation_scale: 2e-2,
                ..ServeConfig::default()
            },
            want: serial.stats().clone(),
            fx,
            tickets: Cell::new(0),
            stats_match: Cell::new(true),
            exactly_once: Cell::new(true),
        }
    }

    /// The fixture stream submitted `passes` times back to back.
    pub fn repeated(&self, passes: usize) -> Vec<Arc<ItemTruth>> {
        (0..passes)
            .flat_map(|_| self.items.iter().cloned())
            .collect()
    }

    /// Tickets issued across every run so far.
    pub fn tickets_issued(&self) -> u64 {
        self.tickets.get()
    }

    /// Every [`Ctx::check_serial`] so far held.
    pub fn stats_match_serial(&self) -> bool {
        self.stats_match.get()
    }

    /// Every run so far delivered exactly one terminal event per ticket.
    pub fn exactly_once_ticketing(&self) -> bool {
        self.exactly_once.get()
    }

    /// Invariant: a lossless run over the fixture stream reproduces the
    /// serial engine's stats — routing, batching, the cache and the
    /// transport change where and when a request computes, never what.
    pub fn check_serial(&self, what: &str, got: &StreamStats) {
        let ok = stats_match(got, &self.want);
        self.stats_match.set(self.stats_match.get() && ok);
        assert!(
            ok,
            "{what}: serve stats diverged from serial: {got:?} vs {:?}",
            self.want
        );
    }

    /// Serve `stream` in bursts of `burst` at an aggregate `rate`
    /// items/s, request `i` in class `class_of(i)`, and drain. Invariants
    /// asserted on every run: the ledger conserves, and tickets issued ==
    /// terminal events delivered, bucket-for-bucket against the ledger.
    #[allow(clippy::too_many_arguments)]
    pub fn run_paced(
        &self,
        what: &str,
        scheduler: AdaptiveModelScheduler,
        cfg: ServeConfig,
        stream: &[Arc<ItemTruth>],
        rate: f64,
        burst: usize,
        class_of: impl Fn(usize) -> usize,
    ) -> Run {
        let server = AmsServer::start(scheduler, self.budget, cfg);
        // Sized so the completion window can never block the submission
        // loop (events are drained after shutdown).
        let client = server.client_with_capacity(stream.len() + 16);
        let mut tickets = Vec::with_capacity(stream.len());
        let mut rejected = 0u64;
        let burst = burst.max(1);
        let t0 = Instant::now();
        for (b, chunk) in stream.chunks(burst).enumerate() {
            let due = t0 + Duration::from_secs_f64((b * burst) as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            for (i, item) in chunk.iter().enumerate() {
                let opts = SubmitOptions::class(class_of(b * burst + i));
                match client.submit_with(Arc::clone(item), opts).ticket() {
                    Some(t) => tickets.push(t.id()),
                    None => rejected += 1,
                }
            }
        }
        let report = server.shutdown();
        let elapsed = t0.elapsed().max(Duration::from_micros(1));
        let events = client.drain();

        let count =
            |pick: fn(&Completion) -> bool| events.iter().filter(|e| pick(e)).count() as u64;
        let labeled = count(|e| matches!(e, Completion::Labeled(_)));
        let shed = count(|e| matches!(e, Completion::Shed { .. }));
        let cancelled = count(|e| matches!(e, Completion::Cancelled { .. }));
        let issued = tickets.len() as u64;
        let exactly_once = events.len() as u64 == issued
            && labeled == report.completed + report.cache_hit + report.coalesced
            && shed == report.shed_admission + report.shed_oldest + report.shed_deadline
            && cancelled == report.cancelled
            && rejected == report.rejected;
        self.tickets.set(self.tickets.get() + issued);
        self.exactly_once
            .set(self.exactly_once.get() && exactly_once);
        assert!(
            report.is_conserved(),
            "{what}: every offered request must be accounted exactly once"
        );
        assert!(
            exactly_once,
            "{what}: {issued} tickets issued and {rejected} rejected, but {} events \
             ({labeled} labeled, {shed} shed, {cancelled} cancelled) against {report:?}",
            events.len()
        );
        Run {
            report,
            elapsed,
            events,
            tickets,
        }
    }

    /// Closed loop: submissions block on queue space, so the run's rate
    /// *is* the configuration's sustainable capacity (the producer can
    /// never outrun the system being measured).
    pub fn run_closed(
        &self,
        what: &str,
        scheduler: AdaptiveModelScheduler,
        cfg: ServeConfig,
        stream: &[Arc<ItemTruth>],
    ) -> Run {
        let whole = stream.len();
        self.run_paced(what, scheduler, cfg, stream, f64::INFINITY, whole, |_| 0)
    }
}

/// The whole benchmark record (`BENCH_serve.json`).
#[derive(Debug, Serialize)]
pub struct Record {
    pub description: String,
    /// Cores the run had; no scaling claim from a record where this is 1.
    pub cores_available: usize,
    pub smoke: bool,
    pub items: usize,
    pub shards: usize,
    pub workers_per_shard: usize,
    pub max_batch: usize,
    pub queue_capacity: usize,
    /// Wall-clock seconds emulated per virtual execution second.
    pub exec_emulation_scale: f64,
    /// Lossless serve stats equalled the serial engine's wherever they
    /// must — hash and affinity routing, cache on over a unique stream.
    pub stats_match_serial: bool,
    pub tickets_issued: u64,
    /// Tickets issued == terminal events delivered (labeled + shed +
    /// cancelled), bucket-for-bucket against the ledger, in every run.
    pub exactly_once_ticketing: bool,
    /// Hex FNV-64 fold of `(item index, labels JSON)` over the fixture,
    /// labeled through the in-process client on the lossless
    /// configuration: an unchanged digest is unchanged labels.
    pub labels_digest: String,
    /// Closed-loop sustainable capacity, items/s.
    pub closed_loop_capacity_per_s: f64,
    /// Total-latency p99 of the closed-loop run, µs.
    pub closed_loop_p99_us: u64,
    /// Mean recall of the closed-loop run.
    pub mean_recall: f64,
    /// 1 − virtual pool busy time / serial virtual bill on the
    /// closed-loop run: the simulated GPU time batched admission saved.
    pub batching_saving_fraction: f64,
    /// Capacity lost to the live observability layer: 1 − best-of-trials
    /// closed-loop capacity with obs on / with obs off, clamped at 0.
    pub obs_overhead_fraction: f64,
    /// Fingerprint width of the affinity runs.
    pub affinity_top_k: usize,
    /// Hash vs affinity routing at 0.8x and 1.6x offered load.
    pub routing_sweep: Vec<routing::RoutingPoint>,
    /// Blind vs SLO-aware shedding at 1.6x burst overload.
    pub slo_sweep: slo::SloSweep,
    /// The label cache under increasing content repetition.
    pub zipf_sweep: Vec<zipf::ZipfPoint>,
    /// Online adaptation under a mid-stream mixture shift.
    pub drift_sweep: drift::DriftSweep,
    /// Pool admissions of a `max_batch` burst queued while the one worker
    /// was labeling its first request ([`held`]): 1 when the burst joins
    /// the open batch.
    pub held_burst_admissions: u64,
}
