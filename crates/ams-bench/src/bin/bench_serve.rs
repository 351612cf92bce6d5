//! Serving benchmark: drive the sharded front-end through an offered-load
//! sweep and record throughput, tail latency, shed rate, and recall at
//! each point; compare hash vs model-affinity routing; and close the loop
//! on the adaptive batch-limit controller. Writes `BENCH_serve.json`
//! (methodology in `PERF.md`).
//!
//! Two load modes:
//! * **closed loop** — submissions block on queue space, so the measured
//!   rate *is* the server's sustainable capacity (no coordinated-omission
//!   games: the producer can never outrun the system being measured).
//! * **open loop** — submissions arrive on a fixed schedule regardless of
//!   server progress (the real-traffic shape); overload shows up as queue
//!   growth, shed requests, and tail-latency blowup rather than as a
//!   silently slowed producer.
//!
//! Eight gates run *inside* the bench (the process aborts on violation,
//! so a green record is a green guarantee):
//! * serve-mode stats equal the serial engine's, under hash **and**
//!   affinity routing;
//! * **wire transparency** — a loopback [`NetServer`] driven by 1, 2, and
//!   4 forked client *processes* (each a [`NetClient`] submitting a
//!   strided partition of the same item set) must reproduce the serial
//!   stats through the socket, deliver exactly one terminal completion
//!   per wire request, conserve and reconcile at every point, and return
//!   labels **byte-identical** to the in-process client (an
//!   order-independent digest over each item's serialized labels must
//!   match the in-process reference exactly);
//! * affinity routing strictly raises the mean coalesced batch depth and
//!   the virtual-GPU saving over hash routing at 0.8x and 1.6x load;
//! * the adaptive controller's last window on every shard meets the
//!   configured p99 target in the closed-loop sweep;
//! * **exactly-once ticketing** — every sweep submits through the
//!   request/response [`Client`] API, and at every measured point the
//!   tickets issued equal the terminal completion events delivered
//!   (labeled + shed + cancelled), bucket-for-bucket against the report's
//!   conservation ledger;
//! * **label-cache economics** — a Zipf-repetition sweep (repeat rate 0 /
//!   0.3 / 0.6 / 0.9, same sequence cache-on and cache-off) where the
//!   bill saving and the effective capacity strictly increase with the
//!   repeat rate, cache-on strictly undercuts cache-off on the virtual
//!   GPU bill at repeat ≥ 0.6, conservation (including the `cache_hit`
//!   and `coalesced` buckets) holds at every point, and at repeat 0 the
//!   cache is a perfect no-op (zero hits, stats equal to the serial
//!   engine's — unique streams pay nothing for the cache);
//! * **online adaptation under drift** — a two-phase stream whose item
//!   mixture shifts mid-run is served frozen (`adapt: None`) and adaptive
//!   with identical configs otherwise: the frozen run must reproduce the
//!   serial engine byte-for-byte (the off-switch is a true no-op), and the
//!   adaptive run must hot-swap trainer generations into the predict path
//!   mid-stream and bank strictly more realized label value after the
//!   shift, with conservation and event reconciliation in both modes;
//! * **event/ledger reconciliation** — the closed-loop capacity fixture is
//!   re-run with the live observability layer on, and the lifecycle event
//!   totals must match the conservation ledger bucket-for-bucket
//!   (`events_reconcile()`); the measured capacity tax is recorded as
//!   `obs_overhead_fraction` and gated ≤ 2% by `gate.rs`.
//!
//! Run with: `cargo run --release -p ams-bench --bin bench_serve [-- --smoke]`

use ams::prelude::*;
use ams::serve::net::{decode_value, encode_value};
use ams_bench::hotpath::StreamSetup;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured load point.
#[derive(Debug, Serialize)]
struct LoadPoint {
    mode: String,
    /// Offered rate, items/s (for closed loop: the achieved rate).
    offered_per_s: f64,
    /// Completed items / wall-clock elapsed (includes the drain).
    achieved_per_s: f64,
    offered: u64,
    completed: u64,
    shed_rate: f64,
    mean_recall: f64,
    queue_wait_p50_us: u64,
    queue_wait_p99_us: u64,
    execute_p50_us: u64,
    execute_p99_us: u64,
    total_p50_us: u64,
    total_p95_us: u64,
    total_p99_us: u64,
    batches: u64,
    max_batch_observed: usize,
    /// Every offered request accounted for exactly once (asserted
    /// in-process at measurement time, recorded for traceability).
    conserved: bool,
}

/// One routing-mode measurement at a fixed offered load.
#[derive(Debug, Serialize)]
struct RoutingPoint {
    /// `"hash"` or `"affinity"`.
    mode: String,
    /// Offered load as a fraction of the measured closed-loop capacity.
    load_factor: f64,
    offered_per_s: f64,
    achieved_per_s: f64,
    completed: u64,
    batches: u64,
    /// Executed requests per batched round.
    mean_batch_size: f64,
    /// Model executions coalesced per batched GPU invocation — the
    /// quantity affinity routing exists to raise.
    mean_coalesced: f64,
    /// 1 − batched virtual *makespan* / serial virtual bill (wall-clock
    /// view; pool packing moves it).
    batching_saving_fraction: f64,
    /// 1 − batched GPU-time consumed / serial virtual bill (billing view;
    /// only coalescing moves it — the routing-quality metric).
    bill_saving_fraction: f64,
    /// Requests that landed on their affinity home shard (0 under hash).
    affinity_hit_rate: f64,
    affinity_spills: u64,
    total_p50_us: u64,
    total_p99_us: u64,
}

/// One shedding mode's measurement in the SLO sweep (same offered stream
/// for both modes).
#[derive(Debug, Serialize)]
struct SloPoint {
    /// `"blind"` (head-drop, FIFO, no admission control) or `"aware"`
    /// (value-weighted eviction + EDF + admission control).
    mode: String,
    completed: u64,
    rejected: u64,
    shed_admission: u64,
    shed_oldest: u64,
    shed_deadline: u64,
    /// Σ predicted value of offered requests.
    value_offered: f64,
    /// Σ value banked by completions.
    value_completed: f64,
    /// Σ value delivered past its deadline (capacity spent on labels the
    /// client had given up on; subset of `value_completed`).
    value_late: f64,
    /// Σ value not delivered within deadline (shed value + late value) —
    /// the loss the aware mode exists to shrink.
    value_shed_loss: f64,
    /// Completions within their class deadline / offered.
    deadline_met_rate: f64,
    /// Exactly-once ledger held globally and per class.
    conserved: bool,
    /// Per-class breakdowns (deadlines, weights, loss paths, latency).
    classes: Vec<ClassReport>,
}

/// The SLO sweep: blind vs value-aware shedding on the same overloaded
/// burst stream.
#[derive(Debug, Serialize)]
struct SloSweep {
    /// Offered load as a fraction of the SLO shape's closed-loop capacity.
    load_factor: f64,
    /// Submission burst size.
    burst: usize,
    /// Times the item stream was submitted back to back (sustained
    /// overload — a single short burst would fit in the queues and give
    /// the shedding policies nothing to decide).
    passes: usize,
    offered_per_s: f64,
    /// The request classes both modes served (alternating per request).
    classes: Vec<SloClass>,
    blind: SloPoint,
    aware: SloPoint,
}

/// One repeat-rate point of the label-cache Zipf sweep: the same
/// submission sequence served twice, cache-off then cache-on.
#[derive(Debug, Serialize)]
struct ZipfPoint {
    /// Probability that a submission repeats an already-seen content
    /// (repeats drawn with a Zipf-like skew toward the oldest contents).
    repeat_rate: f64,
    submissions: u64,
    /// Distinct contents in the sequence.
    distinct: u64,
    /// Exact hits answered before admission (cache-on run).
    cache_hit: u64,
    /// Duplicates that coalesced onto an in-flight leader (cache-on run).
    coalesced: u64,
    /// (cache_hit + coalesced) / offered.
    cache_hit_rate: f64,
    /// Virtual GPU time billed, cache on / off (the billing view: what
    /// dedup actually saves).
    bill_on_ms: u64,
    bill_off_ms: u64,
    /// 1 − bill_on / bill_off.
    bill_saving_fraction: f64,
    /// Closed-loop effective capacity (offered / elapsed), items/s.
    capacity_on_per_s: f64,
    capacity_off_per_s: f64,
    /// capacity_on / capacity_off.
    capacity_gain: f64,
    /// Conservation — with `cache_hit`/`coalesced` — held in both runs.
    conserved: bool,
}

/// One serving mode of the drift sweep: the same two-phase stream served
/// frozen (`adapt: None`) or with the online trainer hot-swapping
/// generations into the predict path.
#[derive(Debug, Serialize)]
struct DriftPoint {
    /// `"frozen"` or `"adaptive"`.
    mode: String,
    completed: u64,
    /// Σ realized label value `f(S, d)` banked before the mixture shift.
    phase1_value: f64,
    /// Σ realized label value banked after the shift — the number online
    /// adaptation exists to raise.
    phase2_value: f64,
    /// Whole-stream realized value (`StreamStats::value_sum`).
    value_sum: f64,
    mean_recall: f64,
    /// Generations the trainer published into the predict path (0 frozen).
    swaps: u64,
    learn_steps: u64,
    /// Outcomes that crossed the worker→trainer experience channel.
    experiences: u64,
    experiences_dropped: u64,
    conserved: bool,
    /// Lifecycle events — `weights_swapped` included — reconcile with the
    /// ledgers ([`ServeReport::events_reconcile`]).
    events_reconciled: bool,
}

/// The drift sweep: a workload whose item mixture shifts mid-stream,
/// served by a deliberately undertrained boot agent with adaptation off
/// vs on.
#[derive(Debug, Serialize)]
struct DriftSweep {
    phase1_profile: String,
    phase2_profile: String,
    phase1_submissions: u64,
    phase2_submissions: u64,
    /// Times the post-shift item set repeats (adaptation needs later
    /// repetitions to cash in what it learned from earlier ones).
    phase2_passes: usize,
    /// Training episodes behind the boot agent (deliberately few: the
    /// drift story needs headroom for the online trainer to close).
    boot_episodes: usize,
    /// The frozen run's serve stats equal the serial engine's over the
    /// same drifted stream — adaptation off stays byte-identical.
    frozen_matches_serial: bool,
    /// adaptive post-shift value / frozen post-shift value.
    phase2_value_gain: f64,
    frozen: DriftPoint,
    adaptive: DriftPoint,
}

/// One point of the wire-protocol sweep: a loopback listener driven by
/// `procs` forked client processes partitioning the same item set.
#[derive(Debug, Serialize)]
struct NetPoint {
    /// Forked `NetClient` processes driving the listener concurrently.
    procs: usize,
    offered: u64,
    completed: u64,
    /// Completions / wall clock from first child spawn to last child
    /// exit — socket framing, loopback TCP, and drain included.
    achieved_per_s: f64,
    /// XOR of the children's per-item label digests equals the in-process
    /// reference digest: labels through the socket are byte-identical.
    labels_match: bool,
    /// Server-side `StreamStats` through the socket equal the serial
    /// engine's (items, executions, virtual bill, per-model runs,
    /// recall).
    stats_match_serial: bool,
    /// Every wire request came back as exactly one terminal completion
    /// in its child process, and the server ledger agrees.
    exactly_once: bool,
    conserved: bool,
    /// Lifecycle event totals reconcile with the ledger through the
    /// transport ([`ServeReport::events_reconcile`]).
    events_reconciled: bool,
}

/// The wire-protocol sweep: the TCP front-end under 1, 2, and 4 client
/// processes over loopback.
#[derive(Debug, Serialize)]
struct NetSweep {
    /// Per-connection completion window each client declared in its
    /// `Hello` — the only flow control on the wire.
    window: usize,
    /// `stats_match_serial` held at every point.
    stats_match_serial: bool,
    /// `exactly_once` held at every point.
    exactly_once_ticketing: bool,
    /// Hex FNV-64 fold of `(item index, labels JSON)` over the full item
    /// set, computed through the in-process `Client`; every point's
    /// child digests must XOR back to exactly this value.
    reference_digest: String,
    points: Vec<NetPoint>,
}

/// The adaptive-controller closed-loop sweep.
#[derive(Debug, Serialize)]
struct AdaptiveSweep {
    /// Self-calibrated target: 1.25× the static batch-8 closed-loop p99.
    target_p99_ms: u64,
    start_max_batch: usize,
    ceiling_max_batch: usize,
    window: u64,
    achieved_per_s: f64,
    total_p99_us: u64,
    all_within_target: bool,
    /// Per-shard limit trajectories (one entry per adjustment).
    shards: Vec<ShardAdaptive>,
}

/// The whole benchmark record.
#[derive(Debug, Serialize)]
struct Record {
    description: String,
    cores_available: usize,
    smoke: bool,
    items: usize,
    shards: usize,
    workers_per_shard: usize,
    max_batch: usize,
    queue_capacity: usize,
    exec_emulation_scale: f64,
    /// Serve-mode `StreamStats` equal the serial engine's over the same
    /// stream under hash *and* affinity routing (verified on the lossless
    /// configuration; the process aborts if they ever diverge, so a green
    /// bench is a green equivalence).
    stats_match_serial: bool,
    /// Completion tickets issued across every measured run (all
    /// submissions go through the client API).
    tickets_issued: u64,
    /// Exactly-once ticketing held at every measured point: tickets issued
    /// == terminal events delivered (labeled + shed + cancelled), asserted
    /// in-process alongside `is_conserved()`.
    exactly_once_ticketing: bool,
    /// Closed-loop sustainable capacity, items/s.
    closed_loop_capacity_per_s: f64,
    /// 1 − (batched virtual execution / serial virtual execution bill) on
    /// the closed-loop run: the share of simulated GPU time that batched
    /// admission saved.
    batching_saving_fraction: f64,
    /// Capacity lost to the live observability layer: 1 − (best-of-trials
    /// closed-loop capacity with obs on / with obs off), clamped at 0.
    /// Gated ≤ 2% by `gate.rs`; the obs-on trials also assert
    /// `events_reconcile()` in-process.
    obs_overhead_fraction: f64,
    /// Fingerprint width of the affinity runs.
    affinity_top_k: usize,
    /// Hash vs affinity at 0.8x and 1.6x offered load, burst arrivals.
    routing_sweep: Vec<RoutingPoint>,
    /// The adaptive batch-limit controller under closed-loop pressure.
    adaptive: AdaptiveSweep,
    /// Blind vs SLO-aware shedding at 1.6x burst overload. Gated
    /// in-process: aware must strictly reduce the value-weighted shed
    /// loss and not worsen the deadline-met rate, with conservation
    /// holding in both modes.
    slo_sweep: SloSweep,
    /// The label cache under increasing content repetition. Gated
    /// in-process: bill saving and effective capacity strictly increase
    /// with the repeat rate, cache-on strictly beats cache-off on the
    /// bill at repeat ≥ 0.6, every point conserves, and repeat 0 is a
    /// cache no-op (zero hits, serial-identical stats).
    zipf_sweep: Vec<ZipfPoint>,
    /// Online adaptation under a mid-stream mixture shift. Gated
    /// in-process: the frozen run reproduces the serial engine
    /// byte-for-byte, the adaptive run hot-swaps generations mid-stream
    /// (swaps > 0, no experience drops) and banks strictly more realized
    /// post-shift value than the frozen path, with conservation and event
    /// reconciliation holding in both modes.
    drift_sweep: DriftSweep,
    /// The TCP front-end over loopback: 1/2/4 forked client processes,
    /// lossless configuration. Gated in-process: serial-identical stats
    /// through the socket, byte-identical labels against the in-process
    /// reference digest, exactly-once per wire request, conservation and
    /// event reconciliation at every point.
    net_sweep: NetSweep,
    sweep: Vec<LoadPoint>,
}

/// The shared stream fixture ([`StreamSetup`]) at full size matches
/// `bench_hotpath`'s workload exactly (240 items, 120 episodes), keeping
/// `BENCH_serve.json` and `BENCH_hotpath.json` comparable; smoke shrinks
/// both knobs so the CI gate stays in seconds.
fn fixture(smoke: bool) -> StreamSetup {
    if smoke {
        StreamSetup::paper(96, 24)
    } else {
        StreamSetup::paper(240, 120)
    }
}

fn point_from(mode: &str, offered_per_s: f64, elapsed: Duration, r: &ServeReport) -> LoadPoint {
    assert!(
        r.is_conserved(),
        "{mode} @ {offered_per_s}/s: every offered request must be accounted exactly once"
    );
    LoadPoint {
        mode: mode.into(),
        offered_per_s,
        achieved_per_s: r.completed as f64 / elapsed.as_secs_f64(),
        offered: r.offered,
        completed: r.completed,
        shed_rate: r.shed_rate(),
        mean_recall: r.stats.mean_recall(),
        queue_wait_p50_us: r.queue_wait.p50_us,
        queue_wait_p99_us: r.queue_wait.p99_us,
        execute_p50_us: r.execute.p50_us,
        execute_p99_us: r.execute.p99_us,
        total_p50_us: r.total.p50_us,
        total_p95_us: r.total.p95_us,
        total_p99_us: r.total.p99_us,
        batches: r.batches,
        max_batch_observed: r.max_batch_observed,
        conserved: r.is_conserved(),
    }
}

fn saving_fraction(r: &ServeReport) -> f64 {
    1.0 - r.virtual_exec_ms as f64 / r.stats.total_exec_ms.max(1) as f64
}

/// One measured run's ticketing ledger: submissions go through a
/// [`Client`] and every issued ticket must come back as exactly one
/// terminal completion event.
struct Ticketed {
    client: Client,
    issued: u64,
    rejected: u64,
}

impl Ticketed {
    /// A client sized so the completion window can never block the
    /// submission loop (the bench drains events after shutdown).
    fn open(server: &AmsServer, expected: usize) -> Self {
        Self {
            client: server.client_with_capacity(expected + 16),
            issued: 0,
            rejected: 0,
        }
    }

    fn submit(&mut self, item: Arc<ItemTruth>) -> SubmitOutcome<Ticket> {
        self.submit_class(item, 0)
    }

    fn submit_class(&mut self, item: Arc<ItemTruth>, class: usize) -> SubmitOutcome<Ticket> {
        let outcome = self.client.submit_class(item, class);
        if outcome.is_rejected() {
            self.rejected += 1;
        } else {
            self.issued += 1;
        }
        outcome
    }

    /// The exactly-once gate, run at every measured point: tickets issued
    /// == terminal events delivered, bucket-for-bucket against the
    /// report's (already `is_conserved()`-checked) ledger.
    fn assert_exactly_once(self, report: &ServeReport, ctx: &str) -> u64 {
        let events = self.client.drain();
        assert_eq!(
            events.len() as u64,
            self.issued,
            "{ctx}: every ticket must deliver exactly one terminal event"
        );
        let mut labeled = 0u64;
        let mut shed = 0u64;
        let mut cancelled = 0u64;
        for ev in &events {
            match ev {
                Completion::Labeled(_) => labeled += 1,
                Completion::Shed { .. } => shed += 1,
                Completion::Cancelled { .. } => cancelled += 1,
            }
        }
        assert_eq!(
            labeled,
            report.completed + report.cache_hit + report.coalesced,
            "{ctx}: labeled == worker completions + cache answers"
        );
        assert_eq!(
            shed,
            report.shed_admission + report.shed_oldest + report.shed_deadline,
            "{ctx}: shed events match the shed ledger"
        );
        assert_eq!(cancelled, report.cancelled, "{ctx}: cancelled events");
        assert_eq!(self.rejected, report.rejected, "{ctx}: rejections");
        self.issued
    }
}

/// FNV-64 over `(item index, serialized labels)` — one item's
/// contribution to the order-independent label digest. Both sides of the
/// wire serialize with the same `serde_json`, so equal digests mean the
/// label payloads are byte-identical, floats included.
fn item_digest(index: usize, labels: &[(LabelId, f32)]) -> u64 {
    let json = serde_json::to_string(&labels.to_vec()).expect("labels serialize");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in (index as u64).to_le_bytes().iter().chain(json.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The in-process reference for the wire sweep: label every item through
/// the `Client` API on the lossless socket configuration and fold each
/// result into the order-independent digest keyed by item index. Returns
/// the digest and the tickets issued.
fn reference_label_digest(
    fx: &StreamSetup,
    budget: Budget,
    cfg: &ServeConfig,
    items: &[Arc<ItemTruth>],
) -> (u64, u64) {
    let server = AmsServer::start(fx.scheduler(), budget, cfg.clone());
    let client = server.client_with_capacity(items.len() + 1);
    let mut index_of = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let ticket = client
            .submit(Arc::clone(item))
            .ticket()
            .expect("lossless config accepts every submission");
        index_of.insert(ticket.id(), i);
    }
    let report = server.shutdown();
    assert!(report.is_conserved(), "reference run conserves");
    let mut digest = 0u64;
    let mut labeled = 0usize;
    for ev in client.drain() {
        let Completion::Labeled(r) = ev else {
            panic!("lossless reference run labels everything");
        };
        digest ^= item_digest(index_of[&r.ticket], &r.labels);
        labeled += 1;
    }
    assert_eq!(labeled, items.len(), "reference run labels every item");
    (digest, report.offered)
}

/// One child process's parsed summary line.
struct ChildSummary {
    labeled: u64,
    other: u64,
    digest: u64,
}

fn parse_child_summary(stdout: &[u8]) -> ChildSummary {
    let line = String::from_utf8_lossy(stdout);
    let (mut labeled, mut other, mut digest) = (None, None, None);
    for tok in line.split_whitespace() {
        if let Some(v) = tok.strip_prefix("labeled=") {
            labeled = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("other=") {
            other = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("digest=") {
            digest = u64::from_str_radix(v, 16).ok();
        }
    }
    ChildSummary {
        labeled: labeled.unwrap_or_else(|| panic!("child summary missing labeled=: {line}")),
        other: other.unwrap_or_else(|| panic!("child summary missing other=: {line}")),
        digest: digest.unwrap_or_else(|| panic!("child summary missing digest=: {line}")),
    }
}

/// Drive one wire-protocol point: bind a fresh loopback listener, fork
/// `procs` copies of this binary in `net-client` mode (each submits the
/// strided partition `start, start+procs, ...` of the shared item file),
/// fold their summaries, and shut the listener down. Returns the point
/// and the tickets issued through the socket.
#[allow(clippy::too_many_arguments)]
fn run_net_point(
    fx: &StreamSetup,
    budget: Budget,
    cfg: &ServeConfig,
    want: &StreamStats,
    items_path: &str,
    procs: usize,
    window: usize,
    reference_digest: u64,
    skip_gates: bool,
) -> (NetPoint, u64) {
    let total = want.items;
    let net = NetServer::bind(
        AmsServer::start(fx.scheduler(), budget, cfg.clone()),
        "127.0.0.1:0",
    )
    .expect("bind loopback listener");
    let addr = net.local_addr().to_string();
    let exe = std::env::current_exe().expect("current_exe");
    let t0 = Instant::now();
    let children: Vec<std::process::Child> = (0..procs)
        .map(|start| {
            std::process::Command::new(&exe)
                .args([
                    "net-client",
                    &addr,
                    items_path,
                    &start.to_string(),
                    &procs.to_string(),
                    &window.to_string(),
                ])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn net-client child")
        })
        .collect();
    let mut labeled = 0u64;
    let mut other = 0u64;
    let mut digest = 0u64;
    for child in children {
        let out = child.wait_with_output().expect("net-client child exits");
        assert!(
            out.status.success(),
            "net-client child failed with {:?}",
            out.status
        );
        let summary = parse_child_summary(&out.stdout);
        labeled += summary.labeled;
        other += summary.other;
        digest ^= summary.digest;
    }
    let elapsed = t0.elapsed();
    let report = net.shutdown();

    let labels_match = digest == reference_digest;
    let stats_match_serial = report.stats.items == want.items
        && report.stats.total_exec_ms == want.total_exec_ms
        && report.stats.total_executions == want.total_executions
        && report.stats.per_model_runs == want.per_model_runs
        && (report.stats.recall_sum - want.recall_sum).abs() < 1e-9;
    let exactly_once = labeled == total as u64
        && other == 0
        && report.offered == total as u64
        && report.completed == total as u64;
    let point = NetPoint {
        procs,
        offered: report.offered,
        completed: report.completed,
        achieved_per_s: report.completed as f64 / elapsed.as_secs_f64(),
        labels_match,
        stats_match_serial,
        exactly_once,
        conserved: report.is_conserved(),
        events_reconciled: report.events_reconcile(),
    };
    if !skip_gates {
        assert!(
            point.labels_match,
            "{procs} proc(s): wire labels must be byte-identical to in-process \
             (digest {digest:016x} vs reference {reference_digest:016x})"
        );
        assert!(
            point.stats_match_serial,
            "{procs} proc(s): serve stats through the socket diverged from serial"
        );
        assert!(
            point.exactly_once,
            "{procs} proc(s): exactly-once broke over the wire \
             (labeled {labeled}, other {other}, offered {}, completed {})",
            report.offered, report.completed
        );
        assert!(point.conserved, "{procs} proc(s): ledger must conserve");
        assert!(
            point.events_reconciled,
            "{procs} proc(s): event stream must reconcile through the transport"
        );
    }
    (point, report.offered)
}

/// Hidden subcommand: one forked loopback client of the wire-protocol
/// sweep (`bench_serve net-client <addr> <items-file> <start> <stride>
/// <window>`). Connects a [`NetClient`], submits its strided partition of
/// the shared item file, drains every completion, and prints a one-line
/// machine-readable summary (event counts + label digest) for the parent
/// to fold and check.
fn net_client_child(args: &[String]) {
    let (addr, items_path) = (args[0].as_str(), args[1].as_str());
    let start: usize = args[2].parse().expect("start index");
    let stride: usize = args[3].parse().expect("stride");
    let window: usize = args[4].parse().expect("window");
    let bytes = std::fs::read(items_path).unwrap_or_else(|e| panic!("read {items_path}: {e}"));
    let tree = decode_value(&bytes).expect("item file decodes");
    let items = Vec::<ItemTruth>::from_value(&tree).expect("item file is Vec<ItemTruth>");

    let client = NetClient::connect_with_window(addr, window).expect("connect to parent listener");
    let mut index_of_id = HashMap::new();
    let mut events = Vec::new();
    for i in (start..items.len()).step_by(stride.max(1)) {
        // The completion window is the flow control: when it is full the
        // client owes the server a read before the protocol lets it
        // submit again (a blind `submit` would block forever — nothing
        // else drains this single-threaded client's socket).
        while client.outstanding() >= client.capacity() {
            let ev = client
                .recv()
                .expect("recv completion")
                .expect("window full implies outstanding completions");
            events.push(ev);
        }
        let id = client
            .submit(Arc::new(items[i].clone()))
            .expect("submit over the wire");
        index_of_id.insert(id, i);
    }
    events.extend(client.drain().expect("drain completions"));
    assert_eq!(
        events.len(),
        index_of_id.len(),
        "every wire request must come back exactly once"
    );
    let mut labeled = 0u64;
    let mut other = 0u64;
    let mut digest = 0u64;
    for ev in &events {
        match ev.completion() {
            Some(Completion::Labeled(r)) => {
                labeled += 1;
                digest ^= item_digest(index_of_id[&ev.id()], &r.labels);
            }
            _ => other += 1,
        }
    }
    client.goodbye().expect("goodbye");
    println!("labeled={labeled} other={other} digest={digest:016x}");
}

/// A deterministic repetition stream: with probability `repeat_rate` a
/// submission repeats an already-seen content, drawn with a Zipf-like
/// quadratic skew toward the earliest (most popular) distinct items;
/// otherwise it introduces the next fresh item. At rate 0 this is exactly
/// the fixture stream, once, in order. Returns the stream and the number
/// of distinct contents in it.
fn zipf_stream(
    items: &[Arc<ItemTruth>],
    submissions: usize,
    repeat_rate: f64,
    seed: u64,
) -> (Vec<Arc<ItemTruth>>, u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: Vec<usize> = Vec::new();
    let mut fresh = 0usize;
    let mut out = Vec::with_capacity(submissions);
    for _ in 0..submissions {
        let idx = if !seen.is_empty() && rng.gen_bool(repeat_rate) {
            let u: f64 = rng.gen();
            seen[((u * u * seen.len() as f64) as usize).min(seen.len() - 1)]
        } else {
            let i = fresh % items.len();
            fresh += 1;
            seen.push(i);
            i
        };
        out.push(Arc::clone(&items[idx]));
    }
    (out, seen.len() as u64)
}

/// Submit the items in bursts of `burst` at an aggregate rate of
/// `rate` items/s (the album-upload arrival shape: requests come in
/// clumps, which is exactly when batch coalescing has something to do).
fn submit_bursts(client: &mut Ticketed, items: &[Arc<ItemTruth>], rate: f64, burst: usize) {
    let t0 = Instant::now();
    for (b, chunk) in items.chunks(burst.max(1)).enumerate() {
        let due = t0 + Duration::from_secs_f64((b * burst) as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        for item in chunk {
            client.submit(Arc::clone(item));
        }
    }
}

fn main() {
    // Child-process mode for the wire sweep: the parent re-execs this
    // binary with the hidden `net-client` subcommand.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("net-client") {
        net_client_child(&argv[2..]);
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Exploration escape hatch: skip the in-process gates (still measures
    // and writes the record) so parameter experiments can inspect a
    // violating configuration instead of dying on the first assert.
    let skip_gates = std::env::var_os("BENCH_SERVE_SKIP_GATES").is_some();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fx = fixture(smoke);
    let budget = Budget::Deadline { ms: 1000 };
    let items: Vec<Arc<ItemTruth>> = fx
        .truth
        .items()
        .iter()
        .map(|i| Arc::new(i.clone()))
        .collect();

    let shards = 4usize;
    let workers_per_shard = 2usize;
    let max_batch = 8usize;
    let queue_capacity = 8usize;
    // 20 wall-clock µs per virtual execution ms: a batch's compressed
    // makespan (~1-2 virtual s) costs tens of wall ms, so queues genuinely
    // build, batches genuinely coalesce, and the overload point genuinely
    // sheds — while the whole sweep still finishes in seconds.
    let emu_scale = 2e-2;
    let affinity_top_k = 2usize;
    let affinity = RoutingMode::Affinity(AffinityConfig {
        top_k: affinity_top_k,
        spill_lag: 8,
    });

    let base_cfg = ServeConfig {
        shards,
        workers_per_shard,
        max_batch,
        queue_capacity,
        exec_emulation_scale: emu_scale,
        ..ServeConfig::default()
    };

    // ---- equivalence gate: serve stats == serial stats, losslessly ------
    // Routing (hash or affinity) changes where requests queue, never what
    // they compute: both modes must reproduce the serial engine exactly.
    let mut serial = StreamProcessor::new(fx.scheduler(), budget);
    serial.process_all(fx.truth.items());
    let want = serial.stats().clone();
    let mut tickets_issued = 0u64;
    for routing in [RoutingMode::Hash, affinity] {
        let server = AmsServer::start(
            fx.scheduler(),
            budget,
            ServeConfig {
                policy: BackpressurePolicy::Block,
                routing,
                exec_emulation_scale: 0.0,
                ..base_cfg.clone()
            },
        );
        let mut client = Ticketed::open(&server, items.len());
        for item in &items {
            client.submit(Arc::clone(item));
        }
        let eq_report = server.shutdown();
        tickets_issued += client.assert_exactly_once(&eq_report, "equivalence");
        let got = &eq_report.stats;
        let mode = eq_report.routing.as_str();
        assert_eq!(got.items, want.items, "{mode}: serve items diverged");
        assert_eq!(got.total_exec_ms, want.total_exec_ms, "{mode}");
        assert_eq!(got.total_executions, want.total_executions, "{mode}");
        assert_eq!(got.per_model_runs, want.per_model_runs, "{mode}");
        assert!((got.recall_sum - want.recall_sum).abs() < 1e-9, "{mode}");
    }
    eprintln!(
        "[bench_serve] equivalence: hash and affinity serve stats == serial stats over {} items",
        want.items
    );

    // ---- wire protocol: N forked clients over loopback ------------------
    // Lossless socket configuration: Block backpressure (the completion
    // window is the only flow control the clients see), no execution
    // emulation (labels and stats, not timing, are under test), and the
    // observability layer on so the event stream must reconcile through
    // the transport too.
    let net_cfg = ServeConfig {
        policy: BackpressurePolicy::Block,
        exec_emulation_scale: 0.0,
        obs: Some(ObsConfig::default()),
        ..base_cfg.clone()
    };
    let (reference_digest, ref_tickets) = reference_label_digest(&fx, budget, &net_cfg, &items);
    tickets_issued += ref_tickets;
    // Hand the children the exact item set through the value-tree
    // interchange codec (`encode_value`): the file is an encoded
    // `Vec<ItemTruth>`, bit-exact on floats, so every child labels the
    // very items the reference digest was computed on.
    let items_path = if smoke {
        "target/net_items.smoke.bin"
    } else {
        "target/net_items.bin"
    };
    {
        let owned: Vec<ItemTruth> = fx.truth.items().to_vec();
        let mut buf = Vec::new();
        encode_value(&owned.to_value(), &mut buf);
        std::fs::create_dir_all("target").expect("target dir");
        std::fs::write(items_path, &buf).unwrap_or_else(|e| panic!("write {items_path}: {e}"));
    }
    let net_window = 32usize;
    let mut net_points: Vec<NetPoint> = Vec::new();
    for procs in [1usize, 2, 4] {
        let (point, net_tickets) = run_net_point(
            &fx,
            budget,
            &net_cfg,
            &want,
            items_path,
            procs,
            net_window,
            reference_digest,
            skip_gates,
        );
        eprintln!(
            "[bench_serve] net {procs} proc(s): {:.0} items/s over loopback, labels {}",
            point.achieved_per_s,
            if point.labels_match {
                "byte-identical to in-process"
            } else {
                "DIVERGED"
            }
        );
        tickets_issued += net_tickets;
        net_points.push(point);
    }
    let net_sweep = NetSweep {
        window: net_window,
        stats_match_serial: net_points.iter().all(|p| p.stats_match_serial),
        exactly_once_ticketing: net_points.iter().all(|p| p.exactly_once),
        reference_digest: format!("{reference_digest:016x}"),
        points: net_points,
    };

    let mut sweep: Vec<LoadPoint> = Vec::new();

    // ---- closed loop: sustainable capacity ------------------------------
    let server = AmsServer::start(
        fx.scheduler(),
        budget,
        ServeConfig {
            policy: BackpressurePolicy::Block,
            ..base_cfg.clone()
        },
    );
    let mut client = Ticketed::open(&server, items.len());
    let t0 = Instant::now();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    let report = server.shutdown();
    let elapsed = t0.elapsed();
    tickets_issued += client.assert_exactly_once(&report, "closed loop");
    let capacity_per_s = report.completed as f64 / elapsed.as_secs_f64();
    let batching_saving = saving_fraction(&report);
    let closed_p99_us = report.total.p99_us;
    eprintln!(
        "[bench_serve] closed loop: {capacity_per_s:.0} items/s, batching saved {:.0}% of the virtual GPU bill",
        batching_saving * 100.0
    );
    sweep.push(point_from("closed", capacity_per_s, elapsed, &report));

    // ---- observability overhead: obs-off vs obs-on at capacity ----------
    // The same closed-loop fixture served with and without the live
    // observability layer (default `ObsConfig`: 5ms drains, full event
    // stream, registry, flight recorder). Best-of-N per mode to damp
    // scheduler noise; the recorded fraction is gated at ≤ 2% by
    // `gate.rs`, so a hot-path regression in the event emission shows up
    // as a gate failure, not a silent tax. The obs-on trials also
    // cross-check the event stream against the conservation ledger.
    // A single pass over the smoke fixture lasts ~50ms, within which two
    // identical runs differ by several percent on a shared machine — so
    // each trial submits the stream several times over to stretch the
    // measurement window, and the modes are interleaved (off, on, off,
    // on, …) so scheduler drift lands on both sides alike. Best-of is the
    // right fold for capacity: interference only ever slows a run down.
    let obs_trials = 8usize;
    let obs_passes = 6usize;
    let mut obs_best = [0.0f64; 2]; // [off, on]
    for _ in 0..obs_trials {
        for (mi, obs_on) in [false, true].into_iter().enumerate() {
            let server = AmsServer::start(
                fx.scheduler(),
                budget,
                ServeConfig {
                    policy: BackpressurePolicy::Block,
                    obs: obs_on.then(ObsConfig::default),
                    ..base_cfg.clone()
                },
            );
            let mut client = Ticketed::open(&server, items.len() * obs_passes);
            let t0 = Instant::now();
            for _ in 0..obs_passes {
                for item in &items {
                    client.submit(Arc::clone(item));
                }
            }
            let report = server.shutdown();
            let elapsed = t0.elapsed().max(Duration::from_micros(1));
            tickets_issued += client.assert_exactly_once(&report, "obs overhead");
            assert!(
                report.events_reconcile(),
                "obs overhead trial: event totals must reconcile with the ledger"
            );
            obs_best[mi] = obs_best[mi].max(report.completed as f64 / elapsed.as_secs_f64());
        }
    }
    let obs_overhead_fraction = (1.0 - obs_best[1] / obs_best[0].max(f64::MIN_POSITIVE)).max(0.0);
    eprintln!(
        "[bench_serve] observability overhead: {:.0}/s off vs {:.0}/s on \
         ({:.2}% of closed-loop capacity)",
        obs_best[0],
        obs_best[1],
        obs_overhead_fraction * 100.0
    );

    // ---- routing: hash vs affinity at 0.8x and 1.6x ---------------------
    // Burst arrivals (8 at a time) at a fixed aggregate rate, lossless
    // blocking admission. The routing runs use their own server shape —
    // one worker per shard, wide batches, deep queues, so batches
    // assemble from whatever accumulated during the previous batch's
    // execution, for both modes alike — and the load factors are taken
    // against *that shape's* measured capacity, so 0.8x genuinely has
    // slack and 1.6x genuinely saturates. The stream is submitted several
    // times over: a single pass of the smoke fixture yields only a
    // handful of batches per mode, few enough that scheduler jitter can
    // decide the hash-vs-affinity comparison — sustaining the load
    // averages `mean_coalesced` over enough batches to make the
    // coalescing win a property of the routing, not of one lucky batch.
    let routing_passes = 3usize;
    let routing_stream: Vec<Arc<ItemTruth>> = items
        .iter()
        .cycle()
        .take(items.len() * routing_passes)
        .cloned()
        .collect();
    let routing_cfg = |routing| ServeConfig {
        policy: BackpressurePolicy::Block,
        routing,
        workers_per_shard: 1,
        max_batch: 16,
        queue_capacity: 64,
        ..base_cfg.clone()
    };
    let server = AmsServer::start(fx.scheduler(), budget, routing_cfg(RoutingMode::Hash));
    let mut client = Ticketed::open(&server, items.len());
    let t0 = Instant::now();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    let cal = server.shutdown();
    let routing_capacity_per_s = cal.completed as f64 / t0.elapsed().as_secs_f64();
    tickets_issued += client.assert_exactly_once(&cal, "routing calibration");
    eprintln!(
        "[bench_serve] routing-shape closed-loop capacity: {routing_capacity_per_s:.0} items/s"
    );

    let mut routing_sweep: Vec<RoutingPoint> = Vec::new();
    for load_factor in [0.8f64, 1.6] {
        let rate = (routing_capacity_per_s * load_factor).max(1.0);
        let mut measured: Vec<(String, f64, f64)> = Vec::new();
        for routing in [RoutingMode::Hash, affinity] {
            let server = AmsServer::start(fx.scheduler(), budget, routing_cfg(routing));
            let mut client = Ticketed::open(&server, routing_stream.len());
            let t0 = Instant::now();
            submit_bursts(&mut client, &routing_stream, rate, 8);
            let report = server.shutdown();
            // Like every other load point: completions over the full span
            // including the drain, so achieved can never exceed offered on
            // a lossless run.
            let elapsed = t0.elapsed().max(Duration::from_micros(1));
            assert_eq!(
                report.completed as usize,
                routing_stream.len(),
                "lossless run"
            );
            tickets_issued += client.assert_exactly_once(&report, "routing sweep");
            let point = RoutingPoint {
                mode: report.routing.clone(),
                load_factor,
                offered_per_s: rate,
                achieved_per_s: report.completed as f64 / elapsed.as_secs_f64(),
                completed: report.completed,
                batches: report.batches,
                mean_batch_size: report.mean_batch_size(),
                mean_coalesced: report.mean_coalesced(),
                batching_saving_fraction: saving_fraction(&report),
                bill_saving_fraction: report.bill_saving_fraction(),
                affinity_hit_rate: report.affinity_hit_rate(),
                affinity_spills: report.affinity_spills,
                total_p50_us: report.total.p50_us,
                total_p99_us: report.total.p99_us,
            };
            eprintln!(
                "[bench_serve] routing {mode} @{load_factor}x: {coal:.2} executions/invocation, \
                 {saving:.1}% GPU bill saved, hit rate {hit:.0}%",
                mode = point.mode,
                coal = point.mean_coalesced,
                saving = point.bill_saving_fraction * 100.0,
                hit = point.affinity_hit_rate * 100.0,
            );
            measured.push((
                point.mode.clone(),
                point.mean_coalesced,
                point.bill_saving_fraction,
            ));
            routing_sweep.push(point);
        }
        // The acceptance gate: affinity must *strictly* out-coalesce hash
        // at this load, and the deeper coalescing must show up as a
        // strictly larger virtual-GPU saving.
        let hash = &measured[0];
        let aff = &measured[1];
        if !skip_gates {
            assert!(
                aff.1 > hash.1,
                "affinity must out-coalesce hash at {load_factor}x: {:.3} vs {:.3}",
                aff.1,
                hash.1
            );
            assert!(
                aff.2 > hash.2,
                "affinity must out-save hash at {load_factor}x: {:.4} vs {:.4}",
                aff.2,
                hash.2
            );
        }
    }

    // ---- adaptive batching: closed loop against a p99 target ------------
    // Self-calibrated target (1.25× the static batch-8 closed-loop p99, so
    // the number transfers across machines), start at the static limit,
    // ceiling at 2×: the controller grows throughput while the
    // BatchLatencyModel-bounded step keeps the predicted tail inside the
    // target. Last window on every shard must comply.
    let adaptive_cfg = AdaptiveBatchConfig {
        target_p99_ms: (closed_p99_us as f64 * 1.25 / 1000.0).ceil() as u64,
        min_batch: 2,
        max_batch: 2 * max_batch,
        window: 8,
        ..AdaptiveBatchConfig::default()
    };
    let server = AmsServer::start(
        fx.scheduler(),
        budget,
        ServeConfig {
            policy: BackpressurePolicy::Block,
            adaptive: Some(adaptive_cfg),
            ..base_cfg.clone()
        },
    );
    let mut client = Ticketed::open(&server, items.len());
    let t0 = Instant::now();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    let report = server.shutdown();
    let elapsed = t0.elapsed();
    tickets_issued += client.assert_exactly_once(&report, "adaptive sweep");
    let adaptive_report = report.adaptive.clone().expect("adaptive controller ran");
    let adaptive = AdaptiveSweep {
        target_p99_ms: adaptive_cfg.target_p99_ms,
        start_max_batch: max_batch,
        ceiling_max_batch: adaptive_cfg.max_batch,
        window: adaptive_cfg.window,
        achieved_per_s: report.completed as f64 / elapsed.as_secs_f64(),
        total_p99_us: report.total.p99_us,
        all_within_target: adaptive_report.all_within_target(),
        shards: adaptive_report.shards,
    };
    for s in &adaptive.shards {
        eprintln!(
            "[bench_serve] adaptive shard {}: {:?} -> {} (last window p99 {:.1}ms vs {}ms target)",
            s.shard,
            s.trajectory,
            s.final_max_batch,
            s.last_window_p99_us as f64 / 1000.0,
            adaptive.target_p99_ms
        );
    }
    if !skip_gates {
        assert!(
            adaptive.all_within_target,
            "adaptive controller must keep every shard's last-window p99 within {}ms",
            adaptive.target_p99_ms
        );
    }

    // ---- SLO: blind vs value-aware shedding at 1.6x burst ---------------
    // Same server shape, same offered stream (bursts of 8 at 1.6x the
    // closed-loop capacity, classes alternating per request), ShedOldest
    // backpressure: the only difference between the two runs is *which*
    // requests get dropped and *when*. Blind mode drops queue heads and
    // lets doomed requests occupy slots until the deadline check at
    // dequeue; aware mode prices admission with the workers' amortized
    // batch time, evicts the worst value-per-remaining-deadline victim,
    // and serves earliest-deadline-first. The gate: aware must strictly
    // reduce the value-weighted shed loss and must not worsen the
    // deadline-met rate, with the exactly-once ledger intact in both.
    // The SLO runs use their own shape — one worker per shard and a
    // deeper queue, so the 1.6x burst genuinely saturates the workers and
    // queue waits genuinely threaten the interactive deadline — and the
    // load factor is taken against *that shape's* measured capacity. The
    // stream is submitted several times over, because shedding economics
    // only exist under *sustained* overload: a single short burst fits in
    // the queues and drains losslessly, leaving both modes nothing to
    // decide. Smoke's shorter stream takes more passes to accumulate
    // stable shedding statistics; the whole sustained run is still
    // sub-second.
    let slo_passes = if smoke { 5 } else { 3 };
    let slo_cfg = |policy, slo| ServeConfig {
        policy,
        workers_per_shard: 1,
        queue_capacity: 12,
        slo,
        ..base_cfg.clone()
    };
    // Lossless closed-loop calibration of the shape's sustainable rate.
    let server = AmsServer::start(
        fx.scheduler(),
        budget,
        slo_cfg(BackpressurePolicy::Block, None),
    );
    let mut client = Ticketed::open(&server, items.len());
    let t0 = Instant::now();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    let cal = server.shutdown();
    let slo_capacity_per_s = cal.completed as f64 / t0.elapsed().as_secs_f64();
    tickets_issued += client.assert_exactly_once(&cal, "slo calibration");
    eprintln!("[bench_serve] slo-shape closed-loop capacity: {slo_capacity_per_s:.0} items/s");

    // Self-calibrated class deadlines, so the numbers transfer across
    // machines and fixture sizes: one batch's execute span ≈ max_batch ×
    // the measured per-item service time (shards ÷ capacity). The
    // interactive deadline sits at 1.8 batch spans — *between* the
    // EDF-served total (~1.5 spans: half an in-flight batch plus its own
    // execute) and the FIFO total through a full queue (~2.5+ spans) —
    // so earliest-deadline scheduling genuinely decides who makes it.
    // Bulk, at 10 spans, tolerates the backlog but not abandonment.
    let per_item_ms = 1000.0 * shards as f64 / slo_capacity_per_s.max(1.0);
    let batch_span_ms = per_item_ms * max_batch as f64;
    let slo_classes = vec![
        SloClass::new("interactive", (1.8 * batch_span_ms).ceil() as u64, 4.0),
        SloClass::new("bulk", (10.0 * batch_span_ms).ceil() as u64, 1.0),
    ];
    eprintln!(
        "[bench_serve] slo deadlines: interactive {}ms, bulk {}ms (batch span {batch_span_ms:.1}ms)",
        slo_classes[0].deadline_ms, slo_classes[1].deadline_ms
    );

    let slo_load_factor = 1.6f64;
    let slo_burst = 8usize;
    let slo_rate = (slo_capacity_per_s * slo_load_factor).max(1.0);
    let mut slo_points: Vec<SloPoint> = Vec::new();
    for aware in [false, true] {
        let slo = if aware {
            SloConfig::aware(slo_classes.clone())
        } else {
            SloConfig::blind(slo_classes.clone())
        };
        let server = AmsServer::start(
            fx.scheduler(),
            budget,
            slo_cfg(BackpressurePolicy::ShedOldest, Some(slo)),
        );
        let mut client = Ticketed::open(&server, items.len() * slo_passes);
        let t0 = Instant::now();
        let mut offered = 0usize;
        for _ in 0..slo_passes {
            for chunk in items.chunks(slo_burst) {
                let due = t0 + Duration::from_secs_f64(offered as f64 / slo_rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                for item in chunk {
                    client.submit_class(Arc::clone(item), offered % 2);
                    offered += 1;
                }
            }
        }
        let report = server.shutdown();
        tickets_issued += client.assert_exactly_once(&report, "slo sweep");
        let s = report.slo.as_ref().expect("slo ledger present");
        let conserved = report.is_conserved() && s.is_conserved();
        assert!(
            conserved,
            "SLO {} run must conserve requests",
            if aware { "aware" } else { "blind" }
        );
        let point = SloPoint {
            mode: if aware { "aware" } else { "blind" }.into(),
            completed: report.completed,
            rejected: report.rejected,
            shed_admission: report.shed_admission,
            shed_oldest: report.shed_oldest,
            shed_deadline: report.shed_deadline,
            value_offered: s.classes.iter().map(|c| c.value_offered).sum(),
            value_completed: s.value_completed(),
            value_late: s.value_late(),
            value_shed_loss: s.value_shed_loss(),
            deadline_met_rate: s.deadline_met_rate(),
            conserved,
            classes: s.classes.clone(),
        };
        eprintln!(
            "[bench_serve] slo {mode} @{slo_load_factor}x: value shed loss {loss:.1} \
             (banked {banked:.1}, late {late:.1}), deadline met {met:.1}%, \
             sheds adm/old/dead = {}/{}/{}",
            point.shed_admission,
            point.shed_oldest,
            point.shed_deadline,
            mode = point.mode,
            loss = point.value_shed_loss,
            banked = point.value_completed,
            late = point.value_late,
            met = point.deadline_met_rate * 100.0,
        );
        slo_points.push(point);
    }
    let aware_pt = slo_points.pop().expect("aware point");
    let blind_pt = slo_points.pop().expect("blind point");
    if !skip_gates {
        assert!(
            aware_pt.value_shed_loss < blind_pt.value_shed_loss,
            "SLO-aware shedding must strictly reduce the value-weighted shed loss \
             at {slo_load_factor}x: {:.2} vs {:.2}",
            aware_pt.value_shed_loss,
            blind_pt.value_shed_loss
        );
        assert!(
            aware_pt.deadline_met_rate >= blind_pt.deadline_met_rate,
            "SLO-aware shedding must not worsen the deadline-met rate \
             at {slo_load_factor}x: {:.4} vs {:.4}",
            aware_pt.deadline_met_rate,
            blind_pt.deadline_met_rate
        );
    }
    let slo_sweep = SloSweep {
        load_factor: slo_load_factor,
        burst: slo_burst,
        passes: slo_passes,
        offered_per_s: slo_rate,
        classes: slo_classes,
        blind: blind_pt,
        aware: aware_pt,
    };

    // ---- label cache: Zipf-repetition sweep, cache-off vs cache-on ------
    // The same deterministic sequence is served twice per repeat rate:
    // once without the cache (every submission executes) and once with it
    // (repeats are answered as exact hits or coalesce onto the in-flight
    // leader). Closed-loop blocking admission, so the measured elapsed
    // time is the server's — the capacity gain is dedup, not pacing. At
    // repeat 0 the sequence is exactly the fixture stream once, which
    // doubles as the cache-no-op equivalence gate: a unique stream must
    // produce zero hits and the serial engine's exact stats.
    let mut zipf_sweep: Vec<ZipfPoint> = Vec::new();
    for (zi, repeat_rate) in [0.0f64, 0.3, 0.6, 0.9].into_iter().enumerate() {
        let (stream, distinct) = zipf_stream(&items, items.len(), repeat_rate, 0xA31 + zi as u64);
        let mut measured: Vec<(ServeReport, f64)> = Vec::new();
        for cache_on in [false, true] {
            let server = AmsServer::start(
                fx.scheduler(),
                budget,
                ServeConfig {
                    policy: BackpressurePolicy::Block,
                    cache: cache_on.then(CacheConfig::default),
                    ..base_cfg.clone()
                },
            );
            let mut client = Ticketed::open(&server, stream.len());
            let t0 = Instant::now();
            for item in &stream {
                client.submit(Arc::clone(item));
            }
            let report = server.shutdown();
            let elapsed = t0.elapsed().max(Duration::from_micros(1));
            tickets_issued += client.assert_exactly_once(&report, "zipf sweep");
            assert!(
                report.is_conserved(),
                "zipf @{repeat_rate} cache_on={cache_on}: conservation"
            );
            let capacity = report.offered as f64 / elapsed.as_secs_f64();
            measured.push((report, capacity));
        }
        let (on, capacity_on) = measured.pop().expect("cache-on run");
        let (off, capacity_off) = measured.pop().expect("cache-off run");
        assert_eq!(off.cache_hit + off.coalesced, 0, "cache-off never caches");
        if !skip_gates && repeat_rate == 0.0 {
            // Unique stream: the cache must be invisible — no hits, no
            // coalescing, and byte-for-byte the serial engine's stats
            // (the serve==serial equivalence holds with the cache on).
            assert_eq!(on.cache_hit + on.coalesced, 0, "unique stream: no-op");
            assert_eq!(on.completed, off.completed, "repeat 0: same completions");
            assert_eq!(on.stats.items, want.items, "repeat 0: serial items");
            assert_eq!(on.stats.total_exec_ms, want.total_exec_ms, "repeat 0");
            assert_eq!(on.stats.total_executions, want.total_executions, "repeat 0");
            assert_eq!(on.stats.per_model_runs, want.per_model_runs, "repeat 0");
            assert!((on.stats.recall_sum - want.recall_sum).abs() < 1e-9);
        }
        let point = ZipfPoint {
            repeat_rate,
            submissions: stream.len() as u64,
            distinct,
            cache_hit: on.cache_hit,
            coalesced: on.coalesced,
            cache_hit_rate: on.cache_hit_rate(),
            bill_on_ms: on.virtual_work_ms,
            bill_off_ms: off.virtual_work_ms,
            bill_saving_fraction: 1.0
                - on.virtual_work_ms as f64 / off.virtual_work_ms.max(1) as f64,
            capacity_on_per_s: capacity_on,
            capacity_off_per_s: capacity_off,
            capacity_gain: capacity_on / capacity_off.max(f64::MIN_POSITIVE),
            conserved: on.is_conserved() && off.is_conserved(),
        };
        eprintln!(
            "[bench_serve] zipf repeat {repeat_rate}: hit rate {hit:.0}%, bill {bon}ms vs {boff}ms \
             ({saving:.0}% saved), capacity {con:.0}/s vs {coff:.0}/s",
            hit = point.cache_hit_rate * 100.0,
            bon = point.bill_on_ms,
            boff = point.bill_off_ms,
            saving = point.bill_saving_fraction * 100.0,
            con = point.capacity_on_per_s,
            coff = point.capacity_off_per_s,
        );
        if !skip_gates {
            if repeat_rate >= 0.6 {
                assert!(
                    point.bill_on_ms < point.bill_off_ms,
                    "zipf @{repeat_rate}: cache-on must strictly undercut cache-off's bill: \
                     {} vs {}",
                    point.bill_on_ms,
                    point.bill_off_ms
                );
            }
            if let Some(prev) = zipf_sweep.last() {
                assert!(
                    point.bill_saving_fraction > prev.bill_saving_fraction,
                    "bill saving must strictly increase with the repeat rate: \
                     {:.4} @{} vs {:.4} @{}",
                    point.bill_saving_fraction,
                    point.repeat_rate,
                    prev.bill_saving_fraction,
                    prev.repeat_rate
                );
                assert!(
                    point.capacity_on_per_s > prev.capacity_on_per_s,
                    "effective capacity must strictly increase with the repeat rate: \
                     {:.0}/s @{} vs {:.0}/s @{}",
                    point.capacity_on_per_s,
                    point.repeat_rate,
                    prev.capacity_on_per_s,
                    prev.repeat_rate
                );
            }
        }
        zipf_sweep.push(point);
    }

    // ---- drift: online adaptation under a mid-stream mixture shift ------
    // A two-phase stream: the fixture's items first, then several passes
    // over a disjoint dataset profile the boot agent never trained on.
    // The boot agent is deliberately undertrained (2 episodes), so its
    // value ranking is poor everywhere and the online trainer has
    // headroom; the mixture shift makes the comparison about *live*
    // traffic — everything the trainer learns, it learns from served
    // outcomes, and it must cash the learning in before the stream ends.
    // Served twice with identical configs except `adapt`:
    // * frozen — `adapt: None`; must reproduce the serial engine
    //   byte-for-byte over the same drifted stream (the adaptation
    //   subsystem's off-switch is a true no-op);
    // * adaptive — the background trainer taps every outcome, learns, and
    //   hot-swaps generations into the predict path mid-stream.
    // The gate: the adaptive run must bank strictly more realized label
    // value after the shift (per-phase value summed client-side from each
    // ticket's completion), with swaps > 0, zero experience drops, and
    // conservation + event reconciliation in both modes. Execution
    // emulation stretches serving over wall time so swaps land *during*
    // the stream, not after it.
    let drift_boot_episodes = 2usize;
    let drift_phase2_passes = 4usize;
    let drift_phase2_distinct = if smoke { 32 } else { 80 };
    let drift_boot = {
        let cfg = TrainConfig {
            episodes: drift_boot_episodes,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        train(fx.truth.items(), ModelZoo::standard().len(), &cfg).0
    };
    let phase2_truth = {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Places365, drift_phase2_distinct, 0xD21F7);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    };
    let phase2_stream: Vec<Arc<ItemTruth>> = phase2_truth
        .items()
        .iter()
        .cycle()
        .take(drift_phase2_distinct * drift_phase2_passes)
        .map(|i| Arc::new(i.clone()))
        .collect();
    let drift_total = items.len() + phase2_stream.len();
    // Both serve modes and the serial reference predict from the same
    // generation-0 snapshot of the boot agent — the exact predictor the
    // adaptive path serves until its first swap.
    let drift_scheduler = || {
        AdaptiveModelScheduler::new(
            ModelZoo::standard(),
            Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
                drift_boot.clone(),
            )))),
            0.5,
            fx.world_seed,
        )
    };
    let want_drift = {
        let serial_stream: Vec<ItemTruth> = fx
            .truth
            .items()
            .iter()
            .cloned()
            .chain(phase2_stream.iter().map(|i| (**i).clone()))
            .collect();
        let mut serial = StreamProcessor::new(drift_scheduler(), budget);
        serial.process_all(&serial_stream);
        serial.stats().clone()
    };
    let drift_cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        obs: Some(ObsConfig::default()),
        exec_emulation_scale: 2e-3,
        ..ServeConfig::default()
    };
    let mut drift_points: Vec<DriftPoint> = Vec::new();
    let mut frozen_matches_serial = true;
    for adaptive_on in [false, true] {
        let mode = if adaptive_on { "adaptive" } else { "frozen" };
        let adapt = adaptive_on.then(|| AdaptConfig {
            channel_capacity: 8192,
            online: OnlineConfig {
                warmup: 32,
                batch: 16,
                seed: 0xAD47,
                ..OnlineConfig::default()
            },
            steps_per_outcome: 4,
            swap_every: 8,
            agent: drift_boot.clone(),
        });
        let server = AmsServer::start(
            drift_scheduler(),
            budget,
            ServeConfig {
                adapt,
                ..drift_cfg.clone()
            },
        );
        let client = server.client_with_capacity(drift_total + 16);
        let mut is_phase2 = HashMap::new();
        for item in &items {
            let t = client
                .submit(Arc::clone(item))
                .ticket()
                .expect("lossless drift config accepts every submission");
            is_phase2.insert(t.id(), false);
        }
        for item in &phase2_stream {
            let t = client
                .submit(Arc::clone(item))
                .ticket()
                .expect("lossless drift config accepts every submission");
            is_phase2.insert(t.id(), true);
        }
        let report = server.shutdown();
        tickets_issued += report.offered;
        assert!(report.is_conserved(), "drift {mode}: conservation");
        let events = client.drain();
        assert_eq!(
            events.len(),
            drift_total,
            "drift {mode}: every ticket delivers exactly one terminal event"
        );
        let (mut phase1_value, mut phase2_value) = (0.0f64, 0.0f64);
        for ev in events {
            let Completion::Labeled(r) = ev else {
                panic!("drift {mode}: lossless run labels everything");
            };
            if is_phase2[&r.ticket] {
                phase2_value += r.label_value;
            } else {
                phase1_value += r.label_value;
            }
        }
        if !adaptive_on {
            frozen_matches_serial = report.stats.items == want_drift.items
                && report.stats.total_exec_ms == want_drift.total_exec_ms
                && report.stats.total_executions == want_drift.total_executions
                && report.stats.per_model_runs == want_drift.per_model_runs
                && (report.stats.recall_sum - want_drift.recall_sum).abs() < 1e-9
                && (report.stats.value_sum - want_drift.value_sum).abs() < 1e-9;
        }
        let a = report.adapt.as_ref();
        let point = DriftPoint {
            mode: mode.into(),
            completed: report.completed,
            phase1_value,
            phase2_value,
            value_sum: report.stats.value_sum,
            mean_recall: report.stats.mean_recall(),
            swaps: a.map_or(0, |a| a.swaps),
            learn_steps: a.map_or(0, |a| a.learn_steps),
            experiences: a.map_or(0, |a| a.experiences),
            experiences_dropped: a.map_or(0, |a| a.experiences_dropped),
            conserved: report.is_conserved(),
            events_reconciled: report.events_reconcile(),
        };
        eprintln!(
            "[bench_serve] drift {mode}: phase-2 value {p2:.1} (phase-1 {p1:.1}), \
             {swaps} swap(s), {steps} learn step(s)",
            p2 = point.phase2_value,
            p1 = point.phase1_value,
            swaps = point.swaps,
            steps = point.learn_steps,
        );
        drift_points.push(point);
    }
    let drift_adaptive = drift_points.pop().expect("adaptive drift point");
    let drift_frozen = drift_points.pop().expect("frozen drift point");
    if !skip_gates {
        assert!(
            frozen_matches_serial,
            "drift frozen run must equal the serial engine byte-for-byte \
             (adapt: None is a true no-op)"
        );
        assert!(
            drift_frozen.events_reconciled && drift_adaptive.events_reconciled,
            "drift runs must reconcile events with the ledger"
        );
        assert!(
            drift_adaptive.swaps > 0,
            "the trainer must publish generations mid-stream: {drift_adaptive:?}"
        );
        assert_eq!(
            drift_adaptive.experiences, drift_total as u64,
            "every served outcome must cross the experience channel"
        );
        assert_eq!(
            drift_adaptive.experiences_dropped, 0,
            "8192-deep channel must absorb the whole stream"
        );
        assert!(
            drift_adaptive.phase2_value > drift_frozen.phase2_value,
            "online adaptation must bank strictly more post-shift value: \
             adaptive {:.2} vs frozen {:.2}",
            drift_adaptive.phase2_value,
            drift_frozen.phase2_value
        );
    }
    let drift_sweep = DriftSweep {
        phase1_profile: "Coco2017".into(),
        phase2_profile: "Places365".into(),
        phase1_submissions: items.len() as u64,
        phase2_submissions: phase2_stream.len() as u64,
        phase2_passes: drift_phase2_passes,
        boot_episodes: drift_boot_episodes,
        frozen_matches_serial,
        phase2_value_gain: drift_adaptive.phase2_value
            / drift_frozen.phase2_value.max(f64::MIN_POSITIVE),
        frozen: drift_frozen,
        adaptive: drift_adaptive,
    };
    eprintln!(
        "[bench_serve] drift: adaptive banked {:.2}x the frozen post-shift value \
         over {} phase-2 submissions",
        drift_sweep.phase2_value_gain, drift_sweep.phase2_submissions
    );

    // ---- open loop: under, near, and past saturation --------------------
    for load_factor in [0.4f64, 0.8, 1.6] {
        let rate = (capacity_per_s * load_factor).max(1.0);
        let server = AmsServer::start(
            fx.scheduler(),
            budget,
            ServeConfig {
                policy: BackpressurePolicy::ShedOldest,
                // Stale requests are worthless to a live feed: shed at
                // dequeue anything that queued longer than 100ms.
                request_timeout_ms: Some(100),
                ..base_cfg.clone()
            },
        );
        let mut client = Ticketed::open(&server, items.len());
        let t0 = Instant::now();
        for (i, item) in items.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            client.submit(Arc::clone(item));
        }
        let report = server.shutdown();
        let elapsed = t0.elapsed();
        tickets_issued += client.assert_exactly_once(&report, "open loop");
        eprintln!(
            "[bench_serve] open loop {load_factor}x: offered {rate:.0}/s, achieved {:.0}/s, shed {:.1}%, total p99 {:.1}ms",
            report.completed as f64 / elapsed.as_secs_f64(),
            report.shed_rate() * 100.0,
            report.total.p99_us as f64 / 1000.0
        );
        sweep.push(point_from("open", rate, elapsed, &report));
    }

    let record = Record {
        description: "AMS serving benchmark: sharded front-end (bounded queues, per-shard \
                      workers, batched admission into the virtual GPU pool) driven closed-loop \
                      at capacity and open-loop under/near/past saturation; hash vs \
                      model-affinity routing compared at 0.8x/1.6x burst load; adaptive \
                      batch-limit controller closed-loop against a self-calibrated p99 target; \
                      the content-addressed label cache swept over Zipf repeat rates, cache-on \
                      vs cache-off; the TCP front-end driven by 1/2/4 forked loopback client \
                      processes with byte-identical-label and serial-equivalence gates; online \
                      adaptation (ams-serve::adapt) under a mid-stream mixture shift, frozen vs \
                      adaptive, gated on post-shift realized value. \
                      DRL-agent predictor, 1s per-item deadline. See PERF.md for methodology."
            .into(),
        cores_available: cores,
        smoke,
        items: items.len(),
        shards,
        workers_per_shard,
        max_batch,
        queue_capacity,
        exec_emulation_scale: emu_scale,
        stats_match_serial: true,
        tickets_issued,
        exactly_once_ticketing: true,
        closed_loop_capacity_per_s: capacity_per_s,
        batching_saving_fraction: batching_saving,
        obs_overhead_fraction,
        affinity_top_k,
        routing_sweep,
        adaptive,
        slo_sweep,
        zipf_sweep,
        drift_sweep,
        net_sweep,
        sweep,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    // Smoke runs are a CI gate, not a measurement: don't clobber the
    // committed full-run record.
    let path = if smoke {
        "target/BENCH_serve.smoke.json"
    } else {
        "BENCH_serve.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");
}
