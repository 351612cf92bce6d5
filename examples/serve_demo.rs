//! Serving demo: run the labeling engine as a continuous service — the
//! deployment shape of the paper's motivating applications — with sharded
//! admission queues, batched execution, and latency telemetry.
//!
//! A burst of album photos is submitted to an [`AmsServer`] nine times:
//! once with a lossless blocking configuration, once with a tiny queue and
//! a shed-oldest policy under a per-ticket deadline (graceful degradation
//! under overload), once with model-affinity routing plus the adaptive
//! batch-limit controller — the configuration that coalesces same-model
//! batches deliberately and retunes `max_batch` against a tail-latency
//! target — once with SLO classes (deadline + value weight per request),
//! where admission control, value-weighted eviction, and EDF dequeue make
//! the *shedding* deliberate as well — and once through the
//! request/response **client API**: every submission returns a cancellable
//! completion ticket, each request's own labels come back as a `Labeled`
//! event on the client's completion queue, and a cancelled straggler
//! resolves to exactly one `Cancelled` event instead of wasting a worker —
//! and finally once with the **content-addressed label cache**, where a
//! repetitive stream is deduplicated: exact repeats answer before
//! admission with zero GPU bill, in-flight duplicates coalesce onto one
//! execution, and a cancelled leader's followers are fed by a ghost run —
//! and once more with the **live observability layer** on: periodic
//! metrics snapshots taken *while the overload runs*, a Prometheus
//! scrape, and a flight-recorder post-mortem for a deadline casualty,
//! with the event stream reconciling against the conservation ledger —
//! and lastly **over the wire**: a loopback [`NetServer`] serving two
//! separate OS processes, each a [`NetClient`] on one persistent
//! connection whose completion window is the only flow control, one of
//! them attaching a per-ticket deadline that travels the frames and is
//! enforced server-side — and ninth, the loop **closes**: the workload
//! drifts mid-stream to a dataset profile the boot agent never trained
//! on, and the background trainer (`ams-serve::adapt`) learns from
//! served outcomes and hot-swaps updated weights into the predict path
//! while the stream runs, banking measurably more post-shift label value
//! than the same server frozen.
//!
//! Run with: `cargo run --release --example serve_demo [-- --smoke]`
//! (`--smoke` shrinks the dataset and training so CI can exercise the
//! whole public serving surface in seconds).

use ams::prelude::*;
use std::sync::Arc;

/// Hidden child mode for scenario 8 (`serve_demo net-client <addr>
/// <album-size> <start> <stride> <deadline-us>`): a separate OS process
/// that rebuilds the deterministic album, connects a [`NetClient`] to the
/// parent's loopback listener, submits its strided half (attaching a
/// per-ticket deadline when asked), pumps the completion window, and
/// prints a one-line summary the parent's output interleaves with.
fn net_client_child(args: &[String]) {
    let addr = args[0].as_str();
    let album_size: usize = args[1].parse().expect("album size");
    let start: usize = args[2].parse().expect("start");
    let stride: usize = args[3].parse().expect("stride");
    let deadline_us: u64 = args[4].parse().expect("deadline");
    let zoo = ModelZoo::standard();
    let album = Dataset::generate(DatasetProfile::Coco2017, album_size, 11);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &album, 0.5);

    let client = NetClient::connect_with_window(addr, 8).expect("connect to parent listener");
    let mut events = Vec::new();
    let mut submitted = 0u64;
    for item in truth.items().iter().skip(start).step_by(stride.max(1)) {
        // A full completion window is the wire's flow control: the client
        // must read a completion before the protocol lets it submit more.
        while client.outstanding() >= client.capacity() {
            events.push(
                client
                    .recv()
                    .expect("recv completion")
                    .expect("window full implies outstanding completions"),
            );
        }
        let opts = if deadline_us > 0 {
            SubmitOptions::default().deadline_us(deadline_us)
        } else {
            SubmitOptions::default()
        };
        client
            .submit_with(Arc::new(item.clone()), opts)
            .expect("submit over the wire");
        submitted += 1;
    }
    events.extend(client.drain().expect("drain completions"));
    let (mut labeled, mut shed, mut other) = (0u64, 0u64, 0u64);
    for ev in &events {
        match ev.completion() {
            Some(Completion::Labeled(_)) => labeled += 1,
            Some(Completion::Shed { .. }) => shed += 1,
            _ => other += 1,
        }
    }
    client.goodbye().expect("goodbye");
    let tag = if deadline_us > 0 { "deadline" } else { "plain" };
    println!(
        "  [child {tag}] {submitted} submitted over the wire -> {labeled} labeled, {shed} shed, {other} other"
    );
    assert_eq!(
        events.len() as u64,
        submitted,
        "every wire request resolves exactly once"
    );
}

fn scheduler(agent: TrainedAgent, world_seed: u64) -> AdaptiveModelScheduler {
    AdaptiveModelScheduler::new(
        ModelZoo::standard(),
        Box::new(AgentPredictor::new(agent)),
        0.5,
        world_seed,
    )
}

fn print_report(tag: &str, r: &ServeReport) {
    println!("--- {tag} ---");
    println!(
        "  {} offered | {} completed | {} rejected | {} shed-oldest | {} shed-deadline ({:.0}% shed)",
        r.offered,
        r.completed,
        r.rejected,
        r.shed_oldest,
        r.shed_deadline,
        r.shed_rate() * 100.0
    );
    println!(
        "  latency: queue-wait p50 {:.1}ms p99 {:.1}ms | execute p50 {:.1}ms p99 {:.1}ms | total p99 {:.1}ms",
        r.queue_wait.p50_us as f64 / 1000.0,
        r.queue_wait.p99_us as f64 / 1000.0,
        r.execute.p50_us as f64 / 1000.0,
        r.execute.p99_us as f64 / 1000.0,
        r.total.p99_us as f64 / 1000.0,
    );
    println!(
        "  batches: {} (largest {}), virtual pool busy {:.1}s vs serial bill {:.1}s ({:.0}% saved by batching)",
        r.batches,
        r.max_batch_observed,
        r.virtual_exec_ms as f64 / 1000.0,
        r.stats.total_exec_ms as f64 / 1000.0,
        (1.0 - r.virtual_exec_ms as f64 / r.stats.total_exec_ms.max(1) as f64) * 100.0,
    );
    println!(
        "  labels: mean recall {:.1}% over {} items, {:.1} models/item",
        r.stats.mean_recall() * 100.0,
        r.stats.items,
        r.stats.mean_models()
    );
    if r.routing == "affinity" {
        println!(
            "  routing: affinity hit rate {:.0}% ({} hits, {} spills), {:.2} executions coalesced per model invocation",
            r.affinity_hit_rate() * 100.0,
            r.affinity_hits,
            r.affinity_spills,
            r.mean_coalesced(),
        );
    }
    if let Some(a) = &r.adaptive {
        for s in &a.shards {
            println!(
                "  adaptive shard {}: max_batch -> {} after {} adjustments (last window p99 {:.1}ms vs {}ms target, {})",
                s.shard,
                s.final_max_batch,
                s.adjustments,
                s.last_window_p99_us as f64 / 1000.0,
                a.target_p99_ms,
                if s.within_target { "within target" } else { "missed" },
            );
        }
    }
    if let Some(slo) = &r.slo {
        println!(
            "  slo: {:.1} value banked / {:.1} lost ({:.1} of it late), deadline met {:.0}%",
            slo.value_completed(),
            slo.value_shed_loss(),
            slo.value_late(),
            slo.deadline_met_rate() * 100.0,
        );
        for c in &slo.classes {
            println!(
                "    class {:<12} ({:>4}ms, weight {}): {} offered, {} met, sheds adm/old/dead = {}/{}/{}, p99 {:.1}ms",
                c.name,
                c.deadline_ms,
                c.weight,
                c.offered,
                c.deadline_met,
                c.shed_admission,
                c.shed_oldest,
                c.shed_deadline,
                c.total.p99_us as f64 / 1000.0,
            );
        }
    }
}

fn main() {
    // Scenario 8's child processes re-exec this binary with a hidden
    // subcommand; they never train or serve, just speak the wire.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("net-client") {
        net_client_child(&argv[2..]);
        return;
    }
    // `--smoke` keeps CI runs in seconds: a smaller album and a shorter
    // training run, same code paths end to end.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (album_size, episodes) = if smoke { (48, 8) } else { (240, 120) };
    // Album-indexing content plus a quickly trained value predictor.
    let zoo = ModelZoo::standard();
    let album = Dataset::generate(DatasetProfile::Coco2017, album_size, 11);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &album, 0.5);
    let cfg = TrainConfig {
        episodes,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(truth.items(), zoo.len(), &cfg);
    let budget = Budget::Deadline { ms: 1000 };
    let items: Vec<Arc<ItemTruth>> = truth.items().iter().map(|i| Arc::new(i.clone())).collect();

    // The two small shapes several scenarios below share: a lossless 2x1
    // server, and the same server overloaded — shallow shed-oldest queues
    // under two deadline classes.
    let lossless = ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        exec_emulation_scale: 5e-3,
        ..ServeConfig::default()
    };
    let overloaded = ServeConfig {
        queue_capacity: 8,
        policy: BackpressurePolicy::ShedOldest,
        slo: Some(SloConfig::aware(vec![
            SloClass::new("alert", 40, 4.0),
            SloClass::new("archive", 400, 1.0),
        ])),
        ..lossless.clone()
    };

    // 1) Lossless ingestion: blocking backpressure, everything is labeled.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 8,
            policy: BackpressurePolicy::Block,
            exec_emulation_scale: 1e-3,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    print_report("lossless album ingestion (block)", &server.shutdown());

    // 2) Overloaded surveillance shape: shallow queues, freshest-first
    //    shedding, and a hard staleness deadline per frame.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 4,
            max_batch: 4,
            policy: BackpressurePolicy::ShedOldest,
            exec_emulation_scale: 5e-3,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let stale_after = SubmitOptions::default().deadline_us(50_000);
    for item in &items {
        client.submit_with(Arc::clone(item), stale_after);
    }
    print_report(
        "overloaded surveillance feed (shed-oldest + 50ms deadline)",
        &server.shutdown(),
    );

    // 3) Affinity routing + adaptive batching: requests predicted to run
    //    the same models coalesce on the same shard, and each shard's
    //    batch limit is retuned online against a 60ms p99 target.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 8,
            policy: BackpressurePolicy::Block,
            routing: RoutingMode::Affinity(AffinityConfig::default()),
            adaptive: Some(AdaptiveBatchConfig {
                target_p99_ms: 60,
                max_batch: 16,
                ..AdaptiveBatchConfig::default()
            }),
            exec_emulation_scale: 1e-3,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    for item in &items {
        client.submit(Arc::clone(item));
    }
    print_report(
        "affinity routing + adaptive batching (60ms p99 target)",
        &server.shutdown(),
    );

    // 4) SLO-aware shedding: two request classes — urgent high-value
    //    "alerts" and lax "archive" backfill — on an overloaded server.
    //    Admission control refuses provably doomed requests before they
    //    occupy a slot, overflow evicts the worst value-per-remaining-
    //    deadline victim, and EDF dequeue serves the clock-racing class
    //    first. Compare the per-class ledger with scenario 2, which shed
    //    blind.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        overloaded.clone(),
    );
    // Paced at roughly twice what the two workers sustain: a genuine
    // overload, not an instantaneous flood.
    let client = server.client();
    for (i, item) in items.iter().enumerate() {
        if i % 8 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        client.submit_class(Arc::clone(item), i % 2);
    }
    print_report(
        "slo-aware overload (40ms alerts + 400ms archive, value-weighted shedding)",
        &server.shutdown(),
    );

    // 5) The request/response client API: per-request label retrieval.
    //    Every submission returns a cancellable ticket; each request's own
    //    labels arrive as a Labeled completion event (what the aggregate
    //    report folds away), and a cancelled straggler resolves to exactly
    //    one Cancelled event — the worker never wastes a batch slot on it.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        lossless.clone(),
    );
    let client = server.client();
    let take = items.len().min(24);
    let mut tickets = Vec::new();
    for item in items.iter().take(take) {
        if let Some(ticket) = client.submit(Arc::clone(item)).ticket() {
            tickets.push(ticket);
        }
    }
    // The last submission is a straggler the caller no longer wants —
    // cancel it while the workers are still chewing through the backlog.
    let straggler = tickets.last().expect("submitted at least one");
    let cancel_won = straggler.cancel();
    println!("--- client API (per-request retrieval) ---");
    let mut labeled = 0u64;
    let mut cancelled = 0u64;
    let mut first_labels: Option<(u64, usize, f64, u64)> = None;
    while let Some(event) = client.recv() {
        match event {
            Completion::Labeled(result) => {
                labeled += 1;
                first_labels.get_or_insert((
                    result.ticket,
                    result.labels.len(),
                    result.recall,
                    result.queue_wait_us + result.execute_us,
                ));
            }
            Completion::Cancelled { ticket, .. } => {
                cancelled += 1;
                println!("  ticket {ticket} cancelled before a worker claimed it");
            }
            Completion::Shed { ticket, reason, .. } => {
                println!("  ticket {ticket} shed ({})", reason.name());
            }
        }
    }
    let report = server.shutdown();
    if let Some((ticket, labels, recall, total_us)) = first_labels {
        println!(
            "  ticket {ticket}: {labels} labels at {:.0}% recall, {:.1}ms wait+execute",
            recall * 100.0,
            total_us as f64 / 1000.0,
        );
    }
    println!(
        "  {take} tickets -> {labeled} labeled + {cancelled} cancelled \
         (cancel {}), ledger cancelled = {}",
        if cancel_won {
            "won the race"
        } else {
            "lost the race"
        },
        report.cancelled,
    );
    assert_eq!(labeled + cancelled, take as u64, "exactly one event each");
    assert!(report.is_conserved());

    // 6) The content-addressed label cache: a repetitive stream — the
    //    album re-uploaded several times over — where repeats are
    //    answered from the cache (exact hits, zero queue wait, zero GPU
    //    bill) or coalesce onto the identical in-flight request. A
    //    cancelled leader with waiting followers is executed as a ghost:
    //    its own ticket resolves Cancelled, its followers still get
    //    their labels.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            cache: Some(CacheConfig::default()),
            ..lossless.clone()
        },
    );
    let client = server.client();
    let take = items.len().min(16);
    println!("--- label cache (content-addressed dedup) ---");
    let mut issued = 0u64;
    let mut leader: Option<Ticket> = None;
    let mut followers = 0u64;
    // Three passes over the same photos: pass 0 leads, passes 1-2 are
    // duplicates. The *last* photo's leader — still deep in the queue
    // when pass 1 resubmits it — is cancelled while its repeats wait on
    // it: the worker ghost-executes it for them.
    for pass in 0..3 {
        for item in items.iter().take(take) {
            let outcome = client.submit(Arc::clone(item));
            if matches!(outcome, SubmitOutcome::Coalesced(_)) {
                followers += 1;
            }
            if let Some(t) = outcome.ticket() {
                if pass == 0 {
                    leader = Some(t);
                }
            }
            issued += 1;
        }
        if pass == 1 {
            if let Some(t) = leader.take() {
                let won = t.cancel();
                println!(
                    "  cancelled the last photo's leader mid-queue ({}): its duplicates still complete",
                    if won { "won the race" } else { "worker already claimed it" },
                );
            }
        }
    }
    let mut labeled = 0u64;
    let mut cancelled = 0u64;
    let mut events = 0u64;
    while let Some(event) = client.recv() {
        events += 1;
        match event {
            Completion::Labeled(_) => labeled += 1,
            Completion::Cancelled { ticket, .. } => {
                cancelled += 1;
                println!("  ticket {ticket} resolved Cancelled — its followers were fed by the ghost execution");
            }
            Completion::Shed { .. } => {}
        }
    }
    let report = server.shutdown();
    let cache = report.cache.as_ref().expect("cache configured");
    println!(
        "  {issued} submissions over {take} distinct photos -> {} executed, {} exact hits + {} coalesced ({:.0}% answered by the cache)",
        report.completed,
        report.cache_hit,
        report.coalesced,
        report.cache_hit_rate() * 100.0,
    );
    println!(
        "  cache: {} entries / {} bytes (budget {}), {} insertions, {} evictions",
        cache.entries, cache.bytes, cache.capacity_bytes, cache.insertions, cache.evictions,
    );
    println!(
        "  virtual GPU bill {:.1}s — the {} cached answers billed nothing; every ticket still resolved exactly once ({events} events: {labeled} labeled, {cancelled} cancelled)",
        report.virtual_work_ms as f64 / 1000.0,
        report.cache_hit + report.coalesced,
    );
    assert_eq!(events, issued, "exactly one event per ticket");
    assert!(
        followers > 0,
        "repeats coalesced while leaders were in flight"
    );
    assert!(report.is_conserved());

    // 7) Live observability: the same paced SLO overload as scenario 4,
    //    but watched from the *outside while it runs* — periodic metrics
    //    snapshots mid-stream (the rings are lock-free and the workers
    //    never block for a reader), a Prometheus scrape, and a
    //    flight-recorder post-mortem answering "why did this specific
    //    request miss?" after the fact. The event stream reconciles
    //    bucket-for-bucket with the conservation ledger at shutdown.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            obs: Some(ObsConfig::default()),
            ..overloaded
        },
    );
    println!("--- live observability (snapshots mid-overload) ---");
    let tick = (items.len() / 4).max(1);
    let client = server.client();
    for (i, item) in items.iter().enumerate() {
        if i % 8 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        client.submit_class(Arc::clone(item), i % 2);
        if i > 0 && i % tick == 0 {
            let snap = server.metrics_snapshot().expect("obs is on");
            let depth: u64 = snap.shards.iter().map(|s| s.depth).sum();
            let waits: Vec<u64> = snap
                .shards
                .iter()
                .map(|s| s.estimated_wait_us / 1000)
                .collect();
            println!(
                "  t+{:>4}ms: {:>3} in flight, queue depth {:>2}, est wait/shard {:?}ms, shed so far {}",
                snap.uptime_us / 1000,
                snap.in_flight,
                depth,
                waits,
                snap.total(EventKind::ShedAdmission)
                    + snap.total(EventKind::ShedOverflow)
                    + snap.total(EventKind::ShedDeadline),
            );
        }
    }
    // One live Prometheus scrape, as a monitoring agent would see it.
    let scrape = server.render_metrics();
    let picked: Vec<&str> = scrape
        .lines()
        .filter(|l| {
            l.starts_with("ams_in_flight")
                || l.starts_with("ams_shard_queue_depth")
                || l.starts_with("ams_class_deadline_met_rate")
        })
        .collect();
    println!(
        "  prometheus scrape ({} lines), e.g.:",
        scrape.lines().count()
    );
    for line in picked {
        println!("    {line}");
    }
    let report = server.shutdown();
    print_report(
        "live observability (slo overload, event stream on)",
        &report,
    );
    let obs = report.obs.as_ref().expect("obs configured");
    println!(
        "  events: {} admitted -> {} labeled / {} shed / {} cache-answered ({} dropped on rings, still counted)",
        obs.total(EventKind::Admitted),
        obs.total(EventKind::Labeled),
        obs.total(EventKind::ShedAdmission)
            + obs.total(EventKind::ShedOverflow)
            + obs.total(EventKind::ShedDeadline)
            + obs.total(EventKind::ShedDrain),
        obs.total(EventKind::CacheHit) + obs.total(EventKind::Coalesced),
        obs.snapshot.dropped_total,
    );
    assert!(
        report.events_reconcile(),
        "event totals must reconcile with the conservation ledger"
    );
    // The flight recorder: pick one deadline casualty and ask why.
    if let Some(trace) = obs
        .traces
        .iter()
        .find(|t| t.verdict == "deadline_miss" || t.verdict.starts_with("shed"))
    {
        println!("  flight recorder, why(req {}):", trace.req);
        for line in trace.dump().lines() {
            println!("    {line}");
        }
    }

    // 8) The wire: the same ticket protocol over TCP. A loopback
    //    `NetServer` serves two *separate OS processes* at once, each a
    //    `NetClient` on one persistent multiplexed connection whose
    //    completion window is the only flow control. One child attaches a
    //    per-ticket 60ms deadline to every request — the number rides the
    //    request frame and the server's deadline shedder enforces it —
    //    while the other submits plain. Conservation and event
    //    reconciliation hold through the socket.
    let server = AmsServer::start(
        scheduler(agent.clone(), album.world_seed),
        budget,
        ServeConfig {
            obs: Some(ObsConfig::default()),
            ..lossless.clone()
        },
    );
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback listener");
    let addr = net.local_addr().to_string();
    println!("--- over the wire (two client processes on {addr}) ---");
    let exe = std::env::current_exe().expect("current_exe");
    let spawn = |start: usize, deadline_us: u64| {
        std::process::Command::new(&exe)
            .args([
                "net-client",
                &addr,
                &album_size.to_string(),
                &start.to_string(),
                "2",
                &deadline_us.to_string(),
            ])
            .spawn()
            .expect("spawn net-client child")
    };
    // Even indices plain, odd indices with a per-ticket 60ms deadline.
    let children = [spawn(0, 0), spawn(1, 60_000)];
    for mut child in children {
        let status = child.wait().expect("child exits");
        assert!(status.success(), "net-client child failed: {status:?}");
    }
    let report = net.shutdown();
    print_report(
        "over the wire (per-ticket deadlines from a forked client)",
        &report,
    );
    assert_eq!(report.offered, items.len() as u64, "both halves arrived");
    assert!(
        report.is_conserved(),
        "conservation holds through the socket"
    );
    assert!(
        report.events_reconcile(),
        "event stream reconciles through the socket"
    );

    // 9) Closing the loop: the workload drifts mid-stream. The album
    //    tenant's object-centric photos give way to a new tenant's
    //    scene-centric uploads (Places365 profile) the boot agent never
    //    trained on — and the background trainer (`ams-serve::adapt`)
    //    learns from every served outcome and hot-swaps updated weights
    //    into the predict path, generation by generation, while the
    //    stream is still running. The drifted stream is served twice with
    //    identical configs except `adapt`: once frozen (`adapt: None`)
    //    and once adaptive; each ticket's own completion carries the
    //    realized label value, so the per-phase ledgers come straight
    //    from the client API.
    drop(agent); // the drift story needs a *weak* boot agent, not this one
    let boot = {
        let cfg = TrainConfig {
            episodes: 2, // deliberately undertrained: headroom to adapt into
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        train(truth.items(), zoo.len(), &cfg).0
    };
    let scenic = Dataset::generate(DatasetProfile::Places365, if smoke { 24 } else { 80 }, 17);
    let scenic_truth = TruthTable::build(&zoo, &zoo.catalog(), &scenic, 0.5);
    let scenic_passes = 3usize;
    let scenic_stream: Vec<Arc<ItemTruth>> = scenic_truth
        .items()
        .iter()
        .cycle()
        .take(scenic_truth.items().len() * scenic_passes)
        .map(|i| Arc::new(i.clone()))
        .collect();
    let drift_total = items.len() + scenic_stream.len();
    // Both runs predict from the same generation-0 snapshot of the boot
    // agent — the exact weights the adaptive run serves until its first
    // swap.
    let drift_scheduler = || {
        AdaptiveModelScheduler::new(
            ModelZoo::standard(),
            Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
                boot.clone(),
            )))),
            0.5,
            album.world_seed,
        )
    };
    println!("--- online adaptation under mid-stream drift (frozen vs adaptive) ---");
    let mut post_shift = [0.0f64; 2]; // [frozen, adaptive]
    for (mi, adaptive_on) in [false, true].into_iter().enumerate() {
        let server = AmsServer::start(
            drift_scheduler(),
            budget,
            ServeConfig {
                shards: 2,
                workers_per_shard: 1,
                max_batch: 4,
                queue_capacity: 64,
                policy: BackpressurePolicy::Block,
                exec_emulation_scale: 2e-3,
                obs: Some(ObsConfig::default()),
                adapt: adaptive_on.then(|| AdaptConfig {
                    online: OnlineConfig {
                        warmup: 32,
                        batch: 16,
                        seed: 9,
                        ..OnlineConfig::default()
                    },
                    steps_per_outcome: 4,
                    swap_every: 8,
                    ..AdaptConfig::new(boot.clone())
                }),
                ..ServeConfig::default()
            },
        );
        let client = server.client_with_capacity(drift_total + 1);
        let mut shifted = std::collections::HashMap::new();
        for item in &items {
            let t = client.submit(Arc::clone(item)).ticket().expect("lossless");
            shifted.insert(t.id(), false);
        }
        for item in &scenic_stream {
            let t = client.submit(Arc::clone(item)).ticket().expect("lossless");
            shifted.insert(t.id(), true);
        }
        // The `ams_adapt_generation` gauge is live while the stream runs.
        let live_generation = server
            .metrics_snapshot()
            .expect("obs is on")
            .adapt_generation;
        let report = server.shutdown();
        let mut value = [0.0f64; 2]; // [pre-shift, post-shift]
        let mut events = 0usize;
        while let Some(event) = client.recv() {
            events += 1;
            let Completion::Labeled(result) = event else {
                panic!("lossless drift run labels everything");
            };
            value[usize::from(shifted[&result.ticket])] += result.label_value;
        }
        assert_eq!(events, drift_total, "exactly one completion per ticket");
        assert!(report.is_conserved());
        assert!(report.events_reconcile(), "swap events reconcile too");
        post_shift[mi] = value[1];
        match report.adapt.as_ref() {
            None => println!(
                "  frozen:   pre-shift value {:.1}, post-shift value {:.1} (generation 0 throughout)",
                value[0], value[1],
            ),
            Some(a) => {
                println!(
                    "  adaptive: pre-shift value {:.1}, post-shift value {:.1}",
                    value[0], value[1],
                );
                println!(
                    "    trainer: {} outcomes tapped ({} dropped), {} learn steps, {} generations \
                     hot-swapped (gauge read {:?} mid-stream)",
                    a.experiences,
                    a.experiences_dropped,
                    a.learn_steps,
                    a.swaps,
                    live_generation,
                );
                assert!(a.swaps > 0, "the trainer must publish mid-stream");
                assert_eq!(a.experiences, drift_total as u64, "every outcome tapped");
            }
        }
    }
    println!(
        "  adaptation banked {:.2}x the frozen post-shift value on the drifted tail",
        post_shift[1] / post_shift[0].max(f64::MIN_POSITIVE),
    );

    println!("\nthe same scheduler serves all nine: backpressure and deadline shedding");
    println!("trade recall coverage for bounded queues and fresh frames; affinity");
    println!("routing and the adaptive batch controller make batching deliberate;");
    println!("SLO classes make the *shedding* deliberate too; the client API");
    println!("closes the loop — every request hands its caller a ticket that");
    println!("resolves to exactly one completion: its labels, its shed reason, or");
    println!("its cancellation — the content-addressed cache makes repeated");
    println!("content free: exact repeats answer before admission, in-flight");
    println!("duplicates coalesce onto one execution — the observability");
    println!("layer watches it all live, with event totals that reconcile");
    println!("bucket-for-bucket against the conservation ledger — and the");
    println!("whole ticket protocol travels a TCP socket unchanged: separate");
    println!("processes hold persistent windowed connections, per-ticket");
    println!("deadlines ride the request frames, and disconnect is cancel —");
    println!("and when the workload itself drifts, the background trainer");
    println!("closes the loop: served outcomes feed a live learner whose");
    println!("generations hot-swap into the predict path without a restart.");
}
