//! Serving demo: the labeling engine as a network service, in two runs.
//!
//! 1. **The composed service**, in the shape the benchmark serves
//!    (affinity routing, two SLO classes, label cache, live
//!    observability), behind a loopback [`NetServer`]. Two forked
//!    processes each drive a [`NetClient`] whose completion window is the
//!    only flow control and upload their half of an album twice (the
//!    second pass hits the cache); one attaches per-ticket deadlines that
//!    the server enforces. The parent scrapes the metrics mid-run, asks
//!    the flight recorder `why` a request missed, and checks that every
//!    ticket resolved exactly once and the events reconcile with the
//!    conservation ledger.
//! 2. **The loop closes.** The workload drifts to a dataset profile the
//!    boot agent never trained on; the background trainer learns from
//!    served outcomes and hot-swaps weights into the predict path while
//!    the stream runs, against the same server frozen.
//!
//! Run with: `cargo run --release --example serve_demo [-- --smoke]`
//! (`--smoke` shrinks the dataset and training so CI runs it in seconds).

use ams::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Upload passes each client makes over its half of the album.
const PASSES: usize = 2;

/// Hidden child mode (`serve_demo net-client <addr> <album-size> <start>
/// <deadline-us>`): a separate OS process that rebuilds the deterministic
/// album, connects a [`NetClient`] to the parent's listener, uploads every
/// other photo from `start` [`PASSES`] times (alternating SLO classes,
/// attaching a per-ticket deadline when asked), pumps the completion
/// window, and prints a one-line summary.
fn net_client_child(args: &[String]) {
    let addr = args[0].as_str();
    let album_size: usize = args[1].parse().expect("album size");
    let start: usize = args[2].parse().expect("start");
    let deadline_us: u64 = args[3].parse().expect("deadline");
    let zoo = ModelZoo::standard();
    let album = Dataset::generate(DatasetProfile::Coco2017, album_size, 11);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &album, 0.5);

    let client = NetClient::connect_with_window(addr, 8).expect("connect to parent listener");
    let mut events = Vec::new();
    let mut submitted = 0u64;
    for _ in 0..PASSES {
        for (i, item) in truth.items().iter().enumerate().skip(start).step_by(2) {
            // A full completion window is the wire's flow control: the
            // client must read a completion before it may submit more.
            while client.outstanding() >= client.capacity() {
                events.push(
                    client
                        .recv()
                        .expect("recv completion")
                        .expect("window full implies outstanding completions"),
                );
            }
            let mut opts = SubmitOptions::class(i / 2 % 2);
            if deadline_us > 0 {
                opts = opts.deadline_us(deadline_us);
            }
            client
                .submit_with(Arc::new(item.clone()), opts)
                .expect("submit over the wire");
            submitted += 1;
        }
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

fn print_report(r: &ServeReport) {
    let ms = |us: u64| us as f64 / 1000.0;
    println!(
        "  {} offered | {} executed | {} cache hits + {} coalesced | {:.0}% shed",
        r.offered,
        r.completed,
        r.cache_hit,
        r.coalesced,
        r.shed_rate() * 100.0
    );
    println!(
        "  latency p50 {:.1}ms p99 {:.1}ms | {} batches, {:.2} executions per model invocation, virtual GPU bill {:.1}s",
        ms(r.total.p50_us),
        ms(r.total.p99_us),
        r.batches,
        r.mean_coalesced(),
        ms(r.virtual_work_ms),
    );
    for c in r.slo.iter().flat_map(|slo| &slo.classes) {
        println!(
            "  class {:<8} ({:>3}ms): {} offered -> {} executed ({} in time) + {} from the cache",
            c.name,
            c.deadline_ms,
            c.offered,
            c.completed,
            c.deadline_met,
            c.cache_hit + c.coalesced,
        );
    }
}

fn main() {
    // The child processes re-exec this binary with a hidden subcommand;
    // they never train or serve, just speak the wire.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("net-client") {
        net_client_child(&argv[2..]);
        return;
    }
    let smoke = argv.iter().any(|a| a == "--smoke");
    let (album_size, episodes) = if smoke { (48, 8) } else { (240, 120) };
    let zoo = ModelZoo::standard();
    let album = Dataset::generate(DatasetProfile::Coco2017, album_size, 11);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &album, 0.5);
    let cfg = TrainConfig {
        episodes,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(truth.items(), zoo.len(), &cfg);
    let budget = Budget::Deadline { ms: 1000 };

    // 1) The composed service over the wire.
    let server = AmsServer::start(
        AdaptiveModelScheduler::new(
            ModelZoo::standard(),
            Box::new(AgentPredictor::new(agent)),
            0.5,
            album.world_seed,
        ),
        budget,
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 8,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            routing: RoutingMode::Affinity(AffinityConfig::default()),
            slo: Some(SloConfig::aware(vec![
                SloClass::new("alert", 40, 4.0),
                SloClass::new("archive", 400, 1.0),
            ])),
            cache: Some(CacheConfig::default()),
            obs: Some(ObsConfig::default()),
            exec_emulation_scale: 5e-3,
            ..ServeConfig::default()
        },
    );
    let net = NetServer::bind(server, "127.0.0.1:0").expect("bind loopback listener");
    let addr = net.local_addr().to_string();
    println!("--- composed service over the wire (two client processes on {addr}) ---");
    let exe = std::env::current_exe().expect("current_exe");
    let spawn = |start: usize, deadline_us: u64| {
        std::process::Command::new(&exe)
            .args([
                "net-client",
                &addr,
                &album_size.to_string(),
                &start.to_string(),
                &deadline_us.to_string(),
            ])
            .spawn()
            .expect("spawn net-client child")
    };
    // Even photos plain, odd photos with a per-ticket 5ms deadline.
    let mut children = [spawn(0, 0), spawn(1, 5_000)];
    // One Prometheus scrape while the clients are still submitting, as a
    // monitoring agent would see it.
    let mut scrape = None;
    while children
        .iter_mut()
        .any(|c| c.try_wait().expect("poll child").is_none())
    {
        let admitted = net
            .server()
            .metrics_snapshot()
            .map_or(0, |s| s.total(EventKind::Admitted));
        if scrape.is_none() && admitted > 0 {
            scrape = Some(net.server().render_metrics());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for mut child in children {
        let status = child.wait().expect("child exits");
        assert!(status.success(), "net-client child failed: {status:?}");
    }
    let scrape = scrape.unwrap_or_else(|| net.server().render_metrics());
    println!(
        "  mid-run prometheus scrape ({} lines), e.g.:",
        scrape.lines().count()
    );
    let picked = [
        "ams_in_flight",
        "ams_shard_queue_depth",
        "ams_cache_entries",
    ];
    for line in scrape
        .lines()
        .filter(|l| picked.iter().any(|p| l.starts_with(p)))
    {
        println!("    {line}");
    }
    // The flight recorder: the first request that settled interestingly
    // (a deadline miss or a shed), and why.
    let offered = (PASSES * truth.items().len()) as u64;
    match (0..offered).find_map(|id| net.server().why(id)) {
        Some(trace) => {
            println!("  flight recorder, why(req {}):", trace.req);
            for line in trace.dump().lines() {
                println!("    {line}");
            }
        }
        None => println!("  flight recorder: every request met its deadline"),
    }
    let report = net.shutdown();
    print_report(&report);
    assert_eq!(report.offered, offered, "both halves arrived, every pass");
    assert!(
        report.is_conserved(),
        "conservation holds through the socket"
    );
    assert!(
        report.events_reconcile(),
        "event stream reconciles through the socket"
    );

    // 2) Closing the loop: the album's object-centric photos give way to
    //    scene-centric uploads (Places365) the boot agent never trained on.
    //    The drifted stream is served frozen and adaptive; each ticket's
    //    completion carries its realized label value.
    let boot = {
        let cfg = TrainConfig {
            episodes: 2, // deliberately undertrained: headroom to adapt into
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        train(truth.items(), zoo.len(), &cfg).0
    };
    let items: Vec<Arc<ItemTruth>> = truth.items().iter().map(|i| Arc::new(i.clone())).collect();
    let scenic = Dataset::generate(DatasetProfile::Places365, if smoke { 24 } else { 80 }, 17);
    let scenic_truth = TruthTable::build(&zoo, &zoo.catalog(), &scenic, 0.5);
    let scenic_stream: Vec<Arc<ItemTruth>> = scenic_truth
        .items()
        .iter()
        .cycle()
        .take(scenic_truth.items().len() * 3)
        .map(|i| Arc::new(i.clone()))
        .collect();
    let drift_total = items.len() + scenic_stream.len();
    println!("--- online adaptation under mid-stream drift (frozen vs adaptive) ---");
    let mut post_shift = [0.0f64; 2]; // [frozen, adaptive]
    for (mi, adaptive_on) in [false, true].into_iter().enumerate() {
        // Both runs predict from the same generation-0 snapshot of the
        // boot agent — the weights the adaptive run serves until its
        // first swap.
        let server = AmsServer::start(
            AdaptiveModelScheduler::new(
                ModelZoo::standard(),
                Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
                    boot.clone(),
                )))),
                0.5,
                album.world_seed,
            ),
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
        for (k, item) in items.iter().chain(&scenic_stream).enumerate() {
            let t = client.submit(Arc::clone(item)).ticket().expect("lossless");
            shifted.insert(t.id(), k >= items.len());
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
        let tag = if adaptive_on { "adaptive" } else { "frozen" };
        println!(
            "  {tag:<8}: pre-shift value {:.1}, post-shift value {:.1}",
            value[0], value[1],
        );
        if let Some(a) = &report.adapt {
            println!(
                "    trainer: {} outcomes tapped ({} dropped), {} learn steps, {} generations \
                 hot-swapped (gauge read {:?} mid-stream)",
                a.experiences, a.experiences_dropped, a.learn_steps, a.swaps, live_generation,
            );
            assert!(a.swaps > 0, "the trainer must publish mid-stream");
            assert_eq!(a.experiences, drift_total as u64, "every outcome tapped");
        }
    }
    println!(
        "  adaptation banked {:.2}x the frozen post-shift value on the drifted tail",
        post_shift[1] / post_shift[0].max(f64::MIN_POSITIVE),
    );
}
