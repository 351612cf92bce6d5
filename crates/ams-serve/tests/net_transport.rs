//! The TCP front-end, end to end over loopback: labels through the
//! socket byte-identical to the in-process client, per-ticket
//! deadline/value travelling the wire, cancellation by request id,
//! graceful goodbye vs abrupt disconnect (cancel-all), a dead connection
//! failing its blocked submitters, the encode-side frame cap, the
//! buffered frame reader against coalesced and dribbled byte streams, and
//! ledger/event conservation across all of it.

mod common;

use ams_core::framework::Budget;
use ams_data::TruthTable;
use ams_serve::net::{NetClient, NetEvent, NetServer, WireError, MAX_FRAME};
use ams_serve::wire::{
    decode_server_frame, encode_client_frame, encode_request, frame_append, ClientFrame,
    ServerFrame,
};
use ams_serve::{
    AmsServer, BackpressurePolicy, Completion, ObsConfig, ServeConfig, ShedReason, SloClass,
    SloConfig, SubmitOptions,
};
use common::scheduler;
use serde_json::to_string;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| common::truth_of(40))
}

/// A server under `config` (900 ms deadline budget) behind a loopback
/// listener on an ephemeral port.
fn serve(config: ServeConfig) -> NetServer {
    let server = AmsServer::start(scheduler(), Budget::Deadline { ms: 900 }, config);
    NetServer::bind(server, "127.0.0.1:0").expect("bind")
}

fn lossless_config() -> ServeConfig {
    ServeConfig {
        shards: 3,
        workers_per_shard: 2,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    }
}

/// Labels received over the socket are **byte-identical** to what the
/// in-process client delivers for the same items under the same config:
/// same labels, same model choices, bit-equal values — compared through
/// their serialized form, which is exactly what crossed the wire. Holds
/// for one connection and for several driving the listener concurrently,
/// each submitting a strided partition of the item set.
#[test]
fn socket_labels_are_byte_identical_to_in_process() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth();

    // In-process reference run.
    let server = AmsServer::start(scheduler(), budget, lossless_config());
    let client = server.client();
    let mut inproc: HashMap<usize, String> = HashMap::new(); // item idx → labels JSON
    let mut by_ticket: HashMap<u64, usize> = HashMap::new();
    for (i, item) in table.items().iter().enumerate() {
        let t = client.submit(Arc::new(item.clone())).ticket().unwrap();
        by_ticket.insert(t.id(), i);
    }
    while let Some(ev) = client.recv() {
        let r = ev.labeled().expect("lossless run");
        let idx = by_ticket[&r.ticket];
        inproc.insert(idx, to_string(&r.labels).unwrap());
    }
    let inproc_report = server.shutdown();

    for conns in [1usize, 2, 4] {
        let net = serve(lossless_config());
        let addr = net.local_addr();
        // Connection `start` submits items start, start + conns, …; its
        // k-th request carries id k, which the completion echoes.
        let labels: Vec<(usize, String)> = thread::scope(|s| {
            let clients: Vec<_> = (0..conns)
                .map(|start| {
                    s.spawn(move || {
                        let remote = NetClient::connect_with_window(addr, 32).expect("connect");
                        let mut events = Vec::new();
                        for item in table.items().iter().skip(start).step_by(conns) {
                            // The window is the flow control: a full one
                            // owes the server a read before the next submit.
                            while remote.outstanding() >= remote.capacity() {
                                events.push(remote.recv().expect("recv").expect("outstanding"));
                            }
                            remote.submit(Arc::new(item.clone())).expect("submit");
                        }
                        events.extend(remote.drain().expect("drain"));
                        remote.goodbye().expect("goodbye");
                        assert!(
                            remote.recv().expect("recv").is_none(),
                            "drained mirror terminates"
                        );
                        events
                            .iter()
                            .map(|ev| {
                                let c = ev.completion().expect("no rejections under Block");
                                let r = c.labeled().expect("lossless run only labels");
                                let idx = start + r.ticket as usize * conns;
                                (idx, to_string(&r.labels).unwrap())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect()
        });
        assert_eq!(
            labels.len(),
            40,
            "{conns} conn(s): one completion per request"
        );
        for (idx, json) in &labels {
            assert_eq!(
                json, &inproc[idx],
                "{conns} conn(s), item {idx}: labels byte-identical through the socket"
            );
        }
        let net_report = net.shutdown();

        // serve == serial holds *through the socket*: the aggregate stats
        // match the in-process run field for field.
        let (got, want) = (&net_report.stats, &inproc_report.stats);
        assert_eq!(net_report.completed, inproc_report.completed);
        assert_eq!(got.items, want.items);
        assert_eq!(got.total_exec_ms, want.total_exec_ms);
        assert_eq!(got.total_executions, want.total_executions);
        assert_eq!(got.per_model_runs, want.per_model_runs);
        assert!((got.recall_sum - want.recall_sum).abs() < 1e-12);
        assert!(net_report.is_conserved());
        assert!(net_report.events_reconcile());
    }
}

/// Satellite regression: a client killed abruptly after its first
/// completion leaves no dangling state — all its outstanding tickets
/// resolve (`Cancelled` for the unclaimed, their original event for the
/// claimed), `events_reconcile()` and the per-class value ledgers
/// balance, and a second connection keeps being served throughout.
#[test]
fn abrupt_disconnect_cancels_outstanding_and_server_keeps_serving() {
    let table = truth();
    let net = serve(ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        max_batch: 2,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        // Slow workers: most of the victim's stream is still queued
        // when the disconnect lands.
        exec_emulation_scale: 5e-3,
        obs: Some(ObsConfig::default()),
        slo: Some(SloConfig::blind(vec![
            SloClass::new("interactive", 60_000, 4.0),
            SloClass::new("bulk", 60_000, 1.0),
        ])),
        ..ServeConfig::default()
    });
    let addr = net.local_addr();

    // The victim: submit everything, read exactly one completion (so at
    // least one claim happened), then die without a goodbye.
    let victim = NetClient::connect_with_window(addr, 64).expect("connect");
    for (i, item) in table.items().iter().enumerate() {
        victim
            .submit_with(Arc::new(item.clone()), SubmitOptions::class(i % 2))
            .expect("submit");
    }
    let first = victim
        .recv()
        .expect("recv")
        .expect("40 outstanding, one must arrive");
    assert!(first.completion().is_some());
    drop(victim); // abrupt: no goodbye, 39 events undelivered

    // A second connection is served to completion while the victim's
    // tickets are being cancelled and its claimed work drains.
    let survivor = NetClient::connect_with_window(addr, 16).expect("connect");
    for item in table.items().iter().take(10) {
        survivor.submit(Arc::new(item.clone())).expect("submit");
    }
    let events = survivor.drain().expect("drain");
    assert_eq!(events.len(), 10, "survivor gets every completion");
    assert!(
        events
            .iter()
            .all(|e| e.completion().and_then(Completion::labeled).is_some()),
        "survivor's requests all label"
    );
    survivor.goodbye().expect("goodbye");
    drop(survivor);

    let report = net.shutdown();
    // An abrupt close is a TCP reset: requests the victim wrote but the
    // server had not yet read may be discarded by the kernel, so the
    // exact offered count is not deterministic — the conservation of
    // everything that *was* admitted is.
    assert!(
        (11..=50).contains(&report.offered),
        "survivor's 10 plus at least the victim's claimed head, got {}",
        report.offered
    );
    assert!(
        report.cancelled > 0,
        "disconnect cancelled the victim's queued backlog"
    );
    assert!(report.is_conserved(), "conservation across the disconnect");
    assert!(
        report.events_reconcile(),
        "event stream reconciles bucket-for-bucket"
    );
    let slo = report.slo.as_ref().expect("slo ledgers");
    assert!(slo.is_conserved(), "per-class ledgers balance");
    for c in &slo.classes {
        assert!(
            (c.value_offered - c.value_completed - c.value_shed - c.value_cancelled).abs() < 1e-6,
            "class {}: value ledger balances through the disconnect",
            c.name
        );
    }
}

/// Per-ticket economics ride the wire: a tight per-request deadline set
/// via `SubmitOptions` (no SLO classes configured at all) sheds exactly
/// the requests that carried it, and a per-ticket value override lands
/// in the class value ledger.
#[test]
fn per_ticket_deadline_and_value_travel_the_wire() {
    let table = truth();

    // Deadlines without SLO classes: one slow worker, batch of 1. The
    // first (deadline-free) request occupies the worker long enough that
    // every deadline-carrying request behind it expires in queue.
    let net = serve(ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 1,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        exec_emulation_scale: 5e-2,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
    let remote = NetClient::connect(net.local_addr()).expect("connect");
    // Four deadline-free head requests keep the single worker busy (serial
    // batches of 1 under slowed execution). The worker pops ahead while
    // fewer than two popped heads wait to start, so the doomed wave is
    // popped once the third head starts, tens of real milliseconds in:
    // the whole wave is queued by then, and has aged past its 1 ms
    // per-ticket budget. A request that reached the queue after the
    // worker ran out of queued work would be popped fresh.
    let heads = 4u64;
    for item in table.items().iter().take(heads as usize) {
        remote.submit(Arc::new(item.clone())).expect("submit");
    }
    let doomed = 12u64;
    for item in table
        .items()
        .iter()
        .skip(heads as usize)
        .take(doomed as usize)
    {
        remote
            .submit_with(
                Arc::new(item.clone()),
                SubmitOptions::default().deadline_us(1_000),
            )
            .expect("submit");
    }
    let events = remote.drain().expect("drain");
    assert_eq!(events.len() as u64, heads + doomed);
    let mut labeled = 0u64;
    let mut shed_deadline = 0u64;
    for ev in &events {
        match ev.completion().expect("no rejections") {
            Completion::Labeled(r) => {
                labeled += 1;
                assert!(r.ticket < heads, "only the deadline-free heads label");
            }
            Completion::Shed { reason, ticket, .. } => {
                assert_eq!(*reason, ShedReason::Deadline);
                assert!(*ticket >= heads, "sheds are the deadline-carrying wave");
                shed_deadline += 1;
            }
            Completion::Cancelled { .. } => panic!("nothing was cancelled"),
        }
    }
    assert_eq!(labeled, heads);
    assert_eq!(shed_deadline, doomed, "every per-ticket deadline enforced");
    remote.goodbye().expect("goodbye");
    drop(remote);
    let report = net.shutdown();
    assert_eq!(report.shed_deadline, doomed);
    assert!(report.is_conserved());
    assert!(report.events_reconcile());

    // Value override: with SLO classes configured, a wire-supplied value
    // replaces the predicted class-weighted one in the ledgers.
    let net = serve(ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        slo: Some(SloConfig::blind(vec![SloClass::new("only", 60_000, 1.0)])),
        ..ServeConfig::default()
    });
    let remote = NetClient::connect(net.local_addr()).expect("connect");
    let n = 8u64;
    for item in table.items().iter().take(n as usize) {
        remote
            .submit_with(Arc::new(item.clone()), SubmitOptions::default().value(7.25))
            .expect("submit");
    }
    let events = remote.drain().expect("drain");
    assert_eq!(events.len() as u64, n);
    for ev in &events {
        let r = ev
            .completion()
            .and_then(Completion::labeled)
            .expect("lossless");
        assert_eq!(r.banked_value, 7.25, "per-ticket value banked verbatim");
    }
    remote.goodbye().expect("goodbye");
    drop(remote);
    let report = net.shutdown();
    let slo = report.slo.as_ref().expect("slo ledgers");
    assert!(
        (slo.classes[0].value_offered - 7.25 * n as f64).abs() < 1e-9,
        "ledger saw the wire-supplied value, not the predicted one"
    );
    assert!(slo.is_conserved());
}

/// Cancellation by request id over the wire: unclaimed requests resolve
/// `Cancelled`, and every request still gets exactly one event.
#[test]
fn wire_cancellation_resolves_exactly_once() {
    let table = truth();
    let net = serve(ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 2,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        exec_emulation_scale: 5e-3,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
    let remote = NetClient::connect(net.local_addr()).expect("connect");
    let mut ids = Vec::new();
    for item in table.items() {
        ids.push(remote.submit(Arc::new(item.clone())).expect("submit"));
    }
    // Cancel every other request; the race against claims is resolved
    // server-side, exactly like Ticket::cancel.
    for id in ids.iter().skip(1).step_by(2) {
        remote.cancel(*id).expect("cancel");
    }
    let events = remote.drain().expect("drain");
    assert_eq!(events.len(), 40, "exactly one event per request");
    let mut seen: Vec<u64> = events.iter().map(NetEvent::id).collect();
    seen.sort_unstable();
    assert_eq!(seen, ids, "every request id answered exactly once");
    let cancelled = events
        .iter()
        .filter(|e| matches!(e.completion(), Some(Completion::Cancelled { .. })))
        .count();
    assert!(cancelled > 0, "some cancels won the race");
    remote.goodbye().expect("goodbye");
    drop(remote);
    let report = net.shutdown();
    assert_eq!(report.cancelled, cancelled as u64);
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}

/// Satellite regression: a dead connection must not strand a submitter
/// parked on a full window. The peer here is a bare listener that never
/// answers and then hangs up with the window (2) full and a third
/// submission waiting for a slot. The blocked `submit` — whether it was
/// already parked when the read failed or arrives just after; both
/// orders are legal and both hung before the fix — must return
/// `Closed`, as must every later call.
#[test]
fn dead_connection_wakes_a_submitter_blocked_on_a_full_window() {
    let table = truth();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (hang_up, hung_up) = mpsc::channel::<()>();
    let peer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        hung_up.recv().expect("test signals the hang-up");
        drop(stream);
    });

    let client = Arc::new(NetClient::connect_with_window(addr, 2).expect("connect"));
    for item in table.items().iter().take(2) {
        client
            .submit(Arc::new(item.clone()))
            .expect("window has room");
    }
    assert_eq!(client.outstanding(), 2, "window full");
    let blocked = {
        let client = Arc::clone(&client);
        let item = Arc::new(table.item(2).clone());
        thread::spawn(move || client.submit(item))
    };

    hang_up.send(()).expect("peer is waiting");
    peer.join().expect("peer thread");
    // The receiver is the one that observes the dead socket.
    assert!(client.recv().is_err(), "nothing was ever answered");

    let deadline = Instant::now() + Duration::from_secs(10);
    while !blocked.is_finished() {
        assert!(
            Instant::now() < deadline,
            "submitter still parked on a dead connection"
        );
        thread::sleep(Duration::from_millis(5));
    }
    let res = blocked.join().expect("submitter thread");
    assert!(matches!(res, Err(WireError::Closed)), "{res:?}");
    assert!(matches!(
        client.submit(Arc::new(table.item(3).clone())),
        Err(WireError::Closed)
    ));
    assert!(matches!(client.recv(), Err(WireError::Closed)));
}

/// Satellite regression: the encode-side frame cap holds in release
/// builds. An item too large for one frame is refused before a byte is
/// written — `FrameTooLarge`, its window slot released — and the
/// connection keeps serving.
#[test]
fn oversized_request_is_refused_before_the_wire_and_frees_its_slot() {
    let table = truth();
    let net = serve(lossless_config());
    let remote = NetClient::connect_with_window(net.local_addr(), 1).expect("connect");

    let mut huge = table.item(0).clone();
    huge.model_value = vec![0.0; MAX_FRAME as usize / 8 + 1];
    let res = remote.submit(Arc::new(huge));
    assert!(matches!(res, Err(WireError::FrameTooLarge(_))), "{res:?}");
    assert_eq!(remote.outstanding(), 0, "the refused request holds no slot");

    // Window 1: this submit would block forever on a leaked slot, and
    // fail on a connection the oversized frame had poisoned.
    remote
        .submit(Arc::new(table.item(1).clone()))
        .expect("connection still usable");
    let events = remote.drain().expect("drain");
    assert_eq!(events.len(), 1);
    assert!(events[0]
        .completion()
        .and_then(Completion::labeled)
        .is_some());
    remote.goodbye().expect("goodbye");
    drop(remote);
    let report = net.shutdown();
    assert_eq!(report.offered, 1, "the oversized request never arrived");
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}

/// Append the frame of `frame` to `bytes`.
fn push_frame(bytes: &mut Vec<u8>, frame: &ClientFrame) {
    frame_append(bytes, |buf| encode_client_frame(frame, buf)).expect("fits a frame");
}

/// Append the request frame for item `idx` under request id `id`.
fn push_request(bytes: &mut Vec<u8>, id: u64, idx: usize) {
    frame_append(bytes, |buf| {
        encode_request(buf, id, truth().item(idx), &SubmitOptions::default())
    })
    .expect("fits a frame");
}

/// The next server frame off a raw socket; `None` once the peer closed.
fn read_server_frame(s: &mut TcpStream) -> Option<ServerFrame> {
    let mut prefix = [0u8; 4];
    if s.read_exact(&mut prefix).is_err() {
        return None;
    }
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    s.read_exact(&mut payload).expect("whole payload");
    Some(decode_server_frame(&payload).expect("server frames decode"))
}

/// The id of a `Labeled` completion frame.
fn labeled_id(frame: &ServerFrame) -> u64 {
    match frame {
        ServerFrame::Completion(c) => c.labeled().expect("lossless run only labels").ticket,
        other => panic!("expected a completion, got {other:?}"),
    }
}

/// The connection reader takes as many whole frames as each `read`
/// brought: a handshake, 64 requests and a goodbye sent in **one write**
/// (~330 KB — several loopback segments, so frames also straddle reads)
/// are each answered exactly once, then the server closes.
#[test]
fn frames_coalesced_into_one_write_are_each_answered_exactly_once() {
    let net = serve(lossless_config());
    let mut bytes = Vec::new();
    push_frame(&mut bytes, &ClientFrame::Hello { window: 64 });
    for id in 0..64u64 {
        push_request(&mut bytes, id, id as usize % truth().len());
    }
    push_frame(&mut bytes, &ClientFrame::Goodbye);

    let mut s = TcpStream::connect(net.local_addr()).expect("connect");
    s.write_all(&bytes).expect("one write");
    let mut seen = HashSet::new();
    while let Some(frame) = read_server_frame(&mut s) {
        assert!(seen.insert(labeled_id(&frame)), "request answered twice");
    }
    assert_eq!(seen, (0..64).collect::<HashSet<u64>>());
    drop(s);

    let report = net.shutdown();
    assert_eq!(report.offered, 64);
    assert_eq!(report.completed + report.cache_hit + report.coalesced, 64);
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}

/// The opposite extreme: a handshake and one request dribbled **a byte
/// per write** (no-delay, so the reader sees every split a frame can
/// have, the length prefix included) still yield exactly one completion;
/// a malformed length sent next kills that connection and no other.
#[test]
fn a_frame_dribbled_bytewise_is_answered_once_and_a_bad_length_kills_only_its_connection() {
    let net = serve(lossless_config());
    let bystander = NetClient::connect_with_window(net.local_addr(), 4).expect("connect");
    bystander
        .submit(Arc::new(truth().item(1).clone()))
        .expect("submit");

    let mut bytes = Vec::new();
    push_frame(&mut bytes, &ClientFrame::Hello { window: 4 });
    push_request(&mut bytes, 77, 0);
    let mut s = TcpStream::connect(net.local_addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    for byte in &bytes {
        s.write_all(std::slice::from_ref(byte)).expect("one byte");
    }
    let frame = read_server_frame(&mut s).expect("the dribbled request is answered");
    assert_eq!(labeled_id(&frame), 77);

    // A length prefix above MAX_FRAME: refused before the buffer grows.
    s.write_all(&(MAX_FRAME + 1).to_le_bytes()).expect("write");
    assert!(
        read_server_frame(&mut s).is_none(),
        "nothing more is sent and the server hangs up"
    );
    drop(s);

    // The other connection never noticed.
    bystander
        .submit(Arc::new(truth().item(2).clone()))
        .expect("submit");
    let events = bystander.drain().expect("drain");
    assert_eq!(events.len(), 2);
    assert!(events
        .iter()
        .all(|e| e.completion().and_then(Completion::labeled).is_some()));
    bystander.goodbye().expect("goodbye");
    drop(bystander);

    let report = net.shutdown();
    assert_eq!(report.offered, 3, "one dribbled + two bystander requests");
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}

/// The frame codec checks framing, not meaning: a well-framed request
/// whose item the labeling path cannot index — a label id outside the
/// label universe, fewer outputs or static values than the zoo has
/// models, an output filed under the wrong model — must be refused at the
/// connection like any malformed frame, not handed to a shard worker it
/// would kill. One shard, one worker: had any hostile item reached it, the
/// healthy request sent afterwards on another connection would never be
/// answered. So must a value the ledgers cannot sum — a per-ticket value
/// that is `NaN` or negative, a static model value that is infinite or
/// beyond what the model's detections can sum to: once submitted it would
/// poison its class's value totals for the whole run.
#[test]
fn a_well_framed_item_the_zoo_cannot_index_kills_only_its_connection() {
    use ams_models::{LabelId, ModelId};
    let config = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        slo: Some(SloConfig::default()),
        ..lossless_config()
    };
    let net = serve(config);
    // Hello + `request` on a fresh connection whose reads give up after 5 s.
    let send = |request: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        push_frame(&mut bytes, &ClientFrame::Hello { window: 4 });
        request(&mut bytes);
        let mut s = TcpStream::connect(net.local_addr()).expect("connect");
        let timeout = Some(Duration::from_secs(5));
        s.set_read_timeout(timeout).expect("read timeout");
        s.write_all(&bytes).expect("write");
        s
    };

    let healthy = truth().item(0);
    // A model other than model 0 (so refiling it under `ModelId(0)` is
    // wrong) with at least one detection to corrupt.
    let m = (1..healthy.outputs.len())
        .max_by_key(|&m| healthy.outputs[m].detections.len())
        .expect("a zoo has models");
    let hostile: [fn(&mut ams_data::ItemTruth, &mut SubmitOptions, usize); 9] = [
        |item, _, m| item.outputs[m].detections[0].label = LabelId(u16::MAX),
        |item, _, _| item.valuable.push((LabelId(u16::MAX), 0.9)),
        |item, _, _| item.outputs.truncate(3),
        |item, _, _| item.model_value.truncate(3),
        |item, _, m| item.outputs[m].model = ModelId(0),
        |_, opts, _| opts.value = Some(f64::NAN),
        |_, opts, _| opts.value = Some(-1e300),
        |item, _, _| item.model_value[0] = f64::INFINITY,
        |item, _, _| item.model_value.fill(f64::MAX),
    ];
    for (id, corrupt) in hostile.iter().enumerate() {
        let mut item = healthy.clone();
        let mut opts = SubmitOptions::default();
        corrupt(&mut item, &mut opts, m);
        let mut a = send(&|bytes| {
            frame_append(bytes, |buf| encode_request(buf, id as u64, &item, &opts)).expect("fits");
        });
        assert!(
            read_server_frame(&mut a).is_none(),
            "hostile shape {id}: nothing is answered and the server hangs up"
        );
    }

    // Connection B never noticed: the only worker is alive and labels.
    let mut b = send(&|bytes| push_request(bytes, 7, 0));
    let frame = read_server_frame(&mut b).expect("the healthy request is answered");
    assert_eq!(labeled_id(&frame), 7);
    drop(b);

    let report = net.shutdown();
    assert_eq!(report.offered, 1, "no hostile item was ever submitted");
    assert_eq!(report.completed, 1);
    let class = &report.slo.as_ref().expect("slo report").classes[0];
    assert!(class.value_offered.is_finite() && class.value_offered >= 0.0);
    assert_eq!(class.value_completed, class.value_offered);
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}
