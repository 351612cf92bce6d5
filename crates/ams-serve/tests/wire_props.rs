//! Wire-stable types and a hostile decoder: round-trip properties for
//! the frame vocabulary through the typed frame codec (bit-exact, every
//! variant) and through the serde value-tree codec the bench probes still
//! read, a differential property tying the two encodings together, a
//! mutation fuzz over real encoded frames with an allocation ceiling,
//! plus malformed-frame fuzz against a live listener — truncated length
//! prefixes, oversized frame claims, garbage payloads, foreign protocol
//! versions and unknown tags must error the connection cleanly: no
//! panic, no leaked ticket, and the server keeps serving.
#![expect(
    unsafe_code,
    reason = "a counting global allocator pins what one decode allocates; each unsafe site carries its SAFETY argument"
)]

use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::predictor::OraclePredictor;
use ams_data::{Dataset, DatasetProfile, ItemTruth, TruthTable};
use ams_models::{Detection, LabelId, ModelId, ModelZoo};
use ams_serve::net::{NetClient, NetServer};
use ams_serve::wire::{
    decode_client_frame, decode_server_frame, decode_value, encode_client_frame, encode_request,
    encode_server_frame, encode_value, frame_append, ClientFrame, ServerFrame, WireError,
    WireRequest, PROTOCOL_VERSION,
};
use ams_serve::{
    AmsServer, BackpressurePolicy, Completion, LabelResult, ObsConfig, ServeConfig, ShedReason,
    SubmitOptions,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

thread_local! {
    /// Bytes the current thread has requested from the allocator.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Allocations (reallocations included) the current thread has made.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread tally of bytes and allocations
/// requested, so the tests can bound what one decode call allocates.
struct CountingAlloc;

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a
// destructor-free thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `GlobalAlloc::alloc` obligations pass through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `GlobalAlloc::dealloc` obligations pass through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and report how many bytes it asked the allocator for (growth
/// reallocations count in full, so this over-estimates the peak).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Run `f` and report how many allocations it made (a reallocation,
/// which `System` serves through `alloc`, counts as one more).
fn allocations_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn scheduler() -> AdaptiveModelScheduler {
    let zoo = ModelZoo::standard();
    let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
    AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
}

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 24, 64);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    })
}

/// Round-trip one value through serde *and* the binary codec, comparing
/// the full Debug rendering (field-for-field, bit-exact floats — Debug
/// prints enough digits to distinguish any two distinct f64s).
fn round_trip<T: Serialize + Deserialize + std::fmt::Debug>(v: &T) -> T {
    let tree = v.to_value();
    let mut buf = Vec::new();
    encode_value(&tree, &mut buf);
    let back = decode_value(&buf).expect("codec round trip");
    assert_eq!(
        format!("{back:?}"),
        format!("{tree:?}"),
        "value tree stable"
    );
    let rebuilt = T::from_value(&back).expect("typed round trip");
    assert_eq!(format!("{rebuilt:?}"), format!("{v:?}"), "type round trip");
    rebuilt
}

fn arb_shed_reason() -> impl Strategy<Value = ShedReason> {
    (0usize..4).prop_map(|i| {
        [
            ShedReason::Admission,
            ShedReason::Overflow,
            ShedReason::Deadline,
            ShedReason::Drain,
        ][i]
    })
}

fn arb_label_result() -> impl Strategy<Value = LabelResult> {
    (
        any::<u64>(),
        0usize..8,
        prop::collection::vec((0u16..512, 0.0f32..1.0), 0..12),
        prop::collection::vec(0u8..10, 0..10),
        (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1.0),
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(ticket, class, labels, executed, values, timing)| {
            let (label_value, banked_value, recall) = values;
            let (queue_wait_us, execute_us, deadline_met) = timing;
            LabelResult {
                ticket,
                class,
                labels: labels.into_iter().map(|(l, c)| (LabelId(l), c)).collect(),
                executed: executed.into_iter().map(ModelId).collect(),
                label_value,
                banked_value,
                recall,
                queue_wait_us,
                execute_us,
                deadline_met,
            }
        })
}

fn arb_completion() -> impl Strategy<Value = Completion> {
    (
        0usize..3,
        arb_label_result(),
        any::<u64>(),
        0usize..8,
        arb_shed_reason(),
    )
        .prop_map(|(variant, result, ticket, class, reason)| match variant {
            0 => Completion::Labeled(result),
            1 => Completion::Shed {
                ticket,
                class,
                reason,
            },
            _ => Completion::Cancelled { ticket, class },
        })
}

/// Floats the typed codec must carry bit-exactly: NaNs with payloads,
/// `-0.0`, subnormals, and arbitrary bit patterns.
fn wild_f32() -> impl Strategy<Value = f32> {
    (0usize..6, any::<u32>()).prop_map(|(kind, bits)| match kind {
        0 => f32::from_bits(0x7fc0_0000 | bits), // NaN, arbitrary sign and payload
        1 => -0.0,
        2 => f32::from_bits(bits & 0x807f_ffff), // subnormal (or zero)
        _ => f32::from_bits(bits),
    })
}

fn wild_f64() -> impl Strategy<Value = f64> {
    (0usize..6, any::<u64>()).prop_map(|(kind, bits)| match kind {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | bits),
        1 => -0.0,
        2 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
        _ => f64::from_bits(bits),
    })
}

/// Ids and counts: `u64::MAX` one time in four, anything otherwise.
fn wild_u64() -> impl Strategy<Value = u64> {
    (0usize..4, any::<u64>()).prop_map(|(kind, n)| if kind == 0 { u64::MAX } else { n })
}

fn wild_scored() -> impl Strategy<Value = Vec<(LabelId, f32)>> {
    prop::collection::vec((any::<u16>(), wild_f32()), 0..5)
        .prop_map(|v| v.into_iter().map(|(l, c)| (LabelId(l), c)).collect())
}

fn wild_item() -> impl Strategy<Value = ItemTruth> {
    (
        wild_u64(),
        prop::collection::vec((any::<u8>(), wild_scored()), 0..6),
        wild_scored(),
        wild_f64(),
        prop::collection::vec(wild_f64(), 0..6),
    )
        .prop_map(|(scene_id, outputs, valuable, total_value, model_value)| {
            let mut runs = Vec::new();
            let mut detections = Vec::new();
            for (model, dets) in outputs {
                detections.extend(
                    dets.into_iter()
                        .map(|(label, confidence)| Detection { label, confidence }),
                );
                runs.push((ModelId(model), detections.len() as u32));
            }
            ItemTruth {
                scene_id,
                runs: runs.into(),
                detections: detections.into(),
                valuable: valuable.into(),
                total_value,
                model_value: model_value.into(),
            }
        })
}

fn wild_label_result() -> impl Strategy<Value = LabelResult> {
    (
        wild_u64(),
        any::<usize>(),
        wild_scored(),
        prop::collection::vec(any::<u8>(), 0..6),
        (wild_f64(), wild_f64(), wild_f64()),
        (wild_u64(), wild_u64(), any::<bool>()),
    )
        .prop_map(|(ticket, class, labels, executed, values, timing)| {
            let (label_value, banked_value, recall) = values;
            let (queue_wait_us, execute_us, deadline_met) = timing;
            LabelResult {
                ticket,
                class,
                labels,
                executed: executed.into_iter().map(ModelId).collect(),
                label_value,
                banked_value,
                recall,
                queue_wait_us,
                execute_us,
                deadline_met,
            }
        })
}

/// Every `ClientFrame` variant, both states of both `Option`s.
fn wild_client_frame() -> impl Strategy<Value = ClientFrame> {
    (
        0usize..4,
        wild_u64(),
        wild_item(),
        any::<usize>(),
        (any::<bool>(), wild_u64()).prop_map(|(some, v)| some.then_some(v)),
        (any::<bool>(), wild_f64()).prop_map(|(some, v)| some.then_some(v)),
    )
        .prop_map(
            |(variant, id, item, class, deadline_us, value)| match variant {
                0 => ClientFrame::Hello { window: id },
                1 => ClientFrame::Request(WireRequest {
                    id,
                    item,
                    class,
                    deadline_us,
                    value,
                }),
                2 => ClientFrame::Cancel { id },
                _ => ClientFrame::Goodbye,
            },
        )
}

/// Every `ServerFrame` variant (all three completions and `Rejected`).
fn wild_server_frame() -> impl Strategy<Value = ServerFrame> {
    (
        0usize..4,
        wild_label_result(),
        wild_u64(),
        any::<usize>(),
        arb_shed_reason(),
    )
        .prop_map(|(variant, result, ticket, class, reason)| match variant {
            0 => ServerFrame::Completion(Completion::Labeled(result)),
            1 => ServerFrame::Completion(Completion::Shed {
                ticket,
                class,
                reason,
            }),
            2 => ServerFrame::Completion(Completion::Cancelled { ticket, class }),
            _ => ServerFrame::Rejected { id: ticket },
        })
}

fn client_bytes(frame: &ClientFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_client_frame(frame, &mut buf);
    buf
}

fn server_bytes(frame: &ServerFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_server_frame(frame, &mut buf);
    buf
}

/// The value-tree path (`to_value` → `encode_value` → `decode_value` →
/// `from_value`) without the assertions of [`round_trip`].
fn via_value_tree<T: Serialize + Deserialize>(v: &T) -> T {
    let mut buf = Vec::new();
    encode_value(&v.to_value(), &mut buf);
    T::from_value(&decode_value(&buf).expect("value codec round trip")).expect("typed rebuild")
}

/// What a mutated frame may do: decode to *some* frame, or fail as
/// `Malformed` — and either way ask the allocator for no more than a
/// fixed multiple of the bytes present. The widest element is a run
/// table entry, 8 bytes in memory for at least 2 on the wire (a model
/// byte and a count); a detection or a scored label is 8 for at least 5,
/// a static value 8 for 8, an executed model 1 for 1. Each buffer is
/// allocated once, after its count is bounded, so 4x holds; the constant
/// covers the error message.
fn decode_is_contained<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) -> Result<bool, TestCaseError> {
    let (res, allocated) = allocated_by(|| decode(bytes));
    prop_assert!(
        allocated <= 4 * bytes.len() + 1024,
        "decoding {} bytes allocated {allocated}",
        bytes.len()
    );
    match res {
        Ok(_) => Ok(true),
        Err(WireError::Malformed(_)) => Ok(false),
        Err(other) => Err(TestCaseError::fail(format!(
            "decoder returned {other:?}, not Malformed"
        ))),
    }
}

/// Truncate, bit-flip, or splice `frame` (with a slice of `donor`).
/// Returns the mutant and whether it must fail to decode.
fn mutate(frame: &[u8], donor: &[u8], kind: usize, a: usize, b: usize) -> (Vec<u8>, bool) {
    let at = a % frame.len();
    match kind {
        // A typed frame has no optional tail: every strict prefix is short.
        0 => (frame[..at].to_vec(), true),
        1 => {
            let mut m = frame.to_vec();
            m[at] ^= 1 << (b % 8);
            (m, false)
        }
        _ => {
            let mut m = frame[..at].to_vec();
            m.extend_from_slice(&donor[b % donor.len()..]);
            (m, false)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ShedReason` round-trips by variant name.
    #[test]
    fn shed_reason_round_trips(reason in arb_shed_reason()) {
        prop_assert_eq!(round_trip(&reason), reason);
    }

    /// `LabelResult` — the labels payload itself — survives the codec
    /// bit-exactly, floats included.
    #[test]
    fn label_result_round_trips(result in arb_label_result()) {
        let back = round_trip(&result);
        prop_assert_eq!(back.labels, result.labels);
        prop_assert_eq!(back.label_value.to_bits(), result.label_value.to_bits());
        prop_assert_eq!(back.recall.to_bits(), result.recall.to_bits());
    }

    /// Every `Completion` variant (the `Completion` frame body)
    /// round-trips.
    #[test]
    fn completion_round_trips(ev in arb_completion()) {
        round_trip(&ev);
    }

    /// `Request` frames round-trip with full scene content and arbitrary
    /// per-ticket economics.
    #[test]
    fn request_frames_round_trip(
        idx in 0usize..24,
        id in any::<u64>(),
        class in 0usize..8,
        deadline_us in (any::<bool>(), any::<u64>()).prop_map(|(s, v)| s.then_some(v)),
        value in (any::<bool>(), 0.0f64..1e9).prop_map(|(s, v)| s.then_some(v)),
    ) {
        let frame = ClientFrame::Request(WireRequest {
            id,
            item: truth().item(idx).clone(),
            class,
            deadline_us,
            value,
        });
        round_trip(&frame);
    }

    /// The decoder is total: arbitrary bytes either decode or error —
    /// they never panic, hang, or over-allocate.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_value(&bytes);
        decode_is_contained(&bytes, decode_client_frame)?;
        decode_is_contained(&bytes, decode_server_frame)?;
    }

    /// Typed codec, client direction: every variant round-trips, and
    /// re-encoding the decoded frame reproduces the bytes — floats are
    /// written as raw bits, so equal bytes means bit-equal floats (NaN
    /// payloads, `-0.0`, subnormals).
    #[test]
    fn client_frames_round_trip_bit_exactly(frame in wild_client_frame()) {
        let bytes = client_bytes(&frame);
        let back = decode_client_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        prop_assert_eq!(client_bytes(&back), bytes);
    }

    /// Typed codec, server direction: same property.
    #[test]
    fn server_frames_round_trip_bit_exactly(frame in wild_server_frame()) {
        let bytes = server_bytes(&frame);
        let back = decode_server_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        prop_assert_eq!(server_bytes(&back), bytes);
    }

    /// Differential: the typed round trip and the value-tree round trip
    /// of one frame agree, so the two encodings of a type cannot drift
    /// while the bench probes still time the value-tree one.
    #[test]
    fn typed_and_value_tree_round_trips_agree(
        client in wild_client_frame(),
        server in wild_server_frame(),
    ) {
        let typed = decode_client_frame(&client_bytes(&client)).expect("typed decodes");
        prop_assert_eq!(format!("{typed:?}"), format!("{:?}", via_value_tree(&client)));
        let typed = decode_server_frame(&server_bytes(&server)).expect("typed decodes");
        prop_assert_eq!(format!("{typed:?}"), format!("{:?}", via_value_tree(&server)));
    }

    /// Mutation fuzz over real frames: a truncated frame is always
    /// `Malformed`; a bit-flipped or spliced one decodes or is
    /// `Malformed`; none panics, none allocates past a fixed multiple of
    /// the bytes present.
    #[test]
    fn mutated_frames_fail_as_malformed_within_an_allocation_ceiling(
        idx in 0usize..24,
        result in arb_label_result(),
        kind in 0usize..3,
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let request = client_bytes(&ClientFrame::Request(WireRequest {
            id: a as u64,
            item: truth().item(idx).clone(),
            class: b % 4,
            deadline_us: (a % 2 == 0).then_some(b as u64),
            value: (b % 2 == 0).then_some(a as f64),
        }));
        let completion = server_bytes(&ServerFrame::Completion(Completion::Labeled(result)));

        let (mutant, must_fail) = mutate(&request, &completion, kind, a, b);
        let decoded = decode_is_contained(&mutant, decode_client_frame)?;
        prop_assert!(!(must_fail && decoded), "truncated request decoded");

        let (mutant, must_fail) = mutate(&completion, &request, kind, a, b);
        let decoded = decode_is_contained(&mutant, decode_server_frame)?;
        prop_assert!(!(must_fail && decoded), "truncated completion decoded");
    }
}

/// A hostile count claim on a 16-byte frame stays a 16-byte problem: the
/// claim is checked against the bytes present before anything is sized
/// by it.
#[test]
fn hostile_count_claims_do_not_allocate() {
    // Request: id 0, class 0, no flags, scene 0, then "2^62 outputs".
    let mut request = vec![0x02, 0, 0, 0, 0];
    request.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    request.resize(16, 0);
    // Labeled: ticket 0, class 0, then "2^62 labels".
    let mut labeled = vec![0x11, 0, 0];
    labeled.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    labeled.resize(16, 0);

    let (res, allocated) = allocated_by(|| decode_client_frame(&request));
    assert!(matches!(res, Err(WireError::Malformed(_))), "{res:?}");
    assert!(allocated < 256, "request count claim allocated {allocated}");
    let (res, allocated) = allocated_by(|| decode_server_frame(&labeled));
    assert!(matches!(res, Err(WireError::Malformed(_))), "{res:?}");
    assert!(allocated < 256, "label count claim allocated {allocated}");
}

/// One `Request` frame per fixture item, with the per-ticket options
/// varied by position.
fn fixture_requests() -> Vec<Vec<u8>> {
    truth()
        .items()
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let opts = SubmitOptions {
                class: i % 3,
                deadline_us: (i % 2 == 0).then_some(1000 + i as u64),
                value: (i % 3 == 0).then_some(i as f64 * 0.25),
            };
            let mut buf = Vec::new();
            encode_request(&mut buf, i as u64, item, &opts);
            buf
        })
        .collect()
}

/// The wire is unchanged: the FNV-1a digest of every fixture request's
/// bytes, as the per-model layout encoded them before items became flat
/// buffers.
#[test]
fn request_bytes_are_pinned() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in fixture_requests().iter().flatten() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(h, 0x6ef5_7248_6d32_923f);
}

/// Decoding a paper-shape request allocates each of the item's four
/// buffers once, exactly sized, whatever its detection count (8 to 29
/// allocations per frame under the per-model layout).
#[test]
fn decoding_a_request_allocates_once_per_item_buffer() {
    for bytes in fixture_requests() {
        let (frame, allocations) = allocations_by(|| decode_client_frame(&bytes));
        let Ok(ClientFrame::Request(req)) = frame else {
            panic!("a fixture request decodes");
        };
        assert_eq!(allocations, 4, "item {}", req.item.scene_id);
        let item = &req.item;
        assert!(!item.valuable.is_empty() && !item.detections.is_empty());
    }
}

fn lossless_server() -> AmsServer {
    AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    )
}

/// One whole `Hello` frame, length prefix included.
fn hello_frame(window: u64) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_append(&mut frame, |buf| {
        encode_client_frame(&ClientFrame::Hello { window }, buf)
    })
    .expect("a hello fits a frame");
    frame
}

/// The server hung up on this connection: the next read sees EOF or a
/// reset, not a timeout.
fn assert_closed_by_peer(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("server answered a connection it should have closed"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "server left the connection open"
        ),
    }
}

/// Hostile framing: truncated length prefixes, oversized frame claims,
/// garbage payloads, a foreign-version and an unknown-tag `Hello`, and a
/// mid-protocol corruption after a real request.
/// Each bad connection must die cleanly — no panic, no leaked ticket —
/// while a well-behaved client on another connection keeps being served,
/// and the final report still reconciles bucket-for-bucket against the
/// event stream.
#[test]
fn malformed_frames_error_cleanly_without_leaking_tickets() {
    let net = NetServer::bind(lossless_server(), "127.0.0.1:0").expect("bind");
    let addr = net.local_addr();

    // 1. Truncated length prefix: two bytes, then EOF.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&[0x07, 0x00]).expect("write");
    drop(s);

    // 2. Oversized frame claim: a length prefix beyond MAX_FRAME. The
    //    server must refuse before allocating, not read 4 GiB.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&u32::MAX.to_le_bytes()).expect("write");
    // The server closes; a subsequent read sees EOF rather than a hang.
    drop(s);

    // 3. Garbage payload under a valid length prefix.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&8u32.to_le_bytes()).expect("write");
    s.write_all(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x11, 0x22])
        .expect("write");
    drop(s);

    // 4. A `Hello` announcing a protocol version this build does not
    //    speak, and a first frame whose tag names no frame at all: the
    //    server closes at the handshake — before a window, let alone a
    //    ticket, exists — instead of mis-parsing what follows.
    let mut foreign = hello_frame(8);
    assert_eq!(foreign[5], PROTOCOL_VERSION, "version byte follows the tag");
    foreign[5] = PROTOCOL_VERSION + 1;
    let mut unknown = hello_frame(8);
    unknown[4] = 0x7f;
    for bad_hello in [foreign, unknown] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&bad_hello).expect("write");
        assert_closed_by_peer(&mut s);
    }

    // 5. A valid handshake and a real submission, then an abrupt close
    //    with the request possibly still in flight: the issued ticket
    //    must resolve (disconnect == cancel-all), not leak — whether the
    //    label beat the disconnect or not, it is accounted.
    let poisoned = NetClient::connect_with_window(addr, 8).expect("connect");
    poisoned
        .submit(Arc::new(truth().item(0).clone()))
        .expect("submit");
    drop(poisoned);

    // A well-behaved client is still served after all of the above.
    let good = NetClient::connect_with_window(addr, 16).expect("connect");
    for item in truth().items().iter().take(8) {
        good.submit(Arc::new(item.clone())).expect("submit");
    }
    let events = good.drain().expect("drain");
    assert_eq!(events.len(), 8, "good client gets every completion");
    assert!(
        events
            .iter()
            .all(|e| e.completion().and_then(|c| c.labeled()).is_some()),
        "lossless config labels everything"
    );
    good.goodbye().expect("goodbye");
    drop(good);

    let report = net.shutdown();
    // The poisoned connection's ticket either completed or was cancelled
    // by the disconnect; nothing is lost or double-counted.
    assert_eq!(report.offered, 9, "one poisoned + eight good submissions");
    assert!(report.is_conserved(), "no ticket leaked");
    assert!(report.events_reconcile(), "event stream matches the ledger");
}

/// A frame that is well-formed but has no business arriving at a server
/// (a `Rejected`, which only servers send) is an error, not a panic, and
/// closes the connection.
#[test]
fn well_formed_but_wrong_shape_frame_closes_the_connection() {
    let net = NetServer::bind(lossless_server(), "127.0.0.1:0").expect("bind");
    let addr = net.local_addr();

    let mut s = TcpStream::connect(addr).expect("connect");
    // A valid Hello so the connection opens...
    s.write_all(&hello_frame(4)).unwrap();
    // ...then a perfectly valid frame of the wrong direction.
    let mut bogus = Vec::new();
    frame_append(&mut bogus, |buf| {
        encode_server_frame(&ServerFrame::Rejected { id: 7 }, buf)
    })
    .expect("fits a frame");
    s.write_all(&bogus).unwrap();
    assert_closed_by_peer(&mut s);
    drop(s);

    let report = net.shutdown();
    assert_eq!(report.offered, 0, "nothing was ever submitted");
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}
