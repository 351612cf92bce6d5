//! The wire format of the TCP front-end: the frame vocabulary and its
//! byte layout. This is the only module that knows the layout —
//! [`crate::net`] moves whole frames and never looks inside one.
//!
//! A frame is a 4-byte little-endian payload length (`1..=`[`MAX_FRAME`])
//! followed by the payload: one tag byte, then the tagged frame's fields
//! in a fixed order with nothing self-describing between them.
//!
//! | field type                           | encoding                           |
//! |--------------------------------------|------------------------------------|
//! | `u64` ids, `usize`, counts, `LabelId`| LEB128 varint (range-checked back) |
//! | `ModelId`, `ShedReason`, `bool`, flags | one raw byte (range-checked)     |
//! | `f32` / `f64`                        | raw little-endian IEEE-754 bits    |
//! | `Vec<T>`                             | varint count, then the elements    |
//!
//! | tag    | frame                  | fields, in order                                   |
//! |--------|------------------------|----------------------------------------------------|
//! | `0x01` | `ClientFrame::Hello`   | version byte ([`PROTOCOL_VERSION`]), `window`      |
//! | `0x02` | `ClientFrame::Request` | `id`, `class`, flags (bit 0 deadline, bit 1 value), `deadline_us` if flagged, `value` if flagged, *item* |
//! | `0x03` | `ClientFrame::Cancel`  | `id`                                               |
//! | `0x04` | `ClientFrame::Goodbye` | —                                                  |
//! | `0x11` | `Completion::Labeled`  | `ticket`, `class`, `labels` as (label, `f32`) pairs, `executed`, `label_value`, `banked_value`, `recall`, `queue_wait_us`, `execute_us`, `deadline_met` |
//! | `0x12` | `Completion::Shed`     | `ticket`, `class`, reason byte (`0..=3`, declaration order) |
//! | `0x13` | `Completion::Cancelled`| `ticket`, `class`                                  |
//! | `0x14` | `ServerFrame::Rejected`| `id`                                               |
//!
//! *item* is an [`ItemTruth`]: `scene_id`, the runs (each a model byte
//! and its run of detections as (label, `f32`) pairs; a run's end in the
//! run table is the running sum of these counts), `valuable` as (label,
//! `f32`) pairs, `total_value`, `model_value`.
//!
//! Floats travel as their bits, so labels received over TCP are
//! **byte-identical** to the in-process client's (NaN payloads, `-0.0`
//! and subnormals included). Encoding borrows its input and appends to a
//! caller-owned buffer; decoding is total — truncation, a count claiming
//! more elements than the remaining bytes could hold (checked *before*
//! allocating), out-of-range integers, unknown tags, flag or enum bytes,
//! a foreign protocol version and trailing bytes all return
//! [`WireError::Malformed`], never a panic.
//!
//! [`encode_value`] / [`decode_value`] are a separate, self-describing
//! encoding of the vendored serde [`Value`] tree. Nothing on the
//! connection path uses it; `bench/`'s probes and `tests/wire_props.rs`
//! keep it as the generic interchange format. It shares only the varint and
//! the bounded-count primitives with the frame codec.

use crate::completion::{Completion, LabelResult, ShedReason};
use crate::server::SubmitOptions;
use ams_data::ItemTruth;
use ams_models::{Detection, LabelId, ModelId};
use serde::{Deserialize, Serialize, Value};
use std::io::ErrorKind;

/// Hard cap on one frame's payload, bytes. A length prefix above this is
/// a protocol error — the connection closes before allocating anything —
/// and a frame that would encode larger is refused before it is written.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The layout revision a `Hello` announces. A peer announcing any other
/// value is refused at the handshake instead of being mis-parsed.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes of the length prefix in front of every payload.
pub(crate) const PREFIX: usize = 4;

/// Maximum nesting depth the value decoder accepts — a crafted payload
/// of nested arrays must error out, not overflow the stack.
const MAX_DEPTH: u32 = 64;

// ---------------------------------------------------------------------------
// Wire errors
// ---------------------------------------------------------------------------

/// Why a wire operation failed. Every failure path through the codec and
/// the connection handlers lands here — malformed input never panics.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// The peer closed the connection (EOF, possibly mid-frame), or an
    /// earlier fatal error already did.
    Closed,
    /// A frame length of zero or above [`MAX_FRAME`]: a received length
    /// prefix, or a frame refused before sending.
    FrameTooLarge(u32),
    /// The frame payload did not decode (truncated, unknown tag, a count
    /// beyond the bytes present, an out-of-range integer, flag or enum
    /// byte, a foreign protocol version, trailing bytes).
    Malformed(String),
    /// A well-formed frame that violates the protocol (first frame not
    /// `Hello`, duplicate request id, frame after `Goodbye`).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::FrameTooLarge(n) => write!(f, "frame length {n} outside 1..={MAX_FRAME}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One submission travelling client → server: the scene content plus the
/// ticket's own economics. `id` is chosen by the client and echoed in
/// the terminal [`ServerFrame`]; it must be unique among the
/// connection's in-flight requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen request id, echoed in the completion.
    pub id: u64,
    /// The scene to label (full content — the server fingerprints it for
    /// the cache and affinity routing exactly like a local submission).
    pub item: ItemTruth,
    /// SLO class (aggregation bucket; clamped server-side).
    pub class: usize,
    /// Optional per-ticket deadline override, µs.
    pub deadline_us: Option<u64>,
    /// Optional per-ticket value override.
    pub value: Option<f64>,
}

/// Frames travelling client → server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Mandatory first frame: size the connection's completion window
    /// (clamped to `1..=`[`MAX_WINDOW`](crate::net::MAX_WINDOW)). The
    /// window is the flow control — the server stops reading the socket
    /// while it is full. On the wire it also carries
    /// [`PROTOCOL_VERSION`].
    Hello {
        /// Requested window: maximum in-flight (unanswered) requests.
        window: u64,
    },
    /// Submit one item for labeling.
    Request(WireRequest),
    /// Cancel an in-flight request by its client-chosen id. Exactly like
    /// [`Ticket::cancel`](crate::Ticket::cancel): wins only while the
    /// request is unclaimed, and the terminal completion reports what
    /// actually happened.
    Cancel {
        /// The client-chosen id of the request to cancel.
        id: u64,
    },
    /// Graceful close: the server stops reading, lets every outstanding
    /// ticket resolve, delivers the remaining completions, and closes.
    Goodbye,
}

/// Frames travelling server → client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerFrame {
    /// The terminal event of one request. The embedded completion's
    /// ticket field carries the **client-chosen request id**, not the
    /// server-internal ticket id.
    Completion(Completion),
    /// The submission was refused synchronously (shard queue full under
    /// the reject policy, or the server is shutting down): no ticket was
    /// issued and no completion will follow. The in-process analogue is
    /// `SubmitOutcome::Rejected`.
    Rejected {
        /// The client-chosen id of the refused request.
        id: u64,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_REQUEST: u8 = 0x02;
const TAG_CANCEL: u8 = 0x03;
const TAG_GOODBYE: u8 = 0x04;
const TAG_LABELED: u8 = 0x11;
const TAG_SHED: u8 = 0x12;
const TAG_CANCELLED: u8 = 0x13;
const TAG_REJECTED: u8 = 0x14;

const FLAG_DEADLINE: u8 = 0b01;
const FLAG_VALUE: u8 = 0b10;

/// Shed reasons by wire byte (declaration order).
const SHED_REASONS: [ShedReason; 4] = [
    ShedReason::Admission,
    ShedReason::Overflow,
    ShedReason::Deadline,
    ShedReason::Drain,
];

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Append one frame to `buf`: the length prefix, then whatever `encode`
/// appends, with the prefix patched in place — the caller hands the whole
/// buffer (one frame or several) to a single `write_all`. An empty or
/// over-[`MAX_FRAME`] payload returns [`WireError::FrameTooLarge`] and
/// leaves `buf` as it was.
pub fn frame_append(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    let at = buf.len();
    buf.extend_from_slice(&[0; PREFIX]);
    encode(buf);
    let len = u32::try_from(buf.len() - at - PREFIX).unwrap_or(u32::MAX);
    if len == 0 || len > MAX_FRAME {
        buf.truncate(at);
        return Err(WireError::FrameTooLarge(len));
    }
    buf[at..at + PREFIX].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// The payload length a received length prefix announces, refusing zero
/// and anything above [`MAX_FRAME`] before the caller allocates for it.
pub fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let n = u32::from_le_bytes(prefix);
    if n == 0 || n > MAX_FRAME {
        return Err(WireError::FrameTooLarge(n));
    }
    Ok(n as usize)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f32(out: &mut Vec<u8>, f: f32) {
    out.extend_from_slice(&f.to_bits().to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, f: f64) {
    out.extend_from_slice(&f.to_bits().to_le_bytes());
}

fn put_scored(out: &mut Vec<u8>, label: LabelId, score: f32) {
    put_varint(out, u64::from(label.0));
    put_f32(out, score);
}

fn put_item(out: &mut Vec<u8>, item: &ItemTruth) {
    put_varint(out, item.scene_id);
    put_varint(out, item.runs.len() as u64);
    for output in item.outputs() {
        out.push(output.model.0);
        put_varint(out, output.detections.len() as u64);
        for d in output.detections {
            put_scored(out, d.label, d.confidence);
        }
    }
    put_varint(out, item.valuable.len() as u64);
    for &(label, profit) in item.valuable.iter() {
        put_scored(out, label, profit);
    }
    put_f64(out, item.total_value);
    put_varint(out, item.model_value.len() as u64);
    for &v in item.model_value.iter() {
        put_f64(out, v);
    }
}

/// Append a `Request` frame's payload from borrowed parts — what
/// [`encode_client_frame`] writes for an owned [`WireRequest`], without
/// needing one.
pub fn encode_request(out: &mut Vec<u8>, id: u64, item: &ItemTruth, opts: &SubmitOptions) {
    out.push(TAG_REQUEST);
    put_varint(out, id);
    put_varint(out, opts.class as u64);
    let mut flags = 0;
    if opts.deadline_us.is_some() {
        flags |= FLAG_DEADLINE;
    }
    if opts.value.is_some() {
        flags |= FLAG_VALUE;
    }
    out.push(flags);
    if let Some(us) = opts.deadline_us {
        put_varint(out, us);
    }
    if let Some(v) = opts.value {
        put_f64(out, v);
    }
    put_item(out, item);
}

/// Append one client → server frame's payload.
pub fn encode_client_frame(frame: &ClientFrame, out: &mut Vec<u8>) {
    match frame {
        ClientFrame::Hello { window } => {
            out.push(TAG_HELLO);
            out.push(PROTOCOL_VERSION);
            put_varint(out, *window);
        }
        ClientFrame::Request(req) => {
            let opts = SubmitOptions {
                class: req.class,
                deadline_us: req.deadline_us,
                value: req.value,
            };
            encode_request(out, req.id, &req.item, &opts);
        }
        ClientFrame::Cancel { id } => {
            out.push(TAG_CANCEL);
            put_varint(out, *id);
        }
        ClientFrame::Goodbye => out.push(TAG_GOODBYE),
    }
}

/// Append one server → client frame's payload.
pub fn encode_server_frame(frame: &ServerFrame, out: &mut Vec<u8>) {
    match frame {
        ServerFrame::Completion(Completion::Labeled(r)) => {
            out.push(TAG_LABELED);
            put_varint(out, r.ticket);
            put_varint(out, r.class as u64);
            put_varint(out, r.labels.len() as u64);
            for &(label, confidence) in &r.labels {
                put_scored(out, label, confidence);
            }
            put_varint(out, r.executed.len() as u64);
            out.extend(r.executed.iter().map(|m| m.0));
            put_f64(out, r.label_value);
            put_f64(out, r.banked_value);
            put_f64(out, r.recall);
            put_varint(out, r.queue_wait_us);
            put_varint(out, r.execute_us);
            out.push(u8::from(r.deadline_met));
        }
        ServerFrame::Completion(Completion::Shed {
            ticket,
            class,
            reason,
        }) => {
            out.push(TAG_SHED);
            put_varint(out, *ticket);
            put_varint(out, *class as u64);
            out.push(*reason as u8);
        }
        ServerFrame::Completion(Completion::Cancelled { ticket, class }) => {
            out.push(TAG_CANCELLED);
            put_varint(out, *ticket);
            put_varint(out, *class as u64);
        }
        ServerFrame::Rejected { id } => {
            out.push(TAG_REJECTED);
            put_varint(out, *id);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// No-panic zone (LINTS.md) from here to `decode_value`: the decode path
// parses hostile bytes, so a malformed frame must produce
// WireError::Malformed, never a panic.

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
fn malformed(what: impl Into<String>) -> WireError {
    WireError::Malformed(what.into())
}

#[derive(Clone)]
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
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
impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| malformed("truncated frame"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.slice(N)?
            .try_into()
            .map_err(|_| malformed("truncated frame"))
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| malformed("truncated frame"))?;
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(malformed("varint overflows u64"));
            }
            n |= low << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(malformed("varint longer than 10 bytes"))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        usize::try_from(n).map_err(|_| malformed(format!("integer {n} out of range")))
    }

    fn label(&mut self) -> Result<LabelId, WireError> {
        let n = self.varint()?;
        u16::try_from(n)
            .map(LabelId)
            .map_err(|_| malformed(format!("label id {n} out of range")))
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("flag byte {b:#04x} is neither 0 nor 1"))),
        }
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(u32::from_le_bytes(self.take()?)))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take()?)))
    }

    /// A claimed element count, sanity-bounded by the bytes actually
    /// present (every element costs at least `min_bytes`), so a hostile
    /// length claim cannot drive a huge allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.varint()?;
        let ceiling = (self.remaining() / min_bytes.max(1)) as u64;
        if n > ceiling {
            return Err(malformed(format!("count {n} exceeds remaining payload")));
        }
        Ok(n as usize)
    }

    /// A counted sequence whose elements each occupy at least
    /// `min_bytes` on the wire; allocates only after [`Cursor::count`]
    /// has bounded the claim.
    fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(elem(self)?);
        }
        Ok(items)
    }

    /// (label, `f32`) pairs: at least one varint byte and four float
    /// bytes each.
    fn scored(&mut self) -> Result<Vec<(LabelId, f32)>, WireError> {
        self.seq(5, |c| Ok((c.label()?, c.f32()?)))
    }

    /// An item, decoded straight into its four exact-size buffers: a first
    /// pass over a copy of the cursor skips through the runs and counts
    /// their detections, so each buffer is allocated once. The skip is
    /// lenient (the decoding pass checks every field), and on a frame that
    /// decodes it walks the same bytes, so its count is exact.
    fn item(&mut self) -> Result<ItemTruth, WireError> {
        let scene_id = self.varint()?;
        let mut scan = self.clone();
        let mut total = 0usize;
        for _ in 0..scan.count(2)? {
            scan.byte()?;
            let k = scan.count(5)?;
            for _ in 0..k {
                // Skip a (label, `f32`) pair: the varint's bytes, then four.
                while scan.byte()? & 0x80 != 0 {}
                scan.slice(4)?;
            }
            total += k;
        }
        let n = self.count(2)?;
        let mut runs = Vec::with_capacity(n);
        let mut detections = Vec::with_capacity(total);
        for _ in 0..n {
            let model = ModelId(self.byte()?);
            for _ in 0..self.count(5)? {
                detections.push(Detection {
                    label: self.label()?,
                    confidence: self.f32()?,
                });
            }
            let end = u32::try_from(detections.len())
                .map_err(|_| malformed("more detections than a run table can index"))?;
            runs.push((model, end));
        }
        let valuable = self.scored()?;
        let total_value = self.f64()?;
        let model_value = self.seq(8, Self::f64)?;
        // Each end is the running sum of the counts, so the run table is
        // consistent; every capacity is exact, so `into` does not reallocate.
        Ok(ItemTruth {
            scene_id,
            runs: runs.into(),
            detections: detections.into(),
            valuable: valuable.into(),
            total_value,
            model_value: model_value.into(),
        })
    }

    fn request(&mut self) -> Result<WireRequest, WireError> {
        let id = self.varint()?;
        let class = self.usize()?;
        let flags = self.byte()?;
        if flags & !(FLAG_DEADLINE | FLAG_VALUE) != 0 {
            return Err(malformed(format!("unknown request flags {flags:#04x}")));
        }
        let deadline_us = if flags & FLAG_DEADLINE != 0 {
            Some(self.varint()?)
        } else {
            None
        };
        let value = if flags & FLAG_VALUE != 0 {
            Some(self.f64()?)
        } else {
            None
        };
        Ok(WireRequest {
            id,
            item: self.item()?,
            class,
            deadline_us,
            value,
        })
    }

    fn label_result(&mut self) -> Result<LabelResult, WireError> {
        Ok(LabelResult {
            ticket: self.varint()?,
            class: self.usize()?,
            labels: self.scored()?,
            executed: self.seq(1, |c| c.byte().map(ModelId))?,
            label_value: self.f64()?,
            banked_value: self.f64()?,
            recall: self.f64()?,
            queue_wait_us: self.varint()?,
            execute_us: self.varint()?,
            deadline_met: self.flag()?,
        })
    }

    fn shed_reason(&mut self) -> Result<ShedReason, WireError> {
        let b = self.byte()?;
        SHED_REASONS
            .get(usize::from(b))
            .copied()
            .ok_or_else(|| malformed(format!("unknown shed reason {b:#04x}")))
    }

    /// Strict end of payload: bytes after the last field are an error.
    fn finish<T>(self, frame: T) -> Result<T, WireError> {
        match self.remaining() {
            0 => Ok(frame),
            n => Err(malformed(format!("{n} trailing bytes after frame"))),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let bytes = self.slice(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8 in string"))
    }

    fn value(&mut self, depth: u32) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(malformed("value nested too deeply"));
        }
        match self.byte()? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_FALSE => Ok(Value::Bool(false)),
            VALUE_TRUE => Ok(Value::Bool(true)),
            VALUE_U64 => Ok(Value::U64(self.varint()?)),
            VALUE_I64 => {
                let z = self.varint()?;
                Ok(Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            VALUE_F64 => Ok(Value::F64(self.f64()?)),
            VALUE_STR => Ok(Value::Str(self.string()?)),
            VALUE_ARRAY => Ok(Value::Array(self.seq(1, |c| c.value(depth + 1))?)),
            VALUE_OBJECT => Ok(Value::Object(
                self.seq(2, |c| Ok((c.string()?, c.value(depth + 1)?)))?,
            )),
            tag => Err(malformed(format!("unknown value tag {tag:#04x}"))),
        }
    }
}

/// Decode one client → server frame payload. Total and strict: see the
/// module docs.
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
pub fn decode_client_frame(payload: &[u8]) -> Result<ClientFrame, WireError> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match cur.byte()? {
        TAG_HELLO => {
            let version = cur.byte()?;
            if version != PROTOCOL_VERSION {
                return Err(malformed(format!(
                    "peer speaks wire version {version}, this build speaks {PROTOCOL_VERSION}"
                )));
            }
            ClientFrame::Hello {
                window: cur.varint()?,
            }
        }
        TAG_REQUEST => ClientFrame::Request(cur.request()?),
        TAG_CANCEL => ClientFrame::Cancel { id: cur.varint()? },
        TAG_GOODBYE => ClientFrame::Goodbye,
        tag => return Err(malformed(format!("unknown client frame tag {tag:#04x}"))),
    };
    cur.finish(frame)
}

/// Decode one server → client frame payload. Total and strict: see the
/// module docs.
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
pub fn decode_server_frame(payload: &[u8]) -> Result<ServerFrame, WireError> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let frame = match cur.byte()? {
        TAG_LABELED => ServerFrame::Completion(Completion::Labeled(cur.label_result()?)),
        TAG_SHED => ServerFrame::Completion(Completion::Shed {
            ticket: cur.varint()?,
            class: cur.usize()?,
            reason: cur.shed_reason()?,
        }),
        TAG_CANCELLED => ServerFrame::Completion(Completion::Cancelled {
            ticket: cur.varint()?,
            class: cur.usize()?,
        }),
        TAG_REJECTED => ServerFrame::Rejected { id: cur.varint()? },
        tag => return Err(malformed(format!("unknown server frame tag {tag:#04x}"))),
    };
    cur.finish(frame)
}

/// Decode one value tree from the compact binary form. Strict: trailing
/// bytes after the root value are an error, and no input panics.
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
pub fn decode_value(buf: &[u8]) -> Result<Value, WireError> {
    let mut cur = Cursor { buf, pos: 0 };
    let v = cur.value(0)?;
    cur.finish(v)
}

// ---------------------------------------------------------------------------
// Value-tree interchange encoding (files, not connections)
// ---------------------------------------------------------------------------

const VALUE_NULL: u8 = 0x00;
const VALUE_FALSE: u8 = 0x01;
const VALUE_TRUE: u8 = 0x02;
const VALUE_U64: u8 = 0x03;
const VALUE_I64: u8 = 0x04;
const VALUE_F64: u8 = 0x05;
const VALUE_STR: u8 = 0x06;
const VALUE_ARRAY: u8 = 0x07;
const VALUE_OBJECT: u8 = 0x08;

/// Encode one value tree into the compact binary form. Total: every
/// value encodes, and `decode_value` of the result returns an equal tree
/// (floats bit-exactly — they travel as raw IEEE-754 bits, unlike the
/// JSON text path).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(VALUE_NULL),
        Value::Bool(false) => out.push(VALUE_FALSE),
        Value::Bool(true) => out.push(VALUE_TRUE),
        Value::U64(n) => {
            out.push(VALUE_U64);
            put_varint(out, *n);
        }
        Value::I64(n) => {
            // ZigZag so small negatives stay small.
            out.push(VALUE_I64);
            put_varint(out, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::F64(f) => {
            out.push(VALUE_F64);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(VALUE_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(VALUE_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(VALUE_OBJECT);
            put_varint(out, fields.len() as u64);
            for (k, val) in fields {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let back = decode_value(&buf).expect("round trip decodes");
        // Debug compare instead of PartialEq so NaN round trips count.
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
        // Float bit-exactness is the whole point of the binary codec.
        if let (Value::F64(a), Value::F64(b)) = (&v, &back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_round_trips_scalars_and_containers() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::U64(u64::MAX));
        round_trip(Value::I64(-1));
        round_trip(Value::I64(i64::MIN));
        round_trip(Value::F64(0.1 + 0.2));
        round_trip(Value::F64(f64::NAN)); // bit-compare via to_bits path
        round_trip(Value::Str("héllo".into()));
        round_trip(Value::Array(vec![Value::U64(1), Value::Str("x".into())]));
        round_trip(Value::Object(vec![
            ("a".into(), Value::Null),
            ("b".into(), Value::Array(vec![Value::F64(1.5)])),
        ]));
    }

    #[test]
    fn decoder_rejects_garbage_without_panicking() {
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[0xff]).is_err());
        assert!(decode_value(&[VALUE_STR, 0x05, b'a']).is_err()); // truncated string
        assert!(decode_value(&[VALUE_ARRAY, 0xff, 0xff, 0xff, 0x7f]).is_err()); // huge count
        assert!(decode_value(&[VALUE_NULL, VALUE_NULL]).is_err()); // trailing bytes
        let deep: Vec<u8> = std::iter::repeat_n([VALUE_ARRAY, 1], 1000)
            .flatten()
            .collect();
        assert!(decode_value(&deep).is_err()); // nesting bomb
    }

    #[test]
    fn frame_append_patches_the_prefix_and_refuses_an_empty_payload() {
        let mut buf = Vec::new();
        frame_append(&mut buf, |out| out.extend_from_slice(b"abc")).expect("three bytes fit");
        assert_eq!(buf, [3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(payload_len([3, 0, 0, 0]).expect("in range"), 3);
        // Appending keeps what is there, and a refused frame leaves no
        // half-written prefix behind it.
        frame_append(&mut buf, |out| out.extend_from_slice(b"yz")).expect("two bytes fit");
        assert_eq!(buf, [3, 0, 0, 0, b'a', b'b', b'c', 2, 0, 0, 0, b'y', b'z']);
        assert!(matches!(
            frame_append(&mut buf, |_| {}),
            Err(WireError::FrameTooLarge(0))
        ));
        assert_eq!(buf.len(), 13);
        assert!(matches!(
            payload_len((MAX_FRAME + 1).to_le_bytes()),
            Err(WireError::FrameTooLarge(_))
        ));
    }
}
