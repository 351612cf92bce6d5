//! TCP front-end for the serving engine: the ticket protocol over a
//! socket.
//!
//! The PR-5 client API (`Client` / `Ticket` / `Completion`) was shaped
//! like a wire protocol on purpose; this module gives it a real
//! transport so the scheduler can serve clients in other processes (and,
//! eventually, other machines) without changing what it computes:
//!
//! * **Framing** — length-prefixed frames in the hand-written typed
//!   binary layout of [`crate::wire`] (its module docs hold the
//!   byte-layout table: tags, field order, the `Hello` version byte).
//!   This module moves whole frames and never looks inside one: a frame
//!   is encoded from borrowed data into the connection's one reused
//!   buffer and written with a single `write_all` (the server's writer
//!   thread encodes every completion that is ready and writes them
//!   together); socket bytes land in the connection's one reused read
//!   buffer, which hands out as many whole frames as one `read` brought,
//!   each decoded straight into the frame type. Floats travel as raw
//!   IEEE-754 bits, so labels received over TCP are **byte-identical** to
//!   the in-process client's, and the decoder is total: any malformed
//!   payload returns [`WireError`] — never a panic.
//! * **Multiplexing** — one persistent connection carries many tickets.
//!   The client picks a request id per submission and the server echoes
//!   it in the terminal [`ServerFrame::Completion`] (the embedded
//!   [`Completion`]'s ticket field is rewritten to the request id), so
//!   responses arrive in completion order, not submission order.
//! * **Flow control** — the connection's `Hello { window }` sizes a
//!   server-side per-connection [`crate::Client`] completion
//!   window. When the window is full the connection's reader thread
//!   blocks in `submit_with` and **stops reading the socket**; TCP
//!   backpressure propagates the stall to the remote client, exactly
//!   mirroring how the in-process `CompletionQueue` bounds a local
//!   submitter. [`NetClient`] enforces the same bound locally, so a
//!   well-behaved client never even fills the kernel buffers.
//! * **Lifecycle** — `Goodbye` closes gracefully (outstanding tickets
//!   still resolve and their completions are delivered); an abrupt
//!   disconnect (EOF, reset, malformed frame) cancels every outstanding
//!   ticket of that connection — cancellation already races correctly
//!   against claim/shed via the CAS completion slots, so a worker
//!   mid-label simply completes into a closed socket and the event is
//!   dropped *after* it balanced the ledgers. Either way the
//!   conservation equations and `events_reconcile()` hold, and other
//!   connections keep serving.
//!
//! Synchronously refused submissions (queue full under the reject
//! policy, server shut down) have no in-process completion event — the
//! caller sees `SubmitOutcome::Rejected`. Over the wire every request id
//! must get an answer, so the connection sends
//! [`ServerFrame::Rejected`] instead.

use crate::completion::Completion;
use crate::server::{AmsServer, Client, ServeReport, SubmitOptions};
use crate::wire;
use ams_data::ItemTruth;
use ams_models::LabelId;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::wire::{
    decode_value, encode_value, ClientFrame, ServerFrame, WireError, WireRequest, MAX_FRAME,
};

/// Cap on the per-connection completion window a `Hello` may request.
pub const MAX_WINDOW: u64 = 65_536;

/// How often blocked socket reads and completion waits re-check their
/// stop conditions.
const POLL: Duration = Duration::from_millis(50);

/// What [`NetClient::recv`] yields: a terminal completion (with the
/// ticket field already carrying the client-chosen request id) or a
/// synchronous rejection.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// The request's terminal event; `completion.ticket()` is the
    /// client-chosen request id.
    Completion(Completion),
    /// The request was refused synchronously; no labels exist.
    Rejected {
        /// The client-chosen id of the refused request.
        id: u64,
    },
}

impl NetEvent {
    /// The client-chosen request id this event answers.
    pub fn id(&self) -> u64 {
        match self {
            NetEvent::Completion(c) => c.ticket(),
            NetEvent::Rejected { id } => *id,
        }
    }

    /// The completion, when the request got one.
    pub fn completion(&self) -> Option<&Completion> {
        match self {
            NetEvent::Completion(c) => Some(c),
            NetEvent::Rejected { .. } => None,
        }
    }
}

/// Rewrite the ticket id inside a completion to the client-chosen
/// request id before it crosses the wire.
fn with_wire_id(mut ev: Completion, id: u64) -> Completion {
    match &mut ev {
        Completion::Labeled(r) => r.ticket = id,
        Completion::Shed { ticket, .. } | Completion::Cancelled { ticket, .. } => *ticket = id,
    }
    ev
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// The write half of a connection and its reused encode buffer. Frames
/// are built whole in the buffer — one, or as many as are ready — and
/// leave in a single `write_all`, so frames from the threads sharing a
/// connection's writer lock never interleave. The buffer is empty
/// whenever the lock is free.
struct FrameWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A writer with this much encoded flushes before encoding more, so a
/// large completion backlog cannot be doubled in memory as one buffer.
const WRITE_COALESCE: usize = 256 * 1024;

impl FrameWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    /// Frame what `encode` appends behind the frames already pushed;
    /// nothing is written until [`FrameWriter::flush`]. An
    /// over-[`MAX_FRAME`] frame fails with [`WireError::FrameTooLarge`]
    /// and is dropped from the buffer.
    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        wire::frame_append(&mut self.buf, encode)
    }

    /// Write every pushed frame with one `write_all`. An error may leave
    /// a partial frame on the stream, so the connection is unusable after
    /// it.
    fn flush(&mut self) -> Result<(), WireError> {
        let res = self.stream.write_all(&self.buf);
        self.buf.clear();
        Ok(res?)
    }

    /// Frame what `encode` appends and write it; a refused frame wrote
    /// nothing.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        self.push(encode)?;
        self.flush()
    }
}

// ams-lint: begin(no-panic) frame read path — feeds raw socket bytes to
// the decoder; connection handlers must fail with WireError, not die

/// Initial size of a connection's read buffer: one `read` fills as much
/// of it as the socket holds, so back-to-back frames cost one syscall
/// between them, not two each.
const READ_CHUNK: usize = 64 * 1024;

/// The read half of a connection and its reused buffer. Socket bytes land
/// in `buf[..end]`; `start..end` is received but not yet handed out. The
/// buffer grows only to fit the largest frame seen (at most
/// [`MAX_FRAME`] plus its prefix) and is never read into beyond its
/// length, so a reader that stops calling [`FrameReader::next`] (the
/// connection's window is full) leaves everything past this one buffer
/// in the socket, where TCP backpressure can see it.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// The next frame's payload: straight from the buffer when a whole
    /// frame is already there, after as many `read`s as it takes
    /// otherwise. The length prefix is checked before the buffer is sized
    /// for it. Read timeouts re-check `stop` (so a server-side reader
    /// notices shutdown while blocked) and keep every partial byte.
    fn next(&mut self, stop: &AtomicBool) -> Result<&[u8], WireError> {
        loop {
            // ams-lint: allow(no-panic) start <= end <= buf.len() is this struct's invariant
            let pending = &self.buf[self.start..self.end];
            let need = match pending.split_first_chunk::<{ wire::PREFIX }>() {
                Some((prefix, rest)) => {
                    let len = wire::payload_len(*prefix)?;
                    if rest.len() >= len {
                        let at = self.start + wire::PREFIX;
                        self.start = at + len;
                        // ams-lint: allow(no-panic) at + len <= end: `rest` was measured inside start..end
                        return Ok(&self.buf[at..at + len]);
                    }
                    wire::PREFIX + len
                }
                None => wire::PREFIX,
            };
            // The frame in progress must fit behind `start`: slide the
            // partial bytes to the front, then grow if even that is short.
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            // ams-lint: allow(no-panic) end < start + need <= buf.len(), so the target is in range and non-empty
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(WireError::Closed),
                Ok(n) => self.end += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::Relaxed) {
                        return Err(WireError::Closed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

// ams-lint: end(no-panic)

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Per-connection request-id bookkeeping, shared between the reader
/// (inserts after `submit_with` returns the ticket) and the writer
/// (resolves ticket ids back to request ids as completions arrive).
///
/// A completion can be delivered *during* `submit_with` (cache hit,
/// admission shed) — before the reader has inserted the mapping — so the
/// writer waits on the condvar for a mapping it cannot find yet.
#[derive(Default)]
struct ConnMaps {
    state: Mutex<ConnMapState>,
    mapped: Condvar,
}

#[derive(Default)]
struct ConnMapState {
    /// request id → ticket (for `Cancel` frames and disconnect
    /// cancel-all).
    by_req: HashMap<u64, crate::Ticket>,
    /// ticket id → request id (for echoing completions).
    req_of: HashMap<u64, u64>,
}

impl ConnMaps {
    /// Register a request-id ↔ ticket pair. On a duplicate request id
    /// the ticket is handed back so the caller can cancel it.
    fn insert(&self, req_id: u64, ticket: crate::Ticket) -> Result<(), crate::Ticket> {
        let mut st = self.state.lock().expect("conn maps");
        if st.by_req.contains_key(&req_id) {
            return Err(ticket);
        }
        st.req_of.insert(ticket.id(), req_id);
        st.by_req.insert(req_id, ticket);
        drop(st);
        self.mapped.notify_all();
        Ok(())
    }

    /// Resolve a terminal ticket id to its request id and forget the
    /// pair, waiting for the reader's insert when the completion outran
    /// it. Returns `None` only if the mapping never appears (reader died
    /// before inserting — the ticket then resolved without a wire
    /// identity and the event is dropped; the socket is gone in that case
    /// anyway).
    fn take_req_of(&self, ticket_id: u64, reader_done: &AtomicBool) -> Option<u64> {
        let mut st = self.state.lock().expect("conn maps");
        loop {
            if let Some(req) = st.req_of.remove(&ticket_id) {
                st.by_req.remove(&req);
                return Some(req);
            }
            if reader_done.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self.mapped.wait_timeout(st, POLL).expect("conn maps");
            st = guard;
        }
    }

    fn ticket_of(&self, req_id: u64) -> Option<crate::Ticket> {
        self.state
            .lock()
            .expect("conn maps")
            .by_req
            .get(&req_id)
            .cloned()
    }

    fn cancel_all(&self) {
        let tickets: Vec<crate::Ticket> = self
            .state
            .lock()
            .expect("conn maps")
            .by_req
            .values()
            .cloned()
            .collect();
        // Cancel outside the lock: each cancel delivers a completion the
        // writer may race to translate, and translation takes this lock.
        for t in &tickets {
            t.cancel();
        }
    }
}

/// The TCP front-end: a blocking `std::net` listener that serves the
/// ticket protocol on top of an [`AmsServer`]. One reader/writer thread
/// pair per connection; see the module docs for the protocol.
///
/// ```no_run
/// # use ams_serve::net::NetServer;
/// # use ams_serve::server::AmsServer;
/// # fn demo(server: AmsServer) -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetServer::bind(server, "127.0.0.1:0")?;
/// let addr = net.local_addr();
/// // ... clients connect to `addr` from other processes ...
/// let report = net.shutdown();
/// # Ok(()) }
/// ```
pub struct NetServer {
    server: Arc<AmsServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind a listener and start accepting connections on a background
    /// thread. Bind to port 0 for an ephemeral port; [`NetServer::local_addr`]
    /// reports the actual address.
    pub fn bind(server: AmsServer, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            crate::spawn_named("ams-accept", move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let server = Arc::clone(&server);
                    let conn_stop = Arc::clone(&stop);
                    let handle = crate::spawn_named("ams-conn-rd", move || {
                        handle_connection(server, stream, conn_stop)
                    });
                    conns.lock().expect("conn registry").push(handle);
                }
            })
        };
        Ok(Self {
            server,
            addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server, for live metrics and local submissions.
    pub fn server(&self) -> &AmsServer {
        &self.server
    }

    /// Stop accepting, disconnect-cancel any connection still open, join
    /// every connection thread, then drain and shut down the inner
    /// server, returning its final report. The conservation equations
    /// hold across everything every connection ever submitted.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().expect("conn registry"));
        for h in handles {
            let _ = h.join();
        }
        Arc::try_unwrap(self.server)
            .ok()
            .expect("all connection threads joined")
            .shutdown()
    }
}

// ams-lint: begin(no-panic) item validation — runs on every decoded item
// before anything indexes into it, so a hostile run table must fail here

/// Whether a decoded item has the shape the labeling path indexes into
/// without checking: a consistent run table, one run and one static value
/// per zoo model, in model order, and every label id inside the label
/// universe. The frame codec validates framing only, and a worker that
/// panics on a hostile item strands its whole shard; in-process
/// [`Client`] callers are trusted.
///
/// Every float must also be one the item can carry, or it poisons what it
/// is summed into (a labeling value, a recall, a trainer reward): each
/// detection confidence and each valuable label's profit (a label's best
/// confidence) in `[0, 1]`, each static model value (a sum of the model's
/// confidences) in `[0, detections]`, and the total value exactly the sum
/// of the profits that `ItemTruth::build` computes — a recall divides by
/// it. `NaN` fails every range test. Each run's labels and the valuable
/// labels must be strictly ascending: the profit and confidence lookups
/// binary-search them.
fn item_fits(item: &ItemTruth, num_models: usize) -> bool {
    let known = |label: LabelId| label.index() < item.universe();
    let unit = |x: f32| (0.0..=1.0).contains(&x);
    item.runs_consistent()
        && item.runs.len() == num_models
        && item.model_value.len() == num_models
        && item
            .outputs()
            .zip(item.model_value.iter())
            .enumerate()
            .all(|(m, (out, &v))| {
                out.model.index() == m
                    && out
                        .detections
                        .iter()
                        .all(|d| known(d.label) && unit(d.confidence))
                    && out.detections.is_sorted_by(|a, b| a.label < b.label)
                    && (0.0..=out.len() as f64).contains(&v)
            })
        && item.valuable.iter().all(|&(l, p)| known(l) && unit(p))
        && item.valuable.is_sorted_by(|a, b| a.0 < b.0)
        && item.total_value.to_bits() == ItemTruth::profit_sum(&item.valuable).to_bits()
}

// ams-lint: end(no-panic)

/// Whether a request may be submitted: its item fits the zoo, and every
/// value it brings may enter the ledgers. The codec carries any `f64` bit
/// pattern, and one `NaN` or infinity summed into a class's tally poisons
/// that class's value totals for the whole run: the per-ticket value must
/// be finite and non-negative, the item's static model values (whose
/// top-k sum, times the class weight, is the admission value under SLO
/// classes) must each lie in `[0, detections]`, and its confidences,
/// profits and total value must be ones a zoo can produce (see
/// `item_fits`).
fn request_fits(req: &WireRequest, num_models: usize) -> bool {
    item_fits(&req.item, num_models) && req.value.is_none_or(|v| v.is_finite() && v >= 0.0)
}

/// One connection: read `Hello`, open a window-sized in-process client,
/// then pump frames until goodbye/disconnect. The reader thread is the
/// current thread; completions are written back by a spawned writer.
fn handle_connection(server: Arc<AmsServer>, stream: TcpStream, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    // Timeouts make every blocking read re-check `stop`, so shutdown can
    // interrupt idle connections; `FrameReader` keeps partial reads across
    // them.
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(stream);
    let mut next_frame = move || -> Result<ClientFrame, WireError> {
        wire::decode_client_frame(reader.next(&stop)?)
    };

    // The handshake sizes the window; anything else — a foreign protocol
    // version included — closes the connection before a ticket exists.
    let window = match next_frame() {
        Ok(ClientFrame::Hello { window }) => window.clamp(1, MAX_WINDOW) as usize,
        _ => return,
    };
    let client = server.client_with_capacity(window);
    let num_models = server.num_models();
    drop(server); // the Arc clone; the listener keeps the server alive

    let maps = Arc::new(ConnMaps::default());
    let reader_done = Arc::new(AtomicBool::new(false));
    // Both threads write frames: the writer sends completions, the
    // reader sends synchronous rejections. Frames are serialized under
    // this lock so they never interleave.
    let out = Arc::new(Mutex::new(FrameWriter::new(write_half)));

    let writer = {
        let client = client.clone();
        let maps = Arc::clone(&maps);
        let reader_done = Arc::clone(&reader_done);
        let out = Arc::clone(&out);
        crate::spawn_named("ams-conn-wr", move || loop {
            match client.recv_timeout(POLL) {
                Some(first) => {
                    // Whatever else has completed by now leaves in the
                    // same write; nothing waits for a batch to fill.
                    let frames: Vec<ServerFrame> = std::iter::once(first)
                        .chain(client.drain())
                        .filter_map(|ev| {
                            let req_id = maps.take_req_of(ev.ticket(), &reader_done)?;
                            Some(ServerFrame::Completion(with_wire_id(ev, req_id)))
                        })
                        .collect();
                    // A dead socket is fine: the events still drained, so
                    // the window frees and the ledgers balance; only the
                    // delivery is lost.
                    let mut out = out.lock().expect("conn writer");
                    for frame in &frames {
                        let _ = out.push(|buf| wire::encode_server_frame(frame, buf));
                        if out.buf.len() >= WRITE_COALESCE {
                            let _ = out.flush();
                        }
                    }
                    let _ = out.flush();
                }
                None => {
                    if reader_done.load(Ordering::Acquire) && client.outstanding() == 0 {
                        return;
                    }
                }
            }
        })
    };

    // Reader loop. Any exit except `Goodbye` is an abrupt disconnect:
    // cancel every outstanding ticket of this connection.
    let mut graceful = false;
    while let Ok(frame) = next_frame() {
        match frame {
            ClientFrame::Hello { .. } => break, // duplicate handshake
            ClientFrame::Goodbye => {
                graceful = true;
                break;
            }
            ClientFrame::Cancel { id } => {
                if let Some(t) = maps.ticket_of(id) {
                    t.cancel();
                }
            }
            // A well-framed item the labeling path cannot index, or a
            // value the ledgers cannot sum, is a protocol error like any
            // malformed frame.
            ClientFrame::Request(req) if !request_fits(&req, num_models) => break,
            ClientFrame::Request(req) => {
                let opts = SubmitOptions {
                    class: req.class,
                    deadline_us: req.deadline_us,
                    value: req.value,
                };
                // This is the flow control: with the window full,
                // `submit_with` blocks and the socket goes unread.
                let outcome = client.submit_with(Arc::new(req.item), opts);
                match outcome.ticket() {
                    Some(ticket) => {
                        if let Err(dup) = maps.insert(req.id, ticket) {
                            // Duplicate id: the just-issued ticket is
                            // cancelled (its event drains unsent) and
                            // the connection dies as a protocol error.
                            dup.cancel();
                            break;
                        }
                    }
                    None => {
                        // A dead socket loses only the delivery.
                        let frame = ServerFrame::Rejected { id: req.id };
                        let _ = out
                            .lock()
                            .expect("conn writer")
                            .send(|buf| wire::encode_server_frame(&frame, buf));
                    }
                }
            }
        }
    }
    if !graceful {
        maps.cancel_all();
    }
    reader_done.store(true, Ordering::Release);
    let _ = writer.join();
    let _ = out
        .lock()
        .expect("conn writer")
        .stream
        .shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The remote mirror of the in-process [`Client`]: same submit surface
/// (`submit` / `submit_with`), same bounded-window
/// semantics (`submit` blocks while `window` requests are in flight),
/// same drain-loop termination (`recv` returns `Ok(None)` at zero
/// outstanding). The differences forced by the transport: submissions
/// return the request id instead of a `Ticket` (cancellation goes
/// through [`NetClient::cancel`] with that id), admission outcomes
/// arrive asynchronously ([`NetEvent::Rejected`] instead of a
/// synchronous `SubmitOutcome::Rejected`), and every call can fail with
/// a [`WireError`].
pub struct NetClient {
    write: Mutex<FrameWriter>,
    read: Mutex<FrameReader>,
    window: usize,
    state: Mutex<NcState>,
    not_full: Condvar,
    /// Never set client-side; [`FrameReader::next`] wants a stop flag.
    no_stop: AtomicBool,
}

#[derive(Default)]
struct NcState {
    outstanding: usize,
    next_id: u64,
    goodbye: bool,
    /// A fatal read or write error ended the connection: nothing in
    /// flight will ever be answered and nothing more can be sent.
    closed: bool,
}

impl NetClient {
    /// Connect with the default window ([`Client::DEFAULT_CAPACITY`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with_window(addr, Client::DEFAULT_CAPACITY)
    }

    /// Connect and size the completion window: at most `window` requests
    /// in flight (submitted, their events not yet received); `submit`
    /// blocks past that until `recv` drains. The server clamps to
    /// `1..=`[`MAX_WINDOW`] and sizes its per-connection window the
    /// same, which is the wire's flow control.
    pub fn connect_with_window(addr: impl ToSocketAddrs, window: usize) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        let read = stream.try_clone().map_err(WireError::Io)?;
        let window = (window as u64).clamp(1, MAX_WINDOW) as usize;
        let client = Self {
            write: Mutex::new(FrameWriter::new(stream)),
            read: Mutex::new(FrameReader::new(read)),
            window,
            state: Mutex::new(NcState::default()),
            not_full: Condvar::new(),
            no_stop: AtomicBool::new(false),
        };
        client.send(&ClientFrame::Hello {
            window: window as u64,
        })?;
        Ok(client)
    }

    /// Record a fatal connection error and wake every submitter parked
    /// on the window: the slots they wait for will never free.
    fn close(&self) {
        self.state.lock().expect("net client").closed = true;
        self.not_full.notify_all();
    }

    /// Write one frame built by `encode`. A frame refused for its size
    /// wrote nothing and the connection lives on; any other failure
    /// closes it.
    fn send_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
        let res = self.write.lock().expect("net client write").send(encode);
        if matches!(&res, Err(e) if !matches!(e, WireError::FrameTooLarge(_))) {
            self.close();
        }
        res
    }

    fn send(&self, frame: &ClientFrame) -> Result<(), WireError> {
        self.send_with(|buf| wire::encode_client_frame(frame, buf))
    }

    /// Submit one item (class 0, class-default economics), returning its
    /// request id. Blocks while the window is full.
    pub fn submit(&self, item: Arc<ItemTruth>) -> Result<u64, WireError> {
        self.submit_with(item, SubmitOptions::default())
    }

    /// [`NetClient::submit`] with an SLO class and full per-ticket
    /// economics, mirroring
    /// [`Client::submit_with`]. Fails with [`WireError::Closed`] — also
    /// when already blocked on a full window — once the connection is
    /// dead, and with [`WireError::FrameTooLarge`] (connection intact)
    /// for an item that would not fit one frame.
    pub fn submit_with(&self, item: Arc<ItemTruth>, opts: SubmitOptions) -> Result<u64, WireError> {
        let id = {
            let mut st = self.state.lock().expect("net client");
            if st.goodbye {
                return Err(WireError::Protocol("submit after goodbye".into()));
            }
            loop {
                if st.closed {
                    return Err(WireError::Closed);
                }
                if st.outstanding < self.window {
                    break;
                }
                st = self.not_full.wait(st).expect("net client");
            }
            st.outstanding += 1;
            let id = st.next_id;
            st.next_id += 1;
            id
        };
        if let Err(e) = self.send_with(|buf| wire::encode_request(buf, id, &item, &opts)) {
            // The request never left: release its window slot.
            self.state.lock().expect("net client").outstanding -= 1;
            self.not_full.notify_one();
            return Err(e);
        }
        Ok(id)
    }

    /// Request cancellation of an in-flight request. Exactly like
    /// [`Ticket::cancel`](crate::Ticket::cancel), the race is resolved
    /// server-side; the terminal event reports what actually happened.
    pub fn cancel(&self, id: u64) -> Result<(), WireError> {
        self.send(&ClientFrame::Cancel { id })
    }

    /// Blocking receive of the next terminal event, in server delivery
    /// order. Returns `Ok(None)` when nothing is outstanding — so a
    /// drain loop terminates, mirroring [`Client::recv`]. Any error is
    /// fatal to the connection: it and every later call with requests
    /// still outstanding return an error, and blocked submitters wake
    /// with [`WireError::Closed`].
    pub fn recv(&self) -> Result<Option<NetEvent>, WireError> {
        {
            let st = self.state.lock().expect("net client");
            if st.outstanding == 0 {
                return Ok(None);
            }
            if st.closed {
                return Err(WireError::Closed);
            }
        }
        let frame = {
            let mut read = self.read.lock().expect("net client read");
            read.next(&self.no_stop).and_then(wire::decode_server_frame)
        };
        let ev = match frame {
            Ok(ServerFrame::Completion(c)) => NetEvent::Completion(c),
            Ok(ServerFrame::Rejected { id }) => NetEvent::Rejected { id },
            Err(e) => {
                self.close();
                return Err(e);
            }
        };
        let mut st = self.state.lock().expect("net client");
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
        Ok(Some(ev))
    }

    /// Receive every remaining outstanding event (blocking), mirroring a
    /// full in-process drain loop.
    pub fn drain(&self) -> Result<Vec<NetEvent>, WireError> {
        let mut events = Vec::new();
        while let Some(ev) = self.recv()? {
            events.push(ev);
        }
        Ok(events)
    }

    /// Requests in flight: submitted, their events not yet received.
    pub fn outstanding(&self) -> usize {
        self.state.lock().expect("net client").outstanding
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.window
    }

    /// Graceful close: tell the server to stop reading and let every
    /// outstanding request resolve. Further submissions error; `recv`
    /// keeps delivering until the window drains.
    pub fn goodbye(&self) -> Result<(), WireError> {
        let mut st = self.state.lock().expect("net client");
        if st.goodbye {
            return Ok(());
        }
        st.goodbye = true;
        drop(st);
        self.send(&ClientFrame::Goodbye)
    }
}
