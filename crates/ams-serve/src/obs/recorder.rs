//! The flight recorder: the complete causal event trace of the last few
//! "interesting" requests — sheds, deadline misses, cancellations.

use super::{Event, EventKind, NO_SHARD, NO_TICKET};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Retained "interesting" flight-recorder traces (sheds, deadline misses,
/// cancellations).
pub(super) const RECORDER_CAPACITY: usize = 32;
/// In-flight traces tracked concurrently; beyond this the oldest
/// unfinished trace is evicted (bounds memory under event drops).
const ACTIVE_TRACES: usize = 4096;
/// Events retained per trace; further events are counted, not kept.
const TRACE_EVENTS: usize = 32;

#[derive(Debug, Clone)]
struct Trace {
    req: u64,
    /// Opening order among traces: the smallest is evicted first.
    seq: u64,
    ticket: u64,
    class: u32,
    verdict: Option<EventKind>,
    deadline_missed: bool,
    truncated: u64,
    events: Vec<Event>,
}

impl Trace {
    fn to_report(&self) -> TraceReport {
        TraceReport {
            req: self.req,
            ticket: if self.ticket == NO_TICKET {
                None
            } else {
                Some(self.ticket)
            },
            class: self.class,
            verdict: match self.verdict {
                Some(EventKind::Labeled) if self.deadline_missed => "deadline_miss".to_string(),
                Some(k) => k.name().to_string(),
                None => "in_flight".to_string(),
            },
            truncated: self.truncated,
            events: self
                .events
                .iter()
                .map(|e| EventRecord {
                    at_us: e.at_us,
                    kind: e.kind.name().to_string(),
                    shard: if e.shard == NO_SHARD {
                        None
                    } else {
                        Some(e.shard)
                    },
                    detail: e.detail,
                    flag: e.flag,
                })
                .collect(),
        }
    }
}

/// Bounded map of in-flight traces plus a bounded ring of settled
/// "interesting" ones (sheds, deadline misses, cancellations — the
/// requests a post-mortem asks about).
pub(super) struct FlightRecorder {
    active: HashMap<u64, Trace>,
    next_seq: u64,
    interesting: VecDeque<Trace>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` interesting traces.
    pub(super) fn sized(capacity: usize) -> Self {
        Self {
            active: HashMap::new(),
            next_seq: 0,
            interesting: VecDeque::new(),
            capacity,
        }
    }

    pub(super) fn observe(&mut self, ev: Event) {
        if let Some(tr) = self.active.get_mut(&ev.req) {
            Self::append(tr, ev);
            if ev.kind.is_terminal() {
                let tr = self.active.remove(&ev.req).expect("trace present");
                self.settle(tr);
            }
            return;
        }
        // Late event for an already-settled request (ghost execution
        // lands after `Cancelled` retired the trace): extend in place.
        if ev.kind == EventKind::GhostExecuted || ev.kind == EventKind::Executed {
            if let Some(tr) = self.interesting.iter_mut().rev().find(|t| t.req == ev.req) {
                Self::append(tr, ev);
                return;
            }
        }
        let mut tr = Trace {
            req: ev.req,
            seq: self.next_seq,
            ticket: NO_TICKET,
            class: ev.class,
            verdict: None,
            deadline_missed: false,
            truncated: 0,
            events: Vec::with_capacity(8),
        };
        Self::append(&mut tr, ev);
        if ev.kind.is_terminal() {
            self.settle(tr);
            return;
        }
        // Only a full table pays for the scan: evict the oldest opening.
        if self.active.len() >= ACTIVE_TRACES {
            let oldest = self.active.values().min_by_key(|t| t.seq).map(|t| t.req);
            if let Some(req) = oldest {
                self.active.remove(&req);
            }
        }
        self.next_seq += 1;
        self.active.insert(ev.req, tr);
    }

    fn append(tr: &mut Trace, ev: Event) {
        if ev.ticket != NO_TICKET {
            tr.ticket = ev.ticket;
        }
        if ev.kind.is_terminal() {
            tr.verdict = Some(ev.kind);
            if ev.kind == EventKind::Labeled {
                tr.deadline_missed = ev.flag;
            }
        }
        if tr.events.len() < TRACE_EVENTS {
            tr.events.push(ev);
        } else {
            tr.truncated += 1;
        }
    }

    fn settle(&mut self, tr: Trace) {
        let interesting = match tr.verdict {
            Some(EventKind::Labeled) => tr.deadline_missed,
            Some(EventKind::Rejected | EventKind::Cancelled) => true,
            Some(kind) => kind.is_shed(),
            None => false,
        };
        if !interesting {
            return;
        }
        if self.interesting.len() >= self.capacity {
            self.interesting.pop_front();
        }
        self.interesting.push_back(tr);
    }

    pub(super) fn traces(&self) -> Vec<TraceReport> {
        self.interesting.iter().map(Trace::to_report).collect()
    }

    pub(super) fn why(&self, id: u64) -> Option<TraceReport> {
        self.interesting
            .iter()
            .rev()
            .find(|t| t.ticket == id || t.req == id)
            .map(Trace::to_report)
    }
}

/// One recorded event inside a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Microseconds since server start.
    pub at_us: u64,
    /// Kind name.
    pub kind: String,
    /// Shard, when placed.
    pub shard: Option<u32>,
    /// Kind-specific payload.
    pub detail: u64,
    /// Kind-specific flag.
    pub flag: bool,
}

/// The flight recorder's causal trace of one interesting request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Request correlation id.
    pub req: u64,
    /// Completion-ticket id, when the request had one.
    pub ticket: Option<u64>,
    /// SLO class index.
    pub class: u32,
    /// How the request settled: a terminal kind name, or
    /// `"deadline_miss"` for labels past deadline.
    pub verdict: String,
    /// Events beyond the per-trace cap (counted, not retained).
    pub truncated: u64,
    /// The retained causal event sequence, in arrival order.
    pub events: Vec<EventRecord>,
}

impl TraceReport {
    /// Human-readable multi-line dump ("why did this request miss?").
    pub fn dump(&self) -> String {
        let mut out = format!(
            "req {} ticket {} class {} -> {}\n",
            self.req,
            self.ticket
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
            self.class,
            self.verdict
        );
        for e in &self.events {
            out.push_str(&format!(
                "  +{:>9}us {:<14} shard {:<4} detail {}{}\n",
                e.at_us,
                e.kind,
                e.shard.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                e.detail,
                if e.flag { " [flag]" } else { "" }
            ));
        }
        if self.truncated > 0 {
            out.push_str(&format!(
                "  ... {} further events truncated\n",
                self.truncated
            ));
        }
        out
    }
}
