//! What leaves the registry: the serde snapshot types, the fold that
//! builds them from [`ServerObs`], the drain-time [`ObsReport`], and the
//! Prometheus text exposition.

use super::recorder::TraceReport;
use super::{EventKind, ServerObs};
use crate::telemetry::{ratio, LatencyHistogram};
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;

/// Per-shard gauge inputs sampled by the server at snapshot time (queue
/// state lives outside this module).
pub(crate) struct ShardSample {
    pub depth: u64,
    pub service_hint_us: u64,
    pub estimated_wait_us: u64,
}

impl ServerObs {
    /// Build a live snapshot. Drains first so the numbers are current.
    pub(crate) fn snapshot(
        &self,
        shards: &[ShardSample],
        cache: Option<CacheGauges>,
        adapt_generation: Option<u64>,
    ) -> MetricsSnapshot {
        self.drain();
        let uptime_us = self.now_us().max(1);
        let reg = self.registry.lock().expect("obs registry poisoned");
        let totals = reg.by_class.total();
        let events: Vec<EventCount> = EventKind::ALL
            .iter()
            .map(|&k| EventCount {
                kind: k.name().to_string(),
                count: totals.count(k),
                dropped: self.dropped[k.index()].load(Ordering::Relaxed),
            })
            .collect();
        let total =
            |k: EventKind| totals.count(k) + self.dropped[k.index()].load(Ordering::Relaxed);
        let settled: u64 = EventKind::ALL
            .iter()
            .filter(|k| k.is_terminal())
            .map(|&k| total(k))
            .sum();
        let in_flight = total(EventKind::Admitted).saturating_sub(settled);
        let issued = self.tickets_issued.load(Ordering::Relaxed);
        let resolved = self.tickets_resolved.load(Ordering::Relaxed);
        let shard_gauges = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let busy = self.busy_us[i].load(Ordering::Relaxed);
                let denom = uptime_us
                    .saturating_mul(self.workers_per_shard as u64)
                    .max(1);
                let batches = self.batches[i].load(Ordering::Relaxed);
                let fill = self.batch_fill[i].load(Ordering::Relaxed);
                ShardGauges {
                    shard: i as u32,
                    depth: s.depth,
                    service_hint_us: s.service_hint_us,
                    estimated_wait_us: s.estimated_wait_us,
                    executing: self.executing[i].load(Ordering::Relaxed),
                    busy_fraction: (busy as f64 / denom as f64).min(1.0),
                    mean_batch_fill: ratio(fill, batches),
                }
            })
            .collect();
        let classes = reg
            .by_class
            .rows()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let labeled = c.count(EventKind::Labeled);
                let shed = c.sum(EventKind::is_shed).count;
                ClassRates {
                    class: i as u32,
                    admitted: c.count(EventKind::Admitted),
                    labeled,
                    cache_hit: c.count(EventKind::CacheHit),
                    coalesced: c.count(EventKind::Coalesced),
                    shed,
                    rejected: c.count(EventKind::Rejected),
                    cancelled: c.count(EventKind::Cancelled),
                    deadline_met_rate: ratio(labeled - c.late().count, labeled),
                    shed_rate: ratio(shed, c.sum(EventKind::is_terminal).count),
                }
            })
            .collect();
        MetricsSnapshot {
            uptime_us,
            events,
            dropped_total: self.dropped.iter().map(|d| d.load(Ordering::Relaxed)).sum(),
            in_flight,
            outstanding_tickets: issued.saturating_sub(resolved),
            tickets_issued: issued,
            shards: shard_gauges,
            classes,
            cache,
            adapt_generation,
            latency: totals.latency().clone(),
        }
    }

    /// Final fold at drain: snapshot plus the recorder's retained traces.
    pub(crate) fn report(
        &self,
        shards: &[ShardSample],
        cache: Option<CacheGauges>,
        adapt_generation: Option<u64>,
    ) -> ObsReport {
        let snapshot = self.snapshot(shards, cache, adapt_generation);
        let reg = self.registry.lock().expect("obs registry poisoned");
        ObsReport {
            snapshot,
            traces: reg.recorder.traces(),
        }
    }
}

/// Per-kind event totals: `count` drained into the registry, `dropped`
/// lost to a full channel (counted at the producer). The reconciled total
/// for a kind is `count + dropped`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCount {
    /// Kind name (see [`EventKind::name`]).
    pub kind: String,
    /// Events drained through a channel into the registry.
    pub count: u64,
    /// Events dropped on a full channel (never block a worker).
    pub dropped: u64,
}

/// Live per-shard gauges, sampled at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardGauges {
    /// Shard index.
    pub shard: u32,
    /// Queued requests right now (the `estimated_wait_us` depth input).
    pub depth: u64,
    /// Published per-request drain hint (µs) — the other wait input.
    pub service_hint_us: u64,
    /// `depth × service_hint_us`: exactly what `Router::route` prices
    /// when it weighs a deadline against this shard.
    pub estimated_wait_us: u64,
    /// Requests inside an executing batch right now.
    pub executing: u64,
    /// Fraction of worker wall time spent executing batches.
    pub busy_fraction: f64,
    /// Mean realized batch size since start.
    pub mean_batch_fill: f64,
}

/// Cumulative per-class counters with derived rates (lifetime ratios,
/// since server start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassRates {
    /// SLO class index.
    pub class: u32,
    /// Requests admitted into the pipeline.
    pub admitted: u64,
    /// Requests labeled (own execution).
    pub labeled: u64,
    /// Requests answered by the cache before admission.
    pub cache_hit: u64,
    /// Requests delivered by leader fan-out.
    pub coalesced: u64,
    /// Requests shed (all reasons).
    pub shed: u64,
    /// Requests refused by the reject policy.
    pub rejected: u64,
    /// Requests cancelled by their client.
    pub cancelled: u64,
    /// Of labeled requests, the fraction that met their deadline.
    pub deadline_met_rate: f64,
    /// Of settled requests, the fraction shed.
    pub shed_rate: f64,
}

/// Label-cache occupancy gauges (present when the cache is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheGauges {
    /// Resident entries.
    pub entries: u64,
    /// Resident bytes.
    pub bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
    /// `(cache_hit + coalesced) / admitted` so far.
    pub hit_rate: f64,
}

/// A live view of the server: event totals, gauges, per-class rates and
/// the full-resolution latency histogram, all cumulative since start.
/// Serializable via the workspace serde stand-in (`serde_json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Microseconds since server start.
    pub uptime_us: u64,
    /// Per-kind totals (drained + dropped), ordered as [`EventKind::ALL`].
    pub events: Vec<EventCount>,
    /// Total events lost to a full channel, all kinds.
    pub dropped_total: u64,
    /// Admitted requests not yet settled by a terminal event.
    pub in_flight: u64,
    /// Tickets issued and not yet resolved (exact, counter-based).
    pub outstanding_tickets: u64,
    /// Tickets issued since start.
    pub tickets_issued: u64,
    /// Per-shard live gauges.
    pub shards: Vec<ShardGauges>,
    /// Per-class counters and rates.
    pub classes: Vec<ClassRates>,
    /// Cache occupancy, when the label cache is enabled.
    pub cache: Option<CacheGauges>,
    /// Current weight generation in the predict path, when online
    /// adaptation is enabled (0 = still serving the boot weights).
    pub adapt_generation: Option<u64>,
    /// Total-latency histogram over labeled requests (full bucket
    /// resolution — arbitrary quantiles can be computed client-side).
    pub latency: LatencyHistogram,
}

impl MetricsSnapshot {
    /// Reconciled total (drained + dropped) for one event kind.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.events
            .iter()
            .find(|e| e.kind == kind.name())
            .map(|e| e.count + e.dropped)
            .unwrap_or(0)
    }

    /// Prometheus text exposition of this snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        fn bare<T>(_: &T) -> String {
            String::new()
        }
        families(
            &mut out,
            &self.events,
            |e| format!("{{kind=\"{}\"}}", e.kind),
            EVENT_ROWS,
        );
        families(&mut out, std::slice::from_ref(self), bare, SERVER_ROWS);
        families(
            &mut out,
            &self.shards,
            |s| format!("{{shard=\"{}\"}}", s.shard),
            SHARD_ROWS,
        );
        families(
            &mut out,
            &self.classes,
            |c| format!("{{class=\"{}\"}}", c.class),
            CLASS_ROWS,
        );
        families(&mut out, self.adapt_generation.as_slice(), bare, ADAPT_ROWS);
        families(&mut out, self.cache.as_slice(), bare, CACHE_ROWS);
        out.push_str(
            "# HELP ams_latency_us Total request latency quantiles (microseconds).\n\
             # TYPE ams_latency_us summary\n",
        );
        for q in [0.5, 0.95, 0.99] {
            out.push_str(&format!(
                "ams_latency_us{{quantile=\"{q}\"}} {}\n",
                self.latency.quantile_us(q)
            ));
        }
        out.push_str(&format!("ams_latency_us_sum {}\n", self.latency.sum_us()));
        out.push_str(&format!("ams_latency_us_count {}\n", self.latency.count()));
        out
    }
}

/// One metric family of the exposition: `(type, name, help, value)`.
type Family<T> = (&'static str, &'static str, &'static str, fn(&T) -> f64);

/// Write each family's `# HELP`/`# TYPE` header followed by one sample per
/// item — nothing at all for an empty item set, so an absent optional
/// section (classes, cache, adaptation) leaves no header behind.
fn families<T>(out: &mut String, items: &[T], labels: impl Fn(&T) -> String, rows: &[Family<T>]) {
    for (kind, name, help, value) in rows.iter().filter(|_| !items.is_empty()) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for item in items {
            out.push_str(&format!("{name}{} {}\n", labels(item), value(item)));
        }
    }
}

#[rustfmt::skip]
const EVENT_ROWS: &[Family<EventCount>] = &[
    ("counter", "ams_events_total", "Lifecycle events drained into the registry, by kind.", |e| e.count as f64),
    ("counter", "ams_events_dropped_total", "Lifecycle events dropped on a full channel, by kind.", |e| e.dropped as f64),
];
#[rustfmt::skip]
const SERVER_ROWS: &[Family<MetricsSnapshot>] = &[
    ("counter", "ams_tickets_issued_total", "Completion tickets issued.", |s| s.tickets_issued as f64),
    ("gauge", "ams_in_flight", "Admitted requests not yet settled.", |s| s.in_flight as f64),
    ("gauge", "ams_outstanding_tickets", "Tickets issued and not yet resolved.", |s| s.outstanding_tickets as f64),
];
#[rustfmt::skip]
const SHARD_ROWS: &[Family<ShardGauges>] = &[
    ("gauge", "ams_shard_queue_depth", "Queued requests per shard.", |s| s.depth as f64),
    ("gauge", "ams_shard_service_hint_us", "Published per-request drain hint per shard (microseconds).", |s| s.service_hint_us as f64),
    ("gauge", "ams_shard_estimated_wait_us", "depth * service_hint: the wait Router::route prices (microseconds).", |s| s.estimated_wait_us as f64),
    ("gauge", "ams_shard_executing", "Requests inside an executing batch per shard.", |s| s.executing as f64),
    ("gauge", "ams_shard_busy_fraction", "Fraction of worker wall time spent executing.", |s| s.busy_fraction),
    ("gauge", "ams_shard_mean_batch_fill", "Mean realized batch size per shard.", |s| s.mean_batch_fill),
];
#[rustfmt::skip]
const CLASS_ROWS: &[Family<ClassRates>] = &[
    ("counter", "ams_class_admitted_total", "Admitted requests per SLO class.", |c| c.admitted as f64),
    ("counter", "ams_class_labeled_total", "Labeled requests per SLO class.", |c| c.labeled as f64),
    ("counter", "ams_class_shed_total", "Shed requests per SLO class (all reasons).", |c| c.shed as f64),
    ("gauge", "ams_class_deadline_met_rate", "Fraction of labeled requests that met their deadline.", |c| c.deadline_met_rate),
    ("gauge", "ams_class_shed_rate", "Fraction of settled requests shed.", |c| c.shed_rate),
];
#[rustfmt::skip]
const ADAPT_ROWS: &[Family<u64>] = &[
    ("gauge", "ams_adapt_generation", "Weight generation currently serving predictions.", |g| *g as f64),
];
#[rustfmt::skip]
const CACHE_ROWS: &[Family<CacheGauges>] = &[
    ("gauge", "ams_cache_entries", "Resident label-cache entries.", |c| c.entries as f64),
    ("gauge", "ams_cache_bytes", "Resident label-cache bytes.", |c| c.bytes as f64),
    ("gauge", "ams_cache_hit_rate", "(cache_hit + coalesced) / admitted.", |c| c.hit_rate),
];

/// The observability fold of a drain report: the final snapshot plus the
/// flight recorder's retained traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// The final metrics snapshot, taken after workers drained.
    pub snapshot: MetricsSnapshot,
    /// Interesting traces retained by the flight recorder, oldest first.
    pub traces: Vec<TraceReport>,
}

impl ObsReport {
    /// Reconciled total (drained + dropped) for one event kind.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.snapshot.total(kind)
    }

    /// Find a retained trace by ticket or request id.
    pub fn why(&self, id: u64) -> Option<&TraceReport> {
        self.traces
            .iter()
            .rev()
            .find(|t| t.ticket == Some(id) || t.req == id)
    }
}
