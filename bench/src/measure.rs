//! Turn the passes of one timed window into per-request rows, check every
//! answer, and compute the end-to-end numbers from them.

use crate::check::{answer_is_right, labels_digest, report_faults, RunDigest};
use crate::harness::Pass;
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::Prepared;
use ams::prelude::*;

/// Equal time slices a window is cut into. The timing metrics are medians
/// over the slices, so a stall of the machine spoils one slice, not the run.
pub const SLICES: usize = 5;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered `Labeled`; `right` is the oracle's verdict.
    Labeled {
        right: bool,
    },
    Shed(ShedReason),
    Cancelled,
    Rejected,
    /// No terminal event, or more than one.
    Lost,
}

/// One offered request, as seen from the client.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub pass: u32,
    /// Stream position, which is also the wire request id.
    pub k: u32,
    pub class: u8,
    pub outcome: Outcome,
    /// Labeled, right, and within its class's latency limit.
    pub in_limit: bool,
    /// Due time to completion decoded by the client, ns.
    pub latency_ns: u64,
    /// Due time, ns since the pass began.
    pub due_ns: u64,
    /// Entry to and return from `submit_with`, ns since the pass began
    /// (zeros in an untraced pass).
    pub submit_ns: (u64, u64),
    /// The server's own split of a labeled request, us.
    pub queue_wait_us: u64,
    pub execute_us: u64,
    pub models: u32,
    /// Virtual GPU ms the executed models cost when each runs alone.
    pub alone_ms: u32,
    pub label_value: f64,
    pub deadline_met: bool,
}

impl Row {
    pub fn labeled(&self) -> bool {
        matches!(self.outcome, Outcome::Labeled { .. })
    }
}

/// The requests answered in one time slice of one pass.
#[derive(Debug, Default)]
struct Slice {
    answered: u64,
    in_limit: u64,
    /// From the slice's first in-limit answer to its last, s.
    in_limit_span_s: f64,
    /// Ascending latencies of the slice's labeled requests, ns.
    latencies_ns: Vec<u64>,
}

impl Slice {
    fn goodput_per_s(&self) -> f64 {
        if self.in_limit_span_s > 0.0 {
            (self.in_limit - 1) as f64 / self.in_limit_span_s
        } else {
            0.0
        }
    }
}

/// One timed window, checked.
pub struct Window {
    pub rows: Vec<Row>,
    slices: Vec<Slice>,
    pub digest: RunDigest,
    /// Broken invariants, one message each; empty in a correct run.
    pub faults: Vec<String>,
    /// Ascending latencies of all labeled requests, ns.
    pub latencies_ns: Vec<u64>,
}

fn sorted_latencies<'a>(rows: impl Iterator<Item = &'a Row>) -> Vec<u64> {
    let mut v: Vec<u64> = rows.filter(|r| r.labeled()).map(|r| r.latency_ns).collect();
    v.sort_unstable();
    v
}

impl Window {
    /// Match every pass's terminal events to its requests and judge them.
    /// `pass_ns` is the length a pass was planned for; the window is cut
    /// into [`SLICES`] slices of equal length (one a pass at the least).
    pub fn check(prep: &Prepared, passes: &[Pass], pass_ns: u64) -> Self {
        let mut rows = Vec::new();
        let mut slices = Vec::new();
        let mut faults = Vec::new();
        let mut digest = RunDigest::default();
        let zoo = ModelZoo::standard();
        let limits_us = prep.spec.limits_us;
        let slices_per_pass = (SLICES / passes.len().max(1)).max(1) as u64;
        let slice_ns = (pass_ns / slices_per_pass).max(1);
        for (p, pass) in passes.iter().enumerate() {
            let base = rows.len();
            rows.extend(pass.sent.iter().enumerate().map(|(k, sent)| Row {
                pass: p as u32,
                k: k as u32,
                class: prep.spec.class_of(k) as u8,
                outcome: Outcome::Lost,
                in_limit: false,
                latency_ns: 0,
                due_ns: sent.due_ns,
                submit_ns: sent.submit_ns,
                queue_wait_us: 0,
                execute_us: 0,
                models: 0,
                alone_ms: 0,
                label_value: 0.0,
                deadline_met: true,
            }));
            let mut answered = vec![0u8; pass.sent.len()];
            for got in &pass.got {
                let k = got.event.id() as usize;
                let Some(seen) = answered.get_mut(k) else {
                    faults.push(format!("pass {p}: answer to unknown request id {k}"));
                    continue;
                };
                *seen = seen.saturating_add(1);
                let row = &mut rows[base + k];
                row.latency_ns = got.at_ns.saturating_sub(row.due_ns);
                row.outcome = match &got.event {
                    NetEvent::Rejected { .. } => Outcome::Rejected,
                    NetEvent::Completion(Completion::Cancelled { .. }) => Outcome::Cancelled,
                    NetEvent::Completion(Completion::Shed { reason, .. }) => Outcome::Shed(*reason),
                    NetEvent::Completion(Completion::Labeled(r)) => {
                        row.queue_wait_us = r.queue_wait_us;
                        row.execute_us = r.execute_us;
                        row.models = r.executed.len() as u32;
                        row.alone_ms = r.executed.iter().map(|&m| zoo.spec(m).time_ms).sum();
                        row.label_value = r.label_value;
                        row.deadline_met = r.deadline_met;
                        digest.add(k as u64, labels_digest(&r.labels));
                        Outcome::Labeled {
                            right: answer_is_right(prep, k, r),
                        }
                    }
                };
            }
            let not_once = answered.iter().filter(|&&n| n != 1).count();
            if not_once > 0 {
                faults.push(format!(
                    "pass {p}: {not_once} requests without exactly one terminal event"
                ));
            }
            for (row, &n) in rows[base..].iter_mut().zip(&answered) {
                if n != 1 {
                    row.outcome = Outcome::Lost;
                }
                row.in_limit = row.outcome == Outcome::Labeled { right: true }
                    && row.latency_ns <= limits_us[row.class as usize] * 1000;
            }
            faults.extend(
                report_faults(&pass.report)
                    .into_iter()
                    .map(|f| format!("pass {p}: {f}")),
            );
            if pass.report.offered != pass.sent.len() as u64 {
                faults.push(format!(
                    "pass {p}: server counted {} offered, client sent {}",
                    pass.report.offered,
                    pass.sent.len()
                ));
            }

            // A request belongs to the slice its terminal event arrived
            // in; the last slice runs to the pass's last event.
            let done = |r: &Row| r.due_ns + r.latency_ns;
            let pass_end_ns = rows[base..].iter().map(done).max().unwrap_or(0);
            for s in 0..slices_per_pass {
                let last = s + 1 == slices_per_pass;
                let from = s * slice_ns;
                let to = if last {
                    pass_end_ns + 1
                } else {
                    from + slice_ns
                };
                let here: Vec<&Row> = rows[base..]
                    .iter()
                    .filter(|r| r.outcome != Outcome::Lost && (from..to).contains(&done(r)))
                    .collect();
                if here.is_empty() {
                    continue;
                }
                let good = || here.iter().filter(|r| r.in_limit).map(|r| done(r));
                let span_ns = good().max().unwrap_or(0) - good().min().unwrap_or(0);
                slices.push(Slice {
                    answered: here.len() as u64,
                    in_limit: good().count() as u64,
                    in_limit_span_s: span_ns as f64 / 1e9,
                    latencies_ns: sorted_latencies(here.iter().copied()),
                });
            }
        }
        let wrong = rows
            .iter()
            .filter(|r| r.outcome == Outcome::Labeled { right: false })
            .count();
        if wrong > 0 {
            faults.push(format!(
                "{wrong} labeled answers differ from the serial engine's"
            ));
        }
        Self {
            latencies_ns: sorted_latencies(rows.iter()),
            rows,
            slices,
            digest,
            faults,
        }
    }

    /// A window of already judged rows, without slices.
    #[cfg(test)]
    pub fn from_rows(rows: Vec<Row>) -> Self {
        Self {
            latencies_ns: sorted_latencies(rows.iter()),
            rows,
            slices: Vec::new(),
            digest: RunDigest::default(),
            faults: Vec::new(),
        }
    }

    pub fn offered(&self) -> u64 {
        self.rows.len() as u64
    }

    pub fn labeled(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Requests that got a wrong answer or no single terminal event: the
    /// operations that failed. A shed request was answered as designed; it
    /// misses its limit but did not fail.
    pub fn failed(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Lost | Outcome::Labeled { right: false }))
            .count() as u64
    }

    fn over_slices(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<f64>>())
    }

    /// Requests answered right and within the limit per second: in each
    /// slice the in-limit answers after the first, over the time from the
    /// first to the last of them; median over the slices.
    pub fn goodput_per_s(&self) -> f64 {
        self.over_slices(|s| s.goodput_per_s())
    }

    /// Share of the requests answered that were answered right and within
    /// the limit; median over the slices. (A request never answered fails
    /// the run instead.)
    pub fn inlimit_fraction(&self) -> f64 {
        self.over_slices(|s| s.in_limit as f64 / s.answered as f64)
    }

    /// Goodput, p50 and p95 of every slice, for the run's printout.
    pub fn slice_lines(&self) -> Vec<String> {
        self.slices
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "slice {i}: {} answered, {} in limit, {:.1}/s, p50 {:.1} us, p95 {:.1} us",
                    s.answered,
                    s.in_limit,
                    s.goodput_per_s(),
                    percentile(&s.latencies_ns, 0.50) as f64 / 1000.0,
                    tail_percentile(&s.latencies_ns, 0.95).0 as f64 / 1000.0
                )
            })
            .collect()
    }

    /// Median latency of labeled requests, us; median over the slices.
    pub fn lat_p50_us(&self) -> f64 {
        self.over_slices(|s| percentile(&s.latencies_ns, 0.50) as f64 / 1000.0)
    }

    /// 95th percentile of latency (or the highest percentile a slice's
    /// sample supports), us; median over the slices.
    pub fn lat_p95_us(&self) -> f64 {
        self.over_slices(|s| tail_percentile(&s.latencies_ns, 0.95).0 as f64 / 1000.0)
    }

    /// 99th percentile of latency over the whole window, us.
    pub fn lat_p99_us(&self) -> f64 {
        tail_percentile(&self.latencies_ns, 0.99).0 as f64 / 1000.0
    }

    /// Sum of `label_value` over in-limit answers per request offered: the
    /// paper's f(S, d) per data item, under the latency limit.
    pub fn value_per_item(&self) -> f64 {
        let value: f64 = self
            .rows
            .iter()
            .filter(|r| r.in_limit)
            .map(|r| r.label_value)
            .sum();
        value / self.offered().max(1) as f64
    }
}

/// Virtual GPU milliseconds billed per request answered `Labeled`.
pub fn gpu_ms_per_item(passes: &[Pass], labeled: u64) -> f64 {
    let work: u64 = passes.iter().map(|p| p.report.virtual_work_ms).sum();
    work as f64 / labeled.max(1) as f64
}
