//! The traced run's spans, recorded from outside the program: per request
//! a root span `request` and five children that tile it. They are built
//! from the harness's own timestamps and the durations the request's
//! `LabelResult` reports, kept in memory, and written out after the window.

use crate::measure::{Outcome, Row, Window};
use serde::Value;
use std::io::Write;
use std::path::Path;

/// The children of a `request` span, in the order they tile it.
pub const CHILDREN: [&str; 5] = [
    "gen.late",
    "client.submit",
    "wire.residual",
    "server.queue_wait",
    "server.execute",
];

/// Requests whose spans are written out, at most; more are strided.
const MAX_WRITTEN: usize = 4000;

/// Durations of a request's five child spans, ns, in [`CHILDREN`] order.
/// `wire.residual` is what the other four leave of the request: socket
/// transit both ways, server-side decode, fingerprint, admission,
/// completion push and encode, client decode. It can be slightly negative
/// when the server starts on a frame before `submit_with` has returned.
pub fn children_ns(row: &Row) -> [i64; 5] {
    let (entered, returned) = (row.submit_ns.0 as i64, row.submit_ns.1 as i64);
    let late = entered - row.due_ns as i64;
    let submit = returned - entered;
    let wait = row.queue_wait_us as i64 * 1000;
    let execute = row.execute_us as i64 * 1000;
    let residual = row.latency_ns as i64 - late - submit - wait - execute;
    [late, submit, residual, wait, execute]
}

fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Labeled { right: true } => "labeled",
        Outcome::Labeled { right: false } => "labeled_wrong",
        Outcome::Shed(reason) => match reason.name() {
            "admission" => "shed_admission",
            "overflow" => "shed_overflow",
            "deadline" => "shed_deadline",
            _ => "shed_drain",
        },
        Outcome::Cancelled => "cancelled",
        Outcome::Rejected => "rejected",
        Outcome::Lost => "lost",
    }
}

/// Check that every labeled request's children sum to its root span, and
/// return the mean duration of each child over labeled requests, us.
pub fn mean_children_us(window: &Window) -> Result<[f64; 5], String> {
    let mut sums = [0i64; 5];
    let mut labeled = 0i64;
    for row in window.rows.iter().filter(|r| r.labeled()) {
        let parts = children_ns(row);
        if parts.iter().sum::<i64>() != row.latency_ns as i64 {
            return Err(format!(
                "request {} of pass {}: child spans {parts:?} do not sum to the request span {}",
                row.k, row.pass, row.latency_ns
            ));
        }
        sums.iter_mut().zip(parts).for_each(|(s, p)| *s += p);
        labeled += 1;
    }
    Ok(sums.map(|s| s as f64 / labeled.max(1) as f64 / 1000.0))
}

/// Write `trace.<workload>.json`: the counts at the client boundary, the
/// mean of each span, and the spans themselves (name, start, end, parent;
/// the spans of one request share `req`).
pub fn write(path: &Path, workload: &str, seed: u64, window: &Window) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut counts: Vec<(String, Value)> = Vec::new();
    for row in &window.rows {
        let name = outcome_name(row.outcome);
        match counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::U64(n))) => *n += 1,
            _ => counts.push((name.to_string(), Value::U64(1))),
        }
    }
    let means = mean_children_us(window).map_err(std::io::Error::other)?;
    let mean_us = CHILDREN
        .iter()
        .zip(means)
        .map(|(name, mean)| (name.to_string(), Value::F64(mean)))
        .collect();
    let stride = window.rows.len().div_ceil(MAX_WRITTEN).max(1);
    let head = Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(seed)),
        (
            "time_unit".into(),
            Value::Str("us since the pass began".into()),
        ),
        ("requests".into(), Value::U64(window.rows.len() as u64)),
        ("written_every".into(), Value::U64(stride as u64)),
        ("outcomes".into(), Value::Object(counts)),
        ("mean_us_over_labeled".into(), Value::Object(mean_us)),
    ]);
    let head = serde_json::to_string(&crate::Json(&head)).map_err(std::io::Error::other)?;
    // Splice the span list into the head object by hand: one span a line.
    let head = head.strip_suffix('}').expect("an object ends in a brace");
    write!(out, "{head},\"spans\":[")?;
    let mut spans = SpanWriter { out, next_id: 0 };
    for (req, row) in window.rows.iter().enumerate().step_by(stride) {
        if row.outcome == Outcome::Lost {
            continue;
        }
        let due = row.due_ns as i64;
        let root = spans.span(
            None,
            req,
            row.pass,
            "request",
            due,
            due + row.latency_ns as i64,
        )?;
        let mut at = due;
        for (name, len) in CHILDREN.iter().zip(children_ns(row)) {
            spans.span(Some(root), req, row.pass, name, at, at + len)?;
            at += len;
        }
    }
    let mut out = spans.out;
    writeln!(out, "\n]}}")?;
    out.flush()
}

struct SpanWriter<W: Write> {
    out: W,
    next_id: u64,
}

impl<W: Write> SpanWriter<W> {
    /// Write one span (times in ns in, us out) and return its id.
    fn span(
        &mut self,
        parent: Option<u64>,
        req: usize,
        pass: u32,
        name: &str,
        from_ns: i64,
        to_ns: i64,
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let sep = if id == 0 { "" } else { "," };
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            self.out,
            "{sep}\n{{\"id\":{id},\"parent\":{parent},\"req\":{req},\"pass\":{pass},\"name\":\"{name}\",\"start_us\":{},\"end_us\":{}}}",
            from_ns as f64 / 1000.0,
            to_ns as f64 / 1000.0
        )?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row {
            pass: 0,
            k: 3,
            class: 0,
            outcome: Outcome::Labeled { right: true },
            in_limit: true,
            latency_ns: 5_000_000,
            due_ns: 1_000_000,
            submit_ns: (1_200_000, 1_230_000),
            queue_wait_us: 1500,
            execute_us: 2000,
            models: 4,
            alone_ms: 900,
            label_value: 1.0,
            deadline_met: true,
        }
    }

    #[test]
    fn children_tile_the_request_span() {
        let parts = children_ns(&row());
        assert_eq!(parts, [200_000, 30_000, 1_270_000, 1_500_000, 2_000_000]);
        assert_eq!(parts.iter().sum::<i64>(), 5_000_000);
    }

    #[test]
    fn trace_file_is_json_with_six_spans_a_request() {
        let window = Window::from_rows(vec![row(), row()]);
        let path = std::env::temp_dir().join(format!("ams-trace-test-{}.json", std::process::id()));
        write(&path, "unit", 7, &window).expect("written");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("removed");
        let parsed = serde_json::parse_value(&text).expect("the trace file parses");
        let Some(Value::Array(spans)) = parsed.field("spans") else {
            panic!("spans is a list");
        };
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[0].field("parent"), Some(&Value::Null));
        assert_eq!(spans[7].field("parent"), Some(&Value::U64(6)));
        assert_eq!(parsed.field("requests"), Some(&Value::U64(2)));
    }
}
