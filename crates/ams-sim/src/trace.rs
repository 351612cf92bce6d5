//! Execution traces and their invariants.

use serde::{Deserialize, Serialize};

/// One executed job's time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Job id.
    pub job: usize,
    /// Start time, ms.
    pub start_ms: u64,
    /// End time, ms (exclusive).
    pub end_ms: u64,
    /// Memory held over the span, MB.
    pub mem_mb: u32,
}

/// A full execution trace: the spans of every job that ran.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExecTrace {
    /// Spans in the order recorded: start order for a serial run,
    /// completion order for a pool's.
    pub spans: Vec<Span>,
}

impl ExecTrace {
    /// Record a span.
    pub fn push(&mut self, span: Span) {
        debug_assert!(span.end_ms >= span.start_ms);
        self.spans.push(span);
    }

    /// Latest end time across spans (total schedule length).
    pub fn makespan_ms(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ms).max().unwrap_or(0)
    }

    /// Sum of job times (serial work content).
    pub fn busy_ms(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ms - s.start_ms).sum()
    }

    /// Peak concurrent memory across the trace, computed from span overlap.
    pub fn peak_mem_mb(&self) -> u32 {
        // sweep over start/end events
        let mut events: Vec<(u64, i64)> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            events.push((s.start_ms, i64::from(s.mem_mb)));
            events.push((s.end_ms, -i64::from(s.mem_mb)));
        }
        // releases before acquisitions at the same instant
        events.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as u32
    }

    /// Check that concurrent memory never exceeds `capacity_mb`.
    pub fn respects_memory(&self, capacity_mb: u32) -> bool {
        self.peak_mem_mb() <= capacity_mb
    }

    /// Check that no two spans overlap in time (serial executions only).
    pub fn is_serial(&self) -> bool {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| s.start_ms);
        sorted.windows(2).all(|w| w[0].end_ms <= w[1].start_ms)
    }

    /// Job ids in completion order.
    pub fn completion_order(&self) -> Vec<usize> {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.end_ms, s.start_ms, s.job));
        sorted.iter().map(|s| s.job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: usize, start: u64, end: u64, mem: u32) -> Span {
        Span {
            job,
            start_ms: start,
            end_ms: end,
            mem_mb: mem,
        }
    }

    #[test]
    fn makespan_and_busy() {
        let mut t = ExecTrace::default();
        t.push(span(0, 0, 100, 10));
        t.push(span(1, 50, 250, 20));
        assert_eq!(t.makespan_ms(), 250);
        assert_eq!(t.busy_ms(), 300);
    }

    #[test]
    fn peak_memory_with_overlap() {
        let mut t = ExecTrace::default();
        t.push(span(0, 0, 100, 10));
        t.push(span(1, 50, 150, 20)); // overlaps 0
        t.push(span(2, 100, 200, 30)); // starts exactly when 0 ends
        assert_eq!(t.peak_mem_mb(), 50); // 1 & 2 overlap in (100,150)
        assert!(t.respects_memory(50));
        assert!(!t.respects_memory(49));
    }

    #[test]
    fn release_before_acquire_at_same_instant() {
        let mut t = ExecTrace::default();
        t.push(span(0, 0, 100, 40));
        t.push(span(1, 100, 200, 40));
        assert_eq!(t.peak_mem_mb(), 40, "back-to-back jobs don't stack");
    }

    #[test]
    fn serial_detection() {
        let mut t = ExecTrace::default();
        t.push(span(0, 0, 100, 1));
        t.push(span(1, 100, 180, 1));
        assert!(t.is_serial());
        t.push(span(2, 150, 160, 1));
        assert!(!t.is_serial());
    }

    #[test]
    fn completion_order_sorted_by_end() {
        let mut t = ExecTrace::default();
        t.push(span(7, 0, 300, 1));
        t.push(span(3, 0, 100, 1));
        t.push(span(5, 100, 200, 1));
        assert_eq!(t.completion_order(), vec![3, 5, 7]);
    }

    #[test]
    fn empty_trace() {
        let t = ExecTrace::default();
        assert_eq!(t.makespan_ms(), 0);
        assert_eq!(t.peak_mem_mb(), 0);
        assert!(t.is_serial());
    }
}
