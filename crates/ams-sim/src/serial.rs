//! Single-processor execution under a deadline (the Algorithm 1 setting).

use crate::trace::{ExecTrace, Span};
use crate::Job;

/// Serial executor: runs one job at a time against a per-item deadline.
#[derive(Debug, Clone)]
pub struct SerialExecutor {
    /// Elapsed virtual time, ms.
    now_ms: u64,
    deadline_ms: u64,
    trace: ExecTrace,
}

impl SerialExecutor {
    /// Executor with a total time budget (`B_time`) in milliseconds.
    pub fn new(deadline_ms: u64) -> Self {
        Self {
            now_ms: 0,
            deadline_ms,
            trace: ExecTrace::default(),
        }
    }

    /// Remaining budget.
    pub fn remaining_ms(&self) -> u64 {
        self.deadline_ms.saturating_sub(self.now_ms)
    }

    /// Elapsed virtual time.
    pub fn elapsed_ms(&self) -> u64 {
        self.now_ms
    }

    /// Whether `job` fits in the remaining budget.
    pub fn fits(&self, job: &Job) -> bool {
        u64::from(job.time_ms) <= self.remaining_ms()
    }

    /// Run `job` to completion. Returns `false` (and does nothing) when the
    /// job does not fit in the remaining budget.
    pub fn run(&mut self, job: Job) -> bool {
        if !self.fits(&job) {
            return false;
        }
        let start_ms = self.now_ms;
        self.now_ms += u64::from(job.time_ms);
        self.trace.push(Span {
            job: job.id,
            start_ms,
            end_ms: self.now_ms,
            mem_mb: job.mem_mb,
        });
        true
    }

    /// The trace so far.
    pub fn trace(&self) -> &ExecTrace {
        &self.trace
    }

    /// Consume the executor, returning its trace.
    pub fn into_trace(self) -> ExecTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, t: u32) -> Job {
        Job {
            id,
            time_ms: t,
            mem_mb: 100,
        }
    }

    #[test]
    fn runs_until_deadline() {
        let mut ex = SerialExecutor::new(500);
        assert!(ex.run(job(0, 200)));
        assert!(ex.run(job(1, 200)));
        assert_eq!(ex.remaining_ms(), 100);
        assert!(!ex.run(job(2, 200)), "job over budget must be rejected");
        assert!(ex.run(job(3, 100)), "exact fit is allowed");
        assert_eq!(ex.remaining_ms(), 0);
    }

    #[test]
    fn trace_is_serial_and_ordered() {
        let mut ex = SerialExecutor::new(1000);
        for i in 0..4 {
            ex.run(job(i, 100));
        }
        let t = ex.into_trace();
        assert!(t.is_serial());
        assert_eq!(t.completion_order(), vec![0, 1, 2, 3]);
        assert_eq!(t.makespan_ms(), 400);
    }

    #[test]
    fn rejected_job_leaves_no_trace() {
        let mut ex = SerialExecutor::new(50);
        assert!(!ex.run(job(0, 100)));
        assert!(ex.trace().spans.is_empty());
        assert_eq!(ex.elapsed_ms(), 0);
    }
}
