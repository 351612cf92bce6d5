//! The shared memory pool of the multi-processor setting (Algorithm 2).
//!
//! Jobs admitted into the pool run concurrently as long as their combined
//! memory fits; each completion releases memory and moves the virtual
//! clock to the completion instant. This is the paper's loop — pack
//! models into GPU memory, wait until one finishes, release its memory,
//! re-plan — and every scheduler and packer in the workspace runs on it.

use crate::Job;

/// A GPU memory pool on a virtual clock: the time, the memory free, and
/// the running jobs as `(finish_ms, id, mem_mb)`.
///
/// Times are integer milliseconds, so event order is exact and
/// reproducible. Nothing is recorded beyond the running set: a caller that
/// wants a trace builds it from what [`Pool::wait_next`] returns.
#[derive(Debug)]
pub struct Pool {
    capacity_mb: u32,
    now_ms: u64,
    free_mb: u32,
    running: Vec<(u64, usize, u32)>,
}

impl Pool {
    /// An idle pool of `capacity_mb` at virtual time 0.
    pub fn new(capacity_mb: u32) -> Self {
        Self {
            capacity_mb,
            now_ms: 0,
            free_mb: capacity_mb,
            running: Vec::new(),
        }
    }

    /// Empty the pool and set its clock to `now_ms`, keeping its buffer.
    pub(crate) fn reset(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
        self.free_mb = self.capacity_mb;
        self.running.clear();
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Memory free right now.
    pub fn free_mb(&self) -> u32 {
        self.free_mb
    }

    /// Whether a job of `mem_mb` can be admitted right now.
    pub fn fits(&self, mem_mb: u32) -> bool {
        mem_mb <= self.free_mb
    }

    /// Start `job` at the clock and return its finish. The caller has
    /// checked [`Pool::fits`].
    pub fn admit(&mut self, job: Job) -> u64 {
        debug_assert!(self.fits(job.mem_mb), "admitted {job:?} past the pool");
        let finish_ms = self.now_ms + u64::from(job.time_ms);
        self.free_mb -= job.mem_mb;
        self.running.push((finish_ms, job.id, job.mem_mb));
        finish_ms
    }

    /// The earliest finish among the running jobs, `None` when idle.
    pub fn next_finish_ms(&self) -> Option<u64> {
        self.running.iter().map(|&(finish_ms, ..)| finish_ms).min()
    }

    /// Wait for the earliest finish (the lowest id on a tie): move the
    /// clock to it, release its memory and return it as `(finish_ms, id,
    /// mem_mb)`. `None` when nothing is running.
    pub fn wait_next(&mut self) -> Option<(u64, usize, u32)> {
        let (first, _) = self
            .running
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(finish_ms, id, _))| (finish_ms, id))?;
        let done = self.running.swap_remove(first);
        self.now_ms = done.0;
        self.free_mb += done.2;
        Some(done)
    }
}

impl Clone for Pool {
    fn clone(&self) -> Self {
        Self {
            running: self.running.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s buffer, so a packer's trial pools stop allocating
    /// once they have grown.
    fn clone_from(&mut self, source: &Self) {
        self.running.clone_from(&source.running);
        (self.capacity_mb, self.now_ms, self.free_mb) =
            (source.capacity_mb, source.now_ms, source.free_mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchLatencyModel;
    use crate::trace::{ExecTrace, Span};

    fn job(id: usize, t: u32, m: u32) -> Job {
        Job {
            id,
            time_ms: t,
            mem_mb: m,
        }
    }

    /// A completion `(end_ms, id, mem_mb)` as the span of a job that took
    /// `time_ms`.
    fn span((end_ms, job, mem_mb): (u64, usize, u32), time_ms: u32) -> Span {
        let start_ms = end_ms - u64::from(time_ms);
        Span {
            job,
            start_ms,
            end_ms,
            mem_mb,
        }
    }

    /// Wait out every running job; job `id` took `times[id]`.
    fn drain(pool: &mut Pool, times: &[u32]) -> ExecTrace {
        let mut trace = ExecTrace::default();
        while let Some(done) = pool.wait_next() {
            trace.push(span(done, times[done.1]));
        }
        trace
    }

    #[test]
    fn parallel_overlap_shortens_makespan() {
        let mut pool = Pool::new(1000);
        assert_eq!(pool.admit(job(0, 300, 400)), 300);
        assert_eq!(pool.admit(job(1, 200, 400)), 200);
        assert_eq!(pool.wait_next(), Some((200, 1, 400)), "shorter job first");
        assert_eq!(pool.now_ms(), 200);
        assert_eq!(pool.next_finish_ms(), Some(300));
        let t = drain(&mut pool, &[300, 200]);
        assert_eq!(pool.now_ms(), 300);
        assert_eq!(t.makespan_ms(), 300);
        assert!(t.respects_memory(800));
    }

    #[test]
    fn memory_gate_rejects_oversubscription() {
        let mut pool = Pool::new(500);
        pool.admit(job(0, 100, 300));
        assert!(!pool.fits(300));
        assert_eq!(pool.free_mb(), 200);
        // after completion the memory frees up
        pool.wait_next().expect("job 0 is running");
        assert!(pool.fits(300));
    }

    #[test]
    fn admission_after_wait_starts_at_current_time() {
        let mut pool = Pool::new(1000);
        pool.admit(job(0, 100, 100));
        pool.wait_next().expect("job 0 is running");
        assert_eq!(pool.admit(job(1, 50, 100)), 150);
        assert_eq!(pool.wait_next(), Some((150, 1, 100)));
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let mut pool = Pool::new(1000);
        pool.admit(job(5, 100, 100));
        pool.admit(job(2, 100, 100));
        assert_eq!(pool.wait_next().map(|d| d.1), Some(2));
        assert_eq!(pool.wait_next().map(|d| d.1), Some(5));
    }

    #[test]
    fn drain_completes_everything() {
        let mut pool = Pool::new(10_000);
        for i in 0..5 {
            pool.admit(job(i, 100 * (i as u32 + 1), 1000));
        }
        let t = drain(&mut pool, &[100, 200, 300, 400, 500]);
        assert_eq!(t.completion_order(), [0, 1, 2, 3, 4]);
        assert_eq!((pool.next_finish_ms(), pool.free_mb()), (None, 10_000));
        assert!(t.respects_memory(10_000));
    }

    #[test]
    fn batched_admission_charges_pool_once_and_batch_latency() {
        let model = BatchLatencyModel::new(500);
        let mut pool = Pool::new(500);
        // An 8-item batch of a 100ms/400MB model is one 400MB job of
        // 50 + 8*50 = 450ms.
        let time_ms = model.batch_time_ms(100, 8) as u32;
        assert_eq!(pool.admit(job(0, time_ms, 400)), 450);
        assert_eq!(
            pool.free_mb(),
            100,
            "memory charged per batch, not per item"
        );
        assert!(!pool.fits(400));
        assert_eq!(pool.wait_next(), Some((450, 0, 400)));
        assert_eq!(pool.free_mb(), 500);
    }

    #[test]
    fn trace_memory_profile_matches_pool_constraint() {
        let times = [300, 100, 100];
        let mut pool = Pool::new(700);
        pool.admit(job(0, 300, 400));
        pool.admit(job(1, 100, 300));
        let first = pool.wait_next().expect("job 1 finishes at t=100");
        assert!(pool.fits(300), "job 1 freed 300MB");
        pool.admit(job(2, 100, 300));
        let mut t = drain(&mut pool, &times);
        t.push(span(first, times[1]));
        assert!(t.respects_memory(700));
        assert_eq!(t.peak_mem_mb(), 700);
    }

    #[test]
    fn acquire_release_cycle() {
        let mut pool = Pool::new(1000);
        assert!(pool.fits(1000));
        pool.admit(job(0, 10, 600));
        assert_eq!(pool.free_mb(), 400);
        assert!(!pool.fits(401));
        pool.admit(job(1, 20, 400));
        assert_eq!(pool.free_mb(), 0);
        pool.wait_next().expect("job 0 is running");
        assert_eq!(pool.free_mb(), 600);
        pool.reset(5);
        assert_eq!((pool.now_ms(), pool.free_mb()), (5, 1000));
        assert_eq!(pool.next_finish_ms(), None);
    }
}
