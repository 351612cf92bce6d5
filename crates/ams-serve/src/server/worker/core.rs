//! The worker's time rules as a plain value: its virtual GPU pool and plan,
//! when each staged member is due, whether the next batch may be popped,
//! and the busy span the service hint is published from. Nothing here
//! reads a clock, locks or blocks — time is the `now_us` a call receives,
//! µs after the shard queue's epoch — so every rule is tested with literal
//! microseconds. The shell (`mod.rs`) owns the clock reads and the pause.

use super::super::ServeConfig;
use ams_sim::{Admitted, BatchLatencyModel, Job, PoolTimeline};

/// Batches of pool look-ahead a worker that has its shard to itself keeps:
/// it pops the next full batch while fewer than this many batches of
/// staged members (`LOOK_AHEAD_BATCHES × max_batch`) still have a run in
/// a group that has not started. Those runs may join the open groups of
/// their models, so a deeper look-ahead shares more setups.
pub const LOOK_AHEAD_BATCHES: usize = 2;

// ams-lint: begin(no-panic) worker hot loop — a panicking worker strands
// its shard queue and every in-flight ticket on it

/// What the worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Gate {
    /// Enough staged members wait on unstarted groups: pause until the
    /// first of those groups starts.
    Hold,
    /// Pop a full batch, waiting for work only until the next member is
    /// due.
    PopFull,
    /// Nothing is in flight: pop whatever is queued, waiting for work for
    /// as long as it takes.
    PopAny,
    /// Too little is queued for a full batch: pause until the next member
    /// is due, so a partial batch waits for the pool to drain.
    WaitDue,
}

/// The pop decision. `in_flight` members are staged on the pool, of which
/// `unstarted` still have a run in a group that has not started; `queued`
/// is the live queue depth.
///
/// With one worker per shard the look-ahead is [`LOOK_AHEAD_BATCHES`]
/// full batches. With several there is none — the full batch waits until
/// every group here has started — since a pop binds it to this worker's
/// pool while a sibling may free sooner.
fn gate(
    in_flight: usize,
    unstarted: usize,
    queued: usize,
    max_batch: usize,
    workers_per_shard: usize,
) -> Gate {
    let look_ahead = if workers_per_shard == 1 {
        LOOK_AHEAD_BATCHES * max_batch
    } else {
        1
    };
    if in_flight == 0 {
        Gate::PopAny
    } else if unstarted >= look_ahead {
        Gate::Hold
    } else if queued >= max_batch {
        Gate::PopFull
    } else {
        Gate::WaitDue
    }
}

/// A member on the pool: the payload, the models it ran, the admit that
/// took those runs, and when its own last group starts and finishes.
struct Staged<T> {
    member: T,
    models: Vec<usize>,
    admit: u64,
    due_us: u64,
    last_start_us: u64,
}

/// Virtual pool ms `v_ms` as µs after the epoch, at `us_per_ms`.
fn to_us(v_ms: u64, us_per_ms: f64) -> u64 {
    (v_ms as f64 * us_per_ms) as u64
}

/// One worker's pool, the members staged on it, and its service clock,
/// generic over the member payload the shell delivers.
pub(super) struct WorkerCore<T> {
    /// Wall µs per virtual pool ms: 1000 × `exec_emulation_scale` (0: the
    /// pool is infinitely fast and every member is due at admission).
    us_per_ms: f64,
    /// The pop gate's batch size and the shard's worker count.
    max_batch: usize,
    workers_per_shard: usize,
    /// The pool's per-model batch latency.
    batch_model: BatchLatencyModel,
    /// Every model's job, by model index, and the batch's runs of it: the
    /// pool skips a model with none.
    groups: Vec<(Job, usize)>,
    pool: PoolTimeline,
    /// The pool's latest finish, virtual ms.
    pool_end_ms: u64,
    /// Admitted members not yet delivered, in due order.
    in_flight: Vec<Staged<T>>,
    /// The previous batch's start, µs, and size.
    last_batch: Option<(u64, usize)>,
    /// µs blocked on the queue since then.
    blocked_us: u64,
}

impl<T> WorkerCore<T> {
    /// An idle worker under `cfg` over the models `jobs` (job `i` is model
    /// `i`).
    pub(super) fn new(cfg: &ServeConfig, jobs: impl IntoIterator<Item = Job>) -> Self {
        Self {
            us_per_ms: cfg.exec_emulation_scale * 1000.0,
            max_batch: cfg.max_batch,
            workers_per_shard: cfg.workers_per_shard,
            batch_model: cfg.batch_model,
            groups: jobs.into_iter().map(|job| (job, 0)).collect(),
            pool: PoolTimeline::new(cfg.pool_mb),
            pool_end_ms: 0,
            in_flight: Vec::new(),
            last_batch: None,
            blocked_us: 0,
        }
    }

    /// When the pool's plan ends, µs (0 without emulation: nothing
    /// planned, as the queue reads it).
    pub(super) fn end_us(&self) -> u64 {
        to_us(self.pool_end_ms, self.us_per_ms)
    }

    /// The pacing decision at `now_us`, once every member due by then is
    /// taken, with `queued` live requests on the shard queue, and the
    /// instant it runs to: when the first unstarted group starts for
    /// [`Gate::Hold`], else when the next member is due — a pop with
    /// members in flight waits for work only until then, so none is
    /// stranded behind an empty queue.
    pub(super) fn pace(&self, now_us: u64, queued: usize) -> (Gate, u64) {
        let due = self.in_flight.first().map_or(now_us, |m| m.due_us);
        let (mut unstarted, mut first_start) = (0, due);
        for m in self.in_flight.iter().filter(|m| m.last_start_us > now_us) {
            unstarted += 1;
            first_start = first_start.min(m.last_start_us);
        }
        let (max, workers) = (self.max_batch, self.workers_per_shard);
        match gate(self.in_flight.len(), unstarted, queued, max, workers) {
            Gate::Hold => (Gate::Hold, first_start),
            gate => (gate, due),
        }
    }

    /// Take every member due at `now_us`, in due order.
    pub(super) fn take_due(&mut self, now_us: u64) -> Vec<T> {
        let due = self.in_flight.partition_point(|m| m.due_us <= now_us);
        self.in_flight.drain(..due).map(|m| m.member).collect()
    }

    /// Batched admission at `now_us`: one invocation per model over the
    /// whole batch — each `(member, models it ran)` — streamed into the
    /// pool behind what has started, each run joining its model's open
    /// group when there is one. Members in flight are re-dued to the
    /// re-planned groups and the batch is staged, each member due at the
    /// latest finish among the groups its runs joined.
    pub(super) fn admit(&mut self, batch: Vec<(T, Vec<usize>)>, now_us: u64) -> Admitted {
        self.groups.iter_mut().for_each(|(_, runs)| *runs = 0);
        for &m in batch.iter().flat_map(|(_, models)| models) {
            if let Some((_, runs)) = self.groups.get_mut(m) {
                *runs += 1;
            }
        }
        // Without emulation the pool is infinitely fast next to the wall
        // clock: it has always drained.
        let now_ms = if self.us_per_ms > 0.0 {
            (now_us as f64 / self.us_per_ms) as u64
        } else {
            self.pool_end_ms
        };
        self.pool.advance_to(now_ms);
        let admitted = self.pool.admit(&self.groups, &self.batch_model);
        self.pool_end_ms = admitted.end_ms;
        let admit = admitted.index;
        self.in_flight
            .extend(batch.into_iter().map(|(member, models)| Staged {
                member,
                models,
                admit,
                due_us: 0,
                last_start_us: 0,
            }));
        // Re-due every member from where the pool now has its runs: a
        // group finished by the clock no longer counts, and a re-plan
        // moves only groups that start after it, so no member is delivered
        // before its last group ends. The sort is stable: among equal dues
        // the earlier admit stays first.
        let (pool, us_per_ms) = (&self.pool, self.us_per_ms);
        for m in &mut self.in_flight {
            let groups = m.models.iter().filter_map(|&id| pool.group_of(m.admit, id));
            let (start, finish) =
                groups.fold((0, 0), |(s, f), g| (s.max(g.start_ms), f.max(g.finish_ms)));
            (m.last_start_us, m.due_us) = (to_us(start, us_per_ms), to_us(finish, us_per_ms));
        }
        self.in_flight.sort_by_key(|m| m.due_us);
        admitted
    }

    /// The worker spent `us` blocked waiting for work: not busy time.
    pub(super) fn blocked(&mut self, us: u64) {
        self.blocked_us = self.blocked_us.saturating_add(us);
    }

    /// A batch of `len` starts at `at_us`: the previous batch's busy span,
    /// µs — the time between their starts less the time blocked on an
    /// empty queue — and size (`None` for the first batch). With batches
    /// streaming through the pool the members' execute spans overlap, so
    /// a batch's drain time is this span, not any member's.
    pub(super) fn batch_started(&mut self, at_us: u64, len: usize) -> Option<(u64, usize)> {
        let blocked = std::mem::take(&mut self.blocked_us);
        let (start, n) = self.last_batch.replace((at_us, len))?;
        Some((at_us.saturating_sub(start).saturating_sub(blocked), n))
    }

    /// Commit what has not started yet and return the pool's busy time,
    /// virtual ms: the union of its committed groups' intervals.
    pub(super) fn finish(&mut self) -> u64 {
        self.pool.advance_to(u64::MAX);
        self.pool.busy_ms()
    }
}

// ams-lint: end(no-panic)

#[cfg(test)]
mod tests {
    use super::{gate, Gate, WorkerCore};
    use crate::server::ServeConfig;
    use ams_sim::Job;

    /// `gate` at a batch limit of 8 with a full batch queued.
    fn full_queue(in_flight: usize, unstarted: usize, workers: usize) -> Gate {
        gate(in_flight, unstarted, 8, 8, workers)
    }

    #[test]
    fn one_worker_looks_two_batches_ahead() {
        assert_eq!(full_queue(20, 15, 1), Gate::PopFull, "2 x 8 - 1 unstarted");
        assert_eq!(full_queue(20, 16, 1), Gate::Hold, "2 x 8 unstarted");
        assert_eq!(full_queue(20, 0, 1), Gate::PopFull);
    }

    #[test]
    fn several_workers_hold_on_one_unstarted_member() {
        assert_eq!(full_queue(8, 0, 2), Gate::PopFull, "every group started");
        assert_eq!(full_queue(8, 1, 2), Gate::Hold);
        assert_eq!(full_queue(8, 1, 4), Gate::Hold);
    }

    #[test]
    fn a_partial_batch_waits_for_the_drain() {
        assert_eq!(gate(3, 0, 7, 8, 1), Gate::WaitDue);
        assert_eq!(gate(3, 0, 0, 8, 2), Gate::WaitDue);
        // The hold comes first: a partial batch behind a held pool holds.
        assert_eq!(gate(20, 16, 7, 8, 1), Gate::Hold);
    }

    #[test]
    fn an_empty_pool_pops_anything() {
        assert_eq!(gate(0, 0, 0, 8, 1), Gate::PopAny);
        assert_eq!(gate(0, 0, 3, 8, 1), Gate::PopAny);
        assert_eq!(gate(0, 0, 3, 8, 2), Gate::PopAny);
    }

    /// The service hint is busy time between batch starts, blocked time
    /// excluded: 10 ms from start to start with 3 ms blocked on an empty
    /// queue is a 7 ms span for the 4-request batch.
    #[test]
    fn service_clock_publishes_busy_time_between_batch_starts() {
        let mut clock = core(0.0);
        clock.blocked(5_000);
        assert_eq!(clock.batch_started(0, 4), None, "nothing before it");
        clock.blocked(1_000);
        clock.blocked(2_000);
        assert_eq!(clock.batch_started(10_000, 2), Some((7_000, 4)));
        // A busy stretch with no blocking counts whole; blocking longer
        // than the gap (clock skew) counts nothing.
        assert_eq!(clock.batch_started(16_000, 1), Some((6_000, 2)));
        clock.blocked(9_000);
        assert_eq!(clock.batch_started(20_000, 1), Some((0, 1)));
    }

    /// Three 100 ms models of 1 MB each on a 1 MB pool — one group runs at
    /// a time — at `scale` wall ms per virtual ms. A lone run takes 100 ms
    /// (70 of them setup), each further run in its group 30 more.
    fn core(scale: f64) -> WorkerCore<u32> {
        let cfg = ServeConfig {
            pool_mb: 1,
            exec_emulation_scale: scale,
            ..ServeConfig::default()
        };
        let job = |id| Job {
            id,
            time_ms: 100,
            mem_mb: 1,
        };
        WorkerCore::new(&cfg, vec![job(0), job(1), job(2)])
    }

    /// Half a wall ms per virtual ms: a virtual ms is 500 µs.
    const SCALE: f64 = 0.5;

    /// Without emulation the plan ends at 0, which the queue reads as
    /// nothing planned: both doom tests price the queue wait alone.
    #[test]
    fn the_pool_wait_is_published_only_under_emulation() {
        let end_us = |scale| {
            let mut core = core(scale);
            core.admit(vec![(1, vec![0, 1])], 0);
            core.end_us()
        };
        assert_eq!(end_us(0.0), 0);
        assert!(end_us(1e-3) > 0);
    }

    /// Member 1 ran only model 0, member 2 models 0 and 1: model 0's group
    /// of two (0–130 ms) goes first, then model 1's (130–230 ms). Member 1
    /// is due at 130 ms, not at the batch's 230.
    #[test]
    fn a_member_is_due_at_its_own_last_groups_finish() {
        let mut core = core(SCALE);
        let admit = core.admit(vec![(1, vec![0]), (2, vec![0, 1])], 0);
        assert_eq!(
            (admit.bill_ms, admit.opened, core.end_us()),
            (230, 2, 115_000)
        );
        assert_eq!(core.take_due(64_999), Vec::<u32>::new());
        assert_eq!(core.take_due(65_000), vec![1], "130 ms x 500 µs");
        assert_eq!(core.take_due(114_999), Vec::<u32>::new());
        assert_eq!(core.take_due(115_000), vec![2]);
        assert_eq!(
            core.pace(115_000, 0),
            (Gate::PopAny, 115_000),
            "none in flight"
        );
    }

    /// Member 1's models 0 (0–100 ms) and 1 (100–200 ms) are planned at 0.
    /// At 10 ms model 1's group has not started: a member running model 1
    /// joins it — no group opened, 30 ms billed instead of 100 — and
    /// member 1 is re-dued to the merged finish, 230 ms. One running model
    /// 2 opens its own group and leaves member 1 where it was.
    #[test]
    fn a_later_admit_joins_an_unstarted_group() {
        let at_10_ms = 5_000;
        let mut shared = core(SCALE);
        shared.admit(vec![(1, vec![0, 1])], 0);
        let joined = shared.admit(vec![(2, vec![1])], at_10_ms);
        let mut apart = core(SCALE);
        apart.admit(vec![(1, vec![0, 1])], 0);
        let opened = apart.admit(vec![(3, vec![2])], at_10_ms);
        assert_eq!((joined.opened, opened.opened), (0, 1), "one group fewer");
        assert_eq!(
            (joined.bill_ms, opened.bill_ms),
            (30, 100),
            "one setup less"
        );
        assert_eq!(shared.take_due(114_999), Vec::<u32>::new());
        assert_eq!(shared.take_due(115_000), vec![1, 2], "230 ms x 500 µs");
        assert_eq!(apart.take_due(100_000), vec![1], "200 ms x 500 µs");
    }

    /// At 150 ms model 1's group (100–200 ms) has started: a later run of
    /// model 1 opens a group of its own behind it (200–300 ms) and member 1
    /// stays due at 200 ms.
    #[test]
    fn a_started_group_is_never_joined_or_moved() {
        let mut core = core(SCALE);
        core.admit(vec![(1, vec![0, 1])], 0);
        let late = core.admit(vec![(2, vec![1])], 75_000);
        assert_eq!(
            (late.opened, late.bill_ms, core.end_us()),
            (1, 100, 150_000)
        );
        assert_eq!(core.take_due(99_999), Vec::<u32>::new());
        assert_eq!(core.take_due(100_000), vec![1], "200 ms x 500 µs");
        assert_eq!(core.take_due(150_000), vec![2], "300 ms x 500 µs");
    }

    /// Without emulation the pool has always drained: every member is due
    /// at admission, however long its models run.
    #[test]
    fn without_emulation_every_member_is_due_at_admission() {
        let mut core = core(0.0);
        core.admit(vec![(1, vec![0, 1, 2])], 0);
        core.admit(vec![(2, vec![0]), (3, vec![2])], 0);
        assert_eq!(core.end_us(), 0);
        assert_eq!(core.take_due(0), vec![1, 2, 3]);
    }
}
