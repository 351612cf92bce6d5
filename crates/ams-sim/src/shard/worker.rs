//! The worker's time rules and their order as a plain value: one step at a
//! time ([`WorkerCore::next`]) it says whether to deliver what is due,
//! pause, pop, close the open batch or stop, and the serving layer's
//! worker does it and reports what a pop found ([`WorkerCore::popped`]).
//! Under the steps sit its virtual GPU pool and plan, each staged member's
//! due and the busy span the service hint is published from. Time is the
//! `now_us` a call receives, µs after the shard queue's epoch. The shell
//! owns the clock reads, the pause and the side effects.
//!
//! The whole file is a no-panic zone (LINTS.md): a panicking worker
//! strands its shard queue and every in-flight ticket on it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::{Admitted, BatchLatencyModel, Job, PoolTimeline};

/// Batches of pool look-ahead a worker that has its shard to itself keeps:
/// it pops the next full batch while fewer than this many batches of
/// staged members (`LOOK_AHEAD_BATCHES × max_batch`) still have a run in
/// a group that has not started. Those runs may join the open groups of
/// their models, so a deeper look-ahead shares more setups.
pub const LOOK_AHEAD_BATCHES: usize = 2;

/// What the worker does next, at the `now_us` it was asked at.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<T> {
    /// Deliver these members, due by now, in due order.
    Deliver(Vec<T>),
    /// Pause until this instant.
    Sleep(u64),
    /// Pop requests, claim them and label what survives into the open
    /// batch, then report back ([`WorkerCore::popped`]).
    Pop {
        /// At most this many.
        room: usize,
        /// Wait for work until this instant (`None`: for as long as it
        /// takes; an instant already past: not at all).
        until_us: Option<u64>,
    },
    /// Close the open batch: admit it to the pool now.
    Admit {
        /// Its members.
        len: usize,
        /// The previous batch's busy span, µs — the time between the two
        /// batches' first pops less the time blocked on an empty queue —
        /// and size (`None` for the first batch). With batches streaming
        /// through the pool the members' execute spans overlap, so a
        /// batch's drain time is this span, not any member's.
        busy: Option<(u64, usize)>,
    },
    /// The queue is closed and drained, and nothing is in flight.
    Done,
}

/// How many more requests may join a batch of `len` before its admission
/// to the pool: what queued while it was being labeled, up to a full
/// batch. With one worker per shard the batch stays open until then. With
/// several it closes at the pop, as the pop gate gives them no look-ahead:
/// a pop binds a request to this worker's pool while a sibling may be free.
pub fn join_room(len: usize, max_batch: usize, workers_per_shard: usize) -> usize {
    if workers_per_shard == 1 {
        max_batch.saturating_sub(len)
    } else {
        0
    }
}

/// A member on the pool: the payload, the mask of the models it ran (a
/// zoo has at most 64), the admit that took those runs, and when its own
/// last group starts and finishes.
struct Staged<T> {
    member: T,
    models: u64,
    admit: u64,
    due_us: u64,
    last_start_us: u64,
}

/// The models of `mask`, in index order.
fn models_of(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |m| mask >> m & 1 == 1)
}

/// A batch between its first pop and its admission: that pop's instant
/// (the batch's start), its members so far, and whether its last pop found
/// work.
#[derive(Clone, Copy)]
struct Open {
    start_us: u64,
    len: usize,
    found: bool,
}

/// Virtual pool ms `v_ms` as µs after the epoch, at `us_per_ms`.
fn to_us(v_ms: u64, us_per_ms: f64) -> u64 {
    (v_ms as f64 * us_per_ms) as u64
}

/// One worker's pool, the members staged on it, and its service clock,
/// generic over the member payload the shell delivers.
pub struct WorkerCore<T> {
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
    /// The batch being popped and labeled, not yet admitted.
    open: Option<Open>,
    /// The previous batch's start, µs, and size.
    last_batch: Option<(u64, usize)>,
    /// µs blocked on the queue since then, and since when it has been
    /// blocked if a pop just found it empty.
    blocked_us: u64,
    waited_from: Option<u64>,
    /// A pop found the queue closed and drained.
    drained: bool,
}

impl<T> WorkerCore<T> {
    /// An idle worker over the models `jobs` (job `i` is model `i`): its
    /// pool of `pool_mb` runs `batch_model`'s latencies at
    /// `exec_emulation_scale` wall ms per virtual ms, and it pops batches
    /// of `max_batch` from a queue shared by `workers_per_shard` workers.
    pub fn new(
        exec_emulation_scale: f64,
        max_batch: usize,
        workers_per_shard: usize,
        batch_model: BatchLatencyModel,
        pool_mb: u32,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Self {
        Self {
            us_per_ms: exec_emulation_scale * 1000.0,
            max_batch,
            workers_per_shard,
            batch_model,
            groups: jobs.into_iter().map(|job| (job, 0)).collect(),
            pool: PoolTimeline::new(pool_mb),
            pool_end_ms: 0,
            in_flight: Vec::new(),
            open: None,
            last_batch: None,
            blocked_us: 0,
            waited_from: None,
            drained: false,
        }
    }

    /// When the pool's plan ends, µs (0 without emulation: nothing
    /// planned, as the queue reads it).
    pub fn end_us(&self) -> u64 {
        to_us(self.pool_end_ms, self.us_per_ms)
    }

    /// The step at `now_us`, in the worker's order of phases. An open batch
    /// pops again, without waiting, while its last pop found work and
    /// [`join_room`] leaves room; then it is admitted. Only then is what is
    /// due delivered. Once a pop found the queue closed and drained, the
    /// worker is done when nothing is in flight. Otherwise the pop gate:
    /// an idle pool pops any batch, waiting as long as it takes; a pool
    /// with a look-ahead of staged members on unstarted groups pauses until
    /// the first of them starts; a full batch queued (`queued`, the live
    /// depth, read only here) is popped, waiting only until the next due;
    /// else the worker pauses until then, so a partial batch waits for the
    /// drain. The look-ahead is [`LOOK_AHEAD_BATCHES`] full batches with
    /// one worker per shard, none with several: a pop binds its batch to
    /// this pool while a sibling may free sooner.
    pub fn next(&mut self, now_us: u64, queued: impl FnOnce() -> usize) -> Step<T> {
        if let Some(from) = self.waited_from.take() {
            self.blocked_us = self.blocked_us.saturating_add(now_us.saturating_sub(from));
        }
        let (max_batch, workers) = (self.max_batch, self.workers_per_shard);
        if let Some(open) = self.open {
            let (len, until_us) = (open.len, Some(0));
            let room = join_room(len, max_batch, workers);
            if open.found && room > 0 {
                return Step::Pop { room, until_us };
            }
            self.open = None;
            let blocked = std::mem::take(&mut self.blocked_us);
            let busy = self
                .last_batch
                .replace((open.start_us, len))
                .map(|(start, n)| {
                    let span = open.start_us.saturating_sub(start);
                    (span.saturating_sub(blocked), n)
                });
            return Step::Admit { len, busy };
        }
        let due = self.in_flight.partition_point(|m| m.due_us <= now_us);
        if due > 0 {
            return Step::Deliver(self.in_flight.drain(..due).map(|m| m.member).collect());
        }
        let room = max_batch;
        let Some(due_us) = self.in_flight.first().map(|m| m.due_us) else {
            let until_us = None;
            return if self.drained {
                Step::Done
            } else {
                Step::Pop { room, until_us }
            };
        };
        let look_ahead = if workers == 1 {
            LOOK_AHEAD_BATCHES * max_batch
        } else {
            1
        };
        let unstarted = self.in_flight.iter().filter(|m| m.last_start_us > now_us);
        let (unstarted, first_start) = unstarted.fold((0, due_us), |(n, first), m| {
            (n + 1, first.min(m.last_start_us))
        });
        let until_us = Some(due_us);
        if unstarted >= look_ahead {
            Step::Sleep(first_start)
        } else if queued() >= max_batch {
            Step::Pop { room, until_us }
        } else {
            Step::Sleep(due_us)
        }
    }

    /// What the [`Step::Pop`] asked at `now_us` found: `None` when the
    /// queue was open and empty, else how many requests it took (0: the
    /// queue is closed and drained). `open_len` is the open batch's size
    /// once they are claimed and labeled; a first pop whose every request
    /// was shed opens no batch. From a gate pop that found nothing to the
    /// next step the worker is blocked, not busy.
    pub fn popped(&mut self, now_us: u64, popped: Option<usize>, open_len: usize) {
        self.drained |= popped == Some(0);
        let found = popped.is_some_and(|n| n > 0);
        match &mut self.open {
            Some(open) => (open.len, open.found) = (open_len, found),
            None if popped.is_none() => self.waited_from = Some(now_us),
            None if open_len > 0 => {
                self.open = Some(Open {
                    start_us: now_us,
                    len: open_len,
                    found,
                });
            }
            None => {}
        }
    }

    /// Batched admission at `now_us`: one invocation per model over the
    /// whole batch — each `(member, models it ran)` — streamed into the
    /// pool behind what has started, each run joining its model's open
    /// group when there is one. Members in flight are re-dued to the
    /// re-planned groups and the batch is staged, each member due at the
    /// latest finish among the groups its runs joined. A model index past
    /// 63 or the zoo's last runs nothing.
    pub fn admit<M>(&mut self, batch: Vec<(T, M)>, now_us: u64) -> Admitted
    where
        M: IntoIterator<Item = usize>,
    {
        self.groups.iter_mut().for_each(|(_, runs)| *runs = 0);
        let staged = self.in_flight.len();
        for (member, models) in batch {
            let models = models
                .into_iter()
                .filter(|&m| m < 64)
                .fold(0u64, |mask, m| mask | 1 << m);
            for m in models_of(models) {
                if let Some((_, runs)) = self.groups.get_mut(m) {
                    *runs += 1;
                }
            }
            self.in_flight.push(Staged {
                member,
                models,
                admit: 0,
                due_us: 0,
                last_start_us: 0,
            });
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
        for m in self.in_flight.iter_mut().skip(staged) {
            m.admit = admitted.index;
        }
        // Re-due every member from where the pool now has its runs: a
        // group finished by the clock no longer counts, and a re-plan
        // moves only groups that start after it, so no member is delivered
        // before its last group ends. The sort is stable: among equal dues
        // the earlier admit stays first.
        let (pool, us_per_ms) = (&self.pool, self.us_per_ms);
        for m in &mut self.in_flight {
            let groups = models_of(m.models).filter_map(|id| pool.group_of(m.admit, id));
            let (start, finish) =
                groups.fold((0, 0), |(s, f), g| (s.max(g.start_ms), f.max(g.finish_ms)));
            (m.last_start_us, m.due_us) = (to_us(start, us_per_ms), to_us(finish, us_per_ms));
        }
        self.in_flight.sort_by_key(|m| m.due_us);
        admitted
    }

    /// Commit what has not started yet and return the pool's busy time,
    /// virtual ms: the union of its committed groups' intervals.
    pub fn finish(&mut self) -> u64 {
        self.pool.advance_to(u64::MAX);
        self.pool.busy_ms()
    }
}
