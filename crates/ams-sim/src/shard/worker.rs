//! The worker's time rules as a plain value: its virtual GPU pool and plan,
//! when each staged member is due, whether the next batch may be popped,
//! and the busy span the service hint is published from. Time is the
//! `now_us` a call receives, µs after the shard queue's epoch. The serving
//! layer's worker owns the clock reads and the pause.
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

/// What the worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
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
pub fn gate(
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

/// How many more requests may join a batch of `len` before its admission
/// to the pool: what queued while it was being labeled, up to a full
/// batch. With one worker per shard the batch stays open until then. With
/// several it closes at the pop, as `gate` gives them no look-ahead: a
/// pop binds a request to this worker's pool while a sibling may be free.
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
    /// The previous batch's start, µs, and size.
    last_batch: Option<(u64, usize)>,
    /// µs blocked on the queue since then.
    blocked_us: u64,
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
            last_batch: None,
            blocked_us: 0,
        }
    }

    /// When the pool's plan ends, µs (0 without emulation: nothing
    /// planned, as the queue reads it).
    pub fn end_us(&self) -> u64 {
        to_us(self.pool_end_ms, self.us_per_ms)
    }

    /// The pacing decision at `now_us`, once every member due by then is
    /// taken, with `queued` live requests on the shard queue, and the
    /// instant it runs to: when the first unstarted group starts for
    /// [`Gate::Hold`], else when the next member is due — a pop with
    /// members in flight waits for work only until then, so none is
    /// stranded behind an empty queue.
    pub fn pace(&self, now_us: u64, queued: usize) -> (Gate, u64) {
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
    pub fn take_due(&mut self, now_us: u64) -> Vec<T> {
        let due = self.in_flight.partition_point(|m| m.due_us <= now_us);
        self.in_flight.drain(..due).map(|m| m.member).collect()
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

    /// The worker spent `us` blocked waiting for work: not busy time.
    pub fn blocked(&mut self, us: u64) {
        self.blocked_us = self.blocked_us.saturating_add(us);
    }

    /// A batch of `len` starts at `at_us`: the previous batch's busy span,
    /// µs — the time between their starts less the time blocked on an
    /// empty queue — and size (`None` for the first batch). With batches
    /// streaming through the pool the members' execute spans overlap, so
    /// a batch's drain time is this span, not any member's.
    pub fn batch_started(&mut self, at_us: u64, len: usize) -> Option<(u64, usize)> {
        let blocked = std::mem::take(&mut self.blocked_us);
        let (start, n) = self.last_batch.replace((at_us, len))?;
        Some((at_us.saturating_sub(start).saturating_sub(blocked), n))
    }

    /// Commit what has not started yet and return the pool's busy time,
    /// virtual ms: the union of its committed groups' intervals.
    pub fn finish(&mut self) -> u64 {
        self.pool.advance_to(u64::MAX);
        self.pool.busy_ms()
    }
}
