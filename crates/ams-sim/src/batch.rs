//! Batched admission: a calibrated per-batch latency model.
//!
//! A real GPU serving stack coalesces items queued for the same model into
//! one batched invocation: the model's weights are loaded (or already
//! resident) once, the kernels launch once, and each extra item only pays
//! the marginal per-item compute. The virtual executors model this as
//!
//! ```text
//! batch_time(k) = setup + k * marginal        (k items, same model)
//! ```
//!
//! calibrated against the model's published single-item latency so that
//! `batch_time(1)` equals `time_ms` exactly — batching is free to help but
//! can never make a lone job faster than its spec says. Memory is charged
//! once per batch (the weights dominate and are shared; per-item
//! activations are folded into the spec's peak figure).
//!
//! A batch's invocations are then packed into the shared pool:
//! [`batched_makespan`] packs one batch on an empty pool, and a
//! [`PoolTimeline`] streams a sequence of batches through one pool, each
//! filling the memory the previous ones leave and joining the invocations
//! of the same model that have not started yet.

use crate::{Job, Pool};
use serde::{Deserialize, Serialize};

/// Calibrated setup + marginal per-item latency split for batched execution.
///
/// `setup_permille` is the share (in thousandths) of a model's single-item
/// latency that is fixed per invocation — weight residency checks, kernel
/// launch, host/device transfer setup. The remainder is the marginal
/// per-item cost. Integer millisecond arithmetic keeps virtual schedules
/// exactly reproducible:
///
/// * `batch_time_ms(t, 1) == t` for every `t` (calibration identity),
/// * `batch_time_ms(t, k)` is non-decreasing in `k` (monotonicity),
/// * `batch_time_ms(t, k) <= k * t` (batching never loses to k serial runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchLatencyModel {
    setup_permille: u32,
}

impl BatchLatencyModel {
    /// Model with the given fixed-setup share, clamped to `0..=1000`.
    pub fn new(setup_permille: u32) -> Self {
        Self {
            setup_permille: setup_permille.min(1000),
        }
    }

    /// Fixed setup portion of a single-item latency of `single_ms`.
    pub fn setup_ms(&self, single_ms: u32) -> u64 {
        u64::from(single_ms) * u64::from(self.setup_permille) / 1000
    }

    /// Marginal per-item portion of a single-item latency of `single_ms`.
    pub fn marginal_ms(&self, single_ms: u32) -> u64 {
        u64::from(single_ms) - self.setup_ms(single_ms)
    }

    /// Latency of one batched invocation over `batch` items of a model
    /// whose single-item latency is `single_ms`. Zero items cost nothing.
    pub fn batch_time_ms(&self, single_ms: u32, batch: usize) -> u64 {
        if batch == 0 {
            return 0;
        }
        self.setup_ms(single_ms) + batch as u64 * self.marginal_ms(single_ms)
    }
}

impl Default for BatchLatencyModel {
    /// 70% fixed setup: the measured shape of small-batch vision inference,
    /// where weight residency and launch overhead dominate a single item.
    fn default() -> Self {
        Self::new(700)
    }
}

/// One batched invocation as the packer sees it: the model's single-item
/// spec and item count, the whole batch's duration and the pool memory it
/// holds while it runs.
#[derive(Debug, Clone, Copy)]
struct Batch {
    /// The model's single-item spec; its id names the model.
    job: Job,
    count: usize,
    /// Index of the [`PoolTimeline::admit`] that opened the group.
    opened: u64,
    time_ms: u32,
    mem_mb: u32,
    /// What a candidate list is sorted by, largest first (stored so the
    /// sort compares integers, not calls through a pointer).
    priority: u64,
    /// Smallest `mem_mb` from this batch to the end of its list: with less
    /// than this free, nothing from here on fits and a scan can stop.
    tail_min_mb: u32,
    /// The next still-pending batch in list order, or [`END`].
    next: u32,
    /// When the batch finishes, once [`run_list`] has admitted it.
    finish_ms: u64,
}

impl Batch {
    /// `count` items of `job` as one invocation taking `time_ms`. A batch
    /// whose weights exceed the whole pool is clamped to the pool (it would
    /// stream from host memory; it still runs, exclusively), and a duration
    /// beyond `u32::MAX` ms (~49 virtual days) saturates.
    fn new(job: Job, count: usize, opened: u64, capacity_mb: u32, time_ms: u64) -> Self {
        Self {
            job,
            count,
            opened,
            time_ms: u32::try_from(time_ms).unwrap_or(u32::MAX),
            mem_mb: job.mem_mb.min(capacity_mb),
            priority: 0,
            tail_min_mb: 0,
            next: END,
            finish_ms: 0,
        }
    }

    fn start_ms(&self) -> u64 {
        self.finish_ms - u64::from(self.time_ms)
    }

    /// The invocation as the pool runs it.
    fn run(&self) -> Job {
        Job {
            id: self.job.id,
            time_ms: self.time_ms,
            mem_mb: self.mem_mb,
        }
    }
}

/// End of the pending list threaded through [`Batch::next`].
const END: u32 = u32::MAX;

/// The one event loop every admission runs (the Algorithm 2 shape): from
/// `pool`'s clock, admit in list order every pending batch that fits;
/// [`Pool::wait_next`]; repeat until the whole list is admitted.
///
/// On return `pool` is at the last admission and each batch's `finish_ms`
/// is set. Returns the latest finish in `list` (the clock when it is
/// empty) — or `limit`, as soon as some batch is admitted that cannot
/// finish before it, leaving the state partial.
///
/// Nothing is allocated beyond the pool's growth and no trace is recorded:
/// pending batches are a linked list threaded through `list` (unlinking is
/// O(1) and leaves the slice in order). `tests/props.rs` holds it to a
/// brute-force first fit.
fn run_list(list: &mut [Batch], pool: &mut Pool, limit: u64) -> u64 {
    debug_assert!(list.len() < END as usize);
    let mut head = END;
    let mut tail_min_mb = u32::MAX;
    for (i, b) in list.iter_mut().enumerate().rev() {
        tail_min_mb = tail_min_mb.min(b.mem_mb);
        b.tail_min_mb = tail_min_mb;
        b.next = head;
        head = i as u32;
    }
    let mut end_ms = pool.now_ms();
    loop {
        // First fit, front to back. Admissions only raise the true tail
        // minimum, so the recorded one stays a valid reason to stop.
        let (mut prev, mut cur) = (END, head);
        while cur != END {
            let b = list[cur as usize];
            if pool.free_mb() < b.tail_min_mb {
                break;
            }
            if pool.fits(b.mem_mb) {
                let finish_ms = pool.admit(b.run());
                if finish_ms >= limit {
                    return limit;
                }
                end_ms = end_ms.max(finish_ms);
                list[cur as usize].finish_ms = finish_ms;
                if prev == END {
                    head = b.next;
                } else {
                    list[prev as usize].next = b.next;
                }
            } else {
                prev = cur;
            }
            cur = b.next;
        }
        if head == END {
            return end_ms;
        }
        // Something is pending and did not fit, so something is running:
        // an empty pool fits every (clamped) batch.
        if pool.wait_next().is_none() {
            return end_ms;
        }
    }
}

/// Virtual makespan of list-scheduling `groups_in_order` — `(job, count)`
/// pairs, one batched invocation each, where `job` carries the model's
/// single-item spec — on a shared pool of `capacity_mb`, under `model`'s
/// latency split: the physics primitive.
///
/// Greedy first fit in the order given: at every event, admit each
/// pending batch that fits, scanning the list front to back; wait for the
/// earliest completion; repeat. The answer depends on the order —
/// [`batched_makespan`] chooses one; this function is its building block
/// and the oracle its tests compare against.
pub fn list_makespan(
    groups_in_order: &[(Job, usize)],
    capacity_mb: u32,
    model: &BatchLatencyModel,
) -> u64 {
    let capacity_mb = capacity_mb.max(1);
    let mut list: Vec<Batch> = groups_in_order
        .iter()
        .filter(|&&(_, count)| count > 0)
        .map(|&(job, count)| {
            let time_ms = model.batch_time_ms(job.time_ms, count);
            Batch::new(job, count, 0, capacity_mb, time_ms)
        })
        .collect();
    run_list(&mut list, &mut Pool::new(capacity_mb), u64::MAX)
}

/// The list-scheduling priorities [`PoolTimeline::admit`] tries, each a
/// key sorted largest first with ties in id order: `batch_time × mem`,
/// batch time, memory, and a constant — plain model-id order. Most likely
/// winner first, so the later lists are cut short sooner.
const PRIORITIES: [fn(&Batch) -> u64; 4] = [
    |b| u64::from(b.time_ms) * u64::from(b.mem_mb),
    |b| u64::from(b.time_ms),
    |b| u64::from(b.mem_mb),
    |_| 0,
];

/// Virtual makespan of running `groups` of batched jobs — `(job, count)`
/// pairs, one per model — on an empty shared pool of `capacity_mb`, under
/// `model`'s latency split, packed in the best of a few admission orders:
/// `PoolTimeline::new(capacity_mb).admit(..)`'s end.
///
/// **Order-independent.** The result is a function of the *multiset* of
/// groups: each candidate order is a sort of the groups by one of four
/// priorities — ascending [`Job::id`]; longest batch first; largest
/// memory first; largest `batch_time × mem` first — with ties broken by
/// id, and the smallest [`list_makespan`] among them is returned.
///
/// **Never worse than id order.** Ascending id is what the benchmark
/// probe passes (model-index order) and is always a candidate, so the
/// result is `<=` the [`list_makespan`] of the id-sorted groups and `>=`
/// the bound below, which no schedule can beat.
///
/// **Two early exits.** When every group fits the pool at once the
/// makespan is the longest batch whatever the order, and no list is run.
/// A candidate that reaches the lower bound `max(longest batch,
/// ceil(sum(batch_time x mem) / capacity))` is optimal, so the remaining
/// candidates are skipped. (And a candidate is abandoned at the first
/// batch that would finish no sooner than the best makespan so far.)
pub fn batched_makespan(
    groups: &[(Job, usize)],
    capacity_mb: u32,
    model: &BatchLatencyModel,
) -> u64 {
    PoolTimeline::new(capacity_mb).admit(groups, model).end_ms
}

/// Where a run sits on a [`PoolTimeline`]: its group's start and finish,
/// virtual ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// Index of the admit that opened it: with the model's id, it names
    /// the group.
    pub opened: u64,
    /// When the group starts.
    pub start_ms: u64,
    /// When it finishes.
    pub finish_ms: u64,
}

/// What one [`PoolTimeline::admit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Index of this admit (the first is 0), what
    /// [`PoolTimeline::group_of`] is asked with.
    pub index: u64,
    /// The batch time it added to the bill: a run that joined an open
    /// group costs only its marginal share, `batch_time(c + d) −
    /// batch_time(c)`.
    pub bill_ms: u64,
    /// Groups it opened: the invocations it added.
    pub opened: usize,
    /// The latest planned start (the clock when nothing is open): every
    /// group has started by then.
    pub last_start_ms: u64,
    /// The latest finish, committed or planned.
    pub end_ms: u64,
}

/// A committed group that may still hold memory.
#[derive(Debug, Clone, Copy)]
struct Started {
    id: usize,
    mem_mb: u32,
    /// The first admit whose runs it does not hold: the admit after its
    /// commit.
    closed: u64,
    group: Group,
}

/// One pool's schedule across a stream of batches: Algorithm 2's loop run
/// continuously instead of restarted per batch, with the groups that have
/// not started yet still open to later batches.
///
/// A group is *committed* once [`PoolTimeline::advance_to`] passes its
/// start, and never moves again. Until then it is *open*:
/// [`PoolTimeline::admit`] adds a batch's runs to the open group of the
/// same model (one setup for both batches) or opens a new one, then
/// re-plans the open groups behind the committed ones, admit by admit in
/// the order they were admitted: each admit's groups in the best of the
/// four [`batched_makespan`] orders, from the previous admit's last start.
/// So no group is ever planned behind a later admit's, and a batch
/// admitted on an idle pool, or with the clock at or after every start,
/// finds nothing open and is packed exactly as [`batched_makespan`] packs
/// it. Times are virtual milliseconds; candidate lists run on buffers the
/// timeline keeps, so a stream of batches allocates nothing once they have
/// grown.
#[derive(Debug, Clone)]
pub struct PoolTimeline {
    capacity_mb: u32,
    /// The clock: every group that starts by then is committed.
    now_ms: u64,
    /// Every committed group that may still hold memory.
    started: Vec<Started>,
    /// The open groups — planned, not started — in the order of the admits
    /// that opened them.
    open: Vec<Batch>,
    /// Scratch: the `(start, finish)` of the groups a commit takes.
    spans: Vec<(u64, u64)>,
    /// Admits so far.
    admits: u64,
    /// The latest committed finish.
    reach_ms: u64,
    /// Length of the union of the committed groups' intervals.
    busy_ms: u64,
    /// Re-plan scratch: the pool as planned so far, a candidate list's
    /// pool, and the best candidate's list and pool.
    planned: Pool,
    trial: Pool,
    best: Pool,
    best_list: Vec<Batch>,
}

impl PoolTimeline {
    /// An idle pool of `capacity_mb` (at least 1) at virtual time 0.
    pub fn new(capacity_mb: u32) -> Self {
        let capacity_mb = capacity_mb.max(1);
        Self {
            capacity_mb,
            now_ms: 0,
            started: Vec::new(),
            open: Vec::new(),
            spans: Vec::new(),
            admits: 0,
            reach_ms: 0,
            busy_ms: 0,
            planned: Pool::new(capacity_mb),
            trial: Pool::new(capacity_mb),
            best: Pool::new(capacity_mb),
            best_list: Vec::new(),
        }
    }

    /// Move the clock to `v_ms` (never back): commit every open group that
    /// starts by then, and release what has finished.
    pub fn advance_to(&mut self, v_ms: u64) {
        let now_ms = self.now_ms.max(v_ms);
        self.now_ms = now_ms;
        let Self {
            open,
            started,
            spans,
            admits,
            ..
        } = self;
        started.retain(|s| s.group.finish_ms > now_ms);
        open.retain(|b| {
            let (start_ms, finish_ms) = (b.start_ms(), b.finish_ms);
            if start_ms > now_ms {
                return true;
            }
            spans.push((start_ms, finish_ms));
            if finish_ms > now_ms {
                let group = Group {
                    opened: b.opened,
                    start_ms,
                    finish_ms,
                };
                started.push(Started {
                    id: b.job.id,
                    mem_mb: b.mem_mb,
                    closed: *admits,
                    group,
                });
            }
            false
        });
        // In start order, so the busy union grows left to right.
        spans.sort_unstable();
        for (start_ms, finish_ms) in spans.drain(..) {
            self.busy_ms += finish_ms.saturating_sub(start_ms.max(self.reach_ms));
            self.reach_ms = self.reach_ms.max(finish_ms);
        }
    }

    /// Length of the union of the intervals in which a committed group
    /// ran, ms: the pool's busy time, never more than the sum of its batch
    /// times.
    pub fn busy_ms(&self) -> u64 {
        self.busy_ms
    }

    /// Admit one batch — `(job, count)` groups, one batched invocation
    /// each — at the clock. Each group's runs join the same job's group
    /// that an earlier admit opened and that is still open, or open a new
    /// one; then the open groups are re-planned behind the committed ones,
    /// admit by admit (see [`PoolTimeline`]). A batch with no runs changes
    /// nothing.
    ///
    /// Each admit's re-plan is the best of four list orders (the smallest
    /// finish of its last group), each run against the groups planned
    /// before it; with everything fitting the free memory at once, or a
    /// candidate reaching the lower bound, the rest are skipped.
    pub fn admit(&mut self, groups: &[(Job, usize)], model: &BatchLatencyModel) -> Admitted {
        let index = self.admits;
        self.admits += 1;
        let (mut bill_ms, mut opened, mut added) = (0, 0, false);
        // Only earlier admits' groups are joined: within one batch each
        // `(job, count)` is its own invocation.
        let earlier = self.open.len();
        self.open.reserve(groups.len());
        for &(job, count) in groups.iter().filter(|&&(_, count)| count > 0) {
            added = true;
            if let Some(b) = self.open[..earlier].iter_mut().find(|b| b.job == job) {
                let before = model.batch_time_ms(job.time_ms, b.count);
                let time_ms = model.batch_time_ms(job.time_ms, b.count + count);
                *b = Batch::new(job, b.count + count, b.opened, self.capacity_mb, time_ms);
                bill_ms += time_ms - before;
            } else {
                let time_ms = model.batch_time_ms(job.time_ms, count);
                self.open
                    .push(Batch::new(job, count, index, self.capacity_mb, time_ms));
                bill_ms += time_ms;
                opened += 1;
            }
        }
        if added {
            self.replan();
        }
        let (mut last_start_ms, mut end_ms) = (self.now_ms, self.reach_ms);
        for b in &self.open {
            last_start_ms = last_start_ms.max(b.start_ms());
            end_ms = end_ms.max(b.finish_ms);
        }
        Admitted {
            index,
            bill_ms,
            opened,
            last_start_ms,
            end_ms,
        }
    }

    /// The group admit `admit`'s run of model `id` sits in, or `None` once
    /// that group has finished by the clock (or when that admit ran no
    /// such model). An open group's answer may change at the next admit; a
    /// committed one's never does.
    pub fn group_of(&self, admit: u64, id: usize) -> Option<Group> {
        let open = self
            .open
            .iter()
            .find(|b| b.job.id == id && b.opened <= admit);
        match open {
            Some(b) => Some(Group {
                opened: b.opened,
                start_ms: b.start_ms(),
                finish_ms: b.finish_ms,
            }),
            None => self
                .started
                .iter()
                .find(|s| s.id == id && s.group.opened <= admit && admit < s.closed)
                .map(|s| s.group),
        }
    }

    /// Plan the open groups behind the committed ones, one admit's at a
    /// time in admit order, each from the previous one's last start.
    fn replan(&mut self) {
        self.planned.reset(self.now_ms);
        for s in &self.started {
            // It started by the clock, so what is left of it fits its
            // batch time.
            let left_ms = s.group.finish_ms - self.now_ms;
            self.planned.admit(Job {
                id: s.id,
                time_ms: u32::try_from(left_ms).expect("within the batch time"),
                mem_mb: s.mem_mb,
            });
        }
        let mut lo = 0;
        while let Some(first) = self.open.get(lo) {
            let opened = first.opened;
            let hi = lo + self.open[lo..].partition_point(|b| b.opened == opened);
            self.place(lo, hi);
            lo = hi;
        }
    }

    /// Place one admit's open groups, `open[lo..hi]`, into the planned
    /// pool from its clock: every priority's order against the groups
    /// planned before them, keeping the one whose last group finishes
    /// first (the earliest such priority on a tie); then move the planned
    /// pool to that order's last start.
    fn place(&mut self, lo: usize, hi: usize) {
        let Self {
            capacity_mb,
            open,
            planned,
            trial,
            best,
            best_list,
            ..
        } = self;
        let list = &mut open[lo..hi];
        let start_ms = planned.now_ms();
        let (mut longest, mut total_mb, mut area) = (0u64, 0u64, 0u128);
        for b in list.iter() {
            longest = longest.max(u64::from(b.time_ms));
            total_mb += u64::from(b.mem_mb);
            area += u128::from(b.time_ms) * u128::from(b.mem_mb);
        }
        if total_mb <= u64::from(planned.free_mb()) {
            // Everything fits beside what runs: all start now.
            for b in list.iter_mut() {
                b.finish_ms = planned.admit(b.run());
            }
            return;
        }
        let bound =
            u128::from(start_ms) + u128::from(longest).max(area.div_ceil(u128::from(*capacity_mb)));
        let mut best_end = u64::MAX;
        for priority in PRIORITIES {
            for b in list.iter_mut() {
                b.priority = priority(b);
            }
            // Any permutation of the groups sorts to the same list: equal
            // keys are equal batches.
            list.sort_unstable_by(|a, b| {
                (b.priority, a.job.id, a.time_ms, a.mem_mb)
                    .cmp(&(a.priority, b.job.id, b.time_ms, b.mem_mb))
            });
            trial.clone_from(planned);
            let end_ms = run_list(list, trial, best_end);
            if end_ms < best_end {
                best_end = end_ms;
                best_list.clear();
                best_list.extend_from_slice(list);
                std::mem::swap(best, trial);
            }
            if u128::from(best_end) == bound {
                break;
            }
        }
        list.copy_from_slice(best_list);
        // The pool at the winner's last start: every group, earlier or
        // this admit's, that is still running then.
        std::mem::swap(planned, best);
        while planned
            .next_finish_ms()
            .is_some_and(|finish_ms| finish_ms <= planned.now_ms())
        {
            planned.wait_next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_item_batch_is_calibrated_exactly() {
        for permille in [0, 137, 500, 700, 1000] {
            let m = BatchLatencyModel::new(permille);
            for t in [1u32, 7, 90, 333, 2000] {
                assert_eq!(m.batch_time_ms(t, 1), u64::from(t), "permille {permille}");
                assert_eq!(m.setup_ms(t) + m.marginal_ms(t), u64::from(t));
            }
        }
    }

    #[test]
    fn batch_time_monotone_and_bounded_by_serial() {
        let m = BatchLatencyModel::default();
        for t in [1u32, 45, 90, 700] {
            let mut prev = 0;
            for k in 1..=64usize {
                let bt = m.batch_time_ms(t, k);
                assert!(bt >= prev, "monotone in batch size");
                assert!(bt >= u64::from(t), "never cheaper than one full run");
                assert!(bt <= k as u64 * u64::from(t), "never worse than serial");
                prev = bt;
            }
        }
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(BatchLatencyModel::default().batch_time_ms(500, 0), 0);
    }

    #[test]
    fn marginal_cost_is_exact_batch_time_difference() {
        // One more item in a batch of `k` costs the full single-item latency
        // when it opens the invocation, the marginal share after that.
        for permille in [0, 300, 700, 1000] {
            let m = BatchLatencyModel::new(permille);
            for t in [1u32, 45, 90, 700] {
                for k in 0..=16usize {
                    let want = if k == 0 {
                        u64::from(t)
                    } else {
                        m.marginal_ms(t)
                    };
                    assert_eq!(
                        m.batch_time_ms(t, k + 1) - m.batch_time_ms(t, k),
                        want,
                        "permille {permille}, t {t}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn amortized_cost_decreases_with_batch_size() {
        // The setup charge spreads over the batch: the per-item cost never
        // grows with the batch and never drops below the marginal share.
        let m = BatchLatencyModel::default();
        let mut prev = f64::INFINITY;
        for k in 1..=32usize {
            let a = m.batch_time_ms(180, k) as f64 / k as f64;
            assert!(a <= prev, "amortized cost must not grow: k={k}");
            assert!(a >= m.marginal_ms(180) as f64, "never below marginal");
            prev = a;
        }
    }

    #[test]
    fn permille_clamped() {
        let m = BatchLatencyModel::new(5000);
        assert_eq!(m, BatchLatencyModel::new(1000));
        assert_eq!(m.marginal_ms(100), 0);
        assert_eq!(m.batch_time_ms(100, 50), 100, "pure-setup model is flat");
    }

    #[test]
    fn makespan_of_disjoint_fitting_groups_is_longest_batch() {
        let m = BatchLatencyModel::new(500);
        let groups = [(j(0, 100, 300), 4), (j(1, 200, 300), 2)];
        // batch 0: 50 + 4*50 = 250; batch 1: 100 + 2*100 = 300
        assert_eq!(batched_makespan(&groups, 1000, &m), 300);
    }

    #[test]
    fn makespan_serializes_under_memory_pressure() {
        let m = BatchLatencyModel::new(0); // no setup: batch k = k * t
        let job = Job {
            id: 0,
            time_ms: 100,
            mem_mb: 600,
        };
        // Two 600 MB batches on a 1000 MB pool cannot overlap.
        let groups = [(job, 1), (Job { id: 1, ..job }, 1)];
        assert_eq!(batched_makespan(&groups, 1000, &m), 200);
        // On a 1200 MB pool they run concurrently.
        assert_eq!(batched_makespan(&groups, 1200, &m), 100);
    }

    #[test]
    fn id_order_loses_to_a_better_packing() {
        let m = BatchLatencyModel::new(0);
        let groups = [
            (j(0, 100, 400), 1),
            (j(1, 100, 400), 1),
            (j(2, 300, 600), 1),
        ];
        // As given, A and B fill 800 of 1000 MB and C waits for the first
        // completion: 100 + 300.
        assert_eq!(list_makespan(&groups, 1000, &m), 400);
        // Longest first, C runs from t = 0 beside A, and B follows A.
        assert_eq!(batched_makespan(&groups, 1000, &m), 300);
    }

    fn j(id: usize, time_ms: u32, mem_mb: u32) -> Job {
        Job {
            id,
            time_ms,
            mem_mb,
        }
    }

    /// Admit `admit`'s runs of models `0..n` as `(start, finish)`.
    fn spans(pool: &PoolTimeline, admit: u64, n: usize) -> Vec<Option<(u64, u64)>> {
        (0..n)
            .map(|id| {
                let g = pool.group_of(admit, id)?;
                Some((g.start_ms, g.finish_ms))
            })
            .collect()
    }

    #[test]
    fn second_batch_starts_in_the_memory_the_first_leaves() {
        let m = BatchLatencyModel::new(0);
        let (a, b) = (j(0, 300, 600), j(1, 100, 400));
        let mut pool = PoolTimeline::new(1000);
        assert_eq!(pool.admit(&[(a, 1)], &m).end_ms, 300);
        pool.advance_to(0);
        // B runs beside A from t = 0, not after A's 300 ms makespan.
        let admitted = pool.admit(&[(b, 1)], &m);
        assert_eq!((admitted.last_start_ms, admitted.end_ms), (0, 300));
        assert_eq!(spans(&pool, 0, 2), [Some((0, 300)), None]);
        assert_eq!(spans(&pool, 1, 2), [None, Some((0, 100))]);
        pool.advance_to(0);
        assert_eq!(pool.busy_ms(), 300);
    }

    #[test]
    fn admit_on_an_idle_timeline_is_batched_makespan() {
        let m = BatchLatencyModel::new(0);
        let groups = [
            (j(0, 100, 400), 1),
            (j(1, 100, 400), 1),
            (j(2, 300, 600), 1),
        ];
        let makespan = batched_makespan(&groups, 1000, &m);
        assert_eq!(makespan, 300);
        let mut pool = PoolTimeline::new(1000);
        assert_eq!(pool.admit(&groups, &m).end_ms, makespan);
        let finishes = |pool: &PoolTimeline, admit| {
            spans(pool, admit, 3)
                .iter()
                .map(|s| s.map(|s| s.1))
                .collect::<Vec<_>>()
        };
        assert_eq!(finishes(&pool, 0), [Some(100), Some(200), Some(300)]);
        // Idle again once the clock passes the end: the next batch packs
        // exactly as on a fresh pool, shifted to the clock.
        pool.advance_to(1000);
        let admitted = pool.admit(&groups, &m);
        assert_eq!(
            (admitted.last_start_ms, admitted.end_ms),
            (1100, 1000 + makespan)
        );
        assert_eq!(finishes(&pool, 1), [Some(1100), Some(1200), Some(1300)]);
        // The first batch's groups have finished by the clock.
        assert_eq!(finishes(&pool, 0), [None, None, None]);
        pool.advance_to(u64::MAX);
        assert_eq!(pool.busy_ms(), 2 * makespan);
    }

    /// Pool 1000 MB, 70 % setup. Batch 1 is A (300 ms, 600 MB) and B
    /// (100 ms, 600 MB): A runs first and B is open until A ends at 300.
    #[test]
    fn a_later_batch_joins_an_open_group() {
        let m = BatchLatencyModel::new(700);
        let (a, b) = (j(0, 300, 600), j(1, 100, 600));
        let batch_1 = |pool: &mut PoolTimeline| {
            let admitted = pool.admit(&[(a, 1), (b, 1)], &m);
            assert_eq!(
                (admitted.bill_ms, admitted.opened, admitted.end_ms),
                (400, 2, 400)
            );
            assert_eq!(spans(pool, 0, 2), [Some((0, 300)), Some((300, 400))]);
        };

        // Batch 2 = B x 1 at t = 50: A has started, B has not. B's second
        // run costs only its marginal 30 ms, and B now ends at 430 for
        // both batches.
        let mut pool = PoolTimeline::new(1000);
        batch_1(&mut pool);
        pool.advance_to(50);
        let admitted = pool.admit(&[(b, 1)], &m);
        assert_eq!(
            (admitted.bill_ms, admitted.opened, admitted.end_ms),
            (30, 0, 430)
        );
        assert_eq!(spans(&pool, 0, 2), [Some((0, 300)), Some((300, 430))]);
        assert_eq!(spans(&pool, 1, 2), [None, Some((300, 430))]);
        pool.advance_to(u64::MAX);
        assert_eq!(pool.busy_ms(), 430);

        // The same batch at t = 300: B has started, so a second B opens
        // and pays the setup again.
        let mut pool = PoolTimeline::new(1000);
        batch_1(&mut pool);
        pool.advance_to(300);
        let admitted = pool.admit(&[(b, 1)], &m);
        assert_eq!(
            (admitted.bill_ms, admitted.opened, admitted.end_ms),
            (100, 1, 500)
        );
        assert_eq!(spans(&pool, 0, 2), [None, Some((300, 400))]);
        assert_eq!(spans(&pool, 1, 2), [None, Some((400, 500))]);
    }

    /// Pool 1000 MB, no setup. Batch 1's B (100 ms) waits behind A
    /// (300 ms); batch 2's C (200 ms) arrives while B is open. Re-planned
    /// together, C first would end as soon as B first (600) and win the
    /// tie, pushing B to 500; B keeps its place ahead of the later admit.
    #[test]
    fn a_later_admit_never_overtakes_an_open_group() {
        let m = BatchLatencyModel::new(0);
        let (a, b, c) = (j(0, 300, 600), j(1, 100, 600), j(2, 200, 600));
        let mut pool = PoolTimeline::new(1000);
        pool.admit(&[(a, 1), (b, 1)], &m);
        pool.advance_to(50);
        let admitted = pool.admit(&[(c, 1)], &m);
        assert_eq!((admitted.last_start_ms, admitted.end_ms), (400, 600));
        assert_eq!(pool.group_of(0, 1).map(|g| g.finish_ms), Some(400));
        assert_eq!(pool.group_of(1, 2).map(|g| g.start_ms), Some(400));
    }

    #[test]
    fn oversized_batch_is_clamped_not_stuck() {
        let m = BatchLatencyModel::default();
        let job = Job {
            id: 0,
            time_ms: 100,
            mem_mb: 50_000,
        };
        assert_eq!(batched_makespan(&[(job, 1)], 1000, &m), 100);
    }
}
