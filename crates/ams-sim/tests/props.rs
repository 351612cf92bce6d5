//! Property tests for the execution substrate: memory conservation, trace
//! invariants, and the packer held to a brute-force first fit.

use ams_sim::{
    batched_makespan, list_makespan, Admitted, BatchLatencyModel, ExecTrace, Job, Pool,
    PoolTimeline, SerialExecutor, Span,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((50u32..500, 500u32..8000), 1..30).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(id, (time_ms, mem_mb))| Job {
                id,
                time_ms,
                mem_mb,
            })
            .collect()
    })
}

/// One model's batched invocation: its single-item spec and the item count.
type Group = (Job, usize);

/// `(time_ms, mem_mb, count)` triples as one batched group per model, ids
/// in the order given.
fn groups_of(specs: &[(u32, u32, usize)]) -> Vec<Group> {
    specs
        .iter()
        .enumerate()
        .map(|(id, &(time_ms, mem_mb, count))| {
            let job = Job {
                id,
                time_ms,
                mem_mb,
            };
            (job, count)
        })
        .collect()
}

/// Run `jobs` on `pool`: at every completion admit each pending job that
/// fits, front to back. The completions as a trace, and the jobs that
/// never fit.
fn run_all(pool: &mut Pool, jobs: &[Job]) -> (ExecTrace, Vec<Job>) {
    let mut pending = jobs.to_vec();
    let mut trace = ExecTrace::default();
    loop {
        pending.retain(|&job| {
            let fits = pool.fits(job.mem_mb);
            if fits {
                pool.admit(job);
            }
            !fits
        });
        let Some((end_ms, job, mem_mb)) = pool.wait_next() else {
            return (trace, pending);
        };
        let start_ms = end_ms - u64::from(jobs[job].time_ms);
        trace.push(Span {
            job,
            start_ms,
            end_ms,
            mem_mb,
        });
    }
}

/// Each group's `(id, finish)`.
type Finishes = Vec<(usize, u64)>;

/// The brute-force reference the packer is held to, sharing no code with
/// it: a clock, the spans still holding memory and the trace of those
/// that have let it go, in plain vectors scanned in full at every event.
#[derive(Clone)]
struct Reference {
    capacity: u32,
    now: u64,
    held: Vec<Span>,
    trace: ExecTrace,
}

impl Reference {
    fn new(capacity: u32) -> Self {
        Self {
            capacity,
            now: 0,
            held: Vec::new(),
            trace: ExecTrace::default(),
        }
    }

    /// One event: the held span that ends first (the lowest id on a tie)
    /// lets its memory go, and the clock moves to its end. `false` when
    /// nothing is held.
    fn event(&mut self) -> bool {
        let held = &self.held;
        let Some(first) = (0..held.len()).min_by_key(|&i| (held[i].end_ms, held[i].job)) else {
            return false;
        };
        let span = self.held.remove(first);
        self.now = span.end_ms;
        self.trace.push(span);
        true
    }

    /// First fit of `order` from the clock: start every pending group that
    /// fits, front to back, then wait one event, until every group has
    /// started. Each group's `(id, finish)`.
    fn first_fit(&mut self, order: &[Group], model: &BatchLatencyModel) -> Finishes {
        let mut pending = order.to_vec();
        let mut finishes = Vec::new();
        loop {
            pending.retain(|&(job, count)| {
                let mem_mb = job.mem_mb.min(self.capacity);
                let held: u32 = self.held.iter().map(|s| s.mem_mb).sum();
                let fits = held + mem_mb <= self.capacity;
                if fits {
                    let end_ms = self.now + model.batch_time_ms(job.time_ms, count);
                    self.held.push(Span {
                        job: job.id,
                        start_ms: self.now,
                        end_ms,
                        mem_mb,
                    });
                    finishes.push((job.id, end_ms));
                }
                !fits
            });
            if pending.is_empty() {
                return finishes;
            }
            assert!(self.event(), "an empty pool starts any clamped group");
        }
    }

    /// Every span, once everything held has ended.
    fn into_trace(mut self) -> ExecTrace {
        while self.event() {}
        self.trace
    }
}

/// A worker's models, `(time_ms, mem_mb)` with ids `0..len`.
fn arb_models() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((50u32..500, 500u32..8000), 1..12)
}

/// A stream of batches, each a run count per model (0 = the model did
/// not run; counts past the model list are ignored): the same models recur
/// from batch to batch, as they do for a serving worker.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..6, 12..13), 1..8)
}

/// One batch's `(job, count)` groups over `models`.
fn batch_groups(models: &[(u32, u32)], counts: &[usize]) -> Vec<Group> {
    let specs: Vec<(u32, u32, usize)> = models
        .iter()
        .zip(counts)
        .map(|(&(time_ms, mem_mb), &count)| (time_ms, mem_mb, count))
        .collect();
    groups_of(&specs)
}

/// Where a run sits on a timeline, `None` once its group has finished.
type Placed = Option<ams_sim::Group>;

/// One admit as a test sees it: the clock it ran at, what it returned,
/// and where every run admitted so far sits after it, as `(admit, model
/// id, group)` in admit then id order.
struct Step {
    clock: u64,
    admitted: Admitted,
    runs: Vec<(u64, usize, Placed)>,
}

/// Stream `batches` through one timeline, moving the clock by `clock(k,
/// previous admit)` before batch `k`; the timeline is returned with
/// everything committed.
fn stream(
    models: &[(u32, u32)],
    batches: &[Vec<usize>],
    capacity: u32,
    model: &BatchLatencyModel,
    clock: impl Fn(usize, Option<&Admitted>) -> u64,
) -> (PoolTimeline, Vec<Step>) {
    let mut pool = PoolTimeline::new(capacity);
    let mut steps: Vec<Step> = Vec::new();
    for (k, counts) in batches.iter().enumerate() {
        let previous = steps.last();
        // The pool's clock never moves back.
        let at = previous
            .map_or(0, |s| s.clock)
            .max(clock(k, previous.map(|s| &s.admitted)));
        pool.advance_to(at);
        let admitted = pool.admit(&batch_groups(models, counts), model);
        let mut runs = Vec::new();
        for (admit, counts) in batches[..=k].iter().enumerate() {
            for (id, _) in counts[..models.len()]
                .iter()
                .enumerate()
                .filter(|c| *c.1 > 0)
            {
                runs.push((admit as u64, id, pool.group_of(admit as u64, id)));
            }
        }
        steps.push(Step {
            clock: at,
            admitted,
            runs,
        });
    }
    pool.advance_to(u64::MAX);
    (pool, steps)
}

/// Every group the stream opened, as it ran — each one's last reported
/// place (an open group is committed where it was last planned) — keyed
/// by `(model id, opening admit)`, with its run count.
fn final_groups(
    steps: &[Step],
    batches: &[Vec<usize>],
) -> BTreeMap<(usize, u64), (ams_sim::Group, usize)> {
    let mut last: BTreeMap<(u64, usize), ams_sim::Group> = BTreeMap::new();
    for s in steps {
        for &(admit, id, g) in &s.runs {
            if let Some(g) = g {
                last.insert((admit, id), g);
            }
        }
    }
    let mut groups = BTreeMap::new();
    for ((admit, id), g) in last {
        let count = batches[admit as usize][id];
        groups.entry((id, g.opened)).or_insert((g, 0)).1 += count;
    }
    groups
}

/// A clock that moves by `gaps[k]` before batch `k`.
fn gapped(gaps: &[u64]) -> impl Fn(usize, Option<&Admitted>) -> u64 + '_ {
    move |k, _| gaps[..=k].iter().sum()
}

proptest! {
    /// The pool never exceeds its capacity and runs every job that fits
    /// it alone.
    #[test]
    fn parallel_executor_conserves_memory(jobs in arb_jobs(), capacity in 8000u32..20000) {
        let mut pool = Pool::new(capacity);
        let (trace, pending) = run_all(&mut pool, &jobs);
        prop_assert_eq!(trace.spans.len() + pending.len(), jobs.len());
        // jobs bigger than the pool can never run, everything else must
        for p in &pending {
            prop_assert!(p.mem_mb > capacity);
        }
        prop_assert!(trace.respects_memory(capacity), "peak {}", trace.peak_mem_mb());
        prop_assert_eq!(pool.free_mb(), capacity);
        // makespan >= the critical path lower bound (longest single job)
        let ran = trace.spans.iter().map(|s| u64::from(jobs[s.job].time_ms));
        prop_assert!(trace.makespan_ms() >= ran.clone().max().unwrap_or(0));
        // busy time equals the sum of executed job times
        prop_assert_eq!(trace.busy_ms(), ran.sum::<u64>());
    }

    /// Serial execution time is exactly the prefix sum; the deadline is a
    /// hard gate.
    #[test]
    fn serial_executor_prefix_sums(jobs in arb_jobs(), deadline in 0u64..8000) {
        let mut ex = SerialExecutor::new(deadline);
        let mut expected = 0u64;
        for j in &jobs {
            let fits = expected + u64::from(j.time_ms) <= deadline;
            let ran = ex.run(*j);
            prop_assert_eq!(ran, fits);
            if ran {
                expected += u64::from(j.time_ms);
            }
        }
        prop_assert_eq!(ex.elapsed_ms(), expected);
        prop_assert!(ex.into_trace().is_serial());
    }

    /// Pool accounting: what is free is the capacity less what the running
    /// jobs hold, a job fits exactly when it is no larger, an admitted job
    /// finishes its time after the clock, and the clock never moves back.
    #[test]
    fn memory_pool_accounting(
        ops in prop::collection::vec((any::<bool>(), 1u32..10000, 0u32..100), 0..100),
        capacity in 1000u32..16000,
    ) {
        let mut pool = Pool::new(capacity);
        let mut held: Vec<(usize, u32)> = Vec::new();
        for (id, (admit, mem_mb, time_ms)) in ops.into_iter().enumerate() {
            let (now_ms, free_mb) = (pool.now_ms(), capacity - held.iter().map(|h| h.1).sum::<u32>());
            if admit {
                prop_assert_eq!(pool.fits(mem_mb), mem_mb <= free_mb);
                if pool.fits(mem_mb) {
                    let finish_ms = pool.admit(Job { id, time_ms, mem_mb });
                    prop_assert_eq!(finish_ms, now_ms + u64::from(time_ms));
                    held.push((id, mem_mb));
                }
            } else if let Some((_, id, mem_mb)) = pool.wait_next() {
                let i = held.iter().position(|&h| h == (id, mem_mb));
                held.swap_remove(i.expect("only a running job ends"));
                prop_assert!(pool.now_ms() >= now_ms);
            }
            prop_assert_eq!(pool.free_mb(), capacity - held.iter().map(|h| h.1).sum::<u32>());
        }
    }

    /// The per-batch latency model is calibrated (batch of 1 = the single
    /// job), monotone in batch size, and never cheaper than the max single
    /// job nor dearer than running the batch serially.
    #[test]
    fn batch_latency_model_calibrated_and_monotone(
        single_ms in 1u32..5000,
        permille in 0u32..=1000,
        batch in 1usize..128,
    ) {
        let m = BatchLatencyModel::new(permille);
        prop_assert_eq!(m.batch_time_ms(single_ms, 1), u64::from(single_ms));
        let t = m.batch_time_ms(single_ms, batch);
        prop_assert!(t >= m.batch_time_ms(single_ms, batch.saturating_sub(1)));
        prop_assert!(t <= m.batch_time_ms(single_ms, batch + 1));
        prop_assert!(t >= u64::from(single_ms), "never cheaper than one full run");
        prop_assert!(t <= batch as u64 * u64::from(single_ms), "never worse than serial");
        prop_assert_eq!(m.setup_ms(single_ms) + m.marginal_ms(single_ms), u64::from(single_ms));
    }

    /// Batched admission conserves pool memory: a batch is one job that
    /// holds its weights once for its batch time, every admission is
    /// released, and the trace respects the capacity.
    #[test]
    fn batched_admission_conserves_memory(
        groups in prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 8000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let batches: Vec<Job> = groups
            .iter()
            .enumerate()
            .map(|(id, &(time_ms, mem_mb, count))| {
                let time_ms = u32::try_from(model.batch_time_ms(time_ms, count)).expect("small");
                Job { id, time_ms, mem_mb }
            })
            .collect();
        let mut pool = Pool::new(capacity);
        let (trace, pending) = run_all(&mut pool, &batches);
        prop_assert_eq!((pool.next_finish_ms(), pool.free_mb()), (None, capacity));
        for p in &pending {
            prop_assert!(p.mem_mb > capacity, "only pool-exceeding batches remain");
        }
        prop_assert_eq!(trace.spans.len() + pending.len(), batches.len());
        prop_assert!(trace.respects_memory(capacity));
    }

    /// `batched_makespan` is bounded below by the longest single batch and
    /// above by the serial sum of batch times.
    #[test]
    fn batched_makespan_within_scheduling_bounds(
        groups in prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let gs = groups_of(&groups);
        let makespan = batched_makespan(&gs, capacity, &model);
        let longest = gs
            .iter()
            .map(|&(j, c)| model.batch_time_ms(j.time_ms, c))
            .max()
            .unwrap_or(0);
        let serial: u64 = gs
            .iter()
            .map(|&(j, c)| model.batch_time_ms(j.time_ms, c))
            .sum();
        prop_assert!(makespan >= longest);
        prop_assert!(makespan <= serial);
    }

    /// The packing is a function of the multiset of groups: shuffling them
    /// changes nothing.
    #[test]
    fn batched_makespan_ignores_group_order(
        keyed in prop::collection::vec((any::<u32>(), 50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let specs: Vec<(u32, u32, usize)> = keyed.iter().map(|&(_, t, m, c)| (t, m, c)).collect();
        let gs = groups_of(&specs);
        let mut shuffled: Vec<(u32, Group)> =
            keyed.iter().map(|k| k.0).zip(gs.iter().copied()).collect();
        shuffled.sort_by_key(|&(key, _)| key);
        let shuffled: Vec<Group> = shuffled.into_iter().map(|(_, g)| g).collect();
        prop_assert_eq!(
            batched_makespan(&shuffled, capacity, &model),
            batched_makespan(&gs, capacity, &model)
        );
    }

    /// Never worse than the id-order list schedule (the only schedule the
    /// function used to produce), never better than the area and
    /// longest-batch lower bound.
    #[test]
    fn batched_makespan_between_lower_bound_and_id_order(
        specs in prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let gs = groups_of(&specs);
        let makespan = batched_makespan(&gs, capacity, &model);
        prop_assert!(makespan <= list_makespan(&gs, capacity, &model));
        let batch_ms = |&(j, c): &Group| model.batch_time_ms(j.time_ms, c);
        let longest = gs.iter().map(batch_ms).max().unwrap_or(0);
        let area: u64 = gs
            .iter()
            .map(|g| batch_ms(g) * u64::from(g.0.mem_mb.min(capacity)))
            .sum();
        prop_assert!(makespan >= longest.max(area.div_ceil(u64::from(capacity))));
    }

    /// The chosen schedule is a real one: replaying the four priority
    /// orders through the brute-force reference, the best of them takes
    /// exactly `batched_makespan` and never overfills the pool — and
    /// `list_makespan` agrees with the reference on each order.
    #[test]
    fn batched_makespan_is_the_best_replayed_priority(
        specs in prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let mut order = groups_of(&specs);
        let batch_ms = |&(j, c): &Group| model.batch_time_ms(j.time_ms, c);
        let priorities: [&dyn Fn(&Group) -> u64; 4] = [
            &|_| 0,
            &batch_ms,
            &|g| u64::from(g.0.mem_mb.min(capacity)),
            &|g| batch_ms(g) * u64::from(g.0.mem_mb.min(capacity)),
        ];
        let mut best: Option<ExecTrace> = None;
        for priority in priorities {
            order.sort_by_key(|g| (std::cmp::Reverse(priority(g)), g.0.id));
            let mut reference = Reference::new(capacity);
            reference.first_fit(&order, &model);
            let trace = reference.into_trace();
            prop_assert_eq!(trace.makespan_ms(), list_makespan(&order, capacity, &model));
            if best.as_ref().is_none_or(|b| trace.makespan_ms() < b.makespan_ms()) {
                best = Some(trace);
            }
        }
        let best = best.expect("four candidates ran");
        prop_assert_eq!(best.makespan_ms(), batched_makespan(&order, capacity, &model));
        prop_assert_eq!(best.spans.len(), specs.len());
        prop_assert!(best.respects_memory(capacity), "peak {}", best.peak_mem_mb());
    }

    /// A committed group never changes: once it has started by the clock
    /// every later admit reports it exactly as before until it finishes,
    /// and an open group stays the same group, moved no earlier than the
    /// clock.
    #[test]
    fn a_committed_group_never_changes(
        models in arb_models(),
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..1500, 8..9),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let (_, steps) = stream(&models, &batches, capacity, &model, gapped(&gaps));
        for pair in steps.windows(2) {
            let (before, after) = (&pair[0], &pair[1]);
            for (&(k, id, was), &(k2, id2, now)) in before.runs.iter().zip(&after.runs) {
                prop_assert_eq!((k, id), (k2, id2));
                match was {
                    Some(g) if g.start_ms <= after.clock => {
                        prop_assert_eq!(now, (g.finish_ms > after.clock).then_some(g));
                    }
                    Some(g) => {
                        let moved = now.expect("an open group has not finished");
                        prop_assert_eq!(moved.opened, g.opened);
                        prop_assert!(moved.start_ms >= after.clock);
                    }
                    None => prop_assert_eq!(now, None),
                }
            }
        }
    }

    /// The bill is the final groups' batch time: a merged run is charged
    /// only its marginal, every group runs for the batch time of all the
    /// runs it took, and every group opened runs once.
    #[test]
    fn the_bill_is_the_final_groups_batch_time(
        models in arb_models(),
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..1500, 8..9),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let (_, steps) = stream(&models, &batches, capacity, &model, gapped(&gaps));
        let bill: u64 = steps.iter().map(|s| s.admitted.bill_ms).sum();
        let opened: usize = steps.iter().map(|s| s.admitted.opened).sum();
        let groups = final_groups(&steps, &batches);
        let mut time = 0;
        for (&(id, _), &(g, count)) in &groups {
            prop_assert_eq!(g.finish_ms - g.start_ms, model.batch_time_ms(models[id].0, count));
            time += g.finish_ms - g.start_ms;
        }
        prop_assert_eq!(bill, time);
        prop_assert_eq!(opened, groups.len());
        let runs = batches.iter().flat_map(|b| &b[..models.len()]).filter(|&&c| c > 0).count();
        prop_assert!(groups.len() <= runs);
    }

    /// The committed schedule is a real one: every group, as a span from
    /// its start to its finish, runs for its batch time, the spans never
    /// overfill the pool, and the timeline's busy time is the length of
    /// their union.
    #[test]
    fn streamed_timeline_replays_within_the_pool(
        models in arb_models(),
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..1500, 8..9),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let (pool, steps) = stream(&models, &batches, capacity, &model, gapped(&gaps));
        let mut trace = ExecTrace::default();
        for (&(id, _), &(g, count)) in &final_groups(&steps, &batches) {
            prop_assert_eq!(g.finish_ms - g.start_ms, model.batch_time_ms(models[id].0, count));
            trace.push(Span {
                job: id,
                start_ms: g.start_ms,
                end_ms: g.finish_ms,
                mem_mb: models[id].1.min(capacity),
            });
        }
        prop_assert!(trace.respects_memory(capacity), "peak {}", trace.peak_mem_mb());
        trace.spans.sort_by_key(|s| s.start_ms);
        let (mut union, mut reach) = (0u64, 0u64);
        for s in &trace.spans {
            union += s.end_ms.saturating_sub(s.start_ms.max(reach));
            reach = reach.max(s.end_ms);
        }
        prop_assert_eq!(pool.busy_ms(), union);
    }

    /// Every reported group is still running or yet to run, inside the
    /// admit's reported span, and an admit's own runs start no earlier
    /// than its clock.
    #[test]
    fn every_finish_follows_its_admission(
        models in arb_models(),
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..1500, 8..9),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let (_, steps) = stream(&models, &batches, capacity, &model, gapped(&gaps));
        for s in &steps {
            for &(admit, _, g) in &s.runs {
                let Some(g) = g else { continue };
                prop_assert!(g.finish_ms > s.clock && g.finish_ms > g.start_ms);
                prop_assert!(g.finish_ms <= s.admitted.end_ms && g.start_ms <= s.admitted.last_start_ms);
                if admit == s.admitted.index {
                    prop_assert!(g.start_ms >= s.clock);
                }
            }
        }
    }

    /// No group is planned behind a later admit's: in the schedule as it
    /// ran, every group opened by an earlier admit starts no later than
    /// any group a later admit opened.
    #[test]
    fn a_later_admit_never_overtakes_an_earlier_one(
        models in arb_models(),
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..1500, 8..9),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let (_, steps) = stream(&models, &batches, capacity, &model, gapped(&gaps));
        let mut by_admit: Vec<(u64, u64)> = final_groups(&steps, &batches)
            .values()
            .map(|&(g, _)| (g.opened, g.start_ms))
            .collect();
        by_admit.sort_unstable();
        let mut latest_earlier = 0;
        for pair in by_admit.chunk_by(|a, b| a.0 == b.0) {
            prop_assert!(pair.iter().all(|&(_, start)| start >= latest_earlier));
            latest_earlier = pair.iter().map(|&(_, start)| start).max().unwrap_or(0);
        }
    }

    /// With every admit at or after the previous admit's last start,
    /// nothing is ever open to join, and each batch is packed exactly as a
    /// closed-group pool packs it: the best of the four priorities, each
    /// list-scheduled through the brute-force reference from the pool the
    /// earlier batches leave, by its last finish (the earliest priority on
    /// a tie).
    #[test]
    fn admits_after_the_last_start_pack_as_closed_groups(
        models in arb_models(),
        batches in arb_stream(),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let at_last_start = |_: usize, previous: Option<&Admitted>| previous.map_or(0, |a| a.last_start_ms);
        let (_, steps) = stream(&models, &batches, capacity, &model, at_last_start);
        let mut reference = Reference::new(capacity);
        for (counts, step) in batches.iter().zip(&steps) {
            let mut order: Vec<Group> = batch_groups(&models, counts)
                .into_iter()
                .filter(|&(_, count)| count > 0)
                .map(|(job, count)| (Job { mem_mb: job.mem_mb.min(capacity), ..job }, count))
                .collect();
            let batch_ms = |&(j, c): &Group| model.batch_time_ms(j.time_ms, c);
            let bill: u64 = order.iter().map(batch_ms).sum();
            prop_assert_eq!((step.admitted.bill_ms, step.admitted.opened), (bill, order.len()));
            if order.is_empty() {
                continue;
            }
            while reference.held.iter().any(|s| s.end_ms <= reference.now) {
                reference.event();
            }
            let priorities: [&dyn Fn(&Group) -> u64; 4] = [
                &|g| batch_ms(g) * u64::from(g.0.mem_mb),
                &batch_ms,
                &|g| u64::from(g.0.mem_mb),
                &|_| 0,
            ];
            let mut best: Option<(u64, Reference, Finishes)> = None;
            for priority in priorities {
                order.sort_by_key(|g| (std::cmp::Reverse(priority(g)), g.0.id));
                let mut trial = reference.clone();
                let finishes = trial.first_fit(&order, &model);
                let end = finishes.iter().map(|&(_, f)| f).max().unwrap_or(0);
                if best.as_ref().is_none_or(|b| end < b.0) {
                    best = Some((end, trial, finishes));
                }
            }
            let (_, winner, finishes) = best.expect("four candidates ran");
            reference = winner;
            for (id, finish) in finishes {
                let placed = step
                    .runs
                    .iter()
                    .find(|r| (r.0, r.1) == (step.admitted.index, id))
                    .and_then(|r| r.2)
                    .expect("every group of the batch is reported");
                prop_assert_eq!(placed.finish_ms, finish);
                prop_assert_eq!(placed.opened, step.admitted.index);
            }
        }
    }

    /// A pool with capacity >= all jobs is pure concurrency: makespan
    /// equals the longest job.
    #[test]
    fn unbounded_pool_is_fully_concurrent(jobs in arb_jobs()) {
        let total_mem: u32 = jobs.iter().map(|j| j.mem_mb).sum();
        let mut pool = Pool::new(total_mem.max(1));
        for &j in &jobs {
            pool.admit(j);
        }
        let max_t = jobs.iter().map(|j| u64::from(j.time_ms)).max().unwrap_or(0);
        while pool.wait_next().is_some() {}
        prop_assert_eq!(pool.now_ms(), max_t);
    }
}
