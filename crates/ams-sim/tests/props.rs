//! Property tests for the execution substrate: memory conservation, trace
//! invariants, and serial/parallel consistency.

use ams_sim::{
    batched_makespan, list_makespan, BatchLatencyModel, ExecTrace, Job, MemoryPool,
    ParallelExecutor, PoolTimeline, SerialExecutor,
};
use proptest::prelude::*;

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

/// First-fit list scheduling of `order` through the traced executor: the
/// reference the trace-free `list_makespan` must agree with.
fn replay(order: &[Group], capacity: u32, model: &BatchLatencyModel) -> ExecTrace {
    let mut ex = ParallelExecutor::new(capacity);
    let mut pending: Vec<Group> = order
        .iter()
        .map(|&(job, count)| {
            let mem_mb = job.mem_mb.min(capacity);
            (Job { mem_mb, ..job }, count)
        })
        .collect();
    while !pending.is_empty() {
        pending.retain(|&(job, count)| {
            let fits = ex.fits(job.mem_mb);
            if fits {
                ex.admit_batch(job, count, model).expect("fits() said yes");
            }
            !fits
        });
        ex.wait_next()
            .expect("an empty pool admits any clamped batch");
    }
    ex.into_trace()
}

/// A stream of batches, each `(time_ms, mem_mb, count)` per model with
/// ids `0..len` — the same model ids recur from batch to batch, as they
/// do for a serving worker.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<(u32, u32, usize)>>> {
    prop::collection::vec(
        prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..12),
        1..6,
    )
}

/// Stream `batches` through one timeline with no clock moves between
/// them: each batch's groups and the finish each was given at admission.
fn stream(
    batches: &[Vec<(u32, u32, usize)>],
    capacity: u32,
    model: &BatchLatencyModel,
) -> Vec<Vec<(Group, u64)>> {
    let mut pool = PoolTimeline::new(capacity);
    batches
        .iter()
        .map(|specs| {
            let gs = groups_of(specs);
            let mut finish = vec![0u64; gs.len()];
            pool.admit(&gs, model, &mut finish);
            gs.into_iter().zip(finish).collect()
        })
        .collect()
}

proptest! {
    /// The parallel executor never exceeds its pool and completes all jobs.
    #[test]
    fn parallel_executor_conserves_memory(jobs in arb_jobs(), capacity in 8000u32..20000) {
        let mut ex = ParallelExecutor::new(capacity);
        let mut pending = jobs.clone();
        let mut done = Vec::new();
        while !pending.is_empty() || ex.running_count() > 0 {
            let mut i = 0;
            while i < pending.len() {
                if ex.fits(pending[i].mem_mb) {
                    let j = pending.remove(i);
                    ex.admit(j).expect("fits() said yes");
                } else {
                    i += 1;
                }
            }
            match ex.wait_next() {
                Some(j) => done.push(j),
                None => break,
            }
        }
        prop_assert_eq!(done.len() + pending.len(), jobs.len());
        // jobs bigger than the pool can never run, everything else must
        for p in &pending {
            prop_assert!(p.mem_mb > capacity);
        }
        let trace = ex.into_trace();
        prop_assert!(trace.respects_memory(capacity), "peak {}", trace.peak_mem_mb());
        // makespan >= the critical path lower bound (longest single job)
        if let Some(max_t) = done.iter().map(|j| u64::from(j.time_ms)).max() {
            prop_assert!(trace.makespan_ms() >= max_t);
        }
        // busy time equals the sum of executed job times
        let total: u64 = done.iter().map(|j| u64::from(j.time_ms)).sum();
        prop_assert_eq!(trace.busy_ms(), total);
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

    /// Memory pool accounting never goes negative or above capacity and
    /// failed acquires change nothing.
    #[test]
    fn memory_pool_accounting(ops in prop::collection::vec((any::<bool>(), 1u32..10000), 0..100), capacity in 1000u32..16000) {
        let mut pool = MemoryPool::new(capacity);
        let mut held: Vec<u32> = Vec::new();
        for (acquire, size) in ops {
            if acquire {
                let before = pool.in_use_mb();
                match pool.acquire(size) {
                    Ok(()) => held.push(size),
                    Err(_) => prop_assert_eq!(pool.in_use_mb(), before),
                }
            } else if let Some(mb) = held.pop() {
                pool.release(mb).expect("held memory releases");
            }
            let sum: u32 = held.iter().sum();
            prop_assert_eq!(pool.in_use_mb(), sum);
            prop_assert!(pool.in_use_mb() <= capacity);
            prop_assert!(pool.peak_mb() >= pool.in_use_mb());
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

    /// Batched admission conserves pool memory: weights are acquired once
    /// per batch, every admission/release balances, and the trace respects
    /// the capacity.
    #[test]
    fn batched_admission_conserves_memory(
        groups in prop::collection::vec((50u32..500, 500u32..8000, 1usize..32), 1..20),
        capacity in 8000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let mut ex = ParallelExecutor::new(capacity);
        let mut pending: Vec<(Job, usize)> = groups
            .iter()
            .enumerate()
            .map(|(id, &(time_ms, mem_mb, count))| (Job { id, time_ms, mem_mb }, count))
            .collect();
        let mut admitted = 0usize;
        while !pending.is_empty() || ex.running_count() > 0 {
            let mut i = 0;
            while i < pending.len() {
                if ex.fits(pending[i].0.mem_mb) {
                    let (job, count) = pending.remove(i);
                    let dur = ex.admit_batch(job, count, &model).expect("fits() said yes");
                    prop_assert_eq!(dur, model.batch_time_ms(job.time_ms, count));
                    admitted += 1;
                } else {
                    i += 1;
                }
            }
            prop_assert!(ex.available_mb() <= capacity);
            if ex.wait_next().is_none() {
                break;
            }
        }
        // every admitted batch ran and released its memory
        prop_assert_eq!(ex.running_count(), 0);
        prop_assert_eq!(ex.available_mb(), capacity);
        for p in &pending {
            prop_assert!(p.0.mem_mb > capacity, "only pool-exceeding batches remain");
        }
        let trace = ex.into_trace();
        prop_assert_eq!(trace.spans.len(), admitted);
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
    /// orders through the traced executor, the best of them takes exactly
    /// `batched_makespan` and never overfills the pool — and the
    /// trace-free `list_makespan` agrees with the executor on each order.
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
            let trace = replay(&order, capacity, &model);
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

    /// Admitting batch k+1 never moves a finish of batch k: a timeline
    /// that saw only batches 0..=k gives them the same finishes as one
    /// that went on to admit the rest, and every group of batch k+1 starts
    /// no earlier than batch k's last admission (behind it, not around it).
    #[test]
    fn streaming_never_moves_an_earlier_finish(
        batches in arb_stream(),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let all = stream(&batches, capacity, &model);
        for k in 0..batches.len() {
            prop_assert_eq!(&stream(&batches[..=k], capacity, &model)[..], &all[..=k]);
        }
        let mut pool = PoolTimeline::new(capacity);
        let (mut before, mut last_end) = (0, 0);
        for specs in &batches {
            let gs = groups_of(specs);
            let mut finish = vec![0u64; gs.len()];
            let (last_admit, end) = pool.admit(&gs, &model, &mut finish);
            prop_assert!(end >= last_end && last_admit >= before);
            for (&(job, count), &f) in gs.iter().zip(&finish) {
                prop_assert!(f - model.batch_time_ms(job.time_ms, count) >= before);
            }
            (before, last_end) = (last_admit, end);
        }
    }

    /// The streamed schedule is a real one: replaying every group through
    /// the traced executor at the start the timeline gave it reproduces
    /// each finish and never overfills the pool, and the timeline's busy
    /// time is the length of the union of the replayed spans.
    #[test]
    fn streamed_timeline_replays_within_the_pool(
        batches in arb_stream(),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let mut starts: Vec<(u64, Job, usize, u64)> = Vec::new();
        for (job, count, finish) in stream(&batches, capacity, &model)
            .into_iter()
            .flatten()
            .map(|((job, count), finish)| (job, count, finish))
        {
            let id = starts.len();
            let mem_mb = job.mem_mb.min(capacity);
            let start = finish - model.batch_time_ms(job.time_ms, count);
            starts.push((start, Job { id, mem_mb, ..job }, count, finish));
        }
        starts.sort_by_key(|&(start, job, ..)| (start, job.id));
        let mut ex = ParallelExecutor::new(capacity);
        for &(start, job, count, finish) in &starts {
            while ex.next_completion_ms().is_some_and(|f| f <= start) {
                ex.wait_next();
            }
            // Every start is a completion instant or 0: the clock is there.
            prop_assert_eq!(ex.now_ms(), start);
            prop_assert!(ex.fits(job.mem_mb), "group {} at {}", job.id, start);
            let dur = ex.admit_batch(job, count, &model).expect("fits() said yes");
            prop_assert_eq!(ex.now_ms() + dur, finish);
        }
        let trace = ex.into_trace();
        prop_assert!(trace.respects_memory(capacity), "peak {}", trace.peak_mem_mb());
        let mut spans: Vec<(u64, u64)> = trace.spans.iter().map(|s| (s.start_ms, s.end_ms)).collect();
        spans.sort_unstable();
        let (mut union, mut reach) = (0u64, 0u64);
        for (s, e) in spans {
            union += e.saturating_sub(s.max(reach));
            reach = reach.max(e);
        }
        let mut pool = PoolTimeline::new(capacity);
        for specs in &batches {
            pool.admit(&groups_of(specs), &model, &mut []);
        }
        prop_assert_eq!(pool.busy_ms(), union);
    }

    /// With the clock moved arbitrarily between batches, every finish is
    /// at least its batch's admission plus its own batch time.
    #[test]
    fn every_finish_follows_its_admission(
        batches in arb_stream(),
        gaps in prop::collection::vec(0u64..2000, 6..7),
        capacity in 1000u32..20000,
        permille in 0u32..=1000,
    ) {
        let model = BatchLatencyModel::new(permille);
        let mut pool = PoolTimeline::new(capacity);
        let mut clock = 0u64;
        for (specs, gap) in batches.iter().zip(gaps) {
            clock += gap;
            pool.advance_to(clock);
            let gs = groups_of(specs);
            let mut finish = vec![0u64; gs.len()];
            pool.admit(&gs, &model, &mut finish);
            for (&(job, count), &f) in gs.iter().zip(&finish) {
                prop_assert!(f >= clock + model.batch_time_ms(job.time_ms, count));
            }
        }
    }

    /// The parallel executor with capacity >= all jobs behaves like pure
    /// concurrency: makespan equals the longest job.
    #[test]
    fn unbounded_pool_is_fully_concurrent(jobs in arb_jobs()) {
        let total_mem: u32 = jobs.iter().map(|j| j.mem_mb).sum();
        let mut ex = ParallelExecutor::new(total_mem.max(1));
        for j in &jobs {
            ex.admit(*j).expect("unbounded");
        }
        let max_t = jobs.iter().map(|j| u64::from(j.time_ms)).max().unwrap_or(0);
        ex.drain();
        prop_assert_eq!(ex.now_ms(), max_t);
    }
}
