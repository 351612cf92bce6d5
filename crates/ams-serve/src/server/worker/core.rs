//! The shard worker's clock-free core, `ams_sim::shard::WorkerCore`: its
//! rules — the pop gate, who may join an open batch, the pool plan, each
//! member's due and the busy span — tested with literal microseconds after
//! the shard queue's epoch.

#[cfg(test)]
mod tests {
    use ams_sim::shard::{gate, join_room, Gate, WorkerCore};
    use ams_sim::{BatchLatencyModel, Job};

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

    /// A worker with its shard to itself tops its batch up to the limit
    /// with what queued while it was labeled.
    #[test]
    fn one_worker_tops_its_batch_up() {
        assert_eq!(join_room(1, 8, 1), 7);
        assert_eq!(join_room(5, 8, 1), 3);
    }

    /// With siblings on the shard a batch closes at its pop: a join would
    /// bind the request to this pool while a sibling may be free.
    #[test]
    fn several_workers_join_nothing() {
        assert_eq!(join_room(1, 8, 2), 0);
        assert_eq!(join_room(1, 8, 4), 0);
    }

    #[test]
    fn a_full_batch_has_no_room() {
        assert_eq!(join_room(8, 8, 1), 0);
        assert_eq!(join_room(9, 8, 1), 0, "never negative");
        assert_eq!(join_room(8, 8, 2), 0);
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
    /// (70 of them setup), each further run in its group 30 more. Batches
    /// of 8, one worker on the shard.
    fn core(scale: f64) -> WorkerCore<u32> {
        let job = |id| Job {
            id,
            time_ms: 100,
            mem_mb: 1,
        };
        let batch_model = BatchLatencyModel::default();
        WorkerCore::new(scale, 8, 1, batch_model, 1, vec![job(0), job(1), job(2)])
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
