//! The shard worker's clock-free core, `ams_sim::shard::WorkerCore`: its
//! order of phases — the steps `next` hands the shell and what a pop
//! found, reported back through `popped` — and its rules — the pop gate,
//! who may join an open batch, the pool plan, each member's due and the
//! busy span — tested with literal microseconds after the shard queue's
//! epoch, with no thread.

use ams_sim::shard::{join_room, Step, WorkerCore};
use ams_sim::{BatchLatencyModel, Job};

/// `core`'s step at `now_us` with `queued` live requests on the shard
/// queue.
fn step(core: &mut WorkerCore<u32>, now_us: u64, queued: usize) -> Step<u32> {
    core.next(now_us, || queued)
}

/// The queue depth of a step that must not read it.
fn unread() -> usize {
    panic!("the queue depth was read")
}

/// What a `Deliver` step at `now_us` hands over: nothing for any other
/// step.
fn due(core: &mut WorkerCore<u32>, now_us: u64) -> Vec<u32> {
    match step(core, now_us, 0) {
        Step::Deliver(due) => due,
        _ => Vec::new(),
    }
}

/// A pop of up to `room`, waiting for work until `until_us`.
fn pop(room: usize, until_us: Option<u64>) -> Step<u32> {
    Step::Pop { room, until_us }
}

/// An idle pool's pop: whatever is queued, for as long as it takes.
const POP_ANY: Step<u32> = Step::Pop {
    room: 8,
    until_us: None,
};

/// A pop at `at_us` found `len` requests, all claimed, and nothing joined
/// them: the step that closes the batch. Its members run no model.
fn close(core: &mut WorkerCore<u32>, at_us: u64, len: usize) -> Step<u32> {
    core.popped(at_us, Some(len), len);
    let mut step = core.next(at_us, unread);
    if let Step::Pop { .. } = step {
        core.popped(at_us, None, len);
        step = core.next(at_us, unread);
    }
    core.admit((0..len as u32).map(|m| (m, vec![])).collect(), at_us);
    step
}

/// A core at `SCALE` for `workers` on the shard, with `members` — the
/// models each ran — admitted at 0 as one batch.
fn staged(workers: usize, members: &[&[usize]]) -> WorkerCore<u32> {
    let mut core = core_of(SCALE, workers);
    let batch = members.iter().zip(0..).map(|(m, id)| (id, m.to_vec()));
    core.admit(batch.collect(), 0);
    core
}

/// With one worker the gate pops a full batch while fewer than 2 × 8
/// staged members wait on an unstarted group, and holds until the first
/// of those groups starts once 16 do. 15 members running models 0 and 1
/// stage model 0's group at 0–520 ms and model 1's at 520–1040 ms; 16
/// stage them at 0–550 and 550–1100.
#[test]
fn one_worker_looks_two_batches_ahead() {
    let fifteen = &[&[0, 1][..]; 15];
    let sixteen = &[&[0, 1][..]; 16];
    let mut core = staged(1, fifteen);
    assert_eq!(step(&mut core, 0, 8), pop(8, Some(520_000)), "2 x 8 - 1");
    let mut core = staged(1, sixteen);
    assert_eq!(step(&mut core, 0, 8), Step::Sleep(275_000), "2 x 8");
    assert_eq!(
        step(&mut core, 275_000, 8),
        pop(8, Some(550_000)),
        "every group started"
    );
}

/// With siblings on the shard a full batch waits until every group here
/// has started: 7 members on model 0 and one on models 0 and 1 stage
/// model 0's group at 0–310 ms and model 1's at 310–410.
#[test]
fn several_workers_hold_on_one_unstarted_member() {
    let mut core = staged(2, &[&[0][..]; 8]);
    assert_eq!(
        step(&mut core, 0, 8),
        pop(8, Some(155_000)),
        "every group started"
    );
    let one_unstarted = &[&[0][..], &[0], &[0], &[0], &[0], &[0], &[0], &[0, 1]];
    for workers in [2, 4] {
        let mut core = staged(workers, one_unstarted);
        assert_eq!(step(&mut core, 0, 8), Step::Sleep(155_000), "held");
    }
}

/// Too little queued for a full batch: pause until the next member is
/// due (3 members on model 0, due at 160 ms), however many workers.
#[test]
fn a_partial_batch_waits_for_the_drain() {
    let mut core = staged(1, &[&[0][..]; 3]);
    assert_eq!(step(&mut core, 0, 7), Step::Sleep(80_000));
    let mut core = staged(2, &[&[0][..]; 3]);
    assert_eq!(step(&mut core, 0, 0), Step::Sleep(80_000));
    // The hold comes first: a partial batch behind a held pool pauses
    // until the first unstarted group starts, not until the first due.
    let mut core = staged(1, &[&[0, 1][..]; 16]);
    assert_eq!(step(&mut core, 0, 7), Step::Sleep(275_000));
}

/// Nothing in flight: pop whatever is queued, waiting for as long as it
/// takes, without reading the depth.
#[test]
fn an_empty_pool_pops_anything() {
    for workers in [1, 2] {
        for queued in [0, 3] {
            assert_eq!(step(&mut core_of(SCALE, workers), 0, queued), POP_ANY);
        }
        assert_eq!(core_of(SCALE, workers).next(0, unread), POP_ANY);
    }
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

/// A burst that queues while a popped request is labeled is popped into
/// its batch, without waiting, before the admission: one admission of 8.
#[test]
fn a_burst_queued_during_labeling_joins_before_the_admission() {
    let mut core = core(SCALE);
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, Some(1), 1);
    assert_eq!(core.next(40, unread), pop(7, Some(0)), "max_batch - 1");
    core.popped(40, Some(7), 8);
    let admit = Step::Admit { len: 8, busy: None };
    assert_eq!(core.next(90, unread), admit, "full: no further pop");
}

/// With siblings on the shard the batch closes at its first pop: the
/// admission comes right after it, and a burst queued meanwhile waits for
/// the next pop.
#[test]
fn with_two_workers_the_admission_follows_the_first_pop() {
    let mut core = core_of(SCALE, 2);
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, Some(1), 1);
    let admit = Step::Admit { len: 1, busy: None };
    assert_eq!(core.next(40, unread), admit);
}

/// A join pop that finds the queue empty closes the batch, and did not
/// wait: the span to the next batch start is busy time, all of it.
#[test]
fn an_empty_join_pop_closes_the_batch_without_blocking() {
    let mut core = core(0.0);
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, Some(2), 2);
    assert_eq!(core.next(10, unread), pop(6, Some(0)));
    core.popped(10, None, 2);
    let admit = Step::Admit { len: 2, busy: None };
    assert_eq!(core.next(5_000, unread), admit);
    core.admit(vec![(1, vec![0]), (2, vec![1])], 5_000);
    assert_eq!(due(&mut core, 5_000), vec![1, 2]);
    assert_eq!(step(&mut core, 8_000, 0), POP_ANY);
    let busy = Some((8_000, 2));
    assert_eq!(close(&mut core, 8_000, 1), Step::Admit { len: 1, busy });
}

/// A first pop whose every request was shed opens no batch: the next step
/// is the gate's again, and the next batch is the first.
#[test]
fn an_all_shed_first_pop_opens_no_batch() {
    let mut core = core(SCALE);
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, Some(3), 0);
    assert_eq!(step(&mut core, 10, 0), POP_ANY, "no join pop, no admission");
    let first = Step::Admit { len: 2, busy: None };
    assert_eq!(close(&mut core, 10, 2), first);
}

/// A pop that finds the queue closed and drained ends the worker only once
/// nothing is in flight: member 1 is due at 65 000 µs and member 2 at
/// 115 000 µs, and each is delivered first.
#[test]
fn a_closed_queue_delivers_what_is_in_flight_before_done() {
    let mut core = core(SCALE);
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, Some(2), 2);
    assert_eq!(core.next(0, unread), pop(6, Some(0)));
    core.popped(0, Some(0), 2);
    let admit = Step::Admit { len: 2, busy: None };
    assert_eq!(core.next(0, unread), admit, "the batch closes first");
    core.admit(vec![(1, vec![0]), (2, vec![0, 1])], 0);
    assert_eq!(step(&mut core, 10_000, 0), Step::Sleep(65_000));
    assert_eq!(due(&mut core, 65_000), vec![1]);
    assert_eq!(step(&mut core, 65_000, 0), Step::Sleep(115_000));
    assert_eq!(due(&mut core, 115_000), vec![2]);
    assert_eq!(core.next(115_000, unread), Step::Done);
    // An idle worker whose first pop finds the queue closed stops there.
    let mut idle = core_of(SCALE, 1);
    assert_eq!(step(&mut idle, 0, 0), POP_ANY);
    idle.popped(0, Some(0), 0);
    assert_eq!(idle.next(0, unread), Step::Done);
}

/// The service hint is busy time between batch starts, blocked time
/// excluded: 10 ms from start to start with 3 ms blocked on an empty
/// queue is a 7 ms span for the 4-request batch.
#[test]
fn service_clock_publishes_busy_time_between_batch_starts() {
    let mut core = core(0.0);
    // Blocked before the first batch: nothing before it to charge.
    assert_eq!(step(&mut core, 0, 0), POP_ANY);
    core.popped(0, None, 0);
    assert_eq!(step(&mut core, 2_000, 0), POP_ANY);
    let first = Step::Admit { len: 4, busy: None };
    assert_eq!(close(&mut core, 2_000, 4), first, "nothing before it");
    assert_eq!(due(&mut core, 8_000).len(), 4);
    for blocked_from in [9_000, 10_000] {
        assert_eq!(step(&mut core, blocked_from, 0), POP_ANY);
        core.popped(blocked_from, None, 0);
    }
    assert_eq!(step(&mut core, 12_000, 0), POP_ANY);
    let busy = Some((7_000, 4));
    assert_eq!(close(&mut core, 12_000, 2), Step::Admit { len: 2, busy });
    // A busy stretch with no blocking counts whole; blocking longer
    // than the gap (a clock that stepped back) counts nothing.
    assert_eq!(due(&mut core, 12_000).len(), 2);
    assert_eq!(step(&mut core, 18_000, 0), POP_ANY);
    let busy = Some((6_000, 2));
    assert_eq!(close(&mut core, 18_000, 1), Step::Admit { len: 1, busy });
    assert_eq!(due(&mut core, 18_000).len(), 1);
    assert_eq!(step(&mut core, 19_000, 0), POP_ANY);
    core.popped(19_000, None, 0);
    assert_eq!(step(&mut core, 28_000, 0), POP_ANY);
    let busy = Some((0, 1));
    assert_eq!(close(&mut core, 22_000, 1), Step::Admit { len: 1, busy });
}

/// Three 100 ms models of 1 MB each on a 1 MB pool — one group runs at
/// a time — at `scale` wall ms per virtual ms. A lone run takes 100 ms
/// (70 of them setup), each further run in its group 30 more. Batches
/// of 8, `workers` on the shard.
fn core_of(scale: f64, workers: usize) -> WorkerCore<u32> {
    let job = |id| Job {
        id,
        time_ms: 100,
        mem_mb: 1,
    };
    let batch_model = BatchLatencyModel::default();
    let jobs = vec![job(0), job(1), job(2)];
    WorkerCore::new(scale, 8, workers, batch_model, 1, jobs)
}

/// [`core_of`] with the shard to itself.
fn core(scale: f64) -> WorkerCore<u32> {
    core_of(scale, 1)
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
    assert_eq!(due(&mut core, 64_999), Vec::<u32>::new());
    assert_eq!(due(&mut core, 65_000), vec![1], "130 ms x 500 µs");
    assert_eq!(due(&mut core, 114_999), Vec::<u32>::new());
    assert_eq!(due(&mut core, 115_000), vec![2]);
    assert_eq!(step(&mut core, 115_000, 0), POP_ANY, "none in flight");
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
    assert_eq!(due(&mut shared, 114_999), Vec::<u32>::new());
    assert_eq!(due(&mut shared, 115_000), vec![1, 2], "230 ms x 500 µs");
    assert_eq!(due(&mut apart, 100_000), vec![1], "200 ms x 500 µs");
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
    assert_eq!(due(&mut core, 99_999), Vec::<u32>::new());
    assert_eq!(due(&mut core, 100_000), vec![1], "200 ms x 500 µs");
    assert_eq!(due(&mut core, 150_000), vec![2], "300 ms x 500 µs");
}

/// Without emulation the pool has always drained: every member is due
/// at admission, however long its models run.
#[test]
fn without_emulation_every_member_is_due_at_admission() {
    let mut core = core(0.0);
    core.admit(vec![(1, vec![0, 1, 2])], 0);
    core.admit(vec![(2, vec![0]), (3, vec![2])], 0);
    assert_eq!(core.end_us(), 0);
    assert_eq!(due(&mut core, 0), vec![1, 2, 3]);
}
