//! The worker's pop gate as a plain function: given what is in flight on
//! the worker's pool and what is queued, whether it pops a batch now or
//! waits. Nothing here reads a clock, locks or blocks — `Worker::pace`
//! owns the clock read and the one pause and maps [`Gate`] onto them — so
//! the rule is tested with literal counts.

/// Batches of pool look-ahead a worker that has its shard to itself keeps:
/// it pops the next full batch while fewer than this many batches of
/// staged members (`LOOK_AHEAD_BATCHES × max_batch`) still have a run in
/// a group that has not started. Those runs may join the open groups of
/// their models, so a deeper look-ahead shares more setups.
pub const LOOK_AHEAD_BATCHES: usize = 2;

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
pub(super) fn gate(
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

#[cfg(test)]
mod tests {
    use super::{gate, Gate};

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
}
