//! The conservation ledger's one row shape, and its one way to count.
//!
//! Every offered request lands in exactly one terminal bucket, per SLO
//! class, with the value it carried. A [`Tally`] is one class's row: a
//! `(count, value)` [`Cell`] per [`EventKind`] — `Admitted` is "offered",
//! the nine terminal kinds are the buckets, and the marker kinds a layer
//! cares to count (`Enqueued` is the report's `submitted`) ride along. A
//! [`Ledger`] is the rows of every class (index = class).
//!
//! [`Ledger::settle`] is the only way to count (with
//! [`settle_in`](Ledger::settle_in), its form for a ledger behind a mutex):
//! it emits the lifecycle event, then counts it under the event's own class
//! and kind (and a late `Labeled` in [`Tally::late`]), so an entry without
//! its event cannot be written and every event is out before its entry is
//! visible.
//!
//! Each serving layer keeps its own ledger under the synchronisation it
//! already has — the submit path behind striped mutexes, the shard queue
//! under its queue lock, each worker thread-locally until it joins, the
//! cancellation path with its slot CAS inside the ledger lock, the cache's
//! fan-out behind the cache ledger's mutex — and the end-of-run fold just
//! [`merge`](Ledger::merge)s them. The event stream is counted
//! independently (`obs::Registry` settles the events it ingests into a
//! ledger of the same shape) and `ServeReport::events_reconcile` compares
//! the two.

use crate::obs::{Event, EventKind, KIND_COUNT};
use std::sync::Mutex;

/// How many requests landed somewhere, and the summed (class-weighted,
/// predicted) value they carried.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cell {
    pub(crate) count: u64,
    pub(crate) value: f64,
}

impl Cell {
    fn add(&mut self, count: u64, value: f64) {
        self.count += count;
        self.value += value;
    }
}

/// One class's ledger row: a [`Cell`] per event kind, plus one sub-count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    cells: [Cell; KIND_COUNT],
    late: Cell,
}

impl Tally {
    /// Count one request of `value` under `kind`.
    fn bump(&mut self, kind: EventKind, value: f64) {
        self.cells[kind.index()].add(1, value);
    }

    /// Mark the `Labeled` request just bumped as delivered past its
    /// deadline.
    fn bump_late(&mut self, value: f64) {
        self.late.add(1, value);
    }

    /// The `Labeled` requests delivered past their deadline.
    pub(crate) fn late(&self) -> Cell {
        self.late
    }

    /// Add another layer's row for the same class into this one.
    pub(crate) fn merge(&mut self, from: &Tally) {
        for (into, from) in self.cells.iter_mut().zip(&from.cells) {
            into.add(from.count, from.value);
        }
        self.late.add(from.late.count, from.late.value);
    }

    pub(crate) fn count(&self, kind: EventKind) -> u64 {
        self.cells[kind.index()].count
    }

    pub(crate) fn value(&self, kind: EventKind) -> f64 {
        self.cells[kind.index()].value
    }

    /// The `kinds` cells summed.
    pub(crate) fn sum(&self, kinds: impl Fn(EventKind) -> bool) -> Cell {
        let mut sum = Cell::default();
        for kind in EventKind::ALL.into_iter().filter(|&k| kinds(k)) {
            sum.add(self.count(kind), self.value(kind));
        }
        sum
    }
}

/// A [`Tally`] per class (index = class), grown on demand so a layer that
/// never learns the class count — a bare `ShardQueue`, a ticket outliving
/// its server — still ledgers every class it meets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    rows: Vec<Tally>,
}

impl Ledger {
    /// Settle one request of `value`: `emit` the event `ev` first, then
    /// count it in row `ev.class` under `ev.kind` — and in the row's
    /// `late` when `ev` is a `Labeled` flagged as delivered past its
    /// deadline (a flagged `Coalesced` is not: `deadline_met` counts
    /// labeled requests only).
    pub(crate) fn settle(&mut self, ev: Event, value: f64, emit: impl FnOnce(Event)) {
        emit(ev);
        self.count(ev, value);
    }

    /// [`settle`](Ledger::settle) into the ledger behind `ledger`, emitting
    /// before the lock is taken: the lock covers the count alone.
    pub(crate) fn settle_in(
        ledger: &Mutex<Ledger>,
        ev: Event,
        value: f64,
        emit: impl FnOnce(Event),
    ) {
        emit(ev);
        ledger.lock().expect("ledger").count(ev, value);
    }

    fn count(&mut self, ev: Event, value: f64) {
        let row = self.row(ev.class as usize);
        row.bump(ev.kind, value);
        if ev.kind == EventKind::Labeled && ev.flag {
            row.bump_late(value);
        }
    }

    /// `class`'s row, the rows before it grown as needed.
    pub(crate) fn row(&mut self, class: usize) -> &mut Tally {
        if self.rows.len() <= class {
            self.rows.resize_with(class + 1, Tally::default);
        }
        &mut self.rows[class]
    }

    /// The rows so far (shorter than the class count when the trailing
    /// classes were never bumped).
    pub(crate) fn rows(&self) -> &[Tally] {
        &self.rows
    }

    /// Add another layer's ledger into this one, class by class.
    pub(crate) fn merge(&mut self, from: &Ledger) {
        for (class, row) in from.rows.iter().enumerate() {
            self.row(class).merge(row);
        }
    }

    /// Every class's row summed into one.
    pub(crate) fn total(&self) -> Tally {
        let mut total = Tally::default();
        for row in &self.rows {
            total.merge(row);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{NO_SHARD, NO_TICKET};
    use EventKind::{Admitted, Coalesced, Labeled, ShedDeadline};

    /// A request's `kind` event in class `class`.
    fn ev(kind: EventKind, class: usize) -> Event {
        Event::new(kind, 0, NO_TICKET, NO_SHARD, class)
    }

    /// Settle `ev` of `value` with nowhere to emit it.
    fn count(ledger: &mut Ledger, ev: Event, value: f64) {
        ledger.settle(ev, value, |_| {});
    }

    #[test]
    fn bumps_merge_and_sum_class_by_class() {
        // `settle` emits once the event it counts; the row, kind and
        // lateness come from that event, the value from the argument.
        let key = |e: &Event| (e.req, e.ticket, e.shard, e.class, e.kind, e.detail, e.flag);
        let late = Event::new(Labeled, 7, 3, 1, 1).detail(40).flag(true);
        let (mut a, mut emitted) = (Ledger::default(), Vec::new());
        count(&mut a, ev(Admitted, 1), 2.0);
        a.settle(late, 2.0, |e| emitted.push(e));
        assert_eq!(emitted.iter().map(key).collect::<Vec<_>>(), [key(&late)]);
        assert_eq!(a.rows().len(), 2, "rows grow to the class settled");
        assert_eq!(a.rows()[0].sum(|_| true).count, 0);
        let row = &a.rows()[1];
        assert_eq!((row.count(Labeled), row.value(Labeled)), (1, 2.0));
        assert_eq!((row.late().count, row.late().value), (1, 2.0));
        // A flagged `Coalesced` and an unflagged `Labeled` are on time.
        let mut on_time = Ledger::default();
        count(&mut on_time, ev(Coalesced, 0).flag(true), 1.0);
        count(&mut on_time, ev(Labeled, 0), 1.0);
        assert_eq!(on_time.total().late().count, 0);
        let b = Mutex::default();
        Ledger::settle_in(&b, ev(Admitted, 0), 0.5, |_| {});
        Ledger::settle_in(&b, ev(ShedDeadline, 0), 0.5, |_| {});
        let mut b = b.into_inner().expect("unpoisoned");
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.rows()[0].count(Labeled), 0);
        assert_eq!(b.rows()[1].count(Labeled), 2);
        let (total, settled) = (b.total(), b.total().sum(EventKind::is_terminal));
        assert_eq!(total.count(Admitted), settled.count);
        assert_eq!(total.value(Admitted), settled.value);
        assert_eq!((settled.count, settled.value), (3, 4.5));
        assert_eq!((total.late().count, total.late().value), (2, 4.0));
    }
}
