//! The conservation ledger's one row shape.
//!
//! Every offered request lands in exactly one terminal bucket, per SLO
//! class, with the value it carried. A [`Tally`] is one class's row: a
//! `(count, value)` [`Cell`] per [`EventKind`], bumped at the exact site
//! that emits the kind's lifecycle event — `Admitted` is "offered", the
//! nine terminal kinds are the buckets, and the marker kinds a layer
//! cares to count (`Enqueued` is the report's `submitted`) ride along. A
//! [`Ledger`] is the rows of every class (index = class).
//!
//! Each serving layer keeps its own ledger under the synchronisation it
//! already has — the submit path behind striped mutexes, the shard queue
//! under its queue lock, each worker thread-locally until it joins, the
//! cancellation path with its slot CAS inside the ledger lock, the cache's
//! fan-out behind the cache ledger's mutex — and the end-of-run fold just
//! [`merge`](Ledger::merge)s them. The event stream is counted
//! independently (`obs::Registry` ingests events into tallies of the same
//! shape) and `ServeReport::events_reconcile` compares the two; `ams-lint`'s
//! `ledger-event` rule keeps every `bump(EventKind::X, …)` next to an emit
//! naming `EventKind::X`.

use crate::obs::{EventKind, KIND_COUNT};

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
    /// The `Labeled` requests delivered past their deadline.
    pub(crate) late: Cell,
}

impl Tally {
    /// Count one request of `value` under `kind`.
    pub(crate) fn bump(&mut self, kind: EventKind, value: f64) {
        self.cells[kind.index()].add(1, value);
    }

    /// Mark the `Labeled` request just bumped as delivered past its
    /// deadline.
    pub(crate) fn bump_late(&mut self, value: f64) {
        self.late.add(1, value);
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
    /// `class`'s row, to bump.
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

    #[test]
    fn bumps_merge_and_sum_class_by_class() {
        let mut a = Ledger::default();
        a.row(1).bump(EventKind::Admitted, 2.0);
        a.row(1).bump(EventKind::Labeled, 2.0);
        a.row(1).bump_late(2.0);
        assert_eq!(a.rows().len(), 2, "rows grow to the class bumped");
        let mut b = Ledger::default();
        b.row(0).bump(EventKind::Admitted, 0.5);
        b.row(0).bump(EventKind::ShedDeadline, 0.5);
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.rows()[0].count(EventKind::Labeled), 0);
        assert_eq!(b.rows()[1].count(EventKind::Labeled), 2);
        let (total, settled) = (b.total(), b.total().sum(EventKind::is_terminal));
        assert_eq!(total.count(EventKind::Admitted), settled.count);
        assert_eq!(total.value(EventKind::Admitted), settled.value);
        assert_eq!((settled.count, settled.value), (3, 4.5));
        assert_eq!((total.late.count, total.late.value), (2, 4.0));
    }
}
