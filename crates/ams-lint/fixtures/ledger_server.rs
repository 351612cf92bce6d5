//! Fixture: ledger↔event pairing in a server-like file.

fn bad_offer(row: &mut Tally, obs: &Obs) {
    obs.emit(EventKind::Enqueued);
    row.bump(EventKind::Admitted, 1.0);
    row.bump(EventKind::Admitted, 1.0);
}

fn good_offer(row: &mut Tally, obs: &Obs) {
    obs.emit(EventKind::Admitted);
    row.bump(EventKind::Admitted, 1.0);
}

fn good_follower_shed(row: &mut Tally, obs: &Obs, reason: ShedReason) {
    obs.emit(EventKind::of_shed(reason));
    row.bump(EventKind::of_shed(reason), 1.0);
}

fn merge(total: &mut Tally, shard: &Tally) {
    total.merge(shard);
}

fn bad_unnamed_kind(row: &mut Tally, obs: &Obs, kind: EventKind) {
    obs.emit(kind);
    row.bump(kind, 1.0);
}

impl Tally {
    fn bump(&mut self, kind: EventKind, value: f64) {
        self.cells[kind.index()].add(1, value);
    }
}

fn allowed_site(row: &mut Tally) {
    row.bump(EventKind::Labeled, 1.0); // ams-lint: allow(ledger-event) event emitted by caller under the ledger lock
}
