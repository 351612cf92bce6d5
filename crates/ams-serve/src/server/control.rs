//! Per-shard service-time signals: what a worker's batches cost, which
//! SLO admission and spill routing price queue depth with.

use crate::telemetry::micros;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A worker's busy wall time per batch: the span between successive batch
/// starts less the time it spent blocked on an empty queue. With batches
/// streaming through the pool the members' execute spans overlap, so a
/// batch's drain time is this span, not any member's.
#[derive(Debug, Default)]
pub(super) struct ServiceClock {
    /// The previous batch's start and size.
    last: Option<(Instant, usize)>,
    /// Time blocked on the queue since then.
    blocked: Duration,
}

impl ServiceClock {
    /// The worker spent `d` blocked waiting for work.
    pub(super) fn blocked(&mut self, d: Duration) {
        self.blocked += d;
    }

    /// A batch of `len` starts at `at`: the previous batch's busy span and
    /// size (`None` for the first batch).
    pub(super) fn batch_started(&mut self, at: Instant, len: usize) -> Option<(Duration, usize)> {
        let blocked = std::mem::take(&mut self.blocked);
        let (start, n) = self.last.replace((at, len))?;
        Some((
            at.saturating_duration_since(start).saturating_sub(blocked),
            n,
        ))
    }
}

/// One shard's published headroom signals.
#[derive(Default)]
pub(super) struct ShardControl {
    /// Amortized per-request service time, µs (EWMA over executed
    /// batches: busy span ÷ batch size, see [`ServiceClock`]). Published
    /// by the workers at every batch start — this is the headroom signal
    /// SLO admission control prices queue depth with (predicted wait =
    /// depth × amortized ÷ workers). 0 until the shard starts its second batch (admission
    /// control admits everything until then — no evidence, no shedding).
    pub(super) amortized_us: AtomicU64,
    /// EWMA of a whole batch's busy span, µs — what one more batch costs
    /// end to end. Admission control adds it to the predicted wait when
    /// pricing a *full* queue, where admitting means evicting.
    pub(super) exec_span_us: AtomicU64,
}

impl ShardControl {
    /// Fold one batch's busy span and amortized per-request time into the
    /// published EWMAs (¾ old + ¼ new — smooth enough that one outlier
    /// batch doesn't whipsaw admission, fresh enough to track load
    /// shifts), returning the new amortized time. Racy read-modify-write
    /// is fine: any interleaving stores a plausible smoothed value.
    pub(super) fn publish_amortized(&self, exec: Duration, batch_len: usize) -> u64 {
        let ewma = |signal: &AtomicU64, obs: u64| {
            let old = signal.load(Ordering::Relaxed);
            let next = (if old == 0 { obs } else { (old * 3 + obs) / 4 }).max(1);
            signal.store(next, Ordering::Relaxed);
            next
        };
        let span = micros(exec);
        ewma(&self.exec_span_us, span);
        ewma(&self.amortized_us, span / batch_len.max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service hint is busy time between batch starts, blocked time
    /// excluded: 10 ms from start to start with 3 ms blocked on an empty
    /// queue is a 7 ms span for the 4-request batch, 1 750 µs a request.
    #[test]
    fn service_clock_publishes_busy_time_between_batch_starts() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut clock = ServiceClock::default();
        clock.blocked(ms(5));
        assert_eq!(clock.batch_started(t0, 4), None, "nothing before it");
        clock.blocked(ms(1));
        clock.blocked(ms(2));
        let span = clock.batch_started(t0 + ms(10), 2);
        assert_eq!(span, Some((ms(7), 4)));
        let control = ShardControl::default();
        assert_eq!(control.publish_amortized(ms(7), 4), 1_750);
        assert_eq!(control.exec_span_us.load(Ordering::Relaxed), 7_000);
        // A busy stretch with no blocking counts whole; blocking longer
        // than the gap (clock skew) counts nothing.
        assert_eq!(clock.batch_started(t0 + ms(16), 1), Some((ms(6), 2)));
        clock.blocked(ms(9));
        assert_eq!(clock.batch_started(t0 + ms(20), 1), Some((ms(0), 1)));
        // The EWMA folds the next span in at a quarter weight.
        assert_eq!(control.publish_amortized(ms(6), 2), (1_750 * 3 + 3_000) / 4);
    }
}
