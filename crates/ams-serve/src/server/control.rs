//! Per-shard batch control: the live batch limit, its AIMD retuning
//! against the tail-latency target, and the service-time signals SLO
//! admission prices queue depth with.

use super::config::AdaptiveBatchConfig;
use super::report::ShardAdaptive;
use crate::telemetry::{micros, LatencyHistogram};
use ams_sim::BatchLatencyModel;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// AIMD multiplicative decrease: a window over target halves the limit.
const DECREASE_FACTOR: f64 = 0.5;
/// AIMD additive increase: a compliant window grows the limit by one.
const INCREASE_STEP: usize = 1;

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

/// One shard's adaptive-batching state: the live limit workers read before
/// every pop, the observation window the controller adjusts from, and the
/// shard's published headroom signal.
pub(super) struct ShardControl {
    pub(super) limit: AtomicUsize,
    /// Amortized per-request service time, µs (EWMA over executed
    /// batches: busy span ÷ batch size, see [`ServiceClock`]). Published
    /// by the workers at every batch start whether or not the adaptive
    /// controller runs — this is the headroom signal SLO admission control
    /// prices queue depth with (predicted wait = depth × amortized ÷
    /// workers). 0 until the shard starts its second batch (admission
    /// control admits everything until then — no evidence, no shedding).
    pub(super) amortized_us: AtomicU64,
    /// EWMA of a whole batch's busy span, µs — what one more batch costs
    /// end to end. Admission control adds it to the predicted wait when
    /// pricing a *full* queue, where admitting means evicting.
    pub(super) exec_span_us: AtomicU64,
    window: Mutex<AdaptiveWindow>,
}

/// The controller's per-window observations and its published trajectory.
#[derive(Default)]
struct AdaptiveWindow {
    execute: LatencyHistogram,
    total: LatencyHistogram,
    adjustments: u64,
    last_window_p99_us: u64,
    last_within_target: bool,
    trajectory: Vec<usize>,
}

impl ShardControl {
    pub(super) fn new(start_limit: usize) -> Self {
        Self {
            limit: AtomicUsize::new(start_limit),
            amortized_us: AtomicU64::new(0),
            exec_span_us: AtomicU64::new(0),
            window: Mutex::new(AdaptiveWindow {
                last_within_target: true,
                ..AdaptiveWindow::default()
            }),
        }
    }

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

    /// Record delivered members' `(queue wait, execute)` latencies and
    /// retune the limit once the window fills. One lock per delivery
    /// pass, not per request.
    pub(super) fn observe_batch(
        &self,
        members: impl Iterator<Item = (Duration, Duration)>,
        acfg: &AdaptiveBatchConfig,
        batch_model: &BatchLatencyModel,
    ) {
        let mut win = self.window.lock().expect("adaptive window");
        for (wait, exec) in members {
            win.execute.record(exec);
            win.total.record(wait + exec);
        }
        if win.total.count() < acfg.window {
            return;
        }
        let p99_total = win.total.quantile_us(0.99);
        let p99_exec = win.execute.quantile_us(0.99);
        let target_us = acfg.target_p99_ms.saturating_mul(1000);
        let cur = self.limit.load(Ordering::Relaxed);
        let next = if p99_total > target_us {
            // Violation: multiplicative decrease.
            ((cur as f64 * DECREASE_FACTOR) as usize).max(acfg.min_batch)
        } else {
            // Compliant: additive increase, but bounded by the latency
            // model — grow only when the predicted tail still fits.
            let cand = (cur + INCREASE_STEP).min(acfg.max_batch.max(acfg.min_batch));
            let ratio = batch_model.growth_ratio(cur, cand);
            let queue_share = p99_total.saturating_sub(p99_exec) as f64;
            let predicted = queue_share + p99_exec as f64 * ratio;
            if predicted <= target_us as f64 {
                cand
            } else {
                cur
            }
        };
        self.limit.store(next, Ordering::Relaxed);
        win.adjustments += 1;
        win.last_window_p99_us = p99_total;
        win.last_within_target = p99_total <= target_us;
        win.trajectory.push(next);
        win.execute = LatencyHistogram::default();
        win.total = LatencyHistogram::default();
    }

    /// Close out the controller at drain: judge a half-full residual window
    /// (enough evidence), discard a thinner one. Takes `&self` (the
    /// workers are joined, but client handles may still hold weak
    /// references to the shared state, so the record is read under the
    /// lock rather than by consuming the control).
    pub(super) fn record(&self, shard: usize, acfg: &AdaptiveBatchConfig) -> ShardAdaptive {
        let final_max_batch = self.limit.load(Ordering::Relaxed);
        let win = self.window.lock().expect("adaptive window");
        let (mut last_p99, mut within) = (win.last_window_p99_us, win.last_within_target);
        if win.total.count() * 2 >= acfg.window.max(1) {
            let p99 = win.total.quantile_us(0.99);
            last_p99 = p99;
            within = p99 <= acfg.target_p99_ms.saturating_mul(1000);
        }
        ShardAdaptive {
            shard,
            final_max_batch,
            adjustments: win.adjustments,
            last_window_p99_us: last_p99,
            within_target: within,
            trajectory: win.trajectory.clone(),
        }
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
        let control = ShardControl::new(8);
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
