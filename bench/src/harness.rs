//! The one path every workload is driven through: an in-process
//! `NetServer` on loopback and one `NetClient` connection, fed by a sender
//! thread and drained by a receiver thread.

use crate::proc;
use crate::workload::{Pace, Prepared, BURST, CLOSED_WINDOW, OPEN_WINDOW};
use ams::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a parked sender or receiver sleeps before re-checking, should
/// a wake-up ever be missed.
const PARK: Duration = Duration::from_millis(1);

/// Client-side timestamps of one request, ns since the pass began.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sent {
    /// When the request was due: the schedule's instant in an open loop,
    /// the moment its window slot came free in a closed loop.
    pub due_ns: u64,
    /// Entry to and return from `NetClient::submit_with` (traced passes).
    pub submit_ns: (u64, u64),
}

/// One terminal event as the receiver saw it.
#[derive(Debug, Clone)]
pub struct Got {
    /// When the client had decoded it, ns since the pass began.
    pub at_ns: u64,
    pub event: NetEvent,
}

/// Process counters over a traced pass, and one live scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cpu_ms: u64,
    pub ctx_switches: u64,
    /// Median time of `AmsServer::render_metrics` at the window's end, us.
    pub render_metrics_us: f64,
}

/// Everything one pass over a fresh server produced.
pub struct Pass {
    /// Indexed by request id, which is the stream position.
    pub sent: Vec<Sent>,
    pub got: Vec<Got>,
    pub report: ServeReport,
    pub traced: Option<Counters>,
}

/// What to send in one pass.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Leading requests of the prepared stream to offer at most.
    pub requests: usize,
    pub pace: Pace,
    /// Closed loop: stop offering after this long.
    pub time_limit: Option<Duration>,
    pub traced: bool,
}

/// A fresh server behind a loopback listener, and the one connection.
pub struct Rig {
    net: NetServer,
    client: NetClient,
}

impl Rig {
    pub fn start(prep: &Prepared, pace: Pace) -> Result<Self, String> {
        let server = AmsServer::start(prep.scheduler(), prep.spec.budget, prep.serve_config());
        let net = NetServer::bind(server, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let window = match pace {
            Pace::Closed => CLOSED_WINDOW,
            Pace::Open(_) => OPEN_WINDOW,
        };
        let client = NetClient::connect_with_window(net.local_addr(), window)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self { net, client })
    }

    /// Close the connection gracefully and return the server's report.
    pub fn shutdown(self) -> ServeReport {
        // Nothing is in flight any more; a failed goodbye only means the
        // server sees a disconnect instead.
        let _ = self.client.goodbye();
        drop(self.client);
        self.net.shutdown()
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// When burst `b` of an open loop at `rate` requests per second is due.
pub fn burst_due(b: usize, rate: f64) -> Duration {
    Duration::from_secs_f64((b * BURST) as f64 / rate)
}

/// Run one pass: start a server, offer the plan's requests on one
/// connection, collect every terminal event, shut the server down.
pub fn run_pass(prep: &Prepared, plan: Plan) -> Result<Pass, String> {
    let rig = Rig::start(prep, plan.pace)?;
    let client = &rig.client;
    let requests = plan.requests.min(prep.stream.len());
    // Sender and receiver each publish a count and wake the other: the
    // receiver sleeps while nothing is in flight (`NetClient::recv` returns
    // at once then), the closed-loop sender while its window is full.
    let sent_count = AtomicU64::new(0);
    let got_count = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let sender_thread = thread::current();
    let before = plan.traced.then(|| (proc::cpu_ms(), proc::ctx_switches()));
    let t0 = Instant::now();

    let (sent, got, receiver_ctx) = thread::scope(|scope| {
        let receiver = scope.spawn(|| -> Result<(Vec<Got>, u64), String> {
            let mut got = Vec::with_capacity(requests);
            loop {
                if got.len() as u64 == sent_count.load(Ordering::Acquire) {
                    if sender_done.load(Ordering::Acquire)
                        && got.len() as u64 == sent_count.load(Ordering::Acquire)
                    {
                        // This thread's counters leave /proc with it.
                        let ctx = if plan.traced {
                            proc::thread_ctx_switches()
                        } else {
                            0
                        };
                        return Ok((got, ctx));
                    }
                    thread::park_timeout(PARK);
                    continue;
                }
                match client.recv() {
                    Ok(Some(event)) => {
                        got.push(Got {
                            at_ns: ns_since(t0),
                            event,
                        });
                        got_count.store(got.len() as u64, Ordering::Release);
                        sender_thread.unpark();
                    }
                    Ok(None) => thread::yield_now(),
                    Err(e) => return Err(format!("recv: {e}")),
                }
            }
        });

        let mut sent: Vec<Sent> = Vec::with_capacity(requests);
        let mut fault = None;
        'offer: for k in 0..requests {
            let due_ns = match plan.pace {
                Pace::Closed => {
                    while k as u64 - got_count.load(Ordering::Acquire) >= CLOSED_WINDOW as u64 {
                        if receiver.is_finished() {
                            break 'offer;
                        }
                        thread::park_timeout(PARK);
                    }
                    let now = t0.elapsed();
                    if plan.time_limit.is_some_and(|limit| now >= limit) {
                        break;
                    }
                    now.as_nanos() as u64
                }
                Pace::Open(rate) => {
                    let due = burst_due(k / BURST, rate);
                    if k % BURST == 0 {
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            thread::sleep(wait);
                        }
                    }
                    due.as_nanos() as u64
                }
            };
            let opts = SubmitOptions::class(prep.spec.class_of(k));
            let item = Arc::clone(prep.item(k));
            let entered = if plan.traced { ns_since(t0) } else { 0 };
            if let Err(e) = client.submit_with(item, opts) {
                fault = Some(format!("submit: {e}"));
                break;
            }
            let returned = if plan.traced { ns_since(t0) } else { 0 };
            sent.push(Sent {
                due_ns,
                submit_ns: (entered, returned),
            });
            sent_count.store(sent.len() as u64, Ordering::Release);
            receiver.thread().unpark();
        }
        sender_done.store(true, Ordering::Release);
        receiver.thread().unpark();
        let got = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())
            .and_then(|r| r);
        match (fault, got) {
            (Some(fault), _) => Err(fault),
            (None, got) => got.map(|(got, receiver_ctx)| (sent, got, receiver_ctx)),
        }
    })?;

    let traced = before.map(|(cpu0, ctx0)| {
        // The connection is still open, so every server thread is alive
        // and its counters are still in /proc.
        let cpu_ms = proc::cpu_ms() - cpu0;
        let ctx_switches = proc::ctx_switches().saturating_sub(ctx0) + receiver_ctx;
        let renders: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(rig.net.server().render_metrics());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        Counters {
            cpu_ms,
            ctx_switches,
            render_metrics_us: crate::stats::median(&renders),
        }
    });
    let report = rig.shutdown();
    Ok(Pass {
        sent,
        got,
        report,
        traced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_whole_bursts_at_the_fixed_rate() {
        assert_eq!(burst_due(0, 260.0), Duration::ZERO);
        // 8 requests at 1000/s are due every 8 ms.
        assert_eq!(burst_due(1, 1000.0), Duration::from_millis(8));
        assert_eq!(burst_due(125, 1000.0), Duration::from_secs(1));
        // Due times depend on the burst index alone, never on the clock:
        // the last request of a 10 s window at 875/s is due inside it.
        let last = burst_due(8752 / BURST - 1, 875.0);
        assert!(last < Duration::from_secs(10) && last > Duration::from_millis(9990));
    }
}
