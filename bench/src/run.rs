//! One workload in this process: set-up, warm-up, the timed window, the
//! oracle, and the metrics of the mode asked for.

use crate::harness::{run_pass, Pass, Plan, Rig};
use crate::measure::{gpu_ms_per_item, Window};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::workload::{self, Pace, Prepared, Scale, Spec};
use crate::{layers, probe, proc, stats, trace, Options};
use ams::prelude::*;
use serde::Value;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced window is this share of the untraced one.
const TRACED_SHARE: f64 = 1.0 / 3.0;

/// What one run reports.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub faults: Vec<String>,
    /// Order-independent digest of every labeled answer of the window.
    pub digest: u64,
    /// The window's slices, one printable line each.
    pub slices: Vec<String>,
}

impl RunResult {
    /// Every metric by name with its unit, then the contract's result
    /// object as the last line.
    pub fn print(&self) {
        let defs: Vec<_> = if self.traced {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().map(|(def, _)| def).collect()
        };
        for def in &defs {
            let value = self.values.get(def.name).unwrap_or(f64::NAN);
            println!(
                "{:<16} {:<32} {:>16.4} {}",
                self.workload, def.name, value, def.unit
            );
        }
        println!(
            "{:<16} attempted {} failed {} labels_digest {:016x}",
            self.workload, self.attempted, self.failed, self.digest
        );
        for line in &self.slices {
            println!("{:<16} {line}", self.workload);
        }
        for fault in &self.faults {
            println!("{:<16} FAULT {fault}", self.workload);
        }
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), self.values.to_json(defs.into_iter())),
        ]);
        println!(
            "{}",
            serde_json::to_string(&crate::Json(&result)).expect("result serializes")
        );
    }
}

/// Build the workload's inputs and bring a server up to the handshake,
/// timing all of it: item generation, truth tables, agent training, the
/// serial reference, server start and `Hello`.
fn set_up(spec: &Spec, seed: u64, scale: Scale) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let prep = Prepared::new(spec, seed, scale);
    let rig = Rig::start(&prep, spec.pace)?;
    let seconds = t.elapsed().as_secs_f64();
    rig.shutdown();
    Ok((prep, seconds))
}

/// One timed window, checked: per pass a closed-loop warm-up on a
/// throw-away server, then the pass itself on a fresh one.
fn window(prep: &Prepared, scale: Scale, traced: bool) -> Result<(Vec<Pass>, Window), String> {
    let spec = &prep.spec;
    let per_pass = scale.window.div_f64(spec.passes as f64);
    let passes = (0..spec.passes)
        .map(|_| {
            run_pass(
                prep,
                Plan {
                    requests: scale.warmup,
                    pace: Pace::Closed,
                    time_limit: None,
                    traced: false,
                },
            )?;
            run_pass(
                prep,
                Plan {
                    requests: prep.stream.len(),
                    pace: spec.pace,
                    time_limit: (spec.pace == Pace::Closed).then_some(per_pass),
                    traced,
                },
            )
        })
        .collect::<Result<Vec<Pass>, String>>()?;
    let checked = Window::check(prep, &passes, per_pass.as_nanos() as u64);
    Ok((passes, checked))
}

fn machine_line(opts: &Options, spec: &Spec) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("AMS_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    println!(
        "{:<16} seed {} seconds {} trace {} quick {} | nproc {cores} | {rustc} | built with avx2: {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        opts.quick,
        cfg!(target_feature = "avx2"),
    );
}

/// Run the named workload as the options say.
pub fn one(name: &str, opts: &Options) -> Result<RunResult, String> {
    let spec = workload::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    machine_line(opts, &spec);
    if opts.traced {
        traced(&spec, opts)
    } else {
        untraced(&spec, opts)
    }
}

/// The end-to-end metrics: tracing off, set-up timed [`SETUPS`] times.
fn untraced(spec: &Spec, opts: &Options) -> Result<RunResult, String> {
    let scale = Scale::new(opts.seconds, opts.quick);
    let setups = if opts.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups {
        // Free the previous set-up first, so the peak RSS is one set-up's.
        drop(prepared.take());
        let (prep, seconds) = set_up(spec, opts.seed, scale)?;
        setup_s.push(seconds);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one set-up");
    let (passes, win) = window(&prep, scale, false)?;

    let mut values = Values::default();
    values.set("goodput_per_s", win.goodput_per_s());
    values.set("lat_p50_us", win.lat_p50_us());
    values.set("lat_p95_us", win.lat_p95_us());
    values.set("inlimit_fraction", win.inlimit_fraction());
    values.set("value_per_item", win.value_per_item());
    values.set("gpu_ms_per_item", gpu_ms_per_item(&passes, win.labeled()));
    values.set("setup_s", stats::median(&setup_s));
    values.set("rss_peak_mb", proc::rss_peak_mb());
    Ok(RunResult {
        workload: spec.name,
        traced: false,
        correct: win.faults.is_empty(),
        attempted: win.offered(),
        failed: win.failed(),
        values,
        digest: win.digest.0,
        slices: win.slice_lines(),
        faults: win.faults,
    })
}

/// The per-layer metrics: an untraced reference window, the traced window
/// (each a third of the untraced run's), then the isolated probes.
fn traced(spec: &Spec, opts: &Options) -> Result<RunResult, String> {
    let scale = Scale::new(opts.seconds * TRACED_SHARE, opts.quick);
    let (prep, _) = set_up(spec, opts.seed, scale)?;
    let (_, reference) = window(&prep, scale, false)?;
    let (passes, win) = window(&prep, scale, true)?;

    let mut values = Values::default();
    layers::record(&prep, &win, &passes, &mut values)?;
    let path = crate::bench_dir()
        .join("out")
        .join(format!("trace.{}.json", spec.name));
    trace::write(&path, spec.name, opts.seed, &win)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let results: Vec<LabelResult> = passes
        .iter()
        .flat_map(|p| &p.got)
        .filter_map(|g| g.event.completion()?.labeled().cloned())
        .take(256)
        .collect();
    probe::run(&prep, &results, &mut values);

    values.set(
        "trace.overhead_fraction",
        1.0 - win.goodput_per_s() / reference.goodput_per_s().max(1e-9),
    );
    values.set(
        "budget.accounted_fraction",
        layers::accounted_fraction(&values, &win, &passes),
    );
    let (attempted, failed) = (
        reference.offered() + win.offered(),
        reference.failed() + win.failed(),
    );
    let mut faults = reference.faults;
    faults.extend(win.faults.iter().cloned());
    Ok(RunResult {
        workload: spec.name,
        traced: true,
        correct: faults.is_empty(),
        attempted,
        failed,
        values,
        digest: win.digest.0,
        slices: win.slice_lines(),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tenth of its size: the oracle must pass, the
    /// lossless workloads must lose nothing, and all of it within 30 s.
    #[test]
    fn quick_run_of_every_workload_passes_the_oracle() {
        let started = Instant::now();
        for spec in workload::all() {
            for traced in [false, true] {
                let opts = Options {
                    traced,
                    quick: true,
                    ..Options::default()
                };
                let result = one(spec.name, &opts).expect("the run completes");
                assert!(result.correct, "{}: {:?}", spec.name, result.faults);
                assert_eq!(result.failed, 0, "{}", spec.name);
                assert!(result.attempted > 0);
                if !traced {
                    let inlimit = result.values.get("inlimit_fraction").expect("measured");
                    // Nothing is shed outside the overload workload (whose
                    // queues take longer to fill than a tenth-size window
                    // lasts); a stall of the test machine may still push a
                    // request past its limit.
                    let floor = if spec.overload { 0.3 } else { 0.95 };
                    assert!(inlimit > floor, "{}: {inlimit}", spec.name);
                }
            }
        }
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(30),
            "quick runs took {took:?}"
        );
    }
}
