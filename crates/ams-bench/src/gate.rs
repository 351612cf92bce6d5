//! The bench regression gate: compare a freshly measured smoke record
//! against the committed baseline and fail loudly when a tracked metric
//! regresses beyond its tolerance.
//!
//! Perf claims in this repo are *enforced*, not just recorded: CI and
//! `scripts/check.sh` rerun the smoke sweeps and pipe the fresh records
//! through [`run_gate`]. Tolerances are deliberately asymmetric —
//! deterministic quantities (recall, equivalence flags, routing wins) are
//! gated tightly, wall-clock throughput loosely (machines differ; the gate
//! exists to catch *catastrophic* slowdowns like an accidentally
//! serialized worker pool, not 10% scheduler noise).

use serde::Value;
use std::fmt::Write as _;

/// Which record schema a comparison uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// `BENCH_serve.json` — serving sweep.
    Serve,
    /// `BENCH_hotpath.json` — learn-step and stream throughput.
    Hotpath,
}

/// Outcome of one gate run: every check, pass or fail, with its numbers.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Human-readable lines for checks that passed.
    pub passed: Vec<String>,
    /// Human-readable lines for checks that failed.
    pub failed: Vec<String>,
}

impl GateOutcome {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }

    /// Render the outcome as one report string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for line in &self.passed {
            let _ = writeln!(s, "  ok   {line}");
        }
        for line in &self.failed {
            let _ = writeln!(s, "  FAIL {line}");
        }
        s
    }
}

/// Throughput floor: a candidate may be slower than baseline by at most
/// this factor before the gate trips (CI machines vary; a healthy run sits
/// near 1.0, an accidentally serialized hot path falls well under 0.5).
const THROUGHPUT_FLOOR: f64 = 0.5;
/// Mean recall is deterministic for the lossless closed-loop fixture; two
/// points of slack absorb float-sum ordering only.
const RECALL_SLACK: f64 = 0.02;
/// Batching-saving slack: batch composition is timing-dependent at the
/// margins, the headline saving is not.
const SAVING_SLACK: f64 = 0.10;
/// Speedup ratios are scale-free; half the baseline ratio means the
/// optimization substantially regressed.
const SPEEDUP_FLOOR: f64 = 0.5;
/// The live observability layer may cost at most this fraction of the
/// closed-loop capacity. Absolute (not baseline-relative): the budget is
/// a design contract — one timestamp plus a lock-free ring push per
/// event — so a machine where it blows past 2% has a hot-path problem,
/// not noise.
const OBS_OVERHEAD_CEILING: f64 = 0.02;

/// Numeric view of a [`Value`].
fn value_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

/// Walk a `/`-separated path of object fields and array indices.
fn get<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
    let mut cur = v;
    for part in path.split('/') {
        cur = match part.parse::<usize>() {
            Ok(i) => match cur {
                Value::Array(items) => items.get(i)?,
                _ => return None,
            },
            Err(_) => cur.field(part)?,
        };
    }
    Some(cur)
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    get(v, path)
        .and_then(value_f64)
        .ok_or_else(|| format!("missing numeric field `{path}`"))
}

fn boolean(v: &Value, path: &str) -> Result<bool, String> {
    match get(v, path) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field `{path}`")),
    }
}

/// `candidate >= floor_factor * baseline` (ratio check for throughputs).
fn check_ratio(
    out: &mut GateOutcome,
    name: &str,
    baseline: f64,
    candidate: f64,
    floor_factor: f64,
) {
    let line = format!(
        "{name}: candidate {candidate:.3} vs baseline {baseline:.3} (floor {:.3})",
        baseline * floor_factor
    );
    if candidate >= baseline * floor_factor {
        out.passed.push(line);
    } else {
        out.failed.push(line);
    }
}

/// `candidate >= baseline - slack` (absolute check for fractions).
fn check_slack(out: &mut GateOutcome, name: &str, baseline: f64, candidate: f64, slack: f64) {
    let line =
        format!("{name}: candidate {candidate:.4} vs baseline {baseline:.4} (slack {slack:.3})");
    if candidate >= baseline - slack {
        out.passed.push(line);
    } else {
        out.failed.push(line);
    }
}

fn check_flag(out: &mut GateOutcome, name: &str, value: Result<bool, String>) {
    match value {
        Ok(true) => out.passed.push(format!("{name}: true")),
        Ok(false) => out.failed.push(format!("{name}: false")),
        Err(e) => out.failed.push(format!("{name}: {e}")),
    }
}

/// Closed-loop `mean_recall` of the first sweep point whose mode matches.
fn sweep_recall(v: &Value) -> Result<f64, String> {
    let Some(Value::Array(points)) = get(v, "sweep") else {
        return Err("missing `sweep` array".into());
    };
    points
        .iter()
        .find(|p| matches!(p.field("mode"), Some(Value::Str(m)) if m == "closed"))
        .and_then(|p| p.field("mean_recall").and_then(value_f64))
        .ok_or_else(|| "no closed-loop sweep point with mean_recall".into())
}

/// Gate a serving record against its baseline.
pub fn gate_serve(baseline: &Value, candidate: &Value) -> GateOutcome {
    let mut out = GateOutcome::default();
    check_flag(
        &mut out,
        "stats_match_serial",
        boolean(candidate, "stats_match_serial"),
    );
    check_flag(
        &mut out,
        "adaptive.all_within_target",
        boolean(candidate, "adaptive/all_within_target"),
    );
    // Exactly-once ticketing: the candidate record was produced through
    // the request/response client API with tickets == delivered events
    // asserted at every sweep point; the flag records that those asserts
    // ran (the bench aborts before writing a record if any failed).
    check_flag(
        &mut out,
        "exactly_once_ticketing",
        boolean(candidate, "exactly_once_ticketing"),
    );
    // The wire-protocol sweep's guarantees travel with the record: at
    // every forked-client point the socket transport must have reproduced
    // the serial stats, delivered exactly one terminal completion per
    // wire request, returned labels byte-identical to the in-process
    // reference digest, and kept the ledger and event stream reconciled.
    check_flag(
        &mut out,
        "net_sweep.stats_match_serial",
        boolean(candidate, "net_sweep/stats_match_serial"),
    );
    check_flag(
        &mut out,
        "net_sweep.exactly_once_ticketing",
        boolean(candidate, "net_sweep/exactly_once_ticketing"),
    );
    match get(candidate, "net_sweep/points") {
        Some(Value::Array(points)) if !points.is_empty() => {
            for p in points.iter() {
                let procs = p.field("procs").and_then(value_f64).unwrap_or(f64::NAN);
                for flag in ["labels_match", "conserved", "events_reconciled"] {
                    match p.field(flag) {
                        Some(Value::Bool(true)) => {
                            out.passed.push(format!("net @{procs} proc(s): {flag}"));
                        }
                        _ => out
                            .failed
                            .push(format!("net @{procs} proc(s): {flag} is not true")),
                    }
                }
            }
        }
        _ => out.failed.push("missing `net_sweep/points` array".into()),
    }
    match (
        num(baseline, "closed_loop_capacity_per_s"),
        num(candidate, "closed_loop_capacity_per_s"),
    ) {
        (Ok(b), Ok(c)) => check_ratio(
            &mut out,
            "closed_loop_capacity_per_s",
            b,
            c,
            THROUGHPUT_FLOOR,
        ),
        (b, c) => out
            .failed
            .push(format!("closed_loop_capacity_per_s: {b:?} vs {c:?}")),
    }
    // The observability layer's capacity tax, measured obs-off vs obs-on
    // on the candidate's own closed-loop fixture (best-of-trials), must
    // stay within the absolute ceiling.
    match num(candidate, "obs_overhead_fraction") {
        Ok(f) if f <= OBS_OVERHEAD_CEILING => out.passed.push(format!(
            "obs_overhead_fraction: {f:.4} <= {OBS_OVERHEAD_CEILING:.2}"
        )),
        Ok(f) => out.failed.push(format!(
            "obs_overhead_fraction: {f:.4} > {OBS_OVERHEAD_CEILING:.2}"
        )),
        Err(e) => out.failed.push(e),
    }
    match (sweep_recall(baseline), sweep_recall(candidate)) {
        (Ok(b), Ok(c)) => check_slack(&mut out, "closed-loop mean_recall", b, c, RECALL_SLACK),
        (b, c) => out
            .failed
            .push(format!("closed-loop mean_recall: {b:?} vs {c:?}")),
    }
    match (
        num(baseline, "batching_saving_fraction"),
        num(candidate, "batching_saving_fraction"),
    ) {
        (Ok(b), Ok(c)) => check_slack(&mut out, "batching_saving_fraction", b, c, SAVING_SLACK),
        (b, c) => out
            .failed
            .push(format!("batching_saving_fraction: {b:?} vs {c:?}")),
    }
    // The SLO-aware shedding win is re-verified from the candidate record
    // itself: on the same overloaded stream, aware mode must strictly
    // reduce the value-weighted shed loss and must not worsen the
    // deadline-met rate, and both modes must conserve every request.
    for mode in ["blind", "aware"] {
        check_flag(
            &mut out,
            &format!("slo_sweep.{mode}.conserved"),
            boolean(candidate, &format!("slo_sweep/{mode}/conserved")),
        );
    }
    match (
        num(candidate, "slo_sweep/aware/value_shed_loss"),
        num(candidate, "slo_sweep/blind/value_shed_loss"),
    ) {
        (Ok(aware), Ok(blind)) => {
            let line = format!("slo aware reduces value shed loss: {aware:.1} vs blind {blind:.1}");
            if aware < blind {
                out.passed.push(line);
            } else {
                out.failed.push(line);
            }
        }
        (a, b) => out
            .failed
            .push(format!("slo value_shed_loss incomplete: {a:?} vs {b:?}")),
    }
    match (
        num(candidate, "slo_sweep/aware/deadline_met_rate"),
        num(candidate, "slo_sweep/blind/deadline_met_rate"),
    ) {
        (Ok(aware), Ok(blind)) => {
            let line = format!("slo aware deadline-met no worse: {aware:.4} vs blind {blind:.4}");
            if aware >= blind {
                out.passed.push(line);
            } else {
                out.failed.push(line);
            }
        }
        (a, b) => out
            .failed
            .push(format!("slo deadline_met_rate incomplete: {a:?} vs {b:?}")),
    }
    // The label-cache economics are re-verified from the candidate record
    // itself: the bill saving must strictly increase with the repeat
    // rate, cache-on must strictly undercut cache-off's bill at repeat
    // >= 0.6, every point must conserve (cache_hit/coalesced included in
    // its ledger), and repeat 0 must be a perfect cache no-op.
    match get(candidate, "zipf_sweep") {
        Some(Value::Array(points)) if !points.is_empty() => {
            let mut prev: Option<(f64, f64)> = None;
            for p in points.iter() {
                let rate = p
                    .field("repeat_rate")
                    .and_then(value_f64)
                    .unwrap_or(f64::NAN);
                match p.field("conserved") {
                    Some(Value::Bool(true)) => out.passed.push(format!("zipf @{rate}: conserved")),
                    _ => out.failed.push(format!("zipf @{rate}: not conserved")),
                }
                match p.field("bill_saving_fraction").and_then(value_f64) {
                    Some(s) => {
                        if let Some((prate, psave)) = prev {
                            let line = format!(
                                "zipf bill saving increases with repeat rate: \
                                 {s:.4} @{rate} vs {psave:.4} @{prate}"
                            );
                            if s > psave {
                                out.passed.push(line);
                            } else {
                                out.failed.push(line);
                            }
                        }
                        prev = Some((rate, s));
                    }
                    None => out
                        .failed
                        .push(format!("zipf @{rate}: missing bill_saving_fraction")),
                }
                if rate >= 0.6 {
                    match (
                        p.field("bill_on_ms").and_then(value_f64),
                        p.field("bill_off_ms").and_then(value_f64),
                    ) {
                        (Some(on), Some(off)) => {
                            let line =
                                format!("zipf @{rate}: cache-on bill {on:.0} < cache-off {off:.0}");
                            if on < off {
                                out.passed.push(line);
                            } else {
                                out.failed.push(line);
                            }
                        }
                        _ => out
                            .failed
                            .push(format!("zipf @{rate}: missing bill fields")),
                    }
                }
                if rate == 0.0 {
                    let hits = p.field("cache_hit").and_then(value_f64).unwrap_or(f64::NAN)
                        + p.field("coalesced").and_then(value_f64).unwrap_or(f64::NAN);
                    let line = format!("zipf @0: cache is a no-op ({hits:.0} cached answers)");
                    if hits == 0.0 {
                        out.passed.push(line);
                    } else {
                        out.failed.push(line);
                    }
                }
            }
        }
        _ => out.failed.push("missing `zipf_sweep` array".into()),
    }
    // The online-adaptation win is re-verified from the candidate record
    // itself: with adaptation off the serving path must have reproduced
    // the serial engine byte-for-byte over the same drifted stream, and
    // with it on the trainer must have actually hot-swapped generations
    // and banked strictly more post-shift value than the frozen path,
    // with ledgers and event streams intact in both modes.
    check_flag(
        &mut out,
        "drift_sweep.frozen_matches_serial",
        boolean(candidate, "drift_sweep/frozen_matches_serial"),
    );
    for mode in ["frozen", "adaptive"] {
        check_flag(
            &mut out,
            &format!("drift_sweep.{mode}.conserved"),
            boolean(candidate, &format!("drift_sweep/{mode}/conserved")),
        );
        check_flag(
            &mut out,
            &format!("drift_sweep.{mode}.events_reconciled"),
            boolean(candidate, &format!("drift_sweep/{mode}/events_reconciled")),
        );
    }
    match (
        num(candidate, "drift_sweep/adaptive/phase2_value"),
        num(candidate, "drift_sweep/frozen/phase2_value"),
    ) {
        (Ok(adaptive), Ok(frozen)) => {
            let line = format!(
                "drift adaptive banks more post-shift value: {adaptive:.1} vs frozen {frozen:.1}"
            );
            if adaptive > frozen {
                out.passed.push(line);
            } else {
                out.failed.push(line);
            }
        }
        (a, f) => out
            .failed
            .push(format!("drift phase2_value incomplete: {a:?} vs {f:?}")),
    }
    match num(candidate, "drift_sweep/adaptive/swaps") {
        Ok(s) if s > 0.0 => out
            .passed
            .push(format!("drift adaptive swapped generations: {s:.0}")),
        Ok(_) => out
            .failed
            .push("drift adaptive never swapped a generation".into()),
        Err(e) => out.failed.push(e),
    }
    // The routing win is re-verified from the candidate record itself:
    // affinity must out-coalesce hash at every measured load factor.
    match get(candidate, "routing_sweep") {
        Some(Value::Array(points)) => {
            let coal = |mode: &str, lf: f64| -> Option<f64> {
                points
                    .iter()
                    .find(|p| {
                        matches!(p.field("mode"), Some(Value::Str(m)) if m == mode)
                            && p.field("load_factor").and_then(value_f64) == Some(lf)
                    })
                    .and_then(|p| p.field("mean_coalesced").and_then(value_f64))
            };
            let factors: Vec<f64> = points
                .iter()
                .filter_map(|p| p.field("load_factor").and_then(value_f64))
                .fold(Vec::new(), |mut acc, lf| {
                    if !acc.contains(&lf) {
                        acc.push(lf);
                    }
                    acc
                });
            if factors.is_empty() {
                out.failed.push("empty `routing_sweep`".into());
            }
            for lf in factors {
                match (coal("hash", lf), coal("affinity", lf)) {
                    (Some(h), Some(a)) => {
                        let line = format!("affinity out-coalesces hash @{lf}x: {a:.3} vs {h:.3}");
                        if a > h {
                            out.passed.push(line);
                        } else {
                            out.failed.push(line);
                        }
                    }
                    (h, a) => out
                        .failed
                        .push(format!("routing point @{lf}x incomplete: {h:?} vs {a:?}")),
                }
            }
        }
        _ => out.failed.push("missing `routing_sweep` array".into()),
    }
    out
}

/// Gate a hot-path record against its baseline.
pub fn gate_hotpath(baseline: &Value, candidate: &Value) -> GateOutcome {
    let mut out = GateOutcome::default();
    let field = "learn_speedup";
    match (num(baseline, field), num(candidate, field)) {
        (Ok(b), Ok(c)) => check_ratio(&mut out, field, b, c, SPEEDUP_FLOOR),
        (b, c) => out.failed.push(format!("{field}: {b:?} vs {c:?}")),
    }
    match num(candidate, "q_equivalence_max_abs_diff") {
        Ok(d) if d < 1e-5 => out
            .passed
            .push(format!("q_equivalence_max_abs_diff: {d:.2e} < 1e-5")),
        Ok(d) => out
            .failed
            .push(format!("q_equivalence_max_abs_diff: {d:.2e} >= 1e-5")),
        Err(e) => out.failed.push(e),
    }
    // The serve-time kernel replaces the training forward on the predict
    // path, so it must reproduce it exactly (labels stay byte-identical)
    // and be the cheaper of the two (or it has no reason to exist).
    match num(candidate, "q_infer_max_abs_diff") {
        Ok(0.0) => out.passed.push("q_infer_max_abs_diff: exactly 0".into()),
        Ok(d) => out
            .failed
            .push(format!("q_infer_max_abs_diff: {d:.2e} != 0")),
        Err(e) => out.failed.push(e),
    }
    match (num(candidate, "q_infer_ns"), num(candidate, "q_forward_ns")) {
        (Ok(k), Ok(f)) => {
            let line = format!("q_infer_ns {k:.0} < q_forward_ns {f:.0}");
            if k < f {
                out.passed.push(line);
            } else {
                out.failed.push(line);
            }
        }
        (k, f) => out
            .failed
            .push(format!("q_infer_ns vs q_forward_ns: {k:?} vs {f:?}")),
    }
    out
}

/// Run the gate of `kind` over two parsed records.
pub fn run_gate(kind: GateKind, baseline: &Value, candidate: &Value) -> GateOutcome {
    match kind {
        GateKind::Serve => gate_serve(baseline, candidate),
        GateKind::Hotpath => gate_hotpath(baseline, candidate),
    }
}

/// Mutable lookup of an object field (for the self-test's injections).
fn field_mut<'v>(v: &'v mut Value, name: &str) -> Option<&'v mut Value> {
    match v {
        Value::Object(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, val)| val),
        _ => None,
    }
}

/// Walk a `/`-separated path mutably.
fn get_mut<'v>(v: &'v mut Value, path: &str) -> Option<&'v mut Value> {
    let mut cur = v;
    for part in path.split('/') {
        cur = match part.parse::<usize>() {
            Ok(i) => match cur {
                Value::Array(items) => items.get_mut(i)?,
                _ => return None,
            },
            Err(_) => field_mut(cur, part)?,
        };
    }
    Some(cur)
}

/// Overwrite the value at `path` (self-test injections only; missing paths
/// are a self-test bug and panic).
fn inject_at(v: &mut Value, path: &str, new: Value) {
    *get_mut(v, path).unwrap_or_else(|| panic!("self-test path `{path}` missing")) = new;
}

/// Scale the number at `path` by `factor`.
fn scale_at(v: &mut Value, path: &str, factor: f64) {
    let cur = get(v, path).and_then(value_f64).unwrap_or(0.0);
    inject_at(v, path, Value::F64(cur * factor));
}

/// Subtract `delta` from the number at `path`.
fn sub_at(v: &mut Value, path: &str, delta: f64) {
    let cur = get(v, path).and_then(value_f64).unwrap_or(0.0);
    inject_at(v, path, Value::F64(cur - delta));
}

/// Index of the first sweep point with the given mode (self-test helper).
fn sweep_index(v: &Value, mode: &str) -> Option<usize> {
    match get(v, "sweep") {
        Some(Value::Array(points)) => points
            .iter()
            .position(|p| matches!(p.field("mode"), Some(Value::Str(m)) if m == mode)),
        _ => None,
    }
}

/// Prove the gate *can* fail: inject synthetic regressions into a copy of
/// each baseline and require every injection to trip its check, while the
/// untouched baseline passes against itself. Returns the injections that
/// were exercised.
pub fn self_test(serve_baseline: &Value, hotpath_baseline: &Value) -> Result<Vec<String>, String> {
    let mut exercised = Vec::new();

    let self_check = gate_serve(serve_baseline, serve_baseline);
    if !self_check.ok() {
        return Err(format!(
            "serve baseline must pass against itself:\n{}",
            self_check.render()
        ));
    }
    let self_check = gate_hotpath(hotpath_baseline, hotpath_baseline);
    if !self_check.ok() {
        return Err(format!(
            "hotpath baseline must pass against itself:\n{}",
            self_check.render()
        ));
    }

    let mut inject = |name: &str,
                      kind: GateKind,
                      baseline: &Value,
                      mutate: &dyn Fn(&mut Value)|
     -> Result<(), String> {
        let mut bad = baseline.clone();
        mutate(&mut bad);
        if run_gate(kind, baseline, &bad).ok() {
            return Err(format!("injected regression `{name}` was NOT caught"));
        }
        exercised.push(name.to_string());
        Ok(())
    };

    let closed = sweep_index(serve_baseline, "closed")
        .ok_or("serve baseline has no closed-loop sweep point")?;
    inject(
        "capacity collapse (x0.3)",
        GateKind::Serve,
        serve_baseline,
        &|v| scale_at(v, "closed_loop_capacity_per_s", 0.3),
    )?;
    inject(
        "recall regression (-0.1)",
        GateKind::Serve,
        serve_baseline,
        &|v| sub_at(v, &format!("sweep/{closed}/mean_recall"), 0.1),
    )?;
    inject(
        "batching saving collapse (-0.3)",
        GateKind::Serve,
        serve_baseline,
        &|v| sub_at(v, "batching_saving_fraction", 0.3),
    )?;
    inject(
        "adaptive target missed",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "adaptive/all_within_target", Value::Bool(false)),
    )?;
    inject(
        "affinity coalescing win lost",
        GateKind::Serve,
        serve_baseline,
        &|v| {
            if let Some(Value::Array(points)) = get_mut(v, "routing_sweep") {
                for p in points {
                    if matches!(p.field("mode"), Some(Value::Str(m)) if m == "affinity") {
                        if let Some(c) = field_mut(p, "mean_coalesced") {
                            *c = Value::F64(1.0);
                        }
                    }
                }
            }
        },
    )?;
    inject(
        "SLO shedding win lost",
        GateKind::Serve,
        serve_baseline,
        &|v| {
            let blind = get(v, "slo_sweep/blind/value_shed_loss")
                .and_then(value_f64)
                .unwrap_or(0.0);
            inject_at(
                v,
                "slo_sweep/aware/value_shed_loss",
                Value::F64(blind + 1.0),
            );
        },
    )?;
    inject(
        "SLO deadline-met regression",
        GateKind::Serve,
        serve_baseline,
        &|v| sub_at(v, "slo_sweep/aware/deadline_met_rate", 0.5),
    )?;
    inject(
        "SLO conservation broken",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "slo_sweep/aware/conserved", Value::Bool(false)),
    )?;
    inject(
        "label-cache dedup win lost",
        GateKind::Serve,
        serve_baseline,
        &|v| {
            if let Some(Value::Array(points)) = get_mut(v, "zipf_sweep") {
                if let Some(last) = points.last_mut() {
                    if let Some(s) = field_mut(last, "bill_saving_fraction") {
                        *s = Value::F64(0.0);
                    }
                }
            }
        },
    )?;
    inject(
        "exactly-once ticketing lost",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "exactly_once_ticketing", Value::Bool(false)),
    )?;
    inject(
        "wire labels diverged",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "net_sweep/points/0/labels_match", Value::Bool(false)),
    )?;
    inject(
        "wire exactly-once lost",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "net_sweep/exactly_once_ticketing", Value::Bool(false)),
    )?;
    inject(
        "wire conservation broken",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "net_sweep/points/1/conserved", Value::Bool(false)),
    )?;
    inject(
        "drift adaptation win lost",
        GateKind::Serve,
        serve_baseline,
        &|v| {
            let frozen = get(v, "drift_sweep/frozen/phase2_value")
                .and_then(value_f64)
                .unwrap_or(0.0);
            inject_at(v, "drift_sweep/adaptive/phase2_value", Value::F64(frozen));
        },
    )?;
    inject(
        "drift frozen-path identity broken",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "drift_sweep/frozen_matches_serial", Value::Bool(false)),
    )?;
    inject(
        "observability overhead blowout (10%)",
        GateKind::Serve,
        serve_baseline,
        &|v| inject_at(v, "obs_overhead_fraction", Value::F64(0.10)),
    )?;
    inject(
        "learn speedup collapse (x0.3)",
        GateKind::Hotpath,
        hotpath_baseline,
        &|v| scale_at(v, "learn_speedup", 0.3),
    )?;
    inject(
        "batched-Q divergence",
        GateKind::Hotpath,
        hotpath_baseline,
        &|v| inject_at(v, "q_equivalence_max_abs_diff", Value::F64(0.5)),
    )?;
    inject(
        "inference kernel off by one ULP",
        GateKind::Hotpath,
        hotpath_baseline,
        &|v| inject_at(v, "q_infer_max_abs_diff", Value::F64(1.2e-7)),
    )?;
    inject(
        "inference kernel slower than the training forward",
        GateKind::Hotpath,
        hotpath_baseline,
        &|v| scale_at(v, "q_infer_ns", 100.0),
    )?;

    Ok(exercised)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_record() -> Value {
        serde_json::parse_value(
            r#"{
                "stats_match_serial": true,
                "exactly_once_ticketing": true,
                "closed_loop_capacity_per_s": 1800.0,
                "batching_saving_fraction": 0.8,
                "obs_overhead_fraction": 0.004,
                "adaptive": { "all_within_target": true },
                "routing_sweep": [
                    { "mode": "hash", "load_factor": 0.8, "mean_coalesced": 2.5 },
                    { "mode": "affinity", "load_factor": 0.8, "mean_coalesced": 2.9 },
                    { "mode": "hash", "load_factor": 1.6, "mean_coalesced": 3.5 },
                    { "mode": "affinity", "load_factor": 1.6, "mean_coalesced": 3.6 }
                ],
                "slo_sweep": {
                    "blind": { "value_shed_loss": 8400.0, "deadline_met_rate": 0.75, "conserved": true },
                    "aware": { "value_shed_loss": 5800.0, "deadline_met_rate": 0.78, "conserved": true }
                },
                "zipf_sweep": [
                    { "repeat_rate": 0.0, "cache_hit": 0, "coalesced": 0,
                      "bill_on_ms": 48600, "bill_off_ms": 48900, "bill_saving_fraction": 0.006,
                      "conserved": true },
                    { "repeat_rate": 0.3, "cache_hit": 22, "coalesced": 6,
                      "bill_on_ms": 37100, "bill_off_ms": 52000, "bill_saving_fraction": 0.29,
                      "conserved": true },
                    { "repeat_rate": 0.6, "cache_hit": 46, "coalesced": 12,
                      "bill_on_ms": 22300, "bill_off_ms": 53500, "bill_saving_fraction": 0.58,
                      "conserved": true },
                    { "repeat_rate": 0.9, "cache_hit": 66, "coalesced": 14,
                      "bill_on_ms": 8800, "bill_off_ms": 51400, "bill_saving_fraction": 0.83,
                      "conserved": true }
                ],
                "drift_sweep": {
                    "phase1_profile": "Coco2017",
                    "phase2_profile": "Places365",
                    "frozen_matches_serial": true,
                    "phase2_value_gain": 1.18,
                    "frozen": { "phase2_value": 512.0, "swaps": 0,
                      "conserved": true, "events_reconciled": true },
                    "adaptive": { "phase2_value": 604.0, "swaps": 12,
                      "conserved": true, "events_reconciled": true }
                },
                "net_sweep": {
                    "window": 32,
                    "stats_match_serial": true,
                    "exactly_once_ticketing": true,
                    "reference_digest": "9f1c2b3a4d5e6f70",
                    "points": [
                        { "procs": 1, "offered": 96, "completed": 96,
                          "achieved_per_s": 4500.0, "labels_match": true,
                          "stats_match_serial": true, "exactly_once": true,
                          "conserved": true, "events_reconciled": true },
                        { "procs": 2, "offered": 96, "completed": 96,
                          "achieved_per_s": 2900.0, "labels_match": true,
                          "stats_match_serial": true, "exactly_once": true,
                          "conserved": true, "events_reconciled": true },
                        { "procs": 4, "offered": 96, "completed": 96,
                          "achieved_per_s": 1700.0, "labels_match": true,
                          "stats_match_serial": true, "exactly_once": true,
                          "conserved": true, "events_reconciled": true }
                    ]
                },
                "sweep": [
                    { "mode": "closed", "mean_recall": 0.72 },
                    { "mode": "open", "mean_recall": 0.70 }
                ]
            }"#,
        )
        .expect("fixture parses")
    }

    fn hotpath_record() -> Value {
        serde_json::parse_value(
            r#"{
                "learn_speedup": 4.0,
                "q_equivalence_max_abs_diff": 1e-7,
                "q_forward_ns": 220.0,
                "q_infer_ns": 90.0,
                "q_infer_max_abs_diff": 0.0
            }"#,
        )
        .expect("fixture parses")
    }

    #[test]
    fn identical_records_pass() {
        let s = serve_record();
        let h = hotpath_record();
        assert!(gate_serve(&s, &s).ok(), "{}", gate_serve(&s, &s).render());
        assert!(gate_hotpath(&h, &h).ok());
    }

    #[test]
    fn modest_noise_passes_but_collapse_fails() {
        let base = serve_record();
        let mut noisy = base.clone();
        inject_at(&mut noisy, "closed_loop_capacity_per_s", Value::F64(1500.0));
        assert!(gate_serve(&base, &noisy).ok(), "-17% is machine noise");
        inject_at(&mut noisy, "closed_loop_capacity_per_s", Value::F64(700.0));
        assert!(!gate_serve(&base, &noisy).ok(), "-61% is a collapse");
    }

    #[test]
    fn recall_is_gated_tightly() {
        let base = serve_record();
        let mut bad = base.clone();
        inject_at(&mut bad, "sweep/0/mean_recall", Value::F64(0.67));
        assert!(!gate_serve(&base, &bad).ok());
        inject_at(&mut bad, "sweep/0/mean_recall", Value::F64(0.71));
        assert!(gate_serve(&base, &bad).ok(), "1 point is within slack");
    }

    #[test]
    fn lost_routing_win_fails() {
        let base = serve_record();
        let mut bad = base.clone();
        inject_at(&mut bad, "routing_sweep/1/mean_coalesced", Value::F64(2.4));
        assert!(!gate_serve(&base, &bad).ok());
    }

    #[test]
    fn missing_fields_fail_loudly() {
        let base = serve_record();
        let empty = Value::Object(Vec::new());
        let out = gate_serve(&base, &empty);
        assert!(!out.ok());
        assert!(out.render().contains("FAIL"));
    }

    #[test]
    fn hotpath_equivalence_is_absolute() {
        let base = hotpath_record();
        let mut bad = base.clone();
        inject_at(&mut bad, "q_equivalence_max_abs_diff", Value::F64(0.1));
        assert!(!gate_hotpath(&base, &bad).ok());
    }

    #[test]
    fn self_test_exercises_every_injection() {
        let injected = self_test(&serve_record(), &hotpath_record()).expect("self test passes");
        assert_eq!(injected.len(), 20, "{injected:?}");
    }

    #[test]
    fn obs_overhead_is_gated_absolutely() {
        let base = serve_record();
        // Right at the ceiling passes; just over it fails, even though the
        // baseline itself carried a far smaller fraction (absolute check).
        let mut cand = base.clone();
        inject_at(&mut cand, "obs_overhead_fraction", Value::F64(0.02));
        assert!(
            gate_serve(&base, &cand).ok(),
            "{}",
            gate_serve(&base, &cand).render()
        );
        inject_at(&mut cand, "obs_overhead_fraction", Value::F64(0.021));
        assert!(!gate_serve(&base, &cand).ok());
        // A record that drops the field fails loudly.
        let mut cand = base.clone();
        if let Value::Object(fields) = &mut cand {
            fields.retain(|(k, _)| k != "obs_overhead_fraction");
        }
        assert!(!gate_serve(&base, &cand).ok());
    }

    #[test]
    fn zipf_cache_economics_are_gated() {
        let base = serve_record();
        // A flat (non-increasing) bill saving fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "zipf_sweep/2/bill_saving_fraction",
            Value::F64(0.29),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // Cache-on no longer undercutting cache-off at repeat >= 0.6 fails.
        let mut bad = base.clone();
        inject_at(&mut bad, "zipf_sweep/3/bill_on_ms", Value::U64(60_000));
        assert!(!gate_serve(&base, &bad).ok());
        // A unique stream with cache hits (broken no-op) fails.
        let mut bad = base.clone();
        inject_at(&mut bad, "zipf_sweep/0/cache_hit", Value::U64(3));
        assert!(!gate_serve(&base, &bad).ok());
        // A broken ledger at any point fails.
        let mut bad = base.clone();
        inject_at(&mut bad, "zipf_sweep/1/conserved", Value::Bool(false));
        assert!(!gate_serve(&base, &bad).ok());
    }

    #[test]
    fn wire_transparency_is_gated() {
        let base = serve_record();
        // Labels diverging from the in-process reference at any point
        // fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "net_sweep/points/2/labels_match",
            Value::Bool(false),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A dropped event stream through the transport fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "net_sweep/points/0/events_reconciled",
            Value::Bool(false),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // Serial-stats divergence through the socket fails.
        let mut bad = base.clone();
        inject_at(&mut bad, "net_sweep/stats_match_serial", Value::Bool(false));
        assert!(!gate_serve(&base, &bad).ok());
        // A record missing the sweep entirely fails loudly.
        let mut bad = base.clone();
        if let Value::Object(fields) = &mut bad {
            fields.retain(|(k, _)| k != "net_sweep");
        }
        assert!(!gate_serve(&base, &bad).ok());
    }

    #[test]
    fn drift_adaptation_is_gated() {
        let base = serve_record();
        // Adaptive merely tying frozen on post-shift value fails (the win
        // must be strict).
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "drift_sweep/adaptive/phase2_value",
            Value::F64(512.0),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A trainer that never published a generation fails.
        let mut bad = base.clone();
        inject_at(&mut bad, "drift_sweep/adaptive/swaps", Value::U64(0));
        assert!(!gate_serve(&base, &bad).ok());
        // The off-switch losing byte-identity fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "drift_sweep/frozen_matches_serial",
            Value::Bool(false),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A dropped event stream in either mode fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "drift_sweep/adaptive/events_reconciled",
            Value::Bool(false),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A record missing the sweep entirely fails loudly.
        let mut bad = base.clone();
        if let Value::Object(fields) = &mut bad {
            fields.retain(|(k, _)| k != "drift_sweep");
        }
        assert!(!gate_serve(&base, &bad).ok());
    }

    #[test]
    fn slo_win_and_conservation_are_gated() {
        let base = serve_record();
        let mut bad = base.clone();
        // Aware no longer beating blind on value loss fails.
        inject_at(
            &mut bad,
            "slo_sweep/aware/value_shed_loss",
            Value::F64(8400.0),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A worse deadline-met rate fails.
        let mut bad = base.clone();
        inject_at(
            &mut bad,
            "slo_sweep/aware/deadline_met_rate",
            Value::F64(0.70),
        );
        assert!(!gate_serve(&base, &bad).ok());
        // A broken ledger fails even with the wins intact.
        let mut bad = base.clone();
        inject_at(&mut bad, "slo_sweep/blind/conserved", Value::Bool(false));
        assert!(!gate_serve(&base, &bad).ok());
    }
}
