//! The bench regression gate: one table of [`Check`] rows, one evaluator.
//!
//! Perf claims in this repo are *enforced*, not just recorded. Every
//! guarantee a bench record carries is one row — a [`Rule`] over paths
//! into the record plus the [`Break`] that proves the rule can fail — and
//! the rows live beside the code that measures them
//! ([`crate::serve`]'s sweep modules, [`crate::hotpath`]). `bench_serve`
//! evaluates the table on its fresh record, `bench_gate` on a record
//! file against the committed baseline, and [`self_test`] applies every
//! row's own break; all three go through [`run_gate`].
//!
//! Tolerances are deliberately asymmetric — deterministic quantities
//! (recall, flags, strict wins) are gated tightly, wall-clock throughput
//! loosely (machines differ; the gate exists to catch *catastrophic*
//! slowdowns like an accidentally serialized worker pool, not 10%
//! scheduler noise). Each tolerance sits on its row with its reason.

use crate::serve::{capacity, drift, held, routing, slo, zipf};
use serde::Value;
use std::fmt::Write as _;

/// What a row requires of the candidate record. Paths are `/`-separated
/// object fields and array indices; a segment `key=value[,key=value]`
/// selects the first array element whose fields match
/// (`routing_sweep/mode=hash,load_factor=0.8/mean_coalesced`). A path
/// that does not resolve to the expected type fails the row, by name.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// The flag is `true`.
    True(&'static str),
    /// `candidate >= factor * baseline` (scale-free throughputs).
    RatioFloor(&'static str, f64),
    /// `candidate >= baseline - slack` (fractions).
    Slack(&'static str, f64),
    /// `lo <= candidate <= hi`, independent of the baseline.
    Within(&'static str, f64, f64),
    /// `candidate[a] < candidate[b]`.
    Less(&'static str, &'static str),
    /// `candidate[a] >= candidate[b]`.
    AtLeast(&'static str, &'static str),
    /// The parts sum to the total, exactly.
    SumIs(&'static [&'static str], &'static str),
    /// `field` strictly increases along the array's elements.
    Increasing(&'static str, &'static str),
    /// The flag `field` is `true` at every element of the array.
    EachTrue(&'static str, &'static str),
    /// `candidate == baseline`, of any type (digests, virtual-time
    /// ratios that repeat exactly run to run).
    Same(&'static str),
}

/// The synthetic regression that must trip a row ([`self_test`]).
#[derive(Debug, Clone, Copy)]
pub enum Break {
    /// Clear the flag.
    Flip(&'static str),
    /// Overwrite the number.
    Set(&'static str, f64),
    /// Multiply the number.
    Scale(&'static str, f64),
    /// Overwrite `to` with the number at `from` (a tie breaks a strict win).
    Copy {
        /// Path read.
        from: &'static str,
        /// Path overwritten.
        to: &'static str,
    },
}

/// One gated guarantee.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// What the row guarantees; unique within its table.
    pub name: &'static str,
    /// The requirement.
    pub rule: Rule,
    /// The injection that violates it.
    pub breaks: Break,
}

/// Which record schema a comparison uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// `BENCH_serve.json` — serving sweeps.
    Serve,
    /// `BENCH_hotpath.json` — learn-step and Q-kernel timings.
    Hotpath,
}

impl GateKind {
    /// The rows of this record's table.
    pub fn checks(self) -> impl Iterator<Item = &'static Check> {
        let tables: &[&[Check]] = match self {
            GateKind::Serve => &[
                capacity::CHECKS,
                routing::CHECKS,
                slo::CHECKS,
                zipf::CHECKS,
                drift::CHECKS,
                held::CHECKS,
            ],
            GateKind::Hotpath => &[crate::hotpath::CHECKS],
        };
        tables.iter().flat_map(|t| t.iter())
    }
}

/// One evaluated line of a gate run.
#[derive(Debug)]
pub struct Line {
    /// The row it belongs to.
    pub row: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict, or the path that was missing.
    pub detail: String,
}

/// Outcome of one gate run: every row's lines, pass or fail.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// In table order.
    pub lines: Vec<Line>,
}

impl GateOutcome {
    /// Whether every row held.
    pub fn ok(&self) -> bool {
        self.lines.iter().all(|l| l.ok)
    }

    /// Whether the named row is among the failures.
    pub fn fails(&self, row: &str) -> bool {
        self.lines.iter().any(|l| !l.ok && l.row == row)
    }

    /// Render the outcome as one report string, failures last.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (ok, tag) in [(true, "ok  "), (false, "FAIL")] {
            for l in self.lines.iter().filter(|l| l.ok == ok) {
                let _ = writeln!(s, "  {tag} {}: {}", l.row, l.detail);
            }
        }
        s
    }
}

/// Numeric view of a [`Value`].
fn value_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

/// One resolved path segment.
enum Key<'p> {
    Index(usize),
    Field(&'p str),
}

/// Resolve a segment against the value it steps into: an index, a
/// `key=value` selector (the matching element's index), or a field name.
fn resolve<'p>(cur: &Value, part: &'p str) -> Option<Key<'p>> {
    if let Ok(i) = part.parse() {
        return Some(Key::Index(i));
    }
    if !part.contains('=') {
        return Some(Key::Field(part));
    }
    let Value::Array(items) = cur else {
        return None;
    };
    let matches = |item: &Value| {
        part.split(',').all(|cond| {
            let (key, want) = cond.split_once('=').unwrap_or((cond, ""));
            match item.field(key) {
                Some(Value::Str(s)) => s == want,
                Some(v) => value_f64(v).is_some_and(|n| want.parse() == Ok(n)),
                None => false,
            }
        })
    };
    items.iter().position(matches).map(Key::Index)
}

fn get<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('/')
        .try_fold(v, |cur, part| match (resolve(cur, part)?, cur) {
            (Key::Index(i), Value::Array(items)) => items.get(i),
            (Key::Field(name), _) => cur.field(name),
            _ => None,
        })
}

fn get_mut<'v>(v: &'v mut Value, path: &str) -> Option<&'v mut Value> {
    path.split('/')
        .try_fold(v, |cur, part| match (resolve(cur, part)?, cur) {
            (Key::Index(i), Value::Array(items)) => items.get_mut(i),
            (Key::Field(name), Value::Object(fields)) => {
                fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
            }
            _ => None,
        })
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    get(v, path)
        .and_then(value_f64)
        .ok_or_else(|| format!("missing numeric field `{path}`"))
}

fn flag(v: &Value, path: &str) -> Result<bool, String> {
    match get(v, path) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field `{path}`")),
    }
}

/// The non-empty array at `path`.
fn points<'v>(v: &'v Value, path: &str) -> Result<&'v [Value], String> {
    match get(v, path) {
        Some(Value::Array(items)) if !items.is_empty() => Ok(items),
        _ => Err(format!("missing or empty array `{path}`")),
    }
}

impl Rule {
    /// Evaluate against the two records: `(held, numbers)` per line, or
    /// the path that did not resolve.
    fn eval(&self, base: &Value, cand: &Value) -> Result<Vec<(bool, String)>, String> {
        let one = |ok: bool, detail: String| Ok(vec![(ok, detail)]);
        match *self {
            Rule::True(p) => {
                let b = flag(cand, p)?;
                one(b, format!("{p} is {b}"))
            }
            Rule::RatioFloor(p, factor) => {
                let (b, c) = (num(base, p)?, num(cand, p)?);
                let floor = b * factor;
                one(
                    c >= floor,
                    format!("{p} {c:.3} vs baseline {b:.3} (floor {floor:.3})"),
                )
            }
            Rule::Slack(p, slack) => {
                let (b, c) = (num(base, p)?, num(cand, p)?);
                one(
                    c >= b - slack,
                    format!("{p} {c:.4} vs baseline {b:.4} (slack {slack})"),
                )
            }
            Rule::Within(p, lo, hi) => {
                let c = num(cand, p)?;
                one((lo..=hi).contains(&c), format!("{p} {c} in [{lo}, {hi}]"))
            }
            Rule::Less(a, b) => {
                let (x, y) = (num(cand, a)?, num(cand, b)?);
                one(x < y, format!("{a} {x:.4} < {b} {y:.4}"))
            }
            Rule::AtLeast(a, b) => {
                let (x, y) = (num(cand, a)?, num(cand, b)?);
                one(x >= y, format!("{a} {x:.4} >= {b} {y:.4}"))
            }
            Rule::SumIs(parts, total) => {
                let sum = parts.iter().map(|p| num(cand, p)).sum::<Result<f64, _>>()?;
                let t = num(cand, total)?;
                one(
                    sum == t,
                    format!("{} = {sum} vs {total} {t}", parts.join(" + ")),
                )
            }
            Rule::Increasing(array, field) => {
                let series = (0..points(cand, array)?.len())
                    .map(|i| num(cand, &format!("{array}/{i}/{field}")))
                    .collect::<Result<Vec<f64>, _>>()?;
                one(
                    series.windows(2).all(|w| w[0] < w[1]),
                    format!("{array}/*/{field} strictly increasing: {series:.4?}"),
                )
            }
            Rule::EachTrue(array, field) => (0..points(cand, array)?.len())
                .map(|i| {
                    let p = format!("{array}/{i}/{field}");
                    flag(cand, &p).map(|b| (b, format!("{p} is {b}")))
                })
                .collect(),
            Rule::Same(p) => {
                let missing = || format!("missing field `{p}`");
                let (b, c) = (
                    get(base, p).ok_or_else(missing)?,
                    get(cand, p).ok_or_else(missing)?,
                );
                one(b == c, format!("{p} {c:?} vs baseline {b:?}"))
            }
        }
    }
}

impl Break {
    /// Apply the injection; a record without the path cannot be broken
    /// there, which is itself an error naming the path.
    fn apply(&self, v: &mut Value) -> Result<(), String> {
        let (path, new) = match *self {
            Break::Flip(p) => (p, Value::Bool(false)),
            Break::Set(p, x) => (p, Value::F64(x)),
            Break::Scale(p, factor) => (p, Value::F64(num(v, p)? * factor)),
            Break::Copy { from, to } => (to, Value::F64(num(v, from)?)),
        };
        *get_mut(v, path).ok_or_else(|| format!("missing field `{path}`"))? = new;
        Ok(())
    }
}

/// Evaluate `kind`'s whole table over two parsed records.
pub fn run_gate(kind: GateKind, baseline: &Value, candidate: &Value) -> GateOutcome {
    let mut out = GateOutcome::default();
    for check in kind.checks() {
        let lines = check
            .rule
            .eval(baseline, candidate)
            .unwrap_or_else(|missing| vec![(false, missing)]);
        out.lines.extend(lines.into_iter().map(|(ok, detail)| Line {
            row: check.name,
            ok,
            detail,
        }));
    }
    out
}

/// Fewest rows a [`self_test`] must exercise: a table that shrank below
/// this lost guarantees, whatever its remaining rows say.
pub const MIN_ROWS: usize = 20;

/// Prove the gate *can* fail: each baseline must pass against itself,
/// and every row's own [`Break`], injected into a copy, must put *that
/// row* among the failures. Returns the rows exercised.
pub fn self_test(
    serve_baseline: &Value,
    hotpath_baseline: &Value,
) -> Result<Vec<&'static str>, String> {
    let mut caught = Vec::new();
    for (kind, baseline) in [
        (GateKind::Serve, serve_baseline),
        (GateKind::Hotpath, hotpath_baseline),
    ] {
        let clean = run_gate(kind, baseline, baseline);
        if !clean.ok() {
            return Err(format!(
                "{kind:?} baseline must pass against itself:\n{}",
                clean.render()
            ));
        }
        for check in kind.checks() {
            let mut bad = baseline.clone();
            check
                .breaks
                .apply(&mut bad)
                .map_err(|e| format!("row `{}`: cannot inject: {e}", check.name))?;
            if !run_gate(kind, baseline, &bad).fails(check.name) {
                return Err(format!(
                    "row `{}` did NOT catch its own injected regression",
                    check.name
                ));
            }
            caught.push(check.name);
        }
    }
    if caught.len() < MIN_ROWS {
        return Err(format!(
            "only {} rows exercised, expected at least {MIN_ROWS}",
            caught.len()
        ));
    }
    Ok(caught)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_record() -> Value {
        serde_json::parse_value(
            r#"{
                "stats_match_serial": true,
                "exactly_once_ticketing": true,
                "labels_digest": "9f1c2b3a4d5e6f70",
                "closed_loop_capacity_per_s": 1800.0,
                "mean_recall": 0.72,
                "batching_saving_fraction": 0.8,
                "obs_overhead_fraction": 0.004,
                "routing_sweep": [
                    { "mode": "hash", "load_factor": 0.8,
                      "mean_coalesced": 2.5, "bill_saving_fraction": 0.40 },
                    { "mode": "affinity", "load_factor": 0.8,
                      "mean_coalesced": 2.9, "bill_saving_fraction": 0.45 },
                    { "mode": "hash", "load_factor": 1.6,
                      "mean_coalesced": 3.5, "bill_saving_fraction": 0.52 },
                    { "mode": "affinity", "load_factor": 1.6,
                      "mean_coalesced": 3.6, "bill_saving_fraction": 0.54 }
                ],
                "slo_sweep": {
                    "blind": { "value_shed_loss": 8400.0, "deadline_met_rate": 0.75, "conserved": true },
                    "aware": { "value_shed_loss": 5800.0, "deadline_met_rate": 0.78, "conserved": true }
                },
                "zipf_sweep": [
                    { "repeat_rate": 0.0, "cache_hit": 0, "coalesced": 0,
                      "bill_on_ms": 48600, "bill_off_ms": 48900, "bill_saving_fraction": 0.006,
                      "capacity_on_per_s": 1850.0, "conserved": true },
                    { "repeat_rate": 0.3, "cache_hit": 22, "coalesced": 6,
                      "bill_on_ms": 37100, "bill_off_ms": 52000, "bill_saving_fraction": 0.29,
                      "capacity_on_per_s": 2800.0, "conserved": true },
                    { "repeat_rate": 0.6, "cache_hit": 46, "coalesced": 12,
                      "bill_on_ms": 22300, "bill_off_ms": 53500, "bill_saving_fraction": 0.58,
                      "capacity_on_per_s": 3400.0, "conserved": true },
                    { "repeat_rate": 0.9, "cache_hit": 66, "coalesced": 14,
                      "bill_on_ms": 8800, "bill_off_ms": 51400, "bill_saving_fraction": 0.83,
                      "capacity_on_per_s": 5200.0, "conserved": true }
                ],
                "drift_sweep": {
                    "phase1_submissions": 96,
                    "phase2_submissions": 128,
                    "frozen_matches_serial": true,
                    "frozen": { "phase2_value": 512.0, "swaps": 0,
                      "experiences": 0, "experiences_dropped": 0,
                      "conserved": true, "events_reconciled": true },
                    "adaptive": { "phase2_value": 604.0, "swaps": 12,
                      "experiences": 224, "experiences_dropped": 0,
                      "conserved": true, "events_reconciled": true }
                },
                "held_burst_admissions": 1
            }"#,
        )
        .expect("fixture parses")
    }

    fn hotpath_record() -> Value {
        serde_json::parse_value(
            r#"{
                "learn_speedup": 4.0,
                "train_step_speedup": 8.0,
                "q_equivalence_max_abs_diff": 1e-7,
                "q_infer_ns": 90.0,
                "q_infer_max_abs_diff": 0.0,
                "pack_gain": 1.15,
                "stream_gain": 1.05,
                "merge_gain": 1.1,
                "q_evals_per_item_alg1": 4.5,
                "q_evals_per_item_alg2": 6.5,
                "truth_heap_bytes": 390408
            }"#,
        )
        .expect("fixture parses")
    }

    fn gate_serve(baseline: &Value, candidate: &Value) -> GateOutcome {
        run_gate(GateKind::Serve, baseline, candidate)
    }

    fn set(v: &mut Value, path: &str, new: Value) {
        *get_mut(v, path).unwrap_or_else(|| panic!("fixture lacks `{path}`")) = new;
    }

    /// Delete the value at `path` from its parent object or array.
    fn remove(v: &mut Value, path: &str) {
        let (parent, last) = match path.rsplit_once('/') {
            Some((parent, last)) => (get_mut(v, parent).expect("parent resolves"), last),
            None => (v, path),
        };
        match (resolve(parent, last).expect("path resolves"), parent) {
            (Key::Index(i), Value::Array(items)) => drop(items.remove(i)),
            (Key::Field(name), Value::Object(fields)) => fields.retain(|(k, _)| k != name),
            _ => panic!("`{path}` has no removable parent"),
        }
    }

    /// Every candidate path a rule reads.
    fn paths(rule: &Rule) -> Vec<String> {
        match *rule {
            Rule::True(p)
            | Rule::RatioFloor(p, _)
            | Rule::Slack(p, _)
            | Rule::Within(p, _, _)
            | Rule::Same(p) => vec![p.into()],
            Rule::Less(a, b) | Rule::AtLeast(a, b) => vec![a.into(), b.into()],
            Rule::SumIs(parts, total) => {
                parts.iter().chain([&total]).map(|p| (*p).into()).collect()
            }
            Rule::Increasing(array, field) | Rule::EachTrue(array, field) => {
                vec![array.into(), format!("{array}/2/{field}")]
            }
        }
    }

    #[test]
    fn identical_records_pass() {
        let s = serve_record();
        let h = hotpath_record();
        assert!(gate_serve(&s, &s).ok(), "{}", gate_serve(&s, &s).render());
        assert!(run_gate(GateKind::Hotpath, &h, &h).ok());
    }

    /// Every row's own break trips that row (not merely some row), on
    /// both tables, with unique row names.
    #[test]
    fn self_test_exercises_every_injection() {
        let rows = self_test(&serve_record(), &hotpath_record()).expect("self test passes");
        let all = GateKind::Serve.checks().chain(GateKind::Hotpath.checks());
        assert_eq!(rows.len(), all.count(), "{rows:?}");
        assert!(rows.len() >= MIN_ROWS);
        let mut unique = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), rows.len(), "row names must be unique");
    }

    /// Deleting any path any row reads fails that row, naming the path —
    /// no check is silently skipped for a record that lacks its inputs.
    #[test]
    fn missing_fields_fail_loudly() {
        for (kind, base) in [
            (GateKind::Serve, serve_record()),
            (GateKind::Hotpath, hotpath_record()),
        ] {
            for check in kind.checks() {
                for path in paths(&check.rule) {
                    let mut cand = base.clone();
                    remove(&mut cand, &path);
                    let out = run_gate(kind, &base, &cand);
                    let named = out.lines.iter().any(|l| {
                        !l.ok && l.row == check.name && l.detail.contains(&format!("`{path}`"))
                    });
                    assert!(
                        named,
                        "`{}` without `{path}`:\n{}",
                        check.name,
                        out.render()
                    );
                }
            }
            let out = run_gate(kind, &base, &Value::Object(Vec::new()));
            assert!(kind.checks().all(|c| out.fails(c.name)), "{}", out.render());
        }
        // A point that lost the field its row selects it by is a failure,
        // not a skipped check.
        for (path, row) in [
            (
                "zipf_sweep/2/repeat_rate",
                "cache-on undercuts cache-off's bill at repeat 0.6",
            ),
            (
                "zipf_sweep/0/repeat_rate",
                "a unique stream hits nothing in the cache",
            ),
            ("routing_sweep/1/mode", "affinity out-saves hash at 0.8x"),
            (
                "routing_sweep/2/load_factor",
                "affinity out-coalesces hash at 1.6x",
            ),
        ] {
            let base = serve_record();
            let mut cand = base.clone();
            remove(&mut cand, path);
            assert!(gate_serve(&base, &cand).fails(row), "{path}");
            set(&mut cand, path.rsplit_once('/').unwrap().0, Value::Null);
            assert!(
                gate_serve(&base, &cand).fails(row),
                "{path} on a null point"
            );
        }
    }

    /// The serve gate's outcome for the fixture with `path` overwritten.
    fn serve_with(path: &str, new: impl Into<f64>) -> GateOutcome {
        let base = serve_record();
        let mut cand = base.clone();
        set(&mut cand, path, Value::F64(new.into()));
        gate_serve(&base, &cand)
    }

    #[test]
    fn modest_noise_passes_but_collapse_fails() {
        let capacity = "closed_loop_capacity_per_s";
        assert!(serve_with(capacity, 1500).ok(), "-17% is machine noise");
        assert!(!serve_with(capacity, 700).ok(), "-61% is a collapse");
    }

    #[test]
    fn recall_is_gated_tightly() {
        assert!(!serve_with("mean_recall", 0.67).ok());
        assert!(
            serve_with("mean_recall", 0.71).ok(),
            "1 point is within slack"
        );
    }

    #[test]
    fn lost_routing_win_fails() {
        // A narrow loss at one load factor fails its row and only it.
        let out = serve_with("routing_sweep/1/mean_coalesced", 2.4);
        assert!(out.fails("affinity out-coalesces hash at 0.8x"));
        assert_eq!(out.lines.iter().filter(|l| !l.ok).count(), 1);
        // Out-coalescing without out-saving fails too.
        let out = serve_with("routing_sweep/3/bill_saving_fraction", 0.52);
        assert!(out.fails("affinity out-saves hash at 1.6x"));
    }

    #[test]
    fn hotpath_equivalence_is_absolute() {
        let base = hotpath_record();
        let mut bad = base.clone();
        set(&mut bad, "q_equivalence_max_abs_diff", Value::F64(0.1));
        assert!(!run_gate(GateKind::Hotpath, &base, &bad).ok());
    }

    #[test]
    fn obs_overhead_is_gated_absolutely() {
        // Right at the ceiling passes; just over it fails, even though the
        // baseline itself carried a far smaller fraction (absolute check).
        let at_ceiling = serve_with("obs_overhead_fraction", 0.02);
        assert!(at_ceiling.ok(), "{}", at_ceiling.render());
        assert!(!serve_with("obs_overhead_fraction", 0.021).ok());
    }

    #[test]
    fn zipf_cache_economics_are_gated() {
        // A flat (non-increasing) bill saving at an interior point fails,
        // and so does effective capacity sagging between two repeat rates.
        assert!(!serve_with("zipf_sweep/2/bill_saving_fraction", 0.29).ok());
        assert!(!serve_with("zipf_sweep/2/capacity_on_per_s", 2800).ok());
        // Cache-on merely tying cache-off at repeat >= 0.6 fails.
        assert!(!serve_with("zipf_sweep/3/bill_on_ms", 51_400).ok());
    }

    #[test]
    fn drift_adaptation_is_gated() {
        // One outcome short of the whole stream fails, as does a single
        // dropped experience.
        assert!(!serve_with("drift_sweep/adaptive/experiences", 223).ok());
        assert!(!serve_with("drift_sweep/adaptive/experiences_dropped", 1).ok());
        // A thinner win is still a win; one swap is enough.
        assert!(serve_with("drift_sweep/adaptive/phase2_value", 512.5).ok());
        assert!(serve_with("drift_sweep/adaptive/swaps", 1).ok());
    }

    #[test]
    fn slo_win_and_conservation_are_gated() {
        // A worse deadline-met rate fails; an equal one does not.
        assert!(!serve_with("slo_sweep/aware/deadline_met_rate", 0.70).ok());
        assert!(serve_with("slo_sweep/aware/deadline_met_rate", 0.75).ok());
        // A thinner value win is still a win; a tie is not.
        assert!(serve_with("slo_sweep/aware/value_shed_loss", 8399).ok());
        assert!(!serve_with("slo_sweep/aware/value_shed_loss", 8400).ok());
    }
}
