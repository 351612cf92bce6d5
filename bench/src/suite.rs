//! The whole set: every workload as a process of its own, untraced for the
//! end-to-end metrics and traced for the per-layer ones; `--repeat` runs
//! the set several times and derives the regression bounds from the spread,
//! taken as the driver takes it: the interquartile range over the median.

use crate::metrics::{Def, END_TO_END, MAX_BOUND, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::{workload, Options, RUN_SECONDS};
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// A pair whose range over the repeats exceeds this share of its median is
/// reported as unresolved: too noisy on this machine to carry a verdict.
const UNRESOLVED_ABOVE: f64 = 0.10;

/// One metric of one workload in one set.
struct Sample {
    workload: &'static str,
    metric: String,
    unit: String,
    value: f64,
}

/// Run one workload in a child process and return its result object.
fn child(name: &str, opts: &Options, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {}",
            u8::from(traced),
            out.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::parse_value(last).map_err(|e| format!("{name}: result line: {e}"))
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// Every workload once, untraced then traced, at `seed`.
fn one_set(opts: &Options, seed: u64) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for spec in workload::all() {
        for traced in [false, true] {
            let result = child(spec.name, opts, seed, traced)?;
            if result.field("correct") != Some(&Value::Bool(true)) {
                return Err(format!("{}: the oracle failed", spec.name));
            }
            let Some(Value::Object(metrics)) = result.field("metrics") else {
                return Err(format!("{}: result has no metrics", spec.name));
            };
            for (metric, entry) in metrics {
                let value = entry.field("value").and_then(number);
                let (Some(value), Some(Value::Str(unit))) = (value, entry.field("unit")) else {
                    return Err(format!("{}: malformed metric {metric}", spec.name));
                };
                samples.push(Sample {
                    workload: spec.name,
                    metric: metric.clone(),
                    unit: unit.clone(),
                    value,
                });
            }
        }
    }
    Ok(samples)
}

fn all_defs() -> impl Iterator<Item = &'static Def> {
    END_TO_END.iter().map(|(def, _)| def).chain(PER_LAYER)
}

/// Print one set: a row per metric, a column per workload.
fn print_set(samples: &[Sample]) {
    let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
    print!("\n{:<32} {:<10}", "metric", "unit");
    names.iter().for_each(|n| print!(" {n:>17}"));
    println!();
    for def in all_defs() {
        print!("{:<32} {:<10}", def.name, def.unit);
        for name in &names {
            let hit = samples
                .iter()
                .find(|s| s.workload == *name && s.metric == def.name);
            match hit {
                Some(s) => print!(" {:>17.4}", s.value),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
}

/// `BENCHMARK.json` as the contract wants it, with the given bound per
/// end-to-end metric (in table order).
pub fn manifest(bounds: &[f64]) -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let def_fields = |def: &Def| {
        vec![
            ("name".to_string(), text(def.name)),
            ("unit".to_string(), text(def.unit)),
            ("better".to_string(), text(def.better.name())),
        ]
    };
    Value::Object(vec![
        ("command".into(), strings(&["bash", "bench/run.sh"])),
        ("paths".into(), strings(&["bench"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                workload::all()
                    .iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("name".into(), text(s.name)),
                            ("why".into(), text(s.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .zip(bounds)
                    .map(|((def, _), bound)| {
                        let mut fields = def_fields(def);
                        fields.push(("bound".into(), Value::F64(*bound)));
                        Value::Object(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|d| Value::Object(def_fields(d)))
                    .collect(),
            ),
        ),
    ])
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&crate::Json(value)).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The spread table of `sets`, the bounds it asks for, and the unresolved
/// pairs. Writes the bounds into `BENCHMARK.json` and the rest into
/// `out/repeat.json`.
fn report_repeats(sets: &[Vec<Sample>], first_seed: u64) -> Result<(), String> {
    println!(
        "\n{:<32} {:<17} {:>14} {:>14} {:>9} {:>9}",
        "metric", "workload", "median", "range", "range/med", "iqr/med"
    );
    let mut worst = vec![0.0f64; END_TO_END.len()];
    let mut unresolved = Vec::new();
    for (i, def) in all_defs().enumerate() {
        for spec in workload::all() {
            let values: Vec<f64> = sets
                .iter()
                .flatten()
                .filter(|s| s.workload == spec.name && s.metric == def.name)
                .map(|s| s.value)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let share = |spread: f64| if mid == 0.0 { 0.0 } else { spread / mid.abs() };
            let (q1, q3) = quartiles(&values);
            let (range, iqr) = (share(hi - lo), share(q3 - q1));
            println!(
                "{:<32} {:<17} {:>14.4} {:>14.4} {:>9.4} {:>9.4}",
                def.name,
                spec.name,
                mid,
                hi - lo,
                range,
                iqr
            );
            if let Some(w) = worst.get_mut(i) {
                *w = w.max(iqr);
                if range > UNRESOLVED_ABOVE {
                    unresolved.push(Value::Object(vec![
                        ("metric".into(), Value::Str(def.name.into())),
                        ("workload".into(), Value::Str(spec.name.into())),
                        ("range_over_median".into(), Value::F64(range)),
                        (
                            "reason".into(),
                            Value::Str(format!(
                                "range over {} sets exceeds {UNRESOLVED_ABOVE} of the median",
                                sets.len()
                            )),
                        ),
                    ]));
                }
            }
        }
    }
    let bounds: Vec<f64> = END_TO_END
        .iter()
        .zip(&worst)
        .map(|((_, floor), iqr)| {
            // Two digits are plenty for a bound, and keep the file stable.
            ((3.0 * iqr).max(*floor).min(MAX_BOUND) * 100.0).ceil() / 100.0
        })
        .collect();
    println!("\nbounds = max(floor, 3 x widest iqr/median), capped at {MAX_BOUND}:");
    for ((def, floor), bound) in END_TO_END.iter().zip(&bounds) {
        println!("  {:<20} floor {floor:<5} bound {bound}", def.name);
    }
    println!(
        "unresolved pairs (reported, not gated): {}",
        unresolved.len()
    );
    let dir = crate::bench_dir();
    let manifest_path = dir.join("..").join("BENCHMARK.json");
    write_json(&manifest_path, &manifest(&bounds))?;
    write_json(
        &dir.join("out").join("repeat.json"),
        &Value::Object(vec![
            ("sets".into(), Value::U64(sets.len() as u64)),
            ("first_seed".into(), Value::U64(first_seed)),
            (
                "bounds".into(),
                Value::Array(bounds.iter().map(|b| Value::F64(*b)).collect()),
            ),
            ("unresolved".into(), Value::Array(unresolved)),
        ]),
    )
}

fn results_json(samples: &[Sample]) -> Value {
    Value::Array(
        samples
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("workload".into(), Value::Str(s.workload.into())),
                    ("metric".into(), Value::Str(s.metric.clone())),
                    ("value".into(), Value::F64(s.value)),
                    ("unit".into(), Value::Str(s.unit.clone())),
                ])
            })
            .collect(),
    )
}

/// Run the set once, or `--repeat` times with consecutive seeds. Returns
/// whether every run passed the oracle (a failing one is an error).
pub fn run(opts: &Options) -> Result<bool, String> {
    let sets = (0..opts.repeat.unwrap_or(1) as u64)
        .map(|i| {
            let seed = opts.seed + i;
            let samples = one_set(opts, seed)?;
            print_set(&samples);
            let path = crate::bench_dir()
                .join("out")
                .join(format!("results.seed{seed}.json"));
            write_json(&path, &results_json(&samples))?;
            Ok(samples)
        })
        .collect::<Result<Vec<_>, String>>()?;
    if opts.repeat.is_some() {
        report_repeats(&sets, opts.seed)?;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the tables' workloads and
    /// metrics, with bounds between each floor and the contract's cap.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is committed");
        let on_disk = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let bounds: Vec<f64> = match on_disk.field("end_to_end") {
            Some(Value::Array(metrics)) => metrics
                .iter()
                .map(|m| m.field("bound").and_then(number).expect("bound"))
                .collect(),
            _ => panic!("end_to_end is a list"),
        };
        assert_eq!(on_disk, manifest(&bounds), "regenerate it with --repeat");
        for ((def, floor), bound) in END_TO_END.iter().zip(&bounds) {
            assert!(
                bound >= floor && *bound <= MAX_BOUND,
                "{}: {bound}",
                def.name
            );
        }
    }
}
