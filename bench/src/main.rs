//! Wire-to-completion benchmark of the AMS serving stack.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints its metrics, the last line being
//! the result object `BENCHMARK.json`'s contract asks for. Without
//! `--workload`, every workload runs as a process of its own, untraced and
//! then traced (`suite.rs`). See `README.md`.

mod check;
mod harness;
mod layers;
mod measure;
mod metrics;
mod probe;
mod proc;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options; unset ones take the documented defaults.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the untraced timed window, s.
    pub seconds: f64,
    pub traced: bool,
    /// One tenth of every size; for tests.
    pub quick: bool,
    /// Run the whole set this many times, each with the next seed.
    pub repeat: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: None,
            seed: 7,
            seconds: RUN_SECONDS as f64,
            traced: false,
            quick: false,
            repeat: None,
        }
    }
}

/// A value tree as something `serde_json` writes: the vendored `serde`
/// implements `Serialize` for typed data only.
pub struct Json<'a>(pub &'a serde::Value);

impl serde::Serialize for Json<'_> {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

const USAGE: &str = "usage: bench/run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--repeat N] [--quick]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad("a whole number"))?;
                if n == 0 {
                    return Err(bad("at least 1"));
                }
                opts.repeat = Some(n);
            }
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The benchmark's own directory: where `out/` lives and whose parent
/// holds `BENCHMARK.json`. `run.sh` names it; under `cargo test` it is the
/// package directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("AMS_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|opts| match &opts.workload {
        Some(name) => run::one(name, &opts).map(|result| {
            result.print();
            result.correct
        }),
        None => suite::run(&opts),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: the correctness oracle failed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
