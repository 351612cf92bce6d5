//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a test holds the two
//! together.

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics, each reported on every workload from the untraced
/// run, with the floor of its regression bound: the share of the parent's
/// median it may worsen by. `--repeat` raises a bound above its floor when
/// the measured spread asks for it.
pub const END_TO_END: &[(Def, f64)] = &[
    (hi("goodput_per_s", "1/s"), 0.08),
    (lo("lat_p50_us", "us"), 0.10),
    (lo("lat_p95_us", "us"), 0.15),
    (hi("inlimit_fraction", "ratio"), 0.02),
    (hi("value_per_item", "value/item"), 0.05),
    (lo("gpu_ms_per_item", "ms/item"), 0.08),
    (lo("setup_s", "s"), 0.25),
    (lo("rss_peak_mb", "MB"), 0.10),
];

/// The contract's ceiling on any bound.
pub const MAX_BOUND: f64 = 0.25;

/// Per-layer metrics, from the traced run. `*_ns` are isolated probes; the
/// rest are counts and times read at the layer boundaries.
pub const PER_LAYER: &[Def] = &[
    lo("net.encode_request_ns", "ns"),
    lo("net.decode_request_ns", "ns"),
    lo("net.encode_completion_ns", "ns"),
    lo("net.decode_completion_ns", "ns"),
    lo("net.request_bytes", "bytes"),
    lo("net.completion_bytes", "bytes"),
    lo("net.client_submit_us", "us"),
    lo("net.wire_residual_us", "us"),
    lo("router.fingerprint_ns", "ns"),
    lo("router.fingerprint_content_ns", "ns"),
    lo("framework.content_hash_ns", "ns"),
    lo("framework.label_item_ns", "ns"),
    hi("router.affinity_hit_rate", "ratio"),
    lo("router.spills", "count"),
    hi("cache.hit_rate", "ratio"),
    hi("cache.hits", "count"),
    hi("cache.coalesced", "count"),
    lo("cache.insertions", "count"),
    lo("cache.evictions", "count"),
    lo("cache.hit_roundtrip_ns", "ns"),
    lo("queue.push_pop_ns", "ns"),
    lo("queue.push_pop_slo_ns", "ns"),
    lo("queue.wait_p50_us", "us"),
    lo("queue.wait_p99_us", "us"),
    lo("queue.shed_admission", "count"),
    lo("queue.shed_oldest", "count"),
    lo("queue.shed_deadline", "count"),
    lo("queue.rejected", "count"),
    lo("server.execute_p50_us", "us"),
    lo("server.execute_p99_us", "us"),
    lo("server.batches", "count"),
    hi("server.mean_batch_size", "count"),
    hi("server.mean_coalesced", "count"),
    hi("server.bill_saving_fraction", "ratio"),
    lo("server.late_fraction", "ratio"),
    lo("predictor.predict_ns", "ns"),
    lo("predictor.evals_per_item", "count"),
    lo("nn.forward_ns", "ns"),
    lo("nn.forward_batch_row_ns", "ns"),
    lo("scheduler.alg1_ns", "ns"),
    lo("scheduler.alg2_ns", "ns"),
    hi("scheduler.models_per_item", "count"),
    lo("sim.admit_batch_ns", "ns"),
    lo("sim.virtual_work_ms", "ms"),
    lo("sim.virtual_makespan_ms", "ms"),
    lo("rl.learn_step_ns", "ns"),
    lo("rl.online_learn_step_ns", "ns"),
    lo("rl.export_snapshot_ns", "ns"),
    hi("adapt.learn_steps", "count"),
    hi("adapt.swaps", "count"),
    hi("adapt.experiences", "count"),
    lo("adapt.experiences_dropped", "count"),
    hi("adapt.value_gain", "ratio"),
    lo("obs.events_per_item", "count"),
    lo("obs.events_dropped", "count"),
    lo("obs.render_metrics_us", "us"),
    lo("proc.cpu_ms_per_item", "ms"),
    lo("proc.ctx_switches_per_item", "count"),
    lo("client.lat_p99_us", "us"),
    lo("gen.late_p99_us", "us"),
    lo("gen.late_max_us", "us"),
    lo("trace.overhead_fraction", "ratio"),
    hi("budget.accounted_fraction", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The contract's `metrics` object over `defs`, in table order. Every
    /// listed metric must have been set.
    pub fn to_json<'a>(&self, defs: impl Iterator<Item = &'a Def>) -> Value {
        Value::Object(
            defs.map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
                let fields = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ];
                (def.name.to_string(), Value::Object(fields))
            })
            .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let defs: Vec<&Def> = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER).collect();
        for def in &defs {
            assert!(well_formed(def.name, 64, "_.-"), "name {}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(def.unit, 16, "_/%.-"), "unit of {}", def.name);
        }
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "a metric name is used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, floor)| *floor <= MAX_BOUND));
        let setup = END_TO_END.iter().find(|(d, _)| d.name == "setup_s");
        let (setup, floor) = setup.expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|(_, f)| f <= floor),
            "setup_s has the largest bound"
        );
    }
}
