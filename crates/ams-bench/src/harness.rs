//! Shared harness: worlds (zoo + dataset + ground truth), agent training
//! with caching, and result output.

use ams::prelude::*;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

/// Global knobs for every experiment. Defaults are sized for a
/// single-core CI-class machine; scale `items`/`episodes` up for
/// higher-fidelity runs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Items generated per dataset profile.
    pub items: usize,
    /// Training episodes for primary agents.
    pub episodes: usize,
    /// Training episodes for secondary sweeps (θ grid, ablations).
    pub episodes_small: usize,
    /// Test items evaluated per measurement.
    pub eval_items: usize,
    /// Valuable-label confidence threshold.
    pub threshold: f32,
    /// World seed.
    pub seed: u64,
    /// Output directory for JSON/text results.
    pub out_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            items: 600,
            episodes: 1200,
            episodes_small: 700,
            eval_items: 300,
            threshold: 0.5,
            seed: 20200208, // the paper's arXiv date
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExperimentConfig {
    /// A tiny configuration for smoke tests of the harness itself.
    pub fn smoke() -> Self {
        Self {
            items: 60,
            episodes: 40,
            episodes_small: 30,
            eval_items: 30,
            out_dir: PathBuf::from("results-smoke"),
            ..Self::default()
        }
    }
}

/// A dataset world: full-execution ground truth, split 1:4.
pub struct World {
    /// Ground truth (every model executed on every item).
    pub truth: TruthTable,
    /// 1:4 train/test split.
    pub split: ams::data::dataset::Split,
}

impl World {
    /// Training items.
    pub fn train_items(&self) -> &[ItemTruth] {
        self.truth.split(self.split).0
    }

    /// Test items.
    pub fn test_items(&self) -> &[ItemTruth] {
        self.truth.split(self.split).1
    }
}

/// The experiment harness: shared zoo/catalog, lazily built worlds, and a
/// cache of trained agents so a full run never trains the same agent twice.
pub struct Harness {
    /// Global configuration.
    pub cfg: ExperimentConfig,
    /// The 30-model zoo.
    pub zoo: ModelZoo,
    /// The 1104-label catalog.
    pub catalog: LabelCatalog,
    worlds: HashMap<DatasetProfile, World>,
    agents: HashMap<(DatasetProfile, Algo), TrainedAgent>,
}

impl Harness {
    /// Build a harness.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let zoo = ModelZoo::standard();
        let catalog = zoo.catalog();
        Self {
            cfg,
            zoo,
            catalog,
            worlds: HashMap::new(),
            agents: HashMap::new(),
        }
    }

    /// Get (building on first use) the world for a profile.
    pub fn world(&mut self, profile: DatasetProfile) -> &World {
        if !self.worlds.contains_key(&profile) {
            let t0 = std::time::Instant::now();
            let dataset = Dataset::generate(profile, self.cfg.items, self.cfg.seed);
            let truth = TruthTable::build(&self.zoo, &self.catalog, &dataset, self.cfg.threshold);
            let split = dataset.split_1_to_4();
            eprintln!(
                "[harness] built world {} ({} items) in {:.1?}",
                profile.name(),
                dataset.len(),
                t0.elapsed()
            );
            self.worlds.insert(profile, World { truth, split });
        }
        &self.worlds[&profile]
    }

    /// Train (or fetch) the agent for `(profile, algo)`: `cfg.episodes`
    /// episodes under the default reward, seeded by `cfg.seed`.
    pub fn agent(&mut self, profile: DatasetProfile, algo: Algo) -> TrainedAgent {
        if let Some(a) = self.agents.get(&(profile, algo)) {
            return a.clone();
        }
        let num_models = self.zoo.len();
        let cfg = TrainConfig {
            episodes: self.cfg.episodes,
            seed: self.cfg.seed,
            reward: RewardConfig {
                value_threshold: self.cfg.threshold,
                ..Default::default()
            },
            ..TrainConfig::new(algo)
        };
        let t0 = std::time::Instant::now();
        let (agent, stats) = train(self.world(profile).train_items(), num_models, &cfg);
        eprintln!(
            "[harness] trained {algo} on {} ({} eps) in {:.1?}, trailing reward {:.2}",
            profile.name(),
            cfg.episodes,
            t0.elapsed(),
            stats.trailing_reward(100)
        );
        self.agents.insert((profile, algo), agent.clone());
        agent
    }

    /// Test items of a world, truncated to the eval budget.
    pub fn eval_items(&mut self, profile: DatasetProfile) -> Vec<ItemTruth> {
        let n = self.cfg.eval_items;
        let world = self.world(profile);
        world.test_items().iter().take(n).cloned().collect()
    }

    /// Training items of a world (owned copy for ad-hoc training runs).
    pub fn train_items(&mut self, profile: DatasetProfile) -> Vec<ItemTruth> {
        self.world(profile).train_items().to_vec()
    }

    /// Build a figure, print it as a table, write it under `out_dir` as
    /// `<id>.json` and `<id>.txt`, and return it.
    pub fn figure(
        &self,
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: &str,
        y_label: &str,
        series: Vec<Series>,
    ) -> io::Result<Figure> {
        let fig = Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
        };
        let table = fig.to_table();
        println!("{table}");
        let json = serde_json::to_string_pretty(&fig).map_err(io::Error::other)?;
        self.write(&format!("{}.json", fig.id), &json)?;
        self.write(&format!("{}.txt", fig.id), &table)?;
        Ok(fig)
    }

    /// Print free-form text output (tables, sequences) and write it under
    /// `out_dir` as `<id>.txt`.
    pub fn emit_text(&self, id: &str, text: &str) -> io::Result<()> {
        println!("{text}");
        self.write(&format!("{id}.txt"), text)
    }

    /// Write one file under `out_dir`; the error names the path.
    fn write(&self, name: &str, contents: &str) -> io::Result<()> {
        let path = self.cfg.out_dir.join(name);
        std::fs::create_dir_all(&self.cfg.out_dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }
}

/// The recall-rate grid used by Figs. 4–6 (the paper plots 0..1).
pub fn recall_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// The deadline grid (seconds) of Fig. 10/12.
pub fn deadline_grid_s() -> Vec<f64> {
    vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
}

/// The deadline grid (seconds) of Fig. 11.
pub fn memory_deadline_grid_s() -> Vec<f64> {
    vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results directory that cannot be created is an error naming the
    /// path, not a silent success: an `out_dir` under a regular file fails
    /// even for root, which ignores permission bits.
    #[test]
    fn an_unwritable_out_dir_is_an_error_naming_the_path() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/harness-unwritable");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("a-file");
        std::fs::write(&file, "").unwrap();
        let h = Harness::new(ExperimentConfig {
            out_dir: file.join("results"),
            ..ExperimentConfig::smoke()
        });
        let e = h.emit_text("t", "x").unwrap_err();
        assert!(e.to_string().contains("a-file/results/t.txt"), "{e}");
        let e = h.figure("f", "t", "x", "y", Vec::new()).unwrap_err();
        assert!(e.to_string().contains("a-file/results/f.json"), "{e}");
    }
}
