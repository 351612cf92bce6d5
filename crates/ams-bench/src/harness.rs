//! Shared harness: worlds (zoo + dataset + ground truth), agent training
//! with caching, and result output.

use ams::prelude::*;
use std::collections::HashMap;
use std::io::Write as _;
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

/// A dataset world: scenes plus full-execution ground truth, split 1:4.
pub struct World {
    /// The dataset profile.
    pub profile: DatasetProfile,
    /// Materialized scenes.
    pub dataset: Dataset,
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

/// Cache key for trained agents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AgentKey {
    profile: DatasetProfile,
    algo: Algo,
    theta_model: Option<(u8, u32)>, // (model, theta*1000)
    episodes: usize,
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
    agents: HashMap<AgentKey, TrainedAgent>,
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
            self.worlds.insert(
                profile,
                World {
                    profile,
                    dataset,
                    truth,
                    split,
                },
            );
        }
        &self.worlds[&profile]
    }

    /// Train (or fetch) an agent for `(profile, algo)` with default θ.
    pub fn agent(&mut self, profile: DatasetProfile, algo: Algo) -> TrainedAgent {
        let episodes = self.cfg.episodes;
        self.agent_with(profile, algo, None, episodes)
    }

    /// Train (or fetch) an agent with an optional θ override on one model.
    pub fn agent_with(
        &mut self,
        profile: DatasetProfile,
        algo: Algo,
        theta: Option<(ModelId, f32)>,
        episodes: usize,
    ) -> TrainedAgent {
        let key = AgentKey {
            profile,
            algo,
            theta_model: theta.map(|(m, t)| (m.0, (t * 1000.0) as u32)),
            episodes,
        };
        if let Some(a) = self.agents.get(&key) {
            return a.clone();
        }
        let threshold = self.cfg.threshold;
        let seed = self.cfg.seed;
        let num_models = self.zoo.len();
        self.world(profile); // ensure built
        let world = &self.worlds[&profile];
        let mut reward = RewardConfig {
            value_threshold: threshold,
            ..Default::default()
        };
        if let Some((m, t)) = theta {
            reward = reward.with_theta(m, t, num_models);
        }
        let cfg = TrainConfig {
            episodes,
            seed: seed
                ^ (key
                    .theta_model
                    .map(|(m, t)| u64::from(m) * 31 + u64::from(t))
                    .unwrap_or(0)),
            reward,
            ..TrainConfig::new(algo)
        };
        let t0 = std::time::Instant::now();
        let (agent, stats) = train(world.train_items(), num_models, &cfg);
        eprintln!(
            "[harness] trained {algo} on {} ({episodes} eps, θ={:?}) in {:.1?}, trailing reward {:.2}",
            profile.name(),
            theta,
            t0.elapsed(),
            stats.trailing_reward(100)
        );
        self.agents.insert(key, agent.clone());
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

    /// Write a figure both as pretty text and JSON under `out_dir`.
    pub fn emit(&self, fig: &Figure) {
        println!("{}", fig.to_table());
        if let Err(e) = std::fs::create_dir_all(&self.cfg.out_dir) {
            eprintln!(
                "[harness] cannot create {}: {e}",
                self.cfg.out_dir.display()
            );
            return;
        }
        let json_path = self.cfg.out_dir.join(format!("{}.json", fig.id));
        match serde_json::to_string_pretty(fig) {
            Ok(js) => {
                if let Ok(mut f) = std::fs::File::create(&json_path) {
                    let _ = f.write_all(js.as_bytes());
                }
            }
            Err(e) => eprintln!("[harness] serialize {}: {e}", fig.id),
        }
        let txt_path = self.cfg.out_dir.join(format!("{}.txt", fig.id));
        if let Ok(mut f) = std::fs::File::create(&txt_path) {
            let _ = f.write_all(fig.to_table().as_bytes());
        }
    }

    /// Write free-form text output (tables, sequences) under `out_dir`.
    pub fn emit_text(&self, id: &str, text: &str) {
        println!("{text}");
        if std::fs::create_dir_all(&self.cfg.out_dir).is_ok() {
            let _ = std::fs::write(self.cfg.out_dir.join(format!("{id}.txt")), text);
        }
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
