//! Stream processing: run the framework over a continuous item stream with
//! running statistics — the deployment shape the paper's motivating
//! applications (image-retrieval ingestion, album indexing, surveillance)
//! actually use.

use crate::framework::{AdaptiveModelScheduler, Budget, LabelingOutcome};
use ams_data::ItemTruth;
use serde::{Deserialize, Serialize};

/// Items below this recall increment [`StreamStats::low_recall_items`] —
/// one threshold for the serial [`StreamProcessor`] and every serving
/// worker, so their statistics agree.
pub const ALERT_RECALL: f64 = 0.5;

/// Running statistics over a processed stream.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Items processed.
    pub items: usize,
    /// Total virtual execution time, ms.
    pub total_exec_ms: u64,
    /// Total model executions.
    pub total_executions: usize,
    /// Sum of per-item recalls (divide by `items` for the mean).
    pub recall_sum: f64,
    /// Total label value recalled.
    pub value_sum: f64,
    /// Executions per model (utilization profile).
    pub per_model_runs: Vec<u64>,
    /// Items whose recall fell below [`ALERT_RECALL`].
    pub low_recall_items: usize,
}

impl StreamStats {
    /// Empty statistics sized for a zoo of `num_models` models — the
    /// constructor shard collectors (workers, serving front-ends) use so
    /// their [`StreamStats::merge`] results line up with the zoo.
    pub fn with_models(num_models: usize) -> Self {
        Self {
            per_model_runs: vec![0; num_models],
            ..Default::default()
        }
    }

    /// Mean recall across processed items (1.0 when empty).
    pub fn mean_recall(&self) -> f64 {
        if self.items == 0 {
            1.0
        } else {
            self.recall_sum / self.items as f64
        }
    }

    /// Fold one labeling outcome into the statistics.
    pub fn absorb(&mut self, outcome: &LabelingOutcome) {
        self.items += 1;
        self.total_exec_ms += outcome.elapsed_ms;
        self.total_executions += outcome.executed.len();
        self.recall_sum += outcome.recall;
        self.value_sum += outcome.value;
        for &m in &outcome.executed {
            self.per_model_runs[m.index()] += 1;
        }
        if outcome.recall < ALERT_RECALL {
            self.low_recall_items += 1;
        }
    }

    /// Merge another shard's statistics into this one. Every field is an
    /// order-independent sum, so merging per-worker shards yields exactly
    /// the stats a serial pass over the same items produces.
    pub fn merge(&mut self, other: &StreamStats) {
        self.items += other.items;
        self.total_exec_ms += other.total_exec_ms;
        self.total_executions += other.total_executions;
        self.recall_sum += other.recall_sum;
        self.value_sum += other.value_sum;
        if self.per_model_runs.len() < other.per_model_runs.len() {
            self.per_model_runs.resize(other.per_model_runs.len(), 0);
        }
        for (a, &b) in self.per_model_runs.iter_mut().zip(&other.per_model_runs) {
            *a += b;
        }
        self.low_recall_items += other.low_recall_items;
    }
}

/// A stream processor: an [`AdaptiveModelScheduler`] plus a fixed budget and
/// running statistics.
pub struct StreamProcessor {
    scheduler: AdaptiveModelScheduler,
    budget: Budget,
    stats: StreamStats,
    /// Deployment emulation: wall-clock milliseconds slept per *virtual*
    /// execution millisecond of each item (default 0 — pure simulation).
    /// In the paper's deployment the processor waits on real model
    /// executions; the virtual clock elides that wait, and this knob
    /// reintroduces it so throughput experiments see a realistic
    /// latency-bound workload.
    pub exec_emulation_scale: f64,
}

impl StreamProcessor {
    /// Wrap a scheduler with a per-item budget.
    pub fn new(scheduler: AdaptiveModelScheduler, budget: Budget) -> Self {
        let n = scheduler.zoo().len();
        Self {
            scheduler,
            budget,
            stats: StreamStats::with_models(n),
            exec_emulation_scale: 0.0,
        }
    }

    /// The underlying scheduler.
    pub fn scheduler(&self) -> &AdaptiveModelScheduler {
        &self.scheduler
    }

    /// The per-item budget every processed item is labeled under.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Process one item; returns the labeling outcome.
    pub fn process(&mut self, item: &ItemTruth) -> LabelingOutcome {
        let outcome = self.scheduler.label_item(item, self.budget);
        emulate_execution(&outcome, self.exec_emulation_scale);
        self.stats.absorb(&outcome);
        outcome
    }

    /// Process a batch of items in order; the running
    /// [`StreamProcessor::stats`] aggregate the outcomes.
    pub fn process_all<'a>(&mut self, items: impl IntoIterator<Item = &'a ItemTruth>) {
        for item in items {
            self.process(item);
        }
    }

    /// The running statistics.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Reset statistics (keeps the scheduler and budget).
    pub fn reset_stats(&mut self) {
        self.stats = StreamStats::with_models(self.scheduler.zoo().len());
    }
}

/// Sleep for an item's emulated execution latency (no-op at scale 0).
fn emulate_execution(outcome: &LabelingOutcome, scale: f64) {
    if scale > 0.0 && outcome.elapsed_ms > 0 {
        let wait = outcome.elapsed_ms as f64 * scale;
        std::thread::sleep(std::time::Duration::from_secs_f64(wait / 1000.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::OraclePredictor;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;

    fn processor(budget: Budget) -> (StreamProcessor, TruthTable) {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 30, 64);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
        let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64);
        (StreamProcessor::new(scheduler, budget), truth)
    }

    #[test]
    fn stats_accumulate_consistently() {
        let (mut proc, truth) = processor(Budget::Deadline { ms: 1000 });
        proc.process_all(truth.items());
        let s = proc.stats();
        assert_eq!(s.items, 30);
        assert!(s.mean_recall() > 0.0 && s.mean_recall() <= 1.0);
        assert!(
            s.total_exec_ms <= 1000 * s.items as u64,
            "per-item deadline respected on average"
        );
        let runs: u64 = s.per_model_runs.iter().sum();
        assert_eq!(runs as usize, s.total_executions);
    }

    #[test]
    fn low_recall_alerts_fire_under_starved_budget() {
        let (mut proc, truth) = processor(Budget::Deadline { ms: 60 });
        proc.process_all(truth.items());
        assert!(
            proc.stats().low_recall_items > 0,
            "a 60ms budget must starve most items below 50% recall"
        );
    }

    #[test]
    fn reset_clears_counters() {
        let (mut proc, truth) = processor(Budget::Unconstrained);
        proc.process(truth.item(0));
        assert_eq!(proc.stats().items, 1);
        proc.reset_stats();
        assert_eq!(proc.stats().items, 0);
        assert_eq!(proc.stats().total_executions, 0);
        assert!(proc.stats().per_model_runs.iter().all(|&n| n == 0));
    }
}
