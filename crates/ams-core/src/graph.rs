//! The model-relationship graph (§VIII future work).
//!
//! The paper's conclusion proposes constructing an explicit graph of
//! semantic relationships among models' labeling capacities. This module
//! builds one from a training split of the ground truth: for every
//! (trigger label, model) pair it estimates `P(m valuable | l recalled)`
//! beside the prior `P(m valuable)`.
//!
//! The graph is a lightweight statistical [`ValuePredictor`] — a
//! non-learned comparator that sits between handcrafted rules and the DRL
//! agent.

use crate::predictor::ValuePredictor;
use ams_data::ItemTruth;
use ams_models::{LabelId, LabelSet, ModelId};

/// Conditional-probability statistics from a train split.
#[derive(Debug, Clone)]
pub struct ModelRelationGraph {
    num_models: usize,
    /// `p_valuable[m]`: prior probability model `m` yields valuable output.
    p_valuable: Vec<f64>,
    /// `p_joint[l * num_models + m]`: P(label l present AND m valuable).
    p_joint: Vec<f64>,
    /// `p_label[l]`: P(label l present).
    p_label: Vec<f64>,
}

impl ModelRelationGraph {
    /// Estimate the graph from ground-truth items (a train split).
    pub fn build(
        items: &[ItemTruth],
        num_models: usize,
        num_labels: usize,
        threshold: f32,
    ) -> Self {
        assert!(!items.is_empty(), "empty training split");
        let n = items.len() as f64;
        let mut p_valuable = vec![0.0f64; num_models];
        let mut p_label = vec![0.0f64; num_labels];
        let mut p_joint = vec![0.0f64; num_labels * num_models];

        for item in items {
            let valuable_models: Vec<bool> = (0..num_models)
                .map(|m| {
                    item.output(ModelId(m as u8))
                        .valuable(threshold)
                        .next()
                        .is_some()
                })
                .collect();
            for (m, &v) in valuable_models.iter().enumerate() {
                if v {
                    p_valuable[m] += 1.0;
                }
            }
            for &(l, _) in &item.valuable {
                p_label[l.index()] += 1.0;
                for (m, &v) in valuable_models.iter().enumerate() {
                    if v {
                        p_joint[l.index() * num_models + m] += 1.0;
                    }
                }
            }
        }
        for p in &mut p_valuable {
            *p /= n;
        }
        for p in &mut p_label {
            *p /= n;
        }
        for p in &mut p_joint {
            *p /= n;
        }
        Self {
            num_models,
            p_valuable,
            p_joint,
            p_label,
        }
    }

    /// Prior probability that model `m` is valuable.
    pub fn prior(&self, m: ModelId) -> f64 {
        self.p_valuable[m.index()]
    }

    /// `P(m valuable | l recalled)`, falling back to the prior when `l` was
    /// never observed in training.
    pub fn conditional(&self, l: LabelId, m: ModelId) -> f64 {
        let pl = self.p_label[l.index()];
        if pl <= 0.0 {
            return self.prior(m);
        }
        self.p_joint[l.index() * self.num_models + m.index()] / pl
    }
}

/// A [`ValuePredictor`] backed by the relation graph: score of model `m` is
/// the maximum conditional probability over active state labels (prior when
/// the state is empty), i.e. "how strongly does anything we've seen so far
/// suggest m will pay off".
pub struct GraphPredictor {
    graph: ModelRelationGraph,
}

impl GraphPredictor {
    /// Wrap a built graph.
    pub fn new(graph: ModelRelationGraph) -> Self {
        Self { graph }
    }
}

impl ValuePredictor for GraphPredictor {
    fn num_models(&self) -> usize {
        self.graph.num_models
    }

    fn predict_into(&self, state: &LabelSet, _item: &ItemTruth, out: &mut [f32]) {
        for (m, o) in out.iter_mut().enumerate() {
            let id = ModelId(m as u8);
            let mut score = self.graph.prior(id);
            for l in state.iter() {
                score = score.max(self.graph.conditional(l, id));
            }
            *o = score as f32;
        }
    }

    fn name(&self) -> &'static str {
        "relation-graph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{aggregate_rollouts, predictor_greedy_rollout, random_rollout};
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::{LabelCatalog, ModelZoo};

    fn fixture() -> (ModelZoo, LabelCatalog, TruthTable) {
        let zoo = ModelZoo::standard();
        let catalog = zoo.catalog();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 150, 57);
        let t = TruthTable::build(&zoo, &catalog, &ds, 0.5);
        (zoo, catalog, t)
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (_, _, t) = fixture();
        let g = ModelRelationGraph::build(t.items(), 30, 1104, 0.5);
        for m in 0..30 {
            let p = g.prior(ModelId(m));
            assert!((0.0..=1.0).contains(&p), "prior {p}");
        }
        let person = LabelId(0);
        for m in 0..30 {
            let c = g.conditional(person, ModelId(m));
            assert!((0.0..=1.0 + 1e-9).contains(&c), "conditional {c}");
        }
    }

    #[test]
    fn person_label_lifts_pose_models() {
        let (zoo, catalog, t) = fixture();
        let g = ModelRelationGraph::build(t.items(), 30, 1104, 0.5);
        let person = catalog.find("person").unwrap();
        let pose = zoo
            .models_for(ams_models::Task::PoseEstimation)
            .next()
            .unwrap()
            .id;
        let lift = g.conditional(person, pose) / g.prior(pose);
        assert!(
            lift > 1.1,
            "person should lift pose models (lift {lift:.2})"
        );
    }

    #[test]
    fn place_models_have_high_prior() {
        let (zoo, _, t) = fixture();
        let g = ModelRelationGraph::build(t.items(), 30, 1104, 0.5);
        let place = zoo
            .models_for(ams_models::Task::PlaceClassification)
            .next()
            .unwrap()
            .id;
        let hand = zoo
            .models_for(ams_models::Task::HandLandmark)
            .next()
            .unwrap()
            .id;
        assert!(
            g.prior(place) > g.prior(hand),
            "place classifiers pay off more often"
        );
    }

    #[test]
    fn graph_predictor_beats_random() {
        let (zoo, _, t) = fixture();
        let (train, test) = t.split(ams_data::dataset::Split {
            train_len: 100,
            total: 150,
        });
        let g = GraphPredictor::new(ModelRelationGraph::build(train, 30, 1104, 0.5));
        let (graph_models, _) = aggregate_rollouts(test.iter(), |it| {
            predictor_greedy_rollout(it, &zoo, &g, 0.8, 0.5)
        });
        let (rand_models, _) =
            aggregate_rollouts(test.iter(), |it| random_rollout(it, &zoo, 0.8, 0.5, 3));
        assert!(
            graph_models < rand_models,
            "graph predictor ({graph_models:.2}) should beat random ({rand_models:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_split_panics() {
        let _ = ModelRelationGraph::build(&[], 30, 1104, 0.5);
    }
}
