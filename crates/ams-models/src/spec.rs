//! Model specifications: identity, task, costs and quality profile.

use crate::task::Task;
use serde::{Deserialize, Serialize};

/// Dense identifier of a model in the zoo (0..30 for the standard zoo).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct ModelId(pub u8);

impl ModelId {
    /// The raw index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Which of the three per-task variants a model is.
///
/// Within each task the zoo ships three models with overlapping label support
/// but distinct quality/cost trade-offs. This is what makes scheduling
/// interesting: a second same-task model is usually — but not always —
/// redundant, and the agent has to learn when it is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SkillTier {
    /// Broad, high-accuracy, expensive variant (the "reference" model).
    Flagship,
    /// Specialist: near-perfect on a slice of the task's label space,
    /// weak elsewhere. Valuable exactly when its slice is present.
    Specialist,
    /// Cheap, lower-accuracy variant.
    Compact,
}

impl SkillTier {
    /// All tiers in zoo layout order.
    pub const ALL: [SkillTier; 3] = [
        SkillTier::Flagship,
        SkillTier::Specialist,
        SkillTier::Compact,
    ];

    /// Detection probability for a ground-truth label inside the model's
    /// specialty slice of the task label space.
    pub fn specialty_recall(self) -> f64 {
        match self {
            SkillTier::Flagship => 0.95,
            SkillTier::Specialist => 0.98,
            SkillTier::Compact => 0.62,
        }
    }

    /// Detection probability for a ground-truth label outside the specialty
    /// slice.
    pub fn base_recall(self) -> f64 {
        match self {
            SkillTier::Flagship => 0.92,
            SkillTier::Specialist => 0.35,
            SkillTier::Compact => 0.58,
        }
    }

    /// Mean confidence of a true-positive detection.
    pub fn conf_mean(self) -> f64 {
        match self {
            SkillTier::Flagship => 0.88,
            SkillTier::Specialist => 0.90,
            SkillTier::Compact => 0.72,
        }
    }

    /// Standard deviation of true-positive confidence.
    pub fn conf_sd(self) -> f64 {
        match self {
            SkillTier::Flagship => 0.06,
            SkillTier::Specialist => 0.05,
            SkillTier::Compact => 0.10,
        }
    }

    /// Probability of emitting one spurious low-confidence detection
    /// (the grey boxes of Fig. 1, e.g. "Person 0.43", "Bathroom 0.14").
    pub fn false_positive_rate(self) -> f64 {
        match self {
            SkillTier::Flagship => 0.08,
            SkillTier::Specialist => 0.05,
            SkillTier::Compact => 0.18,
        }
    }
}

/// Stochastic quality profile of a simulated model.
///
/// The profile describes the distribution of the model's output conditioned
/// on ground-truth content. `ams-data::infer` samples from it
/// deterministically (seeded by item x model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityProfile {
    /// Variant tier (drives recall/confidence/false-positive behaviour).
    pub tier: SkillTier,
    /// Specialty slice of the task's label range, as within-task index
    /// bounds `[start, end)`. For [`SkillTier::Specialist`] this is a strict
    /// subset; for other tiers it spans the whole task.
    pub specialty: (usize, usize),
}

impl QualityProfile {
    /// Detection probability for within-task label index `i`.
    pub fn recall_for(&self, i: usize) -> f64 {
        if i >= self.specialty.0 && i < self.specialty.1 {
            self.tier.specialty_recall()
        } else {
            self.tier.base_recall()
        }
    }
}

/// A model in the zoo: identity, task, costs, and quality profile.
///
/// `time_ms` is the average per-item execution time (the paper sets `m.time`
/// to the measured average) and `mem_mb` the peak GPU memory (the paper sets
/// `m.mem` to the measured peak).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Dense zoo identifier.
    pub id: ModelId,
    /// Human-readable name, e.g. `"object-det-flagship"`.
    pub name: String,
    /// The task this model performs.
    pub task: Task,
    /// Average execution time per item, in milliseconds.
    pub time_ms: u32,
    /// Peak GPU memory, in megabytes.
    pub mem_mb: u32,
    /// Output-quality profile.
    pub quality: QualityProfile,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_orderings_make_sense() {
        // Specialists beat flagships inside their slice but collapse outside.
        assert!(SkillTier::Specialist.specialty_recall() > SkillTier::Flagship.specialty_recall());
        assert!(SkillTier::Specialist.base_recall() < SkillTier::Compact.base_recall());
        // Compact models are noisier.
        assert!(
            SkillTier::Compact.false_positive_rate() > SkillTier::Flagship.false_positive_rate()
        );
        assert!(SkillTier::Compact.conf_mean() < SkillTier::Flagship.conf_mean());
    }

    #[test]
    fn quality_profile_recall_switches_on_specialty() {
        let q = QualityProfile {
            tier: SkillTier::Specialist,
            specialty: (10, 20),
        };
        assert_eq!(q.recall_for(15), SkillTier::Specialist.specialty_recall());
        assert_eq!(q.recall_for(5), SkillTier::Specialist.base_recall());
        assert_eq!(q.recall_for(10), SkillTier::Specialist.specialty_recall());
        assert_eq!(q.recall_for(20), SkillTier::Specialist.base_recall());
    }

    #[test]
    fn model_id_display_and_index() {
        let id = ModelId(7);
        assert_eq!(id.to_string(), "M7");
        assert_eq!(id.index(), 7);
    }
}
