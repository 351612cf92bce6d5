//! The standard 30-model zoo (Table I): 3 variants per task with calibrated
//! time and memory costs.

use crate::label::LabelCatalog;
use crate::spec::{ModelId, ModelSpec, QualityProfile, SkillTier};
use crate::task::Task;
use serde::{Deserialize, Serialize};

/// Per-task `(time_ms, mem_mb)` for the three variants, in
/// `[Flagship, Specialist, Compact]` order.
///
/// Times are calibrated so the whole zoo sums to ~5.17 s per item (§II of the
/// paper reports 5.16 s for "no policy" on a Tesla P100); individual times sit
/// in the 50–450 ms band and memory in the 500–8000 MB band (Table III).
const COSTS: [(Task, [(u32, u32); 3]); 10] = [
    (
        Task::ObjectDetection,
        [(210, 3500), (150, 2200), (110, 900)],
    ),
    (
        Task::PlaceClassification,
        [(80, 1200), (65, 800), (90, 1500)],
    ),
    (Task::FaceDetection, [(60, 600), (75, 900), (65, 700)]),
    (Task::FaceLandmark, [(250, 2800), (215, 2200), (185, 1800)]),
    (
        Task::PoseEstimation,
        [(450, 8000), (370, 6000), (300, 4500)],
    ),
    (
        Task::EmotionClassification,
        [(95, 900), (80, 700), (70, 600)],
    ),
    (
        Task::GenderClassification,
        [(65, 700), (60, 600), (55, 500)],
    ),
    (
        Task::ActionClassification,
        [(420, 7000), (350, 5500), (270, 4200)],
    ),
    (Task::HandLandmark, [(260, 3200), (220, 2600), (190, 2100)]),
    (
        Task::DogClassification,
        [(150, 1600), (120, 1200), (95, 900)],
    ),
];

/// The model zoo: an ordered collection of [`ModelSpec`]s plus the label
/// catalog they draw from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelZoo {
    specs: Vec<ModelSpec>,
}

impl ModelZoo {
    /// Build the standard 30-model zoo of Table I.
    ///
    /// Models are laid out task-major, tier-minor: model `3*t + k` is the
    /// `k`-th variant ([`SkillTier::ALL`] order) of task `Task::ALL[t]`.
    pub fn standard() -> Self {
        let mut specs = Vec::with_capacity(30);
        for (ti, (task, costs)) in COSTS.iter().enumerate() {
            let n = task.label_count();
            for (ki, tier) in SkillTier::ALL.into_iter().enumerate() {
                let (time_ms, mem_mb) = costs[ki];
                // Specialists own the middle third of the task's label range;
                // other tiers span the whole range.
                let specialty = match tier {
                    SkillTier::Specialist => (n / 3, 2 * n / 3),
                    _ => (0, n),
                };
                let tier_name = match tier {
                    SkillTier::Flagship => "flagship",
                    SkillTier::Specialist => "specialist",
                    SkillTier::Compact => "compact",
                };
                specs.push(ModelSpec {
                    id: ModelId((ti * 3 + ki) as u8),
                    name: format!("{}-{tier_name}", Self::slug(*task)),
                    task: *task,
                    time_ms,
                    mem_mb,
                    quality: QualityProfile { tier, specialty },
                });
            }
        }
        Self { specs }
    }

    fn slug(task: Task) -> &'static str {
        match task {
            Task::ObjectDetection => "object-det",
            Task::PlaceClassification => "place-cls",
            Task::FaceDetection => "face-det",
            Task::FaceLandmark => "face-landmark",
            Task::PoseEstimation => "pose-est",
            Task::EmotionClassification => "emotion-cls",
            Task::GenderClassification => "gender-cls",
            Task::ActionClassification => "action-cls",
            Task::HandLandmark => "hand-landmark",
            Task::DogClassification => "dog-cls",
        }
    }

    /// Number of models (30 for the standard zoo).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the zoo is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec of a model.
    pub fn spec(&self, id: ModelId) -> &ModelSpec {
        &self.specs[id.index()]
    }

    /// All specs in id order.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Iterator over model ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ModelId> + '_ {
        (0..self.specs.len()).map(|i| ModelId(i as u8))
    }

    /// Models performing `task`, in tier order.
    pub fn models_for(&self, task: Task) -> impl Iterator<Item = &ModelSpec> + '_ {
        self.specs.iter().filter(move |s| s.task == task)
    }

    /// Total time of executing every model once, in milliseconds
    /// (the "no policy" cost of §II).
    pub fn total_time_ms(&self) -> u32 {
        self.specs.iter().map(|s| s.time_ms).sum()
    }

    /// Build a reduced zoo containing only the given model ids (re-identified
    /// densely). Useful for small tests and ablations.
    pub fn subset(&self, ids: &[ModelId]) -> Self {
        let specs = ids
            .iter()
            .enumerate()
            .map(|(new_id, &old)| {
                let mut s = self.spec(old).clone();
                s.id = ModelId(new_id as u8);
                s
            })
            .collect();
        Self { specs }
    }

    /// The label catalog models of this zoo label against.
    ///
    /// The standard zoo always uses the standard catalog; this helper keeps
    /// call sites from constructing it separately.
    pub fn catalog(&self) -> LabelCatalog {
        LabelCatalog::standard()
    }
}

impl Default for ModelZoo {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_30_models_3_per_task() {
        let zoo = ModelZoo::standard();
        assert_eq!(zoo.len(), 30);
        for t in Task::ALL {
            assert_eq!(zoo.models_for(t).count(), 3, "{t}");
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let zoo = ModelZoo::standard();
        for (i, spec) in zoo.specs().iter().enumerate() {
            assert_eq!(spec.id.index(), i);
        }
    }

    #[test]
    fn total_time_close_to_paper() {
        let zoo = ModelZoo::standard();
        let total = zoo.total_time_ms();
        // Paper: 5.16 s "no policy". We calibrate to within ~5%.
        assert!((4900..=5450).contains(&total), "total zoo time {total} ms");
    }

    #[test]
    fn costs_within_paper_bands() {
        let zoo = ModelZoo::standard();
        for s in zoo.specs() {
            assert!(
                (50..=450).contains(&s.time_ms),
                "{}: {} ms",
                s.name,
                s.time_ms
            );
            assert!(
                (500..=8000).contains(&s.mem_mb),
                "{}: {} MB",
                s.name,
                s.mem_mb
            );
        }
    }

    #[test]
    fn pose_flagship_is_most_memory_hungry() {
        let zoo = ModelZoo::standard();
        assert_eq!(zoo.specs().iter().map(|s| s.mem_mb).max(), Some(8000));
        let pose = zoo.models_for(Task::PoseEstimation).next().unwrap();
        assert_eq!(pose.mem_mb, 8000);
    }

    #[test]
    fn specialists_have_proper_specialty_slices() {
        let zoo = ModelZoo::standard();
        for s in zoo.specs() {
            let n = s.task.label_count();
            let (a, b) = s.quality.specialty;
            assert!(a <= b && b <= n, "{}: specialty {a}..{b} of {n}", s.name);
            if matches!(s.quality.tier, SkillTier::Specialist) && n >= 3 {
                assert!(
                    b - a < n,
                    "{}: specialist should not span whole task",
                    s.name
                );
            }
        }
    }

    #[test]
    fn subset_reindexes() {
        let zoo = ModelZoo::standard();
        let small = zoo.subset(&[ModelId(3), ModelId(29)]);
        assert_eq!(small.len(), 2);
        assert_eq!(small.spec(ModelId(0)).task, Task::PlaceClassification);
        assert_eq!(small.spec(ModelId(1)).task, Task::DogClassification);
        assert_eq!(small.spec(ModelId(1)).id, ModelId(1));
    }

    #[test]
    fn names_unique() {
        let zoo = ModelZoo::standard();
        let mut names: Vec<&str> = zoo.specs().iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }
}
