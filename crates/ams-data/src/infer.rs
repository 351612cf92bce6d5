//! Simulated model execution: `(scene, model spec) → ModelOutput`.
//!
//! This is the stand-in for running a real deep-learning model on an image.
//! The output distribution is conditioned on the scene's latent content and
//! the model's [`QualityProfile`]: ground-truth labels are detected with the
//! profile's recall (scaled by apparent size), true positives get
//! Gaussian-noised confidences, and occasional low-confidence false
//! positives reproduce the grey boxes of the paper's Fig. 1 ("Person 0.43",
//! "Bathroom 0.14").
//!
//! ## Shared difficulty
//!
//! Each potential detection carries a **shared difficulty draw** `u`,
//! seeded by `(world, scene, task, element)` — identical for all three
//! variants of a task. A variant detects the element iff
//! `u < recall_variant · size`. This correlates same-task models the way
//! real ones correlate (hard instances are hard for everybody) and makes
//! higher-recall variants' detection sets supersets of lower-recall ones',
//! so one good model per relevant task recalls almost everything — the
//! regime the paper's "optimal policy executes ~20% of the zoo" analysis
//! lives in.
//!
//! Execution is deterministic under `(world_seed, scene.id, model.id)`.

use crate::rng::exec_seed;
use crate::scene::Scene;
use crate::templates::{DOG_OBJECT, PERSON_OBJECT};
use ams_models::output::normalize_run;
use ams_models::{Detection, LabelCatalog, ModelOutput, ModelSpec, QualityProfile, Task};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scale factor applied to detection probability for an instance of
/// apparent size `scale` (0.3..=1.0): small instances are harder.
#[inline]
fn size_factor(scale: f32) -> f64 {
    0.5 + 0.5 * f64::from(scale)
}

/// Sample a true-positive confidence from the model's tier distribution
/// (approximately Gaussian via the sum of three uniforms).
fn tp_confidence(rng: &mut SmallRng, q: &QualityProfile) -> f32 {
    let mean = q.tier.conf_mean();
    let sd = q.tier.conf_sd();
    let u: f64 = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) - 1.5; // ~N(0, 0.5)
    (mean + sd * 2.0 * u).clamp(0.05, 0.995) as f32
}

/// A low confidence for false positives / misclassifications.
fn fp_confidence(rng: &mut SmallRng) -> f32 {
    rng.gen_range(0.08..0.45)
}

/// The per-execution random streams: `shared` carries the task-level
/// difficulty draws (identical across variants — its consumption order must
/// not depend on the variant), `noise` carries variant-specific confidence
/// and false-positive draws.
struct ExecRng {
    shared: SmallRng,
    noise: SmallRng,
}

impl ExecRng {
    fn new(scene: &Scene, spec: &ModelSpec, world_seed: u64) -> Self {
        // Task-level stream: seeded past the model-id range so it can never
        // collide with a per-model stream.
        let shared_tag = 1000 + spec.task.index();
        Self {
            shared: SmallRng::seed_from_u64(exec_seed(world_seed, scene.id, shared_tag)),
            noise: SmallRng::seed_from_u64(exec_seed(world_seed, scene.id, spec.id.index())),
        }
    }

    /// Shared-difficulty detection: draws one `u` from the task stream and
    /// thresholds it with this variant's recall.
    fn detect(&mut self, q: &QualityProfile, within_task_idx: usize, size: f64) -> bool {
        let u: f64 = self.shared.gen();
        u < (q.recall_for(within_task_idx) * size).clamp(0.0, 1.0)
    }
}

/// Execute `spec` on `scene`, deterministically under `world_seed`.
pub fn infer(
    scene: &Scene,
    spec: &ModelSpec,
    catalog: &LabelCatalog,
    world_seed: u64,
) -> ModelOutput {
    let mut detections = Vec::new();
    infer_into(scene, spec, catalog, world_seed, &mut detections);
    ModelOutput {
        model: spec.id,
        detections,
    }
}

/// [`infer`], appending the output to `dets` as one sorted, deduplicated
/// run instead of returning it — how an item's ground truth fills its
/// flat detection buffer model after model.
pub(crate) fn infer_into(
    scene: &Scene,
    spec: &ModelSpec,
    catalog: &LabelCatalog,
    world_seed: u64,
    dets: &mut Vec<Detection>,
) {
    let mut r = ExecRng::new(scene, spec, world_seed);
    let q = &spec.quality;
    let task = spec.task;
    let start = dets.len();
    let push = |dets: &mut Vec<Detection>, idx: u16, conf: f32| {
        dets.push(Detection::new(catalog.label(task, idx as usize), conf));
    };

    match task {
        Task::ObjectDetection => {
            // ground truth = explicit objects + person/dog derived from instances
            if !scene.persons.is_empty() {
                let size = size_factor(scene.max_person_scale());
                if r.detect(q, PERSON_OBJECT as usize, size) {
                    let c = tp_confidence(&mut r.noise, q);
                    push(dets, PERSON_OBJECT, c);
                } else if r.noise.gen_bool(0.4) {
                    // hard miss still often yields a low-confidence person box
                    push(dets, PERSON_OBJECT, fp_confidence(&mut r.noise));
                }
            }
            if !scene.dogs.is_empty() {
                let size = size_factor(scene.max_dog_scale());
                if r.detect(q, DOG_OBJECT as usize, size) {
                    let c = tp_confidence(&mut r.noise, q);
                    push(dets, DOG_OBJECT, c);
                }
            }
            for &obj in &scene.objects {
                if r.detect(q, obj as usize, 0.92) {
                    let c = tp_confidence(&mut r.noise, q);
                    push(dets, obj, c);
                }
            }
            if r.noise.gen_bool(q.tier.false_positive_rate()) {
                let idx = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, idx, fp_confidence(&mut r.noise));
            }
        }
        Task::PlaceClassification => {
            // classifiers always output something: the true place on success,
            // a random place at low confidence on failure
            let idx = scene.place.index;
            if r.detect(q, idx as usize, 1.0) {
                push(dets, idx, tp_confidence(&mut r.noise, q));
                // runner-up class, like "beer hall 0.198" next to "pub 0.727"
                if r.noise.gen_bool(0.3) {
                    let other = r.noise.gen_range(0..task.label_count()) as u16;
                    if other != idx {
                        push(dets, other, fp_confidence(&mut r.noise));
                    }
                }
            } else {
                let other = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, other, fp_confidence(&mut r.noise));
            }
        }
        Task::FaceDetection => {
            if scene.any_face() {
                let best = scene
                    .persons
                    .iter()
                    .filter(|p| p.face_visible)
                    .map(|p| p.scale)
                    .fold(0.0f32, f32::max);
                if r.detect(q, 0, size_factor(best)) {
                    push(dets, 0, tp_confidence(&mut r.noise, q));
                }
            } else if r.noise.gen_bool(q.tier.false_positive_rate()) {
                push(dets, 0, fp_confidence(&mut r.noise));
            }
        }
        Task::FaceLandmark => {
            if scene.any_face() {
                let best = scene
                    .persons
                    .iter()
                    .filter(|p| p.face_visible)
                    .map(|p| p.scale)
                    .fold(0.0f32, f32::max);
                let size = size_factor(best);
                for kp in 0..task.label_count() {
                    if r.detect(q, kp, size * 0.92) {
                        push(dets, kp as u16, tp_confidence(&mut r.noise, q));
                    }
                }
            }
        }
        Task::PoseEstimation => {
            if scene.any_body() {
                let best = scene
                    .persons
                    .iter()
                    .filter(|p| p.body_visible)
                    .map(|p| p.scale)
                    .fold(0.0f32, f32::max);
                let size = size_factor(best);
                for kp in 0..task.label_count() {
                    if r.detect(q, kp, size * 0.9) {
                        push(dets, kp as u16, tp_confidence(&mut r.noise, q));
                    }
                }
            } else if r.noise.gen_bool(q.tier.false_positive_rate()) {
                let kp = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, kp, fp_confidence(&mut r.noise));
            }
        }
        Task::EmotionClassification => {
            let mut any = false;
            for p in scene.persons.iter().filter(|p| p.face_visible) {
                if r.detect(q, p.emotion as usize, size_factor(p.scale)) {
                    push(dets, u16::from(p.emotion), tp_confidence(&mut r.noise, q));
                    any = true;
                }
            }
            if !any && scene.any_face() {
                // misclassification: wrong emotion at low confidence
                let e = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, e, fp_confidence(&mut r.noise));
            }
        }
        Task::GenderClassification => {
            for p in &scene.persons {
                // one shared draw per person regardless of visibility gate
                let hit = r.detect(q, p.gender as usize, size_factor(p.scale));
                if (p.face_visible || p.body_visible) && hit {
                    push(dets, u16::from(p.gender), tp_confidence(&mut r.noise, q));
                }
            }
        }
        Task::ActionClassification => {
            let mut any = false;
            for p in &scene.persons {
                if let Some(a) = p.action {
                    let hit = r.detect(q, a as usize, size_factor(p.scale));
                    if p.body_visible && hit {
                        push(dets, a, tp_confidence(&mut r.noise, q));
                        any = true;
                    }
                }
            }
            if !any && r.noise.gen_bool(q.tier.false_positive_rate()) {
                let a = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, a, fp_confidence(&mut r.noise));
            }
        }
        Task::HandLandmark => {
            if scene.any_hands() {
                let best = scene
                    .persons
                    .iter()
                    .filter(|p| p.hands_visible)
                    .map(|p| p.scale)
                    .fold(0.0f32, f32::max);
                let size = size_factor(best);
                for kp in 0..task.label_count() {
                    if r.detect(q, kp, size * 0.8) {
                        push(dets, kp as u16, tp_confidence(&mut r.noise, q));
                    }
                }
            }
        }
        Task::DogClassification => {
            let mut any = false;
            for d in &scene.dogs {
                if r.detect(q, d.breed as usize, size_factor(d.scale)) {
                    push(dets, d.breed, tp_confidence(&mut r.noise, q));
                    any = true;
                }
            }
            if !any && !scene.dogs.is_empty() {
                // wrong breed at low confidence
                let b = r.noise.gen_range(0..task.label_count()) as u16;
                push(dets, b, fp_confidence(&mut r.noise));
            }
        }
    }

    normalize_run(dets, start);
}

/// Convenience: run every model of a zoo on a scene ("no policy").
pub fn infer_all(
    scene: &Scene,
    zoo: &ams_models::ModelZoo,
    catalog: &LabelCatalog,
    world_seed: u64,
) -> Vec<ModelOutput> {
    zoo.specs()
        .iter()
        .map(|spec| infer(scene, spec, catalog, world_seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TemplateKind;
    use crate::{DogInstance, Person, Place};
    use ams_models::{ModelZoo, SkillTier};

    fn catalog() -> LabelCatalog {
        LabelCatalog::standard()
    }

    fn person_scene() -> Scene {
        Scene {
            id: 1,
            place: Place {
                index: 0,
                indoor: true,
            },
            persons: vec![Person {
                scale: 0.95,
                face_visible: true,
                body_visible: true,
                hands_visible: true,
                gender: 1,
                emotion: 3,
                action: Some(12),
            }],
            dogs: vec![],
            objects: vec![33, 53],
            template: TemplateKind::IndoorSocial,
        }
    }

    fn empty_scene() -> Scene {
        Scene {
            id: 2,
            place: Place {
                index: 20,
                indoor: false,
            },
            persons: vec![],
            dogs: vec![],
            objects: vec![],
            template: TemplateKind::Landscape,
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let s = person_scene();
        for spec in zoo.specs() {
            let a = infer(&s, spec, &c, 99);
            let b = infer(&s, spec, &c, 99);
            assert_eq!(a.detections.len(), b.detections.len());
            for (x, y) in a.detections.iter().zip(&b.detections) {
                assert_eq!(x.label, y.label);
                assert!((x.confidence - y.confidence).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn flagship_object_detector_finds_person_usually() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let spec = &zoo.specs()[0]; // object-det-flagship
        let person_label = c.label(Task::ObjectDetection, 0);
        let mut hits = 0;
        for seed in 0..100 {
            let mut s = person_scene();
            s.id = seed;
            let out = infer(&s, spec, &c, 7);
            if out
                .confidence_of(person_label)
                .map(|conf| conf >= 0.5)
                .unwrap_or(false)
            {
                hits += 1;
            }
        }
        assert!(
            hits > 75,
            "flagship should find the person most of the time ({hits}/100)"
        );
    }

    /// Shared difficulty nests same-task detections: whatever a low-recall
    /// variant detects (outside the specialist's slice), the flagship
    /// detects too.
    #[test]
    fn compact_detections_are_subset_of_flagship_keypoints() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let flagship = zoo
            .models_for(Task::PoseEstimation)
            .find(|s| s.quality.tier == SkillTier::Flagship)
            .unwrap();
        let compact = zoo
            .models_for(Task::PoseEstimation)
            .find(|s| s.quality.tier == SkillTier::Compact)
            .unwrap();
        for seed in 0..50 {
            let mut s = person_scene();
            s.id = 100 + seed;
            let of = infer(&s, flagship, &c, 7);
            let oc = infer(&s, compact, &c, 7);
            for d in &oc.detections {
                assert!(
                    of.confidence_of(d.label).is_some(),
                    "flagship must cover compact's keypoint {} (scene {})",
                    d.label,
                    s.id
                );
            }
        }
    }

    #[test]
    fn empty_scene_starves_person_models() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let mut valuable = 0;
        for seed in 0..50 {
            let mut s = empty_scene();
            s.id = 1000 + seed;
            for spec in zoo.specs() {
                if matches!(
                    spec.task,
                    Task::FaceDetection
                        | Task::FaceLandmark
                        | Task::PoseEstimation
                        | Task::EmotionClassification
                        | Task::GenderClassification
                        | Task::HandLandmark
                        | Task::DogClassification
                ) {
                    let out = infer(&s, spec, &c, 7);
                    valuable += out.valuable(0.5).count();
                }
            }
        }
        assert_eq!(
            valuable, 0,
            "person/dog models must produce no valuable labels on landscapes"
        );
    }

    #[test]
    fn place_classifier_always_outputs_something() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        for seed in 0..50 {
            let mut s = empty_scene();
            s.id = 2000 + seed;
            for spec in zoo.models_for(Task::PlaceClassification) {
                let out = infer(&s, spec, &c, 7);
                assert!(!out.is_empty(), "classifier must classify");
            }
        }
    }

    #[test]
    fn outputs_respect_task_label_ranges() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let s = person_scene();
        for spec in zoo.specs() {
            let out = infer(&s, spec, &c, 7);
            for d in &out.detections {
                assert_eq!(
                    c.task_of(d.label),
                    spec.task,
                    "{} emitted out-of-task label",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn dog_classifier_finds_breed() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let spec = zoo.models_for(Task::DogClassification).next().unwrap();
        let mut hits = 0;
        for seed in 0..100 {
            let s = Scene {
                id: 3000 + seed,
                place: Place {
                    index: 24,
                    indoor: false,
                },
                persons: vec![],
                dogs: vec![DogInstance {
                    breed: 7,
                    scale: 0.9,
                }],
                objects: vec![1],
                template: TemplateKind::AnimalScene,
            };
            let out = infer(&s, spec, &c, 7);
            let breed_label = c.label(Task::DogClassification, 7);
            if out
                .confidence_of(breed_label)
                .map(|conf| conf >= 0.5)
                .unwrap_or(false)
            {
                hits += 1;
            }
        }
        assert!(
            hits > 70,
            "dog flagship should identify the breed ({hits}/100)"
        );
    }

    #[test]
    fn infer_all_covers_zoo() {
        let zoo = ModelZoo::standard();
        let c = catalog();
        let outs = infer_all(&person_scene(), &zoo, &c, 7);
        assert_eq!(outs.len(), 30);
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o.model.index(), i);
        }
    }
}
