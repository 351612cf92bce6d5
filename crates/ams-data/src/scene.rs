//! Latent scene graphs: the ground-truth semantic content of a data item.

use serde::{Deserialize, Serialize};

/// A person in a scene and which of their attributes are observable.
///
/// Visibility flags gate which tasks can produce valuable output: a face
/// detector needs `face_visible`, a pose estimator needs `body_visible`,
/// hand landmarks need `hands_visible`, and so on — this is the content
/// dependence that makes model value unpredictable before execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Person {
    /// Apparent size in frame, `0.3..=1.0`; scales detection probability.
    pub scale: f32,
    /// Whether the face is visible (enables face det/landmark/emotion).
    pub face_visible: bool,
    /// Whether enough of the body is visible for pose keypoints.
    pub body_visible: bool,
    /// Whether hands are visible (enables hand landmarks).
    pub hands_visible: bool,
    /// Gender attribute (within-task index into the 2 gender labels).
    pub gender: u8,
    /// Emotion attribute (within-task index into the 7 emotion labels);
    /// only observable when the face is visible.
    pub emotion: u8,
    /// Action the person performs (within-task index into the 400 action
    /// labels), if any.
    pub action: Option<u16>,
}

/// A dog in a scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DogInstance {
    /// Breed (within-task index into the 120 dog labels).
    pub breed: u16,
    /// Apparent size in frame, `0.3..=1.0`.
    pub scale: f32,
}

/// The place a scene depicts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Place {
    /// Within-task index into the 365 place labels.
    pub index: u16,
    /// Whether the place is an indoor category.
    pub indoor: bool,
}

/// The full latent content of one data item.
///
/// A `Scene` is what a photograph *contains*; model outputs are noisy,
/// partial views of it produced by [`fn@crate::infer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// Unique id within its dataset stream (also the determinism key).
    pub id: u64,
    /// The place.
    pub place: Place,
    /// People present.
    pub persons: Vec<Person>,
    /// Dogs present.
    pub dogs: Vec<DogInstance>,
    /// Non-person, non-dog objects present (within-task indices into the 80
    /// object labels), sorted and deduplicated.
    pub objects: Vec<u16>,
    /// Which template generated the scene (for analysis/debugging).
    pub template: crate::templates::TemplateKind,
}

impl Scene {
    /// Whether any person's face is visible.
    pub fn any_face(&self) -> bool {
        self.persons.iter().any(|p| p.face_visible)
    }

    /// Whether any person's body is visible (pose-estimable).
    pub fn any_body(&self) -> bool {
        self.persons.iter().any(|p| p.body_visible)
    }

    /// Whether any person's hands are visible.
    pub fn any_hands(&self) -> bool {
        self.persons.iter().any(|p| p.hands_visible)
    }

    /// Largest person scale, or 0 when no people are present.
    pub fn max_person_scale(&self) -> f32 {
        self.persons.iter().map(|p| p.scale).fold(0.0, f32::max)
    }

    /// Largest dog scale, or 0 when no dogs are present.
    pub fn max_dog_scale(&self) -> f32 {
        self.dogs.iter().map(|d| d.scale).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TemplateKind;

    fn person(face: bool, body: bool, hands: bool, scale: f32) -> Person {
        Person {
            scale,
            face_visible: face,
            body_visible: body,
            hands_visible: hands,
            gender: 0,
            emotion: 3,
            action: None,
        }
    }

    #[test]
    fn visibility_aggregates() {
        let s = Scene {
            id: 0,
            place: Place {
                index: 0,
                indoor: true,
            },
            persons: vec![
                person(true, false, false, 0.5),
                person(false, true, true, 0.9),
            ],
            dogs: vec![],
            objects: vec![],
            template: TemplateKind::IndoorSocial,
        };
        assert!(s.any_face());
        assert!(s.any_body());
        assert!(s.any_hands());
        assert!((s.max_person_scale() - 0.9).abs() < 1e-6);
        assert_eq!(s.max_dog_scale(), 0.0);
    }

    #[test]
    fn empty_scene_has_no_visibility() {
        let s = Scene {
            id: 1,
            place: Place {
                index: 25,
                indoor: false,
            },
            persons: vec![],
            dogs: vec![DogInstance {
                breed: 0,
                scale: 0.7,
            }],
            objects: vec![1],
            template: TemplateKind::AnimalScene,
        };
        assert!(!s.any_face());
        assert!(!s.any_body());
        assert!(!s.any_hands());
        assert!((s.max_dog_scale() - 0.7).abs() < 1e-6);
    }
}
