//! Dataset profiles and train/test splitting.
//!
//! The five profiles mirror the content skew of the paper's five public
//! datasets (§VI-A): Stanford40 is human-action-centric, PASCAL VOC covers a
//! broad range of objects/animals/vehicles, MSCOCO is objects-in-context,
//! MirFlickr is social photography, and Places365 is scene-centric. A sixth
//! profile (`DogHeavy`) supports the §VI-D "extreme transfer" limitation
//! study.

use crate::generator::SceneGenerator;
use crate::scene::Scene;
use crate::templates::TemplateKind;
use serde::{Deserialize, Serialize};

/// Content profile of a dataset (a mixture over scene templates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetProfile {
    /// Human-action recognition dataset (Dataset1 of §VI-D).
    Stanford40,
    /// Broad visual-object dataset (Dataset2 of §VI-D).
    PascalVoc2012,
    /// Objects-in-context dataset.
    Coco2017,
    /// Social photography dataset.
    MirFlickr25,
    /// Scene-centric dataset.
    Places365,
    /// Degenerate dog-only profile for the extreme-transfer study.
    DogHeavy,
}

impl DatasetProfile {
    /// The three "diverse" datasets used for the §VI-B prediction study.
    pub const PREDICTION_TRIO: [DatasetProfile; 3] = [
        DatasetProfile::Coco2017,
        DatasetProfile::MirFlickr25,
        DatasetProfile::Places365,
    ];

    /// All profiles.
    pub const ALL: [DatasetProfile; 6] = [
        DatasetProfile::Stanford40,
        DatasetProfile::PascalVoc2012,
        DatasetProfile::Coco2017,
        DatasetProfile::MirFlickr25,
        DatasetProfile::Places365,
        DatasetProfile::DogHeavy,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::Stanford40 => "Stanford40",
            DatasetProfile::PascalVoc2012 => "PASCAL VOC 2012",
            DatasetProfile::Coco2017 => "MSCOCO 2017",
            DatasetProfile::MirFlickr25 => "MirFlickr25",
            DatasetProfile::Places365 => "Places365",
            DatasetProfile::DogHeavy => "DogHeavy (synthetic)",
        }
    }

    /// Template mixture weights for the profile.
    pub fn mixture(self) -> Vec<(TemplateKind, f64)> {
        use TemplateKind::*;
        match self {
            DatasetProfile::Stanford40 => vec![
                (IndoorSocial, 0.25),
                (OutdoorSport, 0.35),
                (Portrait, 0.15),
                (StreetScene, 0.15),
                (AnimalScene, 0.05),
                (ObjectStill, 0.03),
                (Landscape, 0.02),
            ],
            DatasetProfile::PascalVoc2012 => vec![
                (AnimalScene, 0.25),
                (StreetScene, 0.20),
                (ObjectStill, 0.20),
                (IndoorSocial, 0.10),
                (OutdoorSport, 0.10),
                (Portrait, 0.05),
                (Landscape, 0.10),
            ],
            DatasetProfile::Coco2017 => vec![
                (StreetScene, 0.22),
                (IndoorSocial, 0.20),
                (ObjectStill, 0.18),
                (OutdoorSport, 0.15),
                (AnimalScene, 0.15),
                (Portrait, 0.05),
                (Landscape, 0.05),
            ],
            DatasetProfile::MirFlickr25 => vec![
                (Portrait, 0.25),
                (IndoorSocial, 0.20),
                (Landscape, 0.20),
                (StreetScene, 0.15),
                (OutdoorSport, 0.10),
                (AnimalScene, 0.07),
                (ObjectStill, 0.03),
            ],
            DatasetProfile::Places365 => vec![
                (Landscape, 0.30),
                (StreetScene, 0.20),
                (ObjectStill, 0.15),
                (IndoorSocial, 0.15),
                (OutdoorSport, 0.10),
                (AnimalScene, 0.05),
                (Portrait, 0.05),
            ],
            DatasetProfile::DogHeavy => vec![(AnimalScene, 0.9), (Landscape, 0.1)],
        }
    }

    /// Stable stream tag so different profiles draw decorrelated streams
    /// from the same world seed.
    fn stream_tag(self) -> u64 {
        DatasetProfile::ALL
            .iter()
            .position(|&p| p == self)
            .expect("profile in ALL") as u64
            + 1
    }

    /// Build a generator for this profile.
    pub fn generator(self, world_seed: u64) -> SceneGenerator {
        SceneGenerator::new(self.mixture(), world_seed, self.stream_tag())
    }
}

/// A materialized dataset: scenes plus the profile that produced them.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Content profile.
    pub profile: DatasetProfile,
    /// The scenes, ids `0..n`.
    pub scenes: Vec<Scene>,
    /// World seed the scenes were drawn under.
    pub world_seed: u64,
}

/// A train/test split of a dataset (by reference into the parent).
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// Number of leading scenes forming the training set.
    pub train_len: usize,
    /// Total number of scenes.
    pub total: usize,
}

impl Dataset {
    /// Generate `n` scenes of `profile` under `world_seed`.
    pub fn generate(profile: DatasetProfile, n: usize, world_seed: u64) -> Self {
        Self {
            profile,
            scenes: profile.generator(world_seed).scenes(n),
            world_seed,
        }
    }

    /// Number of scenes.
    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.scenes.is_empty()
    }

    /// The paper's 1:4 train/test split: the first 20% of scenes train the
    /// agent, the rest test it. (Scenes are i.i.d., so a prefix split is a
    /// random split.)
    pub fn split_1_to_4(&self) -> Split {
        Split {
            train_len: self.len() / 5,
            total: self.len(),
        }
    }

    /// An arbitrary-ratio split (`train_fraction` in `(0,1)`).
    pub fn split(&self, train_fraction: f64) -> Split {
        assert!((0.0..1.0).contains(&train_fraction));
        let train_len = ((self.len() as f64) * train_fraction).round() as usize;
        Split {
            train_len: train_len.min(self.len()),
            total: self.len(),
        }
    }

    /// Training scenes of a split.
    pub fn train(&self, split: Split) -> &[Scene] {
        &self.scenes[..split.train_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixtures_sum_to_one() {
        for p in DatasetProfile::ALL {
            let sum: f64 = p.mixture().iter().map(|(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", p.name());
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = Dataset::generate(DatasetProfile::Coco2017, 20, 7);
        let b = Dataset::generate(DatasetProfile::Coco2017, 20, 7);
        for (x, y) in a.scenes.iter().zip(&b.scenes) {
            assert_eq!(x.place.index, y.place.index);
            assert_eq!(x.objects, y.objects);
        }
    }

    #[test]
    fn profiles_have_distinct_content() {
        let s40 = Dataset::generate(DatasetProfile::Stanford40, 400, 7);
        let p365 = Dataset::generate(DatasetProfile::Places365, 400, 7);
        let people = |d: &Dataset| {
            d.scenes.iter().filter(|s| !s.persons.is_empty()).count() as f64 / d.len() as f64
        };
        assert!(
            people(&s40) > people(&p365) + 0.25,
            "Stanford40 ({}) should be much more person-heavy than Places365 ({})",
            people(&s40),
            people(&p365),
        );
    }

    #[test]
    fn split_1_to_4_proportions() {
        let d = Dataset::generate(DatasetProfile::MirFlickr25, 100, 1);
        let s = d.split_1_to_4();
        assert_eq!(d.train(s).len(), 20);
        assert_eq!(s.total - s.train_len, 80);
    }

    #[test]
    fn custom_split() {
        let d = Dataset::generate(DatasetProfile::PascalVoc2012, 10, 1);
        let s = d.split(0.5);
        assert_eq!(d.train(s).len(), 5);
        assert_eq!(s.total - s.train_len, 5);
    }

    #[test]
    fn scene_ids_are_dense() {
        let d = Dataset::generate(DatasetProfile::Places365, 10, 3);
        for (i, s) in d.scenes.iter().enumerate() {
            assert_eq!(s.id, i as u64);
        }
    }
}
