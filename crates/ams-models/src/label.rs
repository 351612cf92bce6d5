//! The global label catalog: 1104 labels across the ten tasks.
//!
//! Labels are identified by a dense [`LabelId`] (0..1104) laid out task by
//! task in [`crate::Task::ALL`] order. A small set of semantically meaningful
//! names (person, dog, pub, riding bike, …) is assigned to the low indices of
//! each task so that handcrafted rules (Table II) and examples can refer to
//! them; the remainder get synthetic names (`place_123`, `action_241`, …).

use crate::task::Task;
use serde::{Deserialize, Serialize};

/// Dense identifier of a label in the global catalog (0..=1103).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabelId(pub u16);

impl LabelId {
    /// The raw index as `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LabelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Named object classes placed at the head of the object-detection range.
///
/// The first entries matter to the synthetic scene generator and the
/// handcrafted rules: `person`, `dog`, vehicles, household items.
const OBJECT_NAMES: &[&str] = &[
    "person",
    "dog",
    "cat",
    "bicycle",
    "car",
    "motorcycle",
    "bus",
    "truck",
    "boat",
    "bird",
    "horse",
    "sheep",
    "cow",
    "elephant",
    "bear",
    "zebra",
    "giraffe",
    "backpack",
    "umbrella",
    "handbag",
    "tie",
    "suitcase",
    "frisbee",
    "skis",
    "snowboard",
    "sports ball",
    "kite",
    "baseball bat",
    "skateboard",
    "surfboard",
    "tennis racket",
    "bottle",
    "wine glass",
    "cup",
    "fork",
    "knife",
    "spoon",
    "bowl",
    "banana",
    "apple",
    "sandwich",
    "orange",
    "broccoli",
    "carrot",
    "pizza",
    "donut",
    "cake",
    "chair",
    "couch",
    "potted plant",
    "bed",
    "dining table",
    "toilet",
    "tv monitor",
    "laptop",
    "mouse",
    "remote",
    "keyboard",
    "cell phone",
    "microwave",
    "oven",
    "toaster",
    "sink",
    "refrigerator",
    "book",
    "clock",
    "vase",
    "scissors",
    "teddy bear",
    "hair drier",
    "toothbrush",
    "traffic light",
    "fire hydrant",
    "stop sign",
    "parking meter",
    "bench",
    "wheelchair",
    "stroller",
    "ladder",
    "guitar",
];

/// Named place categories at the head of the place-classification range.
/// Indoor places come first (indices 0..INDOOR_PLACE_COUNT are indoor).
const PLACE_NAMES: &[&str] = &[
    // indoor (first 20)
    "pub",
    "beer hall",
    "bathroom",
    "mall",
    "lobby",
    "kitchen",
    "bedroom",
    "office",
    "classroom",
    "gym",
    "restaurant",
    "museum",
    "library",
    "supermarket",
    "living room",
    "corridor",
    "stage",
    "garage",
    "church",
    "airport terminal",
    // outdoor
    "mountain",
    "beach",
    "forest",
    "street",
    "park",
    "stadium",
    "lawn",
    "lake",
    "desert",
    "harbor",
    "playground",
    "farm",
    "bridge",
    "campsite",
    "ski slope",
    "river",
    "garden",
    "parking lot",
    "plaza",
    "trail",
];

/// Number of leading place labels that are indoor categories.
pub const INDOOR_PLACE_COUNT: usize = 20;

/// Number of named (non-synthetic) place labels.
pub const NAMED_PLACE_COUNT: usize = 40;

/// Named action categories at the head of the action-classification range.
/// The first 12 are sports actions.
const ACTION_NAMES: &[&str] = &[
    // sports actions (first 12)
    "riding bike",
    "playing soccer",
    "playing basketball",
    "swimming",
    "surfing",
    "skiing",
    "skateboarding",
    "playing tennis",
    "climbing",
    "running",
    "rowing",
    "playing golf",
    // general actions
    "drinking beer",
    "making up",
    "falling down",
    "cooking",
    "reading",
    "writing",
    "dancing",
    "singing",
    "playing guitar",
    "taking photo",
    "shaking hands",
    "hugging",
    "waving",
    "eating",
    "drinking coffee",
    "walking the dog",
    "phoning",
    "applauding",
];

/// Number of leading action labels that are sports actions.
pub const SPORT_ACTION_COUNT: usize = 12;

/// Named dog breeds at the head of the dog-classification range.
const DOG_NAMES: &[&str] = &[
    "akita",
    "beagle",
    "border collie",
    "boxer",
    "chihuahua",
    "corgi",
    "dachshund",
    "dalmatian",
    "german shepherd",
    "golden retriever",
    "great dane",
    "greyhound",
    "husky",
    "labrador",
    "malamute",
    "pomeranian",
    "poodle",
    "pug",
    "rottweiler",
    "samoyed",
    "shiba inu",
    "st bernard",
    "terrier",
    "whippet",
];

const EMOTION_NAMES: [&str; 7] = [
    "angry", "disgust", "fear", "happy", "sad", "surprise", "neutral",
];

const GENDER_NAMES: [&str; 2] = ["male", "female"];

const POSE_KEYPOINT_NAMES: [&str; 17] = [
    "nose",
    "left eye",
    "right eye",
    "left ear",
    "right ear",
    "left shoulder",
    "right shoulder",
    "left elbow",
    "right elbow",
    "left wrist",
    "right wrist",
    "left hip",
    "right hip",
    "left knee",
    "right knee",
    "left ankle",
    "right ankle",
];

/// The global label catalog.
///
/// Construction is deterministic; two catalogs are always identical, so the
/// type is cheap to share behind an `Arc` or rebuild at will.
#[derive(Debug, Clone)]
pub struct LabelCatalog {
    names: Vec<String>,
    tasks: Vec<Task>,
}

impl LabelCatalog {
    /// Build the standard 1104-label catalog.
    pub fn standard() -> Self {
        let total = Task::total_labels();
        let mut names = Vec::with_capacity(total);
        let mut tasks = Vec::with_capacity(total);
        for task in Task::ALL {
            for i in 0..task.label_count() {
                names.push(Self::name_for(task, i));
                tasks.push(task);
            }
        }
        debug_assert_eq!(names.len(), 1104);
        Self { names, tasks }
    }

    fn name_for(task: Task, i: usize) -> String {
        match task {
            Task::ObjectDetection => OBJECT_NAMES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("object_{i}")),
            Task::PlaceClassification => PLACE_NAMES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("place_{i}")),
            Task::FaceDetection => "face".to_string(),
            Task::FaceLandmark => format!("face_kp_{i}"),
            Task::PoseEstimation => POSE_KEYPOINT_NAMES[i].to_string(),
            Task::EmotionClassification => EMOTION_NAMES[i].to_string(),
            Task::GenderClassification => GENDER_NAMES[i].to_string(),
            Task::ActionClassification => ACTION_NAMES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("action_{i}")),
            Task::HandLandmark => {
                let hand = if i < 21 { "left" } else { "right" };
                format!("hand_{hand}_kp_{}", i % 21)
            }
            Task::DogClassification => DOG_NAMES
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("dog_breed_{i}")),
        }
    }

    /// Total number of labels (always 1104 for the standard catalog).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the catalog is empty (never true for the standard catalog).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The display name of a label.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// The task a label belongs to.
    pub fn task_of(&self, id: LabelId) -> Task {
        self.tasks[id.index()]
    }

    /// The global [`LabelId`] of the `i`-th label of `task`.
    ///
    /// # Panics
    /// Panics if `i >= task.label_count()`.
    pub fn label(&self, task: Task, i: usize) -> LabelId {
        assert!(
            i < task.label_count(),
            "label index {i} out of range for {task} ({} labels)",
            task.label_count()
        );
        LabelId((task.label_offset() + i) as u16)
    }

    /// The contiguous range of [`LabelId`] indices owned by `task`.
    pub fn task_range(&self, task: Task) -> std::ops::Range<usize> {
        let off = task.label_offset();
        off..off + task.label_count()
    }

    /// Look up a label by exact name. Linear scan — intended for tests,
    /// examples and rule construction, not hot paths.
    pub fn find(&self, name: &str) -> Option<LabelId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| LabelId(i as u16))
    }

    /// Iterator over `(LabelId, name, task)` for the whole catalog.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str, Task)> + '_ {
        self.names
            .iter()
            .zip(&self.tasks)
            .enumerate()
            .map(|(i, (n, t))| (LabelId(i as u16), n.as_str(), *t))
    }

    /// Whether a place label (by within-task index) is an indoor category.
    pub fn place_is_indoor(place_index: usize) -> bool {
        place_index < INDOOR_PLACE_COUNT
    }
}

impl Default for LabelCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_1104_labels() {
        let c = LabelCatalog::standard();
        assert_eq!(c.len(), 1104);
        assert!(!c.is_empty());
    }

    #[test]
    fn task_ranges_partition_catalog() {
        let c = LabelCatalog::standard();
        let mut covered = vec![false; c.len()];
        for t in Task::ALL {
            for i in c.task_range(t) {
                assert!(!covered[i], "label {i} covered twice");
                covered[i] = true;
                assert_eq!(c.task_of(LabelId(i as u16)), t);
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn named_labels_resolve() {
        let c = LabelCatalog::standard();
        let person = c.find("person").expect("person exists");
        assert_eq!(person, c.label(Task::ObjectDetection, 0));
        let dog = c.find("dog").expect("dog exists");
        assert_eq!(dog, c.label(Task::ObjectDetection, 1));
        let face = c.find("face").expect("face exists");
        assert_eq!(c.task_of(face), Task::FaceDetection);
        let pub_ = c.find("pub").expect("pub exists");
        assert_eq!(c.task_of(pub_), Task::PlaceClassification);
        assert!(c.find("drinking beer").is_some());
        assert!(c.find("akita").is_some());
        assert!(c.find("no such label").is_none());
    }

    #[test]
    fn label_names_are_unique() {
        let c = LabelCatalog::standard();
        let mut names: Vec<&str> = c.names.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate label names");
    }

    #[test]
    fn indoor_and_sport_flags() {
        assert!(LabelCatalog::place_is_indoor(0));
        assert!(LabelCatalog::place_is_indoor(INDOOR_PLACE_COUNT - 1));
        assert!(!LabelCatalog::place_is_indoor(INDOOR_PLACE_COUNT));
    }

    #[test]
    fn label_accessor_bounds() {
        let c = LabelCatalog::standard();
        // last label of last task is valid
        let last = c.label(Task::DogClassification, 119);
        assert_eq!(last.index(), 1103);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_accessor_panics_out_of_range() {
        let c = LabelCatalog::standard();
        let _ = c.label(Task::FaceDetection, 1);
    }

    #[test]
    fn iter_yields_all() {
        let c = LabelCatalog::standard();
        assert_eq!(c.iter().count(), 1104);
        let (id, name, task) = c.iter().next().unwrap();
        assert_eq!(id, LabelId(0));
        assert_eq!(name, "person");
        assert_eq!(task, Task::ObjectDetection);
    }
}
