//! Model outputs: detections (label + confidence) per model execution.

use crate::label::LabelId;
use crate::spec::ModelId;
use serde::{Deserialize, Serialize};

/// A single output label with its confidence in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The label produced.
    pub label: LabelId,
    /// The model's confidence in the label.
    pub confidence: f32,
}

impl Detection {
    /// Construct a detection, clamping confidence into `[0, 1]`.
    pub fn new(label: LabelId, confidence: f32) -> Self {
        Self {
            label,
            confidence: confidence.clamp(0.0, 1.0),
        }
    }
}

/// The full output `O({m}, d)` of one model executed on one data item.
///
/// Detections are sorted by label id and deduplicated (keeping the highest
/// confidence) at construction time, so downstream set algebra is cheap.
/// Every query reads through [`OutputView`], the borrowed form an item's
/// ground truth hands out for each of its models.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ModelOutput {
    /// The model that produced this output.
    pub model: ModelId,
    /// Sorted-by-label, deduplicated detections.
    pub detections: Vec<Detection>,
}

impl ModelOutput {
    /// Build an output from raw detections: sorts by label and keeps the
    /// maximum confidence per label.
    pub fn new(model: ModelId, mut detections: Vec<Detection>) -> Self {
        normalize_run(&mut detections, 0);
        Self { model, detections }
    }

    /// This output as a borrowed view.
    pub fn view(&self) -> OutputView<'_> {
        OutputView {
            model: self.model,
            detections: &self.detections,
        }
    }

    /// Whether the model produced nothing at all (white boxes of Fig. 1).
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Number of detections.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Confidence for `label`, if the model output it.
    pub fn confidence_of(&self, label: LabelId) -> Option<f32> {
        self.view().confidence_of(label)
    }

    /// Detections at or above a confidence threshold ("valuable" outputs).
    pub fn valuable(&self, threshold: f32) -> impl Iterator<Item = &Detection> + '_ {
        self.view().valuable(threshold)
    }

    /// Sum of confidences of detections at or above `threshold`.
    pub fn value(&self, threshold: f32) -> f64 {
        self.view().value(threshold)
    }
}

/// One model's output, borrowed: what `ItemTruth::output` hands out from
/// an item's flat detection buffer, and what a [`ModelOutput`] reads
/// through. Detections are sorted by label and unique.
#[derive(Debug, Clone, Copy)]
pub struct OutputView<'a> {
    /// The model that produced this output.
    pub model: ModelId,
    /// Sorted-by-label, deduplicated detections.
    pub detections: &'a [Detection],
}

impl<'a> OutputView<'a> {
    /// Whether the model produced nothing at all (white boxes of Fig. 1).
    pub fn is_empty(self) -> bool {
        self.detections.is_empty()
    }

    /// Number of detections.
    pub fn len(self) -> usize {
        self.detections.len()
    }

    /// Confidence for `label`, if the model output it.
    pub fn confidence_of(self, label: LabelId) -> Option<f32> {
        self.detections
            .binary_search_by_key(&label, |d| d.label)
            .ok()
            .map(|i| self.detections[i].confidence)
    }

    /// Detections at or above a confidence threshold ("valuable" outputs).
    pub fn valuable(self, threshold: f32) -> impl Iterator<Item = &'a Detection> + 'a {
        self.detections
            .iter()
            .filter(move |d| d.confidence >= threshold)
    }

    /// Sum of confidences of detections at or above `threshold`.
    pub fn value(self, threshold: f32) -> f64 {
        self.valuable(threshold)
            .map(|d| f64::from(d.confidence))
            .sum()
    }
}

/// Sort the run `detections[start..]` by label and keep the highest
/// confidence per label — what [`ModelOutput::new`] does to its whole
/// vector, done in place to the last run of a flat buffer.
pub fn normalize_run(detections: &mut Vec<Detection>, start: usize) {
    detections[start..].sort_by(|a, b| {
        a.label.cmp(&b.label).then(
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    let mut kept = start;
    for i in start..detections.len() {
        if kept == start || detections[kept - 1].label != detections[i].label {
            detections[kept] = detections[i];
            kept += 1;
        }
    }
    detections.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(l: u16, c: f32) -> Detection {
        Detection::new(LabelId(l), c)
    }

    #[test]
    fn new_sorts_and_dedups_keeping_max_confidence() {
        let out = ModelOutput::new(ModelId(0), vec![det(5, 0.3), det(2, 0.9), det(5, 0.8)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.detections[0].label, LabelId(2));
        assert_eq!(out.detections[1].label, LabelId(5));
        assert!((out.confidence_of(LabelId(5)).unwrap() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn confidence_clamped() {
        assert_eq!(det(0, 1.5).confidence, 1.0);
        assert_eq!(det(0, -0.5).confidence, 0.0);
    }

    #[test]
    fn valuable_filters_by_threshold() {
        let out = ModelOutput::new(ModelId(1), vec![det(1, 0.96), det(2, 0.43), det(3, 0.87)]);
        let v: Vec<_> = out.valuable(0.5).map(|d| d.label).collect();
        assert_eq!(v, vec![LabelId(1), LabelId(3)]);
        assert!((out.value(0.5) - (0.96f64 + 0.87f64)).abs() < 1e-6);
    }

    #[test]
    fn empty_output() {
        let out = ModelOutput::new(ModelId(2), vec![]);
        assert!(out.is_empty());
        assert_eq!(out.value(0.0), 0.0);
        assert!(out.confidence_of(LabelId(0)).is_none());
    }
}
