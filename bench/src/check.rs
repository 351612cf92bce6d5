//! The correctness oracle: every answer is compared with what the serial
//! engine computes for the same item and budget.

use crate::workload::{Prepared, THRESHOLD};
use ams::models::LabelId;
use ams::prelude::*;

/// The serial engine's answer for one pool item.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// [`labels_digest`] of `label_item`'s labels.
    pub digest: u64,
    /// `label_item`'s value, `f(S, d)`.
    pub value: f64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the raw bytes of a label list: ids and the confidences' bit
/// patterns, so equal digests mean byte-identical labels.
pub fn labels_digest(labels: &[(LabelId, f32)]) -> u64 {
    labels.iter().fold(FNV_OFFSET, |h, (id, conf)| {
        fnv(fnv(h, &id.0.to_le_bytes()), &conf.to_bits().to_le_bytes())
    })
}

/// Order-independent digest of a whole run: the XOR of one FNV term per
/// answered request, keyed by the request's stream position. Two runs of
/// one seed that answer the same requests with the same labels agree on
/// it, in whatever order completions arrive.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest(pub u64);

impl RunDigest {
    pub fn add(&mut self, position: u64, labels_digest: u64) {
        let h = fnv(FNV_OFFSET, &position.to_le_bytes());
        self.0 ^= fnv(h, &labels_digest.to_le_bytes());
    }
}

/// Whether a `Labeled` answer to the request at stream position `k` is
/// right. A frozen server must return the serial engine's labels, byte for
/// byte. An adapting server's weights are not the reference's, so its
/// answer is checked for self-consistency instead: the value it reports
/// must be the value of the model set it says it executed.
pub fn answer_is_right(prep: &Prepared, k: usize, result: &LabelResult) -> bool {
    if prep.spec.adapt {
        let item = prep.item(k);
        result.label_value == item.value_of_set(&result.executed, THRESHOLD)
    } else {
        labels_digest(&result.labels) == prep.reference[prep.stream[k] as usize].digest
    }
}

/// The invariants every server report must satisfy, as error messages.
pub fn report_faults(report: &ServeReport) -> Vec<String> {
    let mut faults = Vec::new();
    if !report.is_conserved() {
        faults.push("ServeReport::is_conserved() is false".to_string());
    }
    if !report.events_reconcile() {
        faults.push("ServeReport::events_reconcile() is false".to_string());
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(seed: u32) -> Vec<(LabelId, f32)> {
        (0..5)
            .map(|i| (LabelId((seed + i) as u16), 0.5 + (seed + i) as f32 / 100.0))
            .collect()
    }

    #[test]
    fn run_digest_ignores_completion_order() {
        let terms: Vec<(u64, u64)> = (0..50u32)
            .map(|k| (u64::from(k), labels_digest(&labels(k))))
            .collect();
        let mut forward = RunDigest::default();
        terms.iter().for_each(|&(k, d)| forward.add(k, d));
        let mut backward = RunDigest::default();
        terms.iter().rev().for_each(|&(k, d)| backward.add(k, d));
        assert_eq!(forward, backward);
        assert_ne!(forward, RunDigest::default());
    }

    #[test]
    fn run_digest_binds_labels_to_their_request() {
        let (a, b) = (labels_digest(&labels(1)), labels_digest(&labels(2)));
        let mut right = RunDigest::default();
        right.add(0, a);
        right.add(1, b);
        let mut swapped = RunDigest::default();
        swapped.add(0, b);
        swapped.add(1, a);
        assert_ne!(right, swapped, "the same labels on other requests differ");
    }

    #[test]
    fn labels_digest_sees_every_bit() {
        let base = labels(3);
        let mut nudged = base.clone();
        nudged[2].1 = f32::from_bits(nudged[2].1.to_bits() + 1);
        assert_ne!(labels_digest(&base), labels_digest(&nudged));
        assert_ne!(labels_digest(&base), labels_digest(&base[..4]));
    }
}
