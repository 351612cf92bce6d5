//! A fixed-width bitset over the label catalog — the "labeling state" of the
//! paper (the n-dimensional binary observation vector, n = 1104).

use crate::label::LabelId;
use serde::{Deserialize, Serialize};

/// Bitset over label ids, used as the labeling state `s` of the MDP and for
/// ground-truth set algebra.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelSet {
    words: Vec<u64>,
    len: usize,
}

impl LabelSet {
    /// An empty set over a universe of `len` labels.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Insert a label. Returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: LabelId) -> bool {
        let i = id.index();
        debug_assert!(i < self.len, "label {i} outside universe {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] >> b & 1;
        self.words[w] |= 1 << b;
        was == 0
    }

    /// Remove a label. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: LabelId) -> bool {
        let i = id.index();
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] >> b & 1;
        self.words[w] &= !(1 << b);
        was == 1
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: LabelId) -> bool {
        let i = id.index();
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of labels in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all labels.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union with another set of the same universe.
    pub fn union_with(&mut self, other: &LabelSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &LabelSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate set members in increasing label order.
    pub fn iter(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(LabelId((wi * 64 + b) as u16))
            })
        })
    }

    /// The set members as a dense vector of raw indices (sparse encoding of
    /// the binary observation vector, used by the Q-network's sparse path).
    pub fn to_sparse(&self) -> Vec<u32> {
        self.iter().map(|l| u32::from(l.0)).collect()
    }

    /// Write the sparse encoding into `out`, reusing its allocation.
    /// The hot-path variant of [`LabelSet::to_sparse`]: schedulers and the
    /// trainer call this once per decision step.
    pub fn write_sparse(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.iter().map(|l| u32::from(l.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = LabelSet::new(1104);
        assert!(s.insert(LabelId(0)));
        assert!(s.insert(LabelId(1103)));
        assert!(!s.insert(LabelId(0)), "double insert reports not-new");
        assert!(s.contains(LabelId(0)));
        assert!(s.contains(LabelId(1103)));
        assert!(!s.contains(LabelId(500)));
        assert_eq!(s.count(), 2);
        assert!(s.remove(LabelId(0)));
        assert!(!s.remove(LabelId(0)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn iter_in_order() {
        let mut s = LabelSet::new(200);
        for i in [150u16, 3, 64, 65, 0] {
            s.insert(LabelId(i));
        }
        let got: Vec<u16> = s.iter().map(|l| l.0).collect();
        assert_eq!(got, vec![0, 3, 64, 65, 150]);
        assert_eq!(s.to_sparse(), vec![0u32, 3, 64, 65, 150]);
    }

    #[test]
    fn union_and_subset() {
        let mut a = LabelSet::new(128);
        let mut b = LabelSet::new(128);
        a.insert(LabelId(1));
        b.insert(LabelId(1));
        b.insert(LabelId(100));
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.union_with(&b);
        assert_eq!(a.count(), 2);
        assert!(b.is_subset_of(&a));
    }

    #[test]
    fn clear_empties() {
        let mut s = LabelSet::new(64);
        s.insert(LabelId(10));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = LabelSet::new(10);
        assert!(!s.contains(LabelId(100)));
    }
}
