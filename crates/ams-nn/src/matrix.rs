//! A minimal row-major `f32` matrix.

use serde::{Deserialize, Serialize};

/// Row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Flat view of the storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Set every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshape in place to `rows x cols`, reusing the existing allocation
    /// when it is large enough. All elements are zeroed.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// `out += scale * row` (axpy over a contiguous row).
#[inline]
pub fn axpy(out: &mut [f32], row: &[f32], scale: f32) {
    debug_assert_eq!(out.len(), row.len());
    for (o, r) in out.iter_mut().zip(row) {
        *o += scale * r;
    }
}

/// Dot product of two equal-length slices.
///
/// Accumulates in eight parallel lanes: a naive `sum()` is a sequential
/// float dependency chain the compiler must not reorder, which caps it at
/// one add per few cycles; independent lanes vectorize.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let (av, bv) = (
            &a[c * LANES..(c + 1) * LANES],
            &b[c * LANES..(c + 1) * LANES],
        );
        for k in 0..LANES {
            acc[k] += av[k] * bv[k];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * LANES..a.len() {
        tail += a[i] * b[i];
    }
    acc.iter().sum::<f32>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Mat::zeros(2, 3);
        *m.get_mut(1, 2) = 5.0;
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn from_vec_round_trip() {
        let m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_wrong_len_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn axpy_and_dot() {
        let mut out = vec![1.0, 1.0];
        axpy(&mut out, &[2.0, 4.0], 0.5);
        assert_eq!(out, vec![2.0, 3.0]);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm_is_frobenius() {
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }
}
