//! Metrics shared by the experiments: CDFs, series and scalar summaries.

use serde::{Deserialize, Serialize};

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// An empirical CDF (the per-image time-cost CDFs of Figs. 2 and 8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Mean of the underlying samples.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }
}

/// A named `(x, y)` series — one curve of a paper figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"DuelingDQN"`).
    pub label: String,
    /// X coordinates (e.g. recall-rate grid, deadline grid).
    pub x: Vec<f64>,
    /// Y values.
    pub y: Vec<f64>,
}

impl Series {
    /// Build a series; `x` and `y` must have equal length.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series length mismatch");
        Self {
            label: label.into(),
            x,
            y,
        }
    }

    /// Interpolated y at `x` (linear, clamped to the range).
    pub fn at(&self, x: f64) -> f64 {
        assert!(!self.x.is_empty(), "empty series");
        if x <= self.x[0] {
            return self.y[0];
        }
        if x >= *self.x.last().expect("non-empty") {
            return *self.y.last().expect("non-empty");
        }
        let i = self.x.partition_point(|&v| v <= x);
        let (x0, x1) = (self.x[i - 1], self.x[i]);
        let (y0, y1) = (self.y[i - 1], self.y[i]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

/// A figure: a set of series over a common x-axis meaning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Figure identifier (e.g. `"fig4a"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Axis labels.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as an aligned text table (one row per x, one column per
    /// series) — the form `cargo run --release -p ams-bench` prints.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>14}", s.label);
        }
        let _ = writeln!(out);
        if let Some(first) = self.series.first() {
            for (i, &x) in first.x.iter().enumerate() {
                let _ = write!(out, "{x:>12.3}");
                for s in &self.series {
                    let _ = write!(out, " {:>14.4}", s.y.get(i).copied().unwrap_or(f64::NAN));
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.0), 0.75);
        assert_eq!(c.at(10.0), 1.0);
    }

    #[test]
    fn cdf_quantiles() {
        let c = Cdf::new((1..=100).map(f64::from).collect());
        assert_eq!(c.at(1.0), 0.01);
        assert_eq!(c.at(50.0), 0.5);
        assert_eq!(c.at(99.0), 0.99);
        assert_eq!(c.at(100.0), 1.0);
        assert!((c.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn series_interpolates() {
        let s = Series::new("x", vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0]);
        assert_eq!(s.at(-1.0), 0.0);
        assert_eq!(s.at(0.5), 5.0);
        assert_eq!(s.at(1.5), 25.0);
        assert_eq!(s.at(5.0), 40.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_length_checked() {
        let _ = Series::new("bad", vec![0.0], vec![]);
    }

    #[test]
    fn figure_table_renders() {
        let fig = Figure {
            id: "t".into(),
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("a", vec![1.0, 2.0], vec![0.1, 0.2])],
        };
        let t = fig.to_table();
        assert!(t.contains("test"));
        assert!(t.contains('a'));
        assert!(t.lines().count() >= 4);
    }
}
