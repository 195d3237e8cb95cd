//! Order statistics and the two-point cost fit.

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// If `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p` quantile (`0 < p < 1`) by the exclusive method of Python's
/// `statistics.quantiles`: position `p * (n + 1)` in the sorted samples,
/// interpolated linearly (and extrapolated from the end pair when the
/// position falls outside them).
///
/// # Panics
/// If `samples` is empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let h = p * (n + 1) as f64;
    let j = (h.floor() as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    s[j - 1] + delta * (s[j] - s[j - 1])
}

/// A timing distribution as reported: median, 90th percentile and the
/// sample count both were taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize a non-empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            median: median(samples),
            p90: quantile(samples, 0.9),
            n: samples.len(),
        }
    }
}

/// A straight line `y = fixed + per_unit * x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// The intercept: cost paid once, whatever `x`.
    pub fixed: f64,
    /// The slope: cost per unit of `x`.
    pub per_unit: f64,
}

/// The line through `(x1, y1)` and `(x2, y2)`.
///
/// # Panics
/// If `x1 == x2`.
pub fn fit(x1: f64, y1: f64, x2: f64, y2: f64) -> Line {
    assert!(x1 != x2, "a two-point fit needs two distinct sizes");
    let per_unit = (y2 - y1) / (x2 - x1);
    Line {
        fixed: y1 - per_unit * x1,
        per_unit,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
