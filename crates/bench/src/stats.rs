//! Tiny statistics helpers for the experiment tables.

/// Least-squares slope of ln(y) against ln(x): the empirical scaling
/// exponent of a measured series.
#[must_use]
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit");
    let k = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1.0).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_power_law() {
        let pts: Vec<(f64, f64)> =
            (1..=6).map(|i| (i as f64 * 10.0, 3.0 * (i as f64 * 10.0).powf(1.5))).collect();
        assert!((fit_exponent(&pts) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn exponent_of_linear() {
        let pts: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 7.0 * i as f64)).collect();
        assert!((fit_exponent(&pts) - 1.0).abs() < 1e-9);
    }
}
