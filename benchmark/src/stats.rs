//! Order statistics over measured samples.

/// Nearest-rank `q`-quantile of an ascending-sorted slice (`q` in 0..=1).
/// Returns NaN for an empty slice, so a missing measurement can never pass
/// for a real one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN last) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// A quantile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// The `q`-quantile of unsorted `values`.
pub fn of(values: &[f64], q: f64) -> Quantile {
    Quantile {
        value: quantile(&sorted(values.to_vec()), q),
        samples: values.len(),
    }
}
