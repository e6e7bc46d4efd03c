//! Order statistics for the reported timings.

use crate::host::RefClock;

/// The median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that leaves at least ten samples beyond it, as
/// `(percentile, value)`. Falls back to the maximum when fewer than twenty
/// samples exist.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    for p in TAIL_LADDER {
        // Rounded, so that e.g. 100 samples at p90 count as 10 beyond.
        if (n * (1.0 - p / 100.0)).round() >= 10.0 {
            return (p, quantile(values, p / 100.0));
        }
    }
    (100.0, quantile(values, 1.0))
}

/// Element-wise median of equally long rows: each item's median
/// measurement over repeated passes.
pub fn median_per_item(rows: &[Vec<f64>]) -> Vec<f64> {
    let len = rows.first().map_or(0, Vec::len);
    (0..len)
        .map(|i| median(&rows.iter().map(|row| row[i]).collect::<Vec<_>>()))
        .collect()
}

/// Set-up time, measured in blocks of back-to-back set-ups taken at
/// different moments of a run: each block keeps its fastest set-up, and
/// the run reports the median block. Spreading the blocks over the run
/// keeps one stretch of host interference from deciding the figure.
#[derive(Debug)]
pub struct SetupClock {
    per_block: usize,
    block_s: Vec<f64>,
    clock: RefClock,
}

impl SetupClock {
    pub fn new(per_block: usize) -> Self {
        Self {
            per_block,
            block_s: Vec::new(),
            clock: RefClock::new(),
        }
    }

    /// Runs one block of set-ups; returns the last set-up's result.
    pub fn block<T>(&mut self, mut set_up: impl FnMut() -> T) -> T {
        let mut fastest = f64::INFINITY;
        let mut last = None;
        for _ in 0..self.per_block.max(1) {
            let (built, secs) = self.clock.time(&mut set_up);
            fastest = fastest.min(secs);
            // The previous set-up is dropped here, outside the timing.
            last = Some(built);
        }
        self.block_s.push(fastest);
        last.expect("a block runs at least one set-up")
    }

    /// The median of the blocks' fastest set-ups, in reference seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.block_s)
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_per_item_takes_each_items_median_pass() {
        let rows = vec![vec![3.0, 1.0], vec![2.0, 4.0], vec![5.0, 0.5]];
        assert_eq!(median_per_item(&rows), vec![3.0, 1.0]);
        assert!(median_per_item(&[]).is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..300).map(f64::from).collect();
        assert_eq!(tail(&values).0, 95.0);
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&values).0, 90.0);
        let values: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&values).0, 99.9);
        assert_eq!(tail(&[1.0, 2.0]), (100.0, 2.0));
    }
}
