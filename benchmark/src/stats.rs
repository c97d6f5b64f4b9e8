//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "at least ten samples beyond" tail rule, medians of repeats and the
//! quartile spread the noise check uses.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down; the first with at least
/// [`MIN_BEYOND`] samples beyond it is the workload's reported tail.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// the smallest rank whose share of the samples is at least `p` percent.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    // `p * n / 100` can land a hair above an exact integer (99.9 * 10_000 /
    // 100 = 9990.000000000002); snap to the integer before rounding up.
    let exact = p * n as f64 / 100.0;
    let rank = if (exact - exact.round()).abs() < 1e-9 {
        exact.round()
    } else {
        exact.ceil()
    };
    (rank as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many samples rank strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest percentile of [`TAIL_CANDIDATES`] that `n` samples support.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of the repeats (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repeats");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Jain's fairness index of per-connection rates: 1.0 when all are equal,
/// 1/n when one connection gets everything.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sq)
    }
}
