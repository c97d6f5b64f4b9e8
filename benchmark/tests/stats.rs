//! Order statistics: nearest-rank percentiles, the "at least ten samples
//! beyond" rule, medians of repeats and the driver's quartile spread.

use emp_benchmark::stats::*;

#[test]
fn nearest_rank_percentile_picks_the_smallest_rank_covering_p() {
    let v: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile(&v, 50.0), 5);
    assert_eq!(percentile(&v, 51.0), 6);
    assert_eq!(percentile(&v, 90.0), 9);
    assert_eq!(percentile(&v, 99.0), 10);
    assert_eq!(percentile(&v, 100.0), 10);
    assert_eq!(percentile(&v, 0.1), 1);
    assert_eq!(percentile(&[7], 99.9), 7);
}

#[test]
fn percentile_products_that_are_whole_numbers_do_not_round_up() {
    // 99.9 % of 10 000 is rank 9 990 exactly, although the floating-point
    // product lands a hair above it.
    assert_eq!(nearest_rank(10_000, 99.9), 9_990);
    assert_eq!(nearest_rank(1_000, 99.0), 990);
    assert_eq!(nearest_rank(61_440, 99.9), 61_379);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(10_000, 99.9), 10);
    assert_eq!(tail_percentile(10_000), 99.9);
    // One sample fewer and p99.9 has only nine beyond it.
    assert_eq!(samples_beyond(9_999, 99.9), 9);
    assert_eq!(tail_percentile(9_999), 99.0);
    assert_eq!(tail_percentile(1_350), 99.0);
    assert_eq!(tail_percentile(1_000), 99.0);
    assert_eq!(tail_percentile(999), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(20), 50.0);
    assert_eq!(tail_percentile(6), 50.0);
}

#[test]
fn median_of_repeats() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // One slow repeat does not move it.
    assert_eq!(median(&[1.7, 1.8, 9.9, 1.6, 1.75]), 1.75);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 4.5]);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
}

#[test]
fn jain_index_bounds() {
    assert!((jain_fairness(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
    assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
}
