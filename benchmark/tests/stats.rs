//! The order statistics every reported number goes through, pinned on
//! samples small enough to compute by hand.

use ldft_benchmark::stats::{median, percentile, quartiles};

#[test]
fn percentile_is_nearest_rank() {
    // The textbook nearest-rank example.
    let sorted = [15, 20, 35, 40, 50];
    assert_eq!(percentile(&sorted, 5), 15); // rank ceil(0.25) = 1
    assert_eq!(percentile(&sorted, 30), 20); // rank ceil(1.5) = 2
    assert_eq!(percentile(&sorted, 40), 20); // rank 2
    assert_eq!(percentile(&sorted, 50), 35); // rank ceil(2.5) = 3
    assert_eq!(percentile(&sorted, 95), 50); // rank ceil(4.75) = 5
    assert_eq!(percentile(&sorted, 100), 50);
    // The value is always one of the samples, never interpolated.
    assert_eq!(percentile(&[100, 900], 50), 100);
    assert_eq!(percentile(&[7], 95), 7);
}

#[test]
fn p95_of_200_has_ten_samples_beyond_it() {
    let sorted: Vec<u64> = (1..=200).collect();
    assert_eq!(percentile(&sorted, 95), 190);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(
        quartiles(&[30.0, 10.0, 50.0, 20.0, 40.0]),
        (15.0, 30.0, 45.0)
    );
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
