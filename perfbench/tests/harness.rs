//! Harness unit tests: span self time, the tail-percentile rule, and the
//! open-loop schedule.

use perfbench::schedule::{self, poisson_arrivals, OpKind};
use perfbench::stats::{median, tail_quantile, Dist, Windowed};
use perfbench::trace::{self_times, Span};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s".into(),
        start,
        end,
        parent,
        trace: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span(0, 100, None),     // 0: root
        span(10, 30, Some(0)),  // 1: child
        span(20, 50, Some(0)),  // 2: child overlapping 1
        span(12, 18, Some(1)),  // 3: grandchild inside 1
        span(90, 120, Some(0)), // 4: child running past the root's end
    ];
    // Root: 100 minus [10, 50) and [90, 100) = 50. The grandchild counts
    // against its parent only; the overhanging child is clipped.
    assert_eq!(self_times(&spans), vec![50, 14, 30, 6, 30]);
}

#[test]
fn self_time_of_a_leaf_is_its_duration() {
    assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_quantile(19), None);
    assert_eq!(tail_quantile(20), Some(0.5));
    assert_eq!(tail_quantile(100), Some(0.9));
    assert_eq!(tail_quantile(200), Some(0.95));
    assert_eq!(tail_quantile(1000), Some(0.99));
    assert_eq!(tail_quantile(9999), Some(0.99));
    assert_eq!(tail_quantile(10_000), Some(0.999));

    let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let d = Dist::of(&xs).expect("non-empty");
    assert_eq!((d.n, d.p50, d.tail_q, d.tail), (1000, 500.5, 0.99, 990.0));
    assert_eq!(d.tail_label(), "p99");
    let small = Dist::of(&[3.0, 1.0, 2.0]).expect("non-empty");
    assert_eq!((small.p50, small.tail_q, small.tail), (2.0, 0.5, 2.0));
    assert!(Dist::of(&[]).is_none());
}

#[test]
fn median_handles_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn schedule_is_a_function_of_the_seed() {
    let a = schedule::build(7, 5.0, 200.0, 20, 50.0);
    assert_eq!(a, schedule::build(7, 5.0, 200.0, 20, 50.0));
    assert_ne!(a, schedule::build(8, 5.0, 200.0, 20, 50.0));
    assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
    let count = |k: OpKind| a.iter().filter(|o| o.kind == k).count();
    let writes = count(OpKind::Submit) + count(OpKind::Ingest);
    assert_eq!(count(OpKind::Ingest), writes / 20, "fixed ingest share");
    assert!(count(OpKind::Read) > 0);
}

#[test]
fn poisson_arrivals_hold_their_mean_rate() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (rate, seconds) = (500.0, 60.0);
    let times = poisson_arrivals(&mut rng, rate, seconds);
    // 30 000 expected arrivals, standard deviation ~173: 3% is > 5 sigma.
    let measured = times.len() as f64 / seconds;
    assert!(
        (measured - rate).abs() < 0.03 * rate,
        "measured {measured}/s"
    );
    assert!(times.windows(2).all(|w| w[0] < w[1]));
    assert!(times.iter().all(|&t| (0.0..seconds).contains(&t)));
    // Exponential gaps: the share of gaps above the mean is e^-1.
    let mean_gap = 1.0 / rate;
    let above = times.windows(2).filter(|w| w[1] - w[0] > mean_gap).count();
    let share = above as f64 / (times.len() - 1) as f64;
    assert!(
        (share - (-1.0f64).exp()).abs() < 0.02,
        "share above mean {share}"
    );
}

#[test]
fn windowed_summary_ignores_a_burst_in_one_window() {
    // Five 1-second windows of 100 samples each, values 1..=100; window 2
    // is a burst ten times slower.
    let mut samples = Vec::new();
    for window in 0..5 {
        let scale = if window == 2 { 10.0 } else { 1.0 };
        for i in 0..100 {
            samples.push((window as f64 + i as f64 / 100.0, scale * f64::from(i + 1)));
        }
    }
    let w = Windowed::of(&samples, 5.0, 5).expect("enough samples");
    // 100 per window: p90 is the highest percentile with ten beyond it.
    assert_eq!((w.n, w.p50, w.tail_q, w.tail), (500, 50.5, 0.9, 90.0));
    assert!(Windowed::of(&samples[..450], 5.0, 5).is_some());
    assert!(
        Windowed::of(&samples[..410], 5.0, 5).is_none(),
        "last window too small"
    );
}

#[test]
fn windowed_summary_reports_the_fastest_window() {
    // Ten windows of 100 samples, values scale * 1..=100, with scale the
    // window's index + 1 but windows 0..=8 slowed a hundredfold: only
    // window 9 is fast, and it is the one reported.
    let mut samples = Vec::new();
    for window in 0..10 {
        let scale = if window <= 8 { 100.0 } else { 1.0 } * f64::from(window + 1);
        for i in 0..100 {
            samples.push((window as f64 + i as f64 / 100.0, scale * f64::from(i + 1)));
        }
    }
    let w = Windowed::of(&samples, 10.0, 10).expect("enough samples");
    assert_eq!((w.p50, w.tail_q, w.tail), (10.0 * 50.5, 0.9, 10.0 * 90.0));
}
