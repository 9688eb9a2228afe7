//! Order statistics for the reports: medians and the tail percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, so a tail figure is never
//! one or two unlucky samples.

/// Percentiles a tail is chosen from, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.50];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples (the epsilon
/// keeps `0.99 * 1000` from rounding up past 990).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`TAIL_MIN_BEYOND`]
/// samples ranked above it, for `n` samples; `None` below 20 samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n.saturating_sub(rank(q, n)) >= TAIL_MIN_BEYOND)
}

/// Value at percentile `q` (nearest rank) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(q, sorted.len()) - 1]
}

/// A run split into equal time windows, summarised by its fastest window:
/// the lowest over windows of each window's median, and of each window's
/// tail at one percentile, chosen by [`tail_quantile`] from the smallest
/// window's sample count. Host noise (CPU steal on a shared VM) only ever
/// slows a window, and often slows most of a run, so the fastest window
/// is the steadiest reading of the program's own latency; a change to the
/// program slows every window alike, the fastest too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Samples over all windows.
    pub n: usize,
    /// Lowest window median.
    pub p50: f64,
    /// The tail percentile every window reports.
    pub tail_q: f64,
    /// Lowest window tail.
    pub tail: f64,
}

impl Windowed {
    /// Summarises `(time, value)` samples with times in `[0, span)` over
    /// `windows` windows; `None` when any window has fewer than 20 samples.
    pub fn of(samples: &[(f64, f64)], span: f64, windows: usize) -> Option<Windowed> {
        let mut buckets = vec![Vec::new(); windows];
        for &(t, v) in samples {
            let i = ((t / span * windows as f64) as usize).min(windows - 1);
            buckets[i].push(v);
        }
        let tail_q = tail_quantile(buckets.iter().map(Vec::len).min()?)?;
        let (mut p50, mut tail) = (f64::INFINITY, f64::INFINITY);
        for mut b in buckets {
            b.sort_by(f64::total_cmp);
            p50 = p50.min(median(&b));
            tail = tail.min(percentile(&b, tail_q));
        }
        Some(Windowed {
            n: samples.len(),
            p50,
            tail_q,
            tail,
        })
    }
}

/// `p99`-style label of a percentile.
pub fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if pct.fract() == 0.0 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct}")
    }
}

/// A latency distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_quantile`] (0.5 when there are
    /// too few samples for any higher one).
    pub tail_q: f64,
    /// Value at `tail_q` (nearest rank).
    pub tail: f64,
}

impl Dist {
    /// Summarises `xs`; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Dist> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len()).unwrap_or(0.5);
        Some(Dist {
            n: v.len(),
            p50: median(&v),
            tail_q,
            tail: percentile(&v, tail_q),
        })
    }

    /// `p99`-style label of the tail percentile.
    pub fn tail_label(&self) -> String {
        percentile_label(self.tail_q)
    }
}
