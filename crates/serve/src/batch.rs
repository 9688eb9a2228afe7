//! Adaptive request batching.
//!
//! Concurrent `submit` requests are coalesced into one MROAM instance:
//! the first arrival opens a batch, and the batch closes — solving all of
//! its proposals together as one market day — when any of these fires:
//!
//! 1. **size cap** — `max_batch` proposals are queued;
//! 2. **window** — the adaptive wait since the batch opened elapses;
//! 3. **explicit close** — a `run_day`/`shutdown` request forces it.
//!
//! The window is the adaptive part. Waiting longer coalesces more work
//! per solve (throughput) but holds early arrivals hostage (latency). The
//! classic balance point is the service time itself: delaying a request
//! by about one solve keeps the queueing overhead a constant factor of
//! the unavoidable compute. So the effective window tracks an
//! exponentially-weighted average of recent solve times, clamped to the
//! configured `[min_wait, max_wait]` band; setting `min_wait == max_wait`
//! fixes the window.
//!
//! The batcher is deliberately clock-free: callers pass monotonic
//! nanosecond timestamps in, so tests drive it deterministically.

/// Closing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Size cap: a batch never exceeds this many proposals.
    pub max_batch: usize,
    /// Window lower bound, nanoseconds.
    pub min_wait_nanos: u64,
    /// Window upper bound, nanoseconds.
    pub max_wait_nanos: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            min_wait_nanos: 200_000,    // 0.2 ms
            max_wait_nanos: 20_000_000, // 20 ms
        }
    }
}

/// EWMA smoothing factor for observed solve times.
const EWMA_ALPHA: f64 = 0.2;

/// Why a batch closed (reported in logs/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Hit the size cap.
    SizeCap,
    /// The adaptive window elapsed.
    Window,
    /// An explicit `run_day`/`shutdown`.
    Forced,
}

/// An open batch of queued items plus the adaptive window state.
#[derive(Debug)]
pub struct Batcher<T> {
    policy: BatchPolicy,
    pending: Vec<T>,
    /// When the current batch opened (first pending arrival), if any.
    opened_at_nanos: Option<u64>,
    /// EWMA of observed solve times, nanoseconds.
    solve_ewma_nanos: f64,
}

impl<T> Batcher<T> {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "size cap must admit one proposal");
        assert!(
            policy.min_wait_nanos <= policy.max_wait_nanos,
            "window bounds inverted"
        );
        Self {
            policy,
            pending: Vec::new(),
            opened_at_nanos: None,
            solve_ewma_nanos: 0.0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Queued items in the open batch.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no batch is open.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The effective adaptive window right now, nanoseconds.
    pub fn window_nanos(&self) -> u64 {
        (self.solve_ewma_nanos as u64).clamp(self.policy.min_wait_nanos, self.policy.max_wait_nanos)
    }

    /// Queues one item at `now`; returns `Some(SizeCap)` when the push
    /// filled the batch and it must be solved immediately.
    pub fn push(&mut self, item: T, now_nanos: u64) -> Option<CloseReason> {
        if self.pending.is_empty() {
            self.opened_at_nanos = Some(now_nanos);
        }
        self.pending.push(item);
        (self.pending.len() >= self.policy.max_batch).then_some(CloseReason::SizeCap)
    }

    /// Absolute deadline (nanoseconds) by which the open batch must close,
    /// or `None` when nothing is pending.
    pub fn deadline_nanos(&self) -> Option<u64> {
        self.opened_at_nanos
            .map(|t| t.saturating_add(self.window_nanos()))
    }

    /// Whether the open batch's window has elapsed at `now`.
    pub fn window_elapsed(&self, now_nanos: u64) -> bool {
        self.deadline_nanos().is_some_and(|d| now_nanos >= d)
    }

    /// Takes the open batch (possibly empty), resetting the queue.
    pub fn take(&mut self) -> Vec<T> {
        self.opened_at_nanos = None;
        std::mem::take(&mut self.pending)
    }

    /// Feeds an observed solve duration into the adaptive window.
    pub fn observe_solve(&mut self, solve_nanos: u64) {
        if self.solve_ewma_nanos == 0.0 {
            self.solve_ewma_nanos = solve_nanos as f64;
        } else {
            self.solve_ewma_nanos =
                (1.0 - EWMA_ALPHA) * self.solve_ewma_nanos + EWMA_ALPHA * solve_nanos as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_batch: usize, min_ms: u64, max_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            min_wait_nanos: min_ms * 1_000_000,
            max_wait_nanos: max_ms * 1_000_000,
        }
    }

    #[test]
    fn size_cap_closes_immediately() {
        let mut b = Batcher::new(policy(3, 1, 10));
        assert_eq!(b.push("a", 0), None);
        assert_eq!(b.push("b", 10), None);
        assert_eq!(b.push("c", 20), Some(CloseReason::SizeCap));
        assert_eq!(b.take(), vec!["a", "b", "c"]);
        assert!(b.is_empty());
        assert_eq!(b.deadline_nanos(), None);
    }

    #[test]
    fn window_anchors_at_first_arrival() {
        let mut b = Batcher::new(policy(100, 5, 5));
        b.push(1, 1_000_000);
        let d = b.deadline_nanos().unwrap();
        assert_eq!(d, 1_000_000 + 5_000_000);
        // A later push does not move the deadline.
        b.push(2, 4_000_000);
        assert_eq!(b.deadline_nanos().unwrap(), d);
        assert!(!b.window_elapsed(d - 1));
        assert!(b.window_elapsed(d));
    }

    #[test]
    fn adaptive_window_tracks_solve_times_within_bounds() {
        let mut b: Batcher<u32> = Batcher::new(policy(100, 1, 50));
        // Before any observation, the window sits at the lower bound.
        assert_eq!(b.window_nanos(), 1_000_000);
        b.observe_solve(10_000_000);
        assert_eq!(b.window_nanos(), 10_000_000);
        // EWMA pulls toward new observations without jumping.
        b.observe_solve(20_000_000);
        let w = b.window_nanos();
        assert!(w > 10_000_000 && w < 20_000_000, "window {w}");
        // Clamped above.
        for _ in 0..100 {
            b.observe_solve(500_000_000);
        }
        assert_eq!(b.window_nanos(), 50_000_000);
        // Clamped below.
        for _ in 0..200 {
            b.observe_solve(1);
        }
        assert_eq!(b.window_nanos(), 1_000_000);
    }

    #[test]
    fn non_adaptive_window_is_fixed() {
        let mut b: Batcher<u32> = Batcher::new(policy(10, 7, 7));
        b.observe_solve(1);
        assert_eq!(b.window_nanos(), 7_000_000);
        b.observe_solve(1_000_000_000);
        assert_eq!(b.window_nanos(), 7_000_000);
    }

    #[test]
    fn take_resets_for_the_next_batch() {
        let mut b = Batcher::new(policy(2, 1, 1));
        b.push("x", 0);
        assert_eq!(b.take(), vec!["x"]);
        b.push("y", 99);
        assert_eq!(b.deadline_nanos().unwrap(), 99 + b.window_nanos());
    }

    #[test]
    #[should_panic(expected = "size cap")]
    fn zero_cap_is_rejected() {
        let _ = Batcher::<u32>::new(policy(0, 1, 1));
    }
}
