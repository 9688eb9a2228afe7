//! Columnar trajectory storage.
//!
//! Trajectories are stored in a single flat point column with an offset
//! index (the classic arrow/CSR layout), so iterating millions of points for
//! the meets computation is a linear scan with no per-trajectory allocation.
//! A parallel per-point timestamp column (seconds from trip start) supports
//! the Table 5 "AvgTravelTime" statistic. The store lives in memory only;
//! CSV ([`crate::csv`]) is its interchange format.

use crate::ids::TrajectoryId;
use mroam_geo::{Point, Polyline};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from appending to a [`TrajectoryStore`].
///
/// Programming errors (empty trajectories, mismatched column lengths) still
/// panic; `StoreError` covers conditions that depend on the *data volume*,
/// which long-running ingestion paths must handle without crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The flat point column is indexed by `u32` CSR offsets; appending this
    /// trajectory would push the column past `u32::MAX` points.
    PointColumnOverflow {
        /// Points the column would need to hold.
        needed: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::PointColumnOverflow { needed } => write!(
                f,
                "point column overflow: {needed} points exceed the u32 offset range"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A columnar store of trajectories.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryStore {
    /// Flat point column; trajectory `i` owns `points[offsets[i]..offsets[i+1]]`.
    points: Vec<Point>,
    /// Seconds from trip start, parallel to `points`.
    timestamps: Vec<f32>,
    /// CSR offsets, length = number of trajectories + 1.
    offsets: Vec<u32>,
}

/// A borrowed view of one trajectory.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryRef<'a> {
    /// The trajectory's id in the store.
    pub id: TrajectoryId,
    /// Its points, in travel order.
    pub points: &'a [Point],
    /// Seconds from trip start, parallel to `points`.
    pub timestamps: &'a [f32],
}

impl<'a> TrajectoryRef<'a> {
    /// Path length in metres.
    pub fn distance(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// Travel time in seconds (last timestamp minus first), 0 for trips with
    /// fewer than two points.
    pub fn travel_time(&self) -> f64 {
        match (self.timestamps.first(), self.timestamps.last()) {
            (Some(&a), Some(&b)) if self.timestamps.len() >= 2 => (b - a) as f64,
            _ => 0.0,
        }
    }
}

impl Default for TrajectoryStore {
    /// An empty store, the same as [`TrajectoryStore::new`]: the offsets
    /// column always holds its leading 0.
    fn default() -> Self {
        Self::new()
    }
}

impl TrajectoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            points: Vec::new(),
            timestamps: Vec::new(),
            offsets: vec![0u32],
        }
    }

    /// Creates an empty store pre-sized for `n_trajectories` trajectories of
    /// roughly `points_per_trajectory` points.
    pub fn with_capacity(n_trajectories: usize, points_per_trajectory: usize) -> Self {
        let pts = n_trajectories * points_per_trajectory;
        let mut offsets = Vec::with_capacity(n_trajectories + 1);
        offsets.push(0);
        Self {
            points: Vec::with_capacity(pts),
            timestamps: Vec::with_capacity(pts),
            offsets,
        }
    }

    /// Appends a trajectory with explicit per-point timestamps; returns its
    /// id, or [`StoreError::PointColumnOverflow`] if the flat point column
    /// would outgrow its `u32` offsets. Panics if lengths differ or the
    /// trajectory is empty (programming errors, not data conditions).
    pub fn push_with_timestamps(
        &mut self,
        points: &[Point],
        timestamps: &[f32],
    ) -> Result<TrajectoryId, StoreError> {
        assert!(!points.is_empty(), "empty trajectory");
        assert_eq!(
            points.len(),
            timestamps.len(),
            "points/timestamps length mismatch"
        );
        let needed = self.points.len() + points.len();
        let end = u32::try_from(needed).map_err(|_| StoreError::PointColumnOverflow { needed })?;
        let id = TrajectoryId::from_index(self.len());
        self.points.extend_from_slice(points);
        self.timestamps.extend_from_slice(timestamps);
        self.offsets.push(end);
        Ok(id)
    }

    /// Appends a trajectory assuming a constant travel `speed` (m/s) along
    /// the path; timestamps are derived from cumulative arc length
    /// **directly into the timestamp column** — no per-call scratch vector,
    /// so the million-trajectory datagen paths stream with bounded
    /// overhead.
    pub fn push_at_speed(
        &mut self,
        points: &[Point],
        speed_mps: f64,
    ) -> Result<TrajectoryId, StoreError> {
        assert!(speed_mps > 0.0, "speed must be positive");
        assert!(!points.is_empty(), "empty trajectory");
        let needed = self.points.len() + points.len();
        let end = u32::try_from(needed).map_err(|_| StoreError::PointColumnOverflow { needed })?;
        let id = TrajectoryId::from_index(self.len());
        self.points.extend_from_slice(points);
        let ts = &mut self.timestamps;
        ts.reserve(points.len());
        ts.push(0.0f32);
        let mut acc = 0.0f64;
        for w in points.windows(2) {
            acc += w[0].distance(&w[1]) / speed_mps;
            ts.push(acc as f32);
        }
        self.offsets.push(end);
        Ok(id)
    }

    /// Appends a polyline at a constant speed.
    pub fn push_polyline(
        &mut self,
        line: &Polyline,
        speed_mps: f64,
    ) -> Result<TrajectoryId, StoreError> {
        self.push_at_speed(line.points(), speed_mps)
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store has no trajectories.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of points across all trajectories.
    pub fn total_points(&self) -> usize {
        self.points.len()
    }

    /// Borrowed view of trajectory `id`. Panics on out-of-range ids.
    pub fn get(&self, id: TrajectoryId) -> TrajectoryRef<'_> {
        let i = id.index();
        assert!(i < self.len(), "trajectory id {id} out of range");
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        TrajectoryRef {
            id,
            points: &self.points[lo..hi],
            timestamps: &self.timestamps[lo..hi],
        }
    }

    /// Iterates all trajectories in id order.
    pub fn iter(&self) -> impl Iterator<Item = TrajectoryRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.get(TrajectoryId::from_index(i)))
    }

    /// The flat point column (for bulk scans).
    pub fn point_column(&self) -> &[Point] {
        &self.points
    }

    /// The flat timestamp column, parallel to
    /// [`point_column`](Self::point_column).
    pub fn timestamp_column(&self) -> &[f32] {
        &self.timestamps
    }

    /// The CSR offsets column.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Heap bytes held by the columns (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point>()
            + self.timestamps.capacity() * std::mem::size_of::<f32>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut store = TrajectoryStore::new();
        let a = store
            .push_with_timestamps(&pts(&[(0.0, 0.0), (1.0, 0.0)]), &[0.0, 10.0])
            .unwrap();
        let b = store
            .push_with_timestamps(&pts(&[(5.0, 5.0)]), &[0.0])
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_points(), 3);
        let ta = store.get(a);
        assert_eq!(ta.points.len(), 2);
        assert_eq!(ta.travel_time(), 10.0);
        let tb = store.get(b);
        assert_eq!(tb.points.len(), 1);
        assert_eq!(tb.travel_time(), 0.0);
    }

    #[test]
    fn push_at_speed_derives_timestamps() {
        let mut store = TrajectoryStore::new();
        // 300 m at 10 m/s = 30 s.
        let id = store
            .push_at_speed(&pts(&[(0.0, 0.0), (300.0, 0.0)]), 10.0)
            .unwrap();
        let t = store.get(id);
        assert_eq!(t.timestamps, &[0.0, 30.0]);
        assert_eq!(t.travel_time(), 30.0);
        assert_eq!(t.distance(), 300.0);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut store = TrajectoryStore::new();
        for i in 0..5 {
            store
                .push_at_speed(&pts(&[(i as f64, 0.0), (i as f64, 1.0)]), 1.0)
                .unwrap();
        }
        let ids: Vec<u32> = store.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_store() {
        let store = TrajectoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "empty trajectory")]
    fn empty_trajectory_rejected() {
        let _ = TrajectoryStore::new().push_with_timestamps(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_timestamps_rejected() {
        let _ = TrajectoryStore::new().push_with_timestamps(&pts(&[(0.0, 0.0)]), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        TrajectoryStore::new().get(TrajectoryId(0));
    }

    #[test]
    fn default_is_the_empty_store() {
        let store = TrajectoryStore::default();
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert_eq!(store.offsets(), TrajectoryStore::new().offsets());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut store = TrajectoryStore::with_capacity(10, 4);
        assert!(store.is_empty());
        store
            .push_at_speed(&pts(&[(0.0, 0.0), (1.0, 1.0)]), 1.0)
            .unwrap();
        assert_eq!(store.len(), 1);
    }
}
