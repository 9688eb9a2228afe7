//! Shared test fixtures: the streaming twin of
//! `mroam_core::testutil::disjoint_model`. Served, replayed and followed
//! hosts always run a [`StreamEngine`], so the serve, WAL and replica
//! tests that lean on disjoint coverage (expected ledgers by plain
//! addition) build their world here.

use crate::StreamEngine;
use mroam_data::{BillboardStore, TrajectoryStore};
use mroam_geo::Point;

/// Meeting radius of [`disjoint_engine`], in metres.
const LAMBDA_M: f64 = 50.0;

/// Spacing between neighbouring billboards of [`disjoint_engine`], far
/// beyond twice the meeting radius.
const SPACING_M: f64 = 1000.0;

/// A streaming engine whose base model equals
/// `mroam_core::testutil::disjoint_model(influences)`: billboard `k`
/// stands at `(1000·k, 0)` and `influences[k]` two-point trajectories
/// pass it and no other billboard (λ = 50 m). Trajectory ids are issued
/// billboard by billboard, so billboard `k` covers the same private id
/// block as in the disjoint model.
pub fn disjoint_engine(influences: &[u32]) -> StreamEngine {
    let billboards = BillboardStore::from_locations(
        (0..influences.len())
            .map(|k| Point::new(SPACING_M * k as f64, 0.0))
            .collect(),
    );
    let mut trajectories = TrajectoryStore::new();
    for (k, &n) in influences.iter().enumerate() {
        let x = SPACING_M * k as f64;
        for _ in 0..n {
            trajectories
                .push_at_speed(
                    &[Point::new(x - 10.0, 0.0), Point::new(x + 10.0, 0.0)],
                    10.0,
                )
                .expect("a test fixture fits the point column");
        }
    }
    StreamEngine::new(billboards, trajectories, LAMBDA_M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_core::testutil::disjoint_model;
    use proptest::prelude::*;

    fn assert_matches_disjoint_model(influences: &[u32]) {
        let engine = disjoint_engine(influences);
        let model = disjoint_model(influences);
        assert_eq!(
            engine.model().coverage_lists(),
            model.coverage_lists(),
            "{influences:?}"
        );
        assert_eq!(engine.model().n_trajectories(), model.n_trajectories());
        assert_eq!(engine.model().supply(), model.supply());
    }

    #[test]
    fn disjoint_engine_matches_disjoint_model() {
        let spread: Vec<u32> = (0..12).map(|i| 4 + (i * 5) % 9).collect();
        let ramp: Vec<u32> = (0..10).map(|i| 3 + i % 7).collect();
        for influences in [
            &[8, 7, 6, 5, 4][..],
            &[8, 7, 6, 5, 4, 3],
            &[9, 8, 7, 6, 5],
            &[9, 8, 7, 6, 5, 4, 3, 2],
            &[10, 9, 8],
            &[6, 5, 4],
            &[4, 3],
            &[2],
            &[3],
            &spread,
            &ramp,
        ] {
            assert_matches_disjoint_model(influences);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn disjoint_engine_matches_disjoint_model_for_any_influences(
            influences in proptest::collection::vec(1u32..12, 3..10),
        ) {
            assert_matches_disjoint_model(&influences);
        }
    }
}
