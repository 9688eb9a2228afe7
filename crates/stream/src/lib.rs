//! `mroam-stream` — streaming trajectory ingestion with incremental
//! model maintenance.
//!
//! The offline pipeline builds a [`CoverageModel`] once and solves on
//! it. This crate makes the model *live*: batches of new trajectories
//! and billboard add/retire events arrive as epoch-stamped
//! [`IngestBatch`]es, land in a [`DeltaOverlay`] on top of an immutable
//! compacted base, and are periodically folded into a fresh base by the
//! incremental extension in `mroam_influence::extend` — which is
//! bit-identical to a from-scratch rebuild, so nothing downstream can
//! tell the difference (the `epoch_equivalence` integration test pins
//! exactly this).
//!
//! Epoch lifecycle:
//!
//! 1. [`StreamEngine::ingest`] validates a batch atomically, applies it,
//!    and bumps the epoch. Reads ([`StreamEngine::set_influence`] etc.)
//!    merge base + overlay; [`StreamEngine::model`] keeps serving the
//!    last compacted base so in-flight solves see a consistent epoch.
//! 2. [`StreamEngine::compact`] (driven by [`CompactionPolicy`] via
//!    [`StreamEngine::needs_compaction`]) folds the overlay into a new
//!    base and reports the changed-billboard frontier.
//! 3. Solvers re-solve *warm* via `mroam_core::warm`: if the previous
//!    allocation avoids every changed billboard it carries over exactly
//!    (`solution_carries_over`); otherwise `warm_solve` reuses the
//!    previous sets as the starting point.
//!
//! Retirement keeps ids stable — a retired billboard's coverage list
//! empties but locks, ledgers, and allocations referencing the id stay
//! valid, matching the paper's day-by-day deployment model.
//!
//! [`CoverageModel`]: mroam_influence::CoverageModel

pub mod delta;
pub mod engine;
pub mod json;
pub mod overlay;
pub mod shard;
pub mod testutil;

pub use delta::{
    BillboardEvent, CompactionReport, EpochStats, IngestBatch, IngestError, IngestReport,
    TrajectoryDelta,
};
pub use engine::{CompactionPolicy, StreamEngine};
pub use overlay::DeltaOverlay;
pub use shard::{route_batch, RoutedBatch};

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_data::{BillboardStore, StoreError, TrajectoryStore};
    use mroam_geo::Point;
    use mroam_influence::CoverageModel;

    /// Three billboards on a line, 200 m apart, λ = 50 m.
    const LAMBDA: f64 = 50.0;

    fn stores() -> (BillboardStore, TrajectoryStore) {
        let billboards = BillboardStore::from_locations(vec![
            Point::new(0.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(400.0, 0.0),
        ]);
        let mut trajectories = TrajectoryStore::new();
        // t0 passes billboard 0, t1 passes billboards 1 and 2.
        trajectories
            .push_at_speed(&[Point::new(-10.0, 0.0), Point::new(10.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(190.0, 0.0), Point::new(410.0, 0.0)], 10.0)
            .unwrap();
        (billboards, trajectories)
    }

    fn engine() -> StreamEngine {
        let (b, t) = stores();
        StreamEngine::new(b, t, LAMBDA)
    }

    fn near(b: f64) -> TrajectoryDelta {
        TrajectoryDelta::at_speed(vec![Point::new(b, 1.0), Point::new(b + 5.0, 1.0)], 5.0)
    }

    /// Full geometric rebuild over the engine's stores with retired rows
    /// zeroed — the ground truth every epoch must match.
    fn reference(e: &StreamEngine) -> CoverageModel {
        let mut cov = mroam_influence::meets::billboard_coverage(
            e.billboards(),
            e.trajectories(),
            e.lambda_m(),
        );
        for (b, &r) in e.retired_mask().iter().enumerate() {
            if r {
                cov[b].clear();
            }
        }
        CoverageModel::from_lists(cov, e.trajectories().len())
    }

    fn assert_matches_reference(e: &StreamEngine) {
        let m = e.materialized();
        let r = reference(e);
        assert_eq!(m.coverage_lists(), r.coverage_lists());
        assert_eq!(m.n_trajectories(), r.n_trajectories());
        for b in 0..m.n_billboards() as u32 {
            assert_eq!(
                e.influence_of(b),
                r.influence_of(mroam_data::BillboardId(b))
            );
            assert_eq!(e.coverage_merged(b), r.coverage(mroam_data::BillboardId(b)));
        }
    }

    #[test]
    fn trajectory_ingest_extends_coverage() {
        let mut e = engine();
        let report = e
            .ingest(&IngestBatch {
                billboard_events: vec![],
                trajectories: vec![near(200.0)], // passes billboard 1 only
            })
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.changed_billboards, vec![1]);
        assert_eq!(e.influence_of(1), 2);
        assert_eq!(e.set_influence(&[0, 1, 2]), 3);
        assert_matches_reference(&e);
    }

    #[test]
    fn billboard_add_covers_past_and_batch_trajectories() {
        let mut e = engine();
        let report = e
            .ingest(&IngestBatch {
                billboard_events: vec![BillboardEvent::Add {
                    location: Point::new(0.0, 20.0),
                }],
                trajectories: vec![near(0.0)],
            })
            .unwrap();
        // New billboard 3 sees old t0 and the batch trajectory t2.
        assert_eq!(report.changed_billboards, vec![0, 3]);
        assert_eq!(e.coverage_merged(3), vec![0, 2]);
        assert_matches_reference(&e);
    }

    #[test]
    fn retirement_empties_coverage_but_keeps_id() {
        let mut e = engine();
        e.ingest(&IngestBatch {
            billboard_events: vec![BillboardEvent::Retire { id: 1 }],
            trajectories: vec![near(200.0)], // would pass billboard 1 — now retired
        })
        .unwrap();
        assert_eq!(e.influence_of(1), 0);
        assert_eq!(e.coverage_merged(1), Vec::<u32>::new());
        assert_eq!(e.n_billboards(), 3);
        assert_matches_reference(&e);
        assert_eq!(
            e.ingest(&IngestBatch {
                billboard_events: vec![BillboardEvent::Retire { id: 1 }],
                trajectories: vec![],
            }),
            Err(IngestError::AlreadyRetired { id: 1 })
        );
    }

    #[test]
    fn compaction_folds_overlay_and_preserves_state() {
        let mut e = engine();
        e.ingest(&IngestBatch {
            billboard_events: vec![
                BillboardEvent::Add {
                    location: Point::new(600.0, 0.0),
                },
                BillboardEvent::Retire { id: 0 },
            ],
            trajectories: vec![near(600.0)],
        })
        .unwrap();
        let before = e.materialized();
        let report = e.compact();
        assert_eq!(report.changed_billboards, vec![0, 3]);
        assert_eq!(report.folded_trajectories, 1);
        assert_eq!(report.folded_billboards, 1);
        assert_eq!(e.model().coverage_lists(), before.coverage_lists());
        assert_eq!(e.epoch_stats().overlay_trajectories, 0);
        assert_eq!(e.base_epoch(), 1);
        // Post-compaction the engine keeps streaming on the new base.
        e.ingest(&IngestBatch {
            billboard_events: vec![],
            trajectories: vec![near(400.0)],
        })
        .unwrap();
        assert_matches_reference(&e);
        // Tombstones survive compaction.
        assert_eq!(
            e.ingest(&IngestBatch {
                billboard_events: vec![BillboardEvent::Retire { id: 0 }],
                trajectories: vec![],
            }),
            Err(IngestError::AlreadyRetired { id: 0 })
        );
    }

    #[test]
    fn rejected_batches_leave_the_engine_untouched() {
        let mut e = engine();
        let stats = e.epoch_stats();
        let bad = IngestBatch {
            billboard_events: vec![BillboardEvent::Retire { id: 7 }],
            trajectories: vec![near(0.0)],
        };
        assert_eq!(e.ingest(&bad), Err(IngestError::UnknownBillboard { id: 7 }));
        let empty = IngestBatch {
            billboard_events: vec![],
            trajectories: vec![TrajectoryDelta {
                points: vec![],
                timestamps: vec![],
            }],
        };
        assert_eq!(
            e.ingest(&empty),
            Err(IngestError::EmptyTrajectory { index: 0 })
        );
        let mismatched = IngestBatch {
            billboard_events: vec![],
            trajectories: vec![TrajectoryDelta {
                points: vec![Point::new(0.0, 0.0)],
                timestamps: vec![0.0, 1.0],
            }],
        };
        assert_eq!(
            e.ingest(&mismatched),
            Err(IngestError::LengthMismatch { index: 0 })
        );
        assert_eq!(e.epoch_stats(), stats);
        assert_matches_reference(&e);
    }

    #[test]
    fn store_overflow_is_a_typed_error() {
        // Satellite (a) end-to-end: the u32 offset precheck surfaces as
        // IngestError::Store without corrupting the engine.
        let err = IngestError::from(StoreError::PointColumnOverflow { needed: 1 << 33 });
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn restored_engine_ingests_trajectories_but_not_adds() {
        let e0 = engine();
        let restored_model = std::sync::Arc::clone(e0.model());
        let mut e = StreamEngine::restore(
            restored_model,
            e0.billboards().clone(),
            e0.retired_mask().to_vec(),
            LAMBDA,
            DeltaOverlay::new(e0.n_billboards(), e0.n_trajectories()),
            e0.n_trajectories(),
            3,
            1,
        );
        assert!(!e.has_geometry());
        assert_eq!(e.epoch(), 3);
        assert_eq!(
            e.ingest(&IngestBatch {
                billboard_events: vec![BillboardEvent::Add {
                    location: Point::new(0.0, 0.0)
                }],
                trajectories: vec![],
            }),
            Err(IngestError::NoTrajectoryGeometry)
        );
        let report = e
            .ingest(&IngestBatch {
                billboard_events: vec![BillboardEvent::Retire { id: 2 }],
                trajectories: vec![near(0.0)],
            })
            .unwrap();
        assert_eq!(report.epoch, 4);
        assert_eq!(e.influence_of(0), 2);
        assert_eq!(e.influence_of(2), 0);
        // Compaction still works from overlay + base alone.
        e.compact();
        assert_eq!(e.model().n_trajectories(), 3);
    }

    #[test]
    fn compaction_policy_triggers() {
        let mut e = engine().with_policy(CompactionPolicy {
            min_overlay_trajectories: 2,
            max_overlay_ratio: 0.5,
            max_overlay_billboards: 2,
        });
        assert!(!e.needs_compaction());
        e.ingest(&IngestBatch {
            billboard_events: vec![],
            trajectories: vec![near(0.0), near(200.0)],
        })
        .unwrap();
        // 2 overlay trajectories ≥ max(2, 0.5 · 2 base).
        assert!(e.needs_compaction());
        e.compact();
        assert!(!e.needs_compaction());
        e.ingest(&IngestBatch {
            billboard_events: vec![
                BillboardEvent::Add {
                    location: Point::new(800.0, 0.0),
                },
                BillboardEvent::Add {
                    location: Point::new(1000.0, 0.0),
                },
            ],
            trajectories: vec![],
        })
        .unwrap();
        assert!(e.needs_compaction(), "billboard churn triggers regardless");
    }
}
