//! Satellite (c): the streaming correctness anchor.
//!
//! Interleaves random ingest batches (new trajectories, billboard
//! adds/retires), compactions, and coverage queries, asserting after
//! *every* epoch that the incrementally maintained model is
//! bit-identical to a from-scratch geometric rebuild — coverage lists,
//! inverted index, overlap graph, bitmap, and `I(S)` all agree — and
//! that warm-started G-Global/BLS reproduce cold-solve regret on the
//! same epoch.

use mroam_core::prelude::*;
use mroam_data::{BillboardId, BillboardStore, TrajectoryStore};
use mroam_geo::Point;
use mroam_influence::{
    CoverageBitmap, CoverageCounter, CoverageModel, InvertedIndex, OverlapGraph,
};
use mroam_stream::{BillboardEvent, IngestBatch, StreamEngine, TrajectoryDelta};
use proptest::prelude::*;

/// Cold rebuild over the engine's stores with retired rows zeroed — the
/// ground truth the incremental path must match exactly.
fn reference(e: &StreamEngine) -> CoverageModel {
    let mut cov =
        mroam_influence::meets::billboard_coverage(e.billboards(), e.trajectories(), e.lambda_m());
    for (b, &r) in e.retired_mask().iter().enumerate() {
        if r {
            cov[b].clear();
        }
    }
    CoverageModel::from_lists(cov, e.trajectories().len())
}

/// The bit-identity check: materialized base+overlay vs cold rebuild,
/// including every derived structure and the merged read paths.
fn assert_epoch_equivalent(e: &StreamEngine) {
    let m = e.materialized();
    let r = reference(e);
    assert_eq!(
        m.coverage_lists(),
        r.coverage_lists(),
        "coverage lists diverged"
    );
    assert_eq!(m.n_trajectories(), r.n_trajectories());

    let inv = InvertedIndex::build_serial(r.coverage_lists(), r.n_trajectories());
    let ov = OverlapGraph::build_serial(r.coverage_lists(), &inv);
    let bm = CoverageBitmap::build_serial(r.coverage_lists(), r.n_trajectories());
    assert_eq!(m.inverted_index(), &inv, "inverted index diverged");
    assert_eq!(m.overlap_graph(), &ov, "overlap graph diverged");
    assert_eq!(m.coverage_bitmap(), Some(&bm), "bitmap diverged");

    // Merged (overlay-aware) read paths, billboard by billboard and for
    // the full and half sets.
    let all: Vec<u32> = (0..m.n_billboards() as u32).collect();
    for &b in &all {
        assert_eq!(e.influence_of(b), r.influence_of(BillboardId(b)));
        assert_eq!(e.coverage_merged(b), r.coverage(BillboardId(b)));
    }
    assert_eq!(e.set_influence(&all), r.set_influence(r.billboard_ids()));
    let evens: Vec<u32> = all.iter().copied().filter(|b| b % 2 == 0).collect();
    assert_eq!(
        e.set_influence(&evens),
        r.set_influence(evens.iter().map(|&b| BillboardId(b)))
    );

    // The merged read against a sparse-counter oracle over the merged
    // lists: retired, appended-to and new billboards, each set once and
    // with every billboard repeated, and the empty set.
    let oracle = |set: &[u32]| {
        let mut c = CoverageCounter::sparse();
        for &b in set {
            c.add(&e.coverage_merged(b));
        }
        c.covered()
    };
    let repeated: Vec<u32> = all.iter().flat_map(|&b| [b, b]).collect();
    for set in [&[][..], &all, &evens, &repeated] {
        assert_eq!(e.set_influence(set), oracle(set), "set {set:?}");
    }
}

fn advertisers() -> AdvertiserSet {
    AdvertiserSet::new(vec![Advertiser::new(3, 7.0), Advertiser::new(5, 9.0)])
}

/// Warm-start exactness at one epoch: re-solving warm from the cold
/// solution on the very model that produced it reproduces its regret.
fn assert_warm_matches_cold(model: &CoverageModel) {
    let advs = advertisers();
    let inst = Instance::new(model, &advs, 0.5);

    let cold = GGlobal.solve(&inst);
    let warm = warm_g_global(&inst, &cold.sets);
    assert_eq!(
        warm.total_regret, cold.total_regret,
        "warm G-Global regret diverged"
    );
    assert_eq!(
        warm.influences, cold.influences,
        "warm G-Global influences diverged"
    );

    let params = Bls {
        restarts: 1,
        ..Bls::default()
    };
    let cold_bls = params.solve(&inst);
    let warm_bls_sol = warm_bls(&inst, &cold_bls.sets, &params);
    assert_eq!(
        warm_bls_sol.total_regret, cold_bls.total_regret,
        "warm BLS regret diverged"
    );
}

fn delta(points: &[(f64, f64)]) -> TrajectoryDelta {
    TrajectoryDelta::at_speed(
        points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        10.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn interleaved_ingest_matches_cold_rebuild(
        base_bbs in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..5),
        base_trajs in proptest::collection::vec(
            proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..4), 0..6),
        lambda in 60.0..300.0f64,
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(
                    proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..4), 0..3),
                proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..2),
                proptest::collection::vec(any::<u8>(), 0..2),
                any::<bool>(),
            ),
            1..5),
    ) {
        let billboards = BillboardStore::from_locations(
            base_bbs.iter().map(|&(x, y)| Point::new(x, y)).collect());
        let mut trajectories = TrajectoryStore::new();
        for t in &base_trajs {
            let pts: Vec<Point> = t.iter().map(|&(x, y)| Point::new(x, y)).collect();
            trajectories.push_at_speed(&pts, 10.0).unwrap();
        }
        let mut engine = StreamEngine::new(billboards, trajectories, lambda);
        let mut prev: Option<Solution> = None;

        for (trajs, adds, retire_sels, compact) in &batches {
            let mut events: Vec<BillboardEvent> = adds
                .iter()
                .map(|&(x, y)| BillboardEvent::Add { location: Point::new(x, y) })
                .collect();
            // Retire selectors pick among still-live billboards; skip when
            // inventory is exhausted or a duplicate pick lands.
            let mut queued: Vec<u32> = Vec::new();
            for &sel in retire_sels {
                let live: Vec<u32> = (0..engine.n_billboards() as u32)
                    .filter(|&b| !engine.retired_mask()[b as usize] && !queued.contains(&b))
                    .collect();
                if let Some(&b) = live.get(sel as usize % live.len().max(1)) {
                    events.push(BillboardEvent::Retire { id: b });
                    queued.push(b);
                }
            }
            let batch = IngestBatch {
                billboard_events: events,
                trajectories: trajs.iter().map(|t| delta(t)).collect(),
            };
            let report = engine.ingest(&batch).unwrap();
            prop_assert_eq!(report.epoch, engine.epoch());

            // Fast path: a previous solution avoiding every changed
            // billboard keeps provably exact influences on the new epoch,
            // evaluated through the merged overlay read path.
            if let Some(prev_sol) = &prev {
                if solution_carries_over(prev_sol, &report.changed_billboards) {
                    for (a, set) in prev_sol.sets.iter().enumerate() {
                        let ids: Vec<u32> = set.iter().map(|b| b.0).collect();
                        prop_assert_eq!(engine.set_influence(&ids), prev_sol.influences[a]);
                    }
                }
            }

            assert_epoch_equivalent(&engine);

            if *compact {
                let before = engine.materialized();
                engine.compact();
                prop_assert_eq!(engine.model().coverage_lists(), before.coverage_lists());
                prop_assert_eq!(engine.base_epoch(), engine.epoch());
                assert_epoch_equivalent(&engine);
            }

            let epoch_model = engine.materialized();
            assert_warm_matches_cold(&epoch_model);
            let advs = advertisers();
            prev = Some(GGlobal.solve(&Instance::new(&epoch_model, &advs, 0.5)));
        }
    }
}
