//! End-to-end streaming tests over a real loopback TCP connection:
//! ingest/compact/epoch_stats wire behaviour, the pending-delta queue's
//! backpressure, epoch re-basing under live allocation, and snapshot
//! round-trips that carry the overlay.

use mroam_core::solver::SolverSpec;
use mroam_data::{BillboardStore, TrajectoryStore};
use mroam_geo::Point;
use mroam_market::host::HostConfig;
use mroam_serve::batch::BatchPolicy;
use mroam_serve::client::Client;
use mroam_serve::protocol::{Request, Response};
use mroam_serve::server::{spawn, ServeConfig, ServerHandle};
use mroam_stream::{BillboardEvent, IngestBatch, StreamEngine, TrajectoryDelta};
use std::sync::Arc;

const LAMBDA: f64 = 50.0;

/// Three billboards on a line 200 m apart; two seed trajectories.
fn line_engine() -> StreamEngine {
    let billboards = BillboardStore::from_locations(vec![
        Point::new(0.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(400.0, 0.0),
    ]);
    let mut trajectories = TrajectoryStore::new();
    trajectories
        .push_at_speed(&[Point::new(-10.0, 0.0), Point::new(10.0, 0.0)], 10.0)
        .unwrap();
    trajectories
        .push_at_speed(&[Point::new(190.0, 0.0), Point::new(410.0, 0.0)], 10.0)
        .unwrap();
    StreamEngine::new(billboards, trajectories, LAMBDA)
}

/// A trajectory passing only the billboard at x = `b`.
fn near(b: f64) -> TrajectoryDelta {
    TrajectoryDelta::at_speed(vec![Point::new(b, 1.0), Point::new(b + 5.0, 1.0)], 5.0)
}

fn streaming_server(engine: StreamEngine, ingest_queue: usize) -> ServerHandle {
    spawn(
        engine,
        None,
        ServeConfig {
            host: HostConfig {
                gamma: 0.5,
                solver: SolverSpec::by_name("g-global").unwrap().with_seed(7),
            },
            batch: BatchPolicy {
                max_batch: 1024,
                min_wait_nanos: 60_000_000_000,
                max_wait_nanos: 60_000_000_000,
            },
            ingest_queue,
            wal: None,
            replication: None,
        },
        "127.0.0.1:0",
    )
    .expect("spawn streaming server")
}

fn shutdown(conn: &mut Client, id: u64) {
    let bye = conn.call(&Request::Shutdown { id }).expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
}

#[test]
fn ingest_compact_epoch_stats_roundtrip() {
    let server = streaming_server(line_engine(), 16);
    let mut conn = Client::connect(server.addr()).expect("connect");

    // Epoch 1: one new trajectory past billboard 1, one new billboard
    // near the origin, one retirement.
    let v = conn
        .call(&Request::Ingest {
            id: 1,
            batch: IngestBatch {
                billboard_events: vec![
                    BillboardEvent::Add {
                        location: Point::new(0.0, 20.0),
                    },
                    BillboardEvent::Retire { id: 2 },
                ],
                trajectories: vec![near(200.0)],
            },
        })
        .expect("ingest");
    assert_eq!(v["type"].as_str(), Some("ingested"), "got {v:?}");
    assert_eq!(v["epoch"].as_f64(), Some(1.0));
    assert_eq!(v["new_trajectories"].as_f64(), Some(1.0));
    assert_eq!(v["new_billboards"].as_f64(), Some(1.0));
    assert_eq!(v["retired"].as_f64(), Some(1.0));

    let v = conn.call(&Request::EpochStats { id: 2 }).expect("stats");
    assert_eq!(v["type"].as_str(), Some("epoch_stats"));
    assert_eq!(v["epoch"].as_f64(), Some(1.0));
    assert_eq!(v["base_epoch"].as_f64(), Some(0.0));
    assert_eq!(v["n_billboards"].as_f64(), Some(4.0));
    assert_eq!(v["n_trajectories"].as_f64(), Some(3.0));
    assert_eq!(v["n_retired"].as_f64(), Some(1.0));
    assert_eq!(v["overlay_trajectories"].as_f64(), Some(1.0));
    assert_eq!(v["overlay_billboards"].as_f64(), Some(1.0));

    // Coverage answers from the merged overlay view: billboard 1 gained
    // the epoch-1 trajectory, the overlay-born billboard 3 sees the old
    // origin trajectory, and the retired billboard 2 reads empty.
    for (set, want) in [
        (vec![1u32], 2.0),
        (vec![3], 1.0),
        (vec![2], 0.0),
        (vec![0, 1, 2, 3], 3.0),
    ] {
        let v = conn
            .call(&Request::QueryCoverage {
                id: 3,
                billboards: set.clone(),
            })
            .expect("query");
        assert_eq!(
            v["influence"].as_f64(),
            Some(want),
            "merged influence of {set:?}"
        );
    }

    // Compaction folds the overlay, re-bases the host, and reports the
    // changed-billboard frontier.
    let v = conn.call(&Request::Compact { id: 4 }).expect("compact");
    assert_eq!(v["type"].as_str(), Some("compacted"), "got {v:?}");
    assert_eq!(v["epoch"].as_f64(), Some(1.0));
    assert_eq!(v["folded_trajectories"].as_f64(), Some(1.0));
    assert_eq!(v["changed_billboards"][0].as_f64(), Some(1.0));

    let v = conn.call(&Request::EpochStats { id: 5 }).expect("stats");
    assert_eq!(v["base_epoch"].as_f64(), Some(1.0));
    assert_eq!(v["overlay_trajectories"].as_f64(), Some(0.0));
    assert_eq!(v["overlay_billboards"].as_f64(), Some(0.0));

    // The re-based host serves the grown inventory: allocation works and
    // the wire stats expose the streaming fields (satellite b).
    let v = conn
        .call(&Request::QueryCoverage {
            id: 6,
            billboards: vec![0, 1, 2, 3],
        })
        .expect("query");
    assert_eq!(v["influence"].as_f64(), Some(3.0));
    assert_eq!(v["free_total"].as_f64(), Some(4.0));

    let v = conn.call(&Request::Stats { id: 7 }).expect("stats");
    let s = &v["stats"];
    assert_eq!(s["snapshot_epoch"].as_f64(), Some(1.0));
    assert_eq!(s["ingest_pending"].as_f64(), Some(0.0));
    // Equal window bounds: the window reads back verbatim.
    assert_eq!(s["batch_window_micros"].as_f64(), Some(60_000_000.0));

    shutdown(&mut conn, 8);
    server.join();
}

#[test]
fn ingest_parks_behind_an_open_batch_and_backpressure_kicks_in() {
    let server = streaming_server(line_engine(), 1);
    let mut conn = Client::connect(server.addr()).expect("connect");

    // Open a solve batch (the long fixed window keeps it open).
    conn.send(&Request::Submit {
        id: 1,
        proposal: mroam_market::Proposal {
            demand: 1,
            payment: 2.0,
            duration_days: 1,
            zone: None,
        },
    })
    .expect("submit");

    // First ingest parks; the second overflows the size-1 queue.
    conn.send(&Request::Ingest {
        id: 2,
        batch: IngestBatch {
            billboard_events: vec![],
            trajectories: vec![near(0.0)],
        },
    })
    .expect("ingest");
    conn.send(&Request::Ingest {
        id: 3,
        batch: IngestBatch {
            billboard_events: vec![],
            trajectories: vec![near(400.0)],
        },
    })
    .expect("ingest");
    let v = conn.recv().expect("recv").expect("open");
    assert_eq!(v["type"].as_str(), Some("error"));
    assert_eq!(v["id"].as_f64(), Some(3.0));
    assert!(
        v["message"].as_str().unwrap().contains("ingest queue full"),
        "got {v:?}"
    );

    // Queue depth is visible while the delta is parked... but `stats`
    // replies flow through the same loop, so check it before the close.
    let v = conn.call(&Request::Stats { id: 4 }).expect("stats");
    assert_eq!(v["stats"]["ingest_pending"].as_f64(), Some(1.0));

    // Closing the batch answers the submit, the day, then the parked
    // ingest — in that order, on this one connection.
    conn.send(&Request::RunDay { id: 5 }).expect("run_day");
    let first = conn.recv().expect("recv").expect("open");
    assert_eq!(first["type"].as_str(), Some("allocated"));
    let second = conn.recv().expect("recv").expect("open");
    assert_eq!(second["type"].as_str(), Some("day_closed"));
    let third = conn.recv().expect("recv").expect("open");
    assert_eq!(third["type"].as_str(), Some("ingested"));
    assert_eq!(third["id"].as_f64(), Some(2.0));
    assert_eq!(third["epoch"].as_f64(), Some(1.0));

    shutdown(&mut conn, 6);
    server.join();
}

#[test]
fn streaming_snapshot_carries_the_overlay_and_restores() {
    let server = streaming_server(line_engine(), 16);
    let mut conn = Client::connect(server.addr()).expect("connect");

    // Leave state in *both* layers: epoch 1 compacted into the base,
    // epoch 2 still pending in the overlay.
    for (id, batch) in [
        (
            1u64,
            IngestBatch {
                billboard_events: vec![BillboardEvent::Retire { id: 2 }],
                trajectories: vec![near(0.0)],
            },
        ),
        (
            3,
            IngestBatch {
                billboard_events: vec![],
                trajectories: vec![near(200.0)],
            },
        ),
    ] {
        let v = conn.call(&Request::Ingest { id, batch }).expect("ingest");
        assert_eq!(v["type"].as_str(), Some("ingested"), "got {v:?}");
        if id == 1 {
            let v = conn.call(&Request::Compact { id: 2 }).expect("compact");
            assert_eq!(v["type"].as_str(), Some("compacted"));
        }
    }

    let v = conn.call(&Request::Snapshot { id: 4 }).expect("snapshot");
    let restored = mroam_wal::state::decode_value(&v["state"]).expect("restores");
    let stream = restored.stream.expect("streaming snapshot");
    assert_eq!(stream.epoch, 2);
    assert_eq!(stream.compactions, 1);
    assert_eq!(stream.n_trajectories, 4);
    let engine = stream.into_engine(Arc::new(restored.model));
    assert_eq!(engine.epoch(), 2);
    assert!(!engine.has_geometry());
    // Merged reads reproduce the server's live view: billboard 0 has its
    // two origin passers (one from the base, one compacted in), billboard
    // 1 its base passer plus the overlay append, billboard 2 retired-empty.
    assert_eq!(engine.influence_of(0), 2);
    assert_eq!(engine.influence_of(1), 2);
    assert_eq!(engine.influence_of(2), 0);
    assert_eq!(engine.set_influence(&[0, 1, 2]), 4);
    // And the restored engine keeps streaming (trajectories only).
    let mut engine = engine;
    let report = engine
        .ingest(&IngestBatch {
            billboard_events: vec![],
            trajectories: vec![near(0.0)],
        })
        .expect("restored ingest");
    assert_eq!(report.epoch, 3);
    assert_eq!(engine.influence_of(0), 3);

    shutdown(&mut conn, 5);
    server.join();
}

#[test]
fn ingested_response_wire_shape_is_stable() {
    // Pin the wire shape of `ingested` against the typed encoder, so
    // client libraries can rely on it.
    let r = Response::Ingested {
        id: 9,
        report: mroam_stream::IngestReport {
            epoch: 1,
            new_trajectories: 2,
            new_billboards: 0,
            retired: 0,
            changed_billboards: vec![1],
        },
    };
    let v: serde_json::Value = serde_json::from_str(&r.encode()).unwrap();
    assert_eq!(v["type"].as_str(), Some("ingested"));
    assert_eq!(v["changed_billboards"][0].as_f64(), Some(1.0));
}
