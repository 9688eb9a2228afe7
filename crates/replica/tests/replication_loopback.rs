//! End-to-end replication over real loopback TCP: an in-process leader
//! (streaming world, WAL, replication feed) and followers tailing it.
//!
//! The acceptance invariant: at **every** advertised `applied_seq` the
//! follower's read answers are bit-identical to the leader's at the
//! moment its log head was that seq. The driver applies one mutation at
//! a time, waits for the follower to advertise the leader's head seq,
//! and only then compares — so leader and follower are interrogated at
//! the *same* history prefix, including across a follower kill +
//! watermark reconnect and a fresh follower's snapshot catch-up.

use mroam_core::solver::SolverSpec;
use mroam_data::{BillboardStore, TrajectoryStore};
use mroam_geo::Point;
use mroam_market::host::HostConfig;
use mroam_replica::{spawn_follower, FollowerConfig, FollowerHandle, Session, SessionEvent};
use mroam_serve::batch::BatchPolicy;
use mroam_serve::client::Client;
use mroam_serve::protocol::Request;
use mroam_serve::server::{spawn, ServeConfig, ServerHandle, WalConfig};
use mroam_serve::ReplicationConfig;
use mroam_stream::{StreamEngine, TrajectoryDelta};
use mroam_wal::testutil::TempDir;
use mroam_wal::SyncPolicy;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

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

/// A replicated leader on port 0: manual batch windows (tests control
/// day boundaries), per-record sync, snapshots every 2 days so the
/// pruning horizon moves during the test, and a caller-chosen bounded
/// follower queue.
fn leader_with_queue(dir: &std::path::Path, queue_msgs: usize) -> ServerHandle {
    let mut wal = WalConfig::new(dir.to_path_buf());
    wal.options.sync = SyncPolicy::PerRecord;
    wal.options.segment_bytes = 512; // rotate often: exercise cursor rebinds
    wal.snapshot_every = 2;
    let mut replication = ReplicationConfig::new("127.0.0.1:0".into());
    replication.queue_msgs = queue_msgs;
    spawn(
        line_engine(),
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
            ingest_queue: 16,
            wal: Some(wal),
            replication: Some(replication),
        },
        "127.0.0.1:0",
    )
    .expect("spawn leader")
}

fn leader(dir: &std::path::Path) -> ServerHandle {
    leader_with_queue(dir, 256)
}

fn follower(feed: SocketAddr, leader_cmd: &str) -> FollowerHandle {
    spawn_follower(FollowerConfig {
        leader_feed: feed,
        leader_hint: leader_cmd.to_string(),
        addr: "127.0.0.1:0".into(),
    })
    .expect("spawn follower")
}

/// The leader's current log head seq (from its stats report).
fn head_seq(leader: &mut Client) -> u64 {
    let v = leader.call(&Request::Stats { id: 90 }).expect("stats");
    v["stats"]["wal_next_seq"].as_f64().expect("wal_next_seq") as u64 - 1
}

/// Polls the follower's `stats` until it has a world (its first
/// snapshot installed) and advertises `seq` applied. A fresh leader's head
/// is seq 0, which a follower without a world also reports applied.
fn wait_follower_at(follower: &mut Client, seq: u64) {
    let started = Instant::now();
    loop {
        let v = follower.call(&Request::Stats { id: 91 }).expect("stats");
        let applied = v["stats"]["repl_applied_seq"].as_f64().unwrap_or(0.0) as u64;
        let snapshots = v["stats"]["repl_snapshots_received"]
            .as_f64()
            .unwrap_or(0.0);
        if snapshots >= 1.0 && applied >= seq {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "follower stuck at applied_seq {applied}, want {seq}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Asserts the follower answers exactly like the leader right now:
/// every coverage set byte-for-byte, the market-state stats fields, and
/// the streaming epoch counters.
fn assert_converged(leader: &mut Client, follower: &mut Client, context: &str) {
    for billboards in [vec![0u32], vec![1], vec![2], vec![0, 1], vec![0, 1, 2]] {
        let req = Request::QueryCoverage {
            id: 92,
            billboards: billboards.clone(),
        };
        let l = leader.call(&req).expect("leader coverage");
        let f = follower.call(&req).expect("follower coverage");
        assert_eq!(l, f, "{context}: coverage of {billboards:?} diverges");
    }
    let l = leader
        .call(&Request::Stats { id: 93 })
        .expect("leader stats");
    let f = follower
        .call(&Request::Stats { id: 93 })
        .expect("follower stats");
    for field in [
        "day",
        "locked",
        "free",
        "collected",
        "regret",
        "snapshot_epoch",
    ] {
        assert_eq!(
            l["stats"][field].as_f64(),
            f["stats"][field].as_f64(),
            "{context}: stats field {field} diverges"
        );
    }
    let req = Request::EpochStats { id: 94 };
    let l = leader.call(&req).expect("leader epoch_stats");
    let f = follower.call(&req).expect("follower epoch_stats");
    assert_eq!(l, f, "{context}: epoch_stats diverges");
}

/// One leader day: a couple of pipelined submits, then `run_day`.
fn serve_day(leader: &mut Client, day: u64) {
    for i in 0..2u64 {
        leader
            .send(&Request::Submit {
                id: 100 * day + i,
                proposal: mroam_market::Proposal {
                    demand: 1 + i + day % 3,
                    payment: (2 + i + day) as f64,
                    duration_days: (1 + (day + i) % 2) as u32,
                    zone: None,
                },
            })
            .expect("submit");
    }
    leader
        .send(&Request::RunDay { id: 100 * day + 99 })
        .expect("run_day");
    for _ in 0..3 {
        leader.recv().expect("recv").expect("response");
    }
}

fn ingest_one(leader: &mut Client, id: u64, delta: TrajectoryDelta) {
    let v = leader
        .call(&Request::Ingest {
            id,
            batch: mroam_stream::IngestBatch {
                billboard_events: vec![],
                trajectories: vec![delta],
            },
        })
        .expect("ingest");
    assert_eq!(v["type"].as_str(), Some("ingested"));
}

#[test]
fn follower_reads_are_bit_identical_at_every_applied_seq() {
    let dir = TempDir::new("repl-loopback");
    let server = leader(dir.path());
    let leader_cmd = server.addr().to_string();
    let feed = server.replica_addr().expect("feed addr");
    let mut lc = Client::connect(server.addr()).expect("connect leader");

    // Fresh follower: must catch up from a shipped snapshot (records
    // alone don't carry the model), then track every mutation.
    let fh = follower(feed, &leader_cmd);
    let mut fc = Client::connect(fh.addr()).expect("connect follower");
    wait_follower_at(&mut fc, head_seq(&mut lc));
    assert_converged(&mut lc, &mut fc, "fresh follower after snapshot catch-up");
    {
        let st = fh.state();
        let st = st.lock().unwrap();
        assert!(
            st.snapshots_received() >= 1,
            "fresh follower got a snapshot"
        );
    }

    // Mutation script: days, ingests, and an explicit compaction, with
    // an equality checkpoint at every advertised applied_seq.
    for step in 0u64..6 {
        serve_day(&mut lc, step);
        wait_follower_at(&mut fc, head_seq(&mut lc));
        assert_converged(&mut lc, &mut fc, &format!("after day {step}"));
        ingest_one(&mut lc, 500 + step, near(200.0 * (step % 3) as f64));
        wait_follower_at(&mut fc, head_seq(&mut lc));
        assert_converged(&mut lc, &mut fc, &format!("after ingest {step}"));
    }
    let v = lc.call(&Request::Compact { id: 700 }).expect("compact");
    assert_eq!(v["type"].as_str(), Some("compacted"));
    wait_follower_at(&mut fc, head_seq(&mut lc));
    assert_converged(&mut lc, &mut fc, "after explicit compaction");

    // Mutations on the follower answer the typed redirect, naming the
    // leader's command address.
    let r = fc.call(&Request::RunDay { id: 701 }).expect("redirect");
    assert_eq!(r["type"].as_str(), Some("redirect"));
    assert_eq!(r["leader"].as_str(), Some(leader_cmd.as_str()));
    let r = fc
        .call(&Request::Submit {
            id: 702,
            proposal: mroam_market::Proposal {
                demand: 1,
                payment: 1.0,
                duration_days: 1,
                zone: None,
            },
        })
        .expect("redirect");
    assert_eq!(r["type"].as_str(), Some("redirect"));

    // Kill the follower mid-stream (no disk state survives), mutate the
    // leader past a snapshot boundary, restart: the new follower must
    // re-catch-up (snapshot + suffix) and re-converge bit-identically.
    drop(fc);
    fh.stop();
    for step in 6u64..10 {
        serve_day(&mut lc, step);
    }
    let fh2 = follower(feed, &leader_cmd);
    let mut fc2 = Client::connect(fh2.addr()).expect("reconnect follower");
    wait_follower_at(&mut fc2, head_seq(&mut lc));
    assert_converged(&mut lc, &mut fc2, "restarted follower after kill");

    // And it keeps tracking live mutations after the restart.
    serve_day(&mut lc, 10);
    wait_follower_at(&mut fc2, head_seq(&mut lc));
    assert_converged(&mut lc, &mut fc2, "restarted follower, next day");

    drop(fc2);
    fh2.stop();
    let bye = lc.call(&Request::Shutdown { id: 999 }).expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    server.join();
}

#[test]
fn session_kill_and_watermark_reconnect_preserves_identity() {
    // The step-wise Session API: apply a few records, sever the
    // connection (a network drop: world survives, socket doesn't),
    // reconnect with the watermark, and prove the resumed world equals
    // the leader at the head — without a second snapshot ship.
    let dir = TempDir::new("repl-session-kill");
    let server = leader(dir.path());
    let feed = server.replica_addr().expect("feed addr");
    let mut lc = Client::connect(server.addr()).expect("connect leader");
    // One day first, so the genesis snapshot is certainly on disk
    // before the session handshakes.
    serve_day(&mut lc, 0);

    let state = mroam_replica::FollowerState::new();

    // Session 1 connects, *then* the leader serves more days, so the
    // frames stream in live. Kill the socket after two applied records.
    let mut s1 = Session::connect(feed, state.clone()).expect("session 1");
    for day in 1..4u64 {
        serve_day(&mut lc, day);
    }
    let head = head_seq(&mut lc);
    let mut applied_events = 0;
    loop {
        match s1.step().expect("step") {
            SessionEvent::Applied { .. } => {
                applied_events += 1;
                if applied_events == 2 {
                    break;
                }
            }
            SessionEvent::Snapshot { .. }
            | SessionEvent::Skipped { .. }
            | SessionEvent::Heartbeat { .. } => {}
            SessionEvent::Closed => panic!("leader closed early"),
        }
    }
    let watermark = state.lock().unwrap().applied_seq();
    assert!(watermark < head, "kill happens mid-stream");
    drop(s1);

    // Session 2: hello carries the watermark; the leader ships only the
    // suffix (no snapshot — the world survived the drop).
    let snapshots_before = state.lock().unwrap().snapshots_received();
    let mut s2 = Session::connect(feed, state.clone()).expect("session 2");
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.lock().unwrap().applied_seq() < head {
        assert!(Instant::now() < deadline, "suffix never arrived");
        s2.step().expect("step");
    }
    assert_eq!(
        state.lock().unwrap().snapshots_received(),
        snapshots_before,
        "watermark reconnect must not re-ship a snapshot"
    );

    // The resumed world answers exactly like the leader at `head`.
    {
        let st = state.lock().unwrap();
        let world = st.world().expect("world");
        let l = lc.call(&Request::Stats { id: 95 }).expect("stats");
        assert_eq!(l["stats"]["day"].as_f64().unwrap() as u32, world.day());
        assert_eq!(
            l["stats"]["collected"].as_f64().unwrap().to_bits(),
            world.ledger().total_collected().to_bits(),
            "collected diverges bit-wise"
        );
        assert_eq!(
            l["stats"]["regret"].as_f64().unwrap().to_bits(),
            world.ledger().total_regret().to_bits(),
            "regret diverges bit-wise"
        );
        let locked = world.lock().locked_count();
        assert_eq!(l["stats"]["locked"].as_f64().unwrap() as usize, locked);
    }

    let bye = lc.call(&Request::Shutdown { id: 999 }).expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    server.join();
}

#[test]
fn slow_follower_is_disconnected_and_recovers() {
    // A session that connects but never reads fills the leader's
    // bounded send queue (2 messages here; the socket buffers absorb
    // the first few hundred KB, so the shipped payloads must overflow
    // both); the leader must drop it rather than buffer without bound,
    // and a well-behaved follower must still converge afterwards.
    let dir = TempDir::new("repl-slow");
    let server = leader_with_queue(dir.path(), 2);
    let feed = server.replica_addr().expect("feed addr");
    let mut lc = Client::connect(server.addr()).expect("connect leader");
    serve_day(&mut lc, 0);

    let stalled = Session::connect(feed, mroam_replica::FollowerState::new()).expect("stalled");
    // ~60 KB per ingest record, ~6 MB total: beyond anything loopback
    // socket buffers can swallow.
    for i in 0..100u64 {
        let points: Vec<Point> = (0..4000)
            .map(|p| Point::new(p as f64 * 0.11 + i as f64, 2.0))
            .collect();
        ingest_one(&mut lc, 2000 + i, TrajectoryDelta::at_speed(points, 10.0));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = lc.call(&Request::Stats { id: 96 }).expect("stats");
        if v["stats"]["repl_slow_disconnects"].as_f64().unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leader never dropped the stalled follower"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(stalled);

    // A live follower still converges bit-identically afterwards.
    let fh = follower(feed, &server.addr().to_string());
    let mut fc = Client::connect(fh.addr()).expect("connect follower");
    wait_follower_at(&mut fc, head_seq(&mut lc));
    assert_converged(&mut lc, &mut fc, "follower after slow-peer disconnect");

    drop(fc);
    fh.stop();
    let bye = lc.call(&Request::Shutdown { id: 999 }).expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    server.join();
}
