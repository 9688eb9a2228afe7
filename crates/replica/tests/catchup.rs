//! Kill-at-any-record catch-up: a follower severed at an arbitrary
//! point of the shipped stream, reconnecting with its watermark, must
//! land bit-identical to a from-scratch replay of the leader's log.
//!
//! The leader here is driven directly — a WAL directory built with the
//! serve loop's exact protocol (genesis snapshot, `RunDay` records,
//! periodic snapshot + `SnapshotMark` + prune) and a raw
//! [`spawn_feed`] over it — so proptest can choose the kill point
//! per *record* rather than per wall-clock accident:
//!
//! * session 1 catches up from the shipped snapshot and applies frames
//!   until a proptest-chosen seq, then the socket dies (a network
//!   drop: the follower's world survives, its connection doesn't);
//! * optionally the leader then makes progress — more days, possibly a
//!   new snapshot with the log pruned up to it, moving the horizon
//!   *past* the follower's watermark;
//! * session 2 reconnects with the watermark. Depending on where the
//!   kill fell it is served either the plain WAL suffix or (when the
//!   watermark fell behind the pruning horizon) a fresh snapshot plus
//!   suffix — both must converge to the same bytes.
//!
//! The oracle is [`recover`]: the crate-level guarantee (proven in the
//! WAL's own kill tests) that newest-snapshot + suffix replay equals
//! the uninterrupted run. A follower that equals `recover`'s world at
//! the same head equals the leader.

use mroam_core::solver::SolverSpec;
use mroam_market::host::{Host, HostConfig};
use mroam_market::ProposalGenerator;
use mroam_replica::{FollowerState, Session, SharedState};
use mroam_serve::feed::{spawn_feed, FeedHandle, ReplicationConfig};
use mroam_stream::testutil::disjoint_engine;
use mroam_stream::StreamEngine;
use mroam_wal::state::{encode, list_snapshots, write_snapshot_file};
use mroam_wal::testutil::TempDir;
use mroam_wal::{recover, SharedWal, SyncPolicy, WalOptions, WalRecord};
use proptest::prelude::*;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(seed: u64) -> HostConfig {
    HostConfig {
        gamma: 0.5,
        solver: SolverSpec::by_name("g-global").unwrap().with_seed(seed),
    }
}

fn generator(supply: u64, seed: u64) -> ProposalGenerator {
    ProposalGenerator {
        supply,
        p_avg: 0.12,
        arrivals_per_day: (1, 4),
        duration_days: (1, 3),
        seed,
    }
}

/// Snapshot/prune cadence state carried across [`advance`] calls.
struct Cadence {
    every: u32,
    since_snap: u32,
    last_snap: u64,
}

/// Runs `days` more days against the host, appending through the shared
/// WAL with the serve loop's snapshot + mark + prune cadence. The host
/// serves `engine`'s base.
fn advance(
    host: &mut Host<'_>,
    engine: &StreamEngine,
    g: &ProposalGenerator,
    wal: &SharedWal,
    dir: &Path,
    days: u32,
    cadence: &mut Cadence,
) {
    for _ in 0..days {
        let day = host.day();
        let batch = g.day_batch(day);
        wal.append(&WalRecord::RunDay {
            day,
            proposals: batch.clone(),
        })
        .unwrap();
        host.run_day(&batch);
        cadence.since_snap += 1;
        if cadence.since_snap >= cadence.every {
            cadence.since_snap = 0;
            let watermark = wal.next_seq() - 1;
            write_snapshot_file(dir, watermark, &encode(host, Some(engine))).unwrap();
            wal.append(&WalRecord::SnapshotMark {
                wal_seq: watermark,
                day: host.day(),
                epoch: 0,
            })
            .unwrap();
            // Retention: keep the previous snapshot's full suffix.
            let floor = cadence.last_snap;
            cadence.last_snap = watermark;
            wal.prune_below(floor).unwrap();
            for (seq, path) in list_snapshots(dir).unwrap() {
                if seq < floor {
                    fs::remove_file(path).unwrap();
                }
            }
        }
    }
}

fn spawn_test_feed(dir: &Path, wal: &Arc<SharedWal>) -> (FeedHandle, Arc<AtomicBool>) {
    let stopping = Arc::new(AtomicBool::new(false));
    let feed = spawn_feed(
        dir.to_path_buf(),
        Arc::clone(wal),
        ReplicationConfig::new("127.0.0.1:0".into()),
        Arc::clone(&stopping),
    )
    .expect("spawn feed");
    (feed, stopping)
}

/// Steps `session` until the shared state advertises `target` applied.
fn drain_to(session: &mut Session, state: &SharedState, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.lock().unwrap().applied_seq() < target {
        assert!(
            Instant::now() < deadline,
            "catch-up to seq {target} stalled"
        );
        session.step().expect("session step");
    }
}

/// Asserts the follower's world equals `recover`'s at the same head.
fn assert_matches_recovery(state: &SharedState, dir: &Path, head: u64) {
    let (reference, report) = recover(dir).expect("reference recovery");
    let st = state.lock().unwrap();
    assert_eq!(st.applied_seq(), head, "follower drained to the head");
    let world = st.world().expect("follower world");
    assert_eq!(
        world.day(),
        reference.day(),
        "day diverges (report: {report:?})"
    );
    assert_eq!(
        world.lock(),
        reference.lock(),
        "lock state diverges at seq {head}"
    );
    assert_eq!(
        world.ledger().days,
        reference.ledger().days,
        "ledger diverges at seq {head}"
    );
    assert_eq!(
        world.ledger().total_collected().to_bits(),
        reference.ledger().total_collected().to_bits(),
        "collected diverges bit-wise at seq {head}"
    );
    assert_eq!(
        world.ledger().total_regret().to_bits(),
        reference.ledger().total_regret().to_bits(),
        "regret diverges bit-wise at seq {head}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kill_at_any_record_then_watermark_reconnect_is_bit_identical(
        days in 4u32..10,
        snapshot_every in 2u32..4,
        seed in 0u64..1_000,
        kill_frac in 0.0f64..1.0,
        extra_days in 0u32..5,
        hard_prune in any::<bool>(),
    ) {
        let dir = TempDir::new("repl-catchup");
        let engine = disjoint_engine(&[9, 8, 7, 6, 5, 4, 3, 2]);
        let g = generator(engine.model().supply(), seed);
        let mut host = Host::new(engine.model(), config(seed));
        let wal = Arc::new(
            SharedWal::open(
                dir.path(),
                WalOptions {
                    sync: SyncPolicy::PerRecord,
                    segment_bytes: 256, // force frequent rotations
                },
            )
            .unwrap(),
        );
        write_snapshot_file(dir.path(), 0, &encode(&host, Some(&engine))).unwrap();
        let mut cadence = Cadence { every: snapshot_every, since_snap: 0, last_snap: 0 };
        advance(&mut host, &engine, &g, &wal, dir.path(), days, &mut cadence);

        let (feed, stopping) = spawn_test_feed(dir.path(), &wal);
        let state = FollowerState::new();

        // Session 1: snapshot catch-up, then frames up to the chosen
        // kill seq — which may fall *inside* the snapshot's coverage
        // (zero frames applied) or anywhere up to the head.
        let head = wal.next_seq() - 1;
        let kill_seq = (kill_frac * head as f64) as u64;
        let mut s1 = Session::connect(feed.addr(), state.clone()).expect("session 1");
        let deadline = Instant::now() + Duration::from_secs(30);
        while state.lock().unwrap().applied_seq() < kill_seq {
            prop_assert!(Instant::now() < deadline, "session 1 stalled");
            s1.step().expect("session 1 step");
        }
        let watermark = state.lock().unwrap().applied_seq();
        drop(s1); // the kill: socket gone, world retained

        // The leader may move on while the follower is down — possibly
        // pruning history past the follower's watermark, forcing the
        // snapshot (rather than suffix) path on reconnect.
        if extra_days > 0 {
            advance(&mut host, &engine, &g, &wal, dir.path(), extra_days, &mut cadence);
        }
        if hard_prune {
            let horizon = wal.next_seq() - 1;
            write_snapshot_file(dir.path(), horizon, &encode(&host, Some(&engine))).unwrap();
            wal.prune_below(horizon).unwrap();
        }
        let head = wal.next_seq() - 1;

        // Session 2: hello carries the watermark; drain to the head.
        let snapshots_before = state.lock().unwrap().snapshots_received();
        let mut s2 = Session::connect(feed.addr(), state.clone()).expect("session 2");
        drain_to(&mut s2, &state, head);
        if !hard_prune && extra_days == 0 && watermark > cadence.last_snap {
            // Nothing was pruned past the watermark: this must have
            // been a pure suffix catch-up, no snapshot re-ship.
            prop_assert_eq!(state.lock().unwrap().snapshots_received(), snapshots_before);
        }

        assert_matches_recovery(&state, dir.path(), head);

        drop(s2);
        stopping.store(true, Ordering::SeqCst);
        feed.join();
    }
}

#[test]
fn reconnect_behind_pruning_horizon_gets_a_snapshot() {
    // Deterministic companion to the proptest: engineer the watermark
    // to fall strictly behind the pruning horizon, so the leader *must*
    // re-ship a snapshot (the suffix no longer exists), and prove the
    // follower still converges bit-identically.
    let dir = TempDir::new("repl-catchup-pruned");
    let engine = disjoint_engine(&[9, 8, 7, 6, 5, 4, 3, 2]);
    let g = generator(engine.model().supply(), 42);
    let mut host = Host::new(engine.model(), config(42));
    let wal = Arc::new(
        SharedWal::open(
            dir.path(),
            WalOptions {
                sync: SyncPolicy::PerRecord,
                segment_bytes: 256,
            },
        )
        .unwrap(),
    );
    write_snapshot_file(dir.path(), 0, &encode(&host, Some(&engine))).unwrap();
    let mut cadence = Cadence {
        every: 100,
        since_snap: 0,
        last_snap: 0,
    };
    advance(&mut host, &engine, &g, &wal, dir.path(), 3, &mut cadence);

    let (feed, stopping) = spawn_test_feed(dir.path(), &wal);
    let state = FollowerState::new();
    let mut s1 = Session::connect(feed.addr(), state.clone()).expect("session 1");
    drain_to(&mut s1, &state, 2);
    drop(s1);
    let watermark = state.lock().unwrap().applied_seq();

    // Leader advances and prunes everything below its new head: the
    // follower's watermark is now behind the horizon.
    advance(&mut host, &engine, &g, &wal, dir.path(), 5, &mut cadence);
    let horizon = wal.next_seq() - 1;
    write_snapshot_file(dir.path(), horizon, &encode(&host, Some(&engine))).unwrap();
    wal.prune_below(horizon).unwrap();
    assert!(watermark < horizon);

    let snapshots_before = state.lock().unwrap().snapshots_received();
    let mut s2 = Session::connect(feed.addr(), state.clone()).expect("session 2");
    let head = wal.next_seq() - 1;
    drain_to(&mut s2, &state, head);
    assert!(
        state.lock().unwrap().snapshots_received() > snapshots_before,
        "a watermark behind the pruning horizon must be served a snapshot"
    );
    assert_matches_recovery(&state, dir.path(), head);

    drop(s2);
    stopping.store(true, Ordering::SeqCst);
    feed.join();
}
