//! Crash-recovery smoke against the *real* daemon binary: start
//! `mroam-served` with a WAL, drive allocations and an ingest over TCP,
//! `kill -9` it, restart on the same directory, and require the revived
//! server to continue at exactly the acknowledged day with a
//! bit-identical ledger (collected and regret match to the last bit).
//!
//! This is the in-tree twin of the CI shell scenario — same daemon, same
//! flags — so a recovery regression fails `cargo test` before it ever
//! reaches CI.

use mroam_geo::Point;
use mroam_market::Proposal;
use mroam_serve::client::Client;
use mroam_serve::protocol::Request;
use mroam_stream::{IngestBatch, TrajectoryDelta};
use serde_json::Value;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon on drop so a failing assertion never leaks it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_daemon(wal_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mroam-served"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--scale",
            "test",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--wal-sync",
            "record",
            "--wal-segment-kb",
            "4",
            "--snapshot-every",
            "3",
            // A long fixed window so days close only on explicit
            // `run_day`, keeping the day count deterministic.
            "--min-wait-ms",
            "60000",
            "--max-wait-ms",
            "60000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mroam-served");
    // Stdout's first (only) line is the bound address.
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    use std::io::BufRead;
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound address");
    let addr: SocketAddr = line.trim().parse().unwrap_or_else(|_| {
        panic!("daemon printed {line:?} instead of an address");
    });
    Daemon { child, addr }
}

fn connect(addr: SocketAddr) -> Client {
    // The listener is up before the address prints, but be lenient.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot connect to {addr}: {e}"),
        }
    }
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// Runs `days` submit+run_day rounds and returns the final stats report.
fn drive_days(conn: &mut Client, days: u32, base_id: u64) -> Value {
    for d in 0..u64::from(days) {
        let id = base_id + d * 10;
        conn.send(&Request::Submit {
            id,
            proposal: Proposal {
                demand: 5 + d % 3,
                payment: 6.0,
                duration_days: 1 + (d % 2) as u32,
                zone: None,
            },
        })
        .expect("send submit");
        // The explicit run_day closes the batch: the queued submit's
        // `allocated` is flushed first, then the `day_closed` reply.
        conn.send(&Request::RunDay { id: id + 1 })
            .expect("send run_day");
        let allocated = conn.recv().expect("submit reply").expect("open stream");
        let run = conn.recv().expect("run_day reply").expect("open stream");
        assert_eq!(
            allocated["type"].as_str(),
            Some("allocated"),
            "{allocated:?}"
        );
        assert_eq!(run["type"].as_str(), Some("day_closed"), "{run:?}");
    }
    conn.call(&Request::Stats { id: base_id + 1000 })
        .expect("stats")["stats"]
        .clone()
}

#[test]
fn kill_minus_nine_and_restart_continues_the_ledger() {
    let wal_dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("mroam-crash-smoke-{}", std::process::id()));
        p
    };
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Phase 1: fresh daemon, traffic, then SIGKILL mid-flight.
    let daemon = start_daemon(&wal_dir);
    let mut conn = connect(daemon.addr);
    let ingested = conn
        .call(&Request::Ingest {
            id: 1,
            batch: IngestBatch {
                billboard_events: vec![],
                trajectories: vec![TrajectoryDelta::at_speed(
                    vec![Point::new(10.0, 10.0), Point::new(400.0, 400.0)],
                    10.0,
                )],
            },
        })
        .expect("ingest");
    assert_eq!(
        ingested["type"].as_str(),
        Some("ingested"),
        "default daemon is streaming: {ingested:?}"
    );
    let before = drive_days(&mut conn, 5, 100);
    assert_eq!(num(&before["day"]), 5.0);
    assert!(num(&before["wal_records"]) >= 6.0, "stats: {before:?}");
    assert!(num(&before["wal_fsyncs"]) >= 1.0, "stats: {before:?}");
    // Unsynced in-flight state is exactly what the kill must not lose:
    // everything acknowledged above is already fsynced (per-record).
    drop(daemon); // SIGKILL — no shutdown request, no final sync

    // Phase 2: restart on the same WAL dir; the ledger must continue
    // bit-identically at day 5.
    let daemon = start_daemon(&wal_dir);
    let mut conn = connect(daemon.addr);
    let after = conn.call(&Request::Stats { id: 1 }).expect("stats")["stats"].clone();
    assert_eq!(num(&after["day"]), 5.0, "recovered day: {after:?}");
    assert_eq!(
        num(&after["collected"]),
        num(&before["collected"]),
        "collected must survive the kill bit-identically"
    );
    assert_eq!(
        num(&after["regret"]),
        num(&before["regret"]),
        "regret must survive the kill bit-identically"
    );
    assert!(
        num(&after["wal_snapshot_seq"]) >= 1.0,
        "snapshots resumed: {after:?}"
    );

    // Phase 3: the revived server keeps serving and logging.
    let more = drive_days(&mut conn, 2, 500);
    assert_eq!(num(&more["day"]), 7.0);
    let bye = conn
        .call(&Request::Shutdown { id: 9000 })
        .expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));

    // Offline cross-check: recovery over the final directory replays to
    // the same ledger the server reported before dying + the extra days.
    let (world, report) = mroam_wal::recover(&wal_dir).expect("offline recover");
    assert_eq!(world.day(), 7);
    assert_eq!(world.ledger().total_collected(), num(&more["collected"]));
    assert_eq!(world.ledger().total_regret(), num(&more["regret"]));
    assert!(report.last_seq >= 9);

    let _ = std::fs::remove_dir_all(&wal_dir);
}
