//! `exp_replication` — replication subsystem benchmark, recorded as the
//! `results/BENCH_replication.json` baseline.
//!
//! ```text
//! exp_replication [--days 24] [--submits 6] [--snapshot-every 4]
//!                 [--date YYYY-MM-DD] [--out results/BENCH_replication.json]
//! ```
//!
//! Two axes:
//!
//! * **lag vs ingest rate** — an in-process leader (a stream engine over
//!   the NYC test city, WAL + replication feed) serves a burst of served
//!   days while a live follower tails; recorded: burst wall time, the
//!   follower's convergence time after the burst, and the peak observed
//!   seq lag.
//! * **catch-up** — a *fresh* follower attaching to the leader after
//!   the burst: wall time from connect to the leader's durable horizon
//!   (snapshot restore + suffix replay), as the follower's own
//!   `repl_catch_up_micros` measures it.
//!
//! Correctness gates run before any timing: the follower must answer
//! `query_coverage` byte-identically to the leader at the converged
//! seq, and its day/collected/regret must match the leader's.

use std::time::{Duration, Instant};

use mroam_experiments::record::Record;
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_experiments::{params, Args};
use mroam_market::host::HostConfig;
use mroam_replica::{spawn_follower, FollowerConfig, SharedState};
use mroam_serve::batch::BatchPolicy;
use mroam_serve::protocol::Request;
use mroam_serve::server::{spawn, ServeConfig, ServerHandle, WalConfig};
use mroam_serve::{Client, ReplicationConfig};
use mroam_stream::StreamEngine;
use mroam_wal::testutil::TempDir;

struct Leader {
    handle: Option<ServerHandle>,
    client: Client,
    _dir: TempDir,
}

fn spawn_leader(snapshot_every: u32) -> Leader {
    let dir = TempDir::new("repl-leader");
    let city = build_city(CityKind::Nyc, Scale::Test);
    let engine = StreamEngine::new(city.billboards, city.trajectories, params::DEFAULT_LAMBDA);
    let mut wal = WalConfig::new(dir.path().to_path_buf());
    wal.snapshot_every = snapshot_every;
    let config = ServeConfig {
        host: HostConfig::default(),
        batch: BatchPolicy {
            max_batch: 4096,
            min_wait_nanos: 60_000_000_000,
            max_wait_nanos: 60_000_000_000,
        },
        ingest_queue: 16,
        wal: Some(wal),
        replication: Some(ReplicationConfig::new("127.0.0.1:0".into())),
    };
    let handle = spawn(engine, None, config, "127.0.0.1:0").expect("spawn leader");
    let client = Client::connect(handle.addr()).expect("connect leader");
    Leader {
        handle: Some(handle),
        client,
        _dir: dir,
    }
}

/// Serves one day: `submits` pipelined proposals, then `run_day`, then
/// drains every response.
fn serve_day(client: &mut Client, day: u64, submits: u64) {
    for i in 0..submits {
        client
            .send(&Request::Submit {
                id: 1000 * day + i,
                proposal: mroam_market::Proposal {
                    demand: 5 + 3 * i + 2 * day,
                    payment: (6 + 2 * i + day) as f64,
                    duration_days: (1 + (day + i) % 3) as u32,
                    zone: None,
                },
            })
            .expect("submit");
    }
    client
        .send(&Request::RunDay {
            id: 1000 * day + 999,
        })
        .expect("run_day");
    for _ in 0..=submits {
        client.recv().expect("recv").expect("response");
    }
}

fn leader_stats(client: &mut Client) -> serde_json::Value {
    client.call(&Request::Stats { id: 1 }).expect("stats")["stats"].clone()
}

/// Blocks until the follower applies `target_seq`; returns seconds
/// waited and the peak observed lag (in seqs) while waiting.
fn wait_applied(state: &SharedState, target_seq: u64, what: &str) -> (f64, u64) {
    let started = Instant::now();
    let mut peak_lag = 0u64;
    loop {
        let st = state.lock().expect("follower state");
        let applied = st.applied_seq();
        drop(st);
        peak_lag = peak_lag.max(target_seq.saturating_sub(applied));
        if applied >= target_seq {
            return (started.elapsed().as_secs_f64(), peak_lag);
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "{what}: follower stuck at {applied}, want {target_seq}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let args = Args::from_env(&["days", "submits", "snapshot-every", "date", "out"]);
    let days = args.usize_or("days", 24) as u64;
    let submits = args.usize_or("submits", 6) as u64;
    let snapshot_every = args.usize_or("snapshot-every", 4) as u32;

    // ---- leader + live follower --------------------------------------
    let mut leader = spawn_leader(snapshot_every);
    let feed = leader
        .handle
        .as_ref()
        .unwrap()
        .replica_addr()
        .expect("replication on");
    serve_day(&mut leader.client, 0, submits);

    let live = spawn_follower(FollowerConfig {
        leader_feed: feed,
        leader_hint: leader.handle.as_ref().unwrap().addr().to_string(),
        addr: "127.0.0.1:0".into(),
    })
    .expect("spawn live follower");
    let live_state = live.state();
    let head = leader_stats(&mut leader.client)["wal_next_seq"]
        .as_f64()
        .unwrap() as u64
        - 1;
    wait_applied(&live_state, head, "live follower initial catch-up");

    // Burst: the remaining days as fast as the leader solves them.
    let burst_started = Instant::now();
    for day in 1..days {
        serve_day(&mut leader.client, day, submits);
    }
    let burst_s = burst_started.elapsed().as_secs_f64();
    let head = leader_stats(&mut leader.client)["wal_next_seq"]
        .as_f64()
        .unwrap() as u64
        - 1;
    let (converge_s, peak_lag) = wait_applied(&live_state, head, "live follower burst");

    // ---- correctness gates (before the catch-up timing) --------------
    let mut follower_client = Client::connect(live.addr()).expect("connect follower");
    let queries: [Vec<u32>; 3] = [vec![0], vec![0, 1, 2, 3], vec![2, 5, 7]];
    for (i, billboards) in queries.iter().enumerate() {
        let id = 7000 + i as u64;
        let on_leader = leader.client.call(&Request::QueryCoverage {
            id,
            billboards: billboards.clone(),
        });
        let on_follower = follower_client.call(&Request::QueryCoverage {
            id,
            billboards: billboards.clone(),
        });
        let (l, f) = (on_leader.expect("leader"), on_follower.expect("follower"));
        assert_eq!(l, f, "coverage diverges at seq {head}: {l:?} vs {f:?}");
    }
    let ls = leader_stats(&mut leader.client);
    let fs = follower_client
        .call(&Request::Stats { id: 2 })
        .expect("stats")["stats"]
        .clone();
    for field in ["day", "locked", "free", "collected", "regret"] {
        assert_eq!(
            ls[field].as_f64(),
            fs[field].as_f64(),
            "stats field {field} diverges at seq {head}"
        );
    }
    let redirect = follower_client
        .call(&Request::RunDay { id: 9999 })
        .expect("redirect");
    assert_eq!(redirect["type"].as_str(), Some("redirect"));
    eprintln!("[exp_replication] gates passed: follower bit-identical to leader at seq {head}");

    // ---- fresh-follower catch-up axis --------------------------------
    let fresh_started = Instant::now();
    let fresh = spawn_follower(FollowerConfig {
        leader_feed: feed,
        leader_hint: String::new(),
        addr: "127.0.0.1:0".into(),
    })
    .expect("spawn fresh follower");
    let fresh_state = fresh.state();
    let (_, _) = wait_applied(&fresh_state, head, "fresh follower catch-up");
    let fresh_total_s = fresh_started.elapsed().as_secs_f64();
    let (fresh_catch_up_us, fresh_snapshots) = {
        let st = fresh_state.lock().expect("follower state");
        (st.last_catch_up_micros(), st.snapshots_received())
    };
    let repl_bytes = ls["repl_shipped_bytes"].as_f64().unwrap_or(0.0);
    let repl_frames = ls["repl_shipped_frames"].as_f64().unwrap_or(0.0);

    fresh.stop();
    live.stop();
    let bye = leader
        .client
        .call(&Request::Shutdown { id: 1 })
        .expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    leader.handle.take().unwrap().join();

    // ---- emit --------------------------------------------------------
    let mut rows: Vec<(String, f64)> = Vec::new();
    rows.push((format!("lag/burst_{days}_days/burst_s"), burst_s));
    rows.push((format!("lag/burst_{days}_days/converge_s"), converge_s));
    rows.push((
        format!("lag/burst_{days}_days/peak_lag_seqs"),
        peak_lag as f64,
    ));
    rows.push(("catch_up/fresh_follower/total_s".into(), fresh_total_s));
    rows.push((
        "catch_up/fresh_follower/connect_to_durable_s".into(),
        fresh_catch_up_us as f64 / 1e6,
    ));
    rows.push((
        "catch_up/fresh_follower/snapshots_received".into(),
        fresh_snapshots as f64,
    ));
    rows.push(("feed/shipped_frames".into(), repl_frames));
    rows.push(("feed/shipped_bytes".into(), repl_bytes));
    let mut record = Record::new(
        "replication",
        "cargo run --release -p mroam-replica --bin exp_replication",
        &args,
    );
    record
        .host_threads()
        .field("days", days)
        .field("submits_per_day", submits)
        .field("snapshot_every", snapshot_every)
        .results("value", &rows);
    record.emit(
        &[
            "lag rows drive a live follower through a served-day burst on the loopback: peak_lag_seqs is bounded by the leader's solve time per day (the follower replays the same solver), and converge_s is the drain after the last day. catch_up rows attach a fresh follower after the burst: snapshot restore plus suffix replay to the durable horizon.".into(),
            "Correctness gates ran before timing: follower query_coverage answers and day/locked/free/collected/regret are bit-identical to the leader at the converged seq, and mutations on the follower answer the typed redirect.".into(),
        ],
        &args,
    );
}
