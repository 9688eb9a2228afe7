//! End-to-end tests over a real loopback TCP connection.
//!
//! The central claim: a served batch is not merely *similar* to an
//! offline `MarketSim` day — it is the same computation, byte-identical
//! on the wire, because both paths run `step_with_proposals` with the
//! same solver seed. The server runs a `StreamEngine` (every served world
//! does) while the offline oracle runs the plain `disjoint_model`, so the
//! same test proves a never-ingesting engine serves the static model's
//! days.

use mroam_core::solver::SolverSpec;
use mroam_core::testutil::disjoint_model;
use mroam_market::host::HostConfig;
use mroam_market::json::decode_day_record;
use mroam_market::{MarketConfig, MarketSim, Proposal};
use mroam_serve::batch::BatchPolicy;
use mroam_serve::client::Client;
use mroam_serve::protocol::{Request, Response};
use mroam_serve::server::{spawn, ServeConfig, ServerHandle};
use mroam_stream::testutil::disjoint_engine;
use mroam_stream::StreamEngine;
use serde_json::Value;

fn solver_spec() -> SolverSpec {
    SolverSpec::by_name("g-global").unwrap().with_seed(7)
}

/// A server whose batches close only explicitly (`run_day`/size cap), so
/// tests control day boundaries exactly.
fn manual_server(engine: StreamEngine, max_batch: usize) -> ServerHandle {
    spawn(
        engine,
        None,
        ServeConfig {
            host: HostConfig {
                gamma: 0.5,
                solver: solver_spec(),
                shards: None,
            },
            batch: BatchPolicy {
                max_batch,
                min_wait_nanos: 60_000_000_000,
                max_wait_nanos: 60_000_000_000,
            },
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn server")
}

fn proposals_for_day(day: u64) -> Vec<Proposal> {
    (0..=(day % 3) + 1)
        .map(|i| Proposal {
            demand: 5 + 3 * i + 2 * day,
            payment: (5 + 3 * i + 2 * day) as f64,
            duration_days: (1 + (day + i) % 3) as u32,
            zone: None,
        })
        .collect()
}

fn shutdown(conn: &mut Client, id: u64) {
    let bye = conn.call(&Request::Shutdown { id }).expect("shutdown");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    assert_eq!(bye["id"].as_f64(), Some(id as f64));
}

#[test]
fn served_batches_are_byte_identical_to_offline_days() {
    let influences: Vec<u32> = (0..12).map(|i| 4 + (i * 5) % 9).collect();
    let offline_model = disjoint_model(&influences);
    let server = manual_server(disjoint_engine(&influences), 1024);
    let mut conn = Client::connect(server.addr()).expect("connect");

    let mut sim = MarketSim::new(&offline_model);
    let solver = solver_spec().build();
    let mut next_id = 0u64;
    for day in 0..5u64 {
        let batch = proposals_for_day(day);
        let first_id = next_id;
        for p in &batch {
            conn.send(&Request::Submit {
                id: next_id,
                proposal: *p,
            })
            .expect("send submit");
            next_id += 1;
        }
        let run_id = next_id;
        next_id += 1;
        conn.send(&Request::RunDay { id: run_id })
            .expect("send run_day");

        // The offline ground truth for the same day.
        let offline = sim.step_with_proposals(
            day as u32,
            &batch,
            solver.as_ref(),
            MarketConfig {
                days: day as u32 + 1,
                gamma: 0.5,
            },
        );

        // Allocated responses arrive in submit order, then the day close.
        for (i, expected) in offline.outcomes.iter().enumerate() {
            let raw = conn.recv_raw().expect("recv").expect("open");
            let v: Value = serde_json::from_str(&raw).expect("json");
            assert_eq!(v["type"].as_str(), Some("allocated"), "day {day} slot {i}");
            let wait = v["wait_micros"].as_f64().expect("wait_micros") as u64;
            let reference = Response::Allocated {
                id: first_id + i as u64,
                day: day as u32,
                outcome: expected.clone(),
                wait_micros: wait,
            }
            .encode();
            assert_eq!(raw, reference, "day {day} slot {i} not byte-identical");
        }
        let closed = conn.recv_raw().expect("recv").expect("open");
        let v: Value = serde_json::from_str(&closed).expect("json");
        assert_eq!(v["type"].as_str(), Some("day_closed"));
        assert_eq!(v["id"].as_f64(), Some(run_id as f64));
        assert_eq!(v["batch_size"].as_f64(), Some(batch.len() as f64));
        assert_eq!(
            decode_day_record(&v["record"]).expect("record decodes"),
            offline.record,
            "day {day} record differs"
        );
        // Byte-level: the offline record's encoding appears verbatim.
        let record_json = serde_json::to_string(&offline.record).unwrap();
        assert!(
            closed.contains(&record_json),
            "day {day} record not byte-identical:\n  {closed}\n  {record_json}"
        );
    }
    shutdown(&mut conn, next_id);
    server.join();
}

#[test]
fn size_cap_closes_a_batch_without_run_day() {
    let server = manual_server(disjoint_engine(&[8, 7, 6, 5, 4, 3]), 3);
    let mut conn = Client::connect(server.addr()).expect("connect");
    for id in 0..3u64 {
        conn.send(&Request::Submit {
            id,
            proposal: Proposal {
                demand: 4,
                payment: 4.0,
                duration_days: 1,
                zone: None,
            },
        })
        .expect("send");
    }
    // No run_day: the third submit hits the cap and solves the batch.
    for id in 0..3u64 {
        let v = conn.recv().expect("recv").expect("open");
        assert_eq!(v["type"].as_str(), Some("allocated"));
        assert_eq!(v["id"].as_f64(), Some(id as f64));
        assert_eq!(v["day"].as_f64(), Some(0.0));
    }
    shutdown(&mut conn, 99);
    server.join();
}

#[test]
fn stats_report_is_consistent_and_percentiles_monotone() {
    let influences: Vec<u32> = (0..10).map(|i| 3 + i % 7).collect();
    let n_billboards = influences.len();
    let server = manual_server(disjoint_engine(&influences), 1024);
    let mut conn = Client::connect(server.addr()).expect("connect");
    let mut id = 0u64;
    for day in 0..4u64 {
        for p in proposals_for_day(day) {
            conn.send(&Request::Submit { id, proposal: p })
                .expect("send");
            id += 1;
        }
        conn.send(&Request::RunDay { id }).expect("send");
        id += 1;
        // Drain this day's responses so the stats below see settled state.
        loop {
            let v = conn.recv().expect("recv").expect("open");
            if v["type"].as_str() == Some("day_closed") {
                break;
            }
            assert_eq!(v["type"].as_str(), Some("allocated"));
        }
    }
    let submitted = (0..4u64)
        .map(|d| proposals_for_day(d).len() as f64)
        .sum::<f64>();
    let v = conn.call(&Request::Stats { id }).expect("stats");
    assert_eq!(v["type"].as_str(), Some("stats"));
    let s = &v["stats"];
    assert_eq!(s["submits"].as_f64(), Some(submitted));
    assert_eq!(s["batches"].as_f64(), Some(4.0));
    assert_eq!(s["day"].as_f64(), Some(4.0));
    assert_eq!(s["queue_depth"].as_f64(), Some(0.0));
    assert_eq!(
        s["locked"].as_f64().unwrap() + s["free"].as_f64().unwrap(),
        n_billboards as f64
    );
    for h in ["latency", "solve"] {
        let p50 = s[h]["p50"].as_f64().unwrap();
        let p95 = s[h]["p95"].as_f64().unwrap();
        let p99 = s[h]["p99"].as_f64().unwrap();
        let max = s[h]["max"].as_f64().unwrap();
        assert!(
            p50 <= p95 && p95 <= p99 && p99 <= max,
            "{h} percentiles not monotone: {p50} {p95} {p99} {max}"
        );
        assert_eq!(
            s[h]["count"].as_f64(),
            Some(if h == "latency" { submitted } else { 4.0 })
        );
    }
    shutdown(&mut conn, id + 1);
    server.join();
}

#[test]
fn snapshot_over_the_wire_matches_live_state() {
    let influences = [9u32, 8, 7, 6, 5];
    let server = manual_server(disjoint_engine(&influences), 1024);
    let mut conn = Client::connect(server.addr()).expect("connect");
    let mut id = 0u64;
    for day in 0..3u64 {
        for p in proposals_for_day(day) {
            conn.send(&Request::Submit { id, proposal: p })
                .expect("send");
            id += 1;
        }
        conn.send(&Request::RunDay { id }).expect("send");
        id += 1;
        loop {
            let v = conn.recv().expect("recv").expect("open");
            if v["type"].as_str() == Some("day_closed") {
                break;
            }
        }
    }
    let v = conn.call(&Request::Snapshot { id }).expect("snapshot");
    assert_eq!(v["type"].as_str(), Some("snapshot"));
    let restored = mroam_wal::state::decode_value(&v["state"]).expect("restores");
    assert_eq!(restored.seed.day, 3);
    assert_eq!(restored.seed.ledger.days.len(), 3);
    assert_eq!(restored.model.n_billboards(), influences.len());
    assert_eq!(restored.config.solver, solver_spec());
    shutdown(&mut conn, id + 1);
    server.join();
}

#[test]
fn malformed_frames_get_errors_and_shutdown_drains_the_open_batch() {
    let server = manual_server(disjoint_engine(&[6, 5, 4]), 1024);
    let mut conn = Client::connect(server.addr()).expect("connect");

    conn.send_raw(b"this is not json").expect("send garbage");
    let v = conn.recv().expect("recv").expect("open");
    assert_eq!(v["type"].as_str(), Some("error"));

    conn.send_raw(br#"{"type":"frobnicate","id":5}"#)
        .expect("send");
    let v = conn.recv().expect("recv").expect("open");
    assert_eq!(v["type"].as_str(), Some("error"));
    assert_eq!(v["id"].as_f64(), Some(5.0));

    // A pending submit must still be answered by a draining shutdown.
    conn.send(&Request::Submit {
        id: 10,
        proposal: Proposal {
            demand: 3,
            payment: 3.0,
            duration_days: 1,
            zone: None,
        },
    })
    .expect("send submit");
    conn.send(&Request::Shutdown { id: 11 })
        .expect("send shutdown");
    let first = conn.recv().expect("recv").expect("open");
    assert_eq!(first["type"].as_str(), Some("allocated"));
    assert_eq!(first["id"].as_f64(), Some(10.0));
    let second = conn.recv().expect("recv").expect("open");
    assert_eq!(second["type"].as_str(), Some("bye"));
    assert_eq!(second["id"].as_f64(), Some(11.0));
    server.join();
}

#[test]
fn invalid_proposals_get_errors_and_the_loop_keeps_serving() {
    use mroam_serve::frame::{read_frame, write_frame};
    use std::net::TcpStream;
    use std::time::Duration;

    let server = manual_server(disjoint_engine(&[6, 5, 4]), 1024);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // A command loop killed by a proposal would never answer: the timeout
    // turns that into a failure instead of a hung test.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut call = |payload: String| -> Value {
        write_frame(&mut stream, payload.as_bytes()).expect("send");
        let frame = read_frame(&mut stream)
            .expect("an answer before the timeout")
            .expect("open");
        serde_json::from_str(std::str::from_utf8(&frame).expect("utf-8")).expect("json")
    };

    for (id, fields) in [
        (1u64, r#""demand":0,"payment":5,"duration_days":1"#),
        (2, r#""demand":5,"payment":-1,"duration_days":1"#),
        (3, r#""demand":5,"payment":5,"duration_days":0"#),
    ] {
        let v = call(format!(r#"{{"type":"submit","id":{id},{fields}}}"#));
        assert_eq!(v["type"].as_str(), Some("error"), "{fields}");
        assert_eq!(v["id"].as_f64(), Some(id as f64));
    }
    // Nothing was queued, and the day still runs.
    let v = call(r#"{"type":"run_day","id":4}"#.to_string());
    assert_eq!(v["type"].as_str(), Some("day_closed"));
    assert_eq!(v["batch_size"].as_f64(), Some(0.0));
    let v = call(r#"{"type":"stats","id":5}"#.to_string());
    assert_eq!(v["type"].as_str(), Some("stats"));
    assert_eq!(v["stats"]["submits"].as_f64(), Some(0.0));
    assert_eq!(v["stats"]["day"].as_f64(), Some(1.0));
    let v = call(r#"{"type":"shutdown","id":6}"#.to_string());
    assert_eq!(v["type"].as_str(), Some("bye"));
    server.join();
}
