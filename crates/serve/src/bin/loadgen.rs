//! `loadgen` — an open-loop load-test harness for `mroam-served`.
//!
//! Spawns a server in-process on a loopback port, then hammers it with
//! seeded proposal submissions at a configured arrival rate. Arrivals are
//! **open-loop** (Poisson: exponential inter-arrival gaps drawn up front
//! from the seed), so send times do not depend on server responses — the
//! standard way to avoid coordinated omission when measuring latency.
//! One connection carries the submit stream; a second carries control
//! requests (stats, shutdown) so they are never queued behind a batch.
//!
//! ```text
//! loadgen [--requests 500] [--rps 1000] [--seed 42] [--city nyc|sg]
//!         [--scale test|bench|paper] [--algo g-global] [--gamma 0.5]
//!         [--p-avg 0.05] [--max-batch 64] [--max-wait-ms 20]
//!         [--model-cache path/to/model.cov]
//!         [--addr HOST:PORT] [--supply N] [--shutdown true]
//!         [--follower-addr HOST:PORT]
//! ```
//!
//! `--model-cache` reuses a fingerprinted coverage-model file across
//! runs, so repeated load tests skip the cold-start model build.
//!
//! With `--addr`, loadgen targets an already-running `mroam-served`
//! instead of spawning one: no city build, demand sized from `--supply`
//! (default 1000), and the server is left running afterwards unless
//! `--shutdown true`. This is how the crash-recovery smoke drives a
//! WAL-enabled daemon across a kill and restart.
//!
//! With `--follower-addr`, read-only traffic (`query_coverage`,
//! `stats`) is routed to a replica while every write still goes to the
//! leader — the read-scaling deployment shape. The run then
//! self-checks the replication contract: once the follower advertises
//! the leader's final WAL seq, its coverage and stats answers must be
//! byte-identical to the leader's (same history prefix ⇒ same bytes),
//! and any mismatch fails the smoke.
//!
//! Prints throughput and client-observed p50/p95/p99, cross-checked
//! against the server's own histogram, and exits nonzero if the run is
//! inconsistent (lost responses, non-monotone percentiles, zero
//! throughput) — which makes a plain run double as a CI smoke test.

use mroam_core::solver::{SolverSpec, SOLVER_NAMES};
use mroam_experiments::args::Args;
use mroam_experiments::cache;
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_market::host::HostConfig;
use mroam_market::Proposal;
use mroam_serve::batch::BatchPolicy;
use mroam_serve::client::Client;
use mroam_serve::histogram::LogHistogram;
use mroam_serve::protocol::Request;
use mroam_serve::server::{spawn, ServeConfig};
use mroam_stream::StreamEngine;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The `--key`s this binary reads; any other key exits 2.
const KEYS: &[&str] = &[
    "requests",
    "rps",
    "seed",
    "city",
    "scale",
    "algo",
    "gamma",
    "p-avg",
    "max-batch",
    "max-wait-ms",
    "model-cache",
    "addr",
    "supply",
    "shutdown",
    "follower-addr",
];

fn main() {
    let args = Args::from_env(KEYS);
    let n = args.usize_or("requests", 500);
    let rps = args.f64_or("rps", 1000.0);
    let seed = args.seed();
    let scale = args
        .get("scale")
        .map(|s| Scale::parse(s).unwrap_or_else(|| panic!("bad --scale {s:?}")))
        .unwrap_or(Scale::Test);
    let algo = args.get("algo").unwrap_or("g-global");
    let solver = SolverSpec::by_name(algo)
        .unwrap_or_else(|| {
            eprintln!("bad --algo {algo:?}: expected {}", SOLVER_NAMES.join("|"));
            exit(2);
        })
        .with_seed(seed);
    assert!(n >= 1, "--requests must be at least 1");
    assert!(rps > 0.0, "--rps must be positive");

    // Target: an external server (`--addr`), or build the dataset and
    // spawn one in-process on an ephemeral port.
    let (addr, supply, handle, target) = if let Some(a) = args.get("addr") {
        let addr: std::net::SocketAddr = a.parse().unwrap_or_else(|_| {
            eprintln!("bad --addr {a:?}: expected HOST:PORT");
            exit(2);
        });
        let supply = args.usize_or("supply", 1000) as u64;
        (addr, supply, None, "external server".to_string())
    } else {
        let city = build_city(args.city(CityKind::Nyc), scale);
        let lambda = mroam_experiments::params::DEFAULT_LAMBDA;
        let model = match args.get("model-cache") {
            Some(path) => {
                let start = Instant::now();
                let (model, status) = cache::load_or_build(
                    &city.billboards,
                    &city.trajectories,
                    lambda,
                    std::path::Path::new(path),
                );
                println!(
                    "model {} {path} in {:.1?}",
                    match status {
                        cache::CacheStatus::Hit => "loaded from cache",
                        cache::CacheStatus::Rebuilt => "built and cached to",
                    },
                    start.elapsed()
                );
                model
            }
            None => city.coverage(lambda),
        };
        let supply = model.supply();
        let config = ServeConfig {
            host: HostConfig {
                gamma: args.f64_or("gamma", 0.5),
                solver,
            },
            batch: BatchPolicy {
                max_batch: args.usize_or("max-batch", 64),
                max_wait_nanos: (args.f64_or("max-wait-ms", 20.0) * 1e6) as u64,
                ..BatchPolicy::default()
            },
            ..ServeConfig::default()
        };
        let engine =
            StreamEngine::from_model(Arc::new(model), city.billboards, city.trajectories, lambda);
        let handle = spawn(engine, None, config, "127.0.0.1:0").unwrap_or_else(|e| {
            eprintln!("cannot spawn server: {e}");
            exit(1);
        });
        let target = format!("{}/{scale:?}", city.name);
        (handle.addr(), supply, Some(handle), target)
    };
    let follower_addr: Option<std::net::SocketAddr> = args.get("follower-addr").map(|a| {
        a.parse().unwrap_or_else(|_| {
            eprintln!("bad --follower-addr {a:?}: expected HOST:PORT");
            exit(2);
        })
    });
    println!(
        "loadgen: {n} submits @ ~{rps} rps against {addr} ({target}, algo {algo}, seed {seed})"
    );
    if let Some(f) = follower_addr {
        println!("loadgen: read traffic routed to follower {f}");
    }

    // Draw the whole workload up front from the seed: proposals and the
    // open-loop send schedule (exponential gaps with mean 1/rps).
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let p_avg = args.f64_or("p-avg", 0.05);
    let mut proposals = Vec::with_capacity(n);
    let mut send_at = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        let omega: f64 = rng.gen_range(0.8..1.2);
        let demand = ((omega * p_avg * supply as f64) as u64).max(1);
        let eps: f64 = rng.gen_range(0.9..1.1);
        proposals.push(Proposal {
            demand,
            payment: (eps * demand as f64).floor(),
            duration_days: rng.gen_range(1..=3u32),
            zone: None,
        });
        let unit: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - unit).ln() / rps;
        send_at.push(Duration::from_secs_f64(t));
    }

    // The submit connection: a sender thread paces the schedule while the
    // main thread drains responses. Send times are published through a
    // shared table *before* each send, so a response can never observe an
    // empty slot.
    let mut submit_conn = Client::connect(addr).expect("connect submit stream");
    let sender_conn = Client::connect_clone(&submit_conn).expect("clone submit stream");

    // Read traffic rides the follower while writes hammer the leader:
    // a closed-loop reader alternating coverage queries and stats. The
    // follower answers at whatever seq it has applied, so mid-run
    // responses are only counted (the strict byte-comparison happens
    // after the run, at a converged seq). Errors before the first
    // snapshot lands ("no world yet") are routed-but-unanswered.
    let read_stop = Arc::new(AtomicBool::new(false));
    let reader = follower_addr.map(|faddr| {
        let stop = Arc::clone(&read_stop);
        thread::spawn(move || -> (u64, u64) {
            let mut conn = match Client::connect(faddr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot connect follower {faddr}: {e}");
                    return (0, 0);
                }
            };
            let (mut routed, mut answered) = (0u64, 0u64);
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let id = 1_000_000 + i;
                let req = if i % 8 == 7 {
                    Request::Stats { id }
                } else {
                    Request::QueryCoverage {
                        id,
                        billboards: vec![(i % 4) as u32],
                    }
                };
                match conn.call(&req) {
                    Ok(v) => {
                        routed += 1;
                        if v["type"].as_str() != Some("error") {
                            answered += 1;
                        }
                    }
                    Err(_) => break,
                }
                i += 1;
                thread::sleep(Duration::from_millis(1));
            }
            (routed, answered)
        })
    });
    let sent_at: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; n]));
    let started = Instant::now();
    let sender = {
        let sent_at = Arc::clone(&sent_at);
        thread::spawn(move || {
            let mut conn = sender_conn;
            for (i, (proposal, at)) in proposals.into_iter().zip(send_at).enumerate() {
                if let Some(gap) = at.checked_sub(started.elapsed()) {
                    thread::sleep(gap);
                }
                sent_at.lock().unwrap()[i] = Some(Instant::now());
                conn.send(&Request::Submit {
                    id: i as u64,
                    proposal,
                })
                .expect("send submit");
            }
        })
    };

    let mut latency = LogHistogram::default();
    let mut wait = LogHistogram::default();
    let mut satisfied = 0usize;
    let mut received = 0usize;
    while received < n {
        let v = match submit_conn.recv() {
            Ok(Some(v)) => v,
            Ok(None) => {
                eprintln!("server closed the connection after {received}/{n} responses");
                exit(1);
            }
            Err(e) => {
                eprintln!("receive error after {received}/{n} responses: {e}");
                exit(1);
            }
        };
        let now = Instant::now();
        match v["type"].as_str() {
            Some("allocated") => {
                let id = v["id"].as_f64().expect("allocated id") as usize;
                let sent = sent_at.lock().unwrap()[id].expect("response before send");
                latency.record(now.duration_since(sent).as_micros() as u64);
                wait.record(v["wait_micros"].as_f64().unwrap_or(0.0) as u64);
                if v["satisfied"].as_bool() == Some(true) {
                    satisfied += 1;
                }
                received += 1;
            }
            other => {
                eprintln!("unexpected response type {other:?}: {v:?}");
                exit(1);
            }
        }
    }
    let elapsed = started.elapsed();
    sender.join().expect("sender thread");

    // Follower self-check, before anything can shut the leader down:
    // wait until the follower advertises the leader's (now quiescent)
    // WAL head twice in a row, then demand byte-identical answers.
    let mut follower_failures: Vec<String> = Vec::new();
    if let Some(faddr) = follower_addr {
        read_stop.store(true, Ordering::SeqCst);
        let (routed, answered) = reader
            .expect("reader thread")
            .join()
            .expect("join reader thread");
        let mut lc = Client::connect(addr).expect("leader check stream");
        let mut fc = Client::connect(faddr).expect("follower check stream");
        let head_of = |c: &mut Client, field: &str| -> u64 {
            c.call(&Request::Stats { id: 2_000_000 })
                .expect("stats for convergence")["stats"][field]
                .as_f64()
                .unwrap_or(0.0) as u64
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let head = loop {
            let head = head_of(&mut lc, "wal_next_seq").saturating_sub(1);
            while head_of(&mut fc, "repl_applied_seq") < head {
                if Instant::now() > deadline {
                    break;
                }
                thread::sleep(Duration::from_millis(2));
            }
            // A trailing snapshot mark may land after the first read;
            // only a stable head counts as converged.
            if head_of(&mut lc, "wal_next_seq").saturating_sub(1) == head
                || Instant::now() > deadline
            {
                break head;
            }
        };
        let applied = head_of(&mut fc, "repl_applied_seq");
        if applied < head {
            follower_failures.push(format!(
                "follower stuck at seq {applied}, leader head {head}"
            ));
        } else {
            let n_billboards = {
                let s = lc.call(&Request::Stats { id: 2_000_001 }).expect("stats");
                (s["stats"]["locked"].as_f64().unwrap_or(0.0)
                    + s["stats"]["free"].as_f64().unwrap_or(0.0)) as u32
            };
            let mut sets: Vec<Vec<u32>> = vec![(0..n_billboards.min(8)).collect()];
            if n_billboards > 0 {
                sets.push(vec![0]);
                sets.push(vec![n_billboards / 2]);
                sets.push(vec![n_billboards - 1]);
            }
            for billboards in sets {
                let req = Request::QueryCoverage {
                    id: 2_000_002,
                    billboards: billboards.clone(),
                };
                let l = lc.call(&req).expect("leader coverage");
                let f = fc.call(&req).expect("follower coverage");
                if l != f {
                    follower_failures.push(format!(
                        "coverage of {billboards:?} diverges at seq {head}: leader {l:?}, follower {f:?}"
                    ));
                }
            }
            let l = lc.call(&Request::Stats { id: 2_000_003 }).expect("stats");
            let f = fc.call(&Request::Stats { id: 2_000_003 }).expect("stats");
            for field in ["day", "locked", "free", "collected", "regret"] {
                if l["stats"][field].as_f64() != f["stats"][field].as_f64() {
                    follower_failures.push(format!(
                        "stats field {field} diverges at seq {head}: leader {:?}, follower {:?}",
                        l["stats"][field], f["stats"][field]
                    ));
                }
            }
        }
        println!(
            "follower: {routed} reads routed ({answered} answered), leader head seq {head}: {}",
            if follower_failures.is_empty() {
                "answers match the leader byte-for-byte"
            } else {
                "MISMATCH"
            }
        );
    }

    // Control connection: pull the server's own view, then stop it —
    // except in `--addr` mode, where the server outlives the run unless
    // `--shutdown true` asks otherwise.
    let mut control = Client::connect(addr).expect("connect control stream");
    let stats = control
        .call(&Request::Stats { id: n as u64 })
        .expect("stats call");
    if handle.is_some() || args.get("shutdown") == Some("true") {
        let bye = control
            .call(&Request::Shutdown { id: n as u64 + 1 })
            .expect("shutdown call");
        assert_eq!(
            bye["type"].as_str(),
            Some("bye"),
            "shutdown not acknowledged"
        );
    }
    if let Some(handle) = handle {
        handle.join();
    }

    let p = latency.percentiles();
    let w = wait.percentiles();
    let secs = elapsed.as_secs_f64();
    let throughput = n as f64 / secs;
    println!(
        "done: {n} allocations in {secs:.3} s -> {throughput:.1} req/s ({satisfied} satisfied)"
    );
    println!(
        "client latency us: mean={:.0} p50={} p95={} p99={} max={}",
        p.mean, p.p50, p.p95, p.p99, p.max
    );
    println!(
        "queue wait   us: mean={:.0} p50={} p95={} p99={}",
        w.mean, w.p50, w.p95, w.p99
    );
    let s = &stats["stats"];
    let num = |v: &serde_json::Value| v.as_f64().unwrap_or(0.0);
    println!(
        "server view: {} submits, {} batches (mean {:.1}, max {}), day {}, \
         latency p50={} p95={} p99={}, solve p50={} p99={}",
        num(&s["submits"]),
        num(&s["batches"]),
        num(&s["mean_batch"]),
        num(&s["max_batch"]),
        num(&s["day"]),
        num(&s["latency"]["p50"]),
        num(&s["latency"]["p95"]),
        num(&s["latency"]["p99"]),
        num(&s["solve"]["p50"]),
        num(&s["solve"]["p99"]),
    );
    println!(
        "RESULT requests={n} seconds={secs:.3} rps={throughput:.1} \
         p50_us={} p95_us={} p99_us={}",
        p.p50, p.p95, p.p99
    );

    // Self-checking smoke: a plain run is the CI acceptance test.
    let mut failures = follower_failures;
    if throughput <= 0.0 {
        failures.push("throughput is not positive".to_string());
    }
    if !(p.p50 <= p.p95 && p.p95 <= p.p99) {
        failures.push(format!(
            "percentiles not monotone: p50={} p95={} p99={}",
            p.p50, p.p95, p.p99
        ));
    }
    // An external server may carry submits from earlier runs (the
    // crash-recovery smoke restarts it mid-traffic), so `--addr` mode
    // only requires that our own submits were counted.
    let seen = s["submits"].as_f64().unwrap_or(-1.0);
    let external = args.get("addr").is_some();
    if (external && seen < n as f64) || (!external && seen != n as f64) {
        failures.push(format!("server saw {seen} submits, expected {n}"));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("SMOKE FAIL: {f}");
        }
        exit(1);
    }
    println!("SMOKE OK");
}
