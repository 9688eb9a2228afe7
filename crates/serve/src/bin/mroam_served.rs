//! `mroam-served` — the long-running host allocation daemon.
//!
//! Builds (or restores) a coverage model, binds a TCP listener, and
//! serves the JSON protocol until a `shutdown` request arrives.
//!
//! ```text
//! mroam-served [--addr 127.0.0.1:7464] [--city nyc|sg] [--scale test|bench|paper]
//!              [--algo g-order|g-global|als|bls|exact] [--gamma 0.5] [--seed N]
//!              [--restarts N] [--max-batch N] [--min-wait-ms F]
//!              [--max-wait-ms F] [--restore path/to/snapshot.json]
//!              [--model-cache path/to/model.cov]
//!              [--ingest-queue N] [--wal-dir DIR] [--wal-sync record|batch|interval:MS]
//!              [--wal-segment-kb N] [--snapshot-every N] [--replica-addr ADDR]
//! ```
//!
//! `--wal-dir` turns on durable write-ahead logging: every served day,
//! ingest, and compaction is logged (and fsynced per `--wal-sync`,
//! default `batch`) *before* it applies, and a checksummed snapshot is
//! written every `--snapshot-every` days (default 8). If the directory
//! already holds a log, the daemon **recovers** from it — newest valid
//! snapshot plus WAL suffix replay — and the city/solver flags are
//! ignored in favour of the logged configuration (`--restore` too: the
//! WAL is the fresher history).
//!
//! `--model-cache` skips the coverage-model build on restart when the
//! cache file's fingerprint still matches the generated city (ignored
//! under `--restore`, which embeds its own model).
//!
//! With `--restore`, the city flags are ignored: the snapshot embeds the
//! coverage model, solver configuration, locks, and ledger, and the
//! daemon continues exactly where the snapshotted process stopped.
//!
//! The daemon always streams: `ingest`, `compact`, and `epoch_stats`
//! requests apply live trajectory/inventory deltas on top of the city
//! build (a model that never ingests is an engine whose overlay stays
//! empty). Every snapshot carries the streaming section, and a snapshot
//! without one, or with a non-null `shards` section (days are solved
//! unsharded), is refused (exit 2, typed error on stderr). Restored
//! engines accept new trajectories and retirements but refuse billboard
//! adds (the snapshot does not carry historical trajectory geometry).

use mroam_core::solver::{SolverSpec, SOLVER_NAMES};
use mroam_experiments::args::Args;
use mroam_experiments::cache;
use mroam_experiments::setup::{build_city, CityKind};
use mroam_market::host::HostConfig;
use mroam_serve::batch::BatchPolicy;
use mroam_serve::server::{spawn, ServeConfig, ServerHandle, WalConfig};
use mroam_serve::ReplicationConfig;
use mroam_stream::StreamEngine;
use mroam_wal::{state, SyncPolicy};
use std::io;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args = Args::from_env();
    let addr = args.get("addr").unwrap_or("127.0.0.1:7464").to_string();
    let batch = BatchPolicy {
        max_batch: args.usize_or("max-batch", 64),
        min_wait_nanos: (args.f64_or("min-wait-ms", 0.2) * 1e6) as u64,
        max_wait_nanos: (args.f64_or("max-wait-ms", 20.0) * 1e6) as u64,
    };
    let ingest_queue = args.usize_or("ingest-queue", 16);
    let wal = args.get("wal-dir").map(|dir| {
        let mut config = WalConfig::new(PathBuf::from(dir));
        if let Some(s) = args.get("wal-sync") {
            config.options.sync = SyncPolicy::parse(s).unwrap_or_else(|| {
                eprintln!("bad --wal-sync {s:?}: expected record|batch|interval:<ms>");
                exit(2);
            });
        }
        if let Some(kb) = args.get("wal-segment-kb") {
            let kb: u64 = kb.parse().unwrap_or_else(|_| {
                eprintln!("bad --wal-segment-kb {kb:?}: expected a size in KiB");
                exit(2);
            });
            config.options.segment_bytes = kb.max(1) * 1024;
        }
        config.snapshot_every = args.usize_or("snapshot-every", 8).max(1) as u32;
        config
    });
    // `--replica-addr` turns on the replication feed: a second listener
    // shipping the WAL (and snapshots for catch-up) to read-only
    // followers. Requires --wal-dir — there is nothing to ship without
    // a log.
    let replication = args.get("replica-addr").map(|a| {
        if wal.is_none() {
            eprintln!("--replica-addr requires --wal-dir: replication ships the WAL");
            exit(2);
        }
        ReplicationConfig::new(a.to_string())
    });
    // A WAL directory that already holds a snapshot is an existing
    // history: recover from it (and keep logging to it).
    let recoverable = wal.as_ref().filter(|wc| {
        state::list_snapshots(&wc.dir)
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    });

    let handle: io::Result<ServerHandle> = if let Some(wc) = recoverable {
        let (world, report) = mroam_wal::recover(&wc.dir).unwrap_or_else(|e| {
            eprintln!("wal recovery failed in {:?}: {e}", wc.dir);
            exit(2);
        });
        eprintln!(
            "wal recovery: snapshot seq {} + {} replayed records -> day {}, epoch {}{}",
            report.snapshot_seq,
            report.replayed,
            report.day,
            report.epoch,
            if report.torn_tail_bytes > 0 {
                format!(" ({} torn tail bytes discarded)", report.torn_tail_bytes)
            } else {
                String::new()
            }
        );
        for (seq, reason) in &report.skipped_snapshots {
            eprintln!("wal recovery: skipped snapshot {seq}: {reason}");
        }
        let (host, seed, engine) = world.into_parts();
        let config = ServeConfig {
            host,
            batch,
            ingest_queue,
            wal: wal.clone(),
            replication: replication.clone(),
        };
        spawn(engine, Some(seed), config, &addr)
    } else if let Some(path) = args.get("restore") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read snapshot {path:?}: {e}");
            exit(2);
        });
        let restored = state::decode(&text).unwrap_or_else(|e| {
            eprintln!("cannot restore snapshot {path:?}: {e}");
            exit(2);
        });
        eprintln!(
            "restored day {} ({} billboards, {} locked)",
            restored.seed.day,
            restored.model.n_billboards(),
            restored.seed.lock.locked_count()
        );
        let config = ServeConfig {
            host: restored.config,
            batch,
            ingest_queue,
            wal: wal.clone(),
            replication: replication.clone(),
        };
        let stream = restored
            .stream
            .expect("a decoded snapshot always carries its stream section");
        eprintln!(
            "streaming restored at epoch {} ({} compactions)",
            stream.epoch, stream.compactions
        );
        let engine = stream.into_engine(Arc::new(restored.model));
        spawn(engine, Some(restored.seed), config, &addr)
    } else {
        let algo = args.get("algo").unwrap_or("g-global");
        let solver = SolverSpec::by_name(algo)
            .unwrap_or_else(|| {
                eprintln!("bad --algo {algo:?}: expected {}", SOLVER_NAMES.join("|"));
                exit(2);
            })
            .with_seed(args.seed())
            .with_restarts(args.usize_or("restarts", 5))
            .with_improvement_ratio(args.f64_or("improvement-ratio", 0.0));
        let mut city = build_city(args.city(CityKind::Nyc), args.scale());
        // `--head-trajectories N` keeps only the first N generated
        // trajectories in the initial build, leaving the rest to arrive
        // over `ingest` (replay harnesses, the CI smoke step).
        if let Some(n) = args.get("head-trajectories") {
            let n: usize = n.parse().unwrap_or_else(|_| {
                eprintln!("bad --head-trajectories {n:?}: expected a count");
                exit(2);
            });
            if n < city.trajectories.len() {
                let mut head = mroam_data::TrajectoryStore::new();
                for t in city.trajectories.iter().take(n) {
                    head.push_with_timestamps(t.points, t.timestamps)
                        .expect("head prefix fits the column budget");
                }
                city.trajectories = head;
            }
        }
        let lambda = mroam_experiments::params::DEFAULT_LAMBDA;
        let model = match args.get("model-cache") {
            Some(path) => {
                let (model, status) = cache::load_or_build(
                    &city.billboards,
                    &city.trajectories,
                    lambda,
                    std::path::Path::new(path),
                );
                eprintln!(
                    "model {} {path}",
                    match status {
                        cache::CacheStatus::Hit => "loaded from cache",
                        cache::CacheStatus::Rebuilt => "built and cached to",
                    }
                );
                model
            }
            None => city.coverage(lambda),
        };
        eprintln!(
            "serving {} ({} billboards, {} trajectories, streaming)",
            city.name,
            model.n_billboards(),
            model.n_trajectories(),
        );
        let host = HostConfig {
            gamma: args.f64_or("gamma", 0.5),
            solver,
        };
        let config = ServeConfig {
            host,
            batch,
            ingest_queue,
            wal: wal.clone(),
            replication: replication.clone(),
        };
        let engine =
            StreamEngine::from_model(Arc::new(model), city.billboards, city.trajectories, lambda);
        spawn(engine, None, config, &addr)
    };

    let handle = handle.unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        exit(1);
    });
    // Stdout line 1 carries the bound address, so harnesses (loadgen
    // with --spawn, the CI smoke test) can parse it. With replication
    // on, line 2 carries the feed address for followers.
    println!("{}", handle.addr());
    if let Some(feed) = handle.replica_addr() {
        println!("replica {feed}");
    }
    handle.join();
    eprintln!("server stopped");
}
