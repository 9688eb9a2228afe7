//! `mroam` — the end-user command-line tool.
//!
//! Subcommand-style interface (first positional word selects the action;
//! everything after is `--key value` pairs):
//!
//! ```text
//! mroam solve --billboards b.csv --trajectories t.csv --advertisers a.csv
//!       [--algo bls] [--lambda 100] [--gamma 0.5] [--measure distinct]
//!       [--out assignment.csv] [--model-cache model.cov]
//!     Solve a MROAM instance from CSV inputs; writes the assignment CSV.
//!     With --model-cache, the coverage model (and its derived CSR
//!     structures) is loaded from the file when its fingerprint matches
//!     the inputs, else built and saved there for the next run.
//!
//! mroam stats --billboards b.csv --trajectories t.csv
//!       [--memory 1] [--threads 1] [--lambda 100] [--model-cache model.cov]
//!     Print the Table 5 statistics row for a dataset. With --memory 1,
//!     also build (or load) the coverage model and print the per-structure
//!     resident-size breakdown, split heap vs mapped — a --model-cache hit
//!     shows the mmap savings. With
//!     --threads 1, print the work-stealing pool's counters (width, jobs,
//!     steals, park ratio); combined with --memory the numbers reflect
//!     the model build that just ran.
//!
//! mroam coverage --billboards b.csv --trajectories t.csv --lambda 100
//!       --out model.cov
//!     Precompute the meets relation and save it in the binary coverage
//!     format (see mroam_influence::storage) — the same file --model-cache
//!     writes for these inputs, so it serves as one.
//!
//! mroam gen --city nyc --scale test --out-prefix data/nyc
//!       [--trajectories N] [--billboards N] [--seed S] [--stream 1]
//!     Generate a synthetic city to CSV files (<prefix>_billboards.csv,
//!     <prefix>_trajectories.csv). --trajectories/--billboards override
//!     the scale preset's counts (SG treats billboards as the stop
//!     budget). With --stream 1 each trip is written straight to the CSV
//!     as it is generated — peak memory stays flat no matter how many
//!     trips, which is the 10⁶–10⁷-trajectory path; the file is
//!     byte-identical to the materialised path. Either way the peak RSS
//!     (VmHWM) is reported afterwards.
//!
//! mroam cache-smoke [--path /tmp/smoke.cov]
//!     Self-test for the fingerprinted model cache: build a tiny model,
//!     save it, reload it, and verify the round trip is identical.
//!
//! mroam wal-replay --dir WALDIR [--inspect 1] [--verify 1]
//!     Offline tooling for a `mroam-served --wal-dir` directory. The
//!     default replays the log (newest valid snapshot + suffix) and
//!     prints the recovered day, epoch, collected, and regret. With
//!     --inspect 1, only lists segments, snapshots, and a record-kind
//!     histogram — no replay. With --verify 1, replays independently
//!     from *every* decodable snapshot on disk and requires all of them
//!     to converge on a bit-identical ledger; exits nonzero otherwise.
//!
//! mroam stats --wal WALDIR
//!     Shortcut for the same segment/snapshot listing (`stats` keeps its
//!     dataset mode when --wal is absent).
//!
//! mroam stats --replication 1 --addr HOST:PORT [--follower-addr HOST:PORT]
//!     Replication health of a running `mroam-served --replica-addr`
//!     leader: WAL head vs durable seq, feed totals (connects, shipped
//!     frames/bytes, snapshot sends, slow disconnects), and one row per
//!     follower connection with its shipped/acked seq and lag. With
//!     --follower-addr, also asks that follower for its own view:
//!     applied seq vs the leader's durable horizon, snapshots received,
//!     reconnects, and last catch-up time. Speaks the wire protocol
//!     directly, so it works against any reachable daemon.
//! ```

use mroam_core::prelude::*;
use mroam_data::csv;
use mroam_data::{BillboardStore, DatasetStats, TrajectoryStore};
use mroam_experiments::cache::{self, CacheStatus};
use mroam_experiments::cli_io;
use mroam_experiments::{setup, Args, CityKind, Scale};
use mroam_influence::storage::ModelFingerprint;
use mroam_influence::{CoverageModel, InfluenceMeasure};
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::exit;

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!(
            "usage: mroam <solve|stats|coverage|gen|cache-smoke|wal-replay> [--key value ...]"
        );
        exit(2);
    }
    let command = raw.remove(0);
    // Each subcommand with the `--key`s it reads; any other key exits 2.
    let (keys, run): (&[&str], fn(&Args)) = match command.as_str() {
        "solve" => (
            &[
                "billboards",
                "trajectories",
                "advertisers",
                "lambda",
                "model-cache",
                "gamma",
                "measure",
                "algo",
                "restarts",
                "seed",
                "improvement-ratio",
                "out",
            ],
            cmd_solve,
        ),
        "stats" => (
            &[
                "billboards",
                "trajectories",
                "lambda",
                "model-cache",
                "memory",
                "threads",
                "wal",
                "replication",
                "addr",
                "follower-addr",
            ],
            cmd_stats,
        ),
        "coverage" => (
            &["billboards", "trajectories", "lambda", "out"],
            cmd_coverage,
        ),
        "gen" => (
            &[
                "city",
                "scale",
                "trajectories",
                "billboards",
                "seed",
                "out-prefix",
                "stream",
            ],
            cmd_gen,
        ),
        "cache-smoke" => (&["path", "city", "lambda"], cmd_cache_smoke),
        "wal-replay" => (&["dir", "inspect", "verify"], cmd_wal_replay),
        other => {
            eprintln!(
                "unknown command {other:?}; expected solve|stats|coverage|gen|cache-smoke|wal-replay"
            );
            exit(2);
        }
    };
    run(&Args::parse(raw, keys));
}

fn required(args: &Args, key: &str) -> String {
    args.get(key)
        .unwrap_or_else(|| {
            eprintln!("missing required --{key}");
            exit(2);
        })
        .to_string()
}

/// Reads `--billboards`/`--trajectories` and `--lambda` (default 100 m).
fn load_inputs(args: &Args) -> (BillboardStore, TrajectoryStore, f64) {
    let billboards_path = required(args, "billboards");
    let trajectories_path = required(args, "trajectories");
    let lambda = args.f64_or("lambda", 100.0);
    let billboards = csv::read_billboards(File::open(&billboards_path).unwrap_or_else(|e| {
        eprintln!("cannot open {billboards_path}: {e}");
        exit(1);
    }))
    .unwrap_or_else(|e| {
        eprintln!("bad billboard file: {e}");
        exit(1);
    });
    let trajectories = csv::read_trajectories(File::open(&trajectories_path).unwrap_or_else(|e| {
        eprintln!("cannot open {trajectories_path}: {e}");
        exit(1);
    }))
    .unwrap_or_else(|e| {
        eprintln!("bad trajectory file: {e}");
        exit(1);
    });
    eprintln!(
        "[mroam] {} billboards, {} trajectories, lambda {lambda}m",
        billboards.len(),
        trajectories.len()
    );
    (billboards, trajectories, lambda)
}

/// The coverage model at `lambda`, warm: through the `--model-cache` file
/// when one is given (reporting whether it was loaded or built), else
/// built in memory.
fn model_for(
    args: &Args,
    billboards: &BillboardStore,
    trajectories: &TrajectoryStore,
    lambda: f64,
) -> CoverageModel {
    if let Some(cache_file) = args.get("model-cache") {
        let start = std::time::Instant::now();
        let (model, status) =
            cache::load_or_build(billboards, trajectories, lambda, Path::new(cache_file));
        eprintln!(
            "[mroam] model {} {cache_file} in {:.1?}",
            match status {
                CacheStatus::Hit => "loaded from",
                CacheStatus::Rebuilt => "built and cached to",
            },
            start.elapsed()
        );
        return model;
    }
    let model = CoverageModel::build(billboards, trajectories, lambda);
    model.precompute();
    model
}

fn parse_measure(args: &Args) -> InfluenceMeasure {
    match args.get("measure").unwrap_or("distinct") {
        "distinct" => InfluenceMeasure::Distinct,
        "volume" => InfluenceMeasure::Volume,
        s if s.starts_with("impressions:") => {
            let k = s["impressions:".len()..].parse().unwrap_or_else(|_| {
                eprintln!("bad --measure {s:?}: expected impressions:<k>");
                exit(2);
            });
            InfluenceMeasure::Impressions { k }
        }
        other => {
            eprintln!("bad --measure {other:?}: expected distinct|volume|impressions:<k>");
            exit(2);
        }
    }
}

fn cmd_solve(args: &Args) {
    let (billboards, trajectories, lambda) = load_inputs(args);
    let model = model_for(args, &billboards, &trajectories, lambda);
    let advertisers_path = required(args, "advertisers");
    let advertisers = cli_io::read_advertisers(File::open(&advertisers_path).unwrap_or_else(|e| {
        eprintln!("cannot open {advertisers_path}: {e}");
        exit(1);
    }))
    .unwrap_or_else(|e| {
        eprintln!("bad advertiser file: {e}");
        exit(1);
    });
    let gamma = args.f64_or("gamma", 0.5);
    let measure = parse_measure(args);
    let instance = Instance::with_measure(&model, &advertisers, gamma, measure);

    let algo = args.get("algo").unwrap_or("bls");
    let solver = mroam_core::solver::SolverSpec::by_name(algo)
        .unwrap_or_else(|| {
            eprintln!(
                "bad --algo {algo:?}: expected {}",
                mroam_core::solver::SOLVER_NAMES.join("|")
            );
            exit(2);
        })
        .with_restarts(args.usize_or("restarts", 5))
        .with_seed(args.seed())
        .with_improvement_ratio(args.f64_or("improvement-ratio", 0.0))
        .build();

    let start = std::time::Instant::now();
    let solution = solver.solve(&instance);
    let elapsed = start.elapsed();
    println!(
        "{}: total regret {:.2} (excessive {:.2}, unsatisfied {:.2}; {}/{} advertisers unsatisfied) in {:.1?}",
        solver.name(),
        solution.total_regret,
        solution.breakdown.excessive_influence,
        solution.breakdown.unsatisfied_penalty,
        solution.breakdown.n_unsatisfied,
        advertisers.len(),
        elapsed
    );

    if let Some(out) = args.get("out") {
        let mut f = File::create(out).unwrap_or_else(|e| {
            eprintln!("cannot create {out}: {e}");
            exit(1);
        });
        cli_io::write_assignments(&solution, &advertisers, &mut f).expect("write assignments");
        println!("assignment written to {out}");
    }
}

fn cmd_stats(args: &Args) {
    // `stats --replication` interrogates live daemons over the wire: no
    // dataset, no filesystem — just addresses.
    if args.flag("replication") {
        print_replication_stats(args);
        return;
    }
    // `stats --wal DIR` is the durability inspection mode: no dataset
    // needed, just the log directory.
    if let Some(dir) = args.get("wal") {
        print_wal_inspection(Path::new(dir));
        return;
    }
    let billboards = csv::read_billboards(File::open(required(args, "billboards")).expect("open"))
        .expect("parse");
    let trajectories =
        csv::read_trajectories(File::open(required(args, "trajectories")).expect("open"))
            .expect("parse");
    let stats = DatasetStats::compute("data", &trajectories, &billboards);
    println!("{}", stats.table_row());
    if args.flag("memory") {
        print_memory_breakdown(args, &billboards, &trajectories);
    }
    if args.flag("threads") {
        // When --memory also ran, the model build above exercised the
        // pool and the counters below reflect it; --threads alone warms
        // the pool and reports an idle snapshot.
        rayon::warm_up();
        print_thread_stats();
    }
}

/// One `stats` round-trip against a daemon, over a throwaway socket.
/// The wire protocol is tiny (8-byte LE length + one JSON document per
/// frame), so this avoids a dependency on the serve crate — `mroam` is
/// below it in the crate DAG.
fn wire_stats(addr: &str) -> serde_json::Value {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1);
    });
    let payload = br#"{"type":"stats","id":1}"#;
    let mut msg = Vec::with_capacity(8 + payload.len());
    msg.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    msg.extend_from_slice(payload);
    stream.write_all(&msg).expect("send stats request");
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).expect("read frame header");
    let len = u64::from_le_bytes(header);
    assert!(len <= 256 << 20, "oversized frame from {addr}");
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf).expect("read frame payload");
    let text = std::str::from_utf8(&buf).expect("frame is not UTF-8");
    let v: serde_json::Value = serde_json::from_str(text).expect("frame is not JSON");
    assert_eq!(
        v["type"].as_str(),
        Some("stats"),
        "unexpected response from {addr}: {v:?}"
    );
    v
}

/// `mroam stats --replication 1 --addr L [--follower-addr F]`: the
/// leader's feed counters and per-follower lag table, plus (optionally)
/// one follower's own applied/reconnect/catch-up view.
fn print_replication_stats(args: &Args) {
    let addr = required(args, "addr");
    let v = wire_stats(&addr);
    let s = &v["stats"];
    let num = |v: &serde_json::Value| v.as_f64().unwrap_or(0.0) as u64;
    let head = num(&s["wal_next_seq"]).saturating_sub(1);
    let durable = num(&s["wal_durable_seq"]);
    println!(
        "leader {addr}: day {}, wal head seq {head}, durable seq {durable}",
        num(&s["day"])
    );
    if num(&s["repl_connects"]) == 0 && s["replica_rows"].as_array().is_none_or(Vec::is_empty) {
        println!("replication: no follower has ever connected (is the leader running with --replica-addr?)");
    } else {
        println!(
            "replication: {} connected ({} connects total), {} snapshots shipped, {} frames / {} bytes shipped, {} slow disconnects",
            num(&s["repl_followers"]),
            num(&s["repl_connects"]),
            num(&s["repl_snapshot_sends"]),
            num(&s["repl_shipped_frames"]),
            num(&s["repl_shipped_bytes"]),
            num(&s["repl_slow_disconnects"]),
        );
        println!(
            "  {:>4}  {:<12} {:>10} {:>10} {:>6} {:>12} {:>9}",
            "conn", "state", "shipped", "acked", "lag", "bytes", "snapshots"
        );
        for row in s["replica_rows"].as_array().into_iter().flatten() {
            println!(
                "  {:>4}  {:<12} {:>10} {:>10} {:>6} {:>12} {:>9}",
                num(&row["id"]),
                if num(&row["connected"]) == 1 {
                    "connected"
                } else {
                    "disconnected"
                },
                num(&row["shipped_seq"]),
                num(&row["acked_seq"]),
                num(&row["lag"]),
                num(&row["shipped_bytes"]),
                num(&row["snapshot_sends"]),
            );
        }
    }
    if let Some(faddr) = args.get("follower-addr") {
        let v = wire_stats(faddr);
        let s = &v["stats"];
        let applied = num(&s["repl_applied_seq"]);
        let leader_durable = num(&s["repl_leader_durable"]);
        println!(
            "follower {faddr}: applied seq {applied} (leader durable {leader_durable}, lag {}), {} snapshots received, {} reconnects, last catch-up {:.1} ms",
            leader_durable.saturating_sub(applied),
            num(&s["repl_snapshots_received"]),
            num(&s["repl_reconnects"]),
            num(&s["repl_catch_up_micros"]) as f64 / 1e3,
        );
    }
}

/// `mroam stats --threads 1`: the work-stealing pool's runtime counters —
/// width, jobs executed, steals, injected submissions, and how much of
/// the workers' lifetime was spent parked (idle) vs available.
fn print_thread_stats() {
    let s = rayon::pool_stats();
    println!("thread pool (RAYON_NUM_THREADS or host width):");
    println!("  {:<18} {:>14}", "pool width", s.num_threads);
    if !s.started {
        println!("  (pool not started — width 1 runs everything inline)");
        return;
    }
    let park_ratio = if s.uptime_nanos > 0 && s.num_threads > 0 {
        s.park_nanos as f64 / (s.uptime_nanos as f64 * s.num_threads as f64)
    } else {
        0.0
    };
    println!("  {:<18} {:>14}", "jobs executed", s.jobs_executed);
    println!("  {:<18} {:>14}", "steals", s.steals);
    println!("  {:<18} {:>14}", "injected", s.injected);
    println!("  {:<18} {:>14}", "parks", s.parks);
    println!("  {:<18} {:>13.1}%", "park ratio", park_ratio * 100.0);
    for (i, w) in s.workers.iter().enumerate() {
        println!(
            "  worker {i:<2} jobs {:>10}  steals {:>8}  parks {:>6}",
            w.jobs, w.steals, w.parks
        );
    }
}

/// `mroam stats --memory 1`: the resident-size breakdown of the stores
/// and a coverage model over them (heap vs file-mapped bytes per
/// structure), so the savings of a mapped `--model-cache` hit are
/// directly observable.
fn print_memory_breakdown(
    args: &Args,
    billboards: &BillboardStore,
    trajectories: &TrajectoryStore,
) {
    let lambda = args.f64_or("lambda", 100.0);
    let model = model_for(args, billboards, trajectories, lambda);
    let m = model.memory_stats();
    let billboard_bytes = billboards.len()
        * (std::mem::size_of::<mroam_geo::Point>() + 8 * usize::from(billboards.has_costs()));
    let rows: [(&str, usize, usize); 6] = [
        ("trajectory store", trajectories.heap_bytes(), 0),
        ("billboard store", billboard_bytes, 0),
        ("coverage lists", m.lists_heap_bytes, m.lists_mapped_bytes),
        (
            "inverted index",
            m.inverted_heap_bytes,
            m.inverted_mapped_bytes,
        ),
        (
            "overlap graph",
            m.overlap_heap_bytes,
            m.overlap_mapped_bytes,
        ),
        ("coverage bitmap", m.bitmap_heap_bytes, 0),
    ];
    println!("memory breakdown (λ={lambda}m):");
    println!(
        "  {:<18} {:>14} {:>14}",
        "structure", "heap bytes", "mapped bytes"
    );
    let (mut heap_total, mut mapped_total) = (0usize, 0usize);
    for (name, heap, mapped) in rows {
        println!("  {name:<18} {heap:>14} {mapped:>14}");
        heap_total += heap;
        mapped_total += mapped;
    }
    println!("  {:<18} {heap_total:>14} {mapped_total:>14}", "total");
}

fn cmd_coverage(args: &Args) {
    let out = required(args, "out");
    let (billboards, trajectories, lambda) = load_inputs(args);
    let model = CoverageModel::build(&billboards, &trajectories, lambda);
    let fingerprint = ModelFingerprint::new(&billboards, &trajectories, lambda);
    let len = cache::save(Path::new(&out), &model, &fingerprint).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "coverage model ({} billboards, supply {}) written to {out} ({len} bytes)",
        model.n_billboards(),
        model.supply(),
    );
}

fn cmd_cache_smoke(args: &Args) {
    let default_path =
        std::env::temp_dir().join(format!("mroam_cache_smoke_{}.cov", std::process::id()));
    let path = args
        .get("path")
        .map(std::path::PathBuf::from)
        .unwrap_or(default_path);
    let _ = std::fs::remove_file(&path);
    let city = setup::build_city(args.city(CityKind::Nyc), Scale::Test);
    let lambda = args.f64_or("lambda", 100.0);

    let (built, status) = cache::load_or_build(&city.billboards, &city.trajectories, lambda, &path);
    if status != CacheStatus::Rebuilt {
        eprintln!("cache-smoke FAILED: first pass should build, got {status:?}");
        exit(1);
    }
    let (loaded, status) =
        cache::load_or_build(&city.billboards, &city.trajectories, lambda, &path);
    if status != CacheStatus::Hit {
        eprintln!("cache-smoke FAILED: second pass should hit the cache, got {status:?}");
        exit(1);
    }
    let lists_ok = loaded.coverage_lists() == built.coverage_lists();
    let derived_ok = loaded.inverted_index() == built.inverted_index()
        && loaded.overlap_graph() == built.overlap_graph()
        && loaded.coverage_bitmap() == built.coverage_bitmap();
    let _ = std::fs::remove_file(&path);
    if !lists_ok || !derived_ok {
        eprintln!(
            "cache-smoke FAILED: reloaded model differs (lists ok: {lists_ok}, derived ok: {derived_ok})"
        );
        exit(1);
    }
    println!(
        "cache-smoke ok: {} billboards, {} trajectories round-tripped through {}",
        city.billboards.len(),
        city.trajectories.len(),
        path.display()
    );
}

fn cmd_gen(args: &Args) {
    let kind = args.city(CityKind::Nyc);
    let mut cfg = setup::city_config(kind, args.scale());
    if args.get("trajectories").is_some() {
        cfg.set_trajectories(args.usize_or("trajectories", 0));
    }
    if args.get("billboards").is_some() {
        cfg.set_billboards(args.usize_or("billboards", 0));
    }
    if args.get("seed").is_some() {
        cfg.set_seed(args.seed());
    }
    let prefix = args.get("out-prefix").unwrap_or("city").to_string();
    let b_path = format!("{prefix}_billboards.csv");
    let t_path = format!("{prefix}_trajectories.csv");

    let (n_billboards, n_trajectories) = if args.flag("stream") {
        // Bounded-memory path: trips go straight from the generator's
        // scratch buffer into the CSV writer; only the billboard store is
        // ever materialised.
        let mut out = csv::TrajectoryCsvWriter::new(io::BufWriter::new(
            File::create(&t_path).expect("create"),
        ));
        let billboards = cfg.generate_streamed(|points, speed| {
            out.write_trip_at_speed(points, speed).expect("write trip");
        });
        let trips = out.trips_written() as usize;
        out.finish().expect("flush").flush().expect("flush");
        csv::write_billboards(&billboards, File::create(&b_path).expect("create")).expect("write");
        (billboards.len(), trips)
    } else {
        let city = cfg.generate();
        csv::write_billboards(&city.billboards, File::create(&b_path).expect("create"))
            .expect("write");
        csv::write_trajectories(&city.trajectories, File::create(&t_path).expect("create"))
            .expect("write");
        (city.billboards.len(), city.trajectories.len())
    };
    let peak = match mroam_experiments::rss::peak_rss_bytes() {
        Some(b) => format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
        None => "n/a".into(),
    };
    println!(
        "{}: wrote {n_billboards} billboards to {b_path}, {n_trajectories} trajectories to \
         {t_path} (peak rss {peak})",
        kind.label(),
    );
}

/// `mroam stats --wal` / `mroam wal-replay --inspect 1`: the physical
/// state of a WAL directory — segments, seq range, record kinds, and
/// every snapshot's health — without replaying anything.
fn print_wal_inspection(dir: &Path) {
    let reader = mroam_wal::WalReader::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot read WAL in {}: {e}", dir.display());
        exit(1);
    });
    println!("wal {}:", dir.display());
    for seg in &reader.segments {
        println!(
            "  segment {:>24} start seq {:<8} {:>6} records {:>9} bytes{}",
            seg.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            seg.start_seq,
            seg.records,
            seg.valid_bytes,
            if seg.torn_bytes > 0 {
                format!("  ({} torn)", seg.torn_bytes)
            } else {
                String::new()
            }
        );
    }
    println!(
        "  seqs {}..={} ({} records)",
        reader.first_seq(),
        reader.last_seq(),
        reader.len()
    );
    match reader.records_after(0) {
        Ok(records) => {
            let mut kinds: Vec<(&'static str, usize)> = Vec::new();
            for (_, r) in &records {
                let k = r.kind();
                match kinds.iter_mut().find(|(n, _)| *n == k) {
                    Some((_, c)) => *c += 1,
                    None => kinds.push((k, 1)),
                }
            }
            for (k, c) in kinds {
                println!("  records {k:<14} {c}");
            }
        }
        Err(e) => println!("  (records undecodable: {e})"),
    }
    match mroam_wal::state::list_snapshots(dir) {
        Ok(snaps) if snaps.is_empty() => println!("  no snapshots"),
        Ok(snaps) => {
            for (seq, path) in snaps {
                let status = mroam_wal::state::read_snapshot_file(&path)
                    .and_then(|doc| mroam_wal::state::decode(&doc))
                    .map(|r| {
                        format!(
                            "ok: day {}, {} billboards, epoch {}",
                            r.seed.day,
                            r.model.n_billboards(),
                            r.stream
                                .as_ref()
                                .expect("a decoded snapshot always carries its stream section")
                                .epoch
                        )
                    })
                    .unwrap_or_else(|e| format!("BAD: {e}"));
                println!("  snapshot seq {seq:<8} {status}");
            }
        }
        Err(e) => println!("  (snapshots unreadable: {e})"),
    }
}

fn cmd_wal_replay(args: &Args) {
    let dir = required(args, "dir");
    let dir = Path::new(&dir);
    if args.flag("inspect") {
        print_wal_inspection(dir);
        return;
    }
    let start = std::time::Instant::now();
    let (world, report) = mroam_wal::recover(dir).unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        exit(1);
    });
    println!(
        "replayed {} records from snapshot seq {} (log head seq {}) in {:.1?}",
        report.replayed,
        report.snapshot_seq,
        report.last_seq,
        start.elapsed()
    );
    for (seq, reason) in &report.skipped_snapshots {
        println!("  skipped snapshot {seq}: {reason}");
    }
    if report.torn_tail_bytes > 0 {
        println!("  torn tail: {} bytes discarded", report.torn_tail_bytes);
    }
    println!(
        "state: day {}, epoch {}, collected {:.3}, regret {:.3}",
        world.day(),
        world.epoch(),
        world.ledger().total_collected(),
        world.ledger().total_regret()
    );
    if args.flag("verify") {
        verify_bit_identity(dir, &world);
    }
}

/// `wal-replay --verify 1`: replays the log independently from *every*
/// decodable snapshot on disk; recovery is only trusted if all bases
/// converge on the same day and a bit-identical ledger. Exits nonzero
/// on any divergence.
fn verify_bit_identity(dir: &Path, primary: &mroam_wal::ReplayWorld) {
    let reader = mroam_wal::WalReader::open(dir).unwrap_or_else(|e| {
        eprintln!("verify: cannot reopen log: {e}");
        exit(1);
    });
    let snaps = mroam_wal::state::list_snapshots(dir).unwrap_or_else(|e| {
        eprintln!("verify: cannot list snapshots: {e}");
        exit(1);
    });
    let mut checked = 0usize;
    let mut failures = 0usize;
    for (seq, path) in snaps {
        let restored = match mroam_wal::state::read_snapshot_file(&path)
            .and_then(|doc| mroam_wal::state::decode(&doc))
        {
            Ok(r) => r,
            Err(e) => {
                println!("verify: snapshot {seq} undecodable ({e}); skipped");
                continue;
            }
        };
        let mut world = mroam_wal::ReplayWorld::from_restored(restored);
        let records = reader.records_after(seq).unwrap_or_else(|e| {
            eprintln!("verify: records after {seq} undecodable: {e}");
            exit(1);
        });
        for (s, record) in &records {
            if let Err(e) = world.apply(*s, record) {
                eprintln!("verify: replay from snapshot {seq} refused record {s}: {e}");
                exit(1);
            }
        }
        let identical = world.day() == primary.day()
            && world.epoch() == primary.epoch()
            && world.ledger().days == primary.ledger().days;
        println!(
            "verify: from snapshot {seq}: +{} records -> day {} [{}]",
            records.len(),
            world.day(),
            if identical { "identical" } else { "MISMATCH" }
        );
        checked += 1;
        if !identical {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("verify: FAILED — {failures}/{checked} snapshot bases diverged");
        exit(1);
    }
    println!("verify: OK — {checked} snapshot base(s) converge bit-identically");
}
