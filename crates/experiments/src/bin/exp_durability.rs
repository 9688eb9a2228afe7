//! `exp_durability` — cost of the write-ahead log, recorded as the
//! `results/BENCH_durability.json` baseline.
//!
//! ```text
//! exp_durability [--days 64] [--iters 3] [--snapshot-every 8]
//!                [--date YYYY-MM-DD] [--out results/BENCH_durability.json]
//! ```
//!
//! Three axes, all over the same deterministic served-day workload (a
//! stream engine over the NYC test city, as the daemon serves it;
//! G-Global, one `RunDay` record per day, periodic snapshot + mark +
//! prune exactly as the serve command loop does):
//!
//! * **append overhead** — wall time of `--days` days with no WAL vs
//!   WAL'd under each fsync policy (`record`, `batch`, `interval:5ms`).
//!   The per-day delta is the price of durability; the fsync counters
//!   show *why* the policies differ.
//! * **recovery** — `recover()` wall time from the newest snapshot (the
//!   steady-state restart: short suffix) and from a genesis-only
//!   directory (the worst case: every day replays).
//! * **verify** — wall time of the `wal-replay --verify` equivalent:
//!   independent replay from every snapshot on disk.
//!
//! Correctness gates run before any timing: each WAL'd run's ledger must
//! be bit-identical to the unlogged run's, and recovery from each
//! policy's directory must land on that same ledger.

use std::path::Path;
use std::time::Duration;

use mroam_core::solver::SolverSpec;
use mroam_experiments::record::{host_threads, time_mean, Record};
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_experiments::{params, Args};
use mroam_influence::CoverageModel;
use mroam_market::host::{Host, HostConfig};
use mroam_market::{DayRecord, ProposalGenerator};
use mroam_stream::StreamEngine;
use mroam_wal::state::{encode, list_snapshots, write_snapshot_file};
use mroam_wal::testutil::TempDir;
use mroam_wal::{recover, SyncPolicy, WalOptions, WalRecord, WalWriter};

fn host_config(seed: u64) -> HostConfig {
    HostConfig {
        gamma: 0.5,
        solver: SolverSpec::by_name("g-global").unwrap().with_seed(seed),
    }
}

fn generator(model: &CoverageModel, seed: u64) -> ProposalGenerator {
    ProposalGenerator {
        supply: model.supply(),
        p_avg: 0.12,
        arrivals_per_day: (1, 4),
        duration_days: (1, 3),
        seed,
    }
}

/// One served life: `days` days against a fresh host on the engine's
/// base, WAL'd under `policy` into `dir` (serve-equivalent: genesis
/// snapshot, log-before-apply, periodic snapshot + mark + prune) or
/// unlogged when `dir` is `None`. Returns the final ledger and the WAL's
/// fsync count.
fn run_days(
    dir: Option<&Path>,
    engine: &StreamEngine,
    days: u32,
    snapshot_every: u32,
    seed: u64,
    policy: SyncPolicy,
) -> (Vec<DayRecord>, u64) {
    let g = generator(engine.model(), seed);
    let mut host = Host::new(engine.model(), host_config(seed));
    let mut wal = dir.map(|dir| {
        let wal = WalWriter::open(
            dir,
            WalOptions {
                sync: policy,
                segment_bytes: 64 * 1024, // rotate a few times per life
            },
        )
        .expect("open wal");
        write_snapshot_file(dir, 0, &encode(&host, Some(engine))).expect("genesis snapshot");
        wal
    });
    let mut since_snap = 0u32;
    let mut last_snap = 0u64;
    for day in 0..days {
        let batch = g.day_batch(day);
        if let Some(wal) = wal.as_mut() {
            wal.append(&WalRecord::RunDay {
                day,
                proposals: batch.clone(),
            })
            .expect("append");
            wal.batch_boundary().expect("batch boundary");
        }
        host.run_day(&batch);
        since_snap += 1;
        if since_snap >= snapshot_every {
            since_snap = 0;
            if let Some(wal) = wal.as_mut() {
                let dir = dir.unwrap();
                wal.sync().expect("pre-snapshot sync");
                let watermark = wal.next_seq() - 1;
                write_snapshot_file(dir, watermark, &encode(&host, Some(engine)))
                    .expect("snapshot");
                wal.append(&WalRecord::SnapshotMark {
                    wal_seq: watermark,
                    day: host.day(),
                    epoch: 0,
                })
                .expect("append mark");
                let floor = last_snap;
                last_snap = watermark;
                wal.prune_below(floor).expect("prune");
                for (seq, path) in list_snapshots(dir).expect("list snapshots") {
                    if seq < floor {
                        std::fs::remove_file(path).expect("prune snapshot");
                    }
                }
            }
        }
    }
    let fsyncs = wal.as_mut().map_or(0, |w| {
        w.sync().expect("final sync");
        w.stats().fsyncs
    });
    (host.ledger().days.clone(), fsyncs)
}

fn main() {
    let args = Args::from_env();
    let days = args.usize_or("days", 64) as u32;
    let iters = args.usize_or("iters", 3);
    let snapshot_every = args.usize_or("snapshot-every", 8) as u32;
    let seed = 42u64;

    let city = build_city(CityKind::Nyc, Scale::Test);
    let engine = StreamEngine::new(city.billboards, city.trajectories, params::DEFAULT_LAMBDA);
    eprintln!(
        "[exp_durability] {} billboards, {} trajectories, {days} days, {iters} iters",
        engine.model().n_billboards(),
        engine.model().n_trajectories()
    );

    let policies: [(&str, SyncPolicy); 3] = [
        ("record", SyncPolicy::PerRecord),
        ("batch", SyncPolicy::PerBatch),
        (
            "interval_5ms",
            SyncPolicy::Interval(Duration::from_millis(5)),
        ),
    ];

    // ---- correctness gates (before any timing) -----------------------
    let (baseline_ledger, _) = run_days(
        None,
        &engine,
        days,
        snapshot_every,
        seed,
        SyncPolicy::PerBatch,
    );
    for (name, policy) in policies {
        let dir = TempDir::new(&format!("durability-gate-{name}"));
        let (ledger, fsyncs) = run_days(
            Some(dir.path()),
            &engine,
            days,
            snapshot_every,
            seed,
            policy,
        );
        assert_eq!(
            ledger, baseline_ledger,
            "{name}: WAL'd run diverges from unlogged run"
        );
        assert!(fsyncs > 0, "{name}: no fsync ever happened");
        let (world, report) = recover(dir.path()).expect("recovery");
        assert_eq!(world.day(), days, "{name}: recovery day");
        assert_eq!(
            &world.ledger().days,
            &baseline_ledger,
            "{name}: recovered ledger diverges"
        );
        assert_eq!(
            report.torn_tail_bytes, 0,
            "{name}: clean log has no torn tail"
        );
    }
    eprintln!("[exp_durability] gates passed: all policies bit-identical to unlogged run");

    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut fsync_counts: Vec<(String, u64)> = Vec::new();

    // ---- append-overhead axis ----------------------------------------
    let no_wal_mean = time_mean(iters, || {
        run_days(
            None,
            &engine,
            days,
            snapshot_every,
            seed,
            SyncPolicy::PerBatch,
        )
    });
    rows.push((format!("append/no_wal/{days}_days"), no_wal_mean));
    let mut overheads: Vec<(String, f64)> = Vec::new();
    for (name, policy) in policies {
        let mean = time_mean(iters, || {
            let dir = TempDir::new(&format!("durability-{name}"));
            run_days(
                Some(dir.path()),
                &engine,
                days,
                snapshot_every,
                seed,
                policy,
            )
        });
        rows.push((format!("append/wal_{name}/{days}_days"), mean));
        rows.push((
            format!("append/wal_{name}/overhead_us_per_day"),
            (mean - no_wal_mean) / f64::from(days) * 1e6,
        ));
        overheads.push((
            format!("wal_{name}_vs_no_wal_pct"),
            (mean / no_wal_mean - 1.0) * 100.0,
        ));
        let dir = TempDir::new(&format!("durability-count-{name}"));
        let (_, fsyncs) = run_days(
            Some(dir.path()),
            &engine,
            days,
            snapshot_every,
            seed,
            policy,
        );
        fsync_counts.push((name.to_string(), fsyncs));
    }

    // ---- recovery axis -----------------------------------------------
    // Steady state: snapshots every `snapshot_every` days, so recovery
    // replays at most a snapshot interval's worth of records.
    let steady = TempDir::new("durability-recover-steady");
    run_days(
        Some(steady.path()),
        &engine,
        days,
        snapshot_every,
        seed,
        SyncPolicy::PerBatch,
    );
    rows.push((
        "recovery/newest_snapshot_short_suffix".into(),
        time_mean(iters.max(5), || recover(steady.path()).expect("recover")),
    ));
    // Worst case: only the genesis snapshot exists, every day replays.
    let genesis = TempDir::new("durability-recover-genesis");
    run_days(
        Some(genesis.path()),
        &engine,
        days,
        days + 1, // never snapshot mid-life
        seed,
        SyncPolicy::PerBatch,
    );
    rows.push((
        format!("recovery/genesis_full_replay/{days}_days"),
        time_mean(iters.max(5), || recover(genesis.path()).expect("recover")),
    ));

    // ---- verify axis --------------------------------------------------
    // Replay independently from every snapshot on disk (what
    // `mroam wal-replay --verify 1` does after its primary replay).
    rows.push((
        "verify/replay_from_every_snapshot".into(),
        time_mean(iters, || {
            let reader = mroam_wal::WalReader::open(steady.path()).expect("reader");
            for (snap_seq, path) in list_snapshots(steady.path()).expect("snapshots") {
                let doc = mroam_wal::state::read_snapshot_file(&path).expect("snapshot");
                let restored = mroam_wal::state::decode(&doc).expect("decode");
                let mut world = mroam_wal::ReplayWorld::from_restored(restored);
                for (s, record) in reader.records_after(snap_seq).expect("records") {
                    world.apply(s, &record).expect("apply");
                }
                assert_eq!(world.day(), days);
            }
        }),
    ));

    // ---- emit --------------------------------------------------------
    let host_threads = host_threads();
    let mut record = Record::new(
        "durability",
        "cargo run --release -p mroam-experiments --bin exp_durability",
        &args,
    );
    record
        .host_threads()
        .field("days", days)
        .field("snapshot_every", snapshot_every)
        .field("iters", iters)
        .results("mean_s", &rows)
        .map(
            "overhead",
            overheads
                .iter()
                .map(|(name, pct)| (name, format!("{pct:.2}"))),
        )
        .map("fsyncs_per_life", fsync_counts);
    record.emit(
        &[
            format!("Recorded on a {host_threads}-thread host with tmpdir-backed storage; fsync latency on this medium bounds what the record policy costs, so re-record on the target disk before quoting absolute overheads. The *relative* ordering (record ≥ batch > interval — one batch boundary per day makes batch nearly per-record here) and the fsync counts are medium-independent."),
            "The workload is one solver day per WAL record (NYC test scale, G-Global). Solve time dominates each day, so overhead percentages understate what a write-heavy ingest workload would pay per record; overhead_us_per_day is the transferable number.".into(),
            "Correctness gates ran before timing: every policy's ledger and every recovery are bit-identical to the unlogged run, and clean logs report zero torn-tail bytes.".into(),
        ],
        &args,
    );
}
