//! `exp_scale` — the scale-layer benchmark: mmap on/off plus partitioned
//! pick-round task sweeps, recorded as the `results/BENCH_scale.json`
//! baseline.
//!
//! ```text
//! exp_scale [--city nyc] [--scale bench] [--trajectories N] [--iters 5]
//!           [--date YYYY-MM-DD] [--out results/BENCH_scale.json]
//! ```
//!
//! Two axes, both on the same fixture city (λ = 100 m, the Section 7.1.2
//! workload at α = 1.0, p = 0.05, γ = 0.5):
//!
//! * **pick rounds** — one full round of `GainEngine::best_billboard`
//!   picks with the partitioned frontier scan forced to 1/2/4/8 tasks;
//!   picks are asserted bit-identical to the sequential scan.
//! * **mmap** — the model file decoded onto the heap vs memory-mapped
//!   (`storage::open_model_mmap`), then an identical query sweep on both
//!   models; answers are asserted equal.
//!
//! Every timing is the mean of `--iters` runs. The emitted JSON annotates
//! `host_threads` because partitioned scans cannot beat sequential on a
//! single hardware thread — see the honesty notes in the output.

use mroam_core::prelude::*;
use mroam_datagen::WorkloadConfig;
use mroam_experiments::record::{host_threads, time_mean, Record};
use mroam_experiments::{setup, Args, CityKind};
use mroam_influence::storage::{self, ModelFingerprint};
use mroam_influence::CoverageModel;

fn main() {
    let args = Args::from_env();
    let kind = args.city(CityKind::Nyc);
    let mut cfg = setup::city_config(kind, args.scale());
    if args.get("trajectories").is_some() {
        cfg.set_trajectories(args.usize_or("trajectories", 0));
    }
    let iters = args.usize_or("iters", 5);
    let lambda = args.f64_or("lambda", 100.0);

    eprintln!("[exp_scale] generating {} fixture...", kind.label());
    let city = cfg.generate();
    let model = city.coverage(lambda);
    model.precompute();
    let advertisers = WorkloadConfig {
        alpha: 1.0,
        p_avg: 0.05,
        seed: 42,
    }
    .generate(model.supply());
    let instance = Instance::new(&model, &advertisers, 0.5);
    eprintln!(
        "[exp_scale] {} billboards, {} trajectories, {} advertisers",
        model.n_billboards(),
        model.n_trajectories(),
        advertisers.len()
    );

    let mut rows: Vec<(String, f64)> = Vec::new();

    // ---- pick-round axis ---------------------------------------------
    // One full round of first picks per task count, asserted identical.
    let pick_round = |tasks: usize| -> Vec<Option<_>> {
        let alloc = Allocation::new(instance);
        let mut engine = GainEngine::new(&alloc);
        engine.set_scan_tasks(Some(tasks));
        (0..advertisers.len())
            .map(|i| engine.best_billboard(&alloc, mroam_data::AdvertiserId::from_index(i)))
            .collect()
    };
    let sequential = pick_round(1);
    for tasks in [1usize, 2, 4, 8] {
        assert_eq!(pick_round(tasks), sequential, "{tasks}-task picks diverge");
        rows.push((
            format!("pick_round/tasks_{tasks}"),
            time_mean(iters, || pick_round(tasks)),
        ));
    }

    // ---- mmap axis ---------------------------------------------------
    let fingerprint = ModelFingerprint::new(&city.billboards, &city.trajectories, lambda);
    let bytes = storage::encode(&model, &fingerprint);
    rows.push((
        "mmap/off/heap_decode".into(),
        time_mean(iters, || {
            storage::read_model(&bytes, &fingerprint).expect("decode")
        }),
    ));
    let sweep = |m: &CoverageModel| -> (u64, usize) {
        let influence = m.set_influence(m.billboard_ids());
        let inv = m.inverted_index();
        let touched: usize = (0..m.n_trajectories())
            .map(|t| inv.billboards_covering(t as u32).len())
            .sum();
        (influence, touched)
    };
    let heap_model = storage::read_model(&bytes, &fingerprint).expect("decode");
    rows.push((
        "mmap/off/query_sweep".into(),
        time_mean(iters, || sweep(&heap_model)),
    ));
    #[cfg(feature = "mmap")]
    {
        let path = std::env::temp_dir().join(format!("mroam_exp_scale_{}.cov", std::process::id()));
        std::fs::write(&path, &bytes).expect("write model file");
        rows.push((
            "mmap/on/map_open".into(),
            time_mean(iters, || {
                storage::open_model_mmap(&path, &fingerprint).expect("mmap")
            }),
        ));
        let mapped_model = storage::open_model_mmap(&path, &fingerprint).expect("mmap");
        assert!(mapped_model.coverage_lists().is_mapped());
        assert_eq!(
            sweep(&heap_model),
            sweep(&mapped_model),
            "mmap answers diverge"
        );
        rows.push((
            "mmap/on/query_sweep".into(),
            time_mean(iters, || sweep(&mapped_model)),
        ));
        let _ = std::fs::remove_file(&path);
    }

    // ---- emit --------------------------------------------------------
    #[cfg(feature = "mmap")]
    let mmap_open_speedup = {
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).map(|&(_, v)| v).unwrap();
        get("mmap/off/heap_decode") / get("mmap/on/map_open")
    };
    #[cfg(not(feature = "mmap"))]
    let mmap_open_speedup = f64::NAN; // axis compiled out

    let host_threads = host_threads();
    let mut record = Record::new(
        "scale",
        "cargo run --release -p mroam-experiments --bin exp_scale",
        &args,
    );
    record
        .host_threads()
        .text(
            "fixture",
            &format!(
                "{} at {:?} scale ({} billboards, {} trajectories), lambda = {lambda} m, workload alpha=1.0 p=0.05 gamma=0.5",
                kind.label(),
                args.scale(),
                model.n_billboards(),
                model.n_trajectories()
            ),
        )
        .field("iters", iters)
        .results("mean_s", &rows)
        .map(
            "speedups",
            mmap_open_speedup
                .is_finite()
                .then(|| ("mmap_open_vs_heap_decode", format!("{mmap_open_speedup:.2}"))),
        );
    record.emit(
        &[
            format!("Recorded on a {host_threads}-thread host. With host_threads = 1 every scoped task of the partitioned pick scan runs on the same core, so the tasks_2/4/8 rows measure spawn+merge overhead, not speedup — the >=2x parallel G-Global target needs a multi-core host; the rows are kept to pin the sharded path's identity and overhead. (Same precedent as BENCH_model_build.json.)"),
            "All cross-axis identity gates ran in-process before timing: pick rounds identical at 1/2/4/8 tasks, heap and mmap models answer the query sweep identically.".into(),
            "mmap/on/map_open validates the checksum with one sequential file pass, so its advantage over the heap decode is avoided allocation + lazy paging, not skipped I/O; the query sweep rows compare steady-state answer costs.".into(),
        ],
        &args,
    );
    eprintln!("[exp_scale] mmap open vs decode: {mmap_open_speedup:.2}x");
}
