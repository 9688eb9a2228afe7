//! `exp_scale` — the scale-layer benchmark: the coverage model decoded
//! onto the heap vs memory-mapped, recorded as the
//! `results/BENCH_scale.json` baseline.
//!
//! ```text
//! exp_scale [--city nyc] [--scale bench] [--trajectories N] [--iters 5]
//!           [--date YYYY-MM-DD] [--out results/BENCH_scale.json]
//! ```
//!
//! The fixture city is built at λ = 100 m. Its model file is decoded onto
//! the heap and memory-mapped (`storage::open_model_mmap`), then both
//! models answer an identical query sweep; answers are asserted equal.
//!
//! Every timing is the mean of `--iters` runs; the emitted JSON annotates
//! `host_threads`.

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
    eprintln!(
        "[exp_scale] {} billboards, {} trajectories",
        model.n_billboards(),
        model.n_trajectories()
    );

    let mut rows: Vec<(String, f64)> = Vec::new();

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
                "{} at {:?} scale ({} billboards, {} trajectories), lambda = {lambda} m",
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
            mmap_open_speedup.is_finite().then(|| {
                (
                    "mmap_open_vs_heap_decode",
                    format!("{mmap_open_speedup:.2}"),
                )
            }),
        );
    record.emit(
        &[
            format!("Recorded on a {host_threads}-thread host. The identity gate ran in-process before timing: heap and mmap models answer the query sweep identically."),
            "mmap/on/map_open validates the checksum with one sequential file pass, so its advantage over the heap decode is avoided allocation + lazy paging, not skipped I/O; the query sweep rows compare steady-state answer costs.".into(),
        ],
        &args,
    );
    eprintln!("[exp_scale] mmap open vs decode: {mmap_open_speedup:.2}x");
}
