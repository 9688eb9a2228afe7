//! `exp_engines` — timings of the engines behind the solvers and the
//! model pipeline, recorded as `results/BENCH_local_search.json`,
//! `BENCH_model_build.json` and `BENCH_streaming.json`; EXPERIMENTS.md
//! quotes the `gain_engine` and `ablations` suites.
//!
//! ```text
//! exp_engines --suite local_search|gain_engine|model_build|streaming|ablations
//!             [--scale test|bench|paper] [--iters N] [--date YYYY-MM-DD]
//!             [--out results/BENCH_<suite>.json]
//! ```
//!
//! * **gain_engine** — the lazy marginal-gain engine against the naive
//!   full rescan: G-Global end to end, and one warm `best_billboard`
//!   query against one naive scan.
//! * **local_search** — ALS and BLS end to end with the `MoveEngine`
//!   against the `naive_scan` neighbourhood scans (2 restarts, seed
//!   `0xB15`).
//! * **model_build** — serial vs forced-shard parallel builds of each
//!   derived structure, the eager `precompute()` warm-up, and the model
//!   file (encode, fingerprint-checked decode, rebuild from the stores).
//! * **streaming** — a 100-trajectory ingest (and compaction) against a
//!   from-scratch rebuild, and warm-start re-solve against a cold solve.
//! * **ablations** — BLS restart budget, the Definition 6.1 improvement
//!   ratio `r`, and the ALS vs BLS neighbourhood from one greedy seed.
//!
//! `gain_engine` and `local_search` run NYC and SG at bench scale; the
//! other suites run NYC at test scale. `--scale` overrides either. The
//! workload is α = 1.0, p = 0.05 at seed 42, γ = 0.5, λ = 100 m. Every
//! row is the mean of its group's sample count of timed runs after one
//! untimed warm-up run; `--iters` replaces every group's count.
//!
//! `gain_engine` and `local_search` first assert, on every city, that the
//! engine and its naive oracle return identical sets and total regret —
//! a fast wrong answer would make every row meaningless — and only then
//! time anything.

use mroam_core::greedy::{best_billboard_for, g_global_naive};
use mroam_core::prelude::*;
use mroam_core::solver::SolverSpec;
use mroam_data::{AdvertiserId, TrajectoryId, TrajectoryStore};
use mroam_datagen::WorkloadConfig;
use mroam_experiments::record::{time_mean, Record};
use mroam_experiments::setup::{city_config, CityKind, Scale};
use mroam_experiments::Args;
use mroam_influence::storage::{self, ModelFingerprint};
use mroam_influence::{CoverageBitmap, CoverageModel, InvertedIndex, OverlapGraph};
use mroam_stream::{IngestBatch, StreamEngine, TrajectoryDelta};
use std::process::exit;
use std::sync::Arc;

const LAMBDA: f64 = 100.0;
const GAMMA: f64 = 0.5;

/// Timed rows of one suite, named `group/id`.
struct Timer {
    /// `--iters`: replaces every group's own sample count.
    iters: Option<usize>,
    rows: Vec<(String, f64)>,
    /// Timed runs per group, in first-use order.
    samples: Vec<(String, usize)>,
}

impl Timer {
    /// Times `f` as row `group/id`: one untimed warm-up run, then the
    /// mean of `samples` runs (or `--iters`), which it returns.
    fn time<T>(&mut self, group: &str, id: &str, samples: usize, mut f: impl FnMut() -> T) -> f64 {
        let iters = self.iters.unwrap_or(samples);
        if !self.samples.iter().any(|(g, _)| g == group) {
            self.samples.push((group.to_string(), iters));
        }
        std::hint::black_box(f());
        let mean = time_mean(iters, f);
        eprintln!("[exp_engines] {group}/{id}: {mean:.9} s");
        self.rows.push((format!("{group}/{id}"), mean));
        mean
    }
}

/// What a suite adds to the document beside its rows.
struct Output {
    fixture: String,
    speedups: Vec<(String, f64)>,
    /// Total regret per solve the suite reports, when it has any.
    regret: Vec<(String, f64)>,
    notes: Vec<String>,
}

/// One city's coverage model (derived structures built, so no row times
/// a lazy first build) and its advertiser workload.
struct Fixture {
    name: String,
    model: CoverageModel,
    advertisers: AdvertiserSet,
}

impl Fixture {
    fn new(kind: CityKind, scale: Scale) -> Self {
        let model = city_config(kind, scale).generate().coverage(LAMBDA);
        model.precompute();
        let advertisers = workload(&model);
        Self {
            name: kind.label().to_ascii_lowercase(),
            model,
            advertisers,
        }
    }

    fn instance(&self) -> Instance<'_> {
        Instance::new(&self.model, &self.advertisers, GAMMA)
    }

    fn describe(&self) -> String {
        format!(
            "{} ({} billboards, {} trajectories, {} advertisers)",
            self.name,
            self.model.n_billboards(),
            self.model.n_trajectories(),
            self.advertisers.len()
        )
    }
}

fn workload(model: &CoverageModel) -> AdvertiserSet {
    WorkloadConfig {
        alpha: 1.0,
        p_avg: 0.05,
        seed: 42,
    }
    .generate(model.supply())
}

/// NYC and SG fixtures plus their shared description.
fn both_cities(scale: Scale) -> (Vec<Fixture>, String) {
    let fixtures = vec![
        Fixture::new(CityKind::Nyc, scale),
        Fixture::new(CityKind::Sg, scale),
    ];
    let cities: Vec<String> = fixtures.iter().map(Fixture::describe).collect();
    let fixture = format!(
        "{scale:?} scale: {}; lambda = {LAMBDA} m, workload alpha=1.0 p=0.05 seed 42, gamma = {GAMMA}",
        cities.join(", ")
    );
    (fixtures, fixture)
}

fn gain_engine(scale: Scale, t: &mut Timer) -> Output {
    let (fixtures, fixture) = both_cities(scale);
    let first = AdvertiserId(0);
    let mut regret = Vec::new();
    for f in &fixtures {
        let instance = f.instance();
        let lazy = GGlobal.solve(&instance);
        let naive = g_global_naive(&instance);
        assert_eq!(lazy.sets, naive.sets, "{}: lazy vs naive sets", f.name);
        assert_eq!(
            lazy.total_regret, naive.total_regret,
            "{}: lazy vs naive regret",
            f.name
        );
        let alloc = Allocation::new(instance);
        assert_eq!(
            GainEngine::new(&alloc).best_billboard(&alloc, first),
            best_billboard_for(&alloc, first),
            "{}: lazy vs naive argmax",
            f.name
        );
        regret.push((format!("g_global/{}", f.name), lazy.total_regret));
    }

    let mut speedups = Vec::new();
    for f in &fixtures {
        let instance = f.instance();
        let g = "gain_engine/g_global";
        let lazy = t.time(g, &format!("lazy/{}", f.name), 10, || {
            GGlobal.solve(&instance)
        });
        let naive = t.time(g, &format!("naive/{}", f.name), 10, || {
            g_global_naive(&instance)
        });
        speedups.push((format!("g_global_{}", f.name), naive / lazy));
    }
    // Repeat queries against a warm queue: the steady-state cost that
    // CELF laziness collapses.
    for f in &fixtures {
        let alloc = Allocation::new(f.instance());
        let mut engine = GainEngine::new(&alloc);
        let g = "gain_engine/argmax";
        let lazy = t.time(g, &format!("lazy_warm/{}", f.name), 30, || {
            engine.best_billboard(&alloc, first)
        });
        let naive = t.time(g, &format!("naive/{}", f.name), 30, || {
            best_billboard_for(&alloc, first)
        });
        speedups.push((format!("argmax_{}", f.name), naive / lazy));
    }
    Output {
        fixture,
        speedups,
        regret,
        notes: vec![
            "Identity gate: on every city the lazy engine and the naive rescan returned identical G-Global sets and total regret, and the same first argmax, before any timing.".into(),
        ],
    }
}

fn local_search(scale: Scale, t: &mut Timer) -> Output {
    // Fewer restarts than the solver default: every restart runs the same
    // search machinery, which is what these rows time.
    const RESTARTS: usize = 2;
    const SEED: u64 = 0xB15;
    let bls = Bls {
        restarts: RESTARTS,
        seed: SEED,
        ..Bls::default()
    };
    let bls_naive = Bls {
        naive_scan: true,
        ..bls
    };
    let als = Als {
        restarts: RESTARTS,
        seed: SEED,
        ..Als::default()
    };
    let als_naive = Als {
        naive_scan: true,
        ..als
    };
    let pairs: [(&str, &dyn Solver, &dyn Solver); 2] =
        [("bls", &bls, &bls_naive), ("als", &als, &als_naive)];

    let (fixtures, fixture) = both_cities(scale);
    let mut regret = Vec::new();
    for f in &fixtures {
        let instance = f.instance();
        for (algo, engine, naive) in pairs {
            let fast = engine.solve(&instance);
            let slow = naive.solve(&instance);
            assert_eq!(
                fast.sets, slow.sets,
                "{}: {algo} engine vs naive sets",
                f.name
            );
            assert_eq!(
                fast.total_regret, slow.total_regret,
                "{}: {algo} engine vs naive regret",
                f.name
            );
            regret.push((format!("{algo}/{}", f.name), fast.total_regret));
        }
    }

    let mut speedups = Vec::new();
    for (algo, engine, naive) in pairs {
        let group = format!("local_search/{algo}");
        for f in &fixtures {
            let instance = f.instance();
            let fast = t.time(&group, &format!("engine/{}", f.name), 10, || {
                engine.solve(&instance)
            });
            let slow = t.time(&group, &format!("naive/{}", f.name), 10, || {
                naive.solve(&instance)
            });
            speedups.push((format!("{algo}_{}", f.name), slow / fast));
        }
    }
    Output {
        fixture: format!("{fixture}; solver restarts {RESTARTS}, seed {SEED:#X}"),
        speedups,
        regret,
        notes: vec![
            "Identity gate: on every city the MoveEngine and the naive_scan path returned identical sets and total regret for ALS and BLS before any timing.".into(),
        ],
    }
}

fn model_build(scale: Scale, t: &mut Timer) -> Output {
    let city = city_config(CityKind::Nyc, scale).generate();
    let model = city.coverage(LAMBDA);
    let cov: Vec<Vec<u32>> = model.coverage_lists().to_vec();
    let n_t = model.n_trajectories();
    let inv = InvertedIndex::build(&cov, n_t);

    // The shard counts force the parallel code path whatever the host's
    // width, so serial and parallel rows build the same inputs.
    let g = "model_build_derived";
    t.time(g, "inverted_serial", 10, || {
        InvertedIndex::build_serial(&cov, n_t)
    });
    t.time(g, "overlap_serial", 10, || {
        OverlapGraph::build_serial(&cov, &inv)
    });
    t.time(g, "bitmap_serial", 10, || {
        CoverageBitmap::build_serial(&cov, n_t)
    });
    for s in [2usize, 4, 8] {
        t.time(g, &format!("inverted_parallel/{s}"), 10, || {
            InvertedIndex::build_parallel_with(&cov, n_t, s)
        });
        t.time(g, &format!("overlap_parallel/{s}"), 10, || {
            OverlapGraph::build_parallel_with(&cov, &inv, s)
        });
        t.time(g, &format!("bitmap_parallel/{s}"), 10, || {
            CoverageBitmap::build_parallel_with(&cov, n_t, s)
        });
    }

    let g = "model_build_precompute";
    t.time(g, "meets_only", 20, || city.coverage(LAMBDA));
    t.time(g, "meets_plus_precompute", 20, || {
        let model = city.coverage(LAMBDA);
        model.precompute();
        model
    });

    model.precompute();
    let fingerprint = ModelFingerprint::new(&city.billboards, &city.trajectories, LAMBDA);
    let bytes = storage::encode(&model, &fingerprint);
    let g = "model_cache";
    t.time(g, "encode", 10, || storage::encode(&model, &fingerprint));
    let decode = t.time(g, "decode_checked", 10, || {
        storage::read_model(&bytes, &fingerprint).expect("fresh model file")
    });
    let rebuild = t.time(g, "rebuild_from_stores", 10, || {
        let m = CoverageModel::build(&city.billboards, &city.trajectories, LAMBDA);
        m.precompute();
        m
    });

    Output {
        fixture: format!(
            "NYC at {scale:?} scale ({} billboards, {n_t} trajectories), lambda = {LAMBDA} m",
            model.n_billboards()
        ),
        speedups: vec![("cache_hit_vs_rebuild".into(), rebuild / decode)],
        regret: Vec::new(),
        notes: vec![
            "The parallel rows call build_parallel_with directly, forcing 2/4/8 shards below PARALLEL_BUILD_MIN_ITEMS, where the auto-dispatching build() stays serial; on a host with fewer cores than shards they measure spawn + merge overhead, not speedup.".into(),
        ],
    }
}

fn streaming(scale: Scale, t: &mut Timer) -> Output {
    const BATCH: usize = 100;
    // The split: everything but the last BATCH trajectories is the live
    // base; the tail arrives as one ingest batch.
    let city = city_config(CityKind::Nyc, scale).generate();
    let n = city.trajectories.len();
    let mut head = TrajectoryStore::new();
    let mut tail = Vec::with_capacity(BATCH);
    for i in 0..n {
        let traj = city.trajectories.get(TrajectoryId(i as u32));
        if i < n - BATCH {
            head.push_with_timestamps(traj.points, traj.timestamps)
                .expect("head fits the column budget");
        } else {
            tail.push(TrajectoryDelta {
                points: traj.points.to_vec(),
                timestamps: traj.timestamps.to_vec(),
            });
        }
    }
    let base = Arc::new(CoverageModel::build(&city.billboards, &head, LAMBDA));
    let batch = IngestBatch {
        billboard_events: vec![],
        trajectories: tail,
    };
    let live_engine = || {
        StreamEngine::from_model(
            Arc::clone(&base),
            city.billboards.clone(),
            head.clone(),
            LAMBDA,
        )
    };

    // The mutating rows time self-contained pipelines (a row has no
    // per-run setup); engine_setup_only is the store clone + engine wrap
    // they share, for subtraction.
    let g = "streaming_ingest";
    let setup = t.time(g, "engine_setup_only", 20, live_engine);
    let ingest = t.time(g, "setup_plus_ingest_100", 20, || {
        let mut e = live_engine();
        e.ingest(&batch).expect("valid batch");
        e
    }) - setup;
    let ingest_compact = t.time(g, "setup_plus_ingest_100_plus_compact", 20, || {
        let mut e = live_engine();
        e.ingest(&batch).expect("valid batch");
        e.compact();
        e
    }) - setup;
    let rebuild = t.time(g, "rebuild_from_scratch", 20, || {
        CoverageModel::build(&city.billboards, &city.trajectories, LAMBDA)
    });
    let mut speedups = vec![
        ("ingest_vs_rebuild".to_string(), rebuild / ingest),
        (
            "ingest_plus_compact_vs_rebuild".to_string(),
            rebuild / ingest_compact,
        ),
    ];

    let advertisers = workload(&base);
    let mut post = live_engine();
    post.ingest(&batch).expect("valid batch");
    let grown = post.materialized();
    let instance = Instance::new(&grown, &advertisers, GAMMA);
    let base_instance = Instance::new(&base, &advertisers, GAMMA);
    for name in ["g-global", "bls"] {
        let spec = SolverSpec::by_name(name)
            .expect("registered solver")
            .with_seed(7);
        // The previous epoch's allocation, solved on the pre-ingest base.
        let prev = spec.build().solve(&base_instance);
        let cold = t.time("streaming_warm_solve", &format!("{name}/cold"), 20, || {
            spec.build().solve(&instance)
        });
        let warm = t.time("streaming_warm_solve", &format!("{name}/warm"), 20, || {
            warm_solve(&instance, &prev.sets, &spec)
        });
        let key = name.replace('-', "_");
        speedups.push((format!("warm_vs_cold_{key}"), cold / warm));
        speedups.push((
            format!("end_to_end_{key}"),
            (rebuild + cold) / (ingest_compact + warm),
        ));
    }
    Output {
        fixture: format!(
            "NYC at {scale:?} scale ({} billboards, {n} trajectories), lambda = {LAMBDA} m; base = first {} trajectories, delta = last {BATCH} as one IngestBatch; workload alpha=1.0 p=0.05 seed 42, gamma = {GAMMA}, solver seed 7",
            city.billboards.len(),
            n - BATCH
        ),
        speedups,
        regret: Vec::new(),
        notes: vec![
            "ingest speedups subtract engine_setup_only from the pipeline rows. end_to_end_* is (rebuild_from_scratch + cold solve) / (ingest + compaction + warm solve): an epoch's turnaround against the cold alternative.".into(),
        ],
    }
}

fn ablations(scale: Scale, t: &mut Timer) -> Output {
    let f = Fixture::new(CityKind::Nyc, scale);
    let instance = f.instance();
    let mut regret = Vec::new();
    let mut time_solver = |group: &str, id: &str, solver: &dyn Solver| {
        let name = format!("{group}/{id}");
        regret.push((name, solver.solve(&instance).total_regret));
        t.time(group, id, 10, || solver.solve(&instance));
    };

    for restarts in [0usize, 1, 3, 5] {
        let bls = Bls {
            restarts,
            seed: 7,
            ..Bls::default()
        };
        time_solver("ablation_restarts", &restarts.to_string(), &bls);
    }
    for r in [0.0, 0.01, 0.05, 0.2] {
        let bls = Bls {
            restarts: 1,
            seed: 7,
            improvement_ratio: r,
            ..Bls::default()
        };
        time_solver("ablation_improvement_ratio", &r.to_string(), &bls);
    }
    let als = Als {
        restarts: 0,
        seed: 7,
        ..Als::default()
    };
    let bls = Bls {
        restarts: 0,
        seed: 7,
        ..Bls::default()
    };
    time_solver(
        "ablation_neighbourhood",
        "advertiser_driven(ALS,0 restarts)",
        &als,
    );
    time_solver(
        "ablation_neighbourhood",
        "billboard_driven(BLS,0 restarts)",
        &bls,
    );
    Output {
        fixture: format!("{} at {scale:?} scale; lambda = {LAMBDA} m, workload alpha=1.0 p=0.05 seed 42, gamma = {GAMMA}, solver seed 7", f.describe()),
        speedups: Vec::new(),
        regret,
        notes: Vec::new(),
    }
}

fn main() {
    let args = Args::from_env(&["suite", "scale", "iters", "date", "out"]);
    let suite = args.get("suite").unwrap_or_default();
    let run: fn(Scale, &mut Timer) -> Output = match suite {
        "local_search" => local_search,
        "gain_engine" => gain_engine,
        "model_build" => model_build,
        "streaming" => streaming,
        "ablations" => ablations,
        _ => {
            eprintln!(
                "bad --suite {suite:?}: expected local_search|gain_engine|model_build|streaming|ablations"
            );
            exit(2);
        }
    };
    let scale = match (args.get("scale"), suite) {
        (Some(_), _) => args.scale(),
        (None, "local_search" | "gain_engine") => Scale::Bench,
        (None, _) => Scale::Test,
    };
    let mut timer = Timer {
        iters: args.get("iters").map(|_| args.usize_or("iters", 1).max(1)),
        rows: Vec::new(),
        samples: Vec::new(),
    };
    let output = run(scale, &mut timer);

    let mut command =
        format!("cargo run --release -p mroam-experiments --bin exp_engines -- --suite {suite}");
    for key in ["scale", "iters"] {
        if let Some(v) = args.get(key) {
            command.push_str(&format!(" --{key} {v}"));
        }
    }
    let mut record = Record::new(suite, &command, &args);
    record
        .host_threads()
        .field("pool_width", rayon::current_num_threads())
        .text("fixture", &output.fixture)
        .map("samples", timer.samples)
        .results("mean_s", &timer.rows);
    if !output.speedups.is_empty() {
        record.map(
            "speedups",
            output.speedups.iter().map(|(k, v)| (k, format!("{v:.2}"))),
        );
    }
    if !output.regret.is_empty() {
        record.map(
            "total_regret",
            output.regret.iter().map(|(k, v)| (k, format!("{v:.3}"))),
        );
    }
    record.emit(&output.notes, &args);
}
