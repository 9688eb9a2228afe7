//! `stream-replay` — replay a generated city's trajectories as streamed
//! epochs and measure warm-start re-solving against cold re-solving.
//!
//! The city's trajectory set is split into `--chunks` arrival chunks; the
//! first `--base-chunks` form the initial coverage model and the rest are
//! ingested one epoch at a time through [`mroam_stream::StreamEngine`].
//! After every epoch the allocation is re-solved twice — cold (from
//! scratch) and warm (seeded from the previous epoch's sets via
//! [`mroam_core::warm::warm_solve`]) — and both wall-clocks are printed.
//! Epochs whose changed-billboard frontier misses every assigned
//! billboard skip solving entirely ([`solution_carries_over`]).
//!
//! ```text
//! stream-replay [--city nyc|sg] [--scale test|bench|paper] [--chunks 8]
//!               [--base-chunks 2] [--compact-every 0] [--algo g-global|bls]
//!               [--gamma 0.5] [--alpha 1.0] [--p 0.05] [--seed N]
//!               [--verify true]
//! ```
//!
//! `--verify true` additionally compacts at the end and checks the folded
//! base is identical (coverage-list for coverage-list) to an offline
//! from-scratch build over the full city — the streaming pipeline's
//! bit-identity claim, exercised on real generated data.

use mroam_core::instance::Instance;
use mroam_core::solver::{Solution, SolverSpec, SOLVER_NAMES};
use mroam_core::warm::{solution_carries_over, warm_solve};
use mroam_datagen::WorkloadConfig;
use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::{build_city, Args, CityKind};
use mroam_stream::{IngestBatch, StreamEngine, TrajectoryDelta};
use std::process::exit;
use std::time::Instant;

/// The `--key`s this binary reads; any other key exits 2.
const KEYS: &[&str] = &[
    "city",
    "scale",
    "seed",
    "algo",
    "alpha",
    "p",
    "gamma",
    "chunks",
    "base-chunks",
    "compact-every",
    "verify",
];

fn main() {
    let args = Args::from_env(KEYS);
    let chunks = args.usize_or("chunks", 8).max(1);
    let base_chunks = args.usize_or("base-chunks", 2).min(chunks - 1);
    let compact_every = args.usize_or("compact-every", 0);
    let verify = args.get("verify") == Some("true");
    let gamma = args.f64_or("gamma", 0.5);
    let algo = args.get("algo").unwrap_or("g-global");
    let spec = SolverSpec::by_name(algo)
        .unwrap_or_else(|| {
            eprintln!("bad --algo {algo:?}: expected {}", SOLVER_NAMES.join("|"));
            exit(2);
        })
        .with_seed(args.seed());

    let city = build_city(args.city(CityKind::Nyc), args.scale());
    let offline = city.coverage(DEFAULT_LAMBDA);
    let advertisers = WorkloadConfig {
        alpha: args.f64_or("alpha", DEFAULT_ALPHA),
        p_avg: args.f64_or("p", DEFAULT_P_AVG),
        seed: args.seed(),
    }
    .generate(offline.supply());

    // Chunk the arrival order: chunk i covers trajectory ids
    // [i*per_chunk, (i+1)*per_chunk).
    let n = city.trajectories.len();
    let per_chunk = n.div_ceil(chunks);
    let delta = |i: usize| {
        let t = city.trajectories.get(mroam_data::TrajectoryId(i as u32));
        TrajectoryDelta {
            points: t.points.to_vec(),
            timestamps: t.timestamps.to_vec(),
        }
    };

    let n_base = (base_chunks * per_chunk).min(n);
    let mut base = mroam_data::TrajectoryStore::new();
    for i in 0..n_base {
        let d = delta(i);
        base.push_with_timestamps(&d.points, &d.timestamps)
            .expect("base prefix fits the column budget");
    }
    println!(
        "{}: {} billboards, {} trajectories ({} in base, {} streamed over {} epochs), \
         {} advertisers, algo {}",
        city.name,
        city.billboards.len(),
        n,
        n_base,
        n - n_base,
        chunks - base_chunks,
        advertisers.len(),
        spec.name,
    );

    let build_start = Instant::now();
    let mut engine = StreamEngine::new(city.billboards.clone(), base, DEFAULT_LAMBDA);
    let mut prev = {
        let instance = Instance::new(engine.model(), &advertisers, gamma);
        spec.build().solve(&instance)
    };
    println!(
        "base model + cold solve: {:.1} ms, regret {:.1}",
        build_start.elapsed().as_secs_f64() * 1e3,
        prev.total_regret
    );

    println!("epoch  +trajs  changed  cold_ms  warm_ms  speedup  cold_regret  warm_regret");
    let mut carried = 0usize;
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for (epoch, start) in (n_base..n).step_by(per_chunk).enumerate() {
        let end = (start + per_chunk).min(n);
        let report = engine
            .ingest(&IngestBatch {
                billboard_events: vec![],
                trajectories: (start..end).map(delta).collect(),
            })
            .expect("replayed trajectories are valid");

        if solution_carries_over(&prev, &report.changed_billboards) {
            carried += 1;
            println!(
                "{:>5}  {:>6}  {:>7}  {:>7}  {:>7}  {:>7}  {:>11.1}  {:>11.1}",
                report.epoch,
                end - start,
                report.changed_billboards.len(),
                "-",
                "-",
                "-",
                prev.total_regret,
                prev.total_regret
            );
        } else {
            let model = engine.materialized();
            let instance = Instance::new(&model, &advertisers, gamma);
            let t0 = Instant::now();
            let cold = spec.build().solve(&instance);
            let cold_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let warm = warm_solve(&instance, &prev.sets, &spec);
            let warm_s = t1.elapsed().as_secs_f64();
            cold_total += cold_s;
            warm_total += warm_s;
            println!(
                "{:>5}  {:>6}  {:>7}  {:>7.1}  {:>7.1}  {:>6.1}x  {:>11.1}  {:>11.1}",
                report.epoch,
                end - start,
                report.changed_billboards.len(),
                cold_s * 1e3,
                warm_s * 1e3,
                cold_s / warm_s.max(1e-9),
                cold.total_regret,
                warm.total_regret
            );
            prev = keep_better(warm, cold);
        }

        if compact_every > 0 && (epoch + 1) % compact_every == 0 {
            let t = Instant::now();
            let r = engine.compact();
            println!(
                "       compacted to epoch {} ({} trajectories folded, {:.1} ms)",
                r.epoch,
                r.folded_trajectories,
                t.elapsed().as_secs_f64() * 1e3
            );
        }
    }

    println!(
        "totals: cold {:.1} ms, warm {:.1} ms ({:.1}x), {} epoch(s) carried over with no re-solve",
        cold_total * 1e3,
        warm_total * 1e3,
        cold_total / warm_total.max(1e-9),
        carried
    );

    if verify {
        engine.compact();
        assert_eq!(
            engine.model().coverage_lists(),
            offline.coverage_lists(),
            "compacted streaming base diverged from the offline build"
        );
        println!(
            "verified: compacted base identical to offline build \
             ({} billboards x {} trajectories)",
            offline.n_billboards(),
            offline.n_trajectories()
        );
    }
}

/// Warm and cold are both admissible allocations of the same instance;
/// carry the lower-regret one into the next epoch (ties favour warm,
/// whose caches line up with the carried sets).
fn keep_better(warm: Solution, cold: Solution) -> Solution {
    if cold.total_regret < warm.total_regret {
        cold
    } else {
        warm
    }
}
