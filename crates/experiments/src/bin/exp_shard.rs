//! `exp_shard` — benchmark of the spatially sharded solve path,
//! recorded as the `results/BENCH_shard.json` baseline.
//!
//! ```text
//! exp_shard [--city nyc|sg] [--scale test|bench|paper] [--algo g-global]
//!           [--gamma 0.5] [--seed 42] [--iters 5] [--zoned-frac 0.5]
//!           [--date YYYY-MM-DD] [--out results/BENCH_shard.json]
//!           [--self-check true]
//! ```
//!
//! Two axes, both against the same single-engine baseline solve:
//!
//! * **gap** — total regret of `solve_sharded` at shard counts 1/2/4/8
//!   relative to the lone engine. One shard must be *bit-identical*
//!   (asserted, not just measured); more shards trade regret for
//!   parallelism and the rows record exactly how much.
//! * **scaling** — wall time of the 4-shard solve at pool widths
//!   1/2/4/8 via dedicated [`rayon::ThreadPool`]s. On a single-core
//!   host these rows pin the dispatch overhead curve rather than show
//!   speedup — the emitted notes say so, same precedent as
//!   `BENCH_threadpool.json`.
//!
//! `--zoned-frac F` pins that fraction of advertisers to a home zone
//! (round-robin over 8 zones, mapped to `zone % n_shards` per row) so
//! every run exercises both the homed-exact path and the split router.
//!
//! Correctness gates run before any timing — one-shard identity, width
//! determinism at every measured width, demand/billboard conservation in
//! the shard report — and `--self-check` runs only the gates on the test
//! scale and exits, which is the CI smoke mode.

use mroam_core::prelude::*;
use mroam_core::shard::{solve_sharded, ShardReport, ShardSpec};
use mroam_core::solver::{SolverSpec, SOLVER_NAMES};
use mroam_datagen::WorkloadConfig;
use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::record::{host_threads, time_mean, Record};
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_experiments::Args;
use mroam_geo::SpatialPartition;
use std::process::exit;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// Shard count of the width-scaling rows: enough shards that every
/// measured width has independent work to steal.
const SCALING_SHARDS: usize = 4;

fn main() {
    let args = Args::from_env();
    let self_check = args.get("self-check") == Some("true");
    let scale = if self_check {
        Scale::Test
    } else {
        args.scale()
    };
    let seed = args.seed();
    let gamma = args.f64_or("gamma", mroam_experiments::params::DEFAULT_GAMMA);
    let iters = args.usize_or("iters", 5);
    let zoned_frac = args.f64_or("zoned-frac", 0.5).clamp(0.0, 1.0);
    let algo = args.get("algo").unwrap_or("g-global");
    let solver = SolverSpec::by_name(algo)
        .unwrap_or_else(|| {
            eprintln!("bad --algo {algo:?}: expected {}", SOLVER_NAMES.join("|"));
            exit(2);
        })
        .with_seed(seed)
        .build();
    let solver: &(dyn Solver + Sync) = &*solver;

    let city = build_city(args.city(CityKind::Nyc), scale);
    let model = city.coverage(DEFAULT_LAMBDA);
    let advertisers = WorkloadConfig {
        alpha: DEFAULT_ALPHA,
        p_avg: DEFAULT_P_AVG,
        seed,
    }
    .generate(model.supply());
    let instance = Instance::new(&model, &advertisers, gamma);
    let n_adv = advertisers.len();
    eprintln!(
        "[exp_shard] {} {scale:?}: {} billboards, {} trajectories, {n_adv} advertisers, algo {algo}",
        city.name,
        model.n_billboards(),
        model.n_trajectories()
    );

    // Home zones: the first `zoned_frac` advertisers (by id) get a zone
    // round-robin over 8, mapped per shard count below. Deterministic in
    // the ids alone, so every row routes the same campaigns.
    let zoned = ((n_adv as f64) * zoned_frac) as usize;
    let home_zone = |i: usize| -> Option<u32> {
        if i < zoned {
            Some((i % 8) as u32)
        } else {
            None
        }
    };

    // ---- baseline -----------------------------------------------------
    let baseline = solver.solve(&instance);
    let locations = city.billboards.locations();
    let spec_for = |n: usize| -> ShardSpec {
        let part = SpatialPartition::build(locations, DEFAULT_LAMBDA, n);
        ShardSpec::new(n, part.assign(locations))
    };
    let homes_for = |n: usize| -> Vec<Option<u32>> {
        (0..n_adv)
            .map(|i| home_zone(i).map(|z| z % n as u32))
            .collect()
    };

    // ---- correctness gates (before any timing) ------------------------
    // One shard is the lone engine, bit for bit.
    {
        let (solution, report) = solve_sharded(&instance, &spec_for(1), &homes_for(1), solver);
        assert_eq!(solution, baseline, "one-shard solve must be bit-identical");
        assert_eq!(report.n_shards, 1);
    }
    // The merged allocation is internally consistent and the report
    // conserves billboards and routed demand at every shard count.
    let global_demand: u64 = advertisers.iter().map(|(_, a)| a.demand).sum();
    let mut gate_solutions: Vec<(usize, Solution, ShardReport)> = Vec::new();
    for &n in &SHARD_COUNTS {
        let (solution, report) = solve_sharded(&instance, &spec_for(n), &homes_for(n), solver);
        solution.assert_disjoint();
        let owned: usize = report.per_shard.iter().map(|s| s.billboards).sum();
        assert_eq!(owned, model.n_billboards(), "shard report loses billboards");
        let routed: u64 = report.per_shard.iter().map(|s| s.routed_demand).sum();
        assert_eq!(routed, global_demand, "shard report loses demand");
        gate_solutions.push((n, solution, report));
    }
    // Width determinism: the same sharded solve on pools of every
    // measured width returns the same solution.
    let reference = &gate_solutions
        .iter()
        .find(|(n, ..)| *n == SCALING_SHARDS)
        .expect("scaling shard count is measured")
        .1;
    for &w in &WIDTHS {
        let pool = rayon::ThreadPool::new(w);
        let (solution, _) = pool.install(|| {
            solve_sharded(
                &instance,
                &spec_for(SCALING_SHARDS),
                &homes_for(SCALING_SHARDS),
                solver,
            )
        });
        assert_eq!(&solution, reference, "width-{w} sharded solve diverges");
    }
    if self_check {
        println!(
            "SELF-CHECK OK: one-shard identity, width determinism at {WIDTHS:?}, conservation at {SHARD_COUNTS:?} ({n_adv} advertisers, {} zoned)",
            zoned
        );
        return;
    }

    // ---- gap axis -----------------------------------------------------
    struct GapRow {
        n_shards: usize,
        regret: f64,
        gap_pct: f64,
        boundary_advertisers: usize,
        reconcile_added: usize,
        mean_s: f64,
    }
    let mut gaps: Vec<GapRow> = Vec::new();
    for (n, solution, report) in &gate_solutions {
        let spec = spec_for(*n);
        let homes = homes_for(*n);
        let mean_s = time_mean(iters, || solve_sharded(&instance, &spec, &homes, solver));
        let gap_pct = if baseline.total_regret == 0.0 {
            0.0
        } else {
            (solution.total_regret - baseline.total_regret) / baseline.total_regret * 100.0
        };
        gaps.push(GapRow {
            n_shards: *n,
            regret: solution.total_regret,
            gap_pct,
            boundary_advertisers: report.boundary_advertisers,
            reconcile_added: report.reconcile_added,
            mean_s,
        });
        eprintln!(
            "[exp_shard] {n} shard(s): regret {:.3} (gap {gap_pct:+.2}%), {} boundary advertisers, {} reconciled, {mean_s:.4} s/solve",
            solution.total_regret, report.boundary_advertisers, report.reconcile_added
        );
    }

    // ---- scaling axis -------------------------------------------------
    let spec = spec_for(SCALING_SHARDS);
    let homes = homes_for(SCALING_SHARDS);
    let lone_mean = time_mean(iters, || solver.solve(&instance));
    let mut widths: Vec<(usize, f64)> = Vec::new();
    for &w in &WIDTHS {
        let pool = rayon::ThreadPool::new(w);
        let mean = time_mean(iters, || {
            pool.install(|| solve_sharded(&instance, &spec, &homes, solver))
        });
        widths.push((w, mean));
        eprintln!(
            "[exp_shard] width {w}: {mean:.4} s/solve ({SCALING_SHARDS} shards, {:.2}x vs lone engine)",
            lone_mean / mean
        );
    }

    // ---- emit ---------------------------------------------------------
    let mut record = Record::new(
        "shard",
        "cargo run --release -p mroam-experiments --bin exp_shard",
        &args,
    );
    record
        .text("city", &city.name)
        .text("scale", &format!("{scale:?}"))
        .text("algo", algo)
        .host_threads()
        .field("iters", iters)
        .field("advertisers", n_adv)
        .field("zoned_advertisers", zoned)
        .field(
            "baseline",
            format!(
                "{{ \"regret\": {:.6}, \"mean_s\": {lone_mean:.9} }}",
                baseline.total_regret
            ),
        )
        .list(
            "gap",
            gaps.iter().map(|g| {
                format!(
                    "{{ \"n_shards\": {}, \"regret\": {:.6}, \"gap_pct\": {:.4}, \"boundary_advertisers\": {}, \"reconcile_added\": {}, \"mean_s\": {:.9} }}",
                    g.n_shards, g.regret, g.gap_pct, g.boundary_advertisers, g.reconcile_added, g.mean_s
                )
            }),
        )
        .list(
            "scaling",
            widths.iter().map(|(w, mean)| {
                format!(
                    "{{ \"width\": {w}, \"n_shards\": {SCALING_SHARDS}, \"mean_s\": {mean:.9}, \"speedup_vs_width_1\": {:.3} }}",
                    widths[0].1 / mean
                )
            }),
        );
    record.emit(
        &[
            format!("Recorded on a {}-thread host. The gap rows are deterministic and portable; the scaling/width_N rows cannot show wall-clock speedup without hardware parallelism — they pin the sharding overhead curve so a multi-core re-record has a baseline (same precedent as BENCH_threadpool.json).", host_threads()),
            "gap_pct is (sharded regret - lone-engine regret) / lone-engine regret; 1 shard is asserted bit-identical before timing, so its row is exactly 0.".into(),
            format!("All correctness gates ran in-process before timing: one-shard identity, width determinism at widths {WIDTHS:?}, disjoint merged sets, and billboard/demand conservation in the shard report at shard counts {SHARD_COUNTS:?}."),
        ],
        &args,
    );
}
