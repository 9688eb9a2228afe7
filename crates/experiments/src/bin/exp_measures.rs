//! Extension experiment: the Section 3.1 orthogonality claim — run the full
//! algorithm suite under the three implemented influence measures
//! (distinct coverage / traffic volume / k-impressions) on the same city
//! and workload profile.
//!
//! Not a paper figure; recorded in EXPERIMENTS.md as extension E1.
//!
//! Usage: `exp_measures [--city nyc|sg] [--scale ...] [--seed N]`

use mroam_core::prelude::*;
use mroam_datagen::WorkloadConfig;
use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::run::paper_solvers;
use mroam_experiments::{build_city, Args, CityKind};
use mroam_influence::InfluenceMeasure;

fn main() {
    let args = Args::from_env(&["city", "scale", "seed"]);
    let city_kind = args.city(CityKind::Nyc);
    let seed = args.seed();
    let city = build_city(city_kind, args.scale());
    let model = city.coverage(DEFAULT_LAMBDA);

    let measures = [
        ("distinct", InfluenceMeasure::Distinct),
        ("volume", InfluenceMeasure::Volume),
        ("impressions(k=2)", InfluenceMeasure::Impressions { k: 2 }),
        ("impressions(k=3)", InfluenceMeasure::Impressions { k: 3 }),
    ];

    println!(
        "== Extension E1: influence-measure ablation ({}, alpha={:.0}%, p={:.0}%) ==",
        city_kind.label(),
        DEFAULT_ALPHA * 100.0,
        DEFAULT_P_AVG * 100.0
    );
    for (name, measure) in measures {
        // Supply (and hence the workload's absolute demands) depends on the
        // measure: use the measure's own full-deployment influence as the
        // sizing base so α keeps its meaning.
        let full: Vec<_> = model.billboard_ids().collect();
        let measured_supply = model
            .set_influence_measured(full.iter().copied(), measure)
            .max(1);
        let advertisers = WorkloadConfig {
            alpha: DEFAULT_ALPHA,
            p_avg: DEFAULT_P_AVG,
            seed,
        }
        .generate(measured_supply);
        let instance = Instance::with_measure(&model, &advertisers, 0.5, measure);

        println!("-- measure: {name} (sizing supply {measured_supply}) --");
        println!(
            "{:<9} {:>14} {:>8} {:>12}",
            "algo", "total-regret", "#unsat", "time"
        );
        for solver in paper_solvers(seed) {
            let start = std::time::Instant::now();
            let sol = solver.solve(&instance);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<9} {:>14.1} {:>8} {:>10.1}ms",
                solver.name(),
                sol.total_regret,
                sol.breakdown.n_unsatisfied,
                ms
            );
        }
    }
    println!("\nExpected: the BLS < ALS < greedy ordering persists under every");
    println!("measure — the algorithms never look inside the influence oracle.");
}
