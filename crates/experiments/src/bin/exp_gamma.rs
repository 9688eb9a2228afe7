//! Regenerates **Figures 10–11**: total regret of all four algorithms while
//! varying the unsatisfied-penalty ratio γ, on NYC (Figure 10) and SG
//! (Figure 11).
//!
//! Usage: `exp_gamma [--city nyc|sg] [--scale ...] [--seed N]`

use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG, GAMMAS};
use mroam_experiments::run::{run_workload_point_gamma, SweepRow};
use mroam_experiments::table::render_effectiveness;
use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["city", "scale", "seed"]);
    let city_kind = args.city(CityKind::Nyc);
    let seed = args.seed();
    let city = build_city(city_kind, args.scale());
    let model = city.coverage(DEFAULT_LAMBDA);

    let rows: Vec<SweepRow> = GAMMAS
        .iter()
        .map(|&gamma| SweepRow {
            label: format!("gamma={gamma}"),
            results: run_workload_point_gamma(&model, DEFAULT_ALPHA, DEFAULT_P_AVG, gamma, seed),
        })
        .collect();

    let figure = match city_kind {
        CityKind::Nyc => 10,
        CityKind::Sg => 11,
    };
    let title = format!(
        "Figure {figure}: regret vs gamma ({}, alpha={:.0}%, p={:.0}%)",
        city_kind.label(),
        DEFAULT_ALPHA * 100.0,
        DEFAULT_P_AVG * 100.0
    );
    print!("{}", render_effectiveness(&title, &rows));
    print!("{}", mroam_experiments::chart::stacked_bars(&title, &rows));
    println!("Paper shape: regret of every algorithm drops as gamma rises.");
}
