//! Regenerates **Figures 8–9**: running time of all four algorithms while
//! varying α (Figure 8) or p(ĪA) (Figure 9).
//!
//! Usage: `exp_time [--vary alpha|p] [--city nyc|sg] [--scale ...] [--seed N]`

use mroam_experiments::params::{ALPHAS, DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG, P_AVGS};
use mroam_experiments::run::{run_workload_point, SweepRow};
use mroam_experiments::table::render_runtime;
use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["city", "scale", "seed", "vary"]);
    let vary = args.get("vary").unwrap_or("alpha").to_string();
    let city_kind = args.city(CityKind::Nyc);
    let seed = args.seed();

    let city = build_city(city_kind, args.scale());
    let model = city.coverage(DEFAULT_LAMBDA);

    let rows: Vec<SweepRow> = match vary.as_str() {
        "alpha" => ALPHAS
            .iter()
            .map(|&alpha| SweepRow {
                label: format!("alpha={:.0}%", alpha * 100.0),
                results: run_workload_point(&model, alpha, DEFAULT_P_AVG, seed),
            })
            .collect(),
        "p" => P_AVGS
            .iter()
            .map(|&p| SweepRow {
                label: format!("p={:.0}%", p * 100.0),
                results: run_workload_point(&model, DEFAULT_ALPHA, p, seed),
            })
            .collect(),
        other => panic!("--vary must be alpha or p, got {other:?}"),
    };

    let figure = if vary == "alpha" { 8 } else { 9 };
    let title = format!(
        "Figure {figure}: running time vs {vary} ({})",
        city_kind.label()
    );
    print!("{}", render_runtime(&title, &rows));
    print!("{}", mroam_experiments::chart::runtime_dots(&title, &rows));
    println!("Paper shape: G-Order ~ G-Global << ALS < BLS; time grows with alpha.");
}
