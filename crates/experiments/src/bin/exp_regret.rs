//! Regenerates **Figures 2–6**: total regret (split into excessive influence
//! and unsatisfied penalty) of all four algorithms while varying the
//! demand-supply ratio α, at the figure's `p(ĪA)`.
//!
//! | figure | p(ĪA) | \|A\| at α=100% |
//! |--------|-------|-----------------|
//! | 2      | 1%    | 100             |
//! | 3      | 2%    | 50              |
//! | 4      | 5%    | 20              |
//! | 5      | 10%   | 10              |
//! | 6      | 20%   | 5               |
//!
//! Usage: `exp_regret [--figure 2..6] [--city nyc|sg] [--scale ...] [--seed N]`

use mroam_experiments::params::{ALPHAS, FIGURE_P};
use mroam_experiments::run::{run_workload_point, SweepRow};
use mroam_experiments::table::render_effectiveness;
use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["city", "scale", "seed", "figure"]);
    let figure = args.usize_or("figure", 4);
    let (_, p_avg, n_at_full) = FIGURE_P
        .iter()
        .copied()
        .find(|&(f, _, _)| f as usize == figure)
        .unwrap_or_else(|| panic!("--figure must be in 2..=6, got {figure}"));
    let city_kind = args.city(CityKind::Nyc);
    let seed = args.seed();

    let city = build_city(city_kind, args.scale());
    let model = city.coverage(mroam_experiments::params::DEFAULT_LAMBDA);
    eprintln!(
        "[setup] {} |U|={} |T|={} supply={}",
        city_kind.label(),
        model.n_billboards(),
        model.n_trajectories(),
        model.supply()
    );

    let rows: Vec<SweepRow> = ALPHAS
        .iter()
        .map(|&alpha| SweepRow {
            label: format!("alpha={:.0}%", alpha * 100.0),
            results: run_workload_point(&model, alpha, p_avg, seed),
        })
        .collect();

    let title = format!(
        "Figure {figure}: regret vs alpha at p(I^A)={:.0}% ({}, |A|={} at alpha=100%)",
        p_avg * 100.0,
        city_kind.label(),
        n_at_full
    );
    print!("{}", render_effectiveness(&title, &rows));
    print!("{}", mroam_experiments::chart::stacked_bars(&title, &rows));
}
