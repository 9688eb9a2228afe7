//! Regenerates **Figure 12**: total regret of all four algorithms while
//! varying the influence radius λ, on both cities.
//!
//! The coverage model is rebuilt per λ (the meets relation changes), and the
//! workload is re-derived from the new supply, exactly as the paper does
//! when it notes that "while increasing I* and fixing α and p(ĪA), I and
//! I^A will increase".
//!
//! Usage: `exp_lambda [--scale ...] [--seed N] [--model-cache-dir DIR]`

use mroam_experiments::cache;
use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_P_AVG, LAMBDAS};
use mroam_experiments::run::{run_workload_point, SweepRow};
use mroam_experiments::table::render_effectiveness;
use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["scale", "seed", "model-cache-dir"]);
    let seed = args.seed();
    let cache_dir = args.get("model-cache-dir").map(std::path::PathBuf::from);

    for city_kind in [CityKind::Nyc, CityKind::Sg] {
        let city = build_city(city_kind, args.scale());
        let rows: Vec<SweepRow> = LAMBDAS
            .iter()
            .map(|&lambda| {
                let model = cache::city_model(&city, lambda, cache_dir.as_deref());
                SweepRow {
                    label: format!("lambda={lambda:.0}m (supply={})", model.supply()),
                    results: run_workload_point(&model, DEFAULT_ALPHA, DEFAULT_P_AVG, seed),
                }
            })
            .collect();
        let title = format!("Figure 12: regret vs lambda ({})", city_kind.label());
        print!("{}", render_effectiveness(&title, &rows));
    }
    println!("Paper shape: NYC regret grows with lambda; SG flat for lambda <= 150m.");
}
