//! Regenerates **Figure 7**: the SG dataset under the default settings
//! (α = 100%, p(ĪA) = 5%, γ = 0.5, λ = 100 m), all four algorithms.
//!
//! Usage: `exp_sg [--scale ...] [--seed N]`

use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::run::{run_workload_point, SweepRow};
use mroam_experiments::table::render_effectiveness;
use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["scale", "seed"]);
    let seed = args.seed();
    let city = build_city(CityKind::Sg, args.scale());
    let model = city.coverage(DEFAULT_LAMBDA);
    eprintln!(
        "[setup] SG |U|={} |T|={} supply={}",
        model.n_billboards(),
        model.n_trajectories(),
        model.supply()
    );

    let rows = vec![SweepRow {
        label: format!(
            "alpha={:.0}%, p={:.0}%",
            DEFAULT_ALPHA * 100.0,
            DEFAULT_P_AVG * 100.0
        ),
        results: run_workload_point(&model, DEFAULT_ALPHA, DEFAULT_P_AVG, seed),
    }];
    print!(
        "{}",
        render_effectiveness("Figure 7: SG dataset, default settings", &rows)
    );
}
