//! Regenerates **Figure 1**: (a) the billboard influence distribution and
//! (b) the impression-count curve, for both cities.
//!
//! Usage: `exp_fig1 [--scale test|bench|paper] [--lambda 100]`

use mroam_experiments::{build_city, Args, CityKind};
use mroam_influence::curves;

fn main() {
    let args = Args::from_env(&["scale", "lambda"]);
    let scale = args.scale();
    let lambda = args.f64_or("lambda", mroam_experiments::params::DEFAULT_LAMBDA);

    for kind in [CityKind::Nyc, CityKind::Sg] {
        let city = build_city(kind, scale);
        let model = city.coverage(lambda);
        let label = kind.label();

        println!("== Figure 1a: influence distribution ({label}) ==");
        let dist = curves::influence_distribution(&model);
        // Report deciles of the rank axis like the figure's x-axis ticks.
        for decile in 0..=10 {
            let idx = (dist.len().saturating_sub(1)) * decile / 10;
            if let Some(v) = dist.get(idx) {
                println!(
                    "  rank {:>3}% of billboards: influence/max = {:.4}",
                    decile * 10,
                    v
                );
            }
        }

        println!("== Figure 1b: impression-count curve ({label}) ==");
        let pcts: Vec<u32> = (0..=10).map(|i| i * 10).collect();
        for (p, frac) in curves::impression_curve(&model, &pcts) {
            println!(
                "  top {p:>3}% billboards cover {:.1}% of trajectories",
                frac * 100.0
            );
        }

        let skew = curves::skew_stats(&model);
        println!(
            "  [skew] gini = {:.3}, top-10% overlap = {:.3}\n",
            skew.influence_gini,
            curves::top_overlap(&model, 0.1)
        );
    }
    println!("Paper shape: NYC skewed influence & heavy top-board overlap (slow-rising curve);");
    println!("             SG uniform influence & little overlap (fast-rising curve).");
}
