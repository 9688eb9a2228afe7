//! Runs every experiment in sequence — the one-shot regeneration of the
//! paper's full evaluation section. Output mirrors what each `exp_*` binary
//! prints; see EXPERIMENTS.md for the paper-vs-measured record.
//!
//! Usage: `exp_all [--scale test|bench|paper] [--seed N]
//!         [--model-cache-dir DIR]`
//!
//! With `--model-cache-dir`, every coverage model (the two default-λ city
//! models and the Figure 12 per-λ rebuilds) is served from fingerprinted
//! cache files in that directory — a warm rerun skips all model builds.

use mroam_experiments::cache;
use mroam_experiments::params::{
    table6, ALPHAS, DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG, FIGURE_P, GAMMAS, LAMBDAS,
};
use mroam_experiments::run::{run_workload_point, run_workload_point_gamma, SweepRow};
use mroam_experiments::table::{render_effectiveness, render_runtime};
use mroam_experiments::{build_city, Args, CityKind};
use mroam_influence::curves;

fn main() {
    let args = Args::from_env(&["scale", "seed", "model-cache-dir"]);
    let scale = args.scale();
    let seed = args.seed();

    println!("{}", table6());

    // Table 5 + Figure 1 + per-λ models, one city at a time.
    println!("Table 5: Statistics of Datasets (synthetic, scale {scale:?})");
    let nyc = build_city(CityKind::Nyc, scale);
    let sg = build_city(CityKind::Sg, scale);
    println!("{}", nyc.stats().table_row());
    println!("{}", sg.stats().table_row());
    println!();

    let cache_dir = args.get("model-cache-dir").map(std::path::PathBuf::from);
    let nyc_model = cache::city_model(&nyc, DEFAULT_LAMBDA, cache_dir.as_deref());
    let sg_model = cache::city_model(&sg, DEFAULT_LAMBDA, cache_dir.as_deref());

    for (label, model) in [("NYC", &nyc_model), ("SG", &sg_model)] {
        let skew = curves::skew_stats(model);
        let curve = curves::impression_curve(model, &[10, 20, 50, 100]);
        println!(
            "Figure 1 ({label}): gini={:.3} top10-overlap={:.3} curve(top10/20/50/100%) = {}",
            skew.influence_gini,
            curves::top_overlap(model, 0.1),
            curve
                .iter()
                .map(|(p, f)| format!("{p}%:{:.2}", f))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!();

    // Figures 2–6: regret vs α per p(ĪA), NYC.
    for (figure, p_avg, n_at_full) in FIGURE_P {
        let rows: Vec<SweepRow> = ALPHAS
            .iter()
            .map(|&alpha| SweepRow {
                label: format!("alpha={:.0}%", alpha * 100.0),
                results: run_workload_point(&nyc_model, alpha, p_avg, seed),
            })
            .collect();
        let title = format!(
            "Figure {figure}: regret vs alpha at p={:.0}% (NYC, |A|={n_at_full} at alpha=100%)",
            p_avg * 100.0
        );
        print!("{}", render_effectiveness(&title, &rows));
        println!();
    }

    // Figure 7: SG default settings.
    let rows = vec![SweepRow {
        label: "default".into(),
        results: run_workload_point(&sg_model, DEFAULT_ALPHA, DEFAULT_P_AVG, seed),
    }];
    print!(
        "{}",
        render_effectiveness("Figure 7: SG dataset, default settings", &rows)
    );
    println!();

    // Figures 8–9: running time (reuse the regret sweeps' timings at p=5%).
    let time_alpha: Vec<SweepRow> = ALPHAS
        .iter()
        .map(|&alpha| SweepRow {
            label: format!("alpha={:.0}%", alpha * 100.0),
            results: run_workload_point(&nyc_model, alpha, DEFAULT_P_AVG, seed),
        })
        .collect();
    print!(
        "{}",
        render_runtime("Figure 8: running time vs alpha (NYC)", &time_alpha)
    );
    println!();
    let time_p: Vec<SweepRow> = mroam_experiments::params::P_AVGS
        .iter()
        .map(|&p| SweepRow {
            label: format!("p={:.0}%", p * 100.0),
            results: run_workload_point(&nyc_model, DEFAULT_ALPHA, p, seed),
        })
        .collect();
    print!(
        "{}",
        render_runtime("Figure 9: running time vs p (NYC)", &time_p)
    );
    println!();

    // Figures 10–11: γ sweeps.
    for (figure, label, model) in [(10, "NYC", &nyc_model), (11, "SG", &sg_model)] {
        let rows: Vec<SweepRow> = GAMMAS
            .iter()
            .map(|&gamma| SweepRow {
                label: format!("gamma={gamma}"),
                results: run_workload_point_gamma(model, DEFAULT_ALPHA, DEFAULT_P_AVG, gamma, seed),
            })
            .collect();
        print!(
            "{}",
            render_effectiveness(
                &format!("Figure {figure}: regret vs gamma ({label})"),
                &rows
            )
        );
        println!();
    }

    // Figure 12: λ sweeps (rebuild the model per λ).
    for (label, city) in [("NYC", &nyc), ("SG", &sg)] {
        let rows: Vec<SweepRow> = LAMBDAS
            .iter()
            .map(|&lambda| {
                let model = cache::city_model(city, lambda, cache_dir.as_deref());
                SweepRow {
                    label: format!("lambda={lambda:.0}m (supply={})", model.supply()),
                    results: run_workload_point(&model, DEFAULT_ALPHA, DEFAULT_P_AVG, seed),
                }
            })
            .collect();
        print!(
            "{}",
            render_effectiveness(&format!("Figure 12: regret vs lambda ({label})"), &rows)
        );
        println!();
    }
}
