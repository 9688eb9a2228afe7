//! Extension experiment: the Section 3.2 digital-billboard discussion —
//! compare whole-day allocation against slot-level allocation of the same
//! physical inventory, sweeping the slot count.
//!
//! Not a paper figure; recorded in EXPERIMENTS.md as extension E2.
//!
//! Usage: `exp_slots [--city nyc|sg] [--scale ...] [--seed N]`

use mroam_core::prelude::*;
use mroam_datagen::WorkloadConfig;
use mroam_experiments::params::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_P_AVG};
use mroam_experiments::{build_city, Args, CityKind};
use mroam_influence::slots::{SlotGrid, SlottedModel};

fn main() {
    let args = Args::from_env(&["city", "scale", "seed"]);
    let city_kind = args.city(CityKind::Nyc);
    let seed = args.seed();
    let city = build_city(city_kind, args.scale());
    let starts = city.trip_start_times(seed);

    let static_model = city.coverage(DEFAULT_LAMBDA);
    let advertisers = WorkloadConfig {
        alpha: DEFAULT_ALPHA,
        p_avg: DEFAULT_P_AVG,
        seed,
    }
    .generate(static_model.supply());

    println!(
        "== Extension E2: time-slotted billboards ({}, alpha={:.0}%, p={:.0}%) ==",
        city_kind.label(),
        DEFAULT_ALPHA * 100.0,
        DEFAULT_P_AVG * 100.0
    );
    println!(
        "{:<14} {:>10} {:>10} {:>14} {:>8}",
        "slots/day", "units", "supply", "BLS regret", "#unsat"
    );

    // 1 slot = the static whole-day model; then finer grids.
    for n_slots in [1usize, 2, 4, 6, 12] {
        let (regret, unsat, units, supply) = if n_slots == 1 {
            let instance = Instance::new(&static_model, &advertisers, 0.5);
            let sol = Bls::default().solve(&instance);
            (
                sol.total_regret,
                sol.breakdown.n_unsatisfied,
                static_model.n_billboards(),
                static_model.supply(),
            )
        } else {
            let grid = SlotGrid::new(0.0, 24.0 * 3600.0, n_slots);
            let slotted = SlottedModel::build(
                &city.billboards,
                &city.trajectories,
                &starts,
                DEFAULT_LAMBDA,
                grid,
            );
            let instance = Instance::new(slotted.model(), &advertisers, 0.5);
            let sol = Bls::default().solve(&instance);
            (
                sol.total_regret,
                sol.breakdown.n_unsatisfied,
                slotted.model().n_billboards(),
                slotted.model().supply(),
            )
        };
        println!(
            "{:<14} {:>10} {:>10} {:>14.1} {:>8}",
            n_slots, units, supply, regret, unsat
        );
    }
    println!("\nExpected: finer slots give the host strictly more allocation freedom");
    println!("(regret non-increasing in slot count, at higher solve cost).");
}
