//! Integration tests for the extension layers: time-slotted billboards,
//! the theory module, binary storage, and the market simulator working
//! together over generated cities.

use mroam_repro::core::theory;
use mroam_repro::influence::slots::{SlotGrid, SlottedModel};
use mroam_repro::influence::storage;
use mroam_repro::market::{MarketConfig, MarketSim, ProposalGenerator};
use mroam_repro::prelude::*;

#[test]
fn slotted_allocation_never_loses_to_static() {
    // Slot-level allocation strictly generalises whole-day allocation: any
    // static plan embeds into the slotted model (take all slots of each
    // board), so the slotted optimum is at least as good. Verify the solved
    // results respect that at test scale.
    let city = NycConfig::test_scale().generate();
    let starts = city.trip_start_times(3);
    let static_model = city.coverage(100.0);
    let advertisers = WorkloadConfig {
        alpha: 0.8,
        p_avg: 0.10,
        seed: 3,
    }
    .generate(static_model.supply());

    let static_sol = Bls::default().solve(&Instance::new(&static_model, &advertisers, 0.5));

    let slotted = SlottedModel::build(
        &city.billboards,
        &city.trajectories,
        &starts,
        100.0,
        SlotGrid::new(0.0, 24.0 * 3600.0, 4),
    );
    let slotted_sol = Bls::default().solve(&Instance::new(slotted.model(), &advertisers, 0.5));
    slotted_sol.assert_disjoint();

    assert!(
        slotted_sol.total_regret <= static_sol.total_regret * 1.10 + 1e-6,
        "slotted {} should not lose meaningfully to static {}",
        slotted_sol.total_regret,
        static_sol.total_regret
    );
}

#[test]
fn slotted_physical_mapping_is_consistent_with_solution() {
    let city = SgConfig::test_scale().generate();
    let starts = city.trip_start_times(4);
    let slotted = SlottedModel::build(
        &city.billboards,
        &city.trajectories,
        &starts,
        100.0,
        SlotGrid::hourly_day(),
    );
    let advertisers = WorkloadConfig {
        alpha: 0.5,
        p_avg: 0.10,
        seed: 4,
    }
    .generate(slotted.model().supply().max(1));
    let sol = GGlobal.solve(&Instance::new(slotted.model(), &advertisers, 0.5));
    for set in &sol.sets {
        for &v in set {
            let (board, slot) = slotted.physical_of(v);
            assert!(board.index() < city.billboards.len());
            assert!(slot < 24);
            assert_eq!(slotted.virtual_id(board, slot), v);
        }
    }
}

#[test]
fn coverage_model_survives_binary_storage_through_a_solve() {
    let city = NycConfig::test_scale().generate();
    let model = city.coverage(100.0);
    let fingerprint = storage::ModelFingerprint::new(&city.billboards, &city.trajectories, 100.0);
    let bytes = storage::encode(&model, &fingerprint);
    let restored = storage::read_model(&bytes, &fingerprint).expect("roundtrip");

    let advertisers = WorkloadConfig {
        alpha: 1.0,
        p_avg: 0.10,
        seed: 6,
    }
    .generate(model.supply());
    let a = GGlobal.solve(&Instance::new(&model, &advertisers, 0.5));
    let b = GGlobal.solve(&Instance::new(&restored, &advertisers, 0.5));
    assert_eq!(a.total_regret, b.total_regret);
    assert_eq!(a.sets, b.sets);
}

#[test]
fn theorem2_factor_is_finite_on_generated_cities_with_big_demands() {
    // For advertisers demanding more than any single board delivers
    // (ψ < 1), the bound must be finite and ≥ 1.
    let city = NycConfig::test_scale().generate();
    let model = city.coverage(100.0);
    let advertisers = AdvertiserSet::new(vec![Advertiser::new(model.supply(), 100.0)]);
    let instance = Instance::new(&model, &advertisers, 1.0);
    let rho = theory::approximation_factor(&instance, AdvertiserId(0), 0.0);
    assert!(rho >= 1.0);
    assert!(rho.is_finite());
}

#[test]
fn market_simulation_over_generated_city() {
    let city = SgConfig::test_scale().generate();
    let model = city.coverage(100.0);
    let generator = ProposalGenerator {
        supply: model.supply(),
        p_avg: 0.08,
        arrivals_per_day: (1, 4),
        duration_days: (1, 5),
        seed: 12,
    };
    let config = MarketConfig {
        days: 15,
        gamma: 0.5,
    };
    let ledger = MarketSim::new(&model).run(&generator, &GGlobal, config);
    assert_eq!(ledger.days.len(), 15);
    assert!(ledger.total_collected() <= ledger.total_committed() + 1e-9);
    assert!(
        ledger.total_collected() > 0.0,
        "a 15-day market should bank something"
    );
    for d in &ledger.days {
        assert!(d.utilization() <= 1.0);
    }
}
