//! Cross-epoch warm-start entry points for the streaming pipeline.
//!
//! When `mroam-stream` applies a delta to the coverage model, the previous
//! epoch's allocation does not become garbage: influence `I(S_a)` depends
//! only on the coverage lists of the billboards *in* `S_a`, so advertisers
//! whose sets avoid every changed billboard keep their exact influence and
//! regret. This module is the solver-side cache-invalidation layer built
//! on that fact:
//!
//! * [`solution_carries_over`] — the O(|S| log |changed|) fast path: when
//!   no assigned billboard changed coverage, the previous solution's
//!   metrics are *provably* exact on the new epoch and no solver runs at
//!   all (the `GainEngine`/`MoveEngine` caches a re-solve would rebuild
//!   are never touched);
//! * [`warm_g_global`] / [`warm_bls`] — warm re-solves seeded from the
//!   previous sets instead of an empty allocation, so the per-advertiser
//!   influence counters, the gain engine's zero-overlap sets, and the
//!   move engine's marginal-loss caches are rebuilt once from a
//!   near-optimal state rather than re-derived through a full cold solve;
//! * [`warm_solve`] — the [`SolverSpec`]-driven dispatcher `mroam-serve`
//!   calls after an epoch swap (falls back to a cold solve for solvers
//!   without a warm path).
//!
//! **Exactness on an unchanged model** (the property the stream crate's
//! epoch-equivalence tests pin): re-running a warm start on the very model
//! that produced `prev` returns a solution with identical regret. For
//! G-Global this holds because the warm run preserves the cold run's
//! line-2.10 release decisions (released advertisers re-enter inactive)
//! and the cold terminal state is a fixed point of the service loop; for
//! BLS because a local optimum admits no improving move, so the search
//! exits on its first pass.

use crate::allocation::Allocation;
use crate::bls::{billboard_local_search, Bls};
use crate::greedy::synchronous_greedy_from;
use crate::instance::Instance;
use crate::solver::{Solution, SolverSpec};
use mroam_data::BillboardId;

/// Whether `prev`'s metrics provably carry over to an epoch whose changed
/// billboards (coverage list grew, emptied, or appeared — sorted ids, as
/// produced by `CoverageDelta::changed_billboards`) are `changed`.
///
/// True iff no assigned billboard is in `changed`: every `I(S_a)` is then
/// computed over identical coverage lists, so influences, regrets, and the
/// breakdown are all still exact — the allocation remains valid and
/// correctly priced, though fresh inventory may of course admit a better
/// one.
pub fn solution_carries_over(prev: &Solution, changed: &[u32]) -> bool {
    prev.sets
        .iter()
        .flatten()
        .all(|b| changed.binary_search(&b.0).is_err())
}

/// Projects previous-epoch sets onto the new instance: drops any billboard
/// the instance does not make available, and any that no longer
/// influences anyone (retired billboards have empty coverage lists; their
/// ids stay valid but holding them is pointless). Dropping a
/// zero-influence billboard never changes `I(S_a)` or regret.
pub fn carried_sets(instance: &Instance<'_>, prev: &[Vec<BillboardId>]) -> Vec<Vec<BillboardId>> {
    prev.iter()
        .map(|set| {
            set.iter()
                .copied()
                .filter(|&b| instance.is_available(b) && instance.model.influence_of(b) > 0)
                .collect()
        })
        .collect()
}

/// G-Global warm-started from the previous epoch's sets: seeds the
/// allocation with [`carried_sets`] and re-enters the synchronous service
/// loop with previously-released advertisers (empty sets) kept inactive.
pub fn warm_g_global(instance: &Instance<'_>, prev: &[Vec<BillboardId>]) -> Solution {
    let sets = carried_sets(instance, prev);
    let mut alloc = Allocation::from_sets(*instance, &sets);
    // Activity is judged on the *previous* sets: an advertiser whose
    // billboards all retired did not choose release and may re-acquire.
    let active = prev.iter().map(|s| !s.is_empty()).collect();
    synchronous_greedy_from(&mut alloc, active);
    alloc.to_solution()
}

/// BLS warm-started from the previous epoch's sets: one local-search
/// descent from the carried allocation instead of `restarts + 1` cold
/// descents from scratch. `params` supplies the acceptance threshold and
/// scan mode; its restart budget is ignored (the carried solution *is*
/// the restart).
pub fn warm_bls(instance: &Instance<'_>, prev: &[Vec<BillboardId>], params: &Bls) -> Solution {
    let sets = carried_sets(instance, prev);
    let mut alloc = Allocation::from_sets(*instance, &sets);
    billboard_local_search(&mut alloc, params);
    alloc.to_solution()
}

/// Warm-start dispatcher for a [`SolverSpec`]: G-Global and BLS re-solve
/// warm from `prev`; the remaining solvers (G-Order's serve order and
/// ALS/exact's restart framework don't preserve prior decisions cleanly)
/// fall back to a cold solve. `mroam-serve` calls this after every epoch
/// swap whose delta touched the live allocation.
pub fn warm_solve(
    instance: &Instance<'_>,
    prev: &[Vec<BillboardId>],
    spec: &SolverSpec,
) -> Solution {
    match spec.name {
        "g-global" => warm_g_global(instance, prev),
        "bls" => warm_bls(
            instance,
            prev,
            &Bls {
                restarts: 0,
                seed: spec.seed,
                improvement_ratio: spec.improvement_ratio,
                parallel: spec.parallel,
                naive_scan: false,
            },
        ),
        _ => spec.build().solve(instance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::greedy::GGlobal;
    use crate::solver::Solver;
    use crate::testutil::disjoint_model;
    use mroam_influence::CoverageModel;

    fn advs(specs: &[(u64, f64)]) -> AdvertiserSet {
        AdvertiserSet::new(specs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect())
    }

    #[test]
    fn carry_over_detects_intersection() {
        let sol = Solution {
            sets: vec![vec![BillboardId(1), BillboardId(4)], vec![]],
            influences: vec![3, 0],
            total_regret: 1.0,
            breakdown: Default::default(),
        };
        assert!(solution_carries_over(&sol, &[0, 2, 3]));
        assert!(!solution_carries_over(&sol, &[4, 7]));
        assert!(solution_carries_over(&sol, &[]));
    }

    #[test]
    fn warm_g_global_is_exact_on_unchanged_model() {
        // Scarcity forces a release: supply 10, demand 20. The warm re-run
        // must keep the victim released and reproduce the cold solution.
        let model = disjoint_model(&[5, 5]);
        let a = advs(&[(10, 30.0), (10, 10.0)]);
        let inst = Instance::new(&model, &a, 0.0);
        let cold = GGlobal.solve(&inst);
        let warm = warm_g_global(&inst, &cold.sets);
        assert_eq!(warm.sets, cold.sets);
        assert_eq!(warm.influences, cold.influences);
        assert_eq!(warm.total_regret, cold.total_regret);
    }

    #[test]
    fn warm_bls_is_no_op_on_its_own_output() {
        let model = disjoint_model(&[2, 6, 3, 7, 1, 1]);
        let a = advs(&[(5, 10.0), (7, 11.0), (8, 20.0)]);
        let inst = Instance::new(&model, &a, 0.5);
        let params = Bls {
            restarts: 2,
            ..Bls::default()
        };
        let cold = params.solve(&inst);
        let warm = warm_bls(&inst, &cold.sets, &params);
        assert_eq!(warm.total_regret, cold.total_regret);
        assert_eq!(warm.influences, cold.influences);
    }

    #[test]
    fn warm_solve_falls_back_to_cold_for_g_order() {
        let model = disjoint_model(&[4, 4]);
        let a = advs(&[(4, 8.0)]);
        let inst = Instance::new(&model, &a, 0.5);
        let spec = SolverSpec::by_name("g-order").unwrap();
        let cold = spec.build().solve(&inst);
        let warm = warm_solve(&inst, &[vec![]], &spec);
        assert_eq!(warm.total_regret, cold.total_regret);
    }

    #[test]
    fn carried_sets_drop_retired_billboards() {
        // Billboard 1 "retired": empty coverage list.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![], vec![2]], 3);
        let a = advs(&[(2, 4.0)]);
        let inst = Instance::new(&model, &a, 0.5);
        let prev = vec![vec![BillboardId(0), BillboardId(1), BillboardId(2)]];
        let sets = carried_sets(&inst, &prev);
        assert_eq!(sets, vec![vec![BillboardId(0), BillboardId(2)]]);
        // Dropping it leaves the warm metrics identical to keeping it.
        let warm = warm_g_global(&inst, &prev);
        assert_eq!(warm.influences[0], 3);
    }

    #[test]
    fn carried_sets_drop_masked_out_billboards() {
        let model = disjoint_model(&[3, 3, 3, 3]);
        let a = advs(&[(6, 4.0), (3, 2.0)]);
        let avail = crate::testutil::ids(&[1, 3]);
        let inst = Instance::new(&model, &a, 0.5).with_available(&avail);
        let prev = vec![
            vec![BillboardId(0), BillboardId(1)],
            vec![BillboardId(2), BillboardId(3)],
        ];
        let sets = carried_sets(&inst, &prev);
        assert_eq!(sets, vec![vec![BillboardId(1)], vec![BillboardId(3)]]);
        // A warm solve over the mask equals one over the copy, mapped.
        let copy = crate::testutil::copied_submodel(&model, &avail);
        let copy_inst = Instance::new(&copy, &a, 0.5);
        let copy_prev = vec![vec![BillboardId(0)], vec![BillboardId(1)]];
        let warm = warm_g_global(&inst, &prev);
        let want = warm_g_global(&copy_inst, &copy_prev);
        assert_eq!(warm.influences, want.influences);
        assert_eq!(warm.total_regret.to_bits(), want.total_regret.to_bits());
    }

    #[test]
    fn warm_g_global_picks_up_new_inventory() {
        // Epoch 1: one billboard of influence 4 for a demand of 8 → regret.
        // Epoch 2 adds a second influence-4 billboard; the warm re-solve
        // must grab it and reach zero regret without restarting.
        let model2 = disjoint_model(&[4, 4]);
        let a = advs(&[(8, 8.0)]);
        let inst2 = Instance::new(&model2, &a, 0.5);
        let prev = vec![vec![BillboardId(0)]];
        let warm = warm_g_global(&inst2, &prev);
        assert_eq!(warm.influences[0], 8);
        assert_eq!(warm.total_regret, 0.0);
        assert!(warm.sets[0].contains(&BillboardId(0)), "seed kept");
    }
}
