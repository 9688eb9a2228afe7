//! Exact brute-force solver for tiny instances.
//!
//! MROAM is NP-hard (Section 4), so exhaustive enumeration is the only way
//! to obtain certified optima; we use it to measure the heuristics' gaps on
//! small instances and to validate the N3DM reduction. Every billboard has
//! `|A| + 1` choices (one per advertiser, or unassigned), enumerated by
//! depth-first search with backtracking over a shared [`Allocation`].
//! Only the instance's available billboards are enumerated, in ascending
//! id order.

use crate::allocation::Allocation;
use crate::instance::Instance;
use crate::solver::{Solution, Solver};
use mroam_data::{AdvertiserId, BillboardId};

/// Exhaustive `(|A|+1)^|U|` search. Refuses instances whose state count
/// exceeds [`ExactSolver::max_states`].
#[derive(Debug, Clone, Copy)]
pub struct ExactSolver {
    /// Upper bound on `(|A|+1)^|U|`; the solver panics above it rather than
    /// running for hours.
    pub max_states: u64,
}

impl Default for ExactSolver {
    fn default() -> Self {
        Self {
            max_states: 50_000_000,
        }
    }
}

impl ExactSolver {
    fn state_count(&self, n_billboards: usize, n_advertisers: usize) -> Option<u64> {
        let base = n_advertisers as u64 + 1;
        let mut total = 1u64;
        for _ in 0..n_billboards {
            total = total.checked_mul(base)?;
            if total > self.max_states {
                return None;
            }
        }
        Some(total)
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "Exact"
    }

    fn solve(&self, instance: &Instance<'_>) -> Solution {
        let billboards: Vec<BillboardId> = instance.available_ids().collect();
        let n_a = instance.advertisers.len();
        assert!(
            self.state_count(billboards.len(), n_a).is_some(),
            "instance too large for exhaustive search: ({}+1)^{} states exceeds {}",
            n_a,
            billboards.len(),
            self.max_states
        );

        let mut alloc = Allocation::new(*instance);
        let mut best: Option<Solution> = None;
        search(&mut alloc, &billboards, n_a, &mut best);
        best.expect("at least the empty deployment is enumerated")
    }
}

/// Enumerates every choice for `billboards[0]`, recursing on the rest.
fn search(
    alloc: &mut Allocation<'_>,
    billboards: &[BillboardId],
    n_advertisers: usize,
    best: &mut Option<Solution>,
) {
    let Some((&b, rest)) = billboards.split_first() else {
        let better = best
            .as_ref()
            .is_none_or(|b| alloc.total_regret() < b.total_regret);
        if better {
            *best = Some(alloc.to_solution());
        }
        return;
    };
    // Choice 0: leave b unassigned.
    search(alloc, rest, n_advertisers, best);
    // Choices 1..=|A|: assign b to advertiser i.
    for i in 0..n_advertisers {
        let a = AdvertiserId::from_index(i);
        alloc.assign(b, a);
        search(alloc, rest, n_advertisers, best);
        alloc.release(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::bls::Bls;
    use crate::greedy::{GGlobal, GOrder};
    use crate::testutil::disjoint_model;

    #[test]
    fn exact_solves_example1_to_zero() {
        let model = disjoint_model(&[2, 6, 3, 7, 1, 1]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(5, 10.0),
            Advertiser::new(7, 11.0),
            Advertiser::new(8, 20.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let sol = ExactSolver::default().solve(&inst);
        sol.assert_disjoint();
        assert_eq!(sol.total_regret, 0.0);
        // Strategy 2 influences: 5, 7, 8.
        let mut infl = sol.influences.clone();
        infl.sort_unstable();
        assert_eq!(infl, vec![5, 7, 8]);
    }

    #[test]
    fn exact_lower_bounds_every_heuristic() {
        let model = disjoint_model(&[4, 3, 3, 2, 1]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(6, 7.0), Advertiser::new(5, 9.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let opt = ExactSolver::default().solve(&inst).total_regret;
        for sol in [
            GOrder.solve(&inst),
            GGlobal.solve(&inst),
            crate::als::Als::default().solve(&inst),
            Bls::default().solve(&inst),
        ] {
            assert!(
                sol.total_regret >= opt - 1e-9,
                "heuristic beat the certified optimum"
            );
        }
    }

    #[test]
    fn exact_prefers_leaving_billboards_unassigned() {
        // Demand 2 but only an influence-10 billboard: assigning it causes
        // excessive regret 10·8/2 = 40 > unassigned regret 10·(1−0) = 10.
        let model = disjoint_model(&[10]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(2, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.0);
        let sol = ExactSolver::default().solve(&inst);
        assert_eq!(sol.n_assigned(), 0);
        assert_eq!(sol.total_regret, 10.0);
    }

    #[test]
    fn masked_exact_matches_the_copied_instance() {
        let model = mroam_influence::CoverageModel::from_lists(
            vec![vec![0, 1], vec![1, 2], vec![3, 4, 5], vec![2, 3], vec![6]],
            7,
        );
        let advs = AdvertiserSet::new(vec![Advertiser::new(3, 5.0), Advertiser::new(2, 4.0)]);
        let avail = crate::testutil::ids(&[0, 2, 3]);
        let copy = crate::testutil::copied_submodel(&model, &avail);
        let masked =
            ExactSolver::default().solve(&Instance::new(&model, &advs, 0.5).with_available(&avail));
        let want = ExactSolver::default().solve(&Instance::new(&copy, &advs, 0.5));
        let mapped: Vec<Vec<BillboardId>> = want
            .sets
            .iter()
            .map(|set| set.iter().map(|b| avail[b.index()]).collect())
            .collect();
        assert_eq!(masked.sets, mapped);
        assert_eq!(masked.influences, want.influences);
        assert_eq!(masked.total_regret.to_bits(), want.total_regret.to_bits());
    }

    #[test]
    fn exact_on_empty_instance() {
        let model = disjoint_model(&[]);
        let advs = AdvertiserSet::default();
        let inst = Instance::new(&model, &advs, 0.5);
        let sol = ExactSolver::default().solve(&inst);
        assert_eq!(sol.total_regret, 0.0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exact_refuses_oversized_instances() {
        let model = disjoint_model(&[1; 30]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(1, 1.0); 5]);
        let inst = Instance::new(&model, &advs, 0.5);
        let _ = ExactSolver { max_states: 1000 }.solve(&inst);
    }
}
