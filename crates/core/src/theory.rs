//! The Section 6.3 approximation theory, made executable.
//!
//! Theorem 2: on the rewired maximisation objective `R'` (Equation 2), BLS
//! returns a `(1 + r)`-approximate local maximum `S` (Definition 6.1), and
//! any plan `V` satisfies
//!
//! ```text
//! R'(V) ≤ max[(1 + r·|U|), (1 − ψ)^{−|U|}] · R'(S)      (Lemma 6.1)
//! ```
//!
//! where `ψ = max_o I({o}) / I` is the largest single-billboard influence
//! relative to the advertiser's demand. This module computes `ψ` and the
//! bound `ρ`, and provides a checker for the Definition 6.1 local-maximum
//! property, so tests (and users) can verify the guarantee empirically on
//! solved instances rather than taking the proof on faith.

use crate::allocation::Allocation;
use crate::instance::Instance;
use mroam_data::AdvertiserId;

/// `ψ` for one advertiser: the maximum individual influence of an
/// available billboard over the advertiser's demand (clamped to 1, since a
/// single board covering more than the demand saturates the ratio the
/// analysis uses).
pub fn psi(instance: &Instance<'_>, advertiser: AdvertiserId) -> f64 {
    let demand = instance.advertisers.get(advertiser).demand as f64;
    let max_influence = instance
        .available_ids()
        .map(|b| instance.model.influence_of(b))
        .max()
        .unwrap_or(0) as f64;
    (max_influence / demand).min(1.0)
}

/// The Theorem 2 approximation factor
/// `ρ = max[(1 + r·|U|), (1 − ψ)^{−|U|}]` for one advertiser, with `U` the
/// instance's available billboards.
///
/// Returns `f64::INFINITY` when `ψ = 1` (a single board can satisfy the
/// whole demand, where the case-(b) bound degenerates — the paper's bound
/// is vacuous there).
pub fn approximation_factor(instance: &Instance<'_>, advertiser: AdvertiserId, r: f64) -> f64 {
    let n_u = instance.n_available() as f64;
    let psi_v = psi(instance, advertiser);
    let case_a = 1.0 + r * n_u;
    let case_b = if psi_v >= 1.0 {
        f64::INFINITY
    } else {
        (1.0 - psi_v).powf(-n_u)
    };
    case_a.max(case_b)
}

/// Checks Definition 6.1 on a single-advertiser deployment: `S` is a
/// `(1 + r)`-approximate local maximum of `R'` iff
/// `(1 + r)·R'(S) ≥ R'(S \ {o})` for every `o ∈ S` and
/// `(1 + r)·R'(S ∪ {o})`… i.e. `(1 + r)·R'(S) ≥ R'(S ∪ {o})` for every
/// `o ∉ S`. Returns the first violating move, if any.
pub fn check_local_maximum(
    alloc: &Allocation<'_>,
    advertiser: AdvertiserId,
    r: f64,
) -> Option<LocalMaxViolation> {
    let threshold = (1.0 + r) * alloc.dual_revenue();
    // Deletions.
    for &o in alloc.set_of(advertiser) {
        let mut probe = alloc.clone();
        probe.release(o);
        let value = probe.dual_revenue();
        if value > threshold + 1e-9 {
            return Some(LocalMaxViolation {
                billboard: o,
                insertion: false,
                dual_after: value,
                dual_at_s: alloc.dual_revenue(),
            });
        }
    }
    // Insertions (free billboards only; boards owned by other advertisers
    // are outside the single-advertiser analysis).
    for &o in alloc.free_billboards() {
        let mut probe = alloc.clone();
        probe.assign(o, advertiser);
        let value = probe.dual_revenue();
        if value > threshold + 1e-9 {
            return Some(LocalMaxViolation {
                billboard: o,
                insertion: true,
                dual_after: value,
                dual_at_s: alloc.dual_revenue(),
            });
        }
    }
    None
}

/// A concrete violation of Definition 6.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalMaxViolation {
    /// The billboard whose insertion/deletion improves `R'` beyond the
    /// `(1 + r)` threshold.
    pub billboard: mroam_data::BillboardId,
    /// `true` if inserting it violates, `false` if deleting it does.
    pub insertion: bool,
    /// `R'` after the move.
    pub dual_after: f64,
    /// `R'(S)` at the checked deployment.
    pub dual_at_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::bls::{billboard_local_search, Bls};
    use crate::exact::ExactSolver;
    use crate::greedy::synchronous_greedy;
    use crate::solver::Solver;
    use crate::testutil::disjoint_model;

    #[test]
    fn psi_is_max_influence_over_demand() {
        let model = disjoint_model(&[3, 6, 2]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(12, 12.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        assert_eq!(psi(&inst, AdvertiserId(0)), 0.5);
    }

    #[test]
    fn masked_psi_and_factor_match_the_copied_instance() {
        // The influence-9 board is masked out, so ψ and |U| come from the
        // three available boards only.
        let model = disjoint_model(&[3, 9, 2, 4, 1]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(12, 12.0)]);
        let avail = crate::testutil::ids(&[0, 2, 3]);
        let copy = crate::testutil::copied_submodel(&model, &avail);
        let masked = Instance::new(&model, &advs, 1.0).with_available(&avail);
        let reference = Instance::new(&copy, &advs, 1.0);
        let a = AdvertiserId(0);
        assert_eq!(psi(&masked, a), psi(&reference, a));
        assert_eq!(psi(&masked, a), 4.0 / 12.0);
        for r in [0.0, 0.5] {
            assert_eq!(
                approximation_factor(&masked, a, r),
                approximation_factor(&reference, a, r)
            );
        }
    }

    #[test]
    fn psi_clamps_at_one() {
        let model = disjoint_model(&[30]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(10, 10.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        assert_eq!(psi(&inst, AdvertiserId(0)), 1.0);
        assert_eq!(
            approximation_factor(&inst, AdvertiserId(0), 0.0),
            f64::INFINITY
        );
    }

    #[test]
    fn factor_combines_both_cases() {
        let model = disjoint_model(&[2, 2, 2, 2]); // ψ = 0.25 vs demand 8
        let advs = AdvertiserSet::new(vec![Advertiser::new(8, 8.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        // r = 0: case (a) = 1, case (b) = (0.75)^-4 ≈ 3.16.
        let rho0 = approximation_factor(&inst, AdvertiserId(0), 0.0);
        assert!((rho0 - 0.75f64.powi(-4)).abs() < 1e-12);
        // Large r: case (a) dominates.
        let rho_big = approximation_factor(&inst, AdvertiserId(0), 10.0);
        assert_eq!(rho_big, 1.0 + 10.0 * 4.0);
    }

    #[test]
    fn bls_fixpoint_is_a_local_maximum_at_gamma_one() {
        // At γ = 1, regret improvements and dual improvements mirror each
        // other (R + R' = L pointwise), so a BLS fixpoint must pass the
        // Definition 6.1 check with r = 0.
        let model = disjoint_model(&[6, 4, 3, 2, 1, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(11, 22.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        let mut alloc = Allocation::new(inst);
        synchronous_greedy(&mut alloc);
        billboard_local_search(&mut alloc, &Bls::default());
        assert_eq!(
            check_local_maximum(&alloc, AdvertiserId(0), 0.0),
            None,
            "BLS fixpoint must be a (1+0)-approximate local maximum"
        );
    }

    #[test]
    fn theorem2_bound_holds_against_the_optimum() {
        // Empirical Theorem 2: R'(OPT) ≤ ρ · R'(S_BLS) on certified
        // single-advertiser instances at γ = 1.
        for influences in [&[4u32, 3, 2, 2, 1][..], &[5, 5, 1, 1], &[3, 3, 3, 3]] {
            let model = disjoint_model(influences);
            let advs = AdvertiserSet::new(vec![Advertiser::new(9, 18.0)]);
            let inst = Instance::new(&model, &advs, 1.0);

            let bls_sol = Bls::default().solve(&inst);
            let opt_sol = ExactSolver::default().solve(&inst);
            let dual_of =
                |influence: u64| crate::regret::dual_revenue(advs.get(AdvertiserId(0)), influence);
            let rho = approximation_factor(&inst, AdvertiserId(0), 0.0);
            if rho.is_finite() {
                assert!(
                    dual_of(opt_sol.influences[0]) <= rho * dual_of(bls_sol.influences[0]) + 1e-9,
                    "Theorem 2 bound violated on {influences:?}: OPT dual {} vs rho {} * BLS dual {}",
                    dual_of(opt_sol.influences[0]),
                    rho,
                    dual_of(bls_sol.influences[0]),
                );
            }
        }
    }

    #[test]
    fn violation_is_reported_for_a_bad_plan() {
        // An empty plan with satisfiable demand: inserting any billboard
        // improves R' from 0, violating the local-maximum property.
        let model = disjoint_model(&[5, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(10, 10.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        let alloc = Allocation::new(inst);
        let violation = check_local_maximum(&alloc, AdvertiserId(0), 0.0)
            .expect("empty plan cannot be a local maximum");
        assert!(violation.insertion);
        assert!(violation.dual_after > violation.dual_at_s);
    }
}
