//! Randomized local search with the billboard-driven neighbourhood
//! (Algorithm 5 — the paper's **BLS**).
//!
//! BLS explores a finer-grained neighbourhood than ALS with four moves:
//!
//! 1. exchange a billboard of one advertiser with a billboard of another
//!    (lines 5.4–5.6),
//! 2. replace an assigned billboard with an unassigned one (lines 5.7–5.8),
//! 3. release an assigned billboard (lines 5.9–5.10),
//! 4. allocate unassigned billboards by re-running synchronous greedy and
//!    keeping the result only if it improves (lines 5.11–5.13).
//!
//! The [`Bls::improvement_ratio`] knob implements the `(1+r)` threshold of
//! Definition 6.1: a move is accepted only if it improves the regret by more
//! than `r` relative to the current total, which is what Theorem 2's
//! `max[(1 + r|U|), (1 − ψ)^{−|U|}]` approximation bound for the dual
//! objective `R'` assumes. `r = 0` (any strict improvement) is the default
//! and what the paper's experiments use.

use crate::allocation::Allocation;
use crate::als::{random_seed_assignment, IMPROVEMENT_EPS};
use crate::greedy::{synchronous_greedy, synchronous_greedy_naive};
use crate::instance::Instance;
use crate::moves::MoveEngine;
use crate::solver::{Solution, Solver};
use mroam_data::{AdvertiserId, BillboardId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// The paper's **BLS**: randomized restarts + billboard-driven local search.
#[derive(Debug, Clone, Copy)]
pub struct Bls {
    /// Number of random restarts (the framework of Algorithm 3, with the
    /// billboard-driven neighbourhood in place of the advertiser-driven one).
    pub restarts: usize,
    /// RNG seed; runs are deterministic given the seed.
    pub seed: u64,
    /// The `r` of Definition 6.1: moves must improve the total regret by
    /// more than `r · R(S)` to be accepted. `0.0` accepts any strict
    /// improvement.
    pub improvement_ratio: f64,
    /// Run restarts on the rayon pool (on by default, identical results;
    /// see [`crate::als::Als::parallel`]).
    pub parallel: bool,
    /// Use the naive from-scratch scans instead of the incremental
    /// [`MoveEngine`] for moves 1–3 and the lazy
    /// [`GainEngine`](crate::gain::GainEngine) for the greedy completions.
    /// Results are bit-identical either way; the flag exists for
    /// equivalence tests and benches.
    pub naive_scan: bool,
}

impl Default for Bls {
    fn default() -> Self {
        Self {
            restarts: 10,
            seed: 0x5EED,
            improvement_ratio: 0.0,
            parallel: true,
            naive_scan: false,
        }
    }
}

impl Bls {
    /// The acceptance threshold for the current regret level: a move's
    /// (negative) regret delta must be below `-threshold` to be committed.
    pub(crate) fn threshold(&self, current_regret: f64) -> f64 {
        IMPROVEMENT_EPS.max(self.improvement_ratio * current_regret.max(0.0))
    }

    /// The synchronous-greedy completion honouring [`Self::naive_scan`].
    fn run_greedy(&self, alloc: &mut Allocation<'_>) {
        if self.naive_scan {
            synchronous_greedy_naive(alloc);
        } else {
            synchronous_greedy(alloc);
        }
    }

    fn one_restart(&self, instance: &Instance<'_>, restart_index: usize) -> Solution {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (restart_index as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let mut alloc = Allocation::new(*instance);
        random_seed_assignment(&mut alloc, &mut rng);
        self.run_greedy(&mut alloc);
        billboard_local_search(&mut alloc, self);
        alloc.to_solution()
    }
}

impl Solver for Bls {
    fn name(&self) -> &'static str {
        "BLS"
    }

    fn solve(&self, instance: &Instance<'_>) -> Solution {
        let mut best = {
            let mut alloc = Allocation::new(*instance);
            self.run_greedy(&mut alloc);
            billboard_local_search(&mut alloc, self);
            alloc.to_solution()
        };

        let better = |cand: Solution, best: &mut Solution| {
            if cand.total_regret < best.total_regret - IMPROVEMENT_EPS {
                *best = cand;
            }
        };

        if self.parallel {
            if let Some(cand) = (0..self.restarts)
                .into_par_iter()
                .map(|r| self.one_restart(instance, r))
                .min_by(|a, b| a.total_regret.total_cmp(&b.total_regret))
            {
                better(cand, &mut best);
            }
        } else {
            for r in 0..self.restarts {
                let cand = self.one_restart(instance, r);
                better(cand, &mut best);
            }
        }
        best
    }
}

/// Algorithm 5's inner loop, run in place until a full pass over all four
/// moves yields no accepted move. Dispatches between the incremental
/// [`MoveEngine`] scans (default) and the naive from-scratch scans
/// ([`Bls::naive_scan`]); the two commit bit-identical move sequences.
pub fn billboard_local_search(alloc: &mut Allocation<'_>, params: &Bls) {
    if params.naive_scan {
        loop {
            let before = alloc.total_regret();
            one_pass_naive(alloc, params);
            if alloc.total_regret() >= before - params.threshold(before) {
                return;
            }
        }
    } else {
        let mut engine = MoveEngine::new(alloc);
        loop {
            let before = alloc.total_regret();
            one_pass_engine(alloc, params, &mut engine);
            // The engine is the only observer of this allocation's event
            // log, so the drained prefix can be compacted away — without
            // this the log grows unboundedly over a long run.
            let cursor = engine.sync(alloc);
            alloc.compact_events(cursor);
            if alloc.total_regret() >= before - params.threshold(before) {
                return;
            }
        }
    }
}

/// One pass of moves 1–4 over every advertiser, naive scans.
///
/// The acceptance threshold is a pure function of the total regret, which
/// only changes when a move commits — so it is computed once per commit
/// (here) rather than once per candidate scan (the finders take it as a
/// parameter).
fn one_pass_naive(alloc: &mut Allocation<'_>, params: &Bls) {
    let n = alloc.n_advertisers();
    let mut threshold = params.threshold(alloc.total_regret());
    for i in 0..n {
        let a = AdvertiserId::from_index(i);
        // Move 1: cross-advertiser exchanges (lines 5.4–5.6).
        for j in 0..n {
            if i == j {
                continue;
            }
            let b_adv = AdvertiserId::from_index(j);
            while let Some((m, x)) = naive_find_improving_cross_swap(alloc, a, b_adv, threshold) {
                alloc.cross_swap(m, x);
                threshold = params.threshold(alloc.total_regret());
            }
        }
        // Move 2: replace an assigned billboard with a free one (5.7–5.8).
        while let Some((m, f)) = naive_find_improving_free_swap(alloc, a, threshold) {
            alloc.replace_with_free(m, f);
            threshold = params.threshold(alloc.total_regret());
        }
        // Move 3: release (5.9–5.10).
        while let Some(m) = naive_find_improving_release(alloc, a, threshold) {
            alloc.release(m);
            threshold = params.threshold(alloc.total_regret());
        }
    }
    // Move 4: allocate unassigned billboards via synchronous greedy, keeping
    // the result only if it improves (5.11–5.13). Cloning the whole
    // allocation is the expensive part, so skip it when the completion
    // provably cannot change the regret.
    if greedy_completion_can_help(alloc) {
        let mut candidate = alloc.clone();
        params.run_greedy(&mut candidate);
        if candidate.total_regret() < alloc.total_regret() - threshold {
            *alloc = candidate;
        }
    }
}

/// One pass of moves 1–4 through the [`MoveEngine`] — the same move
/// sequence as [`one_pass_naive`], with scans pruned by the engine's
/// certificates, cached marginals and best-case bounds.
fn one_pass_engine(alloc: &mut Allocation<'_>, params: &Bls, engine: &mut MoveEngine) {
    let n = alloc.n_advertisers();
    let mut threshold = params.threshold(alloc.total_regret());
    for i in 0..n {
        let a = AdvertiserId::from_index(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let b_adv = AdvertiserId::from_index(j);
            while let Some((m, x)) = engine.find_improving_cross_swap(alloc, a, b_adv, threshold) {
                alloc.cross_swap(m, x);
                threshold = params.threshold(alloc.total_regret());
            }
        }
        while let Some((m, f)) = engine.find_improving_free_swap(alloc, a, threshold) {
            alloc.replace_with_free(m, f);
            threshold = params.threshold(alloc.total_regret());
        }
        while let Some(m) = engine.find_improving_release(alloc, a, threshold) {
            alloc.release(m);
            threshold = params.threshold(alloc.total_regret());
        }
    }
    if greedy_completion_can_help(alloc) {
        // Fork the move-4 candidate with an *empty* event log whose base
        // continues the parent's cursor: the clone skips copying the log,
        // and if it is adopted below the engine — fully drained at this
        // point — picks up exactly the completion's events.
        let fork = engine.sync(alloc);
        debug_assert_eq!(fork, alloc.event_cursor());
        let mut candidate = alloc.scratch_clone();
        params.run_greedy(&mut candidate);
        if candidate.total_regret() < alloc.total_regret() - threshold {
            *alloc = candidate;
        }
    }
}

/// Whether the move-4 greedy completion could possibly beat the current
/// allocation. With no unsatisfied advertiser the completion assigns
/// nothing. With exactly one, it only ever *adds* billboards to that
/// advertiser (the release branch needs two unsatisfied), so zero marginal
/// gain everywhere means the regret cannot move. With two or more, the
/// victim-release branch can improve things even when every free billboard
/// has zero gain, so the clone is always worth attempting.
fn greedy_completion_can_help(alloc: &Allocation<'_>) -> bool {
    if alloc.free_billboards().is_empty() {
        return false;
    }
    let mut unsatisfied = (0..alloc.n_advertisers())
        .map(AdvertiserId::from_index)
        .filter(|&a| !alloc.is_satisfied(a));
    let Some(first) = unsatisfied.next() else {
        return false;
    };
    if unsatisfied.next().is_some() {
        return true;
    }
    alloc
        .free_billboards()
        .iter()
        .any(|&b| alloc.marginal_gain(first, b) > 0)
}

/// First (billboard-of-`a`, billboard-of-`b`) pair whose exchange beats the
/// acceptance threshold, if any. The from-scratch reference scan the
/// [`MoveEngine`] is property-tested against.
pub(crate) fn naive_find_improving_cross_swap(
    alloc: &Allocation<'_>,
    a: AdvertiserId,
    b: AdvertiserId,
    threshold: f64,
) -> Option<(BillboardId, BillboardId)> {
    for &m in alloc.set_of(a) {
        for &x in alloc.set_of(b) {
            if alloc.eval_cross_swap(m, x) < -threshold {
                return Some((m, x));
            }
        }
    }
    None
}

/// First (assigned, free) pair whose replacement beats the threshold.
pub(crate) fn naive_find_improving_free_swap(
    alloc: &Allocation<'_>,
    a: AdvertiserId,
    threshold: f64,
) -> Option<(BillboardId, BillboardId)> {
    for &m in alloc.set_of(a) {
        for &f in alloc.free_billboards() {
            if alloc.eval_replace_with_free(m, f) < -threshold {
                return Some((m, f));
            }
        }
    }
    None
}

/// First assigned billboard whose release beats the threshold.
pub(crate) fn naive_find_improving_release(
    alloc: &Allocation<'_>,
    a: AdvertiserId,
    threshold: f64,
) -> Option<BillboardId> {
    alloc
        .set_of(a)
        .iter()
        .copied()
        .find(|&m| alloc.eval_release(m) < -threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::greedy::GGlobal;
    use crate::testutil::{disjoint_model, ids};
    use mroam_influence::CoverageModel;

    /// Example 3 of the paper: exchanging whole plans makes things worse,
    /// but exchanging single billboards reaches zero regret. Built with
    /// x = 5: o1 covers {t0..t3} (4 trips), o2 covers {t0..t2, t4}, o3
    /// covers {t4, t5}; a1 demands 5 pays 5, a2 demands 4 pays 4.
    fn example3() -> (CoverageModel, AdvertiserSet) {
        let x = 5u32;
        let o1: Vec<u32> = (0..x - 1).collect(); // t0..t3
        let o2: Vec<u32> = (0..x - 2).chain([x - 1]).collect(); // t0..t2, t4
        let o3: Vec<u32> = vec![x - 1, x]; // t4, t5
        let model = CoverageModel::from_lists(vec![o1, o2, o3], (x + 1) as usize);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(x as u64, x as f64),
            Advertiser::new((x - 1) as u64, (x - 1) as f64),
        ]);
        (model, advs)
    }

    #[test]
    fn example3_cross_swap_reaches_zero_regret() {
        let (model, advs) = example3();
        let inst = Instance::new(&model, &advs, 0.5);
        // Start from the paper's S1 = {o1, o2}, S2 = {o3}.
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0, 1]), ids(&[2])]);
        assert_eq!(alloc.influence(AdvertiserId(0)), 5);
        assert_eq!(alloc.influence(AdvertiserId(1)), 2);
        assert!(alloc.total_regret() > 0.0);

        // The advertiser-driven exchange makes things worse...
        assert!(alloc.eval_exchange_plans(AdvertiserId(0), AdvertiserId(1)) > 0.0);
        // ...but exchanging o1 with o3 zeroes the regret, and BLS finds it.
        billboard_local_search(&mut alloc, &Bls::default());
        alloc.check_invariants();
        assert_eq!(alloc.total_regret(), 0.0);
        assert_eq!(alloc.influence(AdvertiserId(0)), 5);
        assert_eq!(alloc.influence(AdvertiserId(1)), 4);
    }

    #[test]
    fn release_move_sheds_excessive_influence() {
        // One advertiser, demand 5, holding influence 5 + 5: releasing one
        // billboard removes the excessive-influence regret.
        let model = disjoint_model(&[5, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0, 1])]);
        assert!(alloc.total_regret() > 0.0);
        billboard_local_search(&mut alloc, &Bls::default());
        assert_eq!(alloc.total_regret(), 0.0);
        assert_eq!(alloc.set_of(AdvertiserId(0)).len(), 1);
    }

    #[test]
    fn free_swap_move_finds_better_fit() {
        // Advertiser holds an overshooting billboard (8) while an exact one
        // (5) sits free.
        let model = disjoint_model(&[8, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0])]);
        billboard_local_search(&mut alloc, &Bls::default());
        assert_eq!(alloc.set_of(AdvertiserId(0)), &ids(&[1])[..]);
        assert_eq!(alloc.total_regret(), 0.0);
    }

    #[test]
    fn greedy_completion_move_allocates_leftovers() {
        // Advertiser under-satisfied with free billboards available: move 4
        // must pull them in.
        let model = disjoint_model(&[3, 3]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(6, 6.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0])]);
        billboard_local_search(&mut alloc, &Bls::default());
        assert_eq!(alloc.influence(AdvertiserId(0)), 6);
        assert_eq!(alloc.total_regret(), 0.0);
    }

    #[test]
    fn bls_never_worse_than_g_global() {
        let model = disjoint_model(&[7, 5, 4, 3, 2, 2, 1, 9, 6]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(8, 16.0),
            Advertiser::new(6, 9.0),
            Advertiser::new(5, 11.0),
            Advertiser::new(12, 20.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let greedy = GGlobal.solve(&inst);
        let bls = Bls::default().solve(&inst);
        bls.assert_disjoint();
        assert!(bls.total_regret <= greedy.total_regret + 1e-9);
    }

    #[test]
    fn bls_solves_example1_to_zero() {
        // Example 1 with Table 1 influences (2, 6, 3, 7, 1, 1): Strategy 2
        // achieves zero regret and BLS should find a zero-regret plan.
        let model = disjoint_model(&[2, 6, 3, 7, 1, 1]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(5, 10.0),
            Advertiser::new(7, 11.0),
            Advertiser::new(8, 20.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let sol = Bls::default().solve(&inst);
        assert_eq!(sol.total_regret, 0.0);
    }

    #[test]
    fn bls_is_deterministic_given_seed() {
        let model = disjoint_model(&[9, 7, 5, 3, 1, 1, 1, 2]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(10, 10.0), Advertiser::new(9, 12.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let solver = Bls {
            restarts: 4,
            seed: 123,
            ..Bls::default()
        };
        let a = solver.solve(&inst);
        let b = solver.solve(&inst);
        assert_eq!(a.total_regret, b.total_regret);
        assert_eq!(a.sets, b.sets);
    }

    #[test]
    fn parallel_restarts_match_sequential() {
        let model = disjoint_model(&[9, 7, 5, 3, 1, 1, 1, 2, 4, 8]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(10, 10.0),
            Advertiser::new(9, 12.0),
            Advertiser::new(7, 7.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let seq = Bls {
            restarts: 4,
            seed: 7,
            parallel: false,
            ..Bls::default()
        }
        .solve(&inst);
        let par = Bls {
            restarts: 4,
            seed: 7,
            parallel: true,
            ..Bls::default()
        }
        .solve(&inst);
        assert_eq!(seq.total_regret, par.total_regret);
    }

    #[test]
    fn rayon_num_threads_one_matches_default_pool() {
        // The committed move sequence must be independent of the rayon
        // pool width: every parallel scan reduces with minimum-index
        // (`position_first`) semantics, so a single-thread pool and the
        // default pool see the identical first improvement. The env var is
        // read at pool initialisation, so this test pins the *invariant*
        // on both restricted and default configurations; the
        // `parallel_scans_match_sequential` test in `moves` forces the two
        // code paths directly.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let model = disjoint_model(&[9, 7, 5, 3, 1, 1, 1, 2, 4, 8]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(10, 10.0),
            Advertiser::new(9, 12.0),
            Advertiser::new(7, 7.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let solver = Bls {
            restarts: 3,
            seed: 77,
            ..Bls::default()
        };
        let restricted = solver.solve(&inst);
        std::env::remove_var("RAYON_NUM_THREADS");
        let default_pool = solver.solve(&inst);
        assert_eq!(restricted.sets, default_pool.sets);
        assert_eq!(restricted.total_regret, default_pool.total_regret);
    }

    #[test]
    fn positive_improvement_ratio_accepts_fewer_moves() {
        // With r = 1.0 a move must halve... more than double-improve the
        // regret; local search should stop earlier (never better than r=0).
        let model = disjoint_model(&[7, 5, 4, 3, 2, 2, 1]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(8, 16.0), Advertiser::new(6, 9.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let strict = Bls {
            improvement_ratio: 1.0,
            ..Bls::default()
        }
        .solve(&inst);
        let loose = Bls::default().solve(&inst);
        assert!(loose.total_regret <= strict.total_regret + 1e-9);
    }

    #[test]
    fn local_maximum_property_of_dual_holds_for_single_advertiser() {
        // Definition 6.1 / Theorem 2: at a BLS fixpoint for one advertiser,
        // no single insertion or deletion may beat the (1+r) bound on R'.
        let model = disjoint_model(&[6, 4, 3, 2, 1]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(9, 18.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        synchronous_greedy(&mut alloc);
        let params = Bls::default();
        billboard_local_search(&mut alloc, &params);
        let r_prime = alloc.dual_revenue();
        let a = AdvertiserId(0);
        // Any single release...
        for &m in alloc.set_of(a) {
            let mut probe = alloc.clone();
            probe.release(m);
            assert!(probe.dual_revenue() <= r_prime + IMPROVEMENT_EPS + r_prime * 1e-12);
        }
        // ...or single insertion must not improve R' (r = 0 here because the
        // objectives are tied through regret improvements at γ-independent
        // points; the weaker sanity check is that regret does not improve).
        for &f in alloc.free_billboards() {
            let mut probe = alloc.clone();
            probe.assign(f, a);
            assert!(probe.total_regret() >= alloc.total_regret() - IMPROVEMENT_EPS);
        }
    }
    #[test]
    fn greedy_completion_skip_is_exact() {
        // o0 covers {t0, t1}; o1 covers {t0} (a strict subset); o2 is empty.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![0], vec![]], 2);

        // One unsatisfied advertiser already holding o0: every free
        // billboard has zero marginal gain, so the move-4 clone is futile.
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let alloc = Allocation::from_sets(inst, &[ids(&[0])]);
        assert!(!alloc.is_satisfied(AdvertiserId(0)));
        assert!(!greedy_completion_can_help(&alloc));

        // Same pool, but a positive-gain free billboard exists.
        let open = Allocation::new(inst);
        assert!(greedy_completion_can_help(&open));

        // Two unsatisfied advertisers: the release branch of Algorithm 2
        // can reshuffle plans even with zero-gain free billboards.
        let advs2 = AdvertiserSet::new(vec![Advertiser::new(5, 10.0), Advertiser::new(4, 2.0)]);
        let inst2 = Instance::new(&model, &advs2, 0.5);
        let alloc2 = Allocation::from_sets(inst2, &[ids(&[0]), vec![]]);
        assert!(greedy_completion_can_help(&alloc2));

        // No free billboards at all: nothing to complete with.
        let model3 = disjoint_model(&[2]);
        let inst3 = Instance::new(&model3, &advs, 0.5);
        let full = Allocation::from_sets(inst3, &[ids(&[0])]);
        assert!(!greedy_completion_can_help(&full));
    }
}
