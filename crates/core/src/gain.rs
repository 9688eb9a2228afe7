//! The lazy marginal-gain engine behind every greedy selection.
//!
//! All four paper algorithms funnel through the Algorithm 1/2 selection
//! rule `argmax_o ΔR(S_a, o)/I({o})`. The naive implementation
//! ([`best_billboard_for`](crate::greedy::best_billboard_for)) rescans every
//! free billboard with a fresh O(|cov(o)|) counter walk per candidate, on
//! every assignment. [`GainEngine`] replaces that with a selection rule
//! built on one structural fact of Eq. 1: in the *safe regime*
//! (`I(S_a) + gain < demand`) the score is `L·γ·gain/(d·I({o}))`, so a
//! candidate sharing **no** trajectory with the advertiser's plan has
//! `gain = I({o})` and an O(1) exact score, while an overlapped safe
//! candidate (`gain ≤ I({o}) − 1`) scores *strictly* below every
//! zero-overlap safe candidate and can be skipped without evaluation.
//!
//! * **Zero-overlap tracking via the billboard overlap graph.** Whether a
//!   candidate's marginal gain equals its full individual influence only
//!   depends on *whether* it shares a trajectory with the plan, never on
//!   how many meets — so the engine keeps, per advertiser, one counter per
//!   billboard: how many plan members are
//!   [`OverlapGraph`](mroam_influence::OverlapGraph) neighbours. Tailing
//!   the allocation's [`event log`](crate::allocation::AllocEvent), each
//!   own-move costs O(deg) counter bumps — no per-trajectory fan-out, no
//!   per-candidate rescore.
//! * **O(1) scoring pass.** A query walks the instance's available
//!   billboards once (every id, or the availability list in ascending
//!   order): owned and zero-influence candidates are skipped;
//!   zero-overlap candidates fold their exact score (`gain = I({o})`
//!   plugged into the same [`Allocation::regret_decrease_of_gain`] closed
//!   form the naive scan evaluates, valid on both sides of the demand
//!   boundary); overlapped candidates are deferred.
//! * **Exact deferred evaluation where laziness is unsound.** A deferred
//!   candidate needs its true gain in two cases: it could cross the demand
//!   boundary (`I({o}) ≥ demand − I(S_a)`, where Eq. 1 switches branches
//!   and the strict-domination argument no longer applies), or no safe
//!   zero-overlap candidate with a positive score exists to dominate it
//!   (e.g. `γ = 0` ties everything at 0, which the naive scan breaks by
//!   smallest id). Those get their exact gain as a popcount intersection
//!   of the model's [`CoverageBitmap`](mroam_influence::CoverageBitmap)
//!   row against a maintained covered-trajectory bitset (same integer a
//!   counter walk yields, in `⌈|T|/64⌉` word ops), falling back to real
//!   coverage walks when the bitmap is over budget. Non-submodular
//!   measures (`Impressions{k ≥ 2}`, where a zero-overlap gain is *not*
//!   `I({o})`) disable laziness entirely and use the exact scan; Volume's
//!   gains never depend on overlap, so every candidate scores in O(1).
//!
//! Every scan is sequential: a candidate costs a few nanoseconds, less
//! than the wake-up a fan-out over the pool would cost (DESIGN.md §10).
//!
//! The engine returns **bit-identical** picks to the naive scan. Every
//! folded score is produced by the same float expression the naive scan
//! computes (never algebraically rearranged), and the only candidates
//! skipped without evaluation are overlapped safe ones while a positive
//! zero-overlap safe score exists — strict domination survives rounding
//! because the two expressions share every factor except the gain, and
//! `gain/I ≤ 1 − 1/I` leaves a relative margin astronomically wider than
//! the accumulated ulps (see `best_billboard`). Ties therefore resolve
//! identically, toward the smaller billboard id.

use crate::allocation::{AllocEvent, Allocation};
use mroam_data::{AdvertiserId, BillboardId};

/// Per-advertiser lazy state: one overlap counter per billboard, allocated
/// on first query (many advertisers are never queried).
#[derive(Debug, Default)]
struct AdvState {
    seeded: bool,
    /// How many members of this advertiser's plan share ≥ 1 trajectory
    /// with each billboard (the billboard itself excluded). Zero means the
    /// billboard's marginal gain is exactly its individual influence.
    adj_cnt: Vec<u32>,
    /// Bitset of the trajectories this advertiser's plan covers,
    /// word-aligned to the model's
    /// [`CoverageBitmap`](mroam_influence::CoverageBitmap) rows (empty when
    /// the bitmap is over budget), so a deferred candidate's exact gain is
    /// `I({o}) − popcount(row(o) ∧ covered)`. Bits mirror the allocation's
    /// own per-trajectory counters rather than duplicating them.
    covered: Vec<u64>,
    /// Scratch: overlapped candidates deferred by the O(1) pass.
    deferred: Vec<u32>,
}

impl AdvState {
    /// Forgets everything; the next query reseeds from the allocation.
    fn reset(&mut self) {
        self.seeded = false;
        self.adj_cnt.clear();
        self.covered.clear();
    }

    /// Builds the overlap counters (and, when the model's coverage bitmap
    /// is within budget, the covered-trajectory bitset) from the
    /// advertiser's current plan.
    fn seed(&mut self, alloc: &Allocation<'_>, a: AdvertiserId) {
        let model = alloc.instance().model;
        self.adj_cnt = vec![0; model.n_billboards()];
        self.seeded = true;
        if alloc.instance().measure.overlap_sensitive() {
            if let Some(bm) = model.coverage_bitmap() {
                self.covered = vec![0; bm.words_per_row()];
            }
            for &m in alloc.set_of(a) {
                self.apply_own_move(alloc, a, m, true);
            }
        }
    }

    /// Applies one own-move (assignment or release of billboard `b`):
    /// O(deg) counter bumps over `b`'s overlap-graph neighbours, plus —
    /// when the covered bitset is maintained — an O(|cov(b)|) walk syncing
    /// the touched bits to the allocation's own per-trajectory counters.
    /// Reading the counters' *current* state keeps out-of-order batches
    /// correct: each bit is a function of the final count, and every
    /// trajectory whose count moved is covered by some replayed event.
    fn apply_own_move(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        b: BillboardId,
        assigned: bool,
    ) {
        let model = alloc.instance().model;
        for &nb in model.overlap_graph().neighbors(b.0) {
            let c = &mut self.adj_cnt[nb as usize];
            if assigned {
                *c += 1;
            } else {
                *c -= 1;
            }
        }
        if self.covered.is_empty() {
            return;
        }
        for &t in model.coverage(b) {
            let word = &mut self.covered[t as usize / 64];
            let bit = 1u64 << (t % 64);
            if alloc.coverage_count(a, t) > 0 {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }
}

/// The lazy marginal-gain engine. Construct once per greedy run over an
/// allocation; every [`best_billboard`](Self::best_billboard) answer is
/// bit-identical to
/// [`best_billboard_for`](crate::greedy::best_billboard_for).
#[derive(Debug)]
pub struct GainEngine {
    /// Absolute event-log position ([`Allocation::event_cursor`]) up to
    /// which state is current; survives log compaction.
    cursor: usize,
    /// Whether lazy evaluation is sound for the instance's measure.
    lazy: bool,
    advs: Vec<AdvState>,
}

impl GainEngine {
    /// Creates an engine over the allocation's *current* state; moves made
    /// through the allocation afterwards are picked up via its event log.
    pub fn new(alloc: &Allocation<'_>) -> Self {
        Self {
            cursor: alloc.event_cursor(),
            lazy: alloc.instance().measure.is_submodular(),
            advs: (0..alloc.n_advertisers())
                .map(|_| AdvState::default())
                .collect(),
        }
    }

    /// Catches up with moves made since the last query. Each event costs
    /// O(deg) counter bumps on the moving advertiser's state; other
    /// advertisers' overlap counters only depend on their own plans and
    /// need no invalidation (the freed billboard re-enters every pool
    /// implicitly — queries test ownership directly).
    fn drain_events(&mut self, alloc: &Allocation<'_>) {
        if self.cursor >= alloc.event_cursor() {
            return;
        }
        if !alloc.instance().measure.overlap_sensitive() {
            // Volume: marginal gains never depend on the plan; the overlap
            // counters stay all-zero and plan exchanges change nothing.
            self.cursor = alloc.event_cursor();
            return;
        }
        for ev in alloc.events_since(self.cursor) {
            match *ev {
                AllocEvent::Assigned { b, a } => {
                    let st = &mut self.advs[a.index()];
                    if st.seeded {
                        st.apply_own_move(alloc, a, b, true);
                    }
                }
                AllocEvent::Released { b, a: owner } => {
                    let st = &mut self.advs[owner.index()];
                    if st.seeded {
                        st.apply_own_move(alloc, owner, b, false);
                    }
                }
                AllocEvent::PlansExchanged { i, j } => {
                    self.advs[i.index()].reset();
                    self.advs[j.index()].reset();
                }
            }
        }
        self.cursor = alloc.event_cursor();
    }

    /// The free billboard maximising `ΔR/I({o})` for `a` — the engine
    /// counterpart of [`best_billboard_for`](crate::greedy::best_billboard_for).
    pub fn best_billboard(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
    ) -> Option<BillboardId> {
        if !self.lazy {
            return exact_best_billboard(alloc, a);
        }
        self.drain_events(alloc);
        let adv = alloc.advertiser(a);
        let influence = alloc.influence(a);
        if influence >= adv.demand {
            // Past the demand boundary every candidate sits in the
            // excessive-regret branch of Eq. 1; the zero-overlap shortcut
            // still holds, but greedy callers stop querying satisfied
            // advertisers, so the exact scan keeps this path simple.
            return exact_best_billboard(alloc, a);
        }
        let gap = adv.demand - influence;
        let model = alloc.instance().model;
        let st = &mut self.advs[a.index()];
        if !st.seeded {
            st.seed(alloc, a);
        }

        // O(1) pass over all candidates — the pick round's frontier scan.
        // `have_safe_zero` records whether some free zero-overlap
        // candidate is safe (`gain < gap`) with a positive normal score:
        // every overlapped safe candidate is then strictly dominated.
        // Strictness survives float rounding: both scores evaluate
        // `((p·γ)·g/d)/I` with identical factors except `g`, so their
        // ratio is `g_d/I_d ≤ 1 − 1/I_d` up to a handful of ulps — and
        // `1/I_d` (at least 2⁻⁶⁴ for any representable influence) dwarfs
        // the ulps for any normal score.
        //
        // A masked instance scans its availability list, an unmasked one
        // every id; either way candidates come in ascending id order.
        st.deferred.clear();
        let (mut best, have_safe_zero) = match alloc.instance().available() {
            None => {
                let ids = 0..model.n_billboards() as u32;
                scan_frontier(alloc, a, gap, &st.adj_cnt, ids, &mut st.deferred)
            }
            Some(list) => {
                let ids = list.iter().map(|b| b.0);
                scan_frontier(alloc, a, gap, &st.adj_cnt, ids, &mut st.deferred)
            }
        };

        // Exact evaluation of the deferred candidates the O(1) pass could
        // not rule out: boundary-crossers always; safe ones only when no
        // positive safe zero-overlap score dominates them. Per candidate,
        // whichever exact-gain evaluation is cheaper wins: the popcount
        // intersection against the covered bitset (`⌈|T|/64⌉` sequential
        // word ops) or the plain counter walk (`I({o})` random lookups).
        // Both produce the same integer gain, fed through the same closed
        // form, hence the same float score.
        let bitmap = model.coverage_bitmap().filter(|_| !st.covered.is_empty());
        let covered = &st.covered;
        let eval_one = |acc: Option<(f64, BillboardId)>, &id: &u32| {
            let b = BillboardId(id);
            let infl = model.influence_of(b);
            if have_safe_zero && infl < gap {
                return acc;
            }
            match bitmap {
                Some(bm) if infl as usize * 2 >= bm.words_per_row() => {
                    let overlap = bm.row_and_popcount(id, covered);
                    let score = alloc.regret_decrease_of_gain(a, infl - overlap) / infl as f64;
                    fold_candidate(acc, score, b)
                }
                _ => fold_free(alloc, a, acc, b),
            }
        };
        let deferred_best = st.deferred.iter().fold(None, eval_one);
        best = merge_best(best, deferred_best);
        best.map(|(_, b)| b)
    }
}

/// The frontier scan over ascending candidate ids: the body of
/// [`GainEngine::best_billboard`]'s O(1) pass. Returns the best
/// zero-overlap candidate and whether a safe positive zero-overlap score
/// was seen; overlapped candidates are appended to `deferred` in id order.
fn scan_frontier(
    alloc: &Allocation<'_>,
    a: AdvertiserId,
    gap: u64,
    adj_cnt: &[u32],
    ids: impl Iterator<Item = u32>,
    deferred: &mut Vec<u32>,
) -> (Option<(f64, BillboardId)>, bool) {
    let model = alloc.instance().model;
    let mut best: Option<(f64, BillboardId)> = None;
    let mut have_safe_zero = false;
    for id in ids {
        let b = BillboardId(id);
        if alloc.owner_of(b).is_some() {
            continue;
        }
        let infl = model.influence_of(b);
        if infl == 0 {
            continue;
        }
        if adj_cnt[id as usize] == 0 {
            // Zero overlap with the plan ⇒ gain = I({o}) exactly; the
            // score is the same float the naive scan computes, on
            // either side of the demand boundary.
            let score = alloc.regret_decrease_of_gain(a, infl) / infl as f64;
            best = fold_candidate(best, score, b);
            if infl < gap && score > 0.0 && score.is_normal() {
                have_safe_zero = true;
            }
        } else {
            deferred.push(id);
        }
    }
    (best, have_safe_zero)
}

/// Folds one fresh score into the running best with the naive scan's exact
/// comparison (greater score wins; ties toward the smaller id).
#[inline]
fn fold_candidate(
    best: Option<(f64, BillboardId)>,
    score: f64,
    b: BillboardId,
) -> Option<(f64, BillboardId)> {
    match best {
        None => Some((score, b)),
        Some((s, id)) => {
            if score > s || (score == s && b < id) {
                Some((score, b))
            } else {
                best
            }
        }
    }
}

/// Merges two partial maxima under the fold's comparison (greater score
/// wins; ties toward the smaller id).
#[inline]
fn merge_best(
    x: Option<(f64, BillboardId)>,
    y: Option<(f64, BillboardId)>,
) -> Option<(f64, BillboardId)> {
    match (x, y) {
        (None, y) => y,
        (x, None) => x,
        (Some((sx, bx)), Some((sy, by))) => {
            if sy > sx || (sy == sx && by < bx) {
                y
            } else {
                x
            }
        }
    }
}

#[inline]
fn fold_free(
    alloc: &Allocation<'_>,
    a: AdvertiserId,
    best: Option<(f64, BillboardId)>,
    b: BillboardId,
) -> Option<(f64, BillboardId)> {
    let infl = alloc.instance().model.influence_of(b);
    if infl == 0 {
        return best;
    }
    let ratio = alloc.regret_decrease_of_adding(a, b) / infl as f64;
    fold_candidate(best, ratio, b)
}

/// Exact argmax over the free pool — the naive selection rule. Used
/// directly where laziness is unsound.
pub fn exact_best_billboard(alloc: &Allocation<'_>, a: AdvertiserId) -> Option<BillboardId> {
    alloc
        .free_billboards()
        .iter()
        .fold(None, |acc, &b| fold_free(alloc, a, acc, b))
        .map(|(_, b)| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::als::Als;
    use crate::bls::Bls;
    use crate::greedy::{best_billboard_for, g_global_naive, g_order_naive, GGlobal, GOrder};
    use crate::instance::Instance;
    use crate::solver::Solver;
    use crate::testutil::disjoint_model;
    use mroam_influence::{CoverageModel, InfluenceMeasure};
    use proptest::prelude::*;

    fn arb_instance() -> impl Strategy<Value = (Vec<Vec<u32>>, u32, Vec<(u64, f64)>)> {
        (2u32..30).prop_flat_map(|n_t| {
            let lists = proptest::collection::vec(
                proptest::collection::btree_set(0..n_t, 0..n_t as usize),
                1..10,
            )
            .prop_map(|sets| {
                sets.into_iter()
                    .map(|s| s.into_iter().collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
            });
            let advertisers = proptest::collection::vec((1u64..40, 1.0..100.0f64), 1..4);
            (lists, Just(n_t), advertisers)
        })
    }

    /// Round-robin greedy replay over twin allocations, asserting the
    /// engine and the naive scan agree on every single pick. Returns an
    /// error string on the first divergence so proptest reports the case.
    fn replay_in_lockstep(
        naive: &mut Allocation<'_>,
        lazy: &mut Allocation<'_>,
        engine: &mut GainEngine,
        phase: &str,
    ) -> Result<(), String> {
        let n = naive.n_advertisers();
        loop {
            let mut advanced = false;
            for i in 0..n {
                let a = AdvertiserId::from_index(i);
                if naive.is_satisfied(a) {
                    continue;
                }
                let want = best_billboard_for(naive, a);
                let got = engine.best_billboard(lazy, a);
                if want != got {
                    return Err(format!(
                        "{phase}: advertiser {i} naive {want:?} vs engine {got:?}"
                    ));
                }
                if let Some(b) = want {
                    naive.assign(b, a);
                    lazy.assign(b, a);
                    advanced = true;
                }
            }
            if !advanced {
                return Ok(());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole contract: the lazy engine returns the *identical*
        /// billboard at every step of a greedy replay, including after
        /// releases and plan exchanges invalidate its cached bounds.
        #[test]
        fn engine_matches_naive_pick_sequence(
            (lists, n_t, advs) in arb_instance(),
            gamma in 0.0..=1.0f64,
        ) {
            let model = CoverageModel::from_lists(lists, n_t as usize);
            let advertisers = AdvertiserSet::new(
                advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect(),
            );
            let inst = Instance::new(&model, &advertisers, gamma);
            let mut naive = Allocation::new(inst);
            let mut lazy = Allocation::new(inst);
            let mut engine = GainEngine::new(&lazy);

            if let Err(msg) = replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "greedy") {
                prop_assert!(false, "{}", msg);
            }

            // Exercise `Released` invalidation: free the first billboard
            // of every advertiser's plan, then re-query everything.
            let n = naive.n_advertisers();
            for i in 0..n {
                let a = AdvertiserId::from_index(i);
                if let Some(&b) = naive.set_of(a).first() {
                    naive.release(b);
                    lazy.release(b);
                }
            }
            // Exercise `PlansExchanged` invalidation.
            if n >= 2 {
                naive.exchange_plans(AdvertiserId(0), AdvertiserId(1));
                lazy.exchange_plans(AdvertiserId(0), AdvertiserId(1));
            }
            if let Err(msg) = replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "after-invalidation") {
                prop_assert!(false, "{}", msg);
            }
        }

        /// End-to-end bit-identity: every solver produces the same sets and
        /// regret whether it selects through the engine or the naive scan.
        #[test]
        fn solvers_bit_identical_lazy_vs_naive(
            (lists, n_t, advs) in arb_instance(),
            gamma in 0.0..=1.0f64,
        ) {
            let model = CoverageModel::from_lists(lists, n_t as usize);
            let advertisers = AdvertiserSet::new(
                advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect(),
            );
            let inst = Instance::new(&model, &advertisers, gamma);

            let lazy = GOrder.solve(&inst);
            let naive = g_order_naive(&inst);
            prop_assert_eq!(&lazy.sets, &naive.sets, "G-Order sets diverge");
            prop_assert_eq!(lazy.total_regret, naive.total_regret);

            let lazy = GGlobal.solve(&inst);
            let naive = g_global_naive(&inst);
            prop_assert_eq!(&lazy.sets, &naive.sets, "G-Global sets diverge");
            prop_assert_eq!(lazy.total_regret, naive.total_regret);

            let lazy = Als { restarts: 2, seed: 9, ..Als::default() }.solve(&inst);
            let naive = Als { restarts: 2, seed: 9, naive_scan: true, ..Als::default() }
                .solve(&inst);
            prop_assert_eq!(&lazy.sets, &naive.sets, "ALS sets diverge");
            prop_assert_eq!(lazy.total_regret, naive.total_regret);

            let lazy = Bls { restarts: 2, seed: 9, ..Bls::default() }.solve(&inst);
            let naive = Bls { restarts: 2, seed: 9, naive_scan: true, ..Bls::default() }
                .solve(&inst);
            prop_assert_eq!(&lazy.sets, &naive.sets, "BLS sets diverge");
            prop_assert_eq!(lazy.total_regret, naive.total_regret);
        }
    }

    /// `Impressions { k ≥ 2 }` is not submodular, so the engine must fall
    /// back to the exact scan — and still match the naive reference.
    #[test]
    fn non_submodular_measure_matches_naive() {
        let model =
            CoverageModel::from_lists(vec![vec![0, 1, 2], vec![1, 2, 3], vec![0, 3], vec![2]], 4);
        let advs = AdvertiserSet::new(vec![Advertiser::new(6, 9.0), Advertiser::new(3, 4.0)]);
        let inst =
            Instance::with_measure(&model, &advs, 0.5, InfluenceMeasure::Impressions { k: 2 });
        let mut naive = Allocation::new(inst);
        let mut lazy = Allocation::new(inst);
        let mut engine = GainEngine::new(&lazy);
        assert!(!engine.lazy, "Impressions{{k:2}} must disable laziness");
        replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "impressions").unwrap();
    }

    /// The exact-fit case from the greedy tests: a billboard meeting the
    /// demand exactly must win over a bigger-ratio overshoot, through the
    /// engine just like through the naive scan.
    #[test]
    fn engine_prefers_exact_fit_like_the_naive_scan() {
        let model = disjoint_model(&[20, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let alloc = Allocation::new(inst);
        let mut engine = GainEngine::new(&alloc);
        let a = AdvertiserId(0);
        let pick = engine.best_billboard(&alloc, a);
        assert_eq!(pick, best_billboard_for(&alloc, a));
        assert_eq!(pick, Some(BillboardId(1)));
    }

    /// With `γ = 0` every safe score collapses to 0, so strict domination
    /// of overlapped candidates vanishes and the engine must evaluate them
    /// to honour the naive smallest-id tie-break. Here the smallest-id free
    /// candidate *overlaps* the plan — the zero-overlap shortcut alone
    /// would wrongly pick o1.
    #[test]
    fn zero_score_ties_break_toward_smallest_id() {
        // o0 {0,1} overlaps o2 {1}; o1 {2,3} is independent.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![2, 3], vec![1]], 4);
        let advs = AdvertiserSet::new(vec![Advertiser::new(10, 5.0)]);
        let inst = Instance::new(&model, &advs, 0.0);
        let mut naive = Allocation::new(inst);
        let mut lazy = Allocation::new(inst);
        let mut engine = GainEngine::new(&lazy);
        let a = AdvertiserId(0);
        naive.assign(BillboardId(2), a);
        lazy.assign(BillboardId(2), a);
        let want = best_billboard_for(&naive, a);
        assert_eq!(want, Some(BillboardId(0)), "naive tie-break sanity");
        assert_eq!(engine.best_billboard(&lazy, a), want);
    }

    /// Demand-boundary candidates need exact evaluation; replay a case
    /// where the winning pick crosses the boundary mid-sequence.
    #[test]
    fn boundary_crossing_candidates_stay_exact() {
        let model = disjoint_model(&[10, 7, 5, 3, 1]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(8, 16.0)]);
        let inst = Instance::new(&model, &advs, 0.9);
        let mut naive = Allocation::new(inst);
        let mut lazy = Allocation::new(inst);
        let mut engine = GainEngine::new(&lazy);
        replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "boundary").unwrap();
    }

    /// Releasing a billboard must dirty overlapping candidates (their gain
    /// can *grow*, which pure CELF laziness would miss) and re-insert the
    /// released billboard itself.
    #[test]
    fn release_invalidation_tracks_overlap() {
        // Overlapping chains: o0 {t0,t1}, o1 {t1,t2}, o2 {t2,t3}, o3 {t4}.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![4]], 5);
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 8.0), Advertiser::new(2, 3.0)]);
        let inst = Instance::new(&model, &advs, 0.6);
        let mut naive = Allocation::new(inst);
        let mut lazy = Allocation::new(inst);
        let mut engine = GainEngine::new(&lazy);
        let a0 = AdvertiserId(0);

        // Seed the engine's queue, then assign o0 and o1 to a0.
        assert_eq!(
            engine.best_billboard(&lazy, a0),
            best_billboard_for(&naive, a0)
        );
        for b in [BillboardId(0), BillboardId(1)] {
            naive.assign(b, a0);
            lazy.assign(b, a0);
        }
        assert_eq!(
            engine.best_billboard(&lazy, a0),
            best_billboard_for(&naive, a0)
        );

        // Release o1: o0/o2's marginal gains for a0 grow (t1/t2 uncovered
        // again); the engine must notice through the inverted index.
        naive.release(BillboardId(1));
        lazy.release(BillboardId(1));
        assert_eq!(
            engine.best_billboard(&lazy, a0),
            best_billboard_for(&naive, a0)
        );

        replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "post-release").unwrap();
    }

    /// A deterministic overlapping instance: `n_b` billboards over `n_t`
    /// trajectories with a mix of hub overlap and pseudo-random spread.
    fn large_overlapping_lists(n_b: usize, n_t: u32, seed: u64) -> Vec<Vec<u32>> {
        (0..n_b)
            .map(|b| {
                let mut x = seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut list: Vec<u32> = (0..(b % 5 + 1))
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % u64::from(n_t)) as u32
                    })
                    .collect();
                // A shared hub trajectory gives dense overlap so most
                // candidates defer once an advertiser holds a hub member.
                if b % 3 == 0 {
                    list.push(0);
                }
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect()
    }

    /// A masked instance's frontier scan walks its availability list:
    /// every pick equals the naive scan over the masked free pool. The
    /// disjoint city is demanded past its supply, so every available
    /// billboard is picked at some point and a candidate the scan skipped
    /// would show.
    #[test]
    fn masked_picks_match_the_naive_scan() {
        let sizes: Vec<u32> = (0..1500u32).map(|b| b * 7 % 5 + 1).collect();
        let models = [
            CoverageModel::from_lists(large_overlapping_lists(1500, 160, 7), 160),
            disjoint_model(&sizes),
        ];
        let avail: Vec<BillboardId> = (0..1500u32)
            .filter(|b| b % 3 != 1)
            .map(BillboardId)
            .collect();
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(1400, 50.0),
            Advertiser::new(60, 9.0),
            Advertiser::new(1900, 120.0),
        ]);
        for model in &models {
            let inst = Instance::new(model, &advs, 0.7).with_available(&avail);
            let mut naive = Allocation::new(inst);
            let mut lazy = Allocation::new(inst);
            let mut engine = GainEngine::new(&lazy);
            replay_in_lockstep(&mut naive, &mut lazy, &mut engine, "masked").unwrap();
            lazy.check_invariants();
        }
    }
}
