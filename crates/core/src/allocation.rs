//! The deployment-state machine shared by every MROAM algorithm.
//!
//! An [`Allocation`] tracks, for one instance, which billboard belongs to
//! which advertiser (`S_i ∩ S_j = ∅` by construction), each advertiser's
//! achieved influence `I(S_i)` via an incremental, measure-aware
//! [`MeasuredCounter`], the per-advertiser regret, and the free billboard
//! pool. All algorithm moves — assign, release, cross-advertiser swap,
//! plan exchange — are O(coverage-list length) and keep every cached value
//! consistent.
//!
//! The free pool starts as the instance's available billboards in
//! ascending id order ([`Instance::available_ids`]). A billboard outside
//! an availability list is neither free nor ownable, so a masked instance
//! behaves exactly like an unmasked one over a copy of the model holding
//! only the available billboards: the copy's dense ids are the available
//! ids in the same order, so free-list positions, swap-removes and every
//! smaller-id tie-break line up.

use crate::advertiser::Advertiser;
use crate::instance::Instance;
use crate::regret::{regret, RegretBreakdown};
use crate::solver::Solution;
use mroam_data::{AdvertiserId, BillboardId};
use mroam_influence::MeasuredCounter;

/// Sentinel for "not in any position list".
const NONE_POS: u32 = u32::MAX;

/// One entry of the allocation's append-only move log.
///
/// Consumers (the lazy [`GainEngine`](crate::gain::GainEngine)) keep a
/// cursor into [`Allocation::events`] and catch up lazily; the log is the
/// channel through which assign/release moves become cache-invalidation
/// events. Compound moves (`cross_swap`, `replace_with_free`,
/// `release_all`) are built from `assign`/`release` and therefore log
/// automatically; `exchange_plans` swaps whole sets without touching the
/// free pool and logs its own variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocEvent {
    /// Billboard `b` was assigned to advertiser `a`.
    Assigned {
        /// The billboard taken from the free pool.
        b: BillboardId,
        /// Its new owner.
        a: AdvertiserId,
    },
    /// Billboard `b` was released by advertiser `a` back to the free pool.
    Released {
        /// The billboard returned to the free pool.
        b: BillboardId,
        /// Its previous owner.
        a: AdvertiserId,
    },
    /// Advertisers `i` and `j` traded entire plans (Algorithm 4's move).
    PlansExchanged {
        /// One side of the trade.
        i: AdvertiserId,
        /// The other side.
        j: AdvertiserId,
    },
}

/// A mutable deployment `S = {S_1, …, S_|A|}` over one instance.
#[derive(Debug, Clone)]
pub struct Allocation<'a> {
    instance: Instance<'a>,
    /// `sets[i]` = billboards currently assigned to advertiser `i`.
    sets: Vec<Vec<BillboardId>>,
    /// Per billboard: owning advertiser, if any.
    owner: Vec<Option<AdvertiserId>>,
    /// Per billboard: its index inside `sets[owner]` (owned) or `free`
    /// (unowned); kept in sync by swap-remove bookkeeping. Billboards the
    /// instance masks out stay at `NONE_POS` for good.
    pos: Vec<u32>,
    /// Per advertiser: incremental influence counter (measure-aware).
    counters: Vec<MeasuredCounter>,
    /// Per advertiser: cached `I(S_i)`.
    influences: Vec<u64>,
    /// Per advertiser: cached `R(S_i)`.
    regrets: Vec<f64>,
    /// Unassigned billboards.
    free: Vec<BillboardId>,
    /// Cached `Σ regrets`.
    total_regret: f64,
    /// Move log consumed by incremental observers. Entries before
    /// `events_base` have been compacted away; observer cursors are
    /// *absolute* (see [`Self::event_cursor`]), so compaction never shifts
    /// them.
    events: Vec<AllocEvent>,
    /// Absolute index of `events[0]` — the count of events already
    /// compacted out of the log.
    events_base: usize,
}

impl<'a> Allocation<'a> {
    /// Creates the empty deployment: every available billboard free, every
    /// advertiser at zero influence (regret `L_i`, or `Σ L` in total).
    pub fn new(instance: Instance<'a>) -> Self {
        let n_b = instance.model.n_billboards();
        let n_a = instance.advertisers.len();
        let n_t = instance.model.n_trajectories();
        let free: Vec<BillboardId> = instance.available_ids().collect();
        let mut pos = vec![NONE_POS; n_b];
        for (p, b) in free.iter().enumerate() {
            pos[b.index()] = p as u32;
        }
        let counters: Vec<MeasuredCounter> = (0..n_a)
            .map(|_| MeasuredCounter::auto(n_t, n_a, instance.measure))
            .collect();
        let regrets: Vec<f64> = instance
            .advertisers
            .iter()
            .map(|(_, a)| regret(a, 0, instance.gamma))
            .collect();
        let total_regret = regrets.iter().sum();
        Self {
            instance,
            sets: vec![Vec::new(); n_a],
            owner: vec![None; n_b],
            pos,
            counters,
            influences: vec![0; n_a],
            regrets,
            free,
            total_regret,
            events: Vec::new(),
            events_base: 0,
        }
    }

    /// Creates a deployment from explicit per-advertiser sets (used by tests
    /// and by warm starts). Panics if a billboard appears twice or is not
    /// available.
    pub fn from_sets(instance: Instance<'a>, sets: &[Vec<BillboardId>]) -> Self {
        assert_eq!(
            sets.len(),
            instance.advertisers.len(),
            "one set per advertiser required"
        );
        let mut alloc = Self::new(instance);
        for (i, set) in sets.iter().enumerate() {
            let a = AdvertiserId::from_index(i);
            for &b in set {
                alloc.assign(b, a);
            }
        }
        alloc
    }

    /// The instance this deployment is over.
    pub fn instance(&self) -> Instance<'a> {
        self.instance
    }

    /// Number of advertisers.
    pub fn n_advertisers(&self) -> usize {
        self.sets.len()
    }

    /// Billboards currently assigned to `a`.
    pub fn set_of(&self, a: AdvertiserId) -> &[BillboardId] {
        &self.sets[a.index()]
    }

    /// Current owner of billboard `b`, if any.
    pub fn owner_of(&self, b: BillboardId) -> Option<AdvertiserId> {
        self.owner[b.index()]
    }

    /// The free (unassigned) billboards, in unspecified order.
    pub fn free_billboards(&self) -> &[BillboardId] {
        &self.free
    }

    /// Achieved influence `I(S_a)`.
    #[inline]
    pub fn influence(&self, a: AdvertiserId) -> u64 {
        self.influences[a.index()]
    }

    /// Cached regret `R(S_a)`.
    #[inline]
    pub fn regret_of(&self, a: AdvertiserId) -> f64 {
        self.regrets[a.index()]
    }

    /// Cached total regret `R(S)`.
    #[inline]
    pub fn total_regret(&self) -> f64 {
        self.total_regret
    }

    /// Whether advertiser `a`'s demand is met.
    #[inline]
    pub fn is_satisfied(&self, a: AdvertiserId) -> bool {
        self.influences[a.index()] >= self.advertiser(a).demand
    }

    /// The advertiser record behind `a`.
    #[inline]
    pub fn advertiser(&self, a: AdvertiserId) -> &Advertiser {
        self.instance.advertisers.get(a)
    }

    #[inline]
    fn regret_at(&self, a: AdvertiserId, influence: u64) -> f64 {
        regret(self.advertiser(a), influence, self.instance.gamma)
    }

    fn set_influence_cache(&mut self, a: AdvertiserId, influence: u64) {
        let i = a.index();
        self.influences[i] = influence;
        let new_regret = self.regret_at(a, influence);
        self.total_regret += new_regret - self.regrets[i];
        self.regrets[i] = new_regret;
    }

    // ---- free-list bookkeeping -------------------------------------------

    fn remove_from_free(&mut self, b: BillboardId) {
        let p = self.pos[b.index()] as usize;
        debug_assert_eq!(self.free[p], b, "free-list position desync");
        self.free.swap_remove(p);
        if let Some(&moved) = self.free.get(p) {
            self.pos[moved.index()] = p as u32;
        }
        self.pos[b.index()] = NONE_POS;
    }

    fn push_to_free(&mut self, b: BillboardId) {
        self.pos[b.index()] = self.free.len() as u32;
        self.free.push(b);
    }

    fn remove_from_set(&mut self, b: BillboardId, a: AdvertiserId) {
        let p = self.pos[b.index()] as usize;
        let set = &mut self.sets[a.index()];
        debug_assert_eq!(set[p], b, "set position desync");
        set.swap_remove(p);
        if let Some(&moved) = set.get(p) {
            self.pos[moved.index()] = p as u32;
        }
        self.pos[b.index()] = NONE_POS;
    }

    fn push_to_set(&mut self, b: BillboardId, a: AdvertiserId) {
        let set = &mut self.sets[a.index()];
        self.pos[b.index()] = set.len() as u32;
        set.push(b);
    }

    // ---- moves -------------------------------------------------------------

    /// Assigns free billboard `b` to advertiser `a`. Panics if `b` is owned
    /// or outside the instance's availability list.
    pub fn assign(&mut self, b: BillboardId, a: AdvertiserId) {
        assert!(
            self.owner[b.index()].is_none(),
            "billboard {b} is already assigned"
        );
        assert!(
            self.pos[b.index()] != NONE_POS,
            "billboard {b} is not available"
        );
        self.remove_from_free(b);
        self.push_to_set(b, a);
        self.owner[b.index()] = Some(a);
        let gained = self.counters[a.index()].add(self.instance.model.coverage(b));
        self.set_influence_cache(a, self.influences[a.index()] + gained);
        self.events.push(AllocEvent::Assigned { b, a });
    }

    /// Releases billboard `b` back to the free pool. Panics if unowned.
    pub fn release(&mut self, b: BillboardId) {
        let a = self.owner[b.index()].unwrap_or_else(|| panic!("billboard {b} is not assigned"));
        self.remove_from_set(b, a);
        self.push_to_free(b);
        self.owner[b.index()] = None;
        let lost = self.counters[a.index()].remove(self.instance.model.coverage(b));
        self.set_influence_cache(a, self.influences[a.index()] - lost);
        self.events.push(AllocEvent::Released { b, a });
    }

    /// Releases every billboard of advertiser `a`.
    pub fn release_all(&mut self, a: AdvertiserId) {
        while let Some(&b) = self.sets[a.index()].last() {
            self.release(b);
        }
    }

    /// Influence advertiser `a` would gain by adding billboard `b`
    /// (which may be owned by anyone — pure query).
    #[inline]
    pub fn marginal_gain(&self, a: AdvertiserId, b: BillboardId) -> u64 {
        self.counters[a.index()].marginal_gain(self.instance.model.coverage(b))
    }

    /// How many billboards of `a`'s plan cover trajectory `t`.
    #[inline]
    pub fn coverage_count(&self, a: AdvertiserId, t: u32) -> u32 {
        self.counters[a.index()].count(t)
    }

    /// Regret decrease `R(S_a) − R(S_a ∪ {b})` of assigning `b` to `a`
    /// (positive = improvement), without mutating anything.
    pub fn regret_decrease_of_adding(&self, a: AdvertiserId, b: BillboardId) -> f64 {
        self.regret_decrease_of_gain(a, self.marginal_gain(a, b))
    }

    /// Regret decrease of an influence gain of `gain` units for `a`, with
    /// the same float evaluation order as
    /// [`regret_decrease_of_adding`](Self::regret_decrease_of_adding) —
    /// callers that already hold the marginal gain (the lazy engine) get a
    /// bit-identical score without recounting coverage.
    ///
    /// When the advertiser stays strictly unsatisfied after the gain, the
    /// decrease is evaluated through its closed form `L·γ·g/d` rather than
    /// the subtraction `R(I) − R(I+g)`. The two are mathematically equal,
    /// but the closed form's float value is *independent of the current
    /// influence* — which lets the lazy engine reuse a cached score as long
    /// as the gain itself is unchanged, instead of treating every cached
    /// value as drifted the moment `I(S_a)` moves.
    #[inline]
    pub fn regret_decrease_of_gain(&self, a: AdvertiserId, gain: u64) -> f64 {
        let i = a.index();
        let influence = self.influences[i];
        let adv = self.advertiser(a);
        if influence + gain < adv.demand {
            adv.payment * self.instance.gamma * gain as f64 / adv.demand as f64
        } else {
            self.regrets[i] - self.regret_at(a, influence + gain)
        }
    }

    /// The still-uncompacted window of the move log. Prefer the absolute
    /// cursor API ([`event_cursor`](Self::event_cursor) /
    /// [`events_since`](Self::events_since)) — this accessor exists for
    /// tests and whole-log inspection and is only the full history while no
    /// [`compact_events`](Self::compact_events) call has dropped a prefix.
    #[inline]
    pub fn events(&self) -> &[AllocEvent] {
        &self.events
    }

    /// The absolute position one past the latest logged event. Incremental
    /// observers snapshot this as their cursor and later catch up with
    /// [`events_since`](Self::events_since); absolute positions stay valid
    /// across [`compact_events`](Self::compact_events) and across a
    /// [`scratch_clone`](Self::scratch_clone) hand-off.
    #[inline]
    pub fn event_cursor(&self) -> usize {
        self.events_base + self.events.len()
    }

    /// The events logged at absolute positions `cursor..`. Panics if that
    /// suffix has been compacted away — an observer older than the last
    /// [`compact_events`](Self::compact_events) point must resync from the
    /// full allocation state instead.
    #[inline]
    pub fn events_since(&self, cursor: usize) -> &[AllocEvent] {
        assert!(
            cursor >= self.events_base,
            "event log compacted past observer cursor ({cursor} < base {})",
            self.events_base
        );
        &self.events[cursor - self.events_base..]
    }

    /// Drops all events before absolute position `cursor`, bounding the
    /// log's memory during long local-search runs. Callers pass the minimum
    /// cursor over live observers (typically the single engine driving the
    /// search). Panics if `cursor` lies beyond the log's end.
    pub fn compact_events(&mut self, cursor: usize) {
        assert!(
            cursor <= self.event_cursor(),
            "compaction cursor {cursor} beyond event log end {}",
            self.event_cursor()
        );
        if cursor > self.events_base {
            self.events.drain(..cursor - self.events_base);
            self.events_base = cursor;
        }
    }

    /// Clones the deployment *without copying the move log*: the clone
    /// starts with an empty log whose base continues at this allocation's
    /// [`event_cursor`](Self::event_cursor). An observer fully drained at
    /// clone time can therefore adopt the clone (BLS move 4 swaps in the
    /// greedily completed candidate) and catch up on exactly the moves made
    /// on it since the fork — no wholesale log copy, no cursor reset.
    pub fn scratch_clone(&self) -> Self {
        let mut clone = self.clone();
        clone.events.clear();
        clone.events_base = self.event_cursor();
        clone
    }

    /// Unique contribution (marginal influence loss) of billboard `b`
    /// within advertiser `a`'s current plan — the influence `a` would lose
    /// by releasing `b`. Pure query; only meaningful while `b ∈ S_a`.
    /// The [`MoveEngine`](crate::moves::MoveEngine) caches this integer per
    /// assigned billboard and keeps it fresh via overlap-scoped
    /// invalidation.
    #[inline]
    pub fn marginal_loss_of(&self, a: AdvertiserId, b: BillboardId) -> u64 {
        self.counters[a.index()].marginal_loss(self.instance.model.coverage(b))
    }

    /// Regret change of advertiser `a` moving to influence `new_influence`
    /// (negative = improvement). This is the exact float expression every
    /// single-advertiser move evaluation below bottoms out in; callers that
    /// derive the new influence through cached integers (the move engine)
    /// get bit-identical deltas by funnelling through it.
    #[inline]
    pub fn regret_delta_to(&self, a: AdvertiserId, new_influence: u64) -> f64 {
        self.regret_at(a, new_influence) - self.regrets[a.index()]
    }

    /// [`regret_delta_to`](Self::regret_delta_to) with the new influence
    /// expressed as a signed change against the cached `I(S_a)` — the shape
    /// swap evaluations produce.
    #[inline]
    pub fn regret_delta_of_change(&self, a: AdvertiserId, delta: i64) -> f64 {
        self.regret_delta_to(a, (self.influences[a.index()] as i64 + delta) as u64)
    }

    /// Total-regret change (negative = improvement) of swapping owned
    /// billboard `b_m` (of advertiser `i`) with billboard `b_n` owned by a
    /// *different* advertiser `j`, without mutating anything.
    pub fn eval_cross_swap(&self, b_m: BillboardId, b_n: BillboardId) -> f64 {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        let j = self.owner[b_n.index()].expect("b_n must be assigned");
        assert_ne!(i, j, "cross swap requires distinct owners");
        let cov_m = self.instance.model.coverage(b_m);
        let cov_n = self.instance.model.coverage(b_n);
        let di = self.counters[i.index()].swap_delta(cov_m, cov_n);
        let dj = self.counters[j.index()].swap_delta(cov_n, cov_m);
        self.eval_cross_swap_with_deltas(b_m, b_n, di, dj)
    }

    /// [`eval_cross_swap`](Self::eval_cross_swap) with the two influence
    /// deltas supplied by the caller. The move engine derives them from
    /// cached unique contributions when the swapped billboards share no
    /// trajectory (`Δ_i = gain_i(b_n) − loss_i(b_m)` exactly); the final
    /// float expression is shared with the counter-walk path, so equal
    /// integer deltas give bit-identical results.
    pub fn eval_cross_swap_with_deltas(
        &self,
        b_m: BillboardId,
        b_n: BillboardId,
        di: i64,
        dj: i64,
    ) -> f64 {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        let j = self.owner[b_n.index()].expect("b_n must be assigned");
        assert_ne!(i, j, "cross swap requires distinct owners");
        let new_i = (self.influences[i.index()] as i64 + di) as u64;
        let new_j = (self.influences[j.index()] as i64 + dj) as u64;
        self.pair_delta_to(i, j, new_i, new_j)
    }

    /// Total-regret change of advertisers `i` and `j` moving to
    /// influences `new_i` and `new_j`: the one float expression every
    /// two-advertiser evaluation and its best-case bound share, so the
    /// two cannot drift apart.
    #[inline]
    fn pair_delta_to(&self, i: AdvertiserId, j: AdvertiserId, new_i: u64, new_j: u64) -> f64 {
        self.regret_at(i, new_i) + self.regret_at(j, new_j)
            - self.regrets[i.index()]
            - self.regrets[j.index()]
    }

    /// The influence nearest `a`'s demand among `I(S_a) + d` for
    /// `d ∈ [lo, hi]`. Equation 1 is float-monotone on each side of the
    /// demand and 0 at it (γ ∈ [0, 1] and `L_a ≥ 0`, which [`Instance`]
    /// and [`Advertiser::new`] assert), so no influence in the range has
    /// a lower float regret than this one.
    #[inline]
    fn nearest_demand(&self, a: AdvertiserId, lo: i64, hi: i64) -> u64 {
        let base = self.influences[a.index()] as i64;
        (self.advertiser(a).demand as i64).clamp(base + lo, base + hi) as u64
    }

    /// Float-exact best case of [`regret_delta_of_change`]: no change
    /// `d ∈ [lo, hi]` gives `regret_delta_of_change(a, d)` below this.
    ///
    /// [`regret_delta_of_change`]: Self::regret_delta_of_change
    #[inline]
    pub(crate) fn regret_delta_bound(&self, a: AdvertiserId, lo: i64, hi: i64) -> f64 {
        self.regret_delta_to(a, self.nearest_demand(a, lo, hi))
    }

    /// Float-exact best case of
    /// [`eval_cross_swap_with_deltas`](Self::eval_cross_swap_with_deltas)
    /// for a swap between `i`'s and `j`'s plans: no pair of influence
    /// changes `di ∈ [i_lo, i_hi]`, `dj ∈ [j_lo, j_hi]` evaluates below
    /// it. Float addition is monotone in each operand, so the sum is
    /// lowest where both regrets are.
    #[inline]
    pub(crate) fn cross_swap_bound(
        &self,
        i: AdvertiserId,
        j: AdvertiserId,
        (i_lo, i_hi): (i64, i64),
        (j_lo, j_hi): (i64, i64),
    ) -> f64 {
        self.pair_delta_to(
            i,
            j,
            self.nearest_demand(i, i_lo, i_hi),
            self.nearest_demand(j, j_lo, j_hi),
        )
    }

    /// Commits the swap evaluated by [`eval_cross_swap`](Self::eval_cross_swap).
    pub fn cross_swap(&mut self, b_m: BillboardId, b_n: BillboardId) {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        let j = self.owner[b_n.index()].expect("b_n must be assigned");
        assert_ne!(i, j, "cross swap requires distinct owners");
        self.release(b_m);
        self.release(b_n);
        self.assign(b_n, i);
        self.assign(b_m, j);
    }

    /// Total-regret change of replacing owned billboard `b_m` with free
    /// billboard `b_free`, without mutating anything.
    pub fn eval_replace_with_free(&self, b_m: BillboardId, b_free: BillboardId) -> f64 {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        assert!(
            self.owner[b_free.index()].is_none(),
            "replacement billboard must be free"
        );
        let di = self.counters[i.index()].swap_delta(
            self.instance.model.coverage(b_m),
            self.instance.model.coverage(b_free),
        );
        self.regret_delta_of_change(i, di)
    }

    /// Commits the replacement evaluated by
    /// [`eval_replace_with_free`](Self::eval_replace_with_free).
    pub fn replace_with_free(&mut self, b_m: BillboardId, b_free: BillboardId) {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        self.release(b_m);
        self.assign(b_free, i);
    }

    /// Total-regret change of releasing owned billboard `b_m`, without
    /// mutating anything.
    pub fn eval_release(&self, b_m: BillboardId) -> f64 {
        let i = self.owner[b_m.index()].expect("b_m must be assigned");
        let lost = self.marginal_loss_of(i, b_m);
        self.regret_delta_to(i, self.influences[i.index()] - lost)
    }

    /// Total-regret change of exchanging the *entire plans* of advertisers
    /// `i` and `j` (the Algorithm 4 move), without mutating anything.
    ///
    /// The influence values simply trade places because the billboard sets
    /// trade wholesale.
    pub fn eval_exchange_plans(&self, i: AdvertiserId, j: AdvertiserId) -> f64 {
        assert_ne!(i, j, "plan exchange requires distinct advertisers");
        self.pair_delta_to(i, j, self.influences[j.index()], self.influences[i.index()])
    }

    /// Commits the plan exchange evaluated by
    /// [`eval_exchange_plans`](Self::eval_exchange_plans).
    pub fn exchange_plans(&mut self, i: AdvertiserId, j: AdvertiserId) {
        assert_ne!(i, j, "plan exchange requires distinct advertisers");
        let (ii, ij) = (i.index(), j.index());
        self.sets.swap(ii, ij);
        self.counters.swap(ii, ij);
        let (fi, fj) = (self.influences[ii], self.influences[ij]);
        for &b in &self.sets[ii] {
            self.owner[b.index()] = Some(i);
        }
        for &b in &self.sets[ij] {
            self.owner[b.index()] = Some(j);
        }
        self.set_influence_cache(i, fj);
        self.set_influence_cache(j, fi);
        self.events.push(AllocEvent::PlansExchanged { i, j });
    }

    // ---- reporting -----------------------------------------------------------

    /// Recomputes the regret decomposition from scratch (cheap: per
    /// advertiser arithmetic only).
    pub fn breakdown(&self) -> RegretBreakdown {
        let mut b = RegretBreakdown::default();
        for (id, adv) in self.instance.advertisers.iter() {
            b.accumulate(adv, self.influences[id.index()], self.instance.gamma);
        }
        b
    }

    /// Recomputes the total regret from per-advertiser caches, bypassing the
    /// incrementally maintained sum (used to bound float drift in tests).
    pub fn recomputed_total_regret(&self) -> f64 {
        self.regrets.iter().sum()
    }

    /// Dual objective `R'(S) = Σ_i R'(S_i)` of Equation 2.
    pub fn dual_revenue(&self) -> f64 {
        self.instance
            .advertisers
            .iter()
            .map(|(id, adv)| crate::regret::dual_revenue(adv, self.influences[id.index()]))
            .sum()
    }

    /// Freezes the deployment into an owned [`Solution`].
    pub fn to_solution(&self) -> Solution {
        let mut sets: Vec<Vec<BillboardId>> = self.sets.clone();
        for s in &mut sets {
            s.sort_unstable();
        }
        Solution {
            sets,
            influences: self.influences.clone(),
            total_regret: self.recomputed_total_regret(),
            breakdown: self.breakdown(),
        }
    }

    /// Debug-only full consistency check: disjoint sets, owner/pos agreement,
    /// counter-derived influences, cached regrets, and every available
    /// billboard either free or owned (masked-out ones neither). Used by
    /// tests.
    pub fn check_invariants(&self) {
        let model = self.instance.model;
        let mut seen = vec![false; model.n_billboards()];
        for (i, set) in self.sets.iter().enumerate() {
            let a = AdvertiserId::from_index(i);
            for (p, &b) in set.iter().enumerate() {
                assert_eq!(self.owner[b.index()], Some(a), "owner desync for {b}");
                assert_eq!(self.pos[b.index()] as usize, p, "pos desync for {b}");
                assert!(!seen[b.index()], "{b} assigned twice");
                seen[b.index()] = true;
            }
            let expected = model.set_influence_measured(set.iter().copied(), self.instance.measure);
            assert_eq!(
                self.influences[i], expected,
                "influence cache desync for {a}"
            );
            let expected_regret = self.regret_at(a, expected);
            assert!(
                (self.regrets[i] - expected_regret).abs() < 1e-9,
                "regret cache desync for {a}"
            );
        }
        for (p, &b) in self.free.iter().enumerate() {
            assert_eq!(self.owner[b.index()], None, "free billboard {b} has owner");
            assert_eq!(self.pos[b.index()] as usize, p, "free pos desync for {b}");
            assert!(!seen[b.index()], "{b} both free and assigned");
            seen[b.index()] = true;
        }
        let mut available = vec![false; model.n_billboards()];
        for b in self.instance.available_ids() {
            available[b.index()] = true;
        }
        for (i, (&s, &avail)) in seen.iter().zip(&available).enumerate() {
            let b = BillboardId::from_index(i);
            if avail {
                assert!(s, "available billboard {b} neither free nor assigned");
            } else {
                assert!(!s, "masked-out billboard {b} is free or assigned");
                assert_eq!(
                    self.pos[i], NONE_POS,
                    "masked-out billboard {b} has a position"
                );
            }
        }
        assert!(
            (self.total_regret - self.recomputed_total_regret()).abs() < 1e-6,
            "total regret drift"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::testutil::{example1_advertisers, example1_model, example1_table1_model, ids};
    use mroam_influence::CoverageModel;
    use proptest::prelude::*;

    #[test]
    fn empty_allocation_regret_is_total_payment() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let alloc = Allocation::new(inst);
        assert_eq!(alloc.total_regret(), 41.0);
        assert_eq!(alloc.free_billboards().len(), 6);
        alloc.check_invariants();
    }

    #[test]
    fn example1_strategy1_regret() {
        // Strategy 1 (Table 3): S1={o2}, S2={o4}, S3={o1,o3,o5,o6}.
        // Influences: 6, 7, 2+7+1+1=11 → a3 demands 8, gets 11? No — Table 3
        // lists I(S_i)−I_i as 1, 0, −1: S3 = {o1, o3, o5, o6} has influence
        // 2+7+1+1 = 11... The paper's table uses o3 influence 7 but S3 shown
        // satisfies N with deficit 1, i.e. I(S3) = 7. Re-reading Table 1:
        // I(o3) = 3 (o3 column reads 3). Keep our own arithmetic: use the
        // actual Table 1 influences 2, 6, 3, 7, 1, 1.
        let model = example1_table1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);

        // Strategy 1: a1←{o2}(I=6), a2←{o4}(I=7), a3←{o1,o3,o5,o6}(I=7<8).
        let alloc = Allocation::from_sets(inst, &[ids(&[1]), ids(&[3]), ids(&[0, 2, 4, 5])]);
        alloc.check_invariants();
        assert_eq!(alloc.influence(AdvertiserId(0)), 6);
        assert_eq!(alloc.influence(AdvertiserId(1)), 7);
        assert_eq!(alloc.influence(AdvertiserId(2)), 7);
        assert!(alloc.is_satisfied(AdvertiserId(0)));
        assert!(alloc.is_satisfied(AdvertiserId(1)));
        assert!(!alloc.is_satisfied(AdvertiserId(2)));
        // a1 over-satisfied by 1/5 → regret 2; a2 exact → 0;
        // a3 unsatisfied 7/8 at γ=0.5 → 20·(1−0.5·7/8) = 11.25.
        let b = alloc.breakdown();
        assert!((b.excessive_influence - 2.0).abs() < 1e-12);
        assert!((b.unsatisfied_penalty - 11.25).abs() < 1e-12);
        assert_eq!(b.n_unsatisfied, 1);

        // Strategy 2: a1←{o1,o3}(I=5), a2←{o4}(I=7), a3←{o2,o5,o6}(I=8) → 0.
        let alloc2 = Allocation::from_sets(inst, &[ids(&[0, 2]), ids(&[3]), ids(&[1, 4, 5])]);
        assert_eq!(alloc2.total_regret(), 0.0);
        alloc2.check_invariants();
    }

    #[test]
    fn assign_release_roundtrip_restores_regret() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        let before = alloc.total_regret();
        alloc.assign(BillboardId(1), AdvertiserId(0));
        alloc.assign(BillboardId(3), AdvertiserId(0));
        alloc.check_invariants();
        alloc.release(BillboardId(1));
        alloc.release(BillboardId(3));
        alloc.check_invariants();
        assert!((alloc.total_regret() - before).abs() < 1e-9);
        assert_eq!(alloc.free_billboards().len(), 6);
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assign_panics() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        alloc.assign(BillboardId(0), AdvertiserId(0));
        alloc.assign(BillboardId(0), AdvertiserId(1));
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn release_of_free_panics() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        Allocation::new(inst).release(BillboardId(0));
    }

    #[test]
    fn masked_pool_holds_only_available_billboards() {
        let model = example1_model();
        let advs = example1_advertisers();
        let avail = ids(&[1, 3, 4]);
        let inst = Instance::new(&model, &advs, 0.5).with_available(&avail);
        let mut alloc = Allocation::new(inst);
        assert_eq!(alloc.free_billboards(), &avail[..]);
        alloc.check_invariants();
        alloc.assign(BillboardId(3), AdvertiserId(0));
        alloc.assign(BillboardId(1), AdvertiserId(2));
        alloc.release(BillboardId(3));
        alloc.check_invariants();
        assert_eq!(alloc.free_billboards().len(), 2);
    }

    #[test]
    #[should_panic(expected = "billboard o2 is not available")]
    fn assigning_a_masked_out_billboard_panics() {
        let model = example1_model();
        let advs = example1_advertisers();
        let avail = ids(&[1, 3]);
        let inst = Instance::new(&model, &advs, 0.5).with_available(&avail);
        Allocation::new(inst).assign(BillboardId(2), AdvertiserId(0));
    }

    #[test]
    #[should_panic(expected = "is not available")]
    fn from_sets_rejects_masked_out_billboards() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5).with_available(&[]);
        let _ = Allocation::from_sets(inst, &[ids(&[0]), ids(&[]), ids(&[])]);
    }

    #[test]
    #[should_panic(expected = "masked-out billboard o0 is free or assigned")]
    fn invariants_reject_a_masked_out_billboard_in_the_pool() {
        let model = example1_model();
        let advs = example1_advertisers();
        let avail = ids(&[1]);
        let inst = Instance::new(&model, &advs, 0.5).with_available(&avail);
        let mut alloc = Allocation::new(inst);
        alloc.push_to_free(BillboardId(0));
        alloc.check_invariants();
    }

    #[test]
    fn eval_cross_swap_matches_commit() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[1]), ids(&[3]), ids(&[0, 2, 4, 5])]);
        let predicted = alloc.eval_cross_swap(BillboardId(1), BillboardId(0));
        let before = alloc.total_regret();
        alloc.cross_swap(BillboardId(1), BillboardId(0));
        alloc.check_invariants();
        assert!((alloc.total_regret() - before - predicted).abs() < 1e-9);
        assert_eq!(alloc.owner_of(BillboardId(1)), Some(AdvertiserId(2)));
        assert_eq!(alloc.owner_of(BillboardId(0)), Some(AdvertiserId(0)));
    }

    #[test]
    fn eval_replace_with_free_matches_commit() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0]), ids(&[]), ids(&[])]);
        let predicted = alloc.eval_replace_with_free(BillboardId(0), BillboardId(1));
        let before = alloc.total_regret();
        alloc.replace_with_free(BillboardId(0), BillboardId(1));
        alloc.check_invariants();
        assert!((alloc.total_regret() - before - predicted).abs() < 1e-9);
        assert_eq!(alloc.owner_of(BillboardId(1)), Some(AdvertiserId(0)));
        assert_eq!(alloc.owner_of(BillboardId(0)), None);
    }

    #[test]
    fn eval_release_matches_commit() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[1, 0]), ids(&[]), ids(&[])]);
        let predicted = alloc.eval_release(BillboardId(0));
        let before = alloc.total_regret();
        alloc.release(BillboardId(0));
        alloc.check_invariants();
        assert!((alloc.total_regret() - before - predicted).abs() < 1e-9);
    }

    #[test]
    fn exchange_plans_matches_eval_and_swaps_everything() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[1]), ids(&[3]), ids(&[0, 4, 5])]);
        let predicted = alloc.eval_exchange_plans(AdvertiserId(0), AdvertiserId(2));
        let before = alloc.total_regret();
        alloc.exchange_plans(AdvertiserId(0), AdvertiserId(2));
        alloc.check_invariants();
        assert!((alloc.total_regret() - before - predicted).abs() < 1e-9);
        assert_eq!(alloc.set_of(AdvertiserId(0)), &ids(&[0, 4, 5])[..]);
        assert_eq!(alloc.set_of(AdvertiserId(2)), &ids(&[1])[..]);
        assert_eq!(alloc.owner_of(BillboardId(1)), Some(AdvertiserId(2)));
    }

    #[test]
    fn release_all_empties_the_set() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(inst, &[ids(&[0, 1, 2]), ids(&[]), ids(&[])]);
        alloc.release_all(AdvertiserId(0));
        alloc.check_invariants();
        assert!(alloc.set_of(AdvertiserId(0)).is_empty());
        assert_eq!(alloc.free_billboards().len(), 6);
        assert_eq!(alloc.influence(AdvertiserId(0)), 0);
    }

    #[test]
    fn overlapping_coverage_influence_is_distinct_count() {
        // Two billboards sharing trajectory 0.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![0, 2]], 3);
        let advs = AdvertiserSet::new(vec![Advertiser::new(3, 9.0)]);
        let inst = Instance::new(&model, &advs, 1.0);
        let mut alloc = Allocation::new(inst);
        alloc.assign(BillboardId(0), AdvertiserId(0));
        assert_eq!(alloc.influence(AdvertiserId(0)), 2);
        alloc.assign(BillboardId(1), AdvertiserId(0));
        assert_eq!(alloc.influence(AdvertiserId(0)), 3); // not 4
        alloc.check_invariants();
    }

    #[test]
    fn event_log_records_every_move() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        assert!(alloc.events().is_empty());
        alloc.assign(BillboardId(0), AdvertiserId(0));
        alloc.assign(BillboardId(1), AdvertiserId(1));
        alloc.release(BillboardId(0));
        alloc.exchange_plans(AdvertiserId(0), AdvertiserId(1));
        // Compound moves decompose into the primitives.
        alloc.assign(BillboardId(2), AdvertiserId(2));
        alloc.replace_with_free(BillboardId(2), BillboardId(3));
        use AllocEvent::*;
        assert_eq!(
            alloc.events(),
            &[
                Assigned {
                    b: BillboardId(0),
                    a: AdvertiserId(0)
                },
                Assigned {
                    b: BillboardId(1),
                    a: AdvertiserId(1)
                },
                Released {
                    b: BillboardId(0),
                    a: AdvertiserId(0)
                },
                PlansExchanged {
                    i: AdvertiserId(0),
                    j: AdvertiserId(1)
                },
                Assigned {
                    b: BillboardId(2),
                    a: AdvertiserId(2)
                },
                Released {
                    b: BillboardId(2),
                    a: AdvertiserId(2)
                },
                Assigned {
                    b: BillboardId(3),
                    a: AdvertiserId(2)
                },
            ]
        );
    }

    #[test]
    fn event_cursors_are_absolute_across_compaction() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        alloc.assign(BillboardId(0), AdvertiserId(0));
        alloc.assign(BillboardId(1), AdvertiserId(1));
        let mid = alloc.event_cursor();
        assert_eq!(mid, 2);
        alloc.release(BillboardId(0));

        // A cursor taken before compaction still addresses the same tail.
        let tail_before: Vec<AllocEvent> = alloc.events_since(mid).to_vec();
        alloc.compact_events(mid);
        assert_eq!(alloc.events_since(mid), &tail_before[..]);
        assert_eq!(alloc.event_cursor(), 3);
        assert_eq!(alloc.events().len(), 1);

        // Compacting to an already-compacted position is a no-op; draining
        // everything empties the live window without moving the cursor
        // backwards.
        alloc.compact_events(mid);
        alloc.compact_events(alloc.event_cursor());
        assert!(alloc.events().is_empty());
        assert_eq!(alloc.event_cursor(), 3);
        assert!(alloc.events_since(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "compacted past observer cursor")]
    fn events_since_panics_below_compacted_base() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        alloc.assign(BillboardId(0), AdvertiserId(0));
        alloc.compact_events(1);
        let _ = alloc.events_since(0);
    }

    #[test]
    fn scratch_clone_skips_the_log_and_continues_the_cursor() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::new(inst);
        alloc.assign(BillboardId(0), AdvertiserId(0));
        alloc.assign(BillboardId(1), AdvertiserId(1));

        let mut clone = alloc.scratch_clone();
        // Same allocation state, empty live log, same absolute cursor — so
        // an observer drained on the parent can adopt the clone and pick up
        // exactly the moves made on it afterwards.
        assert_eq!(clone.total_regret(), alloc.total_regret());
        assert!(clone.events().is_empty());
        assert_eq!(clone.event_cursor(), alloc.event_cursor());
        let adopted_at = alloc.event_cursor();
        clone.assign(BillboardId(2), AdvertiserId(2));
        assert_eq!(
            clone.events_since(adopted_at),
            &[AllocEvent::Assigned {
                b: BillboardId(2),
                a: AdvertiserId(2)
            }]
        );
        clone.check_invariants();
    }

    #[test]
    fn to_solution_sorts_sets() {
        let model = example1_model();
        let advs = example1_advertisers();
        let inst = Instance::new(&model, &advs, 0.5);
        let alloc = Allocation::from_sets(inst, &[ids(&[5, 1, 3]), ids(&[]), ids(&[])]);
        let sol = alloc.to_solution();
        assert_eq!(sol.sets[0], ids(&[1, 3, 5]));
        assert!((sol.total_regret - alloc.total_regret()).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_random_move_sequences_keep_invariants(
            moves in proptest::collection::vec((0u8..4, 0u32..6, 0u32..3), 0..40)
        ) {
            let model = example1_model();
            let advs = example1_advertisers();
            let inst = Instance::new(&model, &advs, 0.5);
            let mut alloc = Allocation::new(inst);
            for (kind, b, a) in moves {
                let b = BillboardId(b);
                let a = AdvertiserId(a);
                match kind {
                    0 => {
                        if alloc.owner_of(b).is_none() {
                            alloc.assign(b, a);
                        }
                    }
                    1 => {
                        if alloc.owner_of(b).is_some() {
                            alloc.release(b);
                        }
                    }
                    2 => {
                        // Cross swap with the first billboard of another owner.
                        if let Some(owner) = alloc.owner_of(b) {
                            let other = alloc
                                .instance()
                                .advertisers
                                .ids()
                                .find(|&x| x != owner && !alloc.set_of(x).is_empty());
                            if let Some(other) = other {
                                let b2 = alloc.set_of(other)[0];
                                let predicted = alloc.eval_cross_swap(b, b2);
                                let before = alloc.total_regret();
                                alloc.cross_swap(b, b2);
                                prop_assert!(
                                    (alloc.total_regret() - before - predicted).abs() < 1e-9
                                );
                            }
                        }
                    }
                    _ => {
                        let j = AdvertiserId((a.0 + 1) % 3);
                        let predicted = alloc.eval_exchange_plans(a, j);
                        let before = alloc.total_regret();
                        alloc.exchange_plans(a, j);
                        prop_assert!(
                            (alloc.total_regret() - before - predicted).abs() < 1e-9
                        );
                    }
                }
                alloc.check_invariants();
            }
        }
    }
}
