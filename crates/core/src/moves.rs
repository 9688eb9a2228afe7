//! The incremental move-evaluation engine behind ALS and BLS local search.
//!
//! PR 1's [`GainEngine`](crate::gain::GainEngine) made greedy *selection*
//! lazy; this module does the same for the local-search *neighbourhoods*.
//! The naive loops (Algorithms 4 and 5) restart every scan from scratch
//! after each accepted move: ALS re-evaluates all `n²` plan exchanges per
//! sweep, and BLS re-walks every (member × member), (member × free) and
//! member candidate list per pass — each candidate at O(coverage-list)
//! cost. Almost all of that work re-proves facts that no committed move
//! has touched. [`MoveEngine`] removes the re-proving while returning
//! **bit-identical** move sequences, through five devices:
//!
//! * **Cached marginals.** Each advertiser caches, per billboard, the
//!   integer that toggling it in the plan moves: a member's unique
//!   contribution `ℓ_a(m) = I(S_a) − I(S_a ∖ {m})`
//!   ([`Allocation::marginal_loss_of`]) and a non-member's marginal gain
//!   `g_a(o) = I(S_a ∪ {o}) − I(S_a)` — integers, not floats. Both are
//!   kept fresh with *overlap-scoped invalidation*: a committed move
//!   touching billboard `b` can only change the counts under `cov(b)`,
//!   so the entries that may drift are `b`'s own and its
//!   [`OverlapGraph`](mroam_influence::OverlapGraph) neighbours' — O(deg)
//!   dirty marks per move, no coverage fan-out. `b`'s own mark also
//!   covers its change of membership, so one cache serves both meanings.
//!   Release evaluation becomes O(1) arithmetic, a re-run swap scan
//!   recounts only the gains a move could have changed, and a swap
//!   between overlap-*disjoint* billboards decomposes exactly as
//!   `Δ = gain(in) − loss(out)` (counts under the incoming coverage are
//!   untouched by removing the outgoing one). These shortcuts are
//!   measure-exact — they rely on counts, not submodularity, so
//!   `Impressions{k ≥ 2}` needs no fallback here.
//! * **Exactly-once bitsets.** Under the Distinct measure, with the
//!   model's [`CoverageBitmap`] within budget, each advertiser also gets
//!   two lazily rebuilt bitsets: `covered` (some plan member covers the
//!   trajectory) and `once` (exactly one does). Swapping member `out` for
//!   non-member `in` then changes the influence by exactly
//!   `gain(in) − loss(out) + |row(out) ∧ row(in) ∧ once|` — the lost
//!   trajectories are `out`'s exactly-once ones minus those `in` covers
//!   too, and the gained ones lie outside `covered`. The correction term
//!   is zero for overlap-disjoint pairs, so this one formula prices every
//!   cross and free swap with one three-operand
//!   [`and3_popcount`](kernel::and3_popcount) instead of a counter merge
//!   walk. It is exact only for Distinct, where a trajectory's value
//!   depends on whether its meet count is zero; the other measures keep
//!   the [`Allocation::eval_cross_swap`] / [`eval_replace_with_free`]
//!   walks for overlapping pairs.
//! * **Best-case pruning.** On the exact path, a swap's exactly-once
//!   correction `k` lies in `[0, min(ℓ(out), I({in}) − g(in))]`, so its
//!   influence change lies in `[g − ℓ, min(g, I({in}) − ℓ)]` — a box
//!   built from prefetched integers alone. Equation 1 is float-monotone
//!   on each side of the demand and 0 at it, so the scans' own float
//!   expression at the box's influence nearest each demand
//!   (`Allocation::cross_swap_bound`, `Allocation::regret_delta_bound`)
//!   is no larger than that of any swap in the box. A pair whose best
//!   case cannot beat the threshold is skipped before the adjacency
//!   probe and the kernel run; so is a whole row (one member against
//!   every candidate), boxed by the row's extreme gains and losses. The
//!   skip is exact: no skipped pair could have been the first improving
//!   one.
//! * **Pair-level dirtiness.** Every scan the naive loops repeat is a
//!   pure function of a small state fingerprint: plan exchanges read the
//!   two advertisers' influences; cross-swap scans read the two
//!   advertisers' plans; free-swap scans additionally read the free pool;
//!   release scans read one plan. The engine tails the allocation's
//!   [`event log`](crate::allocation::AllocEvent) into per-advertiser
//!   plan versions (plus a free-pool *growth* version — a shrinking pool
//!   can only lose candidate pairs, so "nothing improving" certificates
//!   survive assignments) and records a certificate whenever a scan comes
//!   back empty. A pair or advertiser whose fingerprint is unchanged — and
//!   whose recorded acceptance threshold is no looser than the current
//!   one — is skipped in O(1): re-running the scan could only reproduce
//!   the recorded "no move" verdict. After a committed move, exactly the
//!   scans whose fingerprint it touched re-run; in the common case that
//!   is two advertisers out of `n`, and the fixpoint-confirming final
//!   pass over the whole neighbourhood collapses to cert lookups.
//! * **Parallel deterministic scans.** Large scans that do re-run split
//!   across the rayon pool: the cross-swap scan over the rows of its one
//!   pruned row scan, reduced with `find_first` (the first row holding an
//!   improving pair, with that row's first improving column), and the
//!   free-swap scan over the free pool within each row, reduced with
//!   `position_first`. Both keep the *minimum* index, so the committed
//!   move is bit-identical to the sequential first-improvement walk
//!   regardless of thread count or chunk boundaries.
//!
//! Bit-identity holds float-by-float, not just move-by-move: every delta
//! the engine folds is produced by the same expressions the naive
//! evaluations bottom out in ([`Allocation::regret_delta_to`] /
//! [`Allocation::eval_cross_swap_with_deltas`]), fed the same integers,
//! and the bounds evaluate those very expressions.
//! The equivalence property tests below replay ALS and BLS end-to-end
//! against the `naive_scan` twins across measures, regret regimes and
//! demand-boundary crossings and require identical sets and regret.
//!
//! [`eval_replace_with_free`]: Allocation::eval_replace_with_free

use crate::allocation::{AllocEvent, Allocation};
use mroam_data::{AdvertiserId, BillboardId};
use mroam_influence::{kernel, CoverageBitmap};
use rayon::prelude::*;

/// Below this many candidates (cross-swap pairs, or free billboards in a
/// free-swap row) a swap scan stays sequential. A fan-out across cores
/// costs 15–20 µs of wake-up. The split was sized when every candidate
/// paid a full swap delta; since best-case pruning most candidates cost
/// one bound check (two regret evaluations), and only the survivors pay
/// the adjacency probe and the kernel. Measured on a 2-vCPU host at pool
/// width 2 (bench-scale NYC and SG, registry BLS, 3 rounds of 5 solves,
/// round medians): NYC 127–134 ms and SG 226–266 ms with the split,
/// NYC 107–117 ms and SG 223–234 ms without it, against NYC 167 ms and
/// SG 326 ms at width 1. Whether the split still earns its place is for
/// a host with four or more cores to decide. Both paths compute the
/// identical result (minimum-index semantics).
const PAR_SCAN_MIN: usize = 256;

/// Sentinel marking a cached marginal as stale. Real marginals are
/// bounded by the trajectory count and can never reach it.
const DIRTY: u64 = u64::MAX;

/// "This scan found nothing" certificate for a two-advertiser
/// neighbourhood (ALS plan exchange, BLS cross swap), keyed by both plan
/// versions. Version 0 never matches a live version (they start at 1).
#[derive(Debug, Clone, Copy)]
struct PairCert {
    ver_a: u64,
    ver_b: u64,
    /// Acceptance threshold the emptiness was proven at: "all deltas
    /// ≥ −threshold". Valid for any current threshold ≥ this one.
    threshold: f64,
}

impl PairCert {
    const NONE: Self = Self {
        ver_a: 0,
        ver_b: 0,
        threshold: 0.0,
    };
}

/// "This scan found nothing" certificate for a single-advertiser
/// neighbourhood (BLS free swap / release), keyed by the plan version
/// and — for the free swap — the free-pool growth version.
#[derive(Debug, Clone, Copy)]
struct ScanCert {
    ver: u64,
    free_ver: u64,
    threshold: f64,
}

impl ScanCert {
    const NONE: Self = Self {
        ver: 0,
        free_ver: 0,
        threshold: 0.0,
    };
}

/// The incremental move-evaluation engine. Construct once per
/// local-search run over an allocation; every `find_improving_*` answer
/// is bit-identical to its naive counterpart in `als.rs` / `bls.rs`.
#[derive(Debug)]
pub struct MoveEngine {
    /// Absolute event-log position ([`Allocation::event_cursor`]) up to
    /// which versions and loss caches are current.
    cursor: usize,
    /// Whether marginal losses depend on the plan at all (false for
    /// Volume, whose per-trajectory loss is constantly 1 — caches never
    /// go stale).
    overlap_sensitive: bool,
    /// Per-advertiser plan version; bumped on any event touching the
    /// advertiser's set.
    ver: Vec<u64>,
    /// Bumped whenever the free pool *gains* a member (a release). Pool
    /// shrinkage keeps "no improving swap" certificates valid.
    free_add_ver: u64,
    /// ALS move: `exchange_clean[i·n + j]` certifies that exchanging
    /// plans `i` and `j` does not improve.
    exchange_clean: Vec<PairCert>,
    /// BLS move 1: `cross_clean[i·n + j]` certifies that no
    /// (member-of-`i`, member-of-`j`) swap improves.
    cross_clean: Vec<PairCert>,
    /// BLS move 2 certificates, per advertiser.
    free_clean: Vec<ScanCert>,
    /// BLS move 3 certificates, per advertiser.
    release_clean: Vec<ScanCert>,
    /// Per advertiser and billboard `o`: the influence that toggling `o`
    /// in the plan moves — the unique contribution `ℓ_a(o)` of a member,
    /// the marginal gain `g_a(o)` of a non-member — [`DIRTY`]-marked by
    /// overlap-scoped invalidation. An entry changes meaning only when
    /// `o` joins or leaves the plan, and that event dirties it, so one
    /// cache serves losses and gains alike. Allocated on first use.
    marginal: Vec<Vec<u64>>,
    /// Per advertiser: the covered and exactly-once trajectory bitsets of
    /// the plan, sized to the model's [`CoverageBitmap`] rows. They give
    /// the swap scans exact Distinct gains as
    /// `I({o}) − popcount(row(o) ∧ covered)` and exact swap deltas through
    /// the `once` correction term (module docs). Invalidated whole (not
    /// per-bit) on any own-plan move and rebuilt lazily per scan — one
    /// O(|S_a|·words) pass amortised over an O(|S_a|·|free|) scan.
    covered: Vec<CoveredSet>,
}

/// The lazily rebuilt bitsets of one advertiser's plan; see
/// [`MoveEngine::covered`].
#[derive(Debug, Clone, Default)]
struct CoveredSet {
    valid: bool,
    /// Trajectories at least one plan member covers.
    words: Vec<u64>,
    /// Trajectories exactly one plan member covers.
    once: Vec<u64>,
}

impl CoveredSet {
    fn bits<'s>(&'s self, rows: &'s CoverageBitmap) -> PlanBits<'s> {
        PlanBits {
            rows,
            covered: &self.words,
            once: &self.once,
        }
    }
}

/// A scan's read-only view of one advertiser's plan bitsets, on the
/// exact Distinct path.
#[derive(Debug, Clone, Copy)]
struct PlanBits<'s> {
    rows: &'s CoverageBitmap,
    covered: &'s [u64],
    once: &'s [u64],
}

impl PlanBits<'_> {
    /// Exact influence change of swapping plan member `out` for
    /// non-member `inn`, given `inn`'s marginal gain and `out`'s unique
    /// contribution: `gain − loss + |row(out) ∧ row(inn) ∧ once|`.
    /// `adjacent` is whether the two share a trajectory; the correction
    /// is zero when they do not, so the kernel is skipped.
    #[inline]
    fn swap_delta(
        &self,
        gain_in: i64,
        loss_out: i64,
        out: BillboardId,
        inn: BillboardId,
        adjacent: bool,
    ) -> i64 {
        let kept = if adjacent {
            kernel::and3_popcount(self.rows.row(out.0), self.rows.row(inn.0), self.once) as i64
        } else {
            0
        };
        gain_in - loss_out + kept
    }
}

/// The range `[g − ℓ, min(g, I({in}) − ℓ)]` of the exact Distinct
/// influence change of swapping out a member with unique contribution
/// `loss` for a non-member with marginal gain `gain` and individual
/// influence `infl_in`. The exactly-once correction `k` of
/// [`PlanBits::swap_delta`] counts trajectories of `in` that `out` alone
/// covers, so `0 ≤ k ≤ min(ℓ, I({in}) − g)`.
#[inline]
fn swap_range(gain: i64, loss: i64, infl_in: i64) -> (i64, i64) {
    (gain - loss, gain.min(infl_in - loss))
}

/// `(min, max)` of a prefetched column; `(0, 0)` when it is empty (no
/// row is then scanned against it).
fn min_max(values: &[i64]) -> (i64, i64) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    (min, max)
}

impl MoveEngine {
    /// Creates an engine over the allocation's *current* state; moves made
    /// through the allocation afterwards are picked up via its event log.
    pub fn new(alloc: &Allocation<'_>) -> Self {
        let n = alloc.n_advertisers();
        Self {
            cursor: alloc.event_cursor(),
            overlap_sensitive: alloc.instance().measure.overlap_sensitive(),
            ver: vec![1; n],
            free_add_ver: 1,
            exchange_clean: vec![PairCert::NONE; n * n],
            cross_clean: vec![PairCert::NONE; n * n],
            free_clean: vec![ScanCert::NONE; n],
            release_clean: vec![ScanCert::NONE; n],
            marginal: vec![Vec::new(); n],
            covered: vec![CoveredSet::default(); n],
        }
    }

    /// Catches up with the allocation's event log and returns the current
    /// absolute cursor — the position the caller may safely
    /// [`compact_events`](Allocation::compact_events) up to, this engine
    /// being the observer.
    pub fn sync(&mut self, alloc: &Allocation<'_>) -> usize {
        self.drain(alloc);
        self.cursor
    }

    fn drain(&mut self, alloc: &Allocation<'_>) {
        if self.cursor >= alloc.event_cursor() {
            return;
        }
        for ev in alloc.events_since(self.cursor) {
            match *ev {
                AllocEvent::Assigned { b, a } => {
                    self.ver[a.index()] += 1;
                    self.dirty_marginals(alloc, a, b);
                    self.covered[a.index()].valid = false;
                }
                AllocEvent::Released { b, a } => {
                    self.ver[a.index()] += 1;
                    self.free_add_ver += 1;
                    self.dirty_marginals(alloc, a, b);
                    self.covered[a.index()].valid = false;
                }
                AllocEvent::PlansExchanged { i, j } => {
                    self.ver[i.index()] += 1;
                    self.ver[j.index()] += 1;
                    // Counters and sets swapped wholesale: each cached
                    // marginal (and covered bitset) follows its plan to
                    // the other advertiser and stays exact.
                    self.marginal.swap(i.index(), j.index());
                    self.covered.swap(i.index(), j.index());
                }
            }
        }
        self.cursor = alloc.event_cursor();
    }

    /// Overlap-scoped invalidation: assigning or releasing `b` under
    /// advertiser `a` changes `a`'s meet counts only on `cov(b)`, and
    /// `b`'s membership only, so the cached marginals that may drift are
    /// `b`'s own and its overlap-graph neighbours' — O(deg) dirty marks.
    /// Volume marginals are `|cov(o)|` whatever the plan, so they never
    /// go stale.
    fn dirty_marginals(&mut self, alloc: &Allocation<'_>, a: AdvertiserId, b: BillboardId) {
        if !self.overlap_sensitive {
            return;
        }
        let cache = &mut self.marginal[a.index()];
        if cache.is_empty() {
            return;
        }
        cache[b.index()] = DIRTY;
        for &nb in alloc.instance().model.overlap_graph().neighbors(b.0) {
            cache[nb as usize] = DIRTY;
        }
    }

    /// Entry `o` of one advertiser's marginal cache, recomputed through
    /// `compute` only when dirty.
    #[inline]
    fn cached(
        cache: &mut Vec<u64>,
        n_b: usize,
        o: BillboardId,
        compute: impl FnOnce() -> u64,
    ) -> u64 {
        if cache.is_empty() {
            *cache = vec![DIRTY; n_b];
        }
        let slot = &mut cache[o.index()];
        if *slot == DIRTY {
            *slot = compute();
        }
        *slot
    }

    /// Cached unique contribution of plan member `m` of advertiser `a`,
    /// recomputed through [`Allocation::marginal_loss_of`] only when
    /// dirty.
    fn loss_of(&mut self, alloc: &Allocation<'_>, a: AdvertiserId, m: BillboardId) -> u64 {
        let n_b = alloc.instance().model.n_billboards();
        Self::cached(&mut self.marginal[a.index()], n_b, m, || {
            alloc.marginal_loss_of(a, m)
        })
    }

    /// Ensures `a`'s plan bitsets are current and returns the coverage
    /// bitmap when the exact bitmap path is usable at all: the
    /// `I({o}) − popcount` and exactly-once identities only hold for the
    /// Distinct measure (overlap-sensitive *and* submodular), and only
    /// while the model's coverage bitmap is within budget. Stale bitsets
    /// are rebuilt in one pass over the members' rows that tracks "seen"
    /// and "seen twice": `coverage_count > 0` iff some member's row has
    /// the bit, and `coverage_count == 1` iff exactly one does.
    fn refresh_covered<'m>(
        &mut self,
        alloc: &Allocation<'m>,
        a: AdvertiserId,
    ) -> Option<&'m CoverageBitmap> {
        let measure = alloc.instance().measure;
        if !(measure.overlap_sensitive() && measure.is_submodular()) {
            return None;
        }
        let bm = alloc.instance().model.coverage_bitmap()?;
        let slot = &mut self.covered[a.index()];
        let len = bm.words_per_row();
        if slot.valid && slot.words.len() == len {
            return Some(bm);
        }
        // `once` doubles as the seen-twice accumulator until the end.
        let (seen, twice) = (&mut slot.words, &mut slot.once);
        seen.clear();
        seen.resize(len, 0);
        twice.clear();
        twice.resize(len, 0);
        for &m in alloc.set_of(a) {
            for ((s, t), &r) in seen.iter_mut().zip(twice.iter_mut()).zip(bm.row(m.0)) {
                *t |= *s & r;
                *s |= r;
            }
        }
        for (t, &s) in twice.iter_mut().zip(seen.iter()) {
            *t = s & !*t;
        }
        slot.valid = true;
        Some(bm)
    }

    /// Exact Distinct marginal gain of adding free/foreign billboard `f`
    /// to `a`'s plan, choosing per candidate between the kernel popcount
    /// intersection and the counter walk — the same integer either way,
    /// so downstream float deltas are bit-identical.
    #[inline]
    fn gain_of(
        alloc: &Allocation<'_>,
        bits: Option<PlanBits<'_>>,
        a: AdvertiserId,
        f: BillboardId,
    ) -> u64 {
        if let Some(bits) = bits {
            let infl = alloc.instance().model.influence_of(f);
            if infl as usize * 2 >= bits.covered.len() {
                return infl - bits.rows.row_and_popcount(f.0, bits.covered);
            }
        }
        alloc.marginal_gain(a, f)
    }

    /// Prefetches, through `a`'s marginal cache, the unique contributions
    /// of `a`'s plan members `own` and the marginal gains to `a`'s plan of
    /// the non-members `others`. `bits` must be `a`'s current plan
    /// bitsets ([`Self::refresh_covered`]) when the bitmap path is on.
    fn prefetch(
        cache: &mut Vec<u64>,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        bits: Option<PlanBits<'_>>,
        own: &[BillboardId],
        others: &[BillboardId],
    ) -> (Vec<i64>, Vec<i64>) {
        let n_b = alloc.instance().model.n_billboards();
        let losses = own
            .iter()
            .map(|&m| Self::cached(cache, n_b, m, || alloc.marginal_loss_of(a, m)) as i64)
            .collect();
        let gains = others
            .iter()
            .map(|&o| Self::cached(cache, n_b, o, || Self::gain_of(alloc, bits, a, o)) as i64)
            .collect();
        (losses, gains)
    }

    /// The integer influence change the swap scans price swapping `a`'s
    /// plan member `out` for non-member `inn` at, on the exact bitmap
    /// path — the same prefetch helpers and formula the scans use.
    #[cfg(test)]
    fn exact_swap_delta(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        out: BillboardId,
        inn: BillboardId,
    ) -> i64 {
        self.drain(alloc);
        let rows = self
            .refresh_covered(alloc, a)
            .expect("exact bitmap path available");
        let bits = self.covered[a.index()].bits(rows);
        let (loss, gain) = Self::prefetch(
            &mut self.marginal[a.index()],
            alloc,
            a,
            Some(bits),
            &[out],
            &[inn],
        );
        let adjacent = alloc
            .instance()
            .model
            .overlap_graph()
            .are_adjacent(out.0, inn.0);
        bits.swap_delta(gain[0], loss[0], out, inn, adjacent)
    }

    /// Every non-dirty marginal-cache entry equals a fresh recount: the
    /// unique contribution of a member, the marginal gain of a
    /// non-member. Returns how many entries it checked.
    #[cfg(test)]
    fn assert_marginals_exact(&mut self, alloc: &Allocation<'_>) -> usize {
        self.drain(alloc);
        let mut checked = 0;
        for (ai, cache) in self.marginal.iter().enumerate() {
            let a = AdvertiserId::from_index(ai);
            for (o, &v) in cache.iter().enumerate().filter(|&(_, &v)| v != DIRTY) {
                let o = BillboardId::from_index(o);
                let fresh = if alloc.owner_of(o) == Some(a) {
                    alloc.marginal_loss_of(a, o)
                } else {
                    alloc.marginal_gain(a, o)
                };
                assert_eq!(v, fresh, "advertiser {ai}, billboard {o}");
                checked += 1;
            }
        }
        checked
    }

    /// Fills every advertiser's whole marginal cache through the scans'
    /// own prefetch: losses of its members, gains of every other
    /// billboard.
    #[cfg(test)]
    fn fill_marginals(&mut self, alloc: &Allocation<'_>) {
        self.drain(alloc);
        for ai in 0..alloc.n_advertisers() {
            let a = AdvertiserId::from_index(ai);
            let rows = self.refresh_covered(alloc, a);
            let bits = rows.map(|rows| self.covered[ai].bits(rows));
            let others: Vec<BillboardId> = (0..alloc.instance().model.n_billboards())
                .map(BillboardId::from_index)
                .filter(|&o| alloc.owner_of(o) != Some(a))
                .collect();
            Self::prefetch(
                &mut self.marginal[ai],
                alloc,
                a,
                bits,
                alloc.set_of(a),
                &others,
            );
        }
    }

    /// Whether exchanging the whole plans of `i` and `j` (the ALS move)
    /// improves by more than `threshold` — the engine counterpart of
    /// `alloc.eval_exchange_plans(i, j) < -threshold`.
    pub fn exchange_improves(
        &mut self,
        alloc: &Allocation<'_>,
        i: AdvertiserId,
        j: AdvertiserId,
        threshold: f64,
    ) -> bool {
        self.drain(alloc);
        let n = self.ver.len();
        let idx = i.index() * n + j.index();
        let cert = self.exchange_clean[idx];
        if cert.ver_a == self.ver[i.index()]
            && cert.ver_b == self.ver[j.index()]
            && threshold >= cert.threshold
        {
            return false;
        }
        if alloc.eval_exchange_plans(i, j) < -threshold {
            return true;
        }
        self.exchange_clean[idx] = PairCert {
            ver_a: self.ver[i.index()],
            ver_b: self.ver[j.index()],
            threshold,
        };
        false
    }

    /// First (billboard-of-`a`, billboard-of-`b`) pair whose exchange
    /// beats `threshold` (BLS move 1), in the naive scan's
    /// member-order × member-order first-hit position.
    pub fn find_improving_cross_swap(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        b: AdvertiserId,
        threshold: f64,
    ) -> Option<(BillboardId, BillboardId)> {
        self.find_improving_cross_swap_with(alloc, a, b, threshold, PAR_SCAN_MIN)
    }

    pub(crate) fn find_improving_cross_swap_with(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        b: AdvertiserId,
        threshold: f64,
        par_min: usize,
    ) -> Option<(BillboardId, BillboardId)> {
        self.drain(alloc);
        let n = self.ver.len();
        let idx = a.index() * n + b.index();
        let cert = self.cross_clean[idx];
        if cert.ver_a == self.ver[a.index()]
            && cert.ver_b == self.ver[b.index()]
            && threshold >= cert.threshold
        {
            return None;
        }

        // Per-scan prefetch through the marginal caches (O(1) per clean
        // entry): each member's unique contribution to its own plan and
        // marginal gain to the other, and its individual influence.
        let sa: &[BillboardId] = alloc.set_of(a);
        let sb: &[BillboardId] = alloc.set_of(b);
        let rows_a = self.refresh_covered(alloc, a);
        let rows_b = self.refresh_covered(alloc, b);
        let bits_a = rows_a.map(|rows| self.covered[a.index()].bits(rows));
        let bits_b = rows_b.map(|rows| self.covered[b.index()].bits(rows));
        let (loss_a, gain_a_of) =
            Self::prefetch(&mut self.marginal[a.index()], alloc, a, bits_a, sa, sb);
        let (loss_b, gain_b_of) =
            Self::prefetch(&mut self.marginal[b.index()], alloc, b, bits_b, sb, sa);
        let model = alloc.instance().model;
        let infl_a: Vec<i64> = sa.iter().map(|&m| model.influence_of(m) as i64).collect();
        let infl_b: Vec<i64> = sb.iter().map(|&x| model.influence_of(x) as i64).collect();
        let exact = bits_a.zip(bits_b);
        let graph = model.overlap_graph();

        // On the exact path a swap's influence changes lie in boxes built
        // from the prefetched integers alone (`swap_range`), and a pair —
        // or a whole row — whose best case cannot beat the threshold is
        // skipped before the adjacency probe and the kernel. A row is
        // member `m` against every `x ∈ S_b`: Δ_a ∈ [min g_a − ℓ_a(m),
        // max g_a] and Δ_b ∈ [g_b(m) − max ℓ_b, g_b(m)].
        let (gain_a_min, gain_a_max) = min_max(&gain_a_of);
        let loss_b_max = min_max(&loss_b).1;
        let pair_improves = |mi: usize, xi: usize| {
            let (m, x) = (sa[mi], sb[xi]);
            let (ga, la, gb, lb) = (gain_a_of[xi], loss_a[mi], gain_b_of[mi], loss_b[xi]);
            let (di, dj) = match exact {
                Some((ba, bb)) => {
                    let best = alloc.cross_swap_bound(
                        a,
                        b,
                        swap_range(ga, la, infl_b[xi]),
                        swap_range(gb, lb, infl_a[mi]),
                    );
                    if best >= -threshold {
                        return false;
                    }
                    let adjacent = graph.are_adjacent(m.0, x.0);
                    (
                        ba.swap_delta(ga, la, m, x, adjacent),
                        bb.swap_delta(gb, lb, x, m, adjacent),
                    )
                }
                None if graph.are_adjacent(m.0, x.0) => {
                    return alloc.eval_cross_swap(m, x) < -threshold
                }
                None => (ga - la, gb - lb),
            };
            alloc.eval_cross_swap_with_deltas(m, x, di, dj) < -threshold
        };
        // First improving column of row `mi`: the one pruned row scan that
        // both the sequential and the parallel walk below run.
        let scan_row = |mi: usize| {
            if exact.is_some() {
                let (gb, la) = (gain_b_of[mi], loss_a[mi]);
                let best = alloc.cross_swap_bound(
                    a,
                    b,
                    (gain_a_min - la, gain_a_max),
                    (gb - loss_b_max, gb),
                );
                if best >= -threshold {
                    return None;
                }
            }
            (0..sb.len())
                .position(|xi| pair_improves(mi, xi))
                .map(|xi| (mi, xi))
        };
        let hit = if sa.len() * sb.len() < par_min {
            (0..sa.len()).find_map(scan_row)
        } else {
            (0..sa.len())
                .into_par_iter()
                .map(scan_row)
                .find_first(Option::is_some)
                .flatten()
        };
        if let Some((mi, xi)) = hit {
            return Some((sa[mi], sb[xi]));
        }
        self.cross_clean[idx] = PairCert {
            ver_a: self.ver[a.index()],
            ver_b: self.ver[b.index()],
            threshold,
        };
        None
    }

    /// First (assigned, free) pair whose replacement beats `threshold`
    /// (BLS move 2), in the naive member-order × free-order first-hit
    /// position.
    pub fn find_improving_free_swap(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        threshold: f64,
    ) -> Option<(BillboardId, BillboardId)> {
        self.find_improving_free_swap_with(alloc, a, threshold, PAR_SCAN_MIN)
    }

    pub(crate) fn find_improving_free_swap_with(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        threshold: f64,
        par_min: usize,
    ) -> Option<(BillboardId, BillboardId)> {
        self.drain(alloc);
        let cert = self.free_clean[a.index()];
        if cert.ver == self.ver[a.index()]
            && cert.free_ver == self.free_add_ver
            && threshold >= cert.threshold
        {
            return None;
        }
        let sa: &[BillboardId] = alloc.set_of(a);
        let free = alloc.free_billboards();
        let rows = self.refresh_covered(alloc, a);
        let bits = rows.map(|rows| self.covered[a.index()].bits(rows));
        // Each free billboard's gain is read once per scan, not once per
        // member, and recomputed only where a move dirtied it.
        let (losses, gains) =
            Self::prefetch(&mut self.marginal[a.index()], alloc, a, bits, sa, free);
        let model = alloc.instance().model;
        let graph = model.overlap_graph();
        let (gain_min, gain_max) = min_max(&gains);
        for (mi, &m) in sa.iter().enumerate() {
            let loss_m = losses[mi];
            // The row bound: every free swap of `m` changes the influence
            // by a Δ in [min g − ℓ(m), max g].
            if bits.is_some()
                && alloc.regret_delta_bound(a, gain_min - loss_m, gain_max) >= -threshold
            {
                continue;
            }
            let improving = |fi: usize| {
                let (f, gain) = (free[fi], gains[fi]);
                let change = match bits {
                    Some(bits) => {
                        let (lo, hi) = swap_range(gain, loss_m, model.influence_of(f) as i64);
                        if alloc.regret_delta_bound(a, lo, hi) >= -threshold {
                            return false;
                        }
                        bits.swap_delta(gain, loss_m, m, f, graph.are_adjacent(m.0, f.0))
                    }
                    None if graph.are_adjacent(m.0, f.0) => {
                        return alloc.eval_replace_with_free(m, f) < -threshold
                    }
                    None => gain - loss_m,
                };
                alloc.regret_delta_of_change(a, change) < -threshold
            };
            let hit = if free.len() < par_min {
                (0..free.len()).position(improving)
            } else {
                (0..free.len()).into_par_iter().position_first(improving)
            };
            if let Some(fi) = hit {
                return Some((m, free[fi]));
            }
        }
        self.free_clean[a.index()] = ScanCert {
            ver: self.ver[a.index()],
            free_ver: self.free_add_ver,
            threshold,
        };
        None
    }

    /// First member of `a` whose release beats `threshold` (BLS move 3),
    /// evaluated in O(1) per member from the cached unique contributions.
    pub fn find_improving_release(
        &mut self,
        alloc: &Allocation<'_>,
        a: AdvertiserId,
        threshold: f64,
    ) -> Option<BillboardId> {
        self.drain(alloc);
        let cert = self.release_clean[a.index()];
        if cert.ver == self.ver[a.index()] && threshold >= cert.threshold {
            return None;
        }
        let influence = alloc.influence(a);
        for i in 0..alloc.set_of(a).len() {
            let m = alloc.set_of(a)[i];
            let loss = self.loss_of(alloc, a, m);
            if alloc.regret_delta_to(a, influence - loss) < -threshold {
                return Some(m);
            }
        }
        self.release_clean[a.index()] = ScanCert {
            ver: self.ver[a.index()],
            free_ver: 0,
            threshold,
        };
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::{Advertiser, AdvertiserSet};
    use crate::als::{advertiser_local_search, advertiser_local_search_with, Als};
    use crate::bls::{billboard_local_search, Bls};
    use crate::instance::Instance;
    use crate::solver::Solver;
    use mroam_influence::{CoverageCounter, CoverageModel, InfluenceMeasure};
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
            let advertisers = proptest::collection::vec((1u64..40, 1.0..100.0f64), 1..5);
            (lists, Just(n_t), advertisers)
        })
    }

    /// Coverage lists, trajectory count, an owner per billboard
    /// (`>= advertisers.len()` means free) and `(demand, payment)` pairs.
    type WideCase = (Vec<Vec<u32>>, u32, Vec<usize>, Vec<(u64, f64)>);

    /// Models with 1–1,300 trajectories, so bitmap rows span up to 21
    /// words — several 8-word kernel chunks plus ragged tails — with a
    /// random owner per billboard.
    fn arb_wide_instance() -> impl Strategy<Value = WideCase> {
        (1u32..1301).prop_flat_map(|n_t| {
            let lists =
                proptest::collection::vec(proptest::collection::btree_set(0..n_t, 0..200), 2..12)
                    .prop_map(|sets| {
                        sets.into_iter()
                            .map(|s| s.into_iter().collect::<Vec<u32>>())
                            .collect::<Vec<_>>()
                    });
            let owners = proptest::collection::vec(0usize..5, 12);
            let advertisers = proptest::collection::vec((1u64..400, 1.0..100.0f64), 1..4);
            (lists, Just(n_t), owners, advertisers)
        })
    }

    /// γ at both ends of its range and in between.
    fn arb_gamma() -> impl Strategy<Value = f64> {
        (0usize..3, 0.0..=1.0f64).prop_map(|(k, g)| [0.0, g, 1.0][k])
    }

    fn arb_measure() -> impl Strategy<Value = InfluenceMeasure> {
        (0usize..4).prop_map(|i| match i {
            0 => InfluenceMeasure::Distinct,
            1 => InfluenceMeasure::Volume,
            2 => InfluenceMeasure::Impressions { k: 2 },
            _ => InfluenceMeasure::Impressions { k: 3 },
        })
    }

    /// Lockstep oracle: drive the engine's finders against the naive
    /// reference scans on twin allocations, committing every found move
    /// on both, until a full sweep finds nothing. Errors on the first
    /// divergence so proptest reports the case.
    fn replay_moves_in_lockstep(
        naive: &mut Allocation<'_>,
        lazy: &mut Allocation<'_>,
        engine: &mut MoveEngine,
        params: &Bls,
    ) -> Result<(), String> {
        let n = naive.n_advertisers();
        loop {
            let mut moved = false;
            for i in 0..n {
                let a = AdvertiserId::from_index(i);
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let b = AdvertiserId::from_index(j);
                    loop {
                        let threshold = params.threshold(naive.total_regret());
                        let want =
                            crate::bls::naive_find_improving_cross_swap(naive, a, b, threshold);
                        let got = engine.find_improving_cross_swap(lazy, a, b, threshold);
                        if want != got {
                            return Err(format!(
                                "cross swap ({i},{j}): naive {want:?} vs engine {got:?}"
                            ));
                        }
                        match want {
                            Some((m, x)) => {
                                naive.cross_swap(m, x);
                                lazy.cross_swap(m, x);
                                moved = true;
                            }
                            None => break,
                        }
                    }
                }
                loop {
                    let threshold = params.threshold(naive.total_regret());
                    let want = crate::bls::naive_find_improving_free_swap(naive, a, threshold);
                    let got = engine.find_improving_free_swap(lazy, a, threshold);
                    if want != got {
                        return Err(format!("free swap {i}: naive {want:?} vs engine {got:?}"));
                    }
                    match want {
                        Some((m, f)) => {
                            naive.replace_with_free(m, f);
                            lazy.replace_with_free(m, f);
                            moved = true;
                        }
                        None => break,
                    }
                }
                loop {
                    let threshold = params.threshold(naive.total_regret());
                    let want = crate::bls::naive_find_improving_release(naive, a, threshold);
                    let got = engine.find_improving_release(lazy, a, threshold);
                    if want != got {
                        return Err(format!("release {i}: naive {want:?} vs engine {got:?}"));
                    }
                    match want {
                        Some(m) => {
                            naive.release(m);
                            lazy.release(m);
                            moved = true;
                        }
                        None => break,
                    }
                }
            }
            if !moved {
                return Ok(());
            }
        }
    }

    /// The exactly-once identity on multi-word rows: for every (member,
    /// foreign member) and (member, free) pair, overlapping pairs
    /// included, the engine's integer swap delta equals the counter merge
    /// walk on both sides. Then the finders replay against the naive
    /// scans on the same wide model at improvement ratio `ratio`.
    fn check_wide_rows((lists, n_t, owners, advs): WideCase, gamma: f64, ratio: f64) {
        let n_b = lists.len();
        let model = CoverageModel::from_lists(lists, n_t as usize).with_bitmap_budget(usize::MAX);
        let n_a = advs.len();
        let advertisers =
            AdvertiserSet::new(advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect());
        let mut sets = vec![Vec::new(); n_a];
        for (b, &owner) in owners.iter().take(n_b).enumerate() {
            if owner < n_a {
                sets[owner].push(BillboardId::from_index(b));
            }
        }
        let inst = Instance::new(&model, &advertisers, gamma);
        let mut naive = Allocation::from_sets(inst, &sets);
        let mut lazy = Allocation::from_sets(inst, &sets);
        let mut engine = MoveEngine::new(&lazy);
        let counters: Vec<CoverageCounter> = sets
            .iter()
            .map(|set| {
                let mut c = CoverageCounter::dense(n_t as usize);
                for &m in set {
                    c.add(model.coverage(m));
                }
                c
            })
            .collect();
        let walk = |a: usize, out: BillboardId, inn: BillboardId| {
            counters[a].swap_delta(model.coverage(out), model.coverage(inn))
        };
        for a in 0..n_a {
            let aid = AdvertiserId::from_index(a);
            for &m in &sets[a] {
                for b in (0..n_a).filter(|&b| b != a) {
                    let bid = AdvertiserId::from_index(b);
                    for &x in &sets[b] {
                        assert_eq!(engine.exact_swap_delta(&lazy, aid, m, x), walk(a, m, x));
                        assert_eq!(engine.exact_swap_delta(&lazy, bid, x, m), walk(b, x, m));
                    }
                }
                for &f in lazy.free_billboards() {
                    assert_eq!(engine.exact_swap_delta(&lazy, aid, m, f), walk(a, m, f));
                }
            }
        }
        let params = Bls {
            improvement_ratio: ratio,
            ..Bls::default()
        };
        if let Err(msg) = replay_moves_in_lockstep(&mut naive, &mut lazy, &mut engine, &params) {
            panic!("{msg}");
        }
        lazy.check_invariants();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole contract, end to end: MoveEngine-driven ALS and
        /// BLS produce bit-identical solutions (same sets, same regret —
        /// hence the same move sequence) to the naive-scan paths, across
        /// measures, γ regimes and demand-boundary crossings.
        /// Run twice per case: with the coverage bitmap (the exact
        /// bitmap path under Distinct) and with it disabled by a zero
        /// budget, which keeps the counter-walk fallback covered.
        #[test]
        fn solvers_bit_identical_engine_vs_naive(
            (lists, n_t, advs) in arb_instance(),
            gamma in 0.0..=1.0f64,
            measure in arb_measure(),
            ratio in (0usize..2).prop_map(|i| if i == 0 { 0.0 } else { 0.05 }),
        ) {
            let advertisers = AdvertiserSet::new(
                advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect(),
            );
            for budget in [usize::MAX, 0] {
                let model = CoverageModel::from_lists(lists.clone(), n_t as usize)
                    .with_bitmap_budget(budget);
                let inst = Instance::with_measure(&model, &advertisers, gamma, measure);

                let lazy = Bls { restarts: 2, seed: 11, improvement_ratio: ratio, ..Bls::default() }
                    .solve(&inst);
                let naive = Bls {
                    restarts: 2,
                    seed: 11,
                    improvement_ratio: ratio,
                    naive_scan: true,
                    ..Bls::default()
                }
                .solve(&inst);
                prop_assert_eq!(&lazy.sets, &naive.sets, "BLS sets diverge (budget {})", budget);
                prop_assert_eq!(lazy.total_regret, naive.total_regret);

                let lazy = Als { restarts: 2, seed: 11, ..Als::default() }.solve(&inst);
                let naive = Als { restarts: 2, seed: 11, naive_scan: true, ..Als::default() }
                    .solve(&inst);
                prop_assert_eq!(&lazy.sets, &naive.sets, "ALS sets diverge (budget {})", budget);
                prop_assert_eq!(lazy.total_regret, naive.total_regret);
            }
        }

        /// The exactly-once identity on multi-word rows, at γ = 0.5 and
        /// `r = 0`; the ignored `_long` twin below varies both.
        #[test]
        fn exact_swap_deltas_match_counter_walks_on_wide_rows(case in arb_wide_instance()) {
            check_wide_rows(case, 0.5, 0.0);
        }

        /// Finer grain than the end-to-end test: every individual move
        /// the engine's finders return matches the naive scan, move by
        /// move, including after invalidations dirty the caches.
        #[test]
        fn finders_match_naive_move_by_move(
            (lists, n_t, advs) in arb_instance(),
            gamma in 0.0..=1.0f64,
            measure in arb_measure(),
        ) {
            let model = CoverageModel::from_lists(lists, n_t as usize);
            let advertisers = AdvertiserSet::new(
                advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect(),
            );
            let inst = Instance::with_measure(&model, &advertisers, gamma, measure);
            let mut naive = Allocation::new(inst);
            let mut lazy = Allocation::new(inst);
            crate::greedy::synchronous_greedy_naive(&mut naive);
            crate::greedy::synchronous_greedy_naive(&mut lazy);
            let mut engine = MoveEngine::new(&lazy);
            let params = Bls::default();
            if let Err(msg) = replay_moves_in_lockstep(&mut naive, &mut lazy, &mut engine, &params) {
                prop_assert!(false, "{}", msg);
            }
            lazy.check_invariants();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        #[ignore = "long run: CI runs it with --include-ignored"]
        fn exact_swap_deltas_match_counter_walks_on_wide_rows_long(
            case in arb_wide_instance(),
            gamma in arb_gamma(),
            ratio in (0usize..3).prop_map(|i| [0.0, 0.01, 0.05][i]),
        ) {
            check_wide_rows(case, gamma, ratio);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scans' pruning bounds are float-exact lower bounds: at every
        /// point of small integer boxes — straddling, touching or away
        /// from each demand, zero-width included — the exact evaluation is
        /// no lower than the bound, compared without tolerance, and some
        /// point attains it.
        #[test]
        fn best_case_bounds_never_exceed_exact_evaluations(
            sides in proptest::collection::vec(
                (
                    1u64..60,
                    (0usize..4, 0.0..1e4f64).prop_map(|(k, p)| if k == 0 { 0.0 } else { p }),
                    0u32..60,
                    -8i64..8,
                    0i64..6,
                ),
                2,
            ),
            gamma in arb_gamma(),
        ) {
            // Billboard k alone makes up advertiser k's plan.
            let influences: Vec<u32> = sides.iter().map(|s| s.2).collect();
            let model = crate::testutil::disjoint_model(&influences);
            let advs = AdvertiserSet::new(
                sides.iter().map(|&(d, p, ..)| Advertiser::new(d, p)).collect(),
            );
            let inst = Instance::new(&model, &advs, gamma);
            let alloc = Allocation::from_sets(inst, &[vec![BillboardId(0)], vec![BillboardId(1)]]);
            // Box k starts `rel` changes away from the one that reaches
            // the demand, and never below zero influence.
            let boxes: Vec<(i64, i64)> = sides
                .iter()
                .map(|&(d, _, infl, rel, width)| {
                    let lo = (d as i64 - infl as i64 + rel).max(-(infl as i64));
                    (lo, lo + width)
                })
                .collect();
            let (a, b) = (AdvertiserId(0), AdvertiserId(1));
            let (m, x) = (BillboardId(0), BillboardId(1));
            for (k, &(lo, hi)) in boxes.iter().enumerate() {
                let adv = AdvertiserId::from_index(k);
                let bound = alloc.regret_delta_bound(adv, lo, hi);
                let exact: Vec<f64> =
                    (lo..=hi).map(|d| alloc.regret_delta_of_change(adv, d)).collect();
                prop_assert!(exact.iter().all(|&e| bound <= e), "side {}: {} vs {:?}", k, bound, exact);
                prop_assert!(exact.contains(&bound));
            }
            let bound = alloc.cross_swap_bound(a, b, boxes[0], boxes[1]);
            let mut attained = false;
            for di in boxes[0].0..=boxes[0].1 {
                for dj in boxes[1].0..=boxes[1].1 {
                    let exact = alloc.eval_cross_swap_with_deltas(m, x, di, dj);
                    prop_assert!(bound <= exact, "({}, {}): {} vs {}", di, dj, bound, exact);
                    attained |= exact == bound;
                }
            }
            prop_assert!(attained);
        }
    }

    /// Every cached marginal — a member's unique contribution, a
    /// non-member's marginal gain — stays exact across each kind of
    /// committed move: the whole cache is filled before a move and every
    /// entry the move left clean is recounted after it.
    #[test]
    fn cached_marginals_stay_exact_across_moves() {
        // Overlapping chain: billboard b covers {b, b+1, b+3}.
        let lists: Vec<Vec<u32>> = (0..16u32).map(|b| vec![b, b + 1, b + 3]).collect();
        let model = CoverageModel::from_lists(lists, 19);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(9, 14.0),
            Advertiser::new(6, 8.0),
            Advertiser::new(12, 10.0),
        ]);
        for measure in [
            InfluenceMeasure::Distinct,
            InfluenceMeasure::Impressions { k: 2 },
            InfluenceMeasure::Volume,
        ] {
            let inst = Instance::with_measure(&model, &advs, 0.5, measure);
            let mut alloc = Allocation::from_sets(
                inst,
                &[
                    crate::testutil::ids(&[0, 1, 2]),
                    crate::testutil::ids(&[4, 5]),
                    crate::testutil::ids(&[7, 8]),
                ],
            );
            let mut engine = MoveEngine::new(&alloc);
            type Commit = fn(&mut Allocation<'_>);
            let moves: [(&str, Commit); 4] = [
                ("assign", |al| al.assign(BillboardId(3), AdvertiserId(0))),
                ("release", |al| al.release(BillboardId(1))),
                ("cross swap", |al| {
                    al.cross_swap(BillboardId(0), BillboardId(5))
                }),
                ("plan exchange", |al| {
                    al.exchange_plans(AdvertiserId(0), AdvertiserId(2))
                }),
            ];
            for (name, commit) in moves {
                engine.fill_marginals(&alloc);
                commit(&mut alloc);
                assert!(
                    engine.assert_marginals_exact(&alloc) > 0,
                    "{measure:?} {name}"
                );
            }
            // Move 4's adoption: a greedy completion forked from the
            // synced allocation replaces it wholesale.
            engine.fill_marginals(&alloc);
            let fork = engine.sync(&alloc);
            let mut candidate = alloc.scratch_clone();
            crate::greedy::synchronous_greedy(&mut candidate);
            assert!(
                candidate.event_cursor() > fork,
                "{measure:?}: completion assigned nothing"
            );
            alloc = candidate;
            assert!(
                engine.assert_marginals_exact(&alloc) > 0,
                "{measure:?} adoption"
            );
        }
    }

    /// Forced-parallel and forced-sequential scans agree — the
    /// minimum-index reduce makes thread count unobservable, which is the
    /// invariant behind the `RAYON_NUM_THREADS=1` regression test in the
    /// bls module.
    #[test]
    fn parallel_scans_match_sequential() {
        // Chained overlaps so both the adjacent and the disjoint
        // evaluation paths fire.
        let lists: Vec<Vec<u32>> = (0..12u32).map(|b| vec![b, b + 1, b + 2]).collect();
        let model = CoverageModel::from_lists(lists, 14);
        let advs = AdvertiserSet::new(vec![Advertiser::new(9, 14.0), Advertiser::new(6, 8.0)]);
        let inst = Instance::new(&model, &advs, 0.6);
        let mut alloc = Allocation::new(inst);
        crate::greedy::synchronous_greedy(&mut alloc);
        let (a, b) = (AdvertiserId(0), AdvertiserId(1));

        let mut seq_engine = MoveEngine::new(&alloc);
        let mut par_engine = MoveEngine::new(&alloc);
        assert_eq!(
            seq_engine.find_improving_cross_swap_with(&alloc, a, b, 0.0, usize::MAX),
            par_engine.find_improving_cross_swap_with(&alloc, a, b, 0.0, 0),
        );
        assert_eq!(
            seq_engine.find_improving_free_swap_with(&alloc, a, 0.0, usize::MAX),
            par_engine.find_improving_free_swap_with(&alloc, a, 0.0, 0),
        );
    }

    /// Certificates must be invalidated by exactly the moves that can
    /// change a scan's outcome: releasing a billboard re-opens the free
    /// swap, an exchange re-opens both advertisers' pairs.
    #[test]
    fn certificates_invalidate_on_touching_moves() {
        // o0 {0,1}, o1 {1,2}, o2 {3}, o3 {4,5}.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![1, 2], vec![3], vec![4, 5]], 6);
        let advs = AdvertiserSet::new(vec![Advertiser::new(4, 8.0), Advertiser::new(2, 3.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut alloc = Allocation::from_sets(
            inst,
            &[vec![BillboardId(0), BillboardId(1)], vec![BillboardId(2)]],
        );
        let a = AdvertiserId(0);
        let mut engine = MoveEngine::new(&alloc);
        let naive = crate::bls::naive_find_improving_free_swap(&alloc, a, 1e-9);
        assert_eq!(engine.find_improving_free_swap(&alloc, a, 1e-9), naive);
        // Second query with unchanged state: certificate (or identical
        // rescan) must agree with the naive scan again.
        assert_eq!(engine.find_improving_free_swap(&alloc, a, 1e-9), naive);

        // A release by the *other* advertiser grows the free pool; the
        // engine must re-scan and keep matching.
        alloc.release(BillboardId(2));
        assert_eq!(
            engine.find_improving_free_swap(&alloc, a, 1e-9),
            crate::bls::naive_find_improving_free_swap(&alloc, a, 1e-9),
        );

        // An exchange dirties both advertisers' caches wholesale.
        alloc.exchange_plans(AdvertiserId(0), AdvertiserId(1));
        assert_eq!(
            engine.find_improving_release(&alloc, a, 1e-9),
            crate::bls::naive_find_improving_release(&alloc, a, 1e-9),
        );
        assert_eq!(
            engine.find_improving_cross_swap(&alloc, a, AdvertiserId(1), 1e-9),
            crate::bls::naive_find_improving_cross_swap(&alloc, a, AdvertiserId(1), 1e-9),
        );
    }

    /// A certificate proven at threshold t must not be trusted at a
    /// looser (smaller) threshold: shrinking the Definition 6.1 margin
    /// can expose moves the earlier scan lawfully rejected.
    #[test]
    fn tighter_threshold_invalidates_certificate() {
        // One advertiser over-satisfied: releasing o1 improves by a small
        // amount. demand 5, holding 5 + 5 → excessive regret.
        let model = crate::testutil::disjoint_model(&[5, 5]);
        let advs = AdvertiserSet::new(vec![Advertiser::new(5, 10.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let alloc = Allocation::from_sets(inst, &[vec![BillboardId(0), BillboardId(1)]]);
        let a = AdvertiserId(0);
        let improvement = -alloc.eval_release(BillboardId(0));
        assert!(improvement > 0.0);

        let mut engine = MoveEngine::new(&alloc);
        // Proven futile at a threshold above the improvement...
        assert_eq!(
            engine.find_improving_release(&alloc, a, improvement * 2.0),
            None
        );
        // ...must still find the move once the threshold drops below it.
        assert_eq!(
            engine.find_improving_release(&alloc, a, improvement / 2.0),
            Some(BillboardId(0))
        );
    }

    /// The ALS engine path commits the identical exchange sequence.
    #[test]
    fn advertiser_local_search_with_matches_naive() {
        let model = crate::testutil::disjoint_model(&[3, 10, 4, 2]);
        let advs = AdvertiserSet::new(vec![
            Advertiser::new(10, 10.0),
            Advertiser::new(3, 3.0),
            Advertiser::new(4, 6.0),
        ]);
        let inst = Instance::new(&model, &advs, 0.5);
        let sets = [
            vec![BillboardId(0)],
            vec![BillboardId(1)],
            vec![BillboardId(2), BillboardId(3)],
        ];
        let mut naive = Allocation::from_sets(inst, &sets);
        let mut lazy = Allocation::from_sets(inst, &sets);
        let naive_exchanges = advertiser_local_search(&mut naive);
        let mut engine = MoveEngine::new(&lazy);
        let lazy_exchanges = advertiser_local_search_with(&mut lazy, &mut engine);
        assert_eq!(naive_exchanges, lazy_exchanges);
        assert_eq!(naive.total_regret(), lazy.total_regret());
        for i in 0..naive.n_advertisers() {
            let a = AdvertiserId::from_index(i);
            assert_eq!(naive.set_of(a), lazy.set_of(a));
        }
        lazy.check_invariants();
    }

    /// BLS through the public entry point must keep working after the
    /// engine path compacts the event log mid-run (the observers-hold-
    /// cursors contract).
    #[test]
    fn local_search_with_compaction_reaches_naive_fixpoint() {
        let model = CoverageModel::from_lists(
            vec![vec![0, 1, 2], vec![2, 3], vec![4, 5], vec![5, 6], vec![7]],
            8,
        );
        let advs = AdvertiserSet::new(vec![Advertiser::new(6, 12.0), Advertiser::new(3, 5.0)]);
        let inst = Instance::new(&model, &advs, 0.5);
        let mut lazy = Allocation::new(inst);
        let mut naive = Allocation::new(inst);
        crate::greedy::synchronous_greedy(&mut lazy);
        crate::greedy::synchronous_greedy_naive(&mut naive);
        billboard_local_search(&mut lazy, &Bls::default());
        billboard_local_search(
            &mut naive,
            &Bls {
                naive_scan: true,
                ..Bls::default()
            },
        );
        assert_eq!(lazy.total_regret(), naive.total_regret());
        lazy.check_invariants();
    }
}
