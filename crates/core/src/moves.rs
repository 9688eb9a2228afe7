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
//! **bit-identical** move sequences, through four devices:
//!
//! * **Cached unique contributions.** Each assigned billboard's marginal
//!   loss `I(S_a) − I(S_a ∖ {m})` is cached per advertiser
//!   ([`Allocation::marginal_loss_of`] integers, not floats) and kept
//!   fresh with *overlap-scoped invalidation*: a committed move touching
//!   billboard `b` can only change the counts under `a`'s members that
//!   share a trajectory with `b`, i.e. `b`'s
//!   [`OverlapGraph`](mroam_influence::OverlapGraph) neighbours — O(deg)
//!   dirty marks per move, no coverage fan-out. Release evaluation
//!   becomes O(1) arithmetic, and a swap between overlap-*disjoint*
//!   billboards decomposes exactly as `Δ = gain(in) − loss(out)` (counts
//!   under the incoming coverage are untouched by removing the outgoing
//!   one). Both shortcuts are measure-exact — they rely on counts, not
//!   submodularity, so `Impressions{k ≥ 2}` needs no fallback here.
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
//! * **Parallel deterministic scans.** Scans that do re-run evaluate
//!   their candidates on the rayon pool and reduce with
//!   `position_first` — the *minimum* candidate index that improves — so
//!   the committed move is bit-identical to the sequential
//!   first-improvement walk regardless of thread count or chunk
//!   boundaries.
//!
//! Bit-identity holds float-by-float, not just move-by-move: every delta
//! the engine folds is produced by the same expressions the naive
//! evaluations bottom out in ([`Allocation::regret_delta_to`] /
//! [`Allocation::eval_cross_swap_with_deltas`]), fed the same integers.
//! The equivalence property tests below replay ALS and BLS end-to-end
//! against the `naive_scan` twins across measures, regret regimes and
//! demand-boundary crossings and require identical sets and regret.
//!
//! [`eval_replace_with_free`]: Allocation::eval_replace_with_free

use crate::allocation::{AllocEvent, Allocation};
use mroam_data::{AdvertiserId, BillboardId};
use mroam_influence::{kernel, CoverageBitmap};
use rayon::prelude::*;

/// Below this many candidates a swap scan stays sequential. A fan-out
/// across cores costs 15–20 µs of wake-up, but each swap candidate is
/// priced with a swap delta, not an O(1) score, so these scans can repay
/// it where the gain engine's pick scans could not. Measured on a 2-vCPU
/// host at pool width 2 (bench-scale NYC and SG, BLS, 3 rounds of 5
/// solves): splitting the cross-swap scan, the free-swap scan, both or
/// neither from 256 candidates gave BLS medians within run-to-run noise
/// of each other (NYC 387–528 ms, SG 535–811 ms), all faster than at
/// width 1 (NYC 661–684 ms, SG 844–1,240 ms). Both paths compute the
/// identical result (minimum-index semantics).
const PAR_SCAN_MIN: usize = 256;

/// Sentinel marking a cached unique contribution as stale. Real losses
/// are bounded by the trajectory count and can never reach it.
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
    /// Per advertiser: cached unique contribution (marginal loss) per
    /// billboard, [`DIRTY`]-marked by overlap-scoped invalidation.
    /// Allocated on first use; entries are only meaningful for current
    /// plan members.
    loss: Vec<Vec<u64>>,
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
            loss: vec![Vec::new(); n],
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
                    self.dirty_losses(alloc, a, b);
                    self.covered[a.index()].valid = false;
                }
                AllocEvent::Released { b, a } => {
                    self.ver[a.index()] += 1;
                    self.free_add_ver += 1;
                    self.dirty_losses(alloc, a, b);
                    self.covered[a.index()].valid = false;
                }
                AllocEvent::PlansExchanged { i, j } => {
                    self.ver[i.index()] += 1;
                    self.ver[j.index()] += 1;
                    // Counters and sets swapped wholesale: each cached
                    // loss (and covered bitset) follows its plan to the
                    // other advertiser and stays exact.
                    self.loss.swap(i.index(), j.index());
                    self.covered.swap(i.index(), j.index());
                }
            }
        }
        self.cursor = alloc.event_cursor();
    }

    /// Overlap-scoped invalidation: assigning or releasing `b` under
    /// advertiser `a` changes `a`'s meet counts only on `cov(b)`, so the
    /// unique contributions that may drift are `b`'s own and its
    /// overlap-graph neighbours' — O(deg) dirty marks.
    fn dirty_losses(&mut self, alloc: &Allocation<'_>, a: AdvertiserId, b: BillboardId) {
        if !self.overlap_sensitive {
            return;
        }
        let cache = &mut self.loss[a.index()];
        if cache.is_empty() {
            return;
        }
        cache[b.index()] = DIRTY;
        for &nb in alloc.instance().model.overlap_graph().neighbors(b.0) {
            cache[nb as usize] = DIRTY;
        }
    }

    /// Cached unique contribution of plan member `m` of advertiser `a`,
    /// recomputed through [`Allocation::marginal_loss_of`] only when
    /// dirty.
    fn loss_of(&mut self, alloc: &Allocation<'_>, a: AdvertiserId, m: BillboardId) -> u64 {
        let cache = &mut self.loss[a.index()];
        if cache.is_empty() {
            *cache = vec![DIRTY; alloc.instance().model.n_billboards()];
        }
        let v = cache[m.index()];
        if v != DIRTY {
            return v;
        }
        let loss = alloc.marginal_loss_of(a, m);
        self.loss[a.index()][m.index()] = loss;
        loss
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
        let loss = self.loss_of(alloc, a, out) as i64;
        let rows = self
            .refresh_covered(alloc, a)
            .expect("exact bitmap path available");
        let bits = self.covered[a.index()].bits(rows);
        let gain = Self::gain_of(alloc, Some(bits), a, inn) as i64;
        let adjacent = alloc
            .instance()
            .model
            .overlap_graph()
            .are_adjacent(out.0, inn.0);
        bits.swap_delta(gain, loss, out, inn, adjacent)
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

        // Per-scan prefetch: unique contributions (cached, O(1) when
        // clean) and cross-plan marginal gains (one evaluation per
        // member, not one per pair). A disjoint pair's deltas then fold
        // in O(1), an overlapping pair's with two exactly-once kernel
        // passes (a counter merge walk for non-Distinct measures and
        // over-budget bitmaps).
        let sa: &[BillboardId] = alloc.set_of(a);
        let sb: &[BillboardId] = alloc.set_of(b);
        let loss_a: Vec<i64> = sa
            .iter()
            .map(|&m| self.loss_of(alloc, a, m) as i64)
            .collect();
        let loss_b: Vec<i64> = sb
            .iter()
            .map(|&x| self.loss_of(alloc, b, x) as i64)
            .collect();
        let rows_a = self.refresh_covered(alloc, a);
        let rows_b = self.refresh_covered(alloc, b);
        let bits_a = rows_a.map(|rows| self.covered[a.index()].bits(rows));
        let bits_b = rows_b.map(|rows| self.covered[b.index()].bits(rows));
        let gain_a_of: Vec<i64> = sb
            .iter()
            .map(|&x| Self::gain_of(alloc, bits_a, a, x) as i64)
            .collect();
        let gain_b_of: Vec<i64> = sa
            .iter()
            .map(|&m| Self::gain_of(alloc, bits_b, b, m) as i64)
            .collect();
        let exact = bits_a.zip(bits_b);
        let graph = alloc.instance().model.overlap_graph();

        let nb = sb.len();
        let total = sa.len() * nb;
        let improving = |p: usize| {
            let (mi, xi) = (p / nb, p % nb);
            let (m, x) = (sa[mi], sb[xi]);
            let adjacent = graph.are_adjacent(m.0, x.0);
            let (di, dj) = match exact {
                Some((ba, bb)) => (
                    ba.swap_delta(gain_a_of[xi], loss_a[mi], m, x, adjacent),
                    bb.swap_delta(gain_b_of[mi], loss_b[xi], x, m, adjacent),
                ),
                None if adjacent => return alloc.eval_cross_swap(m, x) < -threshold,
                None => (gain_a_of[xi] - loss_a[mi], gain_b_of[mi] - loss_b[xi]),
            };
            alloc.eval_cross_swap_with_deltas(m, x, di, dj) < -threshold
        };
        let hit = if total < par_min {
            (0..total).position(improving)
        } else {
            (0..total).into_par_iter().position_first(improving)
        };
        if let Some(p) = hit {
            return Some((sa[p / nb], sb[p % nb]));
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
        let losses: Vec<i64> = sa
            .iter()
            .map(|&m| self.loss_of(alloc, a, m) as i64)
            .collect();
        let rows = self.refresh_covered(alloc, a);
        let bits = rows.map(|rows| self.covered[a.index()].bits(rows));
        let graph = alloc.instance().model.overlap_graph();
        let free = alloc.free_billboards();
        for (mi, &m) in sa.iter().enumerate() {
            let loss_m = losses[mi];
            let improving = |&f: &BillboardId| {
                let adjacent = graph.are_adjacent(m.0, f.0);
                let change = match bits {
                    Some(bits) => {
                        let gain = Self::gain_of(alloc, Some(bits), a, f) as i64;
                        bits.swap_delta(gain, loss_m, m, f, adjacent)
                    }
                    None if adjacent => return alloc.eval_replace_with_free(m, f) < -threshold,
                    None => alloc.marginal_gain(a, f) as i64 - loss_m,
                };
                alloc.regret_delta_of_change(a, change) < -threshold
            };
            let hit = if free.len() < par_min {
                free.iter().position(improving)
            } else {
                free.par_iter().position_first(improving)
            };
            if let Some(p) = hit {
                return Some((m, free[p]));
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

    /// Models with 1–1,300 trajectories, so bitmap rows span up to 21
    /// words — several 8-word kernel chunks plus ragged tails — with a
    /// random owner per billboard (`>= advertisers.len()` means free).
    #[allow(clippy::type_complexity)]
    fn arb_wide_instance(
    ) -> impl Strategy<Value = (Vec<Vec<u32>>, u32, Vec<usize>, Vec<(u64, f64)>)> {
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

        /// The exactly-once identity on multi-word rows: for every
        /// (member, foreign member) and (member, free) pair, overlapping
        /// pairs included, the engine's integer swap delta equals the
        /// counter merge walk on both sides. Then the finders replay
        /// against the naive scans on the same wide model.
        #[test]
        fn exact_swap_deltas_match_counter_walks_on_wide_rows(
            (lists, n_t, owners, advs) in arb_wide_instance(),
        ) {
            let n_b = lists.len();
            let model = CoverageModel::from_lists(lists, n_t as usize)
                .with_bitmap_budget(usize::MAX);
            let n_a = advs.len();
            let advertisers = AdvertiserSet::new(
                advs.iter().map(|&(d, p)| Advertiser::new(d, p)).collect(),
            );
            let mut sets = vec![Vec::new(); n_a];
            for (b, &owner) in owners.iter().take(n_b).enumerate() {
                if owner < n_a {
                    sets[owner].push(BillboardId::from_index(b));
                }
            }
            let inst = Instance::new(&model, &advertisers, 0.5);
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
                            prop_assert_eq!(engine.exact_swap_delta(&lazy, aid, m, x), walk(a, m, x));
                            prop_assert_eq!(engine.exact_swap_delta(&lazy, bid, x, m), walk(b, x, m));
                        }
                    }
                    for &f in lazy.free_billboards() {
                        prop_assert_eq!(engine.exact_swap_delta(&lazy, aid, m, f), walk(a, m, f));
                    }
                }
            }
            let params = Bls::default();
            if let Err(msg) = replay_moves_in_lockstep(&mut naive, &mut lazy, &mut engine, &params) {
                prop_assert!(false, "{}", msg);
            }
            lazy.check_invariants();
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
