//! The coverage model: everything the MROAM algorithms need to evaluate
//! influence, packaged immutably.

use crate::meets;
use mroam_data::{BillboardId, BillboardStore, Col, TrajectoryStore};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Below this many total coverage entries the derived-structure builds stay
/// serial. Shards are work-stealing pool jobs (a deque push each, not an
/// OS thread), so the break-even sits 4× lower than under the old
/// thread-per-shard stub.
const PARALLEL_BUILD_MIN_ITEMS: usize = 1 << 12;

/// Read-only access to per-billboard coverage lists.
///
/// Implemented by plain `Vec<Vec<u32>>`/`[Vec<u32>]` inputs (the meets
/// output, tests, benches) *and* by the CSR-packed [`CoverageLists`] a
/// model actually stores — so every derived-structure build runs unchanged
/// on either representation, including mmap-backed CSRs.
pub trait CovSource: Sync {
    /// Number of billboards (lists).
    fn n_lists(&self) -> usize;
    /// The sorted trajectory ids of billboard `b`.
    fn list(&self, b: usize) -> &[u32];
    /// Total entries across all lists.
    fn total_entries(&self) -> usize {
        (0..self.n_lists()).map(|b| self.list(b).len()).sum()
    }
}

impl CovSource for [Vec<u32>] {
    fn n_lists(&self) -> usize {
        self.len()
    }
    fn list(&self, b: usize) -> &[u32] {
        &self[b]
    }
    fn total_entries(&self) -> usize {
        self.iter().map(Vec::len).sum()
    }
}

impl CovSource for Vec<Vec<u32>> {
    fn n_lists(&self) -> usize {
        self.len()
    }
    fn list(&self, b: usize) -> &[u32] {
        &self[b]
    }
    fn total_entries(&self) -> usize {
        self.iter().map(Vec::len).sum()
    }
}

/// A contiguous sub-range view of another source (what the sharded builds
/// hand each worker, replacing `&cov[range]` slicing).
struct SubLists<'a, L: CovSource + ?Sized> {
    src: &'a L,
    base: usize,
    len: usize,
}

impl<L: CovSource + ?Sized> CovSource for SubLists<'_, L> {
    fn n_lists(&self) -> usize {
        self.len
    }
    fn list(&self, b: usize) -> &[u32] {
        debug_assert!(b < self.len);
        self.src.list(self.base + b)
    }
}

/// The per-billboard coverage lists in CSR form: one flat entry column and
/// an offsets column, each an owned-or-mapped [`Col`]. This is the
/// representation a [`CoverageModel`] stores — heap-built models own their
/// columns; models opened from a model file with the mmap loader view
/// them zero-copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageLists {
    /// `offsets[b]..offsets[b+1]` indexes `data` for billboard `b`.
    offsets: Col<u64>,
    /// Trajectory ids, ascending within each billboard's slice.
    data: Col<u32>,
}

impl CoverageLists {
    /// Packs nested lists into CSR form.
    pub fn from_lists(lists: Vec<Vec<u32>>) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0u64);
        let mut data = Vec::with_capacity(total);
        for list in &lists {
            data.extend_from_slice(list);
            offsets.push(data.len() as u64);
        }
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Wraps raw CSR columns (storage decode / mmap views). The caller
    /// guarantees monotone offsets and sorted in-range slices; the storage
    /// layer validates before calling.
    pub(crate) fn from_cols(offsets: Col<u64>, data: Col<u32>) -> Self {
        Self { offsets, data }
    }

    /// Number of billboards.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether there are no billboards.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted trajectory ids of billboard `b`.
    #[inline]
    pub fn list(&self, b: usize) -> &[u32] {
        let lo = self.offsets[b] as usize;
        let hi = self.offsets[b + 1] as usize;
        &self.data[lo..hi]
    }

    /// Iterates the lists in billboard-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|b| self.list(b))
    }

    /// Total entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Copies out to nested lists (tests, benches, incremental merges).
    pub fn to_vec(&self) -> Vec<Vec<u32>> {
        self.iter().map(<[u32]>::to_vec).collect()
    }

    /// The raw offsets column (storage encode).
    pub(crate) fn offset_column(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw entry column (storage encode).
    pub(crate) fn entry_column(&self) -> &[u32] {
        &self.data
    }

    /// Anonymous heap bytes held by the columns.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.data.heap_bytes()
    }

    /// Bytes viewed through file mappings.
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.data.mapped_bytes()
    }

    /// Whether any column is a mapped view.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.data.is_mapped()
    }
}

impl CovSource for CoverageLists {
    fn n_lists(&self) -> usize {
        self.len()
    }
    fn list(&self, b: usize) -> &[u32] {
        CoverageLists::list(self, b)
    }
    fn total_entries(&self) -> usize {
        CoverageLists::total_entries(self)
    }
}

/// Partitions billboards `0..cov.n_lists()` into at most `n_shards`
/// contiguous ranges of roughly equal total coverage-list length (each
/// empty list still counts 1 so degenerate inputs spread too). Used by the
/// parallel builds: contiguous ranges keep every shard's output a
/// contiguous region of the final CSR arrays.
fn shard_ranges<L: CovSource + ?Sized>(cov: &L, n_shards: usize) -> Vec<Range<usize>> {
    let n = cov.n_lists();
    if n == 0 {
        return Vec::new();
    }
    let n_shards = n_shards.clamp(1, n);
    let total: usize = (0..n).map(|b| cov.list(b).len().max(1)).sum();
    let target = total.div_ceil(n_shards);
    let mut ranges = Vec::with_capacity(n_shards);
    let (mut start, mut acc) = (0usize, 0usize);
    for b in 0..n {
        acc += cov.list(b).len().max(1);
        if acc >= target {
            ranges.push(start..b + 1);
            start = b + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// Partitions trajectories `0..n_trajectories` into at most `n_parts`
/// contiguous ranges of roughly equal CSR data volume, judged by the
/// (already prefix-summed) `offsets`. Mirrors [`shard_ranges`] on the
/// transpose side.
fn trajectory_ranges(offsets: &[u64], n_parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let n_parts = n_parts.clamp(1, n);
    let total = (*offsets.last().unwrap() as usize).max(n);
    let target = total.div_ceil(n_parts);
    let mut ranges = Vec::with_capacity(n_parts);
    let (mut start, mut acc) = (0usize, 0usize);
    for t in 0..n {
        acc += ((offsets[t + 1] - offsets[t]) as usize).max(1);
        if acc >= target {
            ranges.push(start..t + 1);
            start = t + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
}

/// The transpose of the meets relation: for every trajectory, the sorted
/// billboard ids that influence it, packed in CSR (offsets + flat data)
/// form.
///
/// This is what makes *overlap-aware invalidation* cheap: when a billboard
/// `o` changes hands, the set of billboards whose cached marginal gains may
/// have changed is exactly `⋃_{t ∈ cov(o)} billboards_covering(t)` — walked
/// here in O(output) instead of re-deriving it from the forward lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    /// `offsets[t]..offsets[t+1]` indexes `data` for trajectory `t`.
    offsets: Col<u64>,
    /// Billboard ids, ascending within each trajectory's slice.
    data: Col<u32>,
}

impl InvertedIndex {
    /// Builds the transpose, choosing the parallel scheme when the pool
    /// and the input are both big enough. Serial and parallel builds are
    /// bit-identical (property-tested below), so the choice only affects
    /// wall-clock time.
    pub fn build<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        let total = cov.total_entries();
        if rayon::current_num_threads() > 1 && total >= PARALLEL_BUILD_MIN_ITEMS {
            Self::build_parallel(cov, n_trajectories)
        } else {
            Self::build_serial(cov, n_trajectories)
        }
    }

    /// The reference single-threaded build: counting pass, prefix sum,
    /// billboard-order scatter. Public so benches and property tests can
    /// pin the parallel build against it.
    pub fn build_serial<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        let n_b = cov.n_lists();
        let mut counts = vec![0u64; n_trajectories + 1];
        for b in 0..n_b {
            for &t in cov.list(b) {
                counts[t as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut next = offsets.clone();
        let mut data = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        // Billboards are visited in ascending id order, so each trajectory's
        // slice comes out sorted without an explicit sort pass.
        for b in 0..n_b {
            for &t in cov.list(b) {
                data[next[t as usize] as usize] = b as u32;
                next[t as usize] += 1;
            }
        }
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// The multithreaded build: per-shard counting (each shard transposes
    /// a contiguous billboard range on its own thread), a serial prefix
    /// sum over the per-trajectory totals, then a parallel stitch that
    /// hands each thread a disjoint trajectory range of the output array.
    /// Within one trajectory's slice the shards are concatenated in shard
    /// order and shard-local ids rebased, which reproduces the serial
    /// billboard-ascending order exactly.
    pub fn build_parallel<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        Self::build_parallel_with(cov, n_trajectories, rayon::current_num_threads())
    }

    /// [`build_parallel`](Self::build_parallel) with an explicit shard
    /// count, so tests and benches can force the sharded path regardless
    /// of pool width.
    pub fn build_parallel_with<L: CovSource + ?Sized>(
        cov: &L,
        n_trajectories: usize,
        n_shards: usize,
    ) -> Self {
        let shards = shard_ranges(cov, n_shards);
        if shards.len() <= 1 {
            return Self::build_serial(cov, n_trajectories);
        }

        // Pass 1: shard-local transposes (ids local to the shard's range).
        let mut locals: Vec<Option<InvertedIndex>> = (0..shards.len()).map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, range) in locals.iter_mut().zip(&shards) {
                let range = range.clone();
                s.spawn(move |_| {
                    let view = SubLists {
                        src: cov,
                        base: range.start,
                        len: range.len(),
                    };
                    *slot = Some(InvertedIndex::build_serial(&view, n_trajectories));
                });
            }
        });
        let locals: Vec<InvertedIndex> = locals.into_iter().map(Option::unwrap).collect();

        // Pass 2: global offsets from the per-shard slice lengths.
        let mut offsets = vec![0u64; n_trajectories + 1];
        for t in 0..n_trajectories {
            let total: u64 = locals.iter().map(|l| l.offsets[t + 1] - l.offsets[t]).sum();
            offsets[t + 1] = offsets[t] + total;
        }

        // Pass 3: parallel stitch into disjoint output regions, one
        // contiguous trajectory range per task.
        let mut data = vec![0u32; *offsets.last().unwrap() as usize];
        let t_ranges = trajectory_ranges(&offsets, shards.len());
        rayon::scope(|s| {
            let mut rest: &mut [u32] = &mut data;
            for tr in &t_ranges {
                let len = (offsets[tr.end] - offsets[tr.start]) as usize;
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                let (locals, shards, tr) = (&locals, &shards, tr.clone());
                s.spawn(move |_| {
                    let mut out = head;
                    for t in tr {
                        for (local, shard) in locals.iter().zip(shards) {
                            let lo = local.offsets[t] as usize;
                            let hi = local.offsets[t + 1] as usize;
                            let (dst, next) = out.split_at_mut(hi - lo);
                            for (d, &b) in dst.iter_mut().zip(&local.data[lo..hi]) {
                                *d = b + shard.start as u32;
                            }
                            out = next;
                        }
                    }
                });
            }
        });
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Reassembles an index from raw CSR parts (storage decode). The
    /// caller guarantees the invariants (monotone offsets, sorted slices);
    /// the storage layer validates ids against the model dimensions.
    pub(crate) fn from_raw(offsets: Vec<u64>, data: Vec<u32>) -> Self {
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Wraps CSR columns directly (storage decode: owned copies or mmap
    /// views).
    pub(crate) fn from_cols(offsets: Col<u64>, data: Col<u32>) -> Self {
        Self { offsets, data }
    }

    /// The raw offsets column (storage encode).
    pub(crate) fn offset_column(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw entry column (storage encode).
    pub(crate) fn entry_column(&self) -> &[u32] {
        &self.data
    }

    /// Anonymous heap bytes held by the columns.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.data.heap_bytes()
    }

    /// Bytes viewed through file mappings.
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.data.mapped_bytes()
    }

    /// Number of trajectories indexed.
    pub fn n_trajectories(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Sorted billboard ids influencing trajectory `t`.
    #[inline]
    pub fn billboards_covering(&self, t: u32) -> &[u32] {
        let lo = self.offsets[t as usize] as usize;
        let hi = self.offsets[t as usize + 1] as usize;
        &self.data[lo..hi]
    }
}

/// The billboard-level overlap graph: `b` and `c` are neighbours iff they
/// share at least one trajectory. Packed in CSR form, self-edges excluded,
/// neighbour lists sorted ascending.
///
/// This is the coarsening of the [`InvertedIndex`] the lazy gain engine
/// maintains its zero-overlap sets with: whether a candidate's marginal
/// gain equals its full individual influence only depends on *whether* it
/// shares a trajectory with the advertiser's plan, never on how many — so
/// one counter bump per neighbour (O(deg) per move) replaces a
/// per-trajectory fan-out walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlapGraph {
    /// `offsets[b]..offsets[b+1]` indexes `data` for billboard `b`.
    offsets: Col<u64>,
    /// Neighbour billboard ids, ascending within each billboard's slice.
    data: Col<u32>,
}

impl OverlapGraph {
    /// Builds the overlap graph, choosing the parallel scheme when the
    /// pool and the input are both big enough. Serial and parallel builds
    /// are bit-identical (property-tested below).
    pub fn build<L: CovSource + ?Sized>(cov: &L, inv: &InvertedIndex) -> Self {
        let total = cov.total_entries();
        if rayon::current_num_threads() > 1 && total >= PARALLEL_BUILD_MIN_ITEMS {
            Self::build_parallel(cov, inv)
        } else {
            Self::build_serial(cov, inv)
        }
    }

    /// The reference single-threaded build: one `seen`-bitmap sweep per
    /// billboard over its trajectories' inverted slices. Public so benches
    /// and property tests can pin the parallel build against it.
    pub fn build_serial<L: CovSource + ?Sized>(cov: &L, inv: &InvertedIndex) -> Self {
        let n_b = cov.n_lists();
        let mut offsets = Vec::with_capacity(n_b + 1);
        offsets.push(0u64);
        let mut data = Vec::new();
        let mut seen = vec![false; n_b];
        let mut scratch: Vec<u32> = Vec::new();
        for b in 0..n_b {
            scratch.clear();
            for &t in cov.list(b) {
                for &c in inv.billboards_covering(t) {
                    if c as usize != b && !seen[c as usize] {
                        seen[c as usize] = true;
                        scratch.push(c);
                    }
                }
            }
            scratch.sort_unstable();
            for &c in &scratch {
                seen[c as usize] = false;
            }
            data.extend_from_slice(&scratch);
            offsets.push(data.len() as u64);
        }
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// The multithreaded build. Pass 1 runs neighbour discovery for a
    /// contiguous billboard shard per thread — each with its own `seen`
    /// bitmap and scratch vector, emitting per-billboard degrees plus the
    /// shard's concatenated sorted neighbour lists. Pass 2 prefix-sums the
    /// degrees into global offsets. Pass 3 copies every shard's block into
    /// its (contiguous, disjoint) region of the output array in parallel.
    pub fn build_parallel<L: CovSource + ?Sized>(cov: &L, inv: &InvertedIndex) -> Self {
        Self::build_parallel_with(cov, inv, rayon::current_num_threads())
    }

    /// [`build_parallel`](Self::build_parallel) with an explicit shard
    /// count, so tests and benches can force the sharded path regardless
    /// of pool width.
    pub fn build_parallel_with<L: CovSource + ?Sized>(
        cov: &L,
        inv: &InvertedIndex,
        n_shards: usize,
    ) -> Self {
        let n_b = cov.n_lists();
        let shards = shard_ranges(cov, n_shards);
        if shards.len() <= 1 {
            return Self::build_serial(cov, inv);
        }

        // Pass 1: per-shard discovery with thread-local seen/scratch.
        let mut parts: Vec<Option<(Vec<u32>, Vec<u32>)>> =
            (0..shards.len()).map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, range) in parts.iter_mut().zip(&shards) {
                let range = range.clone();
                s.spawn(move |_| {
                    let mut seen = vec![false; n_b];
                    let mut scratch: Vec<u32> = Vec::new();
                    let mut degrees = Vec::with_capacity(range.len());
                    let mut block: Vec<u32> = Vec::new();
                    for b in range {
                        scratch.clear();
                        for &t in cov.list(b) {
                            for &c in inv.billboards_covering(t) {
                                if c as usize != b && !seen[c as usize] {
                                    seen[c as usize] = true;
                                    scratch.push(c);
                                }
                            }
                        }
                        scratch.sort_unstable();
                        for &c in &scratch {
                            seen[c as usize] = false;
                        }
                        degrees.push(scratch.len() as u32);
                        block.extend_from_slice(&scratch);
                    }
                    *slot = Some((degrees, block));
                });
            }
        });
        let parts: Vec<(Vec<u32>, Vec<u32>)> = parts.into_iter().map(Option::unwrap).collect();

        // Pass 2: global offsets from the concatenated degree sequences.
        let mut offsets = Vec::with_capacity(n_b + 1);
        offsets.push(0u64);
        let mut running = 0u64;
        for (degrees, _) in &parts {
            for &d in degrees {
                running += u64::from(d);
                offsets.push(running);
            }
        }

        // Pass 3: parallel fill — shard blocks land in contiguous,
        // disjoint slices of the output, in shard order.
        let mut data = vec![0u32; running as usize];
        rayon::scope(|s| {
            let mut rest: &mut [u32] = &mut data;
            for (_, block) in &parts {
                let (head, tail) = rest.split_at_mut(block.len());
                rest = tail;
                s.spawn(move |_| head.copy_from_slice(block));
            }
        });
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Reassembles a graph from raw CSR parts (storage decode); see
    /// [`InvertedIndex::from_raw`].
    pub(crate) fn from_raw(offsets: Vec<u64>, data: Vec<u32>) -> Self {
        Self {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Wraps CSR columns directly (storage decode: owned copies or mmap
    /// views).
    pub(crate) fn from_cols(offsets: Col<u64>, data: Col<u32>) -> Self {
        Self { offsets, data }
    }

    /// The raw offsets column (storage encode).
    pub(crate) fn offset_column(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw entry column (storage encode).
    pub(crate) fn entry_column(&self) -> &[u32] {
        &self.data
    }

    /// Anonymous heap bytes held by the columns.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.data.heap_bytes()
    }

    /// Bytes viewed through file mappings.
    pub fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.data.mapped_bytes()
    }

    /// Number of billboards in the graph.
    pub fn n_billboards(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Sorted ids of the billboards sharing ≥ 1 trajectory with `b`
    /// (excluding `b` itself).
    #[inline]
    pub fn neighbors(&self, b: u32) -> &[u32] {
        let lo = self.offsets[b as usize] as usize;
        let hi = self.offsets[b as usize + 1] as usize;
        &self.data[lo..hi]
    }

    /// Overlap degree of `b` — how many billboards share ≥ 1 trajectory
    /// with it.
    #[inline]
    pub fn degree(&self, b: u32) -> usize {
        (self.offsets[b as usize + 1] - self.offsets[b as usize]) as usize
    }

    /// Whether billboards `a` and `b` share at least one trajectory.
    /// A billboard is never adjacent to itself. O(log deg) — binary search
    /// over the smaller of the two sorted neighbour lists. This is the
    /// disjointness test move evaluation leans on: a swap between
    /// non-adjacent billboards decomposes into independent gain/loss terms.
    #[inline]
    pub fn are_adjacent(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let (probe, list) = if self.degree(a) <= self.degree(b) {
            (b, self.neighbors(a))
        } else {
            (a, self.neighbors(b))
        };
        list.binary_search(&probe).is_ok()
    }
}

/// Per-billboard coverage bitmaps: row `b` is a `⌈|T|/64⌉`-word bitset of
/// the trajectories billboard `b` influences.
///
/// This is the coverage relation in a shape where set algebra is word-wide:
/// the lazy gain engine computes an exact Distinct marginal gain as
/// `I({o}) − popcount(row(o) ∧ covered(S_a))`, replacing an O(|cov(o)|)
/// random-access counter walk by `⌈|T|/64⌉` sequential word ops. Dense rows
/// cost `|U|·⌈|T|/64⌉·8` bytes, so the bitmap is only materialised under
/// the model's bitmap budget (default
/// [`DEFAULT_BITMAP_BUDGET_BYTES`]); past that, callers fall back to
/// counter walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageBitmap {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl CoverageBitmap {
    /// Builds the bitmap, choosing the parallel scheme when the pool and
    /// the input are both big enough. Serial and parallel builds are
    /// bit-identical (rows are disjoint; only the fill order differs).
    pub fn build<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        let total = cov.total_entries();
        if rayon::current_num_threads() > 1 && total >= PARALLEL_BUILD_MIN_ITEMS {
            Self::build_parallel(cov, n_trajectories)
        } else {
            Self::build_serial(cov, n_trajectories)
        }
    }

    /// The reference single-threaded build. Public so benches and property
    /// tests can pin the parallel build against it.
    pub fn build_serial<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        let words_per_row = n_trajectories.div_ceil(64);
        let mut bits = vec![0u64; words_per_row * cov.n_lists()];
        for b in 0..cov.n_lists() {
            let row = &mut bits[b * words_per_row..(b + 1) * words_per_row];
            for &t in cov.list(b) {
                row[t as usize / 64] |= 1u64 << (t % 64);
            }
        }
        Self {
            words_per_row,
            bits,
        }
    }

    /// The multithreaded build: rows are disjoint fixed-width slices of
    /// the backing array, so `par_chunks_mut` over row groups needs no
    /// synchronisation at all.
    pub fn build_parallel<L: CovSource + ?Sized>(cov: &L, n_trajectories: usize) -> Self {
        Self::build_parallel_with(cov, n_trajectories, rayon::current_num_threads())
    }

    /// [`build_parallel`](Self::build_parallel) with an explicit task
    /// count, so tests and benches can force the chunked path regardless
    /// of pool width.
    pub fn build_parallel_with<L: CovSource + ?Sized>(
        cov: &L,
        n_trajectories: usize,
        n_tasks: usize,
    ) -> Self {
        let words_per_row = n_trajectories.div_ceil(64);
        let n_b = cov.n_lists();
        let mut bits = vec![0u64; words_per_row * n_b];
        if words_per_row == 0 || n_b == 0 {
            return Self {
                words_per_row,
                bits,
            };
        }
        // A few chunks per task so one dense shard doesn't straggle.
        let rows_per_chunk = n_b.div_ceil(n_tasks.max(1) * 4).max(1);
        bits.par_chunks_mut(rows_per_chunk * words_per_row)
            .enumerate()
            .for_each(|(chunk, rows)| {
                let first_row = chunk * rows_per_chunk;
                for (r, row) in rows.chunks_mut(words_per_row).enumerate() {
                    for &t in cov.list(first_row + r) {
                        row[t as usize / 64] |= 1u64 << (t % 64);
                    }
                }
            });
        Self {
            words_per_row,
            bits,
        }
    }

    /// Reassembles a bitmap from raw parts (incremental extension); see
    /// [`InvertedIndex::from_raw`].
    pub(crate) fn from_raw(words_per_row: usize, bits: Vec<u64>) -> Self {
        Self {
            words_per_row,
            bits,
        }
    }

    /// Words per row — the length callers must size companion bitsets to.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Heap bytes held by the backing bit array.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * 8
    }

    /// The bitset row of billboard `b`.
    #[inline]
    pub fn row(&self, b: u32) -> &[u64] {
        let lo = b as usize * self.words_per_row;
        &self.bits[lo..lo + self.words_per_row]
    }

    /// Popcount of row `b` — `I({o_b})` recomputed from the bits.
    #[inline]
    pub fn row_popcount(&self, b: u32) -> u64 {
        crate::kernel::popcount(self.row(b))
    }

    /// Popcount of `row(b) ∧ other` — the number of trajectories billboard
    /// `b` shares with an externally maintained covered bitset. `other`
    /// must be [`words_per_row`](Self::words_per_row) words long. This is
    /// the exact-gain primitive of the lazy engines.
    #[inline]
    pub fn row_and_popcount(&self, b: u32, other: &[u64]) -> u64 {
        crate::kernel::and_popcount(self.row(b), other)
    }
}

/// Default upper bound on the materialised [`CoverageBitmap`] size
/// (64 MiB). At paper scale (millions of trajectories × thousands of
/// billboards) the dense bitmap would dwarf the sparse coverage lists it
/// mirrors. Override per model with
/// [`CoverageModel::set_bitmap_budget`]/[`CoverageModel::with_bitmap_budget`]
/// or process-wide with the `MROAM_BITMAP_BUDGET_MB` environment variable
/// (big-memory serving hosts keep the popcount fast path at full scale).
pub const DEFAULT_BITMAP_BUDGET_BYTES: usize = 64 << 20;

/// The bitmap budget new models start from: `MROAM_BITMAP_BUDGET_MB` (in
/// MiB) if set and parseable, else [`DEFAULT_BITMAP_BUDGET_BYTES`]. Read
/// afresh per model so tests (and long-lived processes re-exec'd with new
/// limits) see the current environment.
fn default_bitmap_budget() -> usize {
    std::env::var("MROAM_BITMAP_BUDGET_MB")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|mb| mb.saturating_mul(1 << 20))
        .unwrap_or(DEFAULT_BITMAP_BUDGET_BYTES)
}

/// An immutable snapshot of the meets relation for one `(U, T, λ)` triple.
///
/// Holds, for every billboard, the sorted trajectory ids it influences, the
/// individual influence `I({o})`, and the host's supply
/// `I* = Σ_{o∈U} I({o})` used to derive demands from the paper's
/// demand-supply ratio α (Section 7.1.3).
#[derive(Debug, Clone)]
pub struct CoverageModel {
    cov: CoverageLists,
    n_trajectories: usize,
    supply: u64,
    /// Budget the bitmap decision is made against; see
    /// [`DEFAULT_BITMAP_BUDGET_BYTES`].
    bitmap_budget: usize,
    /// Trajectory→billboard transpose, built on first use (queries only —
    /// cloning a model shares an already-built index via the `Arc`).
    inverted: OnceLock<Arc<InvertedIndex>>,
    /// Billboard overlap graph, built on first use like the transpose.
    overlap: OnceLock<Arc<OverlapGraph>>,
    /// Dense coverage bitmaps, built on first use; `None` once computed
    /// means the model is over the bitmap budget. Behind an `Arc` so
    /// cloning a model (BLS scratch clones, serve snapshots) is O(lists),
    /// never an O(budget) bitmap copy.
    bitmap: OnceLock<Option<Arc<CoverageBitmap>>>,
}

impl CoverageModel {
    /// Builds the model by running the meets computation over the stores.
    pub fn build(
        billboards: &BillboardStore,
        trajectories: &TrajectoryStore,
        lambda_m: f64,
    ) -> Self {
        let cov = meets::billboard_coverage(billboards, trajectories, lambda_m);
        Self::from_lists(cov, trajectories.len())
    }

    /// Wraps precomputed coverage lists. Lists must be sorted ascending with
    /// ids `< n_trajectories`; enforced in debug builds.
    pub fn from_lists(cov: Vec<Vec<u32>>, n_trajectories: usize) -> Self {
        #[cfg(debug_assertions)]
        for (b, list) in cov.iter().enumerate() {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "coverage list of o{b} not sorted/unique"
            );
            debug_assert!(
                list.last().is_none_or(|&t| (t as usize) < n_trajectories),
                "coverage list of o{b} references unknown trajectory"
            );
        }
        Self::from_cov(CoverageLists::from_lists(cov), n_trajectories)
    }

    /// Wraps an already CSR-packed coverage relation (storage decode, mmap
    /// views). The caller guarantees sorted in-range slices; the storage
    /// layer validates before calling.
    pub fn from_cov(cov: CoverageLists, n_trajectories: usize) -> Self {
        let supply = cov.total_entries() as u64;
        Self {
            cov,
            n_trajectories,
            supply,
            bitmap_budget: default_bitmap_budget(),
            inverted: OnceLock::new(),
            overlap: OnceLock::new(),
            bitmap: OnceLock::new(),
        }
    }

    /// The trajectory→billboard transpose of the coverage relation, built
    /// lazily on first access and cached for the lifetime of the model.
    pub fn inverted_index(&self) -> &InvertedIndex {
        self.inverted
            .get_or_init(|| Arc::new(InvertedIndex::build(&self.cov, self.n_trajectories)))
    }

    /// The billboard overlap graph, built lazily on first access and cached
    /// for the lifetime of the model.
    pub fn overlap_graph(&self) -> &OverlapGraph {
        self.overlap
            .get_or_init(|| Arc::new(OverlapGraph::build(&self.cov, self.inverted_index())))
    }

    /// The dense per-billboard coverage bitmaps, built lazily on first
    /// access. Returns `None` when materialising them would exceed the
    /// bitmap budget (the decision is cached either way); see
    /// [`bitmap_budget`](Self::bitmap_budget).
    pub fn coverage_bitmap(&self) -> Option<&CoverageBitmap> {
        self.bitmap
            .get_or_init(|| {
                let words = self.n_trajectories.div_ceil(64);
                let bytes = self.cov.len().saturating_mul(words).saturating_mul(8);
                (bytes <= self.bitmap_budget)
                    .then(|| Arc::new(CoverageBitmap::build(&self.cov, self.n_trajectories)))
            })
            .as_deref()
    }

    /// Resident-size breakdown of the model and its derived structures,
    /// split into anonymous heap bytes vs file-mapped bytes. Lazy
    /// structures that have not been built yet report zero (`OnceLock`
    /// peeks — calling this never triggers a build).
    pub fn memory_stats(&self) -> ModelMemoryStats {
        let (inv_heap, inv_mapped) = self
            .inverted
            .get()
            .map_or((0, 0), |i| (i.heap_bytes(), i.mapped_bytes()));
        let (ov_heap, ov_mapped) = self
            .overlap
            .get()
            .map_or((0, 0), |g| (g.heap_bytes(), g.mapped_bytes()));
        let bitmap_bytes = self
            .bitmap
            .get()
            .and_then(|b| b.as_ref())
            .map_or(0, |b| b.heap_bytes());
        ModelMemoryStats {
            lists_heap_bytes: self.cov.heap_bytes(),
            lists_mapped_bytes: self.cov.mapped_bytes(),
            inverted_heap_bytes: inv_heap,
            inverted_mapped_bytes: inv_mapped,
            overlap_heap_bytes: ov_heap,
            overlap_mapped_bytes: ov_mapped,
            bitmap_heap_bytes: bitmap_bytes,
        }
    }

    /// Eagerly builds every derived structure (transpose, overlap graph,
    /// bitmap) instead of letting the first solver touch pay for them. The
    /// transpose is built first (the overlap graph consumes it), then the
    /// overlap graph and the bitmap build concurrently; each individual
    /// build additionally parallelises internally past
    /// [`PARALLEL_BUILD_MIN_ITEMS`] entries.
    pub fn precompute(&self) {
        self.inverted_index();
        rayon::join(|| self.overlap_graph(), || self.coverage_bitmap());
    }

    /// The budget (bytes) the dense-bitmap decision is made against.
    /// Defaults to [`DEFAULT_BITMAP_BUDGET_BYTES`], overridable process-wide
    /// via the `MROAM_BITMAP_BUDGET_MB` environment variable.
    pub fn bitmap_budget(&self) -> usize {
        self.bitmap_budget
    }

    /// Replaces the bitmap budget, discarding any cached bitmap decision so
    /// the next [`coverage_bitmap`](Self::coverage_bitmap) call re-evaluates
    /// against the new budget. Needs `&mut` — reconfigure before sharing the
    /// model across threads.
    pub fn set_bitmap_budget(&mut self, bytes: usize) {
        self.bitmap_budget = bytes;
        self.bitmap = OnceLock::new();
    }

    /// Builder-style form of [`set_bitmap_budget`](Self::set_bitmap_budget).
    pub fn with_bitmap_budget(mut self, bytes: usize) -> Self {
        self.set_bitmap_budget(bytes);
        self
    }

    /// The CSR-packed per-billboard coverage lists (sorted ascending).
    /// Exposed for the storage layer's fingerprint/derived-structure
    /// encoding and for equality checks in tests.
    pub fn coverage_lists(&self) -> &CoverageLists {
        &self.cov
    }

    /// Installs externally built derived structures (cache load and
    /// incremental-extension paths). Silently keeps an already-built
    /// structure — callers install into freshly constructed models. The
    /// caller guarantees the structures match `coverage_lists()`; the
    /// streaming layer's epoch-equivalence tests enforce this.
    pub fn install_derived(
        &self,
        inverted: Option<InvertedIndex>,
        overlap: Option<OverlapGraph>,
        bitmap: Option<CoverageBitmap>,
    ) {
        if let Some(inv) = inverted {
            let _ = self.inverted.set(Arc::new(inv));
        }
        if let Some(ov) = overlap {
            let _ = self.overlap.set(Arc::new(ov));
        }
        if let Some(bm) = bitmap {
            let _ = self.bitmap.set(Some(Arc::new(bm)));
        }
    }

    /// Number of billboards `|U|`.
    pub fn n_billboards(&self) -> usize {
        self.cov.len()
    }

    /// Number of trajectories `|T|`.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// Sorted trajectory ids influenced by billboard `id`.
    #[inline]
    pub fn coverage(&self, id: BillboardId) -> &[u32] {
        self.cov.list(id.index())
    }

    /// Individual influence `I({o})` of billboard `id`.
    #[inline]
    pub fn influence_of(&self, id: BillboardId) -> u64 {
        self.cov.list(id.index()).len() as u64
    }

    /// The host's supply `I* = Σ_{o∈U} I({o})`.
    pub fn supply(&self) -> u64 {
        self.supply
    }

    /// Influence `I(S)` of an arbitrary billboard set, evaluated from
    /// scratch. The algorithms use incremental counters instead; this is the
    /// reference implementation used by tests, reporting, and one-off
    /// queries.
    pub fn set_influence<I>(&self, set: I) -> u64
    where
        I: IntoIterator<Item = BillboardId>,
    {
        crate::bitset::distinct_count(
            self.n_trajectories,
            set.into_iter().map(|id| self.coverage(id)),
        )
    }

    /// Influence of an arbitrary billboard set under an explicit
    /// [`InfluenceMeasure`](crate::InfluenceMeasure) — the measure-generic
    /// counterpart of [`set_influence`](Self::set_influence), used as the
    /// reference recount by tests of measure-parameterised allocations.
    pub fn set_influence_measured<I>(
        &self,
        set: I,
        measure: crate::measure::InfluenceMeasure,
    ) -> u64
    where
        I: IntoIterator<Item = BillboardId>,
    {
        let mut counter = crate::measure::MeasuredCounter::sparse(measure);
        for id in set {
            counter.add(self.coverage(id));
        }
        counter.influence()
    }

    /// All billboard ids, ascending.
    pub fn billboard_ids(&self) -> impl Iterator<Item = BillboardId> + '_ {
        (0..self.cov.len()).map(BillboardId::from_index)
    }

    /// Derives the influence-proportional costs `⌊τ_b·I(o_b)/10⌋` given a
    /// pre-sampled τ per billboard (Section 7.1.2). The caller supplies the
    /// τ draws so that randomness stays in the datagen layer.
    pub fn costs_with_tau(&self, taus: &[f64]) -> Vec<u64> {
        assert_eq!(taus.len(), self.cov.len(), "one τ per billboard required");
        self.cov
            .iter()
            .zip(taus)
            .map(|(c, &tau)| (tau * c.len() as f64 / 10.0).floor() as u64)
            .collect()
    }
}

/// Resident-size breakdown of a [`CoverageModel`], split by structure and
/// by backing (anonymous heap vs file mapping). Produced by
/// [`CoverageModel::memory_stats`]; surfaced by `mroam stats --memory`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelMemoryStats {
    /// Coverage-list CSR columns on the heap.
    pub lists_heap_bytes: usize,
    /// Coverage-list CSR columns viewed through a file mapping.
    pub lists_mapped_bytes: usize,
    /// Inverted-index CSR columns on the heap (0 until built).
    pub inverted_heap_bytes: usize,
    /// Inverted-index CSR columns viewed through a file mapping.
    pub inverted_mapped_bytes: usize,
    /// Overlap-graph CSR columns on the heap (0 until built).
    pub overlap_heap_bytes: usize,
    /// Overlap-graph CSR columns viewed through a file mapping.
    pub overlap_mapped_bytes: usize,
    /// Dense coverage bitmap (always heap; 0 until built or over budget).
    pub bitmap_heap_bytes: usize,
}

impl ModelMemoryStats {
    /// Total anonymous heap bytes across all structures.
    pub fn total_heap_bytes(&self) -> usize {
        self.lists_heap_bytes
            + self.inverted_heap_bytes
            + self.overlap_heap_bytes
            + self.bitmap_heap_bytes
    }

    /// Total file-mapped bytes across all structures.
    pub fn total_mapped_bytes(&self) -> usize {
        self.lists_mapped_bytes + self.inverted_mapped_bytes + self.overlap_mapped_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_geo::Point;
    use proptest::prelude::*;

    fn model_from(lists: Vec<Vec<u32>>, n: usize) -> CoverageModel {
        CoverageModel::from_lists(lists, n)
    }

    #[test]
    fn supply_is_sum_of_individual_influences() {
        let m = model_from(vec![vec![0, 1, 2], vec![2, 3], vec![]], 5);
        assert_eq!(m.supply(), 5);
        assert_eq!(m.influence_of(BillboardId(0)), 3);
        assert_eq!(m.influence_of(BillboardId(2)), 0);
    }

    #[test]
    fn set_influence_counts_distinct_trajectories() {
        let m = model_from(vec![vec![0, 1, 2], vec![2, 3], vec![0]], 5);
        // Union of all three = {0,1,2,3}.
        assert_eq!(m.set_influence(m.billboard_ids()), 4);
        assert_eq!(
            m.set_influence([BillboardId(0), BillboardId(2)]),
            3 // {0,1,2}
        );
        assert_eq!(m.set_influence(std::iter::empty()), 0);
    }

    #[test]
    fn example1_style_disjoint_influences_sum() {
        // Table 1 of the paper: influences 2,6,7,7,1,1 with disjoint
        // trajectory sets, so I(S) is plain addition.
        let infl = [2usize, 6, 7, 7, 1, 1];
        let mut lists = Vec::new();
        let mut next = 0u32;
        for &k in &infl {
            lists.push((next..next + k as u32).collect::<Vec<u32>>());
            next += k as u32;
        }
        let m = model_from(lists, next as usize);
        assert_eq!(m.supply(), 24);
        // Strategy 2 of Example 1: S3 = {o2, o5, o6} has I = 6+1+1 = 8.
        assert_eq!(
            m.set_influence([BillboardId(1), BillboardId(4), BillboardId(5)]),
            8
        );
    }

    #[test]
    fn build_from_stores() {
        let mut billboards = BillboardStore::new();
        billboards.push(Point::new(0.0, 0.0));
        billboards.push(Point::new(500.0, 0.0));
        let mut trajectories = TrajectoryStore::new();
        trajectories
            .push_at_speed(&[Point::new(10.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(490.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(250.0, 0.0)], 10.0)
            .unwrap();
        let m = CoverageModel::build(&billboards, &trajectories, 50.0);
        assert_eq!(m.n_billboards(), 2);
        assert_eq!(m.n_trajectories(), 3);
        assert_eq!(m.coverage(BillboardId(0)), &[0]);
        assert_eq!(m.coverage(BillboardId(1)), &[1]);
        assert_eq!(m.supply(), 2);
    }

    #[test]
    fn costs_with_tau_floors() {
        let m = model_from(vec![vec![0; 0], (0..25).collect(), (0..7).collect()], 25);
        let costs = m.costs_with_tau(&[1.0, 1.0, 0.9]);
        // ⌊0/10⌋=0, ⌊25/10⌋=2, ⌊0.9·7/10⌋=0
        assert_eq!(costs, vec![0, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "one τ per billboard")]
    fn costs_with_wrong_tau_len_panics() {
        model_from(vec![vec![0]], 1).costs_with_tau(&[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted")]
    fn unsorted_lists_rejected_in_debug() {
        let _ = model_from(vec![vec![2, 1]], 3);
    }

    #[test]
    fn inverted_index_transposes_coverage() {
        let m = model_from(vec![vec![0, 1, 2], vec![2, 3], vec![0], vec![]], 5);
        let inv = m.inverted_index();
        assert_eq!(inv.n_trajectories(), 5);
        assert_eq!(inv.billboards_covering(0), &[0, 2]);
        assert_eq!(inv.billboards_covering(1), &[0]);
        assert_eq!(inv.billboards_covering(2), &[0, 1]);
        assert_eq!(inv.billboards_covering(3), &[1]);
        assert_eq!(inv.billboards_covering(4), &[] as &[u32]);
    }

    #[test]
    fn inverted_index_roundtrips_forward_lists() {
        let lists = vec![vec![0u32, 3], vec![1, 3, 4], vec![], vec![0, 1, 2, 3, 4]];
        let m = model_from(lists.clone(), 5);
        let inv = m.inverted_index();
        let mut rebuilt = vec![Vec::new(); m.n_billboards()];
        for t in 0..5u32 {
            for &b in inv.billboards_covering(t) {
                rebuilt[b as usize].push(t);
            }
        }
        assert_eq!(rebuilt, lists);
    }

    #[test]
    fn overlap_graph_links_sharing_billboards() {
        // o0 {0,1}, o1 {1,2}, o2 {3}, o3 {} — o0↔o1 share t1, o2/o3 alone.
        let m = model_from(vec![vec![0, 1], vec![1, 2], vec![3], vec![]], 4);
        let g = m.overlap_graph();
        assert_eq!(g.n_billboards(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn overlap_graph_excludes_self_and_sorts() {
        // A shared hotspot trajectory links everyone covering it.
        let m = model_from(vec![vec![0], vec![0, 1], vec![0], vec![1]], 2);
        let g = m.overlap_graph();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[1]);
    }

    #[test]
    fn overlap_adjacency_and_degree_queries() {
        // o0 {0,1}, o1 {1,2}, o2 {3}, o3 {} — o0↔o1 share t1.
        let m = model_from(vec![vec![0, 1], vec![1, 2], vec![3], vec![]], 4);
        let g = m.overlap_graph();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(1, 0));
        assert!(!g.are_adjacent(0, 2));
        assert!(!g.are_adjacent(2, 3));
        assert!(!g.are_adjacent(1, 1), "never self-adjacent");

        // Asymmetric degrees exercise the smaller-list probe choice.
        let hub = model_from(vec![vec![0], vec![0, 1], vec![0], vec![1], vec![2]], 3);
        let g = hub.overlap_graph();
        for a in 0..5u32 {
            for b in 0..5u32 {
                let share = a != b
                    && hub
                        .coverage(BillboardId(a))
                        .iter()
                        .any(|t| hub.coverage(BillboardId(b)).contains(t));
                assert_eq!(g.are_adjacent(a, b), share, "({a},{b})");
            }
        }
    }

    #[test]
    fn coverage_bitmap_mirrors_lists_across_word_boundaries() {
        // 70 trajectories ⇒ 2 words per row; ids straddle the word seam.
        let lists = vec![vec![0u32, 63, 64, 69], vec![1, 64], vec![]];
        let m = model_from(lists.clone(), 70);
        let bm = m.coverage_bitmap().expect("tiny model under budget");
        assert_eq!(bm.words_per_row(), 2);
        for (b, list) in lists.iter().enumerate() {
            let row = bm.row(b as u32);
            let total: u32 = row.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total as usize, list.len());
            for &t in list {
                assert_ne!(row[t as usize / 64] & (1u64 << (t % 64)), 0);
            }
        }
    }

    #[test]
    fn coverage_bitmap_intersection_counts_shared_trajectories() {
        let m = model_from(vec![vec![0, 1, 2, 65], vec![2, 3, 65], vec![4]], 66);
        let bm = m.coverage_bitmap().unwrap();
        let shared: u64 = bm
            .row(0)
            .iter()
            .zip(bm.row(1))
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum();
        assert_eq!(shared, 2); // t2 and t65
    }

    #[test]
    fn inverted_index_survives_clone() {
        let m = model_from(vec![vec![0], vec![0, 1]], 2);
        let _ = m.inverted_index();
        let c = m.clone();
        assert_eq!(c.inverted_index().billboards_covering(0), &[0, 1]);
    }

    #[test]
    fn clone_shares_derived_structures_by_pointer() {
        // The satellite fix: clones must share derived structures behind
        // the `Arc`, never deep-copy a (potentially 64 MiB) bitmap.
        let m = model_from(vec![vec![0, 1, 2], vec![1, 3], vec![]], 4);
        m.precompute();
        let c = m.clone();
        assert!(std::ptr::eq(m.inverted_index(), c.inverted_index()));
        assert!(std::ptr::eq(m.overlap_graph(), c.overlap_graph()));
        assert!(std::ptr::eq(
            m.coverage_bitmap().unwrap(),
            c.coverage_bitmap().unwrap()
        ));
    }

    #[test]
    fn precompute_matches_lazy_builds() {
        let lists = vec![vec![0u32, 1, 2], vec![1, 3], vec![0, 3], vec![]];
        let eager = model_from(lists.clone(), 4);
        eager.precompute();
        let lazy = model_from(lists, 4);
        assert_eq!(eager.inverted_index(), lazy.inverted_index());
        assert_eq!(eager.overlap_graph(), lazy.overlap_graph());
        assert_eq!(eager.coverage_bitmap(), lazy.coverage_bitmap());
    }

    #[test]
    fn over_budget_model_falls_back_to_counter_walks() {
        // Budget 0 ⇒ no bitmap, but set_influence (the counter path the
        // solvers fall back to) is unaffected.
        let mut m = model_from(vec![vec![0, 1, 2], vec![2, 3]], 5);
        assert!(m.coverage_bitmap().is_some(), "tiny model under budget");
        m.set_bitmap_budget(0);
        assert_eq!(m.bitmap_budget(), 0);
        assert!(m.coverage_bitmap().is_none(), "budget 0 must refuse");
        assert_eq!(m.set_influence([BillboardId(0), BillboardId(1)]), 4);
        // Raising the budget back re-materialises the rows.
        m.set_bitmap_budget(DEFAULT_BITMAP_BUDGET_BYTES);
        assert!(m.coverage_bitmap().is_some());
    }

    #[test]
    fn with_bitmap_budget_builder() {
        let m = model_from(vec![vec![0, 1], vec![1, 2], vec![2]], 3).with_bitmap_budget(0);
        assert_eq!(m.bitmap_budget(), 0);
        assert!(m.coverage_bitmap().is_none());
    }

    #[test]
    fn bitmap_budget_env_override_applies_to_new_models() {
        // A large override is safe against concurrently running tests:
        // every test model is far under both the default and this value.
        std::env::set_var("MROAM_BITMAP_BUDGET_MB", "128");
        let m = model_from(vec![vec![0]], 1);
        std::env::remove_var("MROAM_BITMAP_BUDGET_MB");
        assert_eq!(m.bitmap_budget(), 128 << 20);
        let after = model_from(vec![vec![0]], 1);
        assert_eq!(after.bitmap_budget(), DEFAULT_BITMAP_BUDGET_BYTES);
    }

    #[test]
    fn rayon_num_threads_one_matches_default_pool() {
        // Mirrors the PR 2 solver regression: the pool width must never
        // change what a build produces, only how long it takes. The env
        // var is latched on first use, so this pins the invariant on
        // whichever configuration the test process initialised with;
        // the explicit `build_parallel_with` tests force the sharded
        // path directly.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let lists = vec![
            vec![0u32, 2, 4],
            vec![1, 2],
            vec![4],
            vec![],
            vec![0, 1, 2, 3, 4],
        ];
        let narrow_inv = InvertedIndex::build(&lists, 5);
        let narrow_ov = OverlapGraph::build(&lists, &narrow_inv);
        let narrow_bm = CoverageBitmap::build(&lists, 5);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(narrow_inv, InvertedIndex::build_serial(&lists, 5));
        assert_eq!(narrow_ov, OverlapGraph::build_serial(&lists, &narrow_inv));
        assert_eq!(narrow_bm, CoverageBitmap::build_serial(&lists, 5));
    }

    /// Asserts parallel == serial for all three derived builds over a
    /// range of forced shard counts (including more shards than items).
    fn assert_parallel_builds_match(lists: &[Vec<u32>], n_trajectories: usize) {
        let inv = InvertedIndex::build_serial(lists, n_trajectories);
        let ov = OverlapGraph::build_serial(lists, &inv);
        let bm = CoverageBitmap::build_serial(lists, n_trajectories);
        for n_shards in [2usize, 3, 4, 7, lists.len().max(1) * 2] {
            let pinv = InvertedIndex::build_parallel_with(lists, n_trajectories, n_shards);
            assert_eq!(pinv, inv, "inverted, {n_shards} shards");
            assert_eq!(
                OverlapGraph::build_parallel_with(lists, &pinv, n_shards),
                ov,
                "overlap, {n_shards} shards"
            );
            assert_eq!(
                CoverageBitmap::build_parallel_with(lists, n_trajectories, n_shards),
                bm,
                "bitmap, {n_shards} shards"
            );
        }
    }

    #[test]
    fn parallel_builds_match_serial_edge_cases() {
        // No billboards at all.
        assert_parallel_builds_match(&[], 0);
        assert_parallel_builds_match(&[], 7);
        // Billboards with all-empty coverage.
        assert_parallel_builds_match(&vec![vec![]; 5], 3);
        // Singleton trajectories: every list covers exactly one id.
        assert_parallel_builds_match(&[vec![0], vec![1], vec![2], vec![0]], 3);
        // Fully-overlapping boards: identical lists, dense overlap graph.
        assert_parallel_builds_match(&vec![vec![0, 1, 2, 3]; 6], 4);
        // Mixed: empties interleaved with dense and sparse lists.
        assert_parallel_builds_match(
            &[
                vec![],
                vec![0, 63, 64],
                vec![],
                vec![64, 65],
                vec![1],
                vec![],
            ],
            66,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_parallel_builds_match_serial(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..300, 0..40), 0..24)
        ) {
            let lists: Vec<Vec<u32>> =
                lists.into_iter().map(|s| s.into_iter().collect()).collect();
            assert_parallel_builds_match(&lists, 300);
        }

        /// `set_influence` counts through the bitset scratch exactly as a
        /// sparse counter does, over sets with repeated billboards, the
        /// empty set, and the last trajectory id `n_t − 1` always covered.
        #[test]
        fn set_influence_matches_a_sparse_counter(
            (lists, n_t) in (1u32..300).prop_flat_map(|n_t| (
                proptest::collection::vec(
                    proptest::collection::btree_set(0..n_t, 0..40), 1..12),
                Just(n_t),
            )),
            picks in proptest::collection::vec(0usize..64, 0..16),
        ) {
            let mut lists: Vec<Vec<u32>> =
                lists.into_iter().map(|s| s.into_iter().collect()).collect();
            if lists[0].last() != Some(&(n_t - 1)) {
                lists[0].push(n_t - 1);
            }
            let m = CoverageModel::from_lists(lists, n_t as usize);
            let set: Vec<BillboardId> = picks
                .iter()
                .map(|&p| BillboardId::from_index(p % m.n_billboards()))
                .collect();
            let mut oracle = crate::counter::CoverageCounter::sparse();
            for &b in &set {
                oracle.add(m.coverage(b));
            }
            prop_assert_eq!(m.set_influence(set.iter().copied()), oracle.covered());
            let twice = set.iter().chain(&set).copied();
            prop_assert_eq!(m.set_influence(twice), oracle.covered());
            prop_assert_eq!(m.set_influence([BillboardId(0)]), m.influence_of(BillboardId(0)));
        }
    }
}
