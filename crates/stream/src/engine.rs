//! The streaming engine: epoch-stamped ingestion over a live coverage
//! model.
//!
//! [`StreamEngine`] owns the stores, a compacted base
//! [`CoverageModel`], and a [`DeltaOverlay`] of everything ingested since
//! the last compaction. Reads merge base + overlay; [`StreamEngine::compact`]
//! folds the overlay into a fresh base via the incremental extension in
//! `mroam_influence::extend` (bit-identical to a from-scratch rebuild),
//! so solvers can warm-start against the new base with only the reported
//! changed billboards invalidated.
//!
//! Geometry matters only at the edges: a new trajectory's coverage is
//! computed from its own points against a grid over the billboard
//! locations, and a new billboard's coverage from its location against
//! the stored trajectory geometry. Both use the same [`GridIndex`]
//! predicate as the offline meets computation, which is what makes the
//! incremental lists bit-identical to a rebuild.

use std::collections::BTreeSet;
use std::sync::Arc;

use mroam_data::{BillboardId, BillboardStore, StoreError, TrajectoryStore};
use mroam_geo::{GridIndex, Point};
use mroam_influence::bitset::distinct_count;
use mroam_influence::{CoverageDelta, CoverageModel};

use crate::delta::{
    BillboardEvent, CompactionReport, EpochStats, IngestBatch, IngestError, IngestReport,
};
use crate::overlay::DeltaOverlay;

/// When [`StreamEngine::needs_compaction`] says to fold the overlay.
///
/// Compaction costs one incremental extension (O(changed rows), not a
/// full rebuild) and buys back per-query overlay merging plus a fresh
/// base for solvers, so the policy trades read amplification against
/// compaction frequency, LSM-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once the overlay holds at least this many trajectories
    /// *and* the ratio trigger below also fires.
    pub min_overlay_trajectories: usize,
    /// Ratio trigger: overlay trajectories ≥ this fraction of the base's.
    pub max_overlay_ratio: f64,
    /// Unconditional trigger on billboard churn: inventory changes
    /// invalidate solver state much faster than trajectory appends do.
    pub max_overlay_billboards: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            min_overlay_trajectories: 512,
            max_overlay_ratio: 0.05,
            max_overlay_billboards: 32,
        }
    }
}

/// Streaming ingestion over a live coverage model. See the module docs.
#[derive(Debug)]
pub struct StreamEngine {
    billboards: BillboardStore,
    /// Full trajectory geometry when `geometry_complete`; a snapshot-
    /// restored engine drops historical geometry (only billboard adds
    /// need it — new-trajectory ingestion carries its own points).
    trajectories: TrajectoryStore,
    geometry_complete: bool,
    /// Logical trajectory count — equals `trajectories.len()` only when
    /// geometry is complete.
    n_trajectories: usize,
    /// Global retirement tombstones, one per billboard ever seen. Never
    /// reset: a billboard stays retired across compactions even after
    /// its empty list is folded into the base.
    retired: Vec<bool>,
    lambda_m: f64,
    /// Grid over *all* billboard locations (retired included — hits are
    /// filtered by the tombstone mask, keeping grid ids global).
    grid: GridIndex,
    base: Arc<CoverageModel>,
    overlay: DeltaOverlay,
    /// Union of every batch's changed billboards since the last
    /// compaction — what `compact()` reports as the warm-start
    /// invalidation frontier.
    changed_since_base: BTreeSet<u32>,
    epoch: u64,
    base_epoch: u64,
    compactions: u64,
    policy: CompactionPolicy,
}

impl StreamEngine {
    /// Builds the base model from the stores and starts streaming on top
    /// of it (epoch 0).
    pub fn new(billboards: BillboardStore, trajectories: TrajectoryStore, lambda_m: f64) -> Self {
        let base = Arc::new(CoverageModel::build(&billboards, &trajectories, lambda_m));
        Self::from_model(base, billboards, trajectories, lambda_m)
    }

    /// Starts streaming on top of an already-built model (e.g. one loaded
    /// from the experiment cache). The model must match the stores and
    /// have no retired billboards — use [`restore`](Self::restore) to
    /// resume from a snapshot instead.
    pub fn from_model(
        model: Arc<CoverageModel>,
        billboards: BillboardStore,
        trajectories: TrajectoryStore,
        lambda_m: f64,
    ) -> Self {
        assert!(lambda_m >= 0.0, "lambda must be non-negative");
        assert_eq!(
            model.n_billboards(),
            billboards.len(),
            "model/store billboard mismatch"
        );
        assert_eq!(
            model.n_trajectories(),
            trajectories.len(),
            "model/store trajectory mismatch"
        );
        let grid = GridIndex::build(billboards.locations(), lambda_m.max(1.0));
        let (n_b, n_t) = (billboards.len(), trajectories.len());
        Self {
            billboards,
            trajectories,
            geometry_complete: true,
            n_trajectories: n_t,
            retired: vec![false; n_b],
            lambda_m,
            grid,
            base: model,
            overlay: DeltaOverlay::new(n_b, n_t),
            changed_since_base: BTreeSet::new(),
            epoch: 0,
            base_epoch: 0,
            compactions: 0,
            policy: CompactionPolicy::default(),
        }
    }

    /// Resumes from snapshot state: a restored base model, billboard
    /// locations, the global tombstone mask, the pending overlay, and the
    /// epoch counters. Historical trajectory geometry is *not* carried —
    /// the restored engine ingests new trajectories and retires
    /// billboards normally but refuses billboard adds with
    /// [`IngestError::NoTrajectoryGeometry`].
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        model: Arc<CoverageModel>,
        billboards: BillboardStore,
        retired: Vec<bool>,
        lambda_m: f64,
        overlay: DeltaOverlay,
        n_trajectories: usize,
        epoch: u64,
        compactions: u64,
    ) -> Self {
        assert!(lambda_m >= 0.0, "lambda must be non-negative");
        assert_eq!(retired.len(), billboards.len(), "tombstone mask length");
        assert_eq!(
            model.n_billboards(),
            overlay.base_n_billboards(),
            "model/overlay billboard mismatch"
        );
        assert_eq!(
            billboards.len(),
            overlay.base_n_billboards() + overlay.n_new_billboards(),
            "store/overlay billboard mismatch"
        );
        assert_eq!(
            model.n_trajectories(),
            overlay.base_n_trajectories(),
            "model/overlay trajectory mismatch"
        );
        assert!(n_trajectories >= overlay.base_n_trajectories());
        // The per-batch change history is gone; over-approximate the
        // frontier as everything the overlay touches plus every
        // tombstone. Over-invalidation is safe (solvers merely warm-start
        // a little colder); under-invalidation would not be.
        let mut changed: BTreeSet<u32> = overlay.entries().map(|(b, _)| b).collect();
        changed.extend((overlay.base_n_billboards()..billboards.len()).map(|b| b as u32));
        changed.extend(
            retired
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .map(|(b, _)| b as u32),
        );
        let grid = GridIndex::build(billboards.locations(), lambda_m.max(1.0));
        Self {
            billboards,
            trajectories: TrajectoryStore::new(),
            geometry_complete: n_trajectories == 0,
            n_trajectories,
            retired,
            lambda_m,
            grid,
            base: model,
            overlay,
            changed_since_base: changed,
            epoch,
            base_epoch: epoch,
            compactions,
            policy: CompactionPolicy::default(),
        }
    }

    /// Replaces the compaction policy.
    pub fn set_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// Builder-style form of [`set_policy`](Self::set_policy).
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates a batch without touching any state, so a rejected batch
    /// leaves the engine exactly as it was.
    fn validate(&self, batch: &IngestBatch) -> Result<(), IngestError> {
        for (index, t) in batch.trajectories.iter().enumerate() {
            if t.points.is_empty() {
                return Err(IngestError::EmptyTrajectory { index });
            }
            if t.points.len() != t.timestamps.len() {
                return Err(IngestError::LengthMismatch { index });
            }
        }
        // Replay inventory events against simulated counters so ids
        // introduced earlier in the batch validate later events.
        let mut sim_n = self.billboards.len();
        let mut sim_retired: BTreeSet<u32> = BTreeSet::new();
        for event in &batch.billboard_events {
            match event {
                BillboardEvent::Add { .. } => {
                    if !self.geometry_complete {
                        return Err(IngestError::NoTrajectoryGeometry);
                    }
                    sim_n += 1;
                }
                BillboardEvent::Retire { id } => {
                    if (*id as usize) >= sim_n {
                        return Err(IngestError::UnknownBillboard { id: *id });
                    }
                    let already = ((*id as usize) < self.retired.len()
                        && self.retired[*id as usize])
                        || !sim_retired.insert(*id);
                    if already {
                        return Err(IngestError::AlreadyRetired { id: *id });
                    }
                }
            }
        }
        if self.geometry_complete && !batch.trajectories.is_empty() {
            let needed = self.trajectories.total_points()
                + batch
                    .trajectories
                    .iter()
                    .map(|t| t.points.len())
                    .sum::<usize>();
            if u32::try_from(needed).is_err() {
                return Err(StoreError::PointColumnOverflow { needed }.into());
            }
        }
        Ok(())
    }

    /// Coverage list of a would-be billboard at `location` over every
    /// trajectory currently stored. Uses a one-entry [`GridIndex`] so the
    /// hit predicate is the *exact* float comparison the offline meets
    /// computation applies — the incremental list must be bit-identical
    /// to what a rebuild would produce.
    fn coverage_of_location(&self, location: &Point) -> Vec<u32> {
        let g = GridIndex::build(std::slice::from_ref(location), self.lambda_m.max(1.0));
        let mut out = Vec::new();
        for (t, traj) in self.trajectories.iter().enumerate() {
            let mut hit = false;
            for p in traj.points {
                g.for_each_within(p, self.lambda_m, |_, _| hit = true);
                if hit {
                    break;
                }
            }
            if hit {
                out.push(t as u32);
            }
        }
        out
    }

    /// Applies one batch as a new epoch. Inventory events run first, then
    /// trajectories, so an added billboard covers the batch's own
    /// trajectories and a retired one does not. Returns the epoch-stamped
    /// report; on error the engine is untouched.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestReport, IngestError> {
        self.validate(batch)?;
        let mut changed: BTreeSet<u32> = BTreeSet::new();
        let (mut added, mut retired_n) = (0usize, 0usize);
        let mut grid_dirty = false;
        for event in &batch.billboard_events {
            match event {
                BillboardEvent::Add { location } => {
                    let list = self.coverage_of_location(location);
                    let gid = self.billboards.push(*location);
                    self.retired.push(false);
                    let oid = self.overlay.push_new_billboard(list);
                    debug_assert_eq!(oid as usize, gid.index());
                    changed.insert(oid);
                    added += 1;
                    grid_dirty = true;
                }
                BillboardEvent::Retire { id } => {
                    self.retired[*id as usize] = true;
                    self.overlay.clear_billboard(*id);
                    changed.insert(*id);
                    retired_n += 1;
                }
            }
        }
        if grid_dirty {
            self.grid = GridIndex::build(self.billboards.locations(), self.lambda_m.max(1.0));
        }
        let mut hits = Vec::new();
        for td in &batch.trajectories {
            let tid = self.n_trajectories as u32;
            if self.geometry_complete {
                let sid = self
                    .trajectories
                    .push_with_timestamps(&td.points, &td.timestamps)?;
                debug_assert_eq!(sid.index(), tid as usize);
            }
            hits.clear();
            for p in &td.points {
                self.grid
                    .for_each_within(p, self.lambda_m, |b, _| hits.push(b));
            }
            hits.sort_unstable();
            hits.dedup();
            for &b in &hits {
                if !self.retired[b as usize] {
                    self.overlay.append(b, tid);
                    changed.insert(b);
                }
            }
            self.n_trajectories += 1;
        }
        self.epoch += 1;
        self.changed_since_base.extend(changed.iter().copied());
        Ok(IngestReport {
            epoch: self.epoch,
            new_trajectories: batch.trajectories.len(),
            new_billboards: added,
            retired: retired_n,
            changed_billboards: changed.into_iter().collect(),
        })
    }

    /// The pending overlay as a [`CoverageDelta`] against the current
    /// base.
    fn to_delta(&self) -> CoverageDelta {
        let n_b0 = self.overlay.base_n_billboards();
        CoverageDelta {
            retired: self.retired[..n_b0].to_vec(),
            appended: self
                .overlay
                .entries()
                .map(|(b, list)| (b, list.to_vec()))
                .collect(),
            new_billboards: self.overlay.new_billboard_lists().to_vec(),
            n_trajectories: self.n_trajectories,
        }
    }

    /// Whether the compaction policy says the overlay should be folded.
    pub fn needs_compaction(&self) -> bool {
        let ot = self.n_trajectories - self.overlay.base_n_trajectories();
        let ob = self.overlay.n_new_billboards();
        (ot >= self.policy.min_overlay_trajectories
            && ot as f64
                >= self.policy.max_overlay_ratio * self.overlay.base_n_trajectories() as f64)
            || ob >= self.policy.max_overlay_billboards
    }

    /// Folds the overlay into a fresh base via the incremental extension
    /// (bit-identical to a from-scratch rebuild of the merged lists) and
    /// resets the overlay against it. Returns the changed-billboard
    /// frontier accumulated since the previous base so callers can
    /// warm-start solvers with only those invalidated.
    pub fn compact(&mut self) -> CompactionReport {
        let folded_trajectories = self.n_trajectories - self.overlay.base_n_trajectories();
        let folded_billboards = self.overlay.n_new_billboards();
        let next = self.base.extended(&self.to_delta());
        self.base = Arc::new(next);
        self.overlay = DeltaOverlay::new(self.base.n_billboards(), self.base.n_trajectories());
        let changed_billboards: Vec<u32> = std::mem::take(&mut self.changed_since_base)
            .into_iter()
            .collect();
        self.base_epoch = self.epoch;
        self.compactions += 1;
        CompactionReport {
            epoch: self.epoch,
            folded_trajectories,
            folded_billboards,
            changed_billboards,
        }
    }

    /// The last compacted base — the consistent model solvers run
    /// against while ingestion proceeds (epoch [`base_epoch`](Self::base_epoch)).
    pub fn model(&self) -> &Arc<CoverageModel> {
        &self.base
    }

    /// Materializes base + overlay into a full model at the current epoch
    /// *without* committing a compaction — an O(model) copy used by
    /// verification and one-off queries.
    pub fn materialized(&self) -> CoverageModel {
        self.base.extended(&self.to_delta())
    }

    /// Merged influence `I({b})` at the current epoch.
    pub fn influence_of(&self, b: u32) -> u64 {
        if self.retired[b as usize] {
            return 0;
        }
        if (b as usize) < self.overlay.base_n_billboards() {
            self.base.influence_of(BillboardId(b)) + self.overlay.appended_to(b).len() as u64
        } else {
            self.overlay.new_billboard_coverage(b).len() as u64
        }
    }

    /// Merged influence `I(S)` at the current epoch, evaluated over
    /// base + overlay without materializing anything.
    pub fn set_influence(&self, set: &[u32]) -> u64 {
        let base_n = self.overlay.base_n_billboards();
        let lists = set
            .iter()
            .filter(|&&b| !self.retired[b as usize])
            .flat_map(|&b| {
                if (b as usize) < base_n {
                    [
                        self.base.coverage(BillboardId(b)),
                        self.overlay.appended_to(b),
                    ]
                } else {
                    [self.overlay.new_billboard_coverage(b), &[]]
                }
            });
        distinct_count(self.n_trajectories, lists)
    }

    /// Merged coverage list of billboard `b` at the current epoch.
    pub fn coverage_merged(&self, b: u32) -> Vec<u32> {
        if self.retired[b as usize] {
            return Vec::new();
        }
        if (b as usize) < self.overlay.base_n_billboards() {
            let base = self.base.coverage(BillboardId(b));
            let mut out = Vec::with_capacity(base.len() + self.overlay.appended_to(b).len());
            out.extend_from_slice(base);
            out.extend_from_slice(self.overlay.appended_to(b));
            out
        } else {
            self.overlay.new_billboard_coverage(b).to_vec()
        }
    }

    /// Point-in-time stats, served by the `epoch_stats` protocol command.
    pub fn epoch_stats(&self) -> EpochStats {
        EpochStats {
            epoch: self.epoch,
            base_epoch: self.base_epoch,
            compactions: self.compactions,
            n_billboards: self.billboards.len(),
            n_trajectories: self.n_trajectories,
            n_retired: self.retired.iter().filter(|&&r| r).count(),
            overlay_trajectories: self.n_trajectories - self.overlay.base_n_trajectories(),
            overlay_billboards: self.overlay.n_new_billboards(),
        }
    }

    /// Ingest epochs applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch the compacted base reflects.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Meeting radius λ in metres.
    pub fn lambda_m(&self) -> f64 {
        self.lambda_m
    }

    /// Total billboards (live + retired).
    pub fn n_billboards(&self) -> usize {
        self.billboards.len()
    }

    /// Total trajectories at the current epoch.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    /// The global retirement tombstones.
    pub fn retired_mask(&self) -> &[bool] {
        &self.retired
    }

    /// The billboard store (locations for all ids ever issued).
    pub fn billboards(&self) -> &BillboardStore {
        &self.billboards
    }

    /// The trajectory store — full geometry only when
    /// [`has_geometry`](Self::has_geometry).
    pub fn trajectories(&self) -> &TrajectoryStore {
        &self.trajectories
    }

    /// Whether historical trajectory geometry is present (false after
    /// snapshot restore, which disables billboard adds).
    pub fn has_geometry(&self) -> bool {
        self.geometry_complete
    }

    /// The pending overlay (snapshot encoding).
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// Sorted billboards whose coverage changed since the last
    /// compaction — the frontier `compact()` will report.
    pub fn changed_since_base(&self) -> Vec<u32> {
        self.changed_since_base.iter().copied().collect()
    }
}
