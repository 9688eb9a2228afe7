//! Per-shard coverage accounting over a spatial billboard partition.
//!
//! The sharded solve engine assigns every billboard to one spatial shard
//! (a dense `id -> shard` table built by `mroam_geo::SpatialPartition`).
//! Trajectories are *not* partitioned — a trip can pass billboards in
//! several shards — so each shard solves the whole model masked to its
//! own billboards, over the full trajectory id space, and the
//! interesting quantity is the overlap: how many trajectories are
//! covered by billboards of more than one shard. That boundary mass is
//! exactly what the sharded solve can double-count before its merge
//! recount, and what bounds the regret gap the reconciliation pass has
//! to close; `exp_shard` reports it per shard count.

use crate::model::CoverageModel;

/// What one shard owns: billboard count and the trajectories its
/// billboards can reach (distinct, over the full trajectory id space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Shard index.
    pub shard: u32,
    /// Billboards assigned to this shard.
    pub billboards: usize,
    /// Distinct trajectories covered by at least one of them.
    pub trajectories: u64,
}

/// Cross-shard structure of a partitioned model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryReport {
    /// Per-shard occupancy, indexed by shard.
    pub shards: Vec<ShardOccupancy>,
    /// Trajectories covered by billboards of two or more shards — the
    /// coverage mass that straddles a shard boundary.
    pub cross_shard_trajectories: u64,
    /// Trajectories covered by at least one billboard anywhere.
    pub covered_trajectories: u64,
}

impl BoundaryReport {
    /// Fraction of covered trajectories that straddle a boundary, in
    /// `[0, 1]`; `0` when nothing is covered.
    pub fn boundary_fraction(&self) -> f64 {
        if self.covered_trajectories == 0 {
            return 0.0;
        }
        self.cross_shard_trajectories as f64 / self.covered_trajectories as f64
    }
}

/// Computes per-shard occupancy and the cross-shard trajectory count for
/// a billboard partition. `assignment[b]` is billboard `b`'s shard;
/// billboards beyond the table (added after the partition was built)
/// fall back to `id % n_shards`, the same overflow rule the solver
/// router uses. One pass over the coverage lists: `O(Σ |coverage(b)|)`.
pub fn boundary_report(
    model: &CoverageModel,
    assignment: &[u32],
    n_shards: usize,
) -> BoundaryReport {
    let n_shards = n_shards.max(1);
    let mut shards: Vec<ShardOccupancy> = (0..n_shards)
        .map(|s| ShardOccupancy {
            shard: s as u32,
            billboards: 0,
            trajectories: 0,
        })
        .collect();

    // Per trajectory: which single shard has covered it (or MULTI).
    const NONE: u32 = u32::MAX;
    const MULTI: u32 = u32::MAX - 1;
    let mut seen_by = vec![NONE; model.n_trajectories()];
    // Per (trajectory, shard) dedup for the per-shard distinct counts:
    // one epoch-stamped marker per shard avoids an O(n_t × n_shards)
    // bitset — `mark[t] == shard_epoch` means already counted.
    let mut mark = vec![u32::MAX; model.n_trajectories()];

    let mut cross = 0u64;
    for s in 0..n_shards as u32 {
        for b in 0..model.n_billboards() {
            let shard = shard_of(assignment, b, n_shards);
            if shard != s {
                continue;
            }
            shards[s as usize].billboards += 1;
            for &t in model.coverage(mroam_data::BillboardId(b as u32)) {
                let t = t as usize;
                if mark[t] != s {
                    mark[t] = s;
                    shards[s as usize].trajectories += 1;
                }
                match seen_by[t] {
                    NONE => seen_by[t] = s,
                    MULTI => {}
                    owner if owner == s => {}
                    _ => {
                        seen_by[t] = MULTI;
                        cross += 1;
                    }
                }
            }
        }
    }
    let covered = seen_by.iter().filter(|&&v| v != NONE).count() as u64;
    BoundaryReport {
        shards,
        cross_shard_trajectories: cross,
        covered_trajectories: covered,
    }
}

/// The shard of billboard `b` under `assignment`, with the deterministic
/// `id % n_shards` overflow rule for billboards added after the table
/// was built (streaming ingest can grow the inventory; the modulo rule
/// needs no geometry, so WAL replay reproduces it exactly).
#[inline]
pub fn shard_of(assignment: &[u32], b: usize, n_shards: usize) -> u32 {
    match assignment.get(b) {
        Some(&s) => s.min(n_shards as u32 - 1),
        None => (b % n_shards) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_shards_have_no_boundary() {
        // Billboards 0,1 -> shard 0 covering {0,1,2}; 2,3 -> shard 1
        // covering {3,4}.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![1, 2], vec![3], vec![3, 4]], 5);
        let report = boundary_report(&model, &[0, 0, 1, 1], 2);
        assert_eq!(report.cross_shard_trajectories, 0);
        assert_eq!(report.covered_trajectories, 5);
        assert_eq!(report.shards[0].billboards, 2);
        assert_eq!(report.shards[0].trajectories, 3);
        assert_eq!(report.shards[1].billboards, 2);
        assert_eq!(report.shards[1].trajectories, 2);
        assert_eq!(report.boundary_fraction(), 0.0);
    }

    #[test]
    fn straddling_trajectories_are_counted_once() {
        // Trajectory 1 is covered by both shards; trajectory 0 only by
        // shard 0 (twice); trajectory 2 only by shard 1.
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![0], vec![1, 2], vec![1]], 3);
        let report = boundary_report(&model, &[0, 0, 1, 1], 2);
        assert_eq!(report.cross_shard_trajectories, 1);
        assert_eq!(report.covered_trajectories, 3);
        assert!((report.boundary_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_shard_never_crosses() {
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![1, 2]], 3);
        let report = boundary_report(&model, &[0, 0], 1);
        assert_eq!(report.cross_shard_trajectories, 0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].trajectories, 3);
    }

    #[test]
    fn overflow_billboards_use_the_modulo_rule() {
        // Assignment table covers only billboard 0; billboards 1 and 2
        // fall back to id % 2 = shards 1 and 0.
        let model = CoverageModel::from_lists(vec![vec![0], vec![1], vec![2]], 3);
        let report = boundary_report(&model, &[1], 2);
        assert_eq!(shard_of(&[1], 0, 2), 1);
        assert_eq!(shard_of(&[1], 1, 2), 1);
        assert_eq!(shard_of(&[1], 2, 2), 0);
        assert_eq!(report.shards[0].billboards, 1);
        assert_eq!(report.shards[1].billboards, 2);
    }

    #[test]
    fn empty_model_reports_zeroes() {
        let model = CoverageModel::from_lists(vec![], 0);
        let report = boundary_report(&model, &[], 4);
        assert_eq!(report.covered_trajectories, 0);
        assert_eq!(report.cross_shard_trajectories, 0);
        assert_eq!(report.boundary_fraction(), 0.0);
    }
}
