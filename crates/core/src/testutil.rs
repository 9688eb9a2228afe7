//! Shared test fixtures. Deduplicates the disjoint-coverage model
//! builder and the paper's Example 1 data that were previously
//! copy-pasted into every algorithm module's test block. The
//! disjoint-model builder is `pub` (not just crate-visible) because the
//! serve/wal crash-recovery tests lean on the same trick: disjoint
//! coverage makes expected ledgers computable by plain addition.

use crate::advertiser::{Advertiser, AdvertiserSet};
use mroam_data::BillboardId;
use mroam_influence::CoverageModel;

/// Disjoint-coverage model with the given individual influences: billboard
/// `k` covers its own private block of `influences[k]` trajectories, so
/// `I(S)` is plain addition.
pub fn disjoint_model(influences: &[u32]) -> CoverageModel {
    let mut lists = Vec::new();
    let mut next = 0u32;
    for &k in influences {
        lists.push((next..next + k).collect::<Vec<u32>>());
        next += k;
    }
    CoverageModel::from_lists(lists, next as usize)
}

/// Shorthand for billboard-id vectors in assertions.
pub fn ids(v: &[u32]) -> Vec<BillboardId> {
    v.iter().map(|&i| BillboardId(i)).collect()
}

/// Example 1 of the paper as introduced in the prose: influences
/// 2, 6, 7, 7, 1, 1 over disjoint trajectory sets.
pub fn example1_model() -> CoverageModel {
    disjoint_model(&[2, 6, 7, 7, 1, 1])
}

/// Example 1 with the actual Table 1 influences 2, 6, 3, 7, 1, 1 (the o3
/// column reads 3; see the discussion in the allocation tests).
pub fn example1_table1_model() -> CoverageModel {
    disjoint_model(&[2, 6, 3, 7, 1, 1])
}

/// The Example 1 contracts (Table 2): `(demand, payment)` = (5, $10),
/// (7, $11), (8, $20).
pub fn example1_advertisers() -> AdvertiserSet {
    AdvertiserSet::new(vec![
        Advertiser::new(5, 10.0),
        Advertiser::new(7, 11.0),
        Advertiser::new(8, 20.0),
    ])
}

/// A copy of `model` holding only the billboards `ids` (ascending), built
/// through [`CoverageModel::from_lists`]: the copy's billboard `k` is
/// `ids[k]`, over the same trajectory ids. Tests solve on it as an
/// oracle for [`Instance::with_available`](crate::Instance::with_available)
/// that shares no code with the mask.
pub fn copied_submodel(model: &CoverageModel, ids: &[BillboardId]) -> CoverageModel {
    let lists = ids.iter().map(|&b| model.coverage(b).to_vec()).collect();
    CoverageModel::from_lists(lists, model.n_trajectories())
}
