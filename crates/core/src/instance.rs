//! A solvable MROAM problem instance.

use crate::advertiser::AdvertiserSet;
use mroam_data::BillboardId;
use mroam_influence::{CoverageModel, InfluenceMeasure};

/// Borrowed bundle of everything that defines one MROAM instance: the
/// coverage model for `(U, T, λ)`, the advertiser set `A`, the
/// unsatisfied-penalty ratio `γ`, the influence measure (the paper's
/// default is distinct-trajectory coverage; Section 3.1 notes the
/// algorithms are orthogonal to this choice), and optionally which
/// billboards of the model may be assigned at all.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// Coverage model (meets relation, influences, supply).
    pub model: &'a CoverageModel,
    /// Advertiser set `A`.
    pub advertisers: &'a AdvertiserSet,
    /// Unsatisfied-penalty ratio `γ ∈ [0, 1]` of Equation 1.
    pub gamma: f64,
    /// How per-trajectory meet counts map to influence.
    pub measure: InfluenceMeasure,
    /// The billboards the instance may assign (ascending, unique model
    /// ids), or `None` for every billboard of the model. A served day
    /// masks out the billboards locked by earlier contracts this way, on
    /// the shared model and its prebuilt derived structures.
    available: Option<&'a [BillboardId]>,
}

impl<'a> Instance<'a> {
    /// Bundles an instance with the paper's default measure
    /// (distinct-trajectory coverage); panics if `γ ∉ [0, 1]`.
    pub fn new(model: &'a CoverageModel, advertisers: &'a AdvertiserSet, gamma: f64) -> Self {
        Self::with_measure(model, advertisers, gamma, InfluenceMeasure::Distinct)
    }

    /// Bundles an instance under an explicit influence measure.
    pub fn with_measure(
        model: &'a CoverageModel,
        advertisers: &'a AdvertiserSet,
        gamma: f64,
        measure: InfluenceMeasure,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "γ must be in [0, 1], got {gamma}"
        );
        if let InfluenceMeasure::Impressions { k } = measure {
            assert!(k >= 1, "impression threshold k must be at least 1");
        }
        Self {
            model,
            advertisers,
            gamma,
            measure,
            available: None,
        }
    }

    /// Restricts the instance to the billboards in `ids`, which must be
    /// ascending, unique and within the model; every other billboard is
    /// neither free nor assignable. Solvers scan only these billboards and
    /// break ties by the same smaller-id rule, so the result equals a
    /// solve over a copy of the model holding just these billboards.
    pub fn with_available(mut self, ids: &'a [BillboardId]) -> Self {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "available billboards must be ascending and unique"
        );
        if let Some(last) = ids.last() {
            assert!(
                last.index() < self.model.n_billboards(),
                "available billboard {last} is not in the model"
            );
        }
        self.available = Some(ids);
        self
    }

    /// The availability list, or `None` when every billboard is available.
    #[inline]
    pub fn available(&self) -> Option<&'a [BillboardId]> {
        self.available
    }

    /// The billboards the instance may assign, ascending.
    pub fn available_ids(&self) -> impl Iterator<Item = BillboardId> + 'a {
        // Exactly one half of the chain is non-empty.
        let (list, n_all) = match self.available {
            Some(list) => (list, 0),
            None => (&[][..], self.model.n_billboards()),
        };
        list.iter()
            .copied()
            .chain((0..n_all).map(BillboardId::from_index))
    }

    /// Number of billboards the instance may assign, `|U|`.
    pub fn n_available(&self) -> usize {
        self.available
            .map_or(self.model.n_billboards(), <[BillboardId]>::len)
    }

    /// Whether billboard `b` may be assigned.
    pub fn is_available(&self, b: BillboardId) -> bool {
        match self.available {
            Some(list) => list.binary_search(&b).is_ok(),
            None => b.index() < self.model.n_billboards(),
        }
    }

    /// The demand-supply ratio `α = I^A / I*` realised by this instance
    /// (Section 7.1.3), with `I*` the available billboards' supply.
    pub fn demand_supply_ratio(&self) -> f64 {
        let supply: u64 = self
            .available_ids()
            .map(|b| self.model.influence_of(b))
            .sum();
        if supply == 0 {
            return 0.0;
        }
        self.advertisers.global_demand() as f64 / supply as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertiser::Advertiser;

    #[test]
    fn demand_supply_ratio() {
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![2, 3]], 4);
        let advertisers = AdvertiserSet::new(vec![Advertiser::new(2, 2.0)]);
        let inst = Instance::new(&model, &advertisers, 0.5);
        assert_eq!(inst.demand_supply_ratio(), 0.5);
    }

    #[test]
    fn zero_supply_ratio_is_zero() {
        let model = CoverageModel::from_lists(vec![], 0);
        let advertisers = AdvertiserSet::new(vec![Advertiser::new(2, 2.0)]);
        assert_eq!(
            Instance::new(&model, &advertisers, 0.0).demand_supply_ratio(),
            0.0
        );
    }

    #[test]
    fn masked_ratio_uses_the_available_supply() {
        let model = CoverageModel::from_lists(vec![vec![0, 1], vec![2, 3], vec![4]], 5);
        let advertisers = AdvertiserSet::new(vec![Advertiser::new(3, 2.0)]);
        let avail = [BillboardId(0), BillboardId(2)];
        let inst = Instance::new(&model, &advertisers, 0.5).with_available(&avail);
        assert_eq!(inst.demand_supply_ratio(), 1.0);
        let copy = crate::testutil::copied_submodel(&model, &avail);
        let reference = Instance::new(&copy, &advertisers, 0.5);
        assert_eq!(inst.demand_supply_ratio(), reference.demand_supply_ratio());
        assert_eq!(inst.n_available(), 2);
        assert_eq!(inst.available_ids().collect::<Vec<_>>(), avail);
        assert!(inst.is_available(BillboardId(2)));
        assert!(!inst.is_available(BillboardId(1)));
        let all = Instance::new(&model, &advertisers, 0.5);
        assert_eq!(all.n_available(), 3);
        assert_eq!(all.available_ids().count(), 3);
        assert!(!all.is_available(BillboardId(3)));
    }

    #[test]
    #[should_panic(expected = "ascending and unique")]
    fn unsorted_availability_is_rejected() {
        let model = CoverageModel::from_lists(vec![vec![0], vec![1]], 2);
        let advertisers = AdvertiserSet::default();
        let _ = Instance::new(&model, &advertisers, 0.5)
            .with_available(&[BillboardId(1), BillboardId(0)]);
    }

    #[test]
    #[should_panic(expected = "is not in the model")]
    fn availability_past_the_model_is_rejected() {
        let model = CoverageModel::from_lists(vec![vec![0]], 1);
        let advertisers = AdvertiserSet::default();
        let _ = Instance::new(&model, &advertisers, 0.5).with_available(&[BillboardId(1)]);
    }

    #[test]
    #[should_panic(expected = "γ must be in [0, 1]")]
    fn gamma_out_of_range_panics() {
        let model = CoverageModel::from_lists(vec![], 0);
        let advertisers = AdvertiserSet::default();
        let _ = Instance::new(&model, &advertisers, 1.5);
    }
}
