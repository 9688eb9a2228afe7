//! Masked-instance identity: a solve over the whole model masked to an
//! availability list ([`Instance::with_available`]) must return exactly
//! what the same solver returns on a copy of the model holding only the
//! available billboards, once the copy's dense ids are mapped back. The
//! copy is built by `testutil::copied_submodel` through
//! `CoverageModel::from_lists`, so the oracle shares no code with the
//! mask.
//!
//! Covered: G-Order, G-Global, ALS and BLS at fixed seeds, and the exact
//! solver on at most six available billboards. Masks are empty, full, or
//! random; models overlap at random.
//! The `_long` variant samples many more cases and is ignored by default;
//! CI runs it at a forced pool width with `--include-ignored`.

use mroam_core::prelude::*;
use mroam_core::testutil::copied_submodel;
use mroam_data::BillboardId;
use mroam_influence::CoverageModel;
use proptest::prelude::*;

/// Per-solve digest in model ids: sets, influences, total-regret bits.
type Digest = (Vec<Vec<u32>>, Vec<u64>, u64);

fn digest(s: &Solution, ids: Option<&[BillboardId]>) -> Digest {
    let sets = s
        .sets
        .iter()
        .map(|set| {
            let mut out: Vec<u32> = set
                .iter()
                .map(|b| ids.map_or(b.0, |ids| ids[b.index()].0))
                .collect();
            out.sort_unstable();
            out
        })
        .collect();
    (sets, s.influences.clone(), s.total_regret.to_bits())
}

/// One sampled case: coverage lists over `n_t` trajectories, a mask
/// selector, advertisers `(demand, payment)` and γ.
#[derive(Debug, Clone)]
struct Case {
    lists: Vec<Vec<u32>>,
    n_t: u32,
    mask_mode: u8,
    mask_bits: Vec<u8>,
    advertisers: Vec<(u64, f64)>,
    gamma: f64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2u32..24).prop_flat_map(|n_t| {
        let lists = proptest::collection::vec(proptest::collection::btree_set(0..n_t, 0..6), 1..12)
            .prop_map(|sets| {
                sets.into_iter()
                    .map(|s| s.into_iter().collect::<Vec<u32>>())
                    .collect::<Vec<_>>()
            });
        (
            (
                lists,
                Just(n_t),
                0u8..4,
                proptest::collection::vec(0u8..2, 12),
            ),
            (
                proptest::collection::vec((1u64..30, 1.0..100.0f64), 1..4),
                0.0..=1.0f64,
            ),
        )
            .prop_map(
                |((lists, n_t, mask_mode, mask_bits), (advertisers, gamma))| Case {
                    lists,
                    n_t,
                    mask_mode,
                    mask_bits,
                    advertisers,
                    gamma,
                },
            )
    })
}

fn check_case(case: &Case) {
    let model = CoverageModel::from_lists(case.lists.clone(), case.n_t as usize);
    let n_b = model.n_billboards();
    // Modes 0 and 1 pin the edges (nothing free, everything free); the
    // rest draw a random subset.
    let ids: Vec<BillboardId> = (0..n_b)
        .filter(|&b| match case.mask_mode {
            0 => false,
            1 => true,
            _ => case.mask_bits[b] == 1,
        })
        .map(BillboardId::from_index)
        .collect();
    let copy = copied_submodel(&model, &ids);
    let advertisers = AdvertiserSet::new(
        case.advertisers
            .iter()
            .map(|&(d, p)| Advertiser::new(d, p))
            .collect(),
    );
    let masked = Instance::new(&model, &advertisers, case.gamma).with_available(&ids);
    let reference = Instance::new(&copy, &advertisers, case.gamma);

    let mut solvers: Vec<(&str, Box<dyn Solver + Sync>)> = vec![
        ("G-Order", Box::new(GOrder)),
        ("G-Global", Box::new(GGlobal)),
        (
            "ALS",
            Box::new(Als {
                restarts: 2,
                seed: 7,
                ..Als::default()
            }),
        ),
        (
            "BLS",
            Box::new(Bls {
                restarts: 2,
                seed: 7,
                ..Bls::default()
            }),
        ),
    ];
    if ids.len() <= 6 {
        solvers.push(("Exact", Box::new(ExactSolver::default())));
    }
    for (name, solver) in &solvers {
        let got = solver.solve(&masked);
        got.assert_disjoint();
        for set in &got.sets {
            for b in set {
                assert!(ids.contains(b), "{name} assigned masked-out {b}");
            }
        }
        assert_eq!(
            digest(&got, None),
            digest(&solver.solve(&reference), Some(&ids)),
            "{name} masked vs copied solve, mask {ids:?}"
        );
    }
}

fn every_solver() -> Vec<Box<dyn Solver + Sync>> {
    vec![
        Box::new(GOrder),
        Box::new(GGlobal),
        Box::new(Als::default()),
        Box::new(Bls::default()),
        Box::new(ExactSolver::default()),
    ]
}

#[test]
fn an_empty_mask_solves_to_empty_sets() {
    let model = CoverageModel::from_lists(vec![vec![0, 1], vec![1, 2], vec![3]], 4);
    let advertisers = AdvertiserSet::new(vec![Advertiser::new(2, 4.0), Advertiser::new(1, 3.0)]);
    let inst = Instance::new(&model, &advertisers, 0.5).with_available(&[]);
    for solver in every_solver() {
        let s = solver.solve(&inst);
        assert!(s.sets.iter().all(Vec::is_empty), "{}", solver.name());
        assert_eq!(s.total_regret, 7.0, "{}", solver.name());
    }
}

#[test]
fn a_full_mask_solves_like_no_mask() {
    let model = CoverageModel::from_lists(
        vec![vec![0, 1], vec![1, 2], vec![3], vec![2, 3, 4], vec![5]],
        6,
    );
    let advertisers = AdvertiserSet::new(vec![Advertiser::new(3, 4.0), Advertiser::new(2, 3.0)]);
    let all: Vec<BillboardId> = model.billboard_ids().collect();
    let unmasked = Instance::new(&model, &advertisers, 0.5);
    let masked = unmasked.with_available(&all);
    for solver in every_solver() {
        assert_eq!(
            digest(&solver.solve(&masked), None),
            digest(&solver.solve(&unmasked), None),
            "{}",
            solver.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_solves_match_copies(case in arb_case()) {
        check_case(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    #[ignore = "long run: CI runs it at RAYON_NUM_THREADS=4 with --include-ignored"]
    fn masked_solves_match_copies_long(case in arb_case()) {
        check_case(&case);
    }
}
