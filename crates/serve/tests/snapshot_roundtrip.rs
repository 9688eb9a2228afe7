//! Property test for the crash-recovery guarantee.
//!
//! For any inventory, workload seed, and kill day `k`: running `k` days,
//! snapshotting, destroying the host, restoring from the snapshot text,
//! and finishing the horizon must produce exactly the ledger of a host
//! that never stopped. The snapshot string is the only thing that
//! survives the "crash" — the model, locks, solver seed, and ledger all
//! travel through it.

use mroam_core::solver::SolverSpec;
use mroam_market::host::{Host, HostConfig};
use mroam_market::ProposalGenerator;
use mroam_stream::testutil::disjoint_engine;
use mroam_wal::state;
use proptest::prelude::*;

const HORIZON: u32 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_restore_then_continue_equals_uninterrupted(
        influences in proptest::collection::vec(1u32..12, 3..10),
        kill_day in 0u32..HORIZON,
        seed in any::<u64>(),
    ) {
        let engine = disjoint_engine(&influences);
        let model = engine.model();
        let config = HostConfig {
            gamma: [0.0, 0.5, 1.0][(seed % 3) as usize],
            solver: SolverSpec::by_name(
                ["g-order", "g-global", "als", "bls"][(seed % 4) as usize],
            )
            .unwrap()
            .with_restarts(2)
            .with_seed(seed ^ 0xA5A5_A5A5_A5A5_A5A5),
            shards: None,
        };
        let generator = ProposalGenerator {
            supply: model.supply(),
            p_avg: 0.05 + (seed % 7) as f64 * 0.03,
            arrivals_per_day: (1, 3),
            duration_days: (1, 4),
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };

        let mut uninterrupted = Host::new(model, config.clone());
        let mut doomed = Host::new(model, config);
        for day in 0..kill_day {
            uninterrupted.run_day(&generator.day_batch(day));
            doomed.run_day(&generator.day_batch(day));
        }

        let snapshot_text = state::encode(&doomed, Some(&engine));
        drop(doomed); // the crash: only the string survives

        let restored = state::decode(&snapshot_text).expect("snapshot restores");
        prop_assert_eq!(restored.seed.day, kill_day);
        let mut resumed = Host::resume(&restored.model, restored.config, restored.seed);
        for day in kill_day..HORIZON {
            let a = uninterrupted.run_day(&generator.day_batch(day));
            let b = resumed.run_day(&generator.day_batch(day));
            prop_assert_eq!(a, b, "day {} diverged after restore", day);
        }
        prop_assert_eq!(&uninterrupted.ledger().days, &resumed.ledger().days);
        // And the final states agree too: a second snapshot taken at the
        // end of either run is interchangeable.
        prop_assert_eq!(uninterrupted.seed(), resumed.seed());
    }
}
