//! Campaign proposals and their daily arrival process.

use mroam_core::advertiser::Advertiser;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One advertiser's campaign proposal: the contract terms of Section 3.1
/// plus a duration for the day-over-day setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Proposal {
    /// Demanded influence `I_i`.
    pub demand: u64,
    /// Committed payment `L_i`.
    pub payment: f64,
    /// Days the deployment stays locked once signed (≥ 1).
    pub duration_days: u32,
    /// A client-supplied zone tag. The market ignores it: every day is
    /// one solve over the whole free inventory. It stays on the wire and
    /// in WAL records so logs that carry it still decode and replay.
    pub zone: Option<u32>,
}

impl Proposal {
    /// The advertiser record for solving the daily MROAM instance.
    pub fn advertiser(&self) -> Advertiser {
        Advertiser::new(self.demand, self.payment)
    }
}

/// Generates daily proposal batches following the paper's workload
/// parameterisation: per-proposal demand `⌊ω·supply·p⌋` with
/// `ω ~ U[0.8, 1.2]`, payment `⌊ε·demand⌋` with `ε ~ U[0.9, 1.1]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProposalGenerator {
    /// Host supply `I*` the demands are sized against.
    pub supply: u64,
    /// Average individual demand as a fraction of supply (the paper's
    /// `p(ĪA)`).
    pub p_avg: f64,
    /// Inclusive range of proposals arriving per day.
    pub arrivals_per_day: (usize, usize),
    /// Inclusive range of contract durations in days.
    pub duration_days: (u32, u32),
    /// RNG seed; day `d` derives its own stream so batches are stable under
    /// replay.
    pub seed: u64,
}

impl ProposalGenerator {
    /// The proposals arriving on day `day` (deterministic per day).
    pub fn day_batch(&self, day: u32) -> Vec<Proposal> {
        assert!(self.supply > 0, "cannot size demand against zero supply");
        assert!(self.p_avg > 0.0, "p_avg must be positive");
        assert!(
            self.arrivals_per_day.0 <= self.arrivals_per_day.1,
            "bad arrival range"
        );
        assert!(
            self.duration_days.0 >= 1 && self.duration_days.0 <= self.duration_days.1,
            "bad duration range"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (u64::from(day)).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let n = rng.gen_range(self.arrivals_per_day.0..=self.arrivals_per_day.1);
        (0..n)
            .map(|_| {
                let omega: f64 = rng.gen_range(0.8..1.2);
                let demand = ((omega * self.supply as f64 * self.p_avg).floor() as u64).max(1);
                let epsilon: f64 = rng.gen_range(0.9..1.1);
                let payment = (epsilon * demand as f64).floor().max(1.0);
                let duration_days = rng.gen_range(self.duration_days.0..=self.duration_days.1);
                Proposal {
                    demand,
                    payment,
                    duration_days,
                    zone: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> ProposalGenerator {
        ProposalGenerator {
            supply: 10_000,
            p_avg: 0.05,
            arrivals_per_day: (2, 5),
            duration_days: (1, 7),
            seed: 9,
        }
    }

    #[test]
    fn batches_are_deterministic_per_day() {
        let g = generator();
        assert_eq!(g.day_batch(3), g.day_batch(3));
        assert_ne!(g.day_batch(3), g.day_batch(4));
    }

    #[test]
    fn batch_sizes_and_fields_in_range() {
        let g = generator();
        for day in 0..30 {
            let batch = g.day_batch(day);
            assert!((2..=5).contains(&batch.len()));
            for p in batch {
                assert!(p.demand >= 1);
                let omega = p.demand as f64 / (g.supply as f64 * g.p_avg);
                assert!((0.79..1.2).contains(&omega), "omega {omega}");
                assert!((1..=7).contains(&p.duration_days));
                assert!(p.payment >= 1.0);
            }
        }
    }

    #[test]
    fn advertiser_conversion() {
        let p = Proposal {
            demand: 50,
            payment: 45.0,
            duration_days: 3,
            zone: None,
        };
        let a = p.advertiser();
        assert_eq!(a.demand, 50);
        assert_eq!(a.payment, 45.0);
    }

    #[test]
    #[should_panic(expected = "zero supply")]
    fn zero_supply_rejected() {
        let mut g = generator();
        g.supply = 0;
        g.day_batch(0);
    }
}
