//! The host state machine: the restartable world state of a serving (or
//! replaying) process.
//!
//! A [`Host`] owns everything a serving process mutates — the market
//! simulator (lock state + scratch), the revenue ledger, the day clock,
//! and the configured solver — against a borrowed, immutable
//! [`CoverageModel`]. It lives in the market crate (not the serving
//! layer) because it is the *logical* state machine: `mroam-serve` runs
//! it behind a single-writer command loop, and `mroam-wal` replays the
//! same transitions from a write-ahead log — both must step through
//! identical code for recovery to be bit-identical.

use crate::{DayOutcome, Ledger, LockState, MarketConfig, MarketSim, Proposal};
use mroam_core::shard::{ShardReport, ShardSpec};
use mroam_core::solver::{Solver, SolverSpec};
use mroam_influence::CoverageModel;

/// Host-level configuration: the regret model's γ and the solver to run
/// on every batch.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Unsatisfied-penalty ratio γ of the regret model.
    pub gamma: f64,
    /// The deployment algorithm solved per batch.
    pub solver: SolverSpec,
    /// Spatial sharding of the daily solve; `None` (the default) runs the
    /// single engine. Part of the persisted config: recovery must solve
    /// with the same sharding to replay bit-identically.
    pub shards: Option<ShardSpec>,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            gamma: 0.5,
            solver: SolverSpec::by_name("g-global").expect("registered"),
            shards: None,
        }
    }
}

/// The restartable half of a host: everything [`Host::resume`] needs on
/// top of the (separately persisted) coverage model.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSeed {
    /// Next day index.
    pub day: u32,
    /// Inventory lock state.
    pub lock: LockState,
    /// Ledger of solved days.
    pub ledger: Ledger,
}

/// The mutable world state of a serving host.
pub struct Host<'a> {
    model: &'a CoverageModel,
    sim: MarketSim<'a>,
    ledger: Ledger,
    day: u32,
    config: HostConfig,
    solver: Box<dyn Solver + Send + Sync>,
}

impl<'a> Host<'a> {
    /// A fresh host: day 0, all inventory free, empty ledger.
    pub fn new(model: &'a CoverageModel, config: HostConfig) -> Self {
        let solver = config.solver.build();
        let mut sim = MarketSim::new(model);
        sim.set_shards(config.shards.clone());
        Self {
            model,
            sim,
            ledger: Ledger::default(),
            day: 0,
            config,
            solver,
        }
    }

    /// Rebuilds a host from a snapshot seed (crash recovery). The
    /// continuation behaves exactly like the uninterrupted host: same
    /// locks, same ledger prefix, same solver seed.
    pub fn resume(model: &'a CoverageModel, config: HostConfig, seed: HostSeed) -> Self {
        let solver = config.solver.build();
        let mut sim = MarketSim::with_lock_state(model, seed.lock);
        sim.set_shards(config.shards.clone());
        Self {
            model,
            sim,
            ledger: seed.ledger,
            day: seed.day,
            config,
            solver,
        }
    }

    /// The coverage model being served.
    pub fn model(&self) -> &'a CoverageModel {
        self.model
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Next day index (number of days solved so far).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// The ledger of solved days.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Currently locked billboard count.
    pub fn locked_count(&self) -> usize {
        self.sim.locked_count()
    }

    /// Currently free billboard count.
    pub fn free_count(&self) -> usize {
        self.model.n_billboards() - self.sim.locked_count()
    }

    /// The report of the most recent sharded day solve (`None` when
    /// sharding is off or no day has been solved yet).
    pub fn shard_report(&self) -> Option<&ShardReport> {
        self.sim.last_shard_report()
    }

    /// Extracts the restartable state (pairs with [`Host::resume`]).
    pub fn seed(&self) -> HostSeed {
        HostSeed {
            day: self.day,
            lock: self.sim.lock_state(),
            ledger: self.ledger.clone(),
        }
    }

    /// Solves one batch of proposals as the next market day: releases
    /// expired contracts, solves one MROAM instance over the free
    /// inventory, locks the deployments, books the ledger record, and
    /// advances the clock. An empty batch still advances the day (an
    /// explicit `run_day` with nothing pending).
    pub fn run_day(&mut self, proposals: &[Proposal]) -> DayOutcome {
        let outcome = self.sim.step_with_proposals(
            self.day,
            proposals,
            self.solver.as_ref(),
            MarketConfig {
                days: self.day + 1,
                gamma: self.config.gamma,
            },
        );
        self.ledger.days.push(outcome.record);
        self.day += 1;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProposalGenerator;
    use mroam_core::testutil::disjoint_model;

    fn generator(supply: u64) -> ProposalGenerator {
        ProposalGenerator {
            supply,
            p_avg: 0.10,
            arrivals_per_day: (1, 3),
            duration_days: (1, 3),
            seed: 5,
        }
    }

    #[test]
    fn host_days_match_the_offline_simulator() {
        let model = disjoint_model(&[9, 8, 7, 6, 5, 4]);
        let g = generator(model.supply());
        let config = HostConfig::default();
        let mut host = Host::new(&model, config.clone());
        let mut sim = MarketSim::new(&model);
        let solver = config.solver.build();
        for day in 0..10 {
            let batch = g.day_batch(day);
            let online = host.run_day(&batch);
            let offline = sim.step_with_proposals(
                day,
                &batch,
                solver.as_ref(),
                MarketConfig {
                    days: day + 1,
                    gamma: config.gamma,
                },
            );
            assert_eq!(online, offline, "day {day} diverged");
        }
        assert_eq!(host.day(), 10);
        assert_eq!(host.ledger().days.len(), 10);
        assert_eq!(
            host.locked_count() + host.free_count(),
            model.n_billboards()
        );
    }

    #[test]
    fn seed_resume_continues_identically() {
        let model = disjoint_model(&[9, 8, 7, 6, 5, 4]);
        let g = generator(model.supply());
        let mut uninterrupted = Host::new(&model, HostConfig::default());
        let mut first = Host::new(&model, HostConfig::default());
        for day in 0..4 {
            uninterrupted.run_day(&g.day_batch(day));
            first.run_day(&g.day_batch(day));
        }
        let mut resumed = Host::resume(&model, HostConfig::default(), first.seed());
        for day in 4..9 {
            let a = uninterrupted.run_day(&g.day_batch(day));
            let b = resumed.run_day(&g.day_batch(day));
            assert_eq!(a, b, "day {day} diverged after resume");
        }
        assert_eq!(uninterrupted.ledger().days, resumed.ledger().days);
    }

    #[test]
    fn empty_run_day_advances_the_clock_and_releases_locks() {
        let model = disjoint_model(&[10, 10]);
        let mut host = Host::new(&model, HostConfig::default());
        host.run_day(&[Proposal {
            demand: 9,
            payment: 9.0,
            duration_days: 1,
            zone: None,
        }]);
        assert_eq!(host.day(), 1);
        let locked = host.locked_count();
        assert!(locked >= 1);
        let out = host.run_day(&[]);
        assert_eq!(out.record.arrived, 0);
        assert_eq!(host.day(), 2);
        assert!(host.locked_count() < locked, "day-1 contract must expire");
    }
}
