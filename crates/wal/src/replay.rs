//! Deterministic re-execution of the logged mutation stream.
//!
//! [`ReplayWorld`] mirrors the serve command loop's world exactly: a live
//! [`StreamEngine`] whose compacted base the market [`Host`] borrows, one
//! serving epoch at a time (a host that never ingests is simply an engine
//! whose overlay stays empty). Each [`WalRecord`] drives the *same* state
//! machine the live server ran —
//! `Host::run_day` for day records, `StreamEngine::ingest`/`compact` for
//! stream records — so a replayed world is bit-identical to the one that
//! logged the records:
//!
//! * **Days** resume the host from the carried [`HostSeed`] per record;
//!   `Host::resume` at day *k* is proven equal to an uninterrupted host
//!   (market host tests), so per-record reconstruction cannot diverge.
//! * **Ingests** re-run verbatim; a batch the live server rejected is
//!   deterministically re-rejected (same validation, same state), and
//!   either way the engine epoch advances identically.
//! * **Compactions** are logged explicitly, so replay never evaluates a
//!   [`CompactionPolicy`] — the operator can retune the policy without
//!   forking history. After folding, the carried locks are resized to
//!   the new base (the same `lock.resized` the live epoch swap does).
//!
//! Every stream record carries the engine epoch it was applied at; a
//! mismatch during replay means the log and the snapshot disagree about
//! history and surfaces as a typed [`ReplayError`] instead of silently
//! diverging.
//!
//! [`CompactionPolicy`]: mroam_stream::CompactionPolicy

use crate::record::WalRecord;
use crate::state::Restored;
use mroam_market::host::{Host, HostConfig, HostSeed};
use mroam_market::Ledger;
use mroam_stream::StreamEngine;
use std::fmt;
use std::sync::Arc;

/// Why a record could not be applied to the replayed world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The record's logged engine epoch disagrees with the replayed
    /// engine — snapshot and log tell different histories.
    EpochMismatch {
        /// WAL seq of the offending record.
        seq: u64,
        /// Epoch the record was logged at.
        logged: u64,
        /// Epoch the replayed engine is actually at.
        actual: u64,
    },
    /// The record's logged day disagrees with the replayed host clock.
    DayMismatch {
        /// WAL seq of the offending record.
        seq: u64,
        /// Day the record was logged at.
        logged: u32,
        /// Day the replayed host is actually at.
        actual: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EpochMismatch {
                seq,
                logged,
                actual,
            } => write!(
                f,
                "record {seq} logged at engine epoch {logged} but replay is at {actual}"
            ),
            ReplayError::DayMismatch {
                seq,
                logged,
                actual,
            } => write!(
                f,
                "record {seq} logged at day {logged} but replay is at {actual}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A world stepping through WAL records. Construct from a restored
/// snapshot, [`ReplayWorld::apply`] each record past the snapshot's
/// watermark, then [`ReplayWorld::into_parts`] to start serving.
pub struct ReplayWorld {
    engine: StreamEngine,
    config: HostConfig,
    seed: HostSeed,
    replayed: usize,
}

impl ReplayWorld {
    /// Builds the world a restored snapshot describes. The signature is
    /// the one the repository benchmark (`perfbench/`) calls.
    ///
    /// Panics if `restored.stream` is `None`, which [`crate::state::decode`]
    /// never returns: it refuses a stream-less document with a typed error.
    pub fn from_restored(restored: Restored) -> ReplayWorld {
        let engine = restored
            .stream
            .expect("a decoded snapshot always carries its stream section")
            .into_engine(Arc::new(restored.model));
        ReplayWorld {
            engine,
            config: restored.config,
            seed: restored.seed,
            replayed: 0,
        }
    }

    /// Applies one record (at WAL seq `seq`, for error reporting).
    pub fn apply(&mut self, seq: u64, record: &WalRecord) -> Result<(), ReplayError> {
        match record {
            WalRecord::Ingest { epoch, batch } => {
                let engine = &mut self.engine;
                if engine.epoch() != *epoch {
                    return Err(ReplayError::EpochMismatch {
                        seq,
                        logged: *epoch,
                        actual: engine.epoch(),
                    });
                }
                // A batch the live server rejected fails the same
                // validation here; either way state and epoch advance
                // identically, so the error is not a replay failure.
                let _ = engine.ingest(batch);
            }
            WalRecord::RunDay { day, proposals } => {
                if self.seed.day != *day {
                    return Err(ReplayError::DayMismatch {
                        seq,
                        logged: *day,
                        actual: self.seed.day,
                    });
                }
                let carried = HostSeed {
                    day: self.seed.day,
                    lock: std::mem::take(&mut self.seed.lock),
                    ledger: std::mem::take(&mut self.seed.ledger),
                };
                let mut host = Host::resume(self.engine.model(), self.config.clone(), carried);
                host.run_day(proposals);
                self.seed = host.seed();
            }
            WalRecord::Compact { epoch } => {
                let engine = &mut self.engine;
                if engine.epoch() != *epoch {
                    return Err(ReplayError::EpochMismatch {
                        seq,
                        logged: *epoch,
                        actual: engine.epoch(),
                    });
                }
                engine.compact();
                // The live epoch swap: carried locks grow to the new
                // base's inventory.
                let n = engine.model().n_billboards();
                self.seed.lock = std::mem::take(&mut self.seed.lock).resized(n);
            }
            WalRecord::SnapshotMark { .. } => {
                // Informational: marks a durable snapshot watermark for
                // pruning; no state transition.
            }
        }
        self.replayed += 1;
        Ok(())
    }

    /// The replayed host clock (next day index).
    pub fn day(&self) -> u32 {
        self.seed.day
    }

    /// The replayed ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.seed.ledger
    }

    /// The replayed engine epoch.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The replayed stream engine; always `Some`. The `Option` is kept
    /// because the repository benchmark (`perfbench/`) calls
    /// `engine().map(..)`; narrowing it waits for a change to the
    /// benchmark.
    pub fn engine(&self) -> Option<&StreamEngine> {
        Some(&self.engine)
    }

    /// Records applied so far.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The carried lock state, sized to the serving base.
    pub fn lock(&self) -> &mroam_market::LockState {
        &self.seed.lock
    }

    /// The carried host seed (clone; locks sized to the current base).
    pub fn seed(&self) -> HostSeed {
        self.seed.clone()
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Disassembles into the pieces a server spawn needs.
    pub fn into_parts(self) -> (HostConfig, HostSeed, StreamEngine) {
        (self.config, self.seed, self.engine)
    }
}
