//! Crash recovery: newest valid snapshot + WAL suffix replay.
//!
//! The protocol, in order:
//!
//! 1. **Pick a snapshot.** Walk `snap-<seq>.snap` files newest-first;
//!    the first one that passes its checksum *and* decodes wins. Corrupt
//!    or torn snapshots, and documents without the stream section, are
//!    skipped (recorded in the report) — an older
//!    snapshot plus a longer replay reaches the same state, because the
//!    log keeps every segment at or above the oldest snapshot's
//!    watermark. A WAL directory always holds at least the genesis
//!    snapshot (watermark 0) written when the server first opened it,
//!    so the log is self-contained.
//! 2. **Replay the suffix.** Scan the log ([`WalReader`] validates
//!    checksums, seq contiguity, and truncates a torn tail in the final
//!    segment), then apply every record with `seq > watermark` through
//!    [`ReplayWorld`] — the same state machine the live server runs.
//! 3. **Resume.** The caller turns the world into a serving host via
//!    [`ReplayWorld::into_parts`]; a [`crate::WalWriter`] opened on the
//!    same directory truncates the torn tail and continues at
//!    `last_seq + 1`.
//!
//! Anything that makes history ambiguous — corruption *before* the tail,
//! no decodable snapshot, a record the world rejects — is a typed error,
//! never a best-effort guess.

use crate::log::{WalError, WalReader};
use crate::replay::{ReplayError, ReplayWorld};
use crate::state::{self, SnapshotError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why recovery could not produce a world.
#[derive(Debug)]
pub enum RecoverError {
    /// The log itself is unreadable or corrupt before its tail.
    Wal(WalError),
    /// No snapshot file decoded; recovery has no base state. Carries
    /// every candidate considered with the reason it was rejected.
    NoSnapshot {
        /// `(watermark, reason)` per rejected snapshot, newest first.
        considered: Vec<(u64, String)>,
    },
    /// A record refused to apply — snapshot and log tell different
    /// histories.
    Replay {
        /// WAL seq of the offending record.
        seq: u64,
        /// The replay failure.
        error: ReplayError,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Wal(e) => write!(f, "recovery failed reading the log: {e}"),
            RecoverError::NoSnapshot { considered } => {
                write!(f, "no usable snapshot out of {}:", considered.len())?;
                for (seq, reason) in considered {
                    write!(f, " [{seq}: {reason}]")?;
                }
                Ok(())
            }
            RecoverError::Replay { seq, error } => {
                write!(f, "replay diverged at record {seq}: {error}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

/// What recovery did, for logs and the `wal-replay` tool.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Watermark of the snapshot restored from.
    pub snapshot_seq: u64,
    /// Path of that snapshot file.
    pub snapshot_path: PathBuf,
    /// Snapshots that failed verification/decoding and were skipped,
    /// newest first, with reasons.
    pub skipped_snapshots: Vec<(u64, String)>,
    /// Records replayed past the watermark.
    pub replayed: usize,
    /// Highest valid WAL seq found (the writer resumes after it).
    pub last_seq: u64,
    /// Torn bytes found past the final valid frame (cleanly ignored).
    pub torn_tail_bytes: u64,
    /// Host day after replay.
    pub day: u32,
    /// Engine epoch after replay.
    pub epoch: u64,
}

/// Recovers a world from a WAL directory. See the module docs for the
/// protocol; `Ok` means the returned world is bit-identical to the
/// crashed server's last durable state.
pub fn recover(dir: &Path) -> Result<(ReplayWorld, RecoveryReport), RecoverError> {
    let mut snapshots = state::list_snapshots(dir).map_err(|e| match e {
        SnapshotError::Io(io) => RecoverError::Wal(WalError::Io(io)),
        other => RecoverError::NoSnapshot {
            considered: vec![(0, other.to_string())],
        },
    })?;
    snapshots.reverse(); // newest first
    let mut skipped = Vec::new();
    let mut chosen = None;
    for (seq, path) in snapshots {
        match state::read_snapshot_file(&path).and_then(|doc| state::decode(&doc)) {
            Ok(restored) => {
                chosen = Some((seq, path, restored));
                break;
            }
            Err(e) => skipped.push((seq, e.to_string())),
        }
    }
    let Some((snapshot_seq, snapshot_path, restored)) = chosen else {
        return Err(RecoverError::NoSnapshot {
            considered: skipped,
        });
    };

    let reader = WalReader::open(dir)?;
    let records = reader.records_after(snapshot_seq)?;
    let mut world = ReplayWorld::from_restored(restored);
    for (seq, record) in &records {
        world
            .apply(*seq, record)
            .map_err(|error| RecoverError::Replay { seq: *seq, error })?;
    }
    let report = RecoveryReport {
        snapshot_seq,
        snapshot_path,
        skipped_snapshots: skipped,
        replayed: records.len(),
        last_seq: reader.last_seq().max(snapshot_seq),
        torn_tail_bytes: reader.torn_tail_bytes(),
        day: world.day(),
        epoch: world.epoch(),
    };
    Ok((world, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{SyncPolicy, WalOptions, WalWriter};
    use crate::record::WalRecord;
    use crate::state::{encode, write_snapshot_file};
    use crate::testutil::TempDir;
    use mroam_core::solver::SolverSpec;
    use mroam_market::host::{Host, HostConfig};
    use mroam_market::ProposalGenerator;
    use mroam_stream::testutil::disjoint_engine;
    use std::fs;

    fn config() -> HostConfig {
        HostConfig {
            gamma: 0.5,
            solver: SolverSpec::by_name("bls")
                .unwrap()
                .with_seed(77)
                .with_restarts(2),
        }
    }

    /// Runs `days` against a fresh host while logging, snapshotting
    /// after `snap_after` days; returns the uninterrupted ledger.
    fn build_log(dir: &Path, days: u32, snap_after: u32) -> mroam_market::Ledger {
        let engine = disjoint_engine(&[8, 7, 6, 5, 4, 3]);
        let g = ProposalGenerator {
            supply: engine.model().supply(),
            p_avg: 0.15,
            arrivals_per_day: (1, 3),
            duration_days: (1, 3),
            seed: 9,
        };
        let mut host = Host::new(engine.model(), config());
        // Genesis snapshot: watermark 0.
        write_snapshot_file(dir, 0, &encode(&host, Some(&engine))).unwrap();
        let mut wal = WalWriter::open(
            dir,
            WalOptions {
                sync: SyncPolicy::PerRecord,
                segment_bytes: 256, // force rotations
            },
        )
        .unwrap();
        for day in 0..days {
            let batch = g.day_batch(day);
            let seq = wal
                .append(&WalRecord::RunDay {
                    day,
                    proposals: batch.clone(),
                })
                .unwrap();
            host.run_day(&batch);
            if day + 1 == snap_after {
                write_snapshot_file(dir, seq, &encode(&host, Some(&engine))).unwrap();
                wal.append(&WalRecord::SnapshotMark {
                    wal_seq: seq,
                    day: host.day(),
                    epoch: 0,
                })
                .unwrap();
            }
        }
        host.ledger().clone()
    }

    #[test]
    fn recovery_matches_the_uninterrupted_run() {
        let tmp = TempDir::new("recover-basic");
        let expected = build_log(tmp.path(), 8, 3);
        let (world, report) = recover(tmp.path()).unwrap();
        assert_eq!(report.snapshot_seq, 3, "newest snapshot wins");
        assert_eq!(report.replayed, 6, "5 days + 1 mark past seq 3");
        assert_eq!(world.day(), 8);
        assert_eq!(world.ledger().days, expected.days);
        assert!(report.skipped_snapshots.is_empty());
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let tmp = TempDir::new("recover-fallback");
        let expected = build_log(tmp.path(), 8, 3);
        // Bit-flip the newest snapshot's body.
        let snaps = state::list_snapshots(tmp.path()).unwrap();
        let (seq, path) = snaps.last().unwrap();
        assert_eq!(*seq, 3);
        let mut bytes = fs::read(path).unwrap();
        bytes[40] ^= 0x20;
        fs::write(path, &bytes).unwrap();
        let (world, report) = recover(tmp.path()).unwrap();
        assert_eq!(report.snapshot_seq, 0, "fell back to genesis");
        assert_eq!(report.skipped_snapshots.len(), 1);
        assert_eq!(report.replayed, 9, "8 days + 1 mark from genesis");
        assert_eq!(world.ledger().days, expected.days);
    }

    #[test]
    fn stream_less_newest_snapshot_falls_back_to_older() {
        let tmp = TempDir::new("recover-streamless");
        let expected = build_log(tmp.path(), 8, 3);
        // Rewrite the newest snapshot as a sealed, checksum-valid document
        // whose stream section is null.
        let snaps = state::list_snapshots(tmp.path()).unwrap();
        let (seq, path) = snaps.last().unwrap();
        assert_eq!(*seq, 3);
        let doc = state::read_snapshot_file(path).unwrap();
        let start = doc.find("\"stream\":{").expect("stream section");
        // `stream` is the document's last field.
        let end = doc.rfind('}').expect("document end");
        let stream_less = format!("{}\"stream\":null{}", &doc[..start], &doc[end..]);
        write_snapshot_file(tmp.path(), 3, &stream_less).unwrap();
        let (world, report) = recover(tmp.path()).unwrap();
        assert_eq!(report.snapshot_seq, 0, "fell back to genesis");
        assert_eq!(report.skipped_snapshots.len(), 1);
        let (skipped_seq, reason) = &report.skipped_snapshots[0];
        assert_eq!(*skipped_seq, 3);
        assert!(reason.contains("\"stream\""), "reason: {reason}");
        assert_eq!(report.replayed, 9, "8 days + 1 mark from genesis");
        assert_eq!(world.ledger().days, expected.days);
    }

    #[test]
    fn sharded_newest_snapshot_falls_back_to_older() {
        let tmp = TempDir::new("recover-sharded");
        let expected = build_log(tmp.path(), 8, 3);
        // Rewrite the newest snapshot as a sealed, checksum-valid document
        // that carries a sharding section.
        let snaps = state::list_snapshots(tmp.path()).unwrap();
        let (seq, path) = snaps.last().unwrap();
        assert_eq!(*seq, 3);
        let doc = state::read_snapshot_file(path).unwrap();
        let body = doc.strip_suffix('}').expect("a JSON object");
        let sharded =
            format!("{body},\"shards\":{{\"n_shards\":2,\"assignment\":[0,0,0,1,1,1]}}}}");
        write_snapshot_file(tmp.path(), 3, &sharded).unwrap();
        let (world, report) = recover(tmp.path()).unwrap();
        assert_eq!(report.snapshot_seq, 0, "fell back to genesis");
        assert_eq!(report.skipped_snapshots.len(), 1);
        let (skipped_seq, reason) = &report.skipped_snapshots[0];
        assert_eq!(*skipped_seq, 3);
        assert!(reason.contains("\"shards\""), "reason: {reason}");
        assert_eq!(report.replayed, 9, "8 days + 1 mark from genesis");
        assert_eq!(world.ledger().days, expected.days);
    }

    #[test]
    fn no_usable_snapshot_is_a_typed_error() {
        let tmp = TempDir::new("recover-nosnap");
        build_log(tmp.path(), 3, 2);
        for (_, path) in state::list_snapshots(tmp.path()).unwrap() {
            let mut bytes = fs::read(&path).unwrap();
            let n = bytes.len();
            bytes.truncate(n / 2);
            fs::write(&path, &bytes).unwrap();
        }
        let err = recover(tmp.path()).err().expect("recovery must fail");
        match err {
            RecoverError::NoSnapshot { considered } => {
                assert_eq!(considered.len(), 2);
            }
            other => panic!("expected NoSnapshot, got {other}"),
        }
    }

    #[test]
    fn torn_wal_tail_recovers_to_the_last_durable_record() {
        let tmp = TempDir::new("recover-torn");
        build_log(tmp.path(), 6, 2);
        // Tear the final segment mid-frame.
        let seg = crate::log::WalReader::open(tmp.path())
            .unwrap()
            .segments
            .last()
            .unwrap()
            .path
            .clone();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let (world, report) = recover(tmp.path()).unwrap();
        assert!(report.torn_tail_bytes > 0);
        // The torn record was day 5 (or the mark): replay stops before it.
        assert!(world.day() >= 5, "recovered at day {}", world.day());
        assert_eq!(u64::from(world.day()), {
            // Count surviving RunDay records.
            let r = crate::log::WalReader::open(tmp.path()).unwrap();
            r.records_after(0)
                .unwrap()
                .iter()
                .filter(|(_, rec)| matches!(rec, WalRecord::RunDay { .. }))
                .count() as u64
        });
    }
}
