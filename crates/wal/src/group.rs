//! The log's append handle: one durability rule for every record.
//!
//! [`SharedWal`] owns the single segment writer behind a mutex.
//! [`SharedWal::append`] writes the frame, `fdatasync`s it, and only
//! then publishes the record's seq as `durable_seq` and returns, so a
//! record is on stable storage before its caller applies the mutation
//! it describes. Concurrent appenders serialise on the writer lock and
//! each pays its own fsync; the serve command loop is the log's only
//! appender.
//!
//! `durable_seq` is also the replication feed's shipping horizon: the
//! feed only ships frames `<= durable_seq` ([`crate::tail::WalCursor`]
//! is polled with it, and [`SharedWal::wait_durable_past`] wakes the
//! feed on each append), so a follower can never apply a record the
//! leader could still lose.

use crate::log::{WalError, WalOptions, WalStats, WalWriter};
use crate::record::WalRecord;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A `Send + Sync` WAL handle: the segment writer behind a mutex, plus
/// the published durable horizon and its condvar. Share it by wrapping
/// it in an [`std::sync::Arc`].
pub struct SharedWal {
    writer: Mutex<WalWriter>,
    /// Highest seq known to be on stable storage.
    durable_seq: Mutex<u64>,
    durable: Condvar,
}

impl SharedWal {
    /// Opens (or creates) the log in `dir`.
    pub fn open(dir: &Path, options: WalOptions) -> Result<SharedWal, WalError> {
        let writer = WalWriter::open(dir, options)?;
        // Everything recovered from disk at open is durable by
        // definition (the torn tail was truncated and synced).
        let durable_seq = writer.next_seq() - 1;
        Ok(SharedWal {
            writer: Mutex::new(writer),
            durable_seq: Mutex::new(durable_seq),
            durable: Condvar::new(),
        })
    }

    fn writer(&self) -> MutexGuard<'_, WalWriter> {
        self.writer
            .lock()
            .expect("a thread panicked while appending to the WAL")
    }

    fn horizon(&self) -> MutexGuard<'_, u64> {
        self.durable_seq
            .lock()
            .expect("a thread panicked while publishing the WAL horizon")
    }

    /// Appends one record, `fdatasync`s it and publishes it as durable;
    /// returns its seq. An `Err` leaves `durable_seq` where it was.
    pub fn append(&self, record: &WalRecord) -> Result<u64, WalError> {
        let mut writer = self.writer();
        let seq = writer.append(record)?;
        // Published under the writer lock, so the horizon only grows.
        *self.horizon() = seq;
        self.durable.notify_all();
        Ok(seq)
    }

    /// A no-op: every [`SharedWal::append`] is already durable when it
    /// returns. Kept for callers that mark batch ends.
    pub fn batch_boundary(&self) -> Result<(), WalError> {
        Ok(())
    }

    /// `fdatasync`s the active segment.
    pub fn sync(&self) -> Result<(), WalError> {
        self.writer().sync()
    }

    /// Highest seq currently on stable storage.
    pub fn durable_seq(&self) -> u64 {
        *self.horizon()
    }

    /// Blocks until `durable_seq > seq` or `timeout` passes; returns
    /// the durable horizon either way. The replication feed's tail
    /// loop lives here: it sleeps on the condvar instead of polling the
    /// directory.
    pub fn wait_durable_past(&self, seq: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut durable = self.horizon();
        while *durable <= seq {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            (durable, _) = self
                .durable
                .wait_timeout(durable, deadline - now)
                .expect("a thread panicked while publishing the WAL horizon");
        }
        *durable
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.writer().next_seq()
    }

    /// Deletes sealed segments every record of which is `<= watermark`
    /// (already folded into a durable snapshot). The active segment is
    /// never deleted. Returns how many files were removed.
    pub fn prune_below(&self, watermark: u64) -> Result<usize, WalError> {
        self.writer().prune_below(watermark)
    }

    /// Writer counters.
    pub fn stats(&self) -> WalStats {
        self.writer().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use std::sync::Arc;

    fn record(day: u32) -> WalRecord {
        WalRecord::RunDay {
            day,
            proposals: vec![mroam_market::Proposal {
                demand: 3,
                payment: 1.5,
                duration_days: 1,
                zone: None,
            }],
        }
    }

    /// Concurrent appenders build one contiguous log, every append is
    /// durable when its call returns, and each pays its own fsync.
    #[test]
    fn concurrent_appends_are_each_durable_on_return() {
        let tmp = TempDir::new("shared-concurrent");
        let wal = Arc::new(SharedWal::open(tmp.path(), WalOptions::default()).unwrap());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 40;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let seq = wal.append(&record((t * PER_THREAD + i) as u32)).unwrap();
                        let durable = wal.durable_seq();
                        assert!(durable >= seq, "seq {seq} returned with durable {durable}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let appends = (THREADS * PER_THREAD) as u64;
        let stats = wal.stats();
        assert_eq!(stats.records_appended, appends);
        assert_eq!(stats.fsyncs, appends, "one fsync per append");
        assert_eq!(wal.durable_seq(), appends);
        drop(wal);
        let r = crate::WalReader::open(tmp.path()).unwrap();
        assert_eq!((r.first_seq(), r.last_seq()), (1, appends));
        assert_eq!(r.torn_tail_bytes(), 0);
    }

    #[test]
    fn wait_durable_past_wakes_on_append_and_times_out_otherwise() {
        let tmp = TempDir::new("shared-wait");
        let wal = Arc::new(SharedWal::open(tmp.path(), WalOptions::default()).unwrap());
        assert_eq!(
            wal.wait_durable_past(0, Duration::from_millis(10)),
            0,
            "timeout path returns the unchanged horizon"
        );
        let waiter = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.wait_durable_past(0, Duration::from_secs(30)))
        };
        wal.append(&record(0)).unwrap();
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn reopen_initialises_durable_to_the_recovered_head() {
        let tmp = TempDir::new("shared-reopen");
        let wal = SharedWal::open(tmp.path(), WalOptions::default()).unwrap();
        wal.append(&record(0)).unwrap();
        wal.append(&record(1)).unwrap();
        drop(wal);
        let wal = SharedWal::open(tmp.path(), WalOptions::default()).unwrap();
        assert_eq!(wal.durable_seq(), 2);
        assert_eq!(wal.next_seq(), 3);
    }
}
