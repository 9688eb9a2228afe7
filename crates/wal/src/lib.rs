//! `mroam-wal` — durability for the MROAM serving layer.
//!
//! The serve loop (`mroam-served`) mutates exactly three things: the
//! stream engine (ingest + compaction), the market host (day runs), and
//! the snapshot watermark. This crate makes those mutations durable
//! with a classic write-ahead log:
//!
//! 1. **Log before apply.** Every mutation is encoded as a
//!    [`WalRecord`], appended to a segmented CRC32-framed log
//!    ([`SharedWal`]), and fsynced *before* the in-memory state
//!    changes.
//! 2. **Snapshot + suffix replay.** Recovery ([`recover`]) restores the
//!    newest valid checksummed snapshot ([`state`]) and replays the WAL
//!    suffix past its watermark through the *same* state machine the
//!    live server uses ([`replay`], driving [`mroam_market::Host`] and
//!    [`mroam_stream::StreamEngine`]) — so a recovered server is
//!    bit-identical to one that never crashed.
//! 3. **Torn tails truncate cleanly.** A crash mid-append leaves a
//!    partial frame; the CRC/seq checks stop the scan there and the
//!    writer truncates it on reopen. Corruption anywhere *before* the
//!    tail is a typed error, never silently skipped.
//!
//! Layering: this crate sits below `mroam-serve` (which wires it into
//! the TCP command loop) and is consumed directly by
//! `mroam-experiments` for the offline `mroam wal-replay` tool.

pub mod crc;
pub mod group;
pub mod log;
pub mod record;
pub mod recover;
pub mod replay;
pub mod ship;
pub mod state;
pub mod tail;
pub mod testutil;

pub use group::SharedWal;
pub use log::{
    frame_crc, segment_file_name, SegmentInfo, SyncPolicy, WalError, WalOptions, WalReader,
    WalStats,
};
pub use record::{RecordError, WalRecord};
pub use recover::{recover, RecoverError, RecoveryReport};
pub use replay::{ReplayError, ReplayWorld};
pub use ship::{read_msg, verify_frame, write_msg, ShipMsg};
pub use state::{
    snapshot_file_name, Restored, SnapshotCorruption, SnapshotError, StreamRestore,
    SNAPSHOT_VERSION,
};
pub use tail::{ShippedFrame, TailError, WalCursor};
