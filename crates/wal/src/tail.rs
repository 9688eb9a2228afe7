//! Live tailing of a WAL directory: the replication feed's read path.
//!
//! [`WalCursor`] follows the segment files of a log that is still being
//! appended to, yielding raw frames `(seq, crc, payload)` in seq order.
//! It is only ever polled with the log's published `durable_seq`
//! ([`crate::SharedWal::durable_seq`], which each append advances after
//! its fsync) as the horizon, which makes the parse unambiguous:
//!
//! * a frame with `seq <= durable` is fully written and fsynced, so a
//!   short read there means the frame continues in the *next* segment
//!   (rotation), and a CRC/seq mismatch is real corruption;
//! * anything past `durable` is untrusted tail — possibly mid-write —
//!   and is simply left for the next poll.
//!
//! The cursor re-lists the directory only when it runs off the end of
//! its current segment, so steady-state tailing is one `seek` + `read`
//! per poll. When the segment holding `next_seq` has been pruned away
//! (the follower fell behind the snapshot horizon), `poll` reports
//! [`TailError::Pruned`] and the feed falls back to shipping a
//! snapshot.

use crate::log::{
    self, frame_crc, list_segments, WalError, FRAME_HEADER_LEN, MAX_PAYLOAD_LEN,
    SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
};
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One raw frame lifted off the log, exactly as it will be shipped:
/// the follower re-verifies `crc == frame_crc(seq, payload)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShippedFrame {
    /// Sequence number.
    pub seq: u64,
    /// CRC32 over `seq LE ++ payload` (from the on-disk frame header).
    pub crc: u32,
    /// The record payload bytes, undecoded.
    pub payload: Vec<u8>,
}

/// Why a poll failed.
#[derive(Debug)]
pub enum TailError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The cursor's next seq predates the oldest segment on disk — the
    /// reader must restart from a snapshot.
    Pruned {
        /// First seq still present in the log (0 when empty).
        oldest: u64,
    },
    /// A frame at or below the durable horizon failed validation.
    Corrupt {
        /// The offending segment.
        segment: PathBuf,
        /// Byte offset of the violation.
        offset: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for TailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailError::Io(e) => write!(f, "wal tail io error: {e}"),
            TailError::Pruned { oldest } => {
                write!(f, "wal tail fell behind pruning (oldest seq now {oldest})")
            }
            TailError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal tail: segment {} corrupt at byte {offset}: {detail}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for TailError {}

impl From<std::io::Error> for TailError {
    fn from(e: std::io::Error) -> Self {
        TailError::Io(e)
    }
}

impl From<WalError> for TailError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => TailError::Io(e),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => TailError::Corrupt {
                segment,
                offset,
                detail,
            },
            WalError::Record { seq, error } => TailError::Corrupt {
                segment: PathBuf::new(),
                offset: 0,
                detail: format!("record {seq}: {error}"),
            },
        }
    }
}

struct OpenSegment {
    path: PathBuf,
    file: File,
    start_seq: u64,
    offset: u64,
}

/// A stateful reader positioned after `watermark`, following the log
/// as it grows. See the module docs for the durability contract.
pub struct WalCursor {
    dir: PathBuf,
    next_seq: u64,
    segment: Option<OpenSegment>,
}

impl WalCursor {
    /// A cursor that will yield `watermark + 1` first. Binding to a
    /// segment file is lazy (the segment may not exist yet).
    pub fn open(dir: &Path, watermark: u64) -> WalCursor {
        WalCursor {
            dir: dir.to_path_buf(),
            next_seq: watermark + 1,
            segment: None,
        }
    }

    /// The seq the next yielded frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Repositions after `watermark` (snapshot catch-up reset).
    pub fn reset(&mut self, watermark: u64) {
        self.next_seq = watermark + 1;
        self.segment = None;
    }

    /// Appends every available frame with `seq <= durable` to `out`,
    /// returning how many were added. Returns `Ok(0)` when the log has
    /// nothing new at this horizon.
    pub fn poll(&mut self, durable: u64, out: &mut Vec<ShippedFrame>) -> Result<usize, TailError> {
        let mut added = 0;
        let mut io_retries = 0;
        while self.next_seq <= durable {
            if self.segment.is_none() && !self.bind_segment()? {
                break;
            }
            let got = match self.read_frames(durable, out) {
                Ok(got) => got,
                Err(e @ TailError::Io(_)) => {
                    // The file may have been pruned under us; re-bind
                    // once (which reports Pruned if the seq is truly
                    // gone) before surfacing a persistent failure.
                    io_retries += 1;
                    if io_retries > 1 {
                        return Err(e);
                    }
                    self.segment = None;
                    if self.bind_segment()? {
                        continue;
                    }
                    break;
                }
                Err(e) => return Err(e),
            };
            io_retries = 0;
            added += got;
            if got == 0 {
                // Clean EOF below the durable horizon: the stream must
                // continue in a newer segment (rotation). If it is not
                // listed yet (creation racing us), retry next poll.
                let current = self.segment.as_ref().map(|s| s.start_seq);
                self.segment = None;
                if !self.bind_segment()? || self.segment.as_ref().map(|s| s.start_seq) == current {
                    break;
                }
            }
        }
        Ok(added)
    }

    /// Points `self.segment` at the file holding `next_seq`. Returns
    /// `false` when no segment covers it yet (nothing to read).
    fn bind_segment(&mut self) -> Result<bool, TailError> {
        let segments = list_segments(&self.dir)?;
        let Some(first) = segments.first().map(|&(s, _)| s) else {
            return Ok(false);
        };
        if self.next_seq < first {
            return Err(TailError::Pruned { oldest: first });
        }
        // The covering segment is the last one starting at or before
        // next_seq.
        let Some((start, path)) = segments
            .into_iter()
            .take_while(|&(s, _)| s <= self.next_seq)
            .last()
        else {
            return Ok(false);
        };
        let mut file = File::open(&path)?;
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        if file.read_exact(&mut header).is_err() || &header[..8] != SEGMENT_MAGIC {
            // Interrupted creation: nothing durable in it yet.
            return Ok(false);
        }
        let header_start = log::read_u64(&header[8..16]);
        if header_start != start {
            return Err(TailError::Corrupt {
                segment: path,
                offset: 8,
                detail: format!("header start_seq {header_start} disagrees with file name {start}"),
            });
        }
        // Skip frames below next_seq (cheap: headers only).
        let mut offset = SEGMENT_HEADER_LEN as u64;
        let mut seq = start;
        while seq < self.next_seq {
            file.seek(SeekFrom::Start(offset))?;
            let mut fh = [0u8; FRAME_HEADER_LEN];
            if file.read_exact(&mut fh).is_err() {
                // The frame we want is not in this file yet.
                break;
            }
            let len = log::read_u32(&fh[..4]);
            if len > MAX_PAYLOAD_LEN || log::read_u64(&fh[8..16]) != seq {
                break;
            }
            offset += (FRAME_HEADER_LEN as u64) + u64::from(len);
            seq += 1;
        }
        file.seek(SeekFrom::Start(offset))?;
        self.segment = Some(OpenSegment {
            path,
            file,
            start_seq: start,
            offset,
        });
        Ok(true)
    }

    /// Reads frames from the bound segment until EOF, a frame past
    /// `durable`, or a validation failure (hard error at or below the
    /// horizon). Returns how many frames were appended to `out`.
    fn read_frames(
        &mut self,
        durable: u64,
        out: &mut Vec<ShippedFrame>,
    ) -> Result<usize, TailError> {
        let (data, base, path) = {
            let seg = self.segment.as_mut().expect("segment bound");
            seg.file.seek(SeekFrom::Start(seg.offset))?;
            let mut data = Vec::new();
            seg.file.read_to_end(&mut data)?;
            (data, seg.offset, seg.path.clone())
        };
        let corrupt = |offset: u64, detail: String| TailError::Corrupt {
            segment: path.clone(),
            offset,
            detail,
        };
        let mut off = 0usize;
        let mut added = 0usize;
        while self.next_seq <= durable && data.len() - off >= FRAME_HEADER_LEN {
            let len = log::read_u32(&data[off..]);
            let stored_crc = log::read_u32(&data[off + 4..]);
            let seq = log::read_u64(&data[off + 8..]);
            if len > MAX_PAYLOAD_LEN {
                return Err(corrupt(
                    base + off as u64,
                    format!("frame length {len} exceeds the payload bound"),
                ));
            }
            let body_start = off + FRAME_HEADER_LEN;
            let body_end = body_start + len as usize;
            if body_end > data.len() {
                // Durable frames are fully written; a short frame here
                // means it lives in the next segment. Stop cleanly.
                break;
            }
            if seq != self.next_seq {
                return Err(corrupt(
                    base + off as u64,
                    format!("frame seq {seq}, expected {}", self.next_seq),
                ));
            }
            let payload = &data[body_start..body_end];
            if frame_crc(seq, payload) != stored_crc {
                return Err(corrupt(
                    base + off as u64,
                    format!("frame {seq} fails its checksum"),
                ));
            }
            out.push(ShippedFrame {
                seq,
                crc: stored_crc,
                payload: payload.to_vec(),
            });
            self.next_seq += 1;
            added += 1;
            off = body_end;
        }
        if let Some(seg) = self.segment.as_mut() {
            seg.offset += off as u64;
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SharedWal;
    use crate::log::WalOptions;
    use crate::record::WalRecord;
    use crate::testutil::TempDir;

    fn record(day: u32) -> WalRecord {
        WalRecord::RunDay {
            day,
            proposals: vec![],
        }
    }

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            ..WalOptions::default()
        }
    }

    #[test]
    fn cursor_tails_appends_across_rotations() {
        let tmp = TempDir::new("tail-rotate");
        // Tiny segments so every record rotates.
        let wal = SharedWal::open(tmp.path(), opts(64)).unwrap();
        let mut cursor = WalCursor::open(tmp.path(), 0);
        let mut frames = Vec::new();
        assert_eq!(cursor.poll(wal.durable_seq(), &mut frames).unwrap(), 0);
        for day in 0..4 {
            wal.append(&record(day)).unwrap();
        }
        assert_eq!(cursor.poll(wal.durable_seq(), &mut frames).unwrap(), 4);
        // Frames are verbatim log frames: seqs contiguous, CRCs check.
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64 + 1);
            assert_eq!(f.crc, frame_crc(f.seq, &f.payload));
            assert_eq!(WalRecord::decode(&f.payload).unwrap(), record(i as u32));
        }
        // More appends: the cursor picks up where it left off.
        wal.append(&record(9)).unwrap();
        let mut more = Vec::new();
        assert_eq!(cursor.poll(wal.durable_seq(), &mut more).unwrap(), 1);
        assert_eq!(more[0].seq, 5);
    }

    #[test]
    fn cursor_refuses_to_ship_past_the_durable_horizon() {
        let tmp = TempDir::new("tail-horizon");
        let wal = SharedWal::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..6 {
            wal.append(&record(day)).unwrap();
        }
        // Horizon 0: nothing is shippable.
        let mut cursor = WalCursor::open(tmp.path(), 0);
        let mut frames = Vec::new();
        assert_eq!(cursor.poll(0, &mut frames).unwrap(), 0);
        assert_eq!(cursor.poll(3, &mut frames).unwrap(), 3);
        // A partial horizon ships a partial prefix.
        let mut partial = Vec::new();
        assert_eq!(cursor.poll(4, &mut partial).unwrap(), 1);
        assert_eq!(partial[0].seq, 4);
    }

    #[test]
    fn cursor_behind_pruning_reports_pruned() {
        let tmp = TempDir::new("tail-pruned");
        let wal = SharedWal::open(tmp.path(), opts(64)).unwrap();
        for day in 0..6 {
            wal.append(&record(day)).unwrap();
        }
        wal.prune_below(4).unwrap();
        let mut cursor = WalCursor::open(tmp.path(), 0);
        let mut frames = Vec::new();
        match cursor.poll(wal.durable_seq(), &mut frames) {
            Err(TailError::Pruned { oldest }) => assert!(oldest > 1),
            other => panic!("expected Pruned, got {other:?}"),
        }
        // Reset to a live watermark recovers.
        cursor.reset(5);
        assert_eq!(cursor.poll(wal.durable_seq(), &mut frames).unwrap(), 1);
        assert_eq!(frames[0].seq, 6);
    }

    #[test]
    fn cursor_starts_mid_log_after_a_watermark() {
        let tmp = TempDir::new("tail-mid");
        let wal = SharedWal::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..5 {
            wal.append(&record(day)).unwrap();
        }
        let mut cursor = WalCursor::open(tmp.path(), 3);
        let mut frames = Vec::new();
        assert_eq!(cursor.poll(wal.durable_seq(), &mut frames).unwrap(), 2);
        assert_eq!(frames[0].seq, 4);
        assert_eq!(frames[1].seq, 5);
    }

    #[test]
    fn corruption_below_the_horizon_is_a_hard_error() {
        let tmp = TempDir::new("tail-corrupt");
        let wal = SharedWal::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..3 {
            wal.append(&record(day)).unwrap();
        }
        let durable = wal.durable_seq();
        drop(wal);
        let seg = tmp.path().join(crate::segment_file_name(1));
        let mut data = std::fs::read(&seg).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        let mut cursor = WalCursor::open(tmp.path(), 0);
        let mut frames = Vec::new();
        match cursor.poll(durable, &mut frames) {
            Err(TailError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
