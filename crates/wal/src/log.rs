//! Segmented append-only log files: binary framing, the single-writer
//! append path with configurable fsync policies, and the validating
//! reader used by recovery and `mroam wal-replay`.
//!
//! # On-disk format
//!
//! A WAL directory holds segment files named `wal-<start_seq:020>.seg`
//! (zero-padded so lexicographic order is seq order), plus the snapshot
//! files managed by [`crate::state`]. Each segment is:
//!
//! ```text
//! +--------------------------+   header (16 bytes)
//! | magic  b"MWALSEG1"   (8) |
//! | start_seq   u64 LE   (8) |
//! +--------------------------+
//! | frame | frame | ...      |   records, densely packed
//! +--------------------------+
//! ```
//!
//! and each frame is:
//!
//! ```text
//! | len u32 LE | crc u32 LE | seq u64 LE | payload (len bytes, JSON) |
//! ```
//!
//! `crc` is CRC32 over `seq LE ++ payload`, so a frame cannot validate
//! under the wrong sequence number. Sequence numbers start at 1 and are
//! contiguous within and across segments (`seq` 0 is the genesis
//! watermark: "nothing applied yet"). A frame that fails any check —
//! short header, absurd length, CRC mismatch, out-of-order seq — ends
//! the segment scan; in the *final* segment that is a torn tail from a
//! crash mid-write and is truncated cleanly, in any earlier segment it
//! is corruption recovery must surface, not skip.
//!
//! # Durability
//!
//! [`crate::SharedWal::append`] writes the frame and `fdatasync`s it
//! before it returns, so every record is on stable storage before the
//! caller applies the mutation it describes. Rotation and segment
//! creation also sync both the file and the directory.

use crate::crc;
use crate::record::{RecordError, WalRecord};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MWALSEG1";
/// Segment header: magic + start_seq.
pub(crate) const SEGMENT_HEADER_LEN: usize = 16;
/// Frame header: len + crc + seq.
pub(crate) const FRAME_HEADER_LEN: usize = 16;
/// Upper bound on a sane payload; larger lengths are treated as torn
/// garbage rather than attempted as allocations.
pub(crate) const MAX_PAYLOAD_LEN: u32 = 1 << 30;

/// File name for the segment whose first record is `start_seq`.
pub fn segment_file_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.seg")
}

/// Parses `wal-<seq:020>.seg` back into its start seq.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// When the log runs `fdatasync`: after every appended record, before
/// `append` returns. It is the only rule; the type and
/// [`WalOptions::sync`] name it for callers and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SyncPolicy {
    /// Sync after every appended record.
    #[default]
    PerRecord,
}

impl SyncPolicy {
    /// Parses the CLI spelling; `record` is the only one.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        (s == "record").then_some(SyncPolicy::PerRecord)
    }
}

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// The fsync rule; always `PerRecord`.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the active one exceeds this many
    /// bytes; default 4 MiB.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::PerRecord,
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Everything that can go wrong touching the log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A segment violated the format somewhere recovery cannot treat as
    /// a torn tail (bad header, or a broken frame with valid segments
    /// after it).
    Corrupt {
        /// The offending segment file.
        segment: PathBuf,
        /// Byte offset of the violation.
        offset: u64,
        /// Human-readable description.
        detail: String,
    },
    /// A structurally valid frame whose payload failed to decode.
    Record {
        /// Sequence number of the frame.
        seq: u64,
        /// The payload decode failure.
        error: RecordError,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal segment {} corrupt at byte {offset}: {detail}",
                segment.display()
            ),
            WalError::Record { seq, error } => {
                write!(f, "wal record {seq} undecodable: {error}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Counters surfaced through `mroam stats --wal` and the serve `stats`
/// response. Append/sync counters are since-open for this writer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Segment files currently on disk.
    pub segments: usize,
    /// Records appended since open.
    pub records_appended: u64,
    /// Frame bytes appended since open.
    pub bytes_appended: u64,
    /// `fdatasync` calls since open.
    pub fsyncs: u64,
    /// Microseconds since the last sync (0 if nothing appended yet).
    pub last_sync_age_micros: u64,
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// Start seq of the oldest segment still on disk.
    pub first_seq: u64,
    /// Torn bytes truncated from the tail at open (0 for a clean open).
    pub truncated_tail_bytes: u64,
}

pub(crate) fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().unwrap())
}

pub(crate) fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// CRC32 over `seq LE ++ payload` — the per-frame checksum both the log
/// scanner and the replication follower verify.
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    crc::finalize(crc::update(
        crc::update(crc::INIT, &seq.to_le_bytes()),
        payload,
    ))
}

/// Encodes one frame (header + payload) into a fresh buffer.
fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One validated frame from a segment scan.
struct ScannedFrame {
    seq: u64,
    payload: Vec<u8>,
}

/// Result of scanning a single segment file.
struct SegmentScan {
    start_seq: u64,
    frames: Vec<ScannedFrame>,
    /// Bytes up to and including the last valid frame.
    valid_len: u64,
    /// Bytes past `valid_len` (torn tail; 0 when clean).
    torn_bytes: u64,
}

/// Scans one segment, stopping at the first invalid frame. Returns
/// `None` when the 16-byte header itself is short or unrecognizable:
/// [`create_segment`] syncs the header before any append is
/// acknowledged, so a torn header means an interrupted creation and the
/// file holds nothing durable. Callers tolerate that only in the
/// *final* segment; anywhere else it is hard corruption.
fn scan_segment(path: &Path) -> Result<Option<SegmentScan>, WalError> {
    let data = fs::read(path)?;
    if data.len() < SEGMENT_HEADER_LEN || &data[..8] != SEGMENT_MAGIC {
        return Ok(None);
    }
    let start_seq = read_u64(&data[8..16]);
    let mut frames = Vec::new();
    let mut off = SEGMENT_HEADER_LEN;
    let mut expect = start_seq;
    while data.len() - off >= FRAME_HEADER_LEN {
        let len = read_u32(&data[off..]);
        let stored_crc = read_u32(&data[off + 4..]);
        let seq = read_u64(&data[off + 8..]);
        if len > MAX_PAYLOAD_LEN {
            break;
        }
        let body_start = off + FRAME_HEADER_LEN;
        let Some(body_end) = body_start.checked_add(len as usize) else {
            break;
        };
        if body_end > data.len() {
            break;
        }
        let payload = &data[body_start..body_end];
        if seq != expect || frame_crc(seq, payload) != stored_crc {
            break;
        }
        frames.push(ScannedFrame {
            seq,
            payload: payload.to_vec(),
        });
        expect += 1;
        off = body_end;
    }
    Ok(Some(SegmentScan {
        start_seq,
        frames,
        valid_len: off as u64,
        torn_bytes: (data.len() - off) as u64,
    }))
}

/// Sorted list of `(start_seq, path)` for every segment in `dir`.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(start) = name.to_str().and_then(parse_segment_name) {
            segments.push((start, entry.path()));
        }
    }
    segments.sort_by_key(|&(start, _)| start);
    Ok(segments)
}

/// Fsyncs the directory itself so created/removed segment files survive
/// a crash. Best-effort on platforms where directories can't be synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The segment writer inside [`crate::SharedWal`]: appends frames to the
/// active segment, fsyncing each, and rotates full segments.
pub(crate) struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    file: File,
    seg_len: u64,
    sealed_segments: usize,
    next_seq: u64,
    first_seq: u64,
    last_sync: Instant,
    records_appended: u64,
    bytes_appended: u64,
    fsyncs: u64,
    truncated_tail_bytes: u64,
}

impl WalWriter {
    /// Opens (or creates) the log in `dir`, truncating any torn tail in
    /// the newest segment and positioning after the last durable record.
    pub(crate) fn open(dir: &Path, options: WalOptions) -> Result<WalWriter, WalError> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (file, next_seq, first_seq, seg_len, sealed, truncated) = match segments.last() {
            None => {
                let file = create_segment(dir, 1)?;
                (file, 1, 1, SEGMENT_HEADER_LEN as u64, 0, 0)
            }
            Some((start, path)) => match scan_segment(path)? {
                Some(scan) => {
                    if scan.start_seq != *start {
                        return Err(WalError::Corrupt {
                            segment: path.clone(),
                            offset: 8,
                            detail: format!(
                                "header start_seq {} disagrees with file name {}",
                                scan.start_seq, start
                            ),
                        });
                    }
                    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                    if scan.torn_bytes > 0 {
                        file.set_len(scan.valid_len)?;
                        file.sync_data()?;
                    }
                    file.seek(SeekFrom::Start(scan.valid_len))?;
                    (
                        file,
                        scan.start_seq + scan.frames.len() as u64,
                        segments[0].0,
                        scan.valid_len,
                        segments.len() - 1,
                        scan.torn_bytes,
                    )
                }
                None => {
                    // Interrupted creation (see `scan_segment`): finish
                    // the job — rewrite the header for the start seq the
                    // file name promises and continue from there.
                    let torn = fs::metadata(path)?.len();
                    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                    file.set_len(0)?;
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(SEGMENT_MAGIC)?;
                    file.write_all(&start.to_le_bytes())?;
                    file.sync_data()?;
                    sync_dir(dir);
                    (
                        file,
                        *start,
                        segments[0].0,
                        SEGMENT_HEADER_LEN as u64,
                        segments.len() - 1,
                        torn,
                    )
                }
            },
        };
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            segment_bytes: options.segment_bytes,
            file,
            seg_len,
            sealed_segments: sealed,
            next_seq,
            first_seq,
            last_sync: Instant::now(),
            records_appended: 0,
            bytes_appended: 0,
            fsyncs: 0,
            truncated_tail_bytes: truncated,
        })
    }

    /// Appends one record and `fdatasync`s it, returning the sequence
    /// number it received; rotates the segment if it filled up.
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, record.encode().as_bytes());
        self.file.write_all(&frame)?;
        self.seg_len += frame.len() as u64;
        self.next_seq += 1;
        self.records_appended += 1;
        self.bytes_appended += frame.len() as u64;
        self.sync()?;
        if self.seg_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// `fdatasync`s the active segment.
    pub(crate) fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Seals the active segment (after syncing it) and starts a new one
    /// whose first record will be `next_seq`.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.sync()?;
        self.file = create_segment(&self.dir, self.next_seq)?;
        self.seg_len = SEGMENT_HEADER_LEN as u64;
        self.sealed_segments += 1;
        Ok(())
    }

    /// Deletes sealed segments every record of which is `<= watermark`
    /// (i.e. already folded into a durable snapshot). The active segment
    /// is never deleted. Returns how many files were removed.
    pub(crate) fn prune_below(&mut self, watermark: u64) -> Result<usize, WalError> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_start, _) = pair[1];
            // The segment's records span [start, next_start); all are
            // durable in the snapshot iff next_start - 1 <= watermark.
            if next_start <= watermark.saturating_add(1) {
                fs::remove_file(path)?;
                removed += 1;
            } else {
                break;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir);
            self.sealed_segments -= removed;
            if let Some(&(start, _)) = list_segments(&self.dir)?.first() {
                self.first_seq = start;
            }
        }
        Ok(removed)
    }

    /// Next sequence number to be assigned.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> WalStats {
        WalStats {
            segments: self.sealed_segments + 1,
            records_appended: self.records_appended,
            bytes_appended: self.bytes_appended,
            fsyncs: self.fsyncs,
            last_sync_age_micros: self.last_sync.elapsed().as_micros() as u64,
            next_seq: self.next_seq,
            first_seq: self.first_seq,
            truncated_tail_bytes: self.truncated_tail_bytes,
        }
    }
}

/// Creates a fresh segment file with its header, syncing the file and
/// the directory so the segment survives a crash.
fn create_segment(dir: &Path, start_seq: u64) -> Result<File, WalError> {
    let path = dir.join(segment_file_name(start_seq));
    let mut file = OpenOptions::new()
        .create_new(true)
        .read(true)
        .write(true)
        .open(&path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&start_seq.to_le_bytes())?;
    file.sync_data()?;
    sync_dir(dir);
    Ok(file)
}

/// Summary of one scanned segment, as reported by [`WalReader`].
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Segment file path.
    pub path: PathBuf,
    /// First sequence number in the segment.
    pub start_seq: u64,
    /// Valid records found.
    pub records: usize,
    /// Bytes of valid data (header + frames).
    pub valid_bytes: u64,
    /// Torn bytes past the last valid frame (only ever non-zero in the
    /// final segment).
    pub torn_bytes: u64,
}

/// Read-side view of a WAL directory: scans and validates every
/// segment, exposing the decoded record stream for replay.
pub struct WalReader {
    /// Per-segment summaries, in seq order.
    pub segments: Vec<SegmentInfo>,
    frames: Vec<ScannedFrame>,
}

impl WalReader {
    /// Scans `dir`, validating headers, checksums, and cross-segment
    /// seq contiguity. A torn tail in the final segment is tolerated
    /// (and reported via [`SegmentInfo::torn_bytes`]); a broken frame
    /// anywhere else is [`WalError::Corrupt`].
    pub fn open(dir: &Path) -> Result<WalReader, WalError> {
        let mut infos = Vec::new();
        let mut frames = Vec::new();
        let segments = list_segments(dir)?;
        let count = segments.len();
        let mut expect: Option<u64> = None;
        for (i, (start, path)) in segments.into_iter().enumerate() {
            let Some(scan) = scan_segment(&path)? else {
                // Torn header: tolerable only as the final segment (an
                // interrupted creation holding nothing durable), and only
                // if the file name continues the seq stream.
                if i + 1 != count {
                    return Err(WalError::Corrupt {
                        segment: path,
                        offset: 0,
                        detail: "missing or short segment header".into(),
                    });
                }
                if let Some(expected) = expect {
                    if start != expected {
                        return Err(WalError::Corrupt {
                            segment: path,
                            offset: 0,
                            detail: format!(
                                "torn segment starts at seq {start}, expected {expected}"
                            ),
                        });
                    }
                }
                let torn = fs::metadata(&path)?.len();
                infos.push(SegmentInfo {
                    path,
                    start_seq: start,
                    records: 0,
                    valid_bytes: 0,
                    torn_bytes: torn,
                });
                continue;
            };
            if scan.start_seq != start {
                return Err(WalError::Corrupt {
                    segment: path,
                    offset: 8,
                    detail: format!(
                        "header start_seq {} disagrees with file name {start}",
                        scan.start_seq
                    ),
                });
            }
            if let Some(expected) = expect {
                if start != expected {
                    return Err(WalError::Corrupt {
                        segment: path,
                        offset: 0,
                        detail: format!("segment starts at seq {start}, expected {expected}"),
                    });
                }
            }
            if scan.torn_bytes > 0 && i + 1 != count {
                return Err(WalError::Corrupt {
                    segment: path,
                    offset: scan.valid_len,
                    detail: format!("{} invalid bytes inside a sealed segment", scan.torn_bytes),
                });
            }
            expect = Some(start + scan.frames.len() as u64);
            infos.push(SegmentInfo {
                path,
                start_seq: start,
                records: scan.frames.len(),
                valid_bytes: scan.valid_len,
                torn_bytes: scan.torn_bytes,
            });
            frames.extend(scan.frames);
        }
        Ok(WalReader {
            segments: infos,
            frames,
        })
    }

    /// First sequence number present (0 when the log is empty).
    pub fn first_seq(&self) -> u64 {
        self.frames.first().map_or(0, |f| f.seq)
    }

    /// Last sequence number present (0 when the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.seq)
    }

    /// Total valid records.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no records survived the scan.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Torn bytes found past the final valid frame (0 for a clean log).
    pub fn torn_tail_bytes(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.torn_bytes)
    }

    /// Decodes every record with `seq > after`, in order. Replay from a
    /// snapshot at watermark `w` is `records_after(w)`.
    pub fn records_after(&self, after: u64) -> Result<Vec<(u64, WalRecord)>, WalError> {
        self.frames
            .iter()
            .filter(|f| f.seq > after)
            .map(|f| {
                WalRecord::decode(&f.payload)
                    .map(|r| (f.seq, r))
                    .map_err(|error| WalError::Record { seq: f.seq, error })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn run_day(day: u32) -> WalRecord {
        WalRecord::RunDay {
            day,
            proposals: vec![mroam_market::Proposal {
                demand: 10 + day as u64,
                payment: 9.5,
                duration_days: 1,
                zone: None,
            }],
        }
    }

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            ..WalOptions::default()
        }
    }

    #[test]
    fn append_reopen_read_roundtrips() {
        let tmp = TempDir::new("wal-roundtrip");
        let mut w = WalWriter::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..5 {
            assert_eq!(w.append(&run_day(day)).unwrap(), day as u64 + 1);
        }
        drop(w);

        // A reopened writer continues the sequence.
        let mut w = WalWriter::open(tmp.path(), WalOptions::default()).unwrap();
        assert_eq!(w.next_seq(), 6);
        w.append(&WalRecord::Compact { epoch: 3 }).unwrap();

        let r = WalReader::open(tmp.path()).unwrap();
        assert_eq!(r.len(), 6);
        assert_eq!((r.first_seq(), r.last_seq()), (1, 6));
        let records = r.records_after(0).unwrap();
        assert_eq!(records[0].1, run_day(0));
        assert_eq!(records[5].1, WalRecord::Compact { epoch: 3 });
        assert_eq!(r.records_after(4).unwrap().len(), 2);
        assert_eq!(r.torn_tail_bytes(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let tmp = TempDir::new("wal-torn");
        let mut w = WalWriter::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..3 {
            w.append(&run_day(day)).unwrap();
        }
        drop(w);

        // Tear the last frame at every possible byte boundary.
        let seg = tmp.path().join(segment_file_name(1));
        let full = fs::read(&seg).unwrap();
        let scan = scan_segment(&seg).unwrap().expect("valid header");
        assert_eq!(scan.frames.len(), 3);
        let keep_two = {
            let mut off = SEGMENT_HEADER_LEN;
            for _ in 0..2 {
                let len = read_u32(&full[off..]) as usize;
                off += FRAME_HEADER_LEN + len;
            }
            off
        };
        for cut in keep_two..full.len() - 1 {
            fs::write(&seg, &full[..cut]).unwrap();
            let r = WalReader::open(tmp.path()).unwrap();
            assert_eq!(r.len(), 2, "cut at {cut}");
            assert_eq!(r.torn_tail_bytes(), (cut - keep_two) as u64);
            // Reopening the writer truncates the tear and reuses seq 3.
            let mut w = WalWriter::open(tmp.path(), WalOptions::default()).unwrap();
            assert_eq!(w.next_seq(), 3);
            assert_eq!(w.stats().truncated_tail_bytes, (cut - keep_two) as u64);
            w.append(&run_day(9)).unwrap();
            drop(w);
            let r = WalReader::open(tmp.path()).unwrap();
            assert_eq!(r.last_seq(), 3);
            assert_eq!(r.records_after(2).unwrap()[0].1, run_day(9));
            fs::write(&seg, &full).unwrap(); // restore for the next cut
        }
    }

    #[test]
    fn bit_flips_end_the_scan_at_the_flip() {
        let tmp = TempDir::new("wal-flip");
        let mut w = WalWriter::open(tmp.path(), WalOptions::default()).unwrap();
        for day in 0..3 {
            w.append(&run_day(day)).unwrap();
        }
        drop(w);
        let seg = tmp.path().join(segment_file_name(1));
        let mut data = fs::read(&seg).unwrap();
        // Flip one payload byte of the second frame.
        let second =
            SEGMENT_HEADER_LEN + FRAME_HEADER_LEN + read_u32(&data[SEGMENT_HEADER_LEN..]) as usize;
        data[second + FRAME_HEADER_LEN + 2] ^= 0x40;
        fs::write(&seg, &data).unwrap();
        let r = WalReader::open(tmp.path()).unwrap();
        assert_eq!(r.len(), 1, "only the first frame survives");
        assert!(r.torn_tail_bytes() > 0);
    }

    #[test]
    fn rotation_seals_segments_and_reader_stitches_them() {
        let tmp = TempDir::new("wal-rotate");
        // Tiny segments: every record rotates.
        let mut w = WalWriter::open(tmp.path(), opts(64)).unwrap();
        for day in 0..6 {
            w.append(&run_day(day)).unwrap();
        }
        assert!(w.stats().segments >= 4, "got {}", w.stats().segments);
        drop(w);
        let r = WalReader::open(tmp.path()).unwrap();
        assert_eq!(r.len(), 6);
        assert_eq!(
            r.records_after(0)
                .unwrap()
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            (1..=6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corruption_inside_a_sealed_segment_is_an_error() {
        let tmp = TempDir::new("wal-sealed-corrupt");
        let mut w = WalWriter::open(tmp.path(), opts(64)).unwrap();
        for day in 0..4 {
            w.append(&run_day(day)).unwrap();
        }
        drop(w);
        let first = tmp.path().join(segment_file_name(1));
        let mut data = fs::read(&first).unwrap();
        let n = data.len();
        data[n - 3] ^= 0xFF;
        fs::write(&first, &data).unwrap();
        assert!(matches!(
            WalReader::open(tmp.path()),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn pruning_removes_only_fully_covered_sealed_segments() {
        let tmp = TempDir::new("wal-prune");
        let mut w = WalWriter::open(tmp.path(), opts(64)).unwrap();
        for day in 0..6 {
            w.append(&run_day(day)).unwrap();
        }
        let before = list_segments(tmp.path()).unwrap().len();
        assert!(before >= 4);
        // Nothing durable yet: watermark 0 removes nothing.
        assert_eq!(w.prune_below(0).unwrap(), 0);
        // Watermark 3: segments containing seqs 1..=3 only are removable.
        let removed = w.prune_below(3).unwrap();
        assert!(removed >= 1);
        let r = WalReader::open(tmp.path()).unwrap();
        assert!(r.first_seq() <= 4, "seq 4 must survive");
        assert_eq!(r.last_seq(), 6);
        assert_eq!(w.stats().first_seq, r.segments[0].start_seq);
        // Full watermark keeps the active segment.
        w.prune_below(100).unwrap();
        assert!(!list_segments(tmp.path()).unwrap().is_empty());
        let r = WalReader::open(tmp.path()).unwrap();
        assert_eq!(r.records_after(6).unwrap(), vec![]);
        // And the writer still appends correctly after pruning.
        w.append(&run_day(9)).unwrap();
        assert_eq!(WalReader::open(tmp.path()).unwrap().last_seq(), 7);
    }

    #[test]
    fn empty_directory_reads_as_empty_log() {
        let tmp = TempDir::new("wal-empty");
        let r = WalReader::open(tmp.path()).unwrap();
        assert!(r.is_empty());
        assert_eq!((r.first_seq(), r.last_seq()), (0, 0));
        assert_eq!(r.records_after(0).unwrap(), vec![]);
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!(SyncPolicy::parse("record"), Some(SyncPolicy::PerRecord));
        for gone in ["batch", "interval:250", "interval:", "wat"] {
            assert_eq!(SyncPolicy::parse(gone), None, "{gone}");
        }
    }
}
