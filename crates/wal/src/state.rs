//! Snapshot/restore of the full host state, plus the checksummed
//! snapshot *file* container the WAL directory stores them in.
//!
//! A snapshot is one JSON document containing everything a fresh process
//! needs to continue serving exactly where the old one stopped: the day
//! clock, inventory locks, the ledger, the solver configuration (with its
//! RNG seed — local-search solvers must replay the same restart streams),
//! γ, and the coverage model itself as per-billboard trajectory lists, so
//! restore needs no side channel. Snapshots are taken by the command loop
//! between batches, which makes them transactionally consistent for free:
//! a snapshot never contains half a day.
//!
//! The round-trip guarantee (encode → decode → resume produces the same
//! ledger as never stopping) is enforced by a property test in
//! `serve/tests/snapshot_roundtrip.rs`. The solver seed is split into two
//! `u32` halves because the wire JSON parses numbers as `f64`, which
//! cannot carry all 64 bits exactly.
//!
//! # File container
//!
//! On disk a snapshot is framed so corruption is a *typed* error, not a
//! JSON parse failure:
//!
//! ```text
//! %MSNAP1\n                      magic line
//! <json document>                the encode() output, verbatim
//! \n%MSNAP-CRC32 <hex8> <len>\n  footer: CRC32 and byte length of the body
//! ```
//!
//! [`read_snapshot_file`] verifies the magic line, then length, then
//! checksum; every failure is a typed [`SnapshotCorruption`]. Snapshot
//! files are written atomically (tmp + rename + directory sync) and named
//! `snap-<wal_seq:020>.snap`, where `wal_seq` is the replay watermark:
//! every WAL record with `seq <= wal_seq` is folded in, recovery replays
//! strictly after it.

use mroam_core::shard::ShardSpec;
use mroam_core::solver::SolverSpec;
use mroam_data::BillboardStore;
use mroam_geo::Point;
use mroam_influence::CoverageModel;
use mroam_market::host::{Host, HostConfig, HostSeed};
use mroam_market::json::{self, DecodeError};
use mroam_market::{Ledger, LockState};
use mroam_stream::{DeltaOverlay, StreamEngine};
use serde::Serialize;
use serde_json::Value;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;

/// Snapshot format version; restore accepts exactly this version.
pub const SNAPSHOT_VERSION: u32 = 2;

const SNAPSHOT_MAGIC: &str = "%MSNAP1\n";
const FOOTER_TAG: &str = "%MSNAP-CRC32 ";

/// File name for the snapshot whose replay watermark is `wal_seq`.
pub fn snapshot_file_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:020}.snap")
}

/// Parses `snap-<seq:020>.snap` back into its watermark.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// The serialized snapshot document (named-field struct so the vendored
/// serde derive produces real JSON glue).
#[derive(Debug, Clone, Serialize)]
struct SnapshotDoc {
    version: u32,
    day: u32,
    gamma: f64,
    solver: String,
    restarts: u64,
    improvement_ratio: f64,
    seed_lo: u32,
    seed_hi: u32,
    n_trajectories: u64,
    coverage: Vec<Vec<u32>>,
    lock: LockState,
    ledger: Ledger,
    stream: Option<StreamDoc>,
    shards: Option<ShardsDoc>,
}

/// The sharding section: absent for single-engine hosts (and in every
/// pre-sharding snapshot, which therefore restores unchanged). The
/// assignment table rides in the snapshot because recovery must solve
/// with the *same* partition to replay bit-identically — deriving it
/// from geometry at restore time would silently break on any partitioner
/// change.
#[derive(Debug, Clone, Serialize)]
struct ShardsDoc {
    n_shards: u64,
    assignment: Vec<u32>,
}

/// The streaming section of a v2 snapshot: everything
/// [`StreamEngine::restore`] needs on top of the base model (whose lists
/// are the document's `coverage` — the host serves the engine's
/// compacted base, so they coincide). Historical trajectory geometry is
/// deliberately not carried: a restored engine keeps ingesting
/// trajectories and retiring billboards but refuses billboard adds.
#[derive(Debug, Clone, Serialize)]
struct StreamDoc {
    lambda_m: f64,
    epoch: u64,
    compactions: u64,
    /// Logical trajectory count at the snapshot epoch (base + overlay).
    stream_trajectories: u64,
    /// Billboard locations for every id ever issued (base + overlay).
    locations: Vec<Point>,
    /// Global retirement tombstones, same length as `locations`.
    retired: Vec<bool>,
    /// Overlay appends to base billboards, as `[id, [trajectories...]]`.
    appended: Vec<(u32, Vec<u32>)>,
    /// Coverage lists of overlay-born billboards (ids follow the base).
    new_billboards: Vec<Vec<u32>>,
}

/// How a snapshot file's container failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCorruption {
    /// The file does not start with the magic line (damaged first bytes,
    /// or not a sealed snapshot at all).
    MissingMagic,
    /// The magic line is present but the CRC footer is missing or
    /// malformed — the classic torn write.
    MissingFooter,
    /// The footer declares more body bytes than the file holds.
    Truncated {
        /// Body length the footer promised.
        expected: usize,
        /// Body bytes actually present.
        got: usize,
    },
    /// The body's CRC32 disagrees with the footer.
    ChecksumMismatch {
        /// Checksum the footer recorded.
        expected: u32,
        /// Checksum of the bytes on disk.
        got: u32,
    },
}

impl fmt::Display for SnapshotCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotCorruption::MissingMagic => {
                write!(f, "missing the {SNAPSHOT_MAGIC:?} magic line")
            }
            SnapshotCorruption::MissingFooter => {
                write!(f, "missing or malformed checksum footer (torn write?)")
            }
            SnapshotCorruption::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated body: footer promises {expected} bytes, found {got}"
                )
            }
            SnapshotCorruption::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: footer {expected:08x}, body {got:08x}"
                )
            }
        }
    }
}

/// Why a snapshot failed to restore.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure reading or writing the file.
    Io(std::io::Error),
    /// The file container failed its length/checksum verification.
    Corrupt(SnapshotCorruption),
    /// Not valid JSON.
    Parse(serde_json::Error),
    /// Valid JSON, wrong structure.
    Decode(DecodeError),
    /// Unknown format version.
    Version(u32),
    /// Solver name not in the registry.
    UnknownSolver(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(c) => write!(f, "snapshot file corrupt: {c}"),
            SnapshotError::Parse(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::Decode(e) => write!(f, "snapshot structure: {e}"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::UnknownSolver(s) => write!(f, "snapshot names unknown solver {s:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Everything a restore yields. The model is returned by value — the
/// caller keeps it alive and borrows it to [`Host::resume`] (usually
/// through [`StreamRestore::into_engine`]).
#[derive(Debug)]
pub struct Restored {
    /// The coverage model the snapshot embedded.
    pub model: CoverageModel,
    /// Host configuration (γ + solver spec, seed included).
    pub config: HostConfig,
    /// Day clock, locks, ledger.
    pub seed: HostSeed,
    /// Streaming state; always `Some` after a successful [`decode`],
    /// which refuses a stream-less document. The `Option` is kept because
    /// the repository benchmark (`perfbench/`) unwraps it with
    /// `.ok_or(..)`; narrowing it waits for a change to the benchmark.
    pub stream: Option<StreamRestore>,
}

/// The decoded streaming section; [`StreamRestore::into_engine`] turns
/// it back into a live engine around the restored base model.
#[derive(Debug)]
pub struct StreamRestore {
    /// Meeting radius λ in metres.
    pub lambda_m: f64,
    /// Ingest epochs applied before the snapshot.
    pub epoch: u64,
    /// Compactions performed before the snapshot.
    pub compactions: u64,
    /// Logical trajectory count at the snapshot epoch.
    pub n_trajectories: usize,
    /// Billboard locations for every id ever issued.
    pub locations: Vec<Point>,
    /// Global retirement tombstones.
    pub retired: Vec<bool>,
    /// The pending (uncompacted) overlay.
    pub overlay: DeltaOverlay,
}

impl StreamRestore {
    /// Rebuilds the engine around the restored base model (the
    /// `Restored::model`, wrapped in an `Arc` by the caller).
    pub fn into_engine(self, model: Arc<CoverageModel>) -> StreamEngine {
        StreamEngine::restore(
            model,
            BillboardStore::from_locations(self.locations),
            self.retired,
            self.lambda_m,
            self.overlay,
            self.n_trajectories,
            self.epoch,
            self.compactions,
        )
    }
}

/// Encodes a host's full state as one JSON document, with the engine's
/// overlay and epoch counters as its `stream` section. The host must
/// serve the engine's base.
///
/// `stream` stays an `Option` because the repository benchmark
/// (`perfbench/`) calls `encode(&host, Some(&engine))`; narrowing it
/// waits for a change to the benchmark. A `None` writes `"stream":null`,
/// which [`decode`] refuses.
pub fn encode(host: &Host<'_>, stream: Option<&StreamEngine>) -> String {
    let model = host.model();
    let seed = host.seed();
    let spec = &host.config().solver;
    let doc = SnapshotDoc {
        version: SNAPSHOT_VERSION,
        day: seed.day,
        gamma: host.config().gamma,
        solver: spec.name.to_string(),
        restarts: spec.restarts as u64,
        improvement_ratio: spec.improvement_ratio,
        seed_lo: (spec.seed & 0xFFFF_FFFF) as u32,
        seed_hi: (spec.seed >> 32) as u32,
        n_trajectories: model.n_trajectories() as u64,
        coverage: model
            .billboard_ids()
            .map(|b| model.coverage(b).to_vec())
            .collect(),
        lock: seed.lock,
        ledger: seed.ledger,
        stream: stream.map(|engine| {
            debug_assert!(
                std::ptr::eq(model, engine.model().as_ref()),
                "the host must serve the engine's base when snapshotting"
            );
            StreamDoc {
                lambda_m: engine.lambda_m(),
                epoch: engine.epoch(),
                compactions: engine.compactions(),
                stream_trajectories: engine.n_trajectories() as u64,
                locations: engine.billboards().locations().to_vec(),
                retired: engine.retired_mask().to_vec(),
                appended: engine
                    .overlay()
                    .entries()
                    .map(|(b, list)| (b, list.to_vec()))
                    .collect(),
                new_billboards: engine.overlay().new_billboard_lists().to_vec(),
            }
        }),
        shards: host.config().shards.as_ref().map(|spec| ShardsDoc {
            n_shards: spec.n_shards as u64,
            assignment: spec.assignment.as_ref().clone(),
        }),
    };
    serde_json::to_string(&doc).expect("stub never fails")
}

/// Wraps an encoded document in the checksummed file container.
pub fn seal(json_text: &str) -> String {
    let body = json_text.as_bytes();
    format!(
        "{SNAPSHOT_MAGIC}{json_text}\n{FOOTER_TAG}{:08x} {}\n",
        crc32(body),
        body.len()
    )
}

/// Unwraps a file container, verifying the magic line, then length, then
/// checksum.
pub fn unseal(content: &str) -> Result<&str, SnapshotCorruption> {
    let Some(rest) = content.strip_prefix(SNAPSHOT_MAGIC) else {
        return Err(SnapshotCorruption::MissingMagic);
    };
    // Footer is the final line: "%MSNAP-CRC32 <hex8> <len>\n".
    let parsed = rest
        .strip_suffix('\n')
        .and_then(|r| r.rfind('\n').map(|i| (&r[..i], &r[i + 1..])))
        .and_then(|(body_part, last_line)| {
            let args = last_line.strip_prefix(FOOTER_TAG)?;
            let (hex, len) = args.split_once(' ')?;
            Some((
                body_part,
                u32::from_str_radix(hex, 16).ok()?,
                len.parse::<usize>().ok()?,
            ))
        });
    let Some((body_part, expected_crc, expected_len)) = parsed else {
        return Err(SnapshotCorruption::MissingFooter);
    };
    if body_part.len() != expected_len {
        return Err(SnapshotCorruption::Truncated {
            expected: expected_len,
            got: body_part.len(),
        });
    }
    let got = crc32(body_part.as_bytes());
    if got != expected_crc {
        return Err(SnapshotCorruption::ChecksumMismatch {
            expected: expected_crc,
            got,
        });
    }
    Ok(body_part)
}

/// Atomically writes a sealed snapshot file `snap-<wal_seq>.snap` into
/// `dir` (tmp + fsync + rename + directory sync) and returns its path.
pub fn write_snapshot_file(
    dir: &Path,
    wal_seq: u64,
    json_text: &str,
) -> Result<PathBuf, SnapshotError> {
    let path = dir.join(snapshot_file_name(wal_seq));
    let tmp = dir.join(format!("snap-{wal_seq:020}.tmp"));
    {
        use std::io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(seal(json_text).as_bytes())?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &path)?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// Reads and unwraps a snapshot file, returning the inner JSON document.
pub fn read_snapshot_file(path: &Path) -> Result<String, SnapshotError> {
    let content = fs::read_to_string(path)?;
    Ok(unseal(&content)
        .map_err(SnapshotError::Corrupt)?
        .to_string())
}

/// Sorted list of `(wal_seq, path)` for every snapshot file in `dir`
/// (validity is *not* checked here — recovery walks newest-first and
/// falls back past corrupt files).
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SnapshotError> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            snaps.push((seq, entry.path()));
        }
    }
    snaps.sort_by_key(|&(seq, _)| seq);
    Ok(snaps)
}

/// Decodes a snapshot document (the inverse of [`encode`]).
pub fn decode(json_text: &str) -> Result<Restored, SnapshotError> {
    let v = serde_json::from_str(json_text).map_err(SnapshotError::Parse)?;
    decode_value(&v)
}

/// Decodes a snapshot from an already-parsed JSON value (e.g. the
/// `state` field of a `snapshot` response).
pub fn decode_value(v: &Value) -> Result<Restored, SnapshotError> {
    let version = json::u32_field(v, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version(version));
    }
    let solver_name = v["solver"].as_str().ok_or(DecodeError {
        field: "solver".into(),
        expected: "solver name",
    })?;
    let spec = SolverSpec::by_name(solver_name)
        .ok_or_else(|| SnapshotError::UnknownSolver(solver_name.to_string()))?
        .with_restarts(json::usize_field(v, "restarts")?)
        .with_improvement_ratio(json::f64_field(v, "improvement_ratio")?)
        .with_seed(
            u64::from(json::u32_field(v, "seed_lo")?)
                | (u64::from(json::u32_field(v, "seed_hi")?) << 32),
        );
    let Value::Array(rows) = &v["coverage"] else {
        return Err(DecodeError {
            field: "coverage".into(),
            expected: "array of coverage lists",
        }
        .into());
    };
    let coverage = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let Value::Array(items) = row else {
                return Err(DecodeError {
                    field: format!("coverage[{i}]"),
                    expected: "array of trajectory ids",
                });
            };
            items
                .iter()
                .map(|t| match t.as_f64() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as u32),
                    _ => Err(DecodeError {
                        field: format!("coverage[{i}][]"),
                        expected: "trajectory id",
                    }),
                })
                .collect::<Result<Vec<u32>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let n_trajectories = json::usize_field(v, "n_trajectories")?;
    let model = CoverageModel::from_lists(coverage, n_trajectories);
    // Every served world is a stream engine, so a document without the
    // section cannot be resumed.
    let stream = match &v["stream"] {
        Value::Null => {
            return Err(DecodeError {
                field: "stream".into(),
                expected: "the streaming section",
            }
            .into())
        }
        section => decode_stream(section, &model)?,
    };
    let shards = match &v["shards"] {
        Value::Null => None,
        section => {
            let n_shards = json::usize_field(section, "n_shards")?;
            if n_shards == 0 {
                return Err(DecodeError {
                    field: "shards.n_shards".into(),
                    expected: "positive shard count",
                }
                .into());
            }
            let assignment = u32_list(&section["assignment"], "shards.assignment")?;
            if assignment.iter().any(|&s| s as usize >= n_shards) {
                return Err(DecodeError {
                    field: "shards.assignment".into(),
                    expected: "shard indices below n_shards",
                }
                .into());
            }
            Some(ShardSpec::new(n_shards, assignment))
        }
    };
    Ok(Restored {
        model,
        config: HostConfig {
            gamma: json::f64_field(v, "gamma")?,
            solver: spec,
            shards,
        },
        seed: HostSeed {
            day: json::u32_field(v, "day")?,
            lock: json::decode_lock_state(&v["lock"])?,
            ledger: json::decode_ledger(&v["ledger"])?,
        },
        stream: Some(stream),
    })
}

/// Decodes the `stream` section of a v2 snapshot against the
/// already-decoded base model (needed for the overlay's base dims).
fn decode_stream(v: &Value, model: &CoverageModel) -> Result<StreamRestore, SnapshotError> {
    let Value::Array(loc_rows) = &v["locations"] else {
        return Err(DecodeError {
            field: "stream.locations".into(),
            expected: "array of {x, y} points",
        }
        .into());
    };
    let locations = loc_rows
        .iter()
        .map(|p| {
            Ok(Point::new(
                json::f64_field(p, "x")?,
                json::f64_field(p, "y")?,
            ))
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let Value::Array(flags) = &v["retired"] else {
        return Err(DecodeError {
            field: "stream.retired".into(),
            expected: "array of booleans",
        }
        .into());
    };
    let retired = flags
        .iter()
        .map(|f| match f {
            Value::Bool(b) => Ok(*b),
            _ => Err(DecodeError {
                field: "stream.retired[]".into(),
                expected: "boolean",
            }),
        })
        .collect::<Result<Vec<bool>, _>>()?;
    let appended = match &v["appended"] {
        Value::Null => Vec::new(),
        Value::Array(pairs) => pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| {
                let id = u32_item(&pair[0], "stream.appended[][0]")?;
                let list = u32_list(&pair[1], &format!("stream.appended[{i}][1]"))?;
                Ok((id, list))
            })
            .collect::<Result<Vec<_>, DecodeError>>()?,
        _ => {
            return Err(DecodeError {
                field: "stream.appended".into(),
                expected: "array of [id, [trajectories]] pairs",
            }
            .into())
        }
    };
    let new_billboards = match &v["new_billboards"] {
        Value::Null => Vec::new(),
        Value::Array(rows) => rows
            .iter()
            .enumerate()
            .map(|(i, row)| u32_list(row, &format!("stream.new_billboards[{i}]")))
            .collect::<Result<Vec<_>, DecodeError>>()?,
        _ => {
            return Err(DecodeError {
                field: "stream.new_billboards".into(),
                expected: "array of coverage lists",
            }
            .into())
        }
    };
    let overlay = DeltaOverlay::from_parts(
        model.n_billboards(),
        model.n_trajectories(),
        appended,
        new_billboards,
    );
    Ok(StreamRestore {
        lambda_m: json::f64_field(v, "lambda_m")?,
        epoch: json::u64_field(v, "epoch")?,
        compactions: json::u64_field(v, "compactions")?,
        n_trajectories: json::usize_field(v, "stream_trajectories")?,
        locations,
        retired,
        overlay,
    })
}

fn u32_item(v: &Value, field: &str) -> Result<u32, DecodeError> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as u32),
        _ => Err(DecodeError {
            field: field.into(),
            expected: "unsigned 32-bit integer",
        }),
    }
}

fn u32_list(v: &Value, field: &str) -> Result<Vec<u32>, DecodeError> {
    let Value::Array(items) = v else {
        return Err(DecodeError {
            field: field.into(),
            expected: "array of unsigned 32-bit integers",
        });
    };
    items
        .iter()
        .map(|item| u32_item(item, &format!("{field}[]")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use mroam_market::{Proposal, ProposalGenerator};
    use mroam_stream::testutil::disjoint_engine;

    fn config() -> HostConfig {
        HostConfig {
            gamma: 0.5,
            solver: SolverSpec::by_name("bls")
                .unwrap()
                .with_seed(0xDEAD_BEEF_CAFE_F00D)
                .with_restarts(2),
            shards: None,
        }
    }

    #[test]
    fn snapshot_roundtrips_state_and_config() {
        let engine = disjoint_engine(&[8, 7, 6, 5, 4]);
        let model = engine.model();
        let g = ProposalGenerator {
            supply: model.supply(),
            p_avg: 0.15,
            arrivals_per_day: (1, 2),
            duration_days: (1, 4),
            seed: 3,
        };
        let mut host = Host::new(model, config());
        for day in 0..5 {
            host.run_day(&g.day_batch(day));
        }
        let restored = decode(&encode(&host, Some(&engine))).expect("restores");
        assert_eq!(restored.seed, host.seed());
        assert_eq!(restored.config.gamma, 0.5);
        assert_eq!(restored.config.solver, config().solver);
        assert_eq!(restored.model.n_billboards(), model.n_billboards());
        assert_eq!(restored.model.n_trajectories(), model.n_trajectories());
        for b in model.billboard_ids() {
            assert_eq!(restored.model.coverage(b), model.coverage(b));
        }
    }

    #[test]
    fn shard_spec_roundtrips_through_the_snapshot() {
        let engine = disjoint_engine(&[8, 7, 6, 5, 4, 3]);
        let spec = ShardSpec::new(3, vec![0, 0, 1, 1, 2, 2]);
        let mut cfg = config();
        cfg.shards = Some(spec.clone());
        let mut host = Host::new(engine.model(), cfg);
        host.run_day(&[Proposal {
            demand: 5,
            payment: 5.0,
            duration_days: 2,
            zone: Some(1),
        }]);
        let restored = decode(&encode(&host, Some(&engine))).expect("restores");
        assert_eq!(restored.config.shards, Some(spec));
        // Unsharded hosts keep an absent section.
        let plain = Host::new(engine.model(), config());
        let restored = decode(&encode(&plain, Some(&engine))).unwrap();
        assert_eq!(restored.config.shards, None);
    }

    #[test]
    fn sixty_four_bit_seed_survives_the_float_wire() {
        let engine = disjoint_engine(&[3]);
        let host = Host::new(engine.model(), config());
        let restored = decode(&encode(&host, Some(&engine))).unwrap();
        assert_eq!(restored.config.solver.seed, 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn resumed_host_continues_exactly() {
        let engine = disjoint_engine(&[9, 8, 7, 6, 5]);
        let model = engine.model();
        let g = ProposalGenerator {
            supply: model.supply(),
            p_avg: 0.12,
            arrivals_per_day: (1, 3),
            duration_days: (1, 3),
            seed: 11,
        };
        let mut uninterrupted = Host::new(model, config());
        let mut doomed = Host::new(model, config());
        for day in 0..3 {
            uninterrupted.run_day(&g.day_batch(day));
            doomed.run_day(&g.day_batch(day));
        }
        let snapshot = encode(&doomed, Some(&engine));
        drop(doomed); // the "crash"
        let restored = decode(&snapshot).unwrap();
        let mut resumed = Host::resume(&restored.model, restored.config, restored.seed);
        for day in 3..8 {
            let a = uninterrupted.run_day(&g.day_batch(day));
            let b = resumed.run_day(&g.day_batch(day));
            assert_eq!(a, b, "day {day} diverged after restore");
        }
        assert_eq!(uninterrupted.ledger().days, resumed.ledger().days);
    }

    #[test]
    fn bad_snapshots_are_rejected_with_reasons() {
        assert!(matches!(decode("not json"), Err(SnapshotError::Parse(_))));
        assert!(matches!(
            decode("{\"version\":99}"),
            Err(SnapshotError::Version(99))
        ));
        let engine = disjoint_engine(&[2]);
        let host = Host::new(engine.model(), config());
        let good = encode(&host, Some(&engine));
        let evil = good.replace("\"bls\"", "\"simplex\"");
        assert!(matches!(
            decode(&evil),
            Err(SnapshotError::UnknownSolver(_))
        ));
    }

    #[test]
    fn stream_less_documents_are_a_typed_error_naming_the_section() {
        let engine = disjoint_engine(&[2]);
        let host = Host::new(engine.model(), config());
        let doc = encode(&host, None);
        assert!(doc.contains("\"stream\":null"), "{doc}");
        match decode(&doc) {
            Err(SnapshotError::Decode(e)) => assert_eq!(e.field, "stream"),
            other => panic!("expected a decode error naming `stream`, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_consistent_mid_horizon() {
        // Locks present in the snapshot must reflect exactly the solved
        // days (no half-day state).
        let engine = disjoint_engine(&[10, 9, 8]);
        let mut host = Host::new(engine.model(), config());
        host.run_day(&[Proposal {
            demand: 9,
            payment: 9.0,
            duration_days: 5,
            zone: None,
        }]);
        let restored = decode(&encode(&host, Some(&engine))).unwrap();
        assert_eq!(restored.seed.day, 1);
        assert_eq!(restored.seed.lock.locked_count(), host.locked_count());
        assert_eq!(restored.seed.ledger.days.len(), 1);
    }

    #[test]
    fn sealed_container_roundtrips() {
        let doc = r#"{"version":2,"day":3}"#;
        assert_eq!(unseal(&seal(doc)).unwrap(), doc);
    }

    #[test]
    fn bare_json_without_the_magic_line_is_rejected() {
        let doc = r#"{"version":2}"#;
        assert_eq!(unseal(doc), Err(SnapshotCorruption::MissingMagic));
        // A sealed file whose first byte is lost is no better.
        let sealed = seal(doc);
        assert_eq!(unseal(&sealed[1..]), Err(SnapshotCorruption::MissingMagic));
    }

    #[test]
    fn every_truncation_of_a_sealed_file_is_a_typed_error() {
        let sealed = seal(r#"{"version":2,"day":3,"gamma":0.5}"#);
        // Cut anywhere, inside the magic line included: typed
        // corruption, never a silent pass-through.
        for cut in 0..sealed.len() - 1 {
            let err = unseal(&sealed[..cut]).unwrap_err();
            if cut < SNAPSHOT_MAGIC.len() {
                assert_eq!(err, SnapshotCorruption::MissingMagic, "cut at {cut}");
            }
        }
    }

    #[test]
    fn only_the_current_document_version_restores() {
        let engine = disjoint_engine(&[2]);
        let doc = encode(&Host::new(engine.model(), config()), Some(&engine));
        let tag = format!("\"version\":{SNAPSHOT_VERSION}");
        assert!(doc.contains(&tag));
        for old in [0, 1] {
            let older = doc.replace(&tag, &format!("\"version\":{old}"));
            assert!(matches!(
                decode(&older),
                Err(SnapshotError::Version(v)) if v == old
            ));
        }
    }

    #[test]
    fn bit_flips_in_the_body_are_checksum_mismatches() {
        let sealed = seal(r#"{"version":2,"day":3}"#);
        let mut bytes = sealed.into_bytes();
        let i = SNAPSHOT_MAGIC.len() + 9;
        bytes[i] = if bytes[i] == b'x' { b'y' } else { b'x' };
        let hacked = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            unseal(&hacked),
            Err(SnapshotCorruption::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_files_write_atomically_and_list_in_order() {
        let tmp = TempDir::new("snap-files");
        let engine = disjoint_engine(&[4, 3]);
        let host = Host::new(engine.model(), config());
        let doc = encode(&host, Some(&engine));
        write_snapshot_file(tmp.path(), 5, &doc).unwrap();
        write_snapshot_file(tmp.path(), 12, &doc).unwrap();
        let listed = list_snapshots(tmp.path()).unwrap();
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 12]
        );
        let back = read_snapshot_file(&listed[1].1).unwrap();
        assert_eq!(back, doc);
        let restored = decode(&back).unwrap();
        assert_eq!(restored.seed.day, 0);
    }
}
