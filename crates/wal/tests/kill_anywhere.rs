//! Kill-at-any-point recovery: simulate a crash at an arbitrary byte of
//! the log's life and prove recovery lands on a bit-identical ledger.
//!
//! The reference run mirrors the serve command loop exactly: genesis
//! snapshot, one `RunDay` record per day (logged before the day runs),
//! periodic snapshots with `SnapshotMark` records, and pruning below the
//! previous snapshot's watermark. Because appends, snapshots, and prunes
//! interleave in time, a faithful crash image cannot be carved out of
//! the *final* directory — so the test runs the same deterministic
//! history twice: pass one uninterrupted (capturing the expected ledger
//! after every day and the day reached at every WAL seq), pass two
//! stopped cold at a proptest-chosen byte offset of the segment stream,
//! with the overshooting tail truncated mid-frame. That leaves exactly
//! the snapshots, pruned segments, and torn tail a `kill -9` at that
//! instant would leave. Optionally the newest surviving snapshot is
//! bit-flipped too, forcing the fallback-snapshot path.
//!
//! The invariant: recovery's day and ledger equal the uninterrupted
//! run's state after exactly the surviving records — never a day more,
//! never a day less, never a different allocation.

use mroam_core::solver::SolverSpec;
use mroam_market::host::{Host, HostConfig};
use mroam_market::{DayRecord, ProposalGenerator};
use mroam_stream::testutil::disjoint_engine;
use mroam_wal::state::{encode, list_snapshots, write_snapshot_file};
use mroam_wal::testutil::TempDir;
use mroam_wal::{recover, SharedWal, WalOptions, WalReader, WalRecord};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn config(seed: u64) -> HostConfig {
    HostConfig {
        gamma: 0.5,
        solver: SolverSpec::by_name("g-global").unwrap().with_seed(seed),
    }
}

/// The uninterrupted run's observable history: `ledgers[d]` is the
/// ledger after `d` completed days, and `day_at_seq[s]` the completed
/// day count once WAL record `s` has applied.
struct Reference {
    ledgers: Vec<Vec<DayRecord>>,
    day_at_seq: Vec<u32>,
}

/// Segment files in seq order with their byte lengths.
fn segments(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut segs: Vec<(String, PathBuf)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .map(|e| (e.file_name().to_str().unwrap().to_string(), e.path()))
        .collect();
    segs.sort();
    segs.into_iter()
        .map(|(_, p)| {
            let len = fs::metadata(&p).unwrap().len();
            (p, len)
        })
        .collect()
}

/// Total bytes across all segment files (headers included).
fn stream_len(dir: &Path) -> u64 {
    segments(dir).iter().map(|(_, l)| l).sum()
}

/// Runs `days` against a fresh host with serve-equivalent WAL behaviour
/// (genesis snapshot, periodic snapshot + mark + prune), per-record
/// synced so every appended byte is "durable" the moment it is written.
/// With `cut = Some(c)`, the run stops cold at the first append that
/// reaches `c` stream bytes — the crash instant.
fn run(dir: &Path, days: u32, snapshot_every: u32, seed: u64, cut: Option<u64>) -> Reference {
    let engine = disjoint_engine(&[9, 8, 7, 6, 5, 4, 3, 2]);
    let g = ProposalGenerator {
        supply: engine.model().supply(),
        p_avg: 0.12,
        arrivals_per_day: (1, 4),
        duration_days: (1, 3),
        seed,
    };
    let mut host = Host::new(engine.model(), config(seed));
    let wal = SharedWal::open(
        dir,
        WalOptions {
            segment_bytes: 256, // force frequent rotations
            ..WalOptions::default()
        },
    )
    .unwrap();
    write_snapshot_file(dir, 0, &encode(&host, Some(&engine))).unwrap();
    let mut reference = Reference {
        ledgers: vec![host.ledger().days.clone()],
        day_at_seq: vec![0],
    };
    let crashed = |dir: &Path| cut.is_some_and(|c| stream_len(dir) >= c);
    let mut since_snap = 0u32;
    let mut last_snap = 0u64;
    'life: for day in 0..days {
        let batch = g.day_batch(day);
        wal.append(&WalRecord::RunDay {
            day,
            proposals: batch.clone(),
        })
        .unwrap();
        if crashed(dir) {
            break 'life;
        }
        host.run_day(&batch);
        reference.day_at_seq.push(day + 1);
        reference.ledgers.push(host.ledger().days.clone());
        since_snap += 1;
        if since_snap >= snapshot_every {
            since_snap = 0;
            let watermark = wal.next_seq() - 1;
            write_snapshot_file(dir, watermark, &encode(&host, Some(&engine))).unwrap();
            wal.append(&WalRecord::SnapshotMark {
                wal_seq: watermark,
                day: host.day(),
                epoch: 0,
            })
            .unwrap();
            if crashed(dir) {
                break 'life;
            }
            reference.day_at_seq.push(day + 1);
            let floor = last_snap;
            last_snap = watermark;
            wal.prune_below(floor).unwrap();
            for (seq, path) in list_snapshots(dir).unwrap() {
                if seq < floor {
                    fs::remove_file(path).unwrap();
                }
            }
        }
    }
    if let Some(c) = cut {
        truncate_stream(dir, c);
    }
    reference
}

/// Tears the segment stream back to exactly `cut` bytes: whole trailing
/// segments vanish (an interrupted rotation), the one containing the cut
/// is left mid-frame (an interrupted write).
fn truncate_stream(dir: &Path, cut: u64) {
    let segs = segments(dir);
    let total: u64 = segs.iter().map(|(_, l)| l).sum();
    let mut excess = total.saturating_sub(cut);
    for (path, len) in segs.into_iter().rev() {
        if excess == 0 {
            break;
        }
        if excess >= len {
            fs::remove_file(path).unwrap();
            excess -= len;
        } else {
            let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(len - excess).unwrap();
            excess = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kill_anywhere_recovers_bit_identical(
        days in 5u32..12,
        snapshot_every in 2u32..5,
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
        corrupt_newest in any::<bool>(),
    ) {
        // Pass 1: the uninterrupted run is the ground truth.
        let full = TempDir::new("wal-kill-full");
        let reference = run(full.path(), days, snapshot_every, seed, None);
        let total = stream_len(full.path());

        // Pass 2: the same history, killed at an arbitrary byte.
        let cut = (cut_frac * total as f64) as u64;
        let crashed = TempDir::new("wal-kill-crash");
        run(crashed.path(), days, snapshot_every, seed, Some(cut));

        if corrupt_newest {
            // Media corruption on top of the crash: recovery must fall
            // back to an older snapshot and still converge (only when a
            // fallback exists — losing every snapshot is a typed error
            // covered by the unit tests).
            let snaps = list_snapshots(crashed.path()).unwrap();
            if snaps.len() >= 2 {
                let (_, path) = snaps.last().unwrap();
                let mut bytes = fs::read(path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                fs::write(path, &bytes).unwrap();
            }
        }

        let surviving = {
            let reader = WalReader::open(crashed.path()).unwrap();
            let newest_snap = list_snapshots(crashed.path())
                .unwrap()
                .last()
                .map_or(0, |(s, _)| *s);
            reader.last_seq().max(newest_snap)
        };
        let (world, report) = recover(crashed.path()).unwrap();
        let expected_day = reference.day_at_seq[surviving as usize];
        prop_assert_eq!(world.day(), expected_day,
            "cut at byte {} of {} (seq {}) should land on day {}", cut, total, surviving, expected_day);
        prop_assert_eq!(u64::from(report.day), u64::from(expected_day));
        prop_assert_eq!(
            &world.ledger().days,
            &reference.ledgers[expected_day as usize],
            "ledger after recovery must be bit-identical to the uninterrupted run"
        );
    }
}
