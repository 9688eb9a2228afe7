//! Pool-width identity matrix: G-Global, ALS, and BLS (parallel restarts
//! on, nested scans on) must produce bit-identical allocations at
//! `RAYON_NUM_THREADS ∈ {1, 2, 4, 8}`.
//!
//! The pool width is latched once per process (like real rayon), so the
//! matrix cannot vary it in-process: the parent test re-executes this
//! same test binary once per width with `RAYON_NUM_THREADS` set and a
//! child marker in the environment, and compares the `DIGEST` lines the
//! children print. The child runs the full nested stack — ALS/BLS
//! restart portfolios on the pool over `MoveEngine`'s parallel cross- and
//! free-swap scans, which prune with the same best-case bounds as the
//! sequential ones — on a disjoint-coverage fixture large enough to cross
//! the move scans' parallel-dispatch threshold. G-Global's pick scans are
//! sequential at every width.

use mroam_core::prelude::*;
use mroam_influence::CoverageModel;
use std::process::Command;

const CHILD_ENV: &str = "MROAM_POOL_IDENTITY_CHILD";

/// Disjoint-coverage fixture (the `disjoint_model` shape shared by the
/// unit suites): billboard `k` covers its own private block of
/// trajectories, sized by a little deterministic LCG so influences vary.
/// With 600 billboards over 8 advertisers, a cross-swap scan's
/// `|S_a|·|S_b|` pairs comfortably exceed the 256-candidate parallel-scan
/// threshold (`moves::PAR_SCAN_MIN`), so the parallel move scans engage;
/// the threshold is checked before pruning, so skipped pairs still count.
fn fixture_model() -> CoverageModel {
    let n_b = 600usize;
    let mut lists = Vec::with_capacity(n_b);
    let mut next = 0u32;
    let mut state = 0x2545F4914F6CDD1Du64;
    for _ in 0..n_b {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = 1 + (state >> 59) as u32 % 5; // 1..=5 trajectories each
        lists.push((next..next + k).collect::<Vec<u32>>());
        next += k;
    }
    CoverageModel::from_lists(lists, next as usize)
}

/// Demands sum to ~2580 against ~1800 available trajectories, so not
/// every advertiser can be satisfied: the solvers face real contention
/// and regret is non-zero, which makes bit-identity a meaningful check
/// rather than "everyone trivially happy".
fn fixture_advertisers() -> AdvertiserSet {
    AdvertiserSet::new(vec![
        Advertiser::new(400, 50.0),
        Advertiser::new(250, 30.0),
        Advertiser::new(600, 45.0),
        Advertiser::new(100, 18.0),
        Advertiser::new(330, 22.0),
        Advertiser::new(150, 40.0),
        Advertiser::new(550, 35.0),
        Advertiser::new(200, 12.0),
    ])
}

/// Every bit of the solution, printable: exact regret bits, influences,
/// and the full per-advertiser billboard sets.
fn digest(tag: &str, s: &Solution) -> String {
    let sets: Vec<String> = s
        .sets
        .iter()
        .map(|set| {
            set.iter()
                .map(|b| b.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!(
        "DIGEST {tag} regret_bits={:016x} influences={:?} sets=[{}]",
        s.total_regret.to_bits(),
        s.influences,
        sets.join(";")
    )
}

/// Child half: solves the fixture with all three solvers and prints one
/// DIGEST line per solver. Runs only when spawned by the parent (marker
/// env var); as a plain `cargo test` it is a no-op.
#[test]
fn child_emit_digests() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let model = fixture_model();
    let advs = fixture_advertisers();
    let inst = Instance::new(&model, &advs, 0.5);

    let gg = GGlobal.solve(&inst);
    println!("{}", digest("g-global", &gg));

    let als = Als {
        restarts: 6,
        seed: 7,
        parallel: true,
        naive_scan: false,
    }
    .solve(&inst);
    println!("{}", digest("als", &als));

    let bls = Bls {
        restarts: 4,
        seed: 9,
        improvement_ratio: 0.0,
        parallel: true,
        naive_scan: false,
    }
    .solve(&inst);
    println!("{}", digest("bls", &bls));
}

fn run_child_at_width(width: usize) -> Vec<String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["child_emit_digests", "--exact", "--nocapture"])
        .env(CHILD_ENV, "1")
        .env("RAYON_NUM_THREADS", width.to_string())
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child at width {width} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest may glue its "test ... " progress prefix onto the first
    // println of the test, so locate the marker anywhere in the line.
    let digests: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.find("DIGEST ").map(|i| l[i..].to_owned()))
        .collect();
    assert_eq!(
        digests.len(),
        3,
        "child at width {width} printed {} digests, expected 3",
        digests.len()
    );
    digests
}

#[test]
fn width_matrix_solutions_bit_identical() {
    if std::env::var(CHILD_ENV).is_ok() {
        return; // don't recurse when running inside a child
    }
    let baseline = run_child_at_width(1);
    for width in [2usize, 4, 8] {
        let got = run_child_at_width(width);
        assert_eq!(
            got, baseline,
            "solutions diverged between width 1 and width {width}"
        );
    }
}
