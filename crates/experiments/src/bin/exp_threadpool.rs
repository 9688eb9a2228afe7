//! `exp_threadpool` — microbenchmark of the vendored work-stealing
//! runtime, recorded as the `results/BENCH_threadpool.json` baseline.
//!
//! ```text
//! exp_threadpool [--jobs 512] [--iters 20] [--date YYYY-MM-DD]
//!                [--out results/BENCH_threadpool.json]
//! ```
//!
//! Four axes, all on the warm global pool:
//!
//! * **dispatch** — per-job cost of running `--jobs` trivial tasks as
//!   scope spawns on the persistent pool vs one `std::thread::spawn`
//!   per task (the pre-runtime strategy). This is the headline number:
//!   a deque push + steal must be ≥10× cheaper than an OS thread.
//! * **join** — throughput of a binary `rayon::join` recursion tree
//!   (the shape every partitioned scan and par-iter reduction takes).
//! * **spawn latency** — round-trip of a single scope with one spawn,
//!   i.e. the fixed cost a solver pays to fan work out at all.
//! * **scaling** — a fixed CPU-bound par-iter reduction at pool widths
//!   1/2/4/8 via dedicated [`rayon::ThreadPool`]s. On a single-core
//!   host these rows measure stealing overhead, not speedup — the
//!   emitted notes say so.
//!
//! Correctness gates run before any timing: join trees, scope counters,
//! and the par-iter reduction are checked against their sequential
//! answers at every width used.

use std::sync::atomic::{AtomicU64, Ordering};

use mroam_experiments::record::{host_threads, time_mean, Record};
use mroam_experiments::Args;
use rayon::prelude::*;

/// The trivial per-job payload: a handful of arithmetic ops and one
/// relaxed atomic add, so a "job" costs nanoseconds and the timing is
/// dominated by dispatch, which is what we want to measure.
#[inline(never)]
fn tiny_work(counter: &AtomicU64, seed: u64) {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 29;
    counter.fetch_add(x & 1, Ordering::Relaxed);
}

/// `jobs` tasks on the persistent pool via one scope.
fn pool_batch(counter: &AtomicU64, jobs: u64) {
    rayon::scope(|s| {
        for i in 0..jobs {
            let counter = &*counter;
            s.spawn(move |_| tiny_work(counter, i));
        }
    });
}

/// `jobs` tasks, one OS thread each — the strategy the old vendored
/// stub used for every parallel call. Spawned in waves of 64 so a
/// large `--jobs` cannot exhaust the host's thread limit; the wave
/// join is part of what thread-per-task costs.
fn os_thread_batch(counter: &AtomicU64, jobs: u64) {
    const WAVE: u64 = 64;
    let mut i = 0;
    while i < jobs {
        let end = (i + WAVE).min(jobs);
        std::thread::scope(|s| {
            for k in i..end {
                s.spawn(move || tiny_work(counter, k));
            }
        });
        i = end;
    }
}

/// Binary join recursion summing `0..n` — the partitioned-scan shape.
fn join_tree(lo: u64, hi: u64, grain: u64) -> u64 {
    if hi - lo <= grain {
        (lo..hi).sum()
    } else {
        let mid = lo + (hi - lo) / 2;
        let (a, b) = rayon::join(|| join_tree(lo, mid, grain), || join_tree(mid, hi, grain));
        a + b
    }
}

/// CPU-bound par-iter reduction used for the width-scaling rows.
fn scaling_workload(n: u64) -> u64 {
    (0..n)
        .into_par_iter()
        .map(|i| {
            let mut x = i;
            for _ in 0..32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x & 0xFF
        })
        .sum()
}

fn main() {
    let args = Args::from_env(&["iters", "jobs", "date", "out"]);
    let jobs = args.usize_or("jobs", 512) as u64;
    let iters = args.usize_or("iters", 20);

    rayon::warm_up();
    let width = rayon::current_num_threads();
    eprintln!("[exp_threadpool] pool width {width}, {jobs} jobs/batch, {iters} iters");

    // ---- correctness gates (before any timing) -----------------------
    const JOIN_N: u64 = 1 << 16;
    const JOIN_GRAIN: u64 = 256;
    let expect_join: u64 = (0..JOIN_N).sum();
    assert_eq!(
        join_tree(0, JOIN_N, JOIN_GRAIN),
        expect_join,
        "join tree sum"
    );

    const SCALE_N: u64 = 200_000;
    let expect_scale: u64 = (0..SCALE_N)
        .map(|i| {
            let mut x = i;
            for _ in 0..32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x & 0xFF
        })
        .sum();
    assert_eq!(
        scaling_workload(SCALE_N),
        expect_scale,
        "par-iter reduction"
    );

    {
        // Pool and OS batches must execute every job exactly once; the
        // payload parity sum is identical because the job set is.
        let a = AtomicU64::new(0);
        pool_batch(&a, jobs);
        let b = AtomicU64::new(0);
        os_thread_batch(&b, jobs);
        assert_eq!(a.into_inner(), b.into_inner(), "dispatch batches diverge");
    }

    let mut rows: Vec<(String, f64)> = Vec::new();

    // ---- dispatch axis -----------------------------------------------
    let counter = AtomicU64::new(0);
    let pool_mean = time_mean(iters, || pool_batch(&counter, jobs));
    rows.push((format!("dispatch/pool_scope/{jobs}_jobs"), pool_mean));
    let os_iters = iters.clamp(3, 5); // thread-per-task is slow; cap it
    let os_mean = time_mean(os_iters, || os_thread_batch(&counter, jobs));
    rows.push((format!("dispatch/os_thread_per_task/{jobs}_jobs"), os_mean));
    let per_job_pool_ns = pool_mean / jobs as f64 * 1e9;
    let per_job_os_ns = os_mean / jobs as f64 * 1e9;
    rows.push(("dispatch/pool_per_job_ns".into(), per_job_pool_ns));
    rows.push(("dispatch/os_thread_per_job_ns".into(), per_job_os_ns));

    // ---- join axis ---------------------------------------------------
    let leaves = (JOIN_N / JOIN_GRAIN) as f64;
    let join_mean = time_mean(iters, || join_tree(0, JOIN_N, JOIN_GRAIN));
    rows.push(("join/tree_64k_grain_256".into(), join_mean));
    rows.push(("join/forks_per_s".into(), (leaves - 1.0) / join_mean));

    // ---- spawn-latency axis ------------------------------------------
    let single = AtomicU64::new(0);
    rows.push((
        "spawn/single_scope_roundtrip".into(),
        time_mean(iters.max(100), || pool_batch(&single, 1)),
    ));

    // ---- scaling axis ------------------------------------------------
    for w in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPool::new(w);
        let got = pool.install(|| scaling_workload(SCALE_N));
        assert_eq!(got, expect_scale, "width-{w} reduction diverges");
        rows.push((
            format!("scaling/par_sum_200k/width_{w}"),
            time_mean(iters, || pool.install(|| scaling_workload(SCALE_N))),
        ));
    }

    // ---- emit --------------------------------------------------------
    let host_threads = host_threads();
    let dispatch_speedup = per_job_os_ns / per_job_pool_ns;
    let stats = rayon::pool_stats();
    let mut record = Record::new(
        "threadpool",
        "cargo run --release -p mroam-experiments --bin exp_threadpool",
        &args,
    );
    record
        .host_threads()
        .field("pool_width", width)
        .field("jobs_per_batch", jobs)
        .field("iters", iters)
        .results("mean_s", &rows)
        .map(
            "speedups",
            [(
                "pool_dispatch_vs_os_thread_per_task",
                format!("{dispatch_speedup:.2}"),
            )],
        )
        .field(
            "pool_counters",
            format!(
                "{{ \"jobs_executed\": {}, \"steals\": {}, \"injected\": {}, \"parks\": {} }}",
                stats.jobs_executed, stats.steals, stats.injected, stats.parks
            ),
        );
    record.emit(
        &[
            format!("Recorded on a {host_threads}-thread host. The dispatch comparison is fair there — both strategies pay their real per-job overhead on the same core — but the scaling/width_N rows cannot show speedup without hardware parallelism; they pin the overhead curve (stealing + parking) so a multi-core re-record has a baseline. (Same precedent as BENCH_scale.json.)"),
            "dispatch/os_thread_per_task spawns threads in waves of 64 and joins each wave, matching how the old vendored stub ran scoped tasks; per-job cost includes spawn + join amortised over the batch.".into(),
            "All correctness gates ran in-process before timing: join-tree and par-iter sums match sequential at every width, and the pool and OS dispatch batches execute identical job sets.".into(),
            "pool_counters are cumulative for this process (gates + timed runs) from the global pool; the width_N scaling rows use dedicated pools not included in these counters.".into(),
        ],
        &args,
    );
    eprintln!(
        "[exp_threadpool] per-job dispatch: pool {per_job_pool_ns:.0} ns vs OS thread {per_job_os_ns:.0} ns ({dispatch_speedup:.1}x)"
    );
}
