//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper-solve|serve-heavy|durable-mixed --seed N
//!           --seconds S --trace 0|1 [--bin-dir DIR]
//! ```
//!
//! Prints human-readable lines, then one JSON result line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when any correctness check fails.
//! `run.sh` in this directory builds everything and calls this binary.

use perfbench::procs::{WorkDir, POOL_WIDTH};
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::served::{self, Bins, Mode};
use perfbench::trace::Tracer;
use perfbench::{cpu_ticks, filesystem_of, host_facts, paper, steal_fact};
use std::path::PathBuf;
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload paper-solve|serve-heavy|durable-mixed --seed N --seconds S --trace 0|1 [--bin-dir DIR]"
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = Some(value == "1"),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed N is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds S (S >= 1) is required"));
    let traced = trace.unwrap_or_else(|| usage("--trace 0|1 is required"));
    let mode = match workload.as_str() {
        "paper-solve" => None,
        "serve-heavy" => Some(Mode::Heavy),
        "durable-mixed" => Some(Mode::Durable),
        other => usage(&format!("unknown workload {other}")),
    };

    // Pin the pool width before anything touches the pool; the daemons
    // get the same width.
    std::env::set_var("RAYON_NUM_THREADS", POOL_WIDTH);
    let work = WorkDir::create().unwrap_or_else(|e| {
        eprintln!("cannot create a scratch directory: {e}");
        exit(1);
    });
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let cpu_before = cpu_ticks();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match mode {
        None => {
            paper::run(seconds, &mut report, &mut tracer);
            Ok(())
        }
        Some(mode) => {
            let dir = bin_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from("target/release"));
            let bins = Bins {
                served: dir.join("mroam-served"),
                follower: dir.join("mroam-follower"),
            };
            served::run(
                mode,
                &bins,
                work.path(),
                seed,
                seconds,
                traced,
                &mut report,
                &mut tracer,
            )
        }
    }));
    let why = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(why)) => Some(why),
        Err(_) => Some("the harness panicked".to_string()),
    };
    if let Some(why) = why {
        // Every daemon guard has been dropped by now (killed and reaped);
        // remove the scratch directory before leaving without a result.
        drop(work);
        eprintln!("{workload}: {why}");
        exit(1);
    }
    if mode.is_none() {
        if let Some(rss) = perfbench::peak_rss_mib(None) {
            report.set("peak_rss_mb", rss);
        }
    }
    println!(
        "host: {} {} wal_fs={} workload={workload} seed={seed} seconds={seconds} trace={}",
        host_facts(),
        steal_fact(cpu_before, cpu_ticks()),
        filesystem_of(work.path()),
        u8::from(traced)
    );
    let catalogue = if traced {
        let spans_path = work
            .path()
            .parent()
            .expect("scratch parent")
            .join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&spans_path) {
            eprintln!("cannot write spans to {spans_path:?}: {e}");
        } else {
            println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                spans_path.display()
            );
        }
        let unexercised: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(name, _)| !report.metrics.contains_key(*name))
            .map(|(name, _)| *name)
            .collect();
        if !unexercised.is_empty() {
            println!(
                "not exercised by {workload} (reported as 0): {}",
                unexercised.join(" ")
            );
        }
        for name in unexercised {
            report.set(name, 0.0);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let line = report.result_line(catalogue);
    println!("{line}");
    drop(work);
    if !report.failures.is_empty() {
        exit(1);
    }
}
