//! The result line: metric catalogue, correctness tally, and the JSON
//! object the run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports on an untraced run, with
/// their units. All are lower-is-better; `BENCHMARK.json` lists the same
/// names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("alloc_p50_ms", "ms"),
    ("alloc_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
];

/// Per-layer metrics every workload reports on a traced run (0 where the
/// workload does not exercise the layer), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.city_s", "s"),
    ("influence.coverage_s", "s"),
    ("influence.precompute_s", "s"),
    ("influence.model_mib", "MiB"),
    ("core.solve_ms.g-global.nyc", "ms"),
    ("core.solve_ms.g-global.sg", "ms"),
    ("core.solve_ms.als.nyc", "ms"),
    ("core.solve_ms.als.sg", "ms"),
    ("core.solve_ms.bls.nyc", "ms"),
    ("core.solve_ms.bls.sg", "ms"),
    ("core.regret.g-global", "regret"),
    ("core.regret.als", "regret"),
    ("core.regret.bls", "regret"),
    ("core.regret_excess.g-global", "regret"),
    ("core.regret_excess.als", "regret"),
    ("core.regret_excess.bls", "regret"),
    ("core.regret_unsatisfied.g-global", "regret"),
    ("core.regret_unsatisfied.als", "regret"),
    ("core.regret_unsatisfied.bls", "regret"),
    ("core.satisfied_ratio.g-global", "ratio"),
    ("core.satisfied_ratio.als", "ratio"),
    ("core.satisfied_ratio.bls", "ratio"),
    ("core.day_solve_us", "us"),
    ("market.step_self_us", "us"),
    ("market.batch_size", "count"),
    ("market.satisfied_ratio", "ratio"),
    ("serve.decode_us.submit", "us"),
    ("serve.decode_us.read", "us"),
    ("serve.decode_us.ingest", "us"),
    ("serve.encode_us.submit", "us"),
    ("serve.encode_us.read", "us"),
    ("serve.encode_us.ingest", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.snapshot_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.fsyncs_per_record", "ratio"),
    ("wal.bytes_per_record", "B"),
    ("wal.recover_ms", "ms"),
    ("wal.snapshot_kib", "KiB"),
    ("stream.ingest_us", "us"),
    ("stream.compact_ms", "ms"),
    ("stream.compactions", "count"),
    ("stream.set_influence_us", "us"),
    ("replica.apply_us.run_day", "us"),
    ("replica.apply_us.ingest", "us"),
    ("replica.apply_us.compact", "us"),
    ("replica.lag_seqs", "count"),
    ("replica.catch_up_ms", "ms"),
    ("client.submit_p50_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("client.ingest_tail_ms", "ms"),
    ("client.recovery_s", "s"),
    ("loadgen.late_ms", "ms"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (solves, requests, restarts).
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or went unanswered.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed correctness check (the run will report
    /// `correct: false`).
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("CHECK FAILED: {what}");
        self.failures.push(what);
    }

    /// Records a check: `ok`, or a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// The final JSON line over `catalogue`; metrics missing from the run
    /// are reported as failed checks (and omitted).
    pub fn result_line(&mut self, catalogue: &[(&str, &str)]) -> String {
        let mut body = String::new();
        let mut missing = Vec::new();
        for &(name, unit) in catalogue {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {
                    if !body.is_empty() {
                        body.push(',');
                    }
                    let _ = write!(body, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
                }
                _ => missing.push(name),
            }
        }
        for name in missing {
            self.fail(format!("metric {name} was not measured"));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}
