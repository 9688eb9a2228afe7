//! Open-loop request schedules, drawn up front from the workload seed.
//!
//! Each operation stream is a Poisson process: exponential gaps with mean
//! `1 / rate`. Streams are merged into one time-ordered schedule so a
//! single sender thread can pace all of them; send times never depend on
//! responses, so a stall delays every later request's measured latency
//! instead of hiding it (no coordinated omission).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// What a scheduled operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `submit` a campaign proposal (leader).
    Submit,
    /// `query_coverage` on a billboard set.
    Read,
    /// `ingest` a batch of trajectories (leader).
    Ingest,
}

impl OpKind {
    /// Metric-name stem of the operation.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Submit => "submit",
            OpKind::Read => "read",
            OpKind::Ingest => "ingest",
        }
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Due time, from the start of the run.
    pub at: Duration,
    /// Operation kind.
    pub kind: OpKind,
}

/// Poisson arrival times over `[0, seconds)` at `rate` per second.
pub fn poisson_arrivals(rng: &mut ChaCha8Rng, rate: f64, seconds: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// The merged schedule for a mix of streams.
///
/// `writes_per_sec` is the leader's write stream; every `ingest_every`-th
/// write (when nonzero) is an ingest batch instead of a submit, so the
/// ingest share is fixed. `reads_per_sec` is an independent read stream.
pub fn build(
    seed: u64,
    seconds: f64,
    writes_per_sec: f64,
    ingest_every: usize,
    reads_per_sec: f64,
) -> Vec<Op> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5C4E_D01E);
    let mut ops: Vec<Op> = poisson_arrivals(&mut rng, writes_per_sec, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Op {
            at: Duration::from_secs_f64(t),
            kind: if ingest_every > 0 && i % ingest_every == ingest_every - 1 {
                OpKind::Ingest
            } else {
                OpKind::Submit
            },
        })
        .collect();
    if reads_per_sec > 0.0 {
        ops.extend(
            poisson_arrivals(&mut rng, reads_per_sec, seconds)
                .into_iter()
                .map(|t| Op {
                    at: Duration::from_secs_f64(t),
                    kind: OpKind::Read,
                }),
        );
    }
    ops.sort_by_key(|op| op.at);
    ops
}
