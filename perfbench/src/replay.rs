//! Traced run, part (b): replay a served run's operation log in-process,
//! in the command loop's order, through each layer's public functions,
//! under spans tagged with the originating request id (or WAL seq).
//!
//! The replay represents the served run only if its ledger (day,
//! collected, regret) equals the daemon's final `stats` exactly; that is
//! checked before any per-layer number is trusted.

use crate::report::Report;
use crate::served::{Answer, Workload, GAMMA};
use crate::stats::median;
use crate::trace::{durations_by_name, self_times_by_name, Tracer};
use mroam_core::solver::{Solution, Solver, SolverSpec};
use mroam_core::Instance;
use mroam_data::BillboardId;
use mroam_experiments::params::DEFAULT_LAMBDA;
use mroam_experiments::setup::{city_config, CityKind, Scale};
use mroam_market::{Host, HostConfig, Ledger, LockState, MarketConfig, MarketSim, ProposalOutcome};
use mroam_serve::protocol::{Request, Response};
use mroam_stream::{IngestReport, StreamEngine};
use mroam_wal::{ReplayWorld, SharedWal, SyncPolicy, WalOptions, WalReader, WalRecord};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How far the replay's per-day solve+step median may sit from the
/// daemon's own `stats.solve` p50 (a log-bucketed histogram) before the
/// replay is judged not to represent the served run.
const SOLVE_AGREEMENT: f64 = 0.5;

/// A solver wrapper that remembers when its last solve ran, so the market
/// step's `core.solve` child span can be recorded from outside.
struct TimedSolver {
    inner: Box<dyn Solver + Send + Sync>,
    last: Mutex<Option<(Instant, Instant)>>,
}

impl Solver for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn solve(&self, instance: &Instance<'_>) -> Solution {
        let start = Instant::now();
        let solution = self.inner.solve(instance);
        *self.last.lock().expect("timing slot") = Some((start, Instant::now()));
        solution
    }
}

impl TimedSolver {
    fn new(spec: &SolverSpec) -> Self {
        TimedSolver {
            inner: spec.build(),
            last: Mutex::new(None),
        }
    }

    fn take(&self) -> Option<(Instant, Instant)> {
        self.last.lock().expect("timing slot").take()
    }
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn median_us(ns: &[u64]) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&us)
}

/// Steps one served day through the market under a `market.step` span
/// with its `core.solve` child.
fn step_day(
    sim: &mut MarketSim<'_>,
    day: u32,
    proposals: &[mroam_market::Proposal],
    solver: &TimedSolver,
    trace: u64,
    tracer: &mut Tracer,
) -> mroam_market::DayOutcome {
    let span = tracer.begin("market.step", trace);
    let outcome = sim.step_with_proposals(
        day,
        proposals,
        solver,
        MarketConfig {
            days: day + 1,
            gamma: GAMMA,
        },
    );
    if let Some((s, e)) = solver.take() {
        tracer.record("core.solve", trace, s, e);
    }
    tracer.end(span);
    outcome
}

/// Decodes every recorded request and re-encodes every answer from its
/// parsed fields, under `serve.decode.<op>` / `serve.encode.<op>` spans.
/// Decoded requests must equal the generated ones, and re-encoded answers
/// must reproduce the daemon's bytes.
fn codec(w: &Workload, answers: &BTreeMap<u64, Answer>, report: &mut Report, tracer: &mut Tracer) {
    for (i, (op, body)) in w.ops.iter().zip(&w.bodies).enumerate() {
        let id = i as u64;
        let label = op.kind.label();
        let decoded = tracer.span(&format!("serve.decode.{label}"), id, |_| {
            serde_json::from_str(body)
                .ok()
                .and_then(|v| Request::decode(&v).ok())
        });
        report.check(
            decoded.map(|r| r.encode()).as_deref() == Some(body.as_str()),
            || format!("request {id} does not survive decode"),
        );
        let Some(a) = answers.get(&id) else { continue };
        let v = &a.value;
        let response = match v["type"].as_str() {
            Some("allocated") => Response::Allocated {
                id,
                day: num(&v["day"]) as u32,
                outcome: ProposalOutcome {
                    influence: num(&v["influence"]) as u64,
                    satisfied: v["satisfied"].as_bool().unwrap_or(false),
                    collected: num(&v["collected"]),
                    regret: num(&v["regret"]),
                    billboards: ids(&v["billboards"]).into_iter().map(BillboardId).collect(),
                    expires: num(&v["expires"]) as u32,
                },
                wait_micros: num(&v["wait_micros"]) as u64,
            },
            Some("coverage") => Response::Coverage {
                id,
                influence: num(&v["influence"]) as u64,
                free_total: num(&v["free_total"]) as usize,
            },
            Some("ingested") => Response::Ingested {
                id,
                report: IngestReport {
                    epoch: num(&v["epoch"]) as u64,
                    new_trajectories: num(&v["new_trajectories"]) as usize,
                    new_billboards: num(&v["new_billboards"]) as usize,
                    retired: num(&v["retired"]) as usize,
                    changed_billboards: ids(&v["changed_billboards"]),
                },
            },
            _ => continue,
        };
        let bytes = tracer.span(&format!("serve.encode.{label}"), id, |_| response.encode());
        report.check(bytes.as_bytes() == a.frame.as_slice(), || {
            format!("re-encoded answer to {id} differs from the daemon's bytes")
        });
    }
}

fn ids(v: &Value) -> Vec<u32> {
    match v {
        Value::Array(items) => items.iter().map(|x| num(x) as u32).collect(),
        _ => Vec::new(),
    }
}

/// An error mapper that prefixes `what`.
fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |err| format!("{what}: {err}")
}

/// Checks the replay ledger against the daemon's final `stats`.
fn ledger_gate(what: &str, day: u32, ledger: &Ledger, stats: &Value, report: &mut Report) {
    let ok = f64::from(day) == num(&stats["day"])
        && ledger.total_collected() == num(&stats["collected"])
        && ledger.total_regret() == num(&stats["regret"]);
    println!(
        "  {what} ledger: day {day} collected {} regret {} -> {}",
        ledger.total_collected(),
        ledger.total_regret(),
        if ok {
            "equals the daemon's stats"
        } else {
            "MISMATCH"
        }
    );
    report.check(ok, || {
        format!(
            "{what} ledger (day {day}, collected {}, regret {}) != daemon stats (day {}, collected {}, regret {})",
            ledger.total_collected(),
            ledger.total_regret(),
            num(&stats["day"]),
            num(&stats["collected"]),
            num(&stats["regret"])
        )
    });
}

/// Per-layer metrics shared by both replays, from the recorded spans.
fn span_metrics(report: &mut Report, tracer: &Tracer) {
    let dur = durations_by_name(tracer.spans());
    let own = self_times_by_name(tracer.spans());
    let mut set_us = |metric: &str, span: &str, from: &BTreeMap<String, Vec<u64>>| {
        if let Some(ns) = from.get(span) {
            report.set(metric, median_us(ns));
        }
    };
    set_us("core.day_solve_us", "core.solve", &dur);
    set_us("market.step_self_us", "market.step", &own);
    for op in ["submit", "read", "ingest"] {
        set_us(
            &format!("serve.decode_us.{op}"),
            &format!("serve.decode.{op}"),
            &dur,
        );
        set_us(
            &format!("serve.encode_us.{op}"),
            &format!("serve.encode.{op}"),
            &dur,
        );
    }
    set_us("stream.set_influence_us", "stream.set_influence", &dur);
    set_us("stream.ingest_us", "stream.ingest", &dur);
    set_us("wal.append_us", "wal.append", &dur);
    set_us("wal.sync_us", "wal.sync", &dur);
    for kind in ["run_day", "ingest", "compact"] {
        set_us(
            &format!("replica.apply_us.{kind}"),
            &format!("replica.apply.{kind}"),
            &dur,
        );
    }
    if let Some(ns) = dur.get("stream.compact") {
        report.set("stream.compact_ms", median_us(ns) / 1e3);
        report.set("stream.compactions", ns.len() as f64);
    }
    if let Some(ns) = dur.get("serve.snapshot") {
        report.set("serve.snapshot_ms", median_us(ns) / 1e3);
    }
}

/// Compares the replay's per-day solve+step median with the daemon's.
fn solve_agreement(tracer: &Tracer, stats: &Value, report: &mut Report) {
    let dur = durations_by_name(tracer.spans());
    let Some(steps) = dur.get("market.step") else {
        return;
    };
    let replay = median_us(steps);
    let served = num(&stats["solve"]["p50"]);
    println!("  per-day solve+step median: replay {replay:.1} us, daemon p50 {served} us");
    report.check(
        (replay - served).abs() <= SOLVE_AGREEMENT * served.max(1.0),
        || format!("replay solve+step median {replay:.1} us vs daemon solve p50 {served} us"),
    );
}

/// `serve-heavy`: rebuild the served city, then re-run every served day
/// (batches from each `allocated` answer's `day`, in arrival order) and
/// every coverage read.
pub fn serve_heavy(
    w: &Workload,
    answers: &BTreeMap<u64, Answer>,
    stats: &Value,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let city = tracer.span("datagen.city", 0, |_| {
        city_config(CityKind::Nyc, Scale::Bench).generate()
    });
    let model = Arc::new(tracer.span("influence.coverage", 0, |_| city.coverage(DEFAULT_LAMBDA)));
    tracer.span("influence.precompute", 0, |_| model.precompute());
    let m = model.memory_stats();
    report.set(
        "influence.model_mib",
        (m.total_heap_bytes() + m.total_mapped_bytes()) as f64 / (1 << 20) as f64,
    );
    let dur = durations_by_name(tracer.spans());
    report.set("datagen.city_s", dur["datagen.city"][0] as f64 / 1e9);
    report.set(
        "influence.coverage_s",
        dur["influence.coverage"][0] as f64 / 1e9,
    );
    report.set(
        "influence.precompute_s",
        dur["influence.precompute"][0] as f64 / 1e9,
    );
    let engine = StreamEngine::from_model(
        Arc::clone(&model),
        city.billboards,
        city.trajectories,
        DEFAULT_LAMBDA,
    );

    codec(w, answers, report, tracer);

    let mut days: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (&id, a) in answers {
        if a.value["type"].as_str() == Some("allocated") {
            days.entry(num(&a.value["day"]) as u32)
                .or_default()
                .push(id);
        }
    }
    let solver = TimedSolver::new(&HostConfig::default().solver);
    let mut sim = MarketSim::new(&model);
    let mut ledger = Ledger::default();
    for (expected, (&day, ids)) in days.iter().enumerate() {
        if day as usize != expected {
            report.fail(format!("served days skip from {expected} to {day}"));
            return;
        }
        let proposals: Vec<_> = ids.iter().map(|id| w.proposals[id]).collect();
        let outcome = step_day(&mut sim, day, &proposals, &solver, ids[0], tracer);
        for (id, out) in ids.iter().zip(&outcome.outcomes) {
            let v = &answers[id].value;
            report.check(
                num(&v["influence"]) as u64 == out.influence && num(&v["regret"]) == out.regret,
                || format!("replayed allocation of submit {id} differs from the served one"),
            );
        }
        ledger.days.push(outcome.record);
    }
    ledger_gate("replay", days.len() as u32, &ledger, stats, report);
    solve_agreement(tracer, stats, report);

    for (&id, set) in &w.reads {
        let influence = tracer.span("stream.set_influence", id, |_| engine.set_influence(set));
        if let Some(a) = answers.get(&id) {
            report.check(num(&a.value["influence"]) as u64 == influence, || {
                format!(
                    "read {id}: served influence {} but replay {influence}",
                    num(&a.value["influence"])
                )
            });
        }
    }
    span_metrics(report, tracer);
}

/// `durable-mixed`: replay the daemon's own WAL from the genesis snapshot
/// through `ReplayWorld` (the follower's work per record), a direct
/// `StreamEngine` + `MarketSim` pair (stream and market/core split), and
/// a fresh `SharedWal` under the same sync policy (append/sync cost).
#[allow(clippy::too_many_arguments)]
pub fn durable(
    w: &Workload,
    answers: &BTreeMap<u64, Answer>,
    stats: &Value,
    wal_dir: &Path,
    genesis: &Path,
    work: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    use mroam_wal::state::{
        decode, encode, list_snapshots, read_snapshot_file, write_snapshot_file,
    };
    let genesis_seq: u64 = genesis
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix("genesis-"))
        .and_then(|s| s.parse().ok())
        .ok_or("genesis snapshot name")?;
    let text = read_snapshot_file(genesis).map_err(ctx("genesis snapshot"))?;
    let mut world = ReplayWorld::from_restored(decode(&text).map_err(ctx("genesis decode"))?);
    let direct = decode(&text).map_err(ctx("genesis decode"))?;
    let config = direct.config.clone();
    let mut lock: LockState = direct.seed.lock.clone();
    let mut engine = direct
        .stream
        .ok_or("genesis snapshot is not streaming")?
        .into_engine(Arc::new(direct.model));

    // The recovery a restart performs, timed in-process on the final dir.
    let t = Instant::now();
    let (_, recovered) = mroam_wal::recover(wal_dir).map_err(ctx("recover"))?;
    report.set("wal.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    report.check(f64::from(recovered.day) == num(&stats["day"]), || {
        format!(
            "recover() reached day {}, daemon day {}",
            recovered.day,
            num(&stats["day"])
        )
    });
    if let Some((_, newest)) = list_snapshots(wal_dir)
        .map_err(ctx("list snapshots"))?
        .last()
    {
        let bytes = std::fs::metadata(newest).map_or(0, |m| m.len());
        report.set("wal.snapshot_kib", bytes as f64 / 1024.0);
    }

    let records = WalReader::open(wal_dir)
        .and_then(|r| r.records_after(genesis_seq))
        .map_err(ctx("read wal"))?;
    let shadow_dir = work.join("wal-shadow");
    let shadow = SharedWal::open(
        &shadow_dir,
        WalOptions {
            sync: SyncPolicy::PerRecord,
            ..WalOptions::default()
        },
    )
    .map_err(ctx("shadow wal"))?;
    let solver = TimedSolver::new(&config.solver);
    let mut ledger = direct.seed.ledger.clone();
    let mut days_since_snapshot = 0;
    for (seq, record) in &records {
        let seq = *seq;
        tracer
            .span("wal.append", seq, |_| shadow.append(record))
            .map_err(ctx("shadow append"))?;
        tracer
            .span("wal.sync", seq, |_| shadow.batch_boundary())
            .map_err(ctx("shadow sync"))?;
        let kind = record.kind();
        tracer
            .span(&format!("replica.apply.{kind}"), seq, |_| {
                world.apply(seq, record)
            })
            .map_err(ctx("replay"))?;
        match record {
            WalRecord::Ingest { batch, .. } => {
                let _ = tracer.span("stream.ingest", seq, |_| engine.ingest(batch));
            }
            WalRecord::Compact { .. } => {
                tracer.span("stream.compact", seq, |_| engine.compact());
                lock = std::mem::take(&mut lock).resized(engine.model().n_billboards());
            }
            WalRecord::RunDay { day, proposals } => {
                let model = Arc::clone(engine.model());
                let mut sim = MarketSim::with_lock_state(&model, std::mem::take(&mut lock));
                let outcome = step_day(&mut sim, *day, proposals, &solver, seq, tracer);
                ledger.days.push(outcome.record);
                lock = sim.lock_state();
                days_since_snapshot += 1;
                if days_since_snapshot == 8 {
                    days_since_snapshot = 0;
                    let host = Host::resume(
                        &model,
                        config.clone(),
                        mroam_market::HostSeed {
                            day: *day + 1,
                            lock: lock.clone(),
                            ledger: ledger.clone(),
                        },
                    );
                    let snap_dir = work.join("snap-shadow");
                    std::fs::create_dir_all(&snap_dir).map_err(ctx("snapshot dir"))?;
                    tracer
                        .span("serve.snapshot", seq, |_| {
                            write_snapshot_file(&snap_dir, seq, &encode(&host, Some(&engine)))
                        })
                        .map_err(ctx("shadow snapshot"))?;
                }
            }
            WalRecord::SnapshotMark { .. } => {}
        }
    }
    ledger_gate("WAL replay", world.day(), world.ledger(), stats, report);
    ledger_gate(
        "direct replay",
        ledger.days.len() as u32,
        &ledger,
        stats,
        report,
    );
    report.check(
        world.engine().map(|e| e.epoch()) == Some(engine.epoch()),
        || "direct stream engine and the WAL replay end at different epochs".into(),
    );
    for (&id, set) in &w.reads {
        tracer.span("stream.set_influence", id, |_| engine.set_influence(set));
    }
    codec(w, answers, report, tracer);
    span_metrics(report, tracer);
    Ok(())
}
