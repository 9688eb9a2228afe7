//! The served workloads: the real `mroam-served` (plus one
//! `mroam-follower` for `durable-mixed`) over loopback, driven by a
//! single-process open-loop load generator.
//!
//! The generator uses two threads and two connections. The main thread
//! paces the whole schedule and, while it waits for the next due time,
//! receives on the read connection; a second thread receives on the write
//! connection. Latency is timed from each request's scheduled send time.

use crate::conn::{parse, wait_readable, FrameConn};
use crate::procs::{first_stats, Daemon};
use crate::replay;
use crate::report::Report;
use crate::schedule::{self, Op, OpKind};
use crate::stats::{median, percentile_label, Dist, Windowed};
use crate::trace::Tracer;
use mroam_experiments::setup::{city_config, CityKind, Scale};
use mroam_market::Proposal;
use mroam_serve::protocol::Request;
use mroam_stream::{IngestBatch, TrajectoryDelta};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `serve-heavy`: NYC bench scale, G-Global, no WAL; solve-bound.
    Heavy,
    /// `durable-mixed`: NYC test scale, streaming, per-record fsync,
    /// replication feed and one follower; logging- and transport-bound.
    Durable,
}

/// The regret model's γ the daemons serve with (their default).
pub const GAMMA: f64 = 0.5;
/// Average proposal demand as a share of the served city's supply.
const P_AVG: f64 = 0.05;
/// Trajectories per ingest batch.
const INGEST_TRAJECTORIES: usize = 8;
/// Billboards per coverage read.
const READ_SET: usize = 4;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Equal time windows a run's latencies are summarised over.
const WINDOWS: usize = 10;
/// WAL segment size: large enough that no segment is ever pruned within
/// a run, so the traced replay can read the whole log.
const WAL_SEGMENT_KB: &str = "1048576";
/// Request ids at or above this are control traffic, not schedule ops.
const CONTROL_ID: u64 = 1 << 40;
/// Lag probes to the leader carry `LEADER_PROBE + k`, to the follower
/// `FOLLOWER_PROBE + k`, for the k-th probe.
const LEADER_PROBE: u64 = CONTROL_ID + (1 << 20);
const FOLLOWER_PROBE: u64 = CONTROL_ID + (2 << 20);

/// Paths of the daemon binaries.
pub struct Bins {
    /// `mroam-served`.
    pub served: PathBuf,
    /// `mroam-follower`.
    pub follower: PathBuf,
}

struct Plan {
    scale: &'static str,
    writes_per_sec: f64,
    ingest_every: usize,
    reads_per_sec: f64,
}

fn plan(mode: Mode) -> Plan {
    match mode {
        Mode::Heavy => Plan {
            scale: "bench",
            writes_per_sec: 200.0,
            ingest_every: 0,
            reads_per_sec: 75.0,
        },
        Mode::Durable => Plan {
            scale: "test",
            writes_per_sec: 200.0,
            ingest_every: 10,
            // Under 200 reads per window, so the read tail is each
            // window's p90: a follower read's p95 sits at the edge of the
            // host's scheduling stalls and jumps between runs.
            reads_per_sec: 75.0,
        },
    }
}

fn leader_args(mode: Mode, wal_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--city",
        "nyc",
        "--scale",
        plan(mode).scale,
        "--algo",
        "g-global",
    ]
    .map(String::from)
    .to_vec();
    if let Some(dir) = wal_dir {
        args.extend(
            [
                "--wal-dir",
                dir.to_str().expect("utf-8 path"),
                "--wal-sync",
                "record",
                "--snapshot-every",
                "8",
                "--wal-segment-kb",
                WAL_SEGMENT_KB,
                "--replica-addr",
                "127.0.0.1:0",
            ]
            .map(String::from),
        );
    }
    args
}

/// A started leader (and follower).
struct Cluster {
    leader: Daemon,
    addr: SocketAddr,
    control: FrameConn,
    follower: Option<(Daemon, SocketAddr)>,
    catch_up_micros: f64,
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn stats_of(conn: &mut FrameConn, what: &str) -> Result<Value, String> {
    let v = conn
        .call(
            &format!("{{\"type\":\"stats\",\"id\":{CONTROL_ID}}}"),
            Duration::from_secs(30),
        )
        .map_err(|e| format!("stats from {what}: {e}"))?;
    Ok(v["stats"].clone())
}

fn start_leader(
    mode: Mode,
    bins: &Bins,
    work: &Path,
    wal_dir: Option<&Path>,
    tag: &str,
) -> Result<(Daemon, SocketAddr, Option<SocketAddr>), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut leader = Daemon::spawn(
        "mroam-served",
        &bins.served,
        &leader_args(mode, wal_dir),
        &work.join(format!("leader-{tag}.log")),
    )?;
    let addr = leader.addr_line("", deadline, "leader startup")?;
    let feed = match wal_dir {
        Some(_) => Some(leader.addr_line("replica ", deadline, "leader replication feed")?),
        None => None,
    };
    Ok((leader, addr, feed))
}

/// Starts the daemons and waits until they serve: the leader's first
/// `stats` answer, and for `durable-mixed` the follower caught up.
fn start(
    mode: Mode,
    bins: &Bins,
    work: &Path,
    attempt: usize,
) -> Result<(Cluster, f64, Option<PathBuf>), String> {
    let wal_dir = (mode == Mode::Durable).then(|| work.join(format!("wal-{attempt}")));
    let started = Instant::now();
    let (leader, addr, feed) =
        start_leader(mode, bins, work, wal_dir.as_deref(), &attempt.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut control, _) = first_stats(addr, deadline, "leader first stats")?;
    let mut follower = None;
    let mut catch_up_micros = 0.0;
    if let Some(feed) = feed {
        let mut f = Daemon::spawn(
            "mroam-follower",
            &bins.follower,
            &[
                "--leader".to_string(),
                feed.to_string(),
                "--leader-cmd".to_string(),
                addr.to_string(),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
            ],
            &work.join(format!("follower-{attempt}.log")),
        )?;
        let faddr = f.addr_line("", deadline, "follower startup")?;
        let (mut fc, _) = first_stats(faddr, deadline, "follower first stats")?;
        loop {
            let head = num(&stats_of(&mut control, "leader")?["wal_durable_seq"]);
            let fs = stats_of(&mut fc, "follower")?;
            if num(&fs["repl_snapshots_received"]) >= 1.0 && num(&fs["repl_applied_seq"]) >= head {
                catch_up_micros = num(&fs["repl_catch_up_micros"]);
                break;
            }
            if Instant::now() > deadline {
                return Err("stage 'follower catch-up' hung".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
        follower = Some((f, faddr));
    }
    let setup = started.elapsed().as_secs_f64();
    // The genesis snapshot is pruned once later snapshots land; keep a
    // copy so the traced replay can start from day 0.
    let genesis = match &wal_dir {
        Some(dir) => {
            let snaps = mroam_wal::state::list_snapshots(dir)
                .map_err(|e| format!("listing snapshots: {e}"))?;
            let (seq, path) = snaps.first().ok_or("no genesis snapshot")?;
            let copy = work.join(format!("genesis-{seq}.snap"));
            std::fs::copy(path, &copy).map_err(|e| format!("copying genesis snapshot: {e}"))?;
            Some(copy)
        }
        None => None,
    };
    Ok((
        Cluster {
            leader,
            addr,
            control,
            follower,
            catch_up_micros,
        },
        setup,
        genesis,
    ))
}

/// The generated requests of one run.
pub struct Workload {
    /// The merged schedule; a request's id is its index here.
    pub ops: Vec<Op>,
    /// Encoded request frames, parallel to `ops`.
    pub bodies: Vec<String>,
    /// Submitted proposals by op index.
    pub proposals: BTreeMap<u64, Proposal>,
    /// Read sets by op index.
    pub reads: BTreeMap<u64, Vec<u32>>,
}

/// Draws every request of the run from the seed. Demand is sized from the
/// served city's supply; ingest trajectories come from the city generator
/// under the workload seed.
fn generate(mode: Mode, seed: u64, seconds: f64, supply: u64, n_billboards: u32) -> Workload {
    let p = plan(mode);
    let ops = schedule::build(
        seed,
        seconds,
        p.writes_per_sec,
        p.ingest_every,
        p.reads_per_sec,
    );
    let n_ingests = ops.iter().filter(|o| o.kind == OpKind::Ingest).count();
    let mut trips = Vec::new();
    if n_ingests > 0 {
        let mut cfg = city_config(CityKind::Nyc, Scale::Test);
        cfg.set_seed(seed);
        cfg.set_trajectories(n_ingests * INGEST_TRAJECTORIES);
        trips = cfg
            .generate()
            .trajectories
            .iter()
            .map(|t| TrajectoryDelta {
                points: t.points.to_vec(),
                timestamps: t.timestamps.to_vec(),
            })
            .collect::<Vec<_>>();
    }
    let mut trips = trips.into_iter();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB1D5);
    let mut w = Workload {
        ops: Vec::new(),
        bodies: Vec::new(),
        proposals: BTreeMap::new(),
        reads: BTreeMap::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let req = match op.kind {
            OpKind::Submit => {
                let omega: f64 = rng.gen_range(0.8..1.2);
                let demand = ((omega * P_AVG * supply as f64) as u64).max(1);
                let eps: f64 = rng.gen_range(0.9..1.1);
                let proposal = Proposal {
                    demand,
                    payment: (eps * demand as f64).floor().max(1.0),
                    duration_days: rng.gen_range(1..=3u32),
                    zone: None,
                };
                w.proposals.insert(id, proposal);
                Request::Submit { id, proposal }
            }
            OpKind::Read => {
                let set: Vec<u32> = (0..READ_SET)
                    .map(|_| rng.gen_range(0..n_billboards))
                    .collect();
                w.reads.insert(id, set.clone());
                Request::QueryCoverage {
                    id,
                    billboards: set,
                }
            }
            OpKind::Ingest => Request::Ingest {
                id,
                batch: IngestBatch {
                    billboard_events: Vec::new(),
                    trajectories: trips.by_ref().take(INGEST_TRAJECTORIES).collect(),
                },
            },
        };
        w.bodies.push(req.encode());
    }
    w.ops = ops;
    w
}

/// Frames stamped with their arrival instant.
type Stamped = Vec<(Instant, Vec<u8>)>;

/// What the generator saw.
pub struct Observed {
    /// When the schedule's clock started.
    pub start: Instant,
    /// Actual send instant per op.
    pub sent: Vec<Instant>,
    /// Frames received on the write connection.
    pub writes: Stamped,
    /// Frames received on the read connection.
    pub reads: Stamped,
}

/// Plays the schedule: writes to `write_addr`, reads to `read_addr`.
/// With `lag_probe`, a `stats` request goes to both sides every second
/// (the traced run samples follower lag this way). The main thread sends
/// on time with precise sleeps; one receiver thread waits on both
/// connections with `poll(2)` and stamps each answer as it lands.
fn play(
    w: &Workload,
    write_addr: SocketAddr,
    read_addr: SocketAddr,
    lag_probe: bool,
) -> Result<Observed, String> {
    let err = |e: std::io::Error| format!("load generator: {e}");
    let mut write_conn = FrameConn::connect(write_addr).map_err(err)?;
    let mut read_conn = FrameConn::connect(read_addr).map_err(err)?;
    let mut write_rx = write_conn.try_clone().map_err(err)?;
    let mut read_rx = read_conn.try_clone().map_err(err)?;
    let n_writes = w.ops.iter().filter(|o| o.kind != OpKind::Read).count();
    let n_reads = w.ops.len() - n_writes;
    let last_due = w.ops.last().map_or(Duration::ZERO, |o| o.at);
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + last_due + Duration::from_secs(60);
    let probes = Arc::new(AtomicUsize::new(0));
    let sending = Arc::new(AtomicBool::new(true));
    let receiver = {
        let (probes, sending) = (Arc::clone(&probes), Arc::clone(&sending));
        thread::spawn(move || -> Result<[Stamped; 2], String> {
            let fds = [write_rx.raw_fd(), read_rx.raw_fd()];
            let mut got = [Vec::with_capacity(n_writes), Vec::with_capacity(n_reads)];
            let mut frames = Vec::new();
            loop {
                let p = probes.load(Ordering::SeqCst);
                let want = [n_writes + p, n_reads + p];
                let done = !sending.load(Ordering::SeqCst);
                if done && got[0].len() >= want[0] && got[1].len() >= want[1] {
                    return Ok(got);
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "stage 'drain answers' hung: {} of {} writes and {} of {} reads answered",
                        got[0].len(),
                        want[0],
                        got[1].len(),
                        want[1]
                    ));
                }
                let ready = wait_readable(&fds, Duration::from_millis(100))
                    .map_err(|e| format!("load generator poll: {e}"))?;
                let now = Instant::now();
                for (k, conn) in [&mut write_rx, &mut read_rx].into_iter().enumerate() {
                    if !ready[k] {
                        continue;
                    }
                    let open = conn
                        .drain_ready(&mut frames)
                        .map_err(|e| format!("load generator receive: {e}"))?;
                    got[k].extend(frames.drain(..).map(|f| (now, f)));
                    if !open {
                        return Err("the server closed a load-generator connection".into());
                    }
                }
            }
        })
    };
    let mut sent = Vec::with_capacity(w.ops.len());
    let mut next_probe = start + Duration::from_secs(1);
    let mut failure = None;
    for (op, body) in w.ops.iter().zip(&w.bodies) {
        let due = start + op.at;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        sent.push(Instant::now());
        let conn = if op.kind == OpKind::Read {
            &mut read_conn
        } else {
            &mut write_conn
        };
        if let Err(e) = conn.send(body.as_bytes()) {
            failure = Some(err(e));
            break;
        }
        if lag_probe && Instant::now() >= next_probe {
            let k = probes.fetch_add(1, Ordering::SeqCst) as u64 + 1;
            let stats = |id: u64| format!("{{\"type\":\"stats\",\"id\":{id}}}");
            let sent_probe = write_conn
                .send(stats(LEADER_PROBE + k).as_bytes())
                .and_then(|()| read_conn.send(stats(FOLLOWER_PROBE + k).as_bytes()));
            if let Err(e) = sent_probe {
                failure = Some(err(e));
                break;
            }
            next_probe += Duration::from_secs(1);
        }
    }
    sending.store(false, Ordering::SeqCst);
    let joined = receiver
        .join()
        .map_err(|_| "load-generator receiver panicked".to_string())?;
    if let Some(f) = failure {
        return Err(f);
    }
    let [writes, reads] = joined?;
    Ok(Observed {
        start,
        sent,
        writes,
        reads,
    })
}

/// One answered request.
pub struct Answer {
    /// Receive instant.
    pub at: Instant,
    /// Raw frame.
    pub frame: Vec<u8>,
    /// Parsed frame.
    pub value: Value,
}

/// Pairs answers with requests by id; every request must be answered
/// exactly once with its own response type. Returns answers by op index
/// and the control answers (lag probes).
fn pair(w: &Workload, obs: Observed, report: &mut Report) -> (BTreeMap<u64, Answer>, Vec<Value>) {
    let mut answers: BTreeMap<u64, Answer> = BTreeMap::new();
    let mut control = Vec::new();
    for (at, frame) in obs.writes.into_iter().chain(obs.reads) {
        let value = match parse(&frame) {
            Ok(v) => v,
            Err(e) => {
                report.fail(format!("unparseable answer: {e}"));
                continue;
            }
        };
        let id = num(&value["id"]) as u64;
        if id >= CONTROL_ID {
            control.push(value);
            continue;
        }
        if answers.contains_key(&id) {
            report.fail(format!("request {id} answered twice"));
            continue;
        }
        answers.insert(id, Answer { at, frame, value });
    }
    for (i, op) in w.ops.iter().enumerate() {
        report.attempted += 1;
        let want = match op.kind {
            OpKind::Submit => "allocated",
            OpKind::Read => "coverage",
            OpKind::Ingest => "ingested",
        };
        match answers.get(&(i as u64)) {
            Some(a) if a.value["type"].as_str() == Some(want) => {}
            Some(a) => {
                report.failed += 1;
                report.fail(format!(
                    "{} {i} got {}",
                    op.kind.label(),
                    String::from_utf8_lossy(&a.frame)
                ));
            }
            None => {
                report.failed += 1;
                report.fail(format!("{} {i} was never answered", op.kind.label()));
            }
        }
    }
    (answers, control)
}

/// Checks every allocation: its regret recomputes from its influence, and
/// no billboard is handed out while an earlier contract still locks it.
fn check_allocations(w: &Workload, answers: &BTreeMap<u64, Answer>, report: &mut Report) {
    let mut allocated: Vec<(u32, u64)> = answers
        .iter()
        .filter(|(_, a)| a.value["type"].as_str() == Some("allocated"))
        .map(|(&id, a)| (num(&a.value["day"]) as u32, id))
        .collect();
    allocated.sort_unstable();
    let mut locked_until: BTreeMap<u32, u32> = BTreeMap::new();
    for (day, id) in allocated {
        let v = &answers[&id].value;
        let p = &w.proposals[&id];
        let influence = num(&v["influence"]) as u64;
        let expected = mroam_core::regret(&p.advertiser(), influence, GAMMA);
        report.check(expected == num(&v["regret"]), || {
            format!(
                "submit {id}: regret {} but recomputed {expected}",
                num(&v["regret"])
            )
        });
        let expires = num(&v["expires"]) as u32;
        report.check(expires == day + p.duration_days, || {
            format!(
                "submit {id}: expires {expires}, expected day {day} + {}",
                p.duration_days
            )
        });
        if let Value::Array(boards) = &v["billboards"] {
            for b in boards {
                let b = num(b) as u32;
                if let Some(&until) = locked_until.get(&b) {
                    report.check(until <= day, || {
                        format!("billboard {b} allocated on day {day} while locked until {until}")
                    });
                }
                locked_until.insert(b, expires);
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `(scheduled time s, latency ms)` of every answered op of `kind` that
/// succeeded, latency timed from the scheduled send time; failed ones are
/// excluded here and counted as failed already.
fn latencies(
    w: &Workload,
    start: Instant,
    answers: &BTreeMap<u64, Answer>,
    kind: OpKind,
) -> Vec<(f64, f64)> {
    w.ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.kind == kind)
        .filter_map(|(i, o)| {
            let a = answers.get(&(i as u64))?;
            let ok = !matches!(a.value["type"].as_str(), Some("error") | Some("redirect"));
            ok.then(|| {
                (
                    o.at.as_secs_f64(),
                    ms(a.at.saturating_duration_since(start + o.at)),
                )
            })
        })
        .collect()
}

/// Records the windowed median and tail of `samples` (each the fastest
/// window's) as `p50`/`tail`,
/// or the whole-run figures when the windows are too small to carry a
/// tail above the median, and prints both.
fn set_dist(
    report: &mut Report,
    p50: &str,
    tail: &str,
    label: &str,
    samples: &[(f64, f64)],
    seconds: f64,
) {
    let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    let Some(whole) = Dist::of(&values) else {
        return;
    };
    print!(
        "  {label}: n={} p50 {:.4} ms {} {:.4} ms",
        whole.n,
        whole.p50,
        whole.tail_label(),
        whole.tail
    );
    match Windowed::of(samples, seconds, WINDOWS).filter(|w| w.tail_q > 0.5) {
        Some(win) => {
            println!(
                "; fastest of {WINDOWS} windows: p50 {:.4} ms {} {:.4} ms",
                win.p50,
                percentile_label(win.tail_q),
                win.tail
            );
            report.set(p50, win.p50);
            report.set(tail, win.tail);
        }
        None => {
            println!(" (too few per window: whole-run figures reported)");
            report.set(p50, whole.p50);
            report.set(tail, whole.tail);
        }
    }
}

/// Waits until the follower has applied the leader's (quiescent) head,
/// then requires byte-identical coverage answers and equal ledger fields.
fn check_follower(
    cluster: &mut Cluster,
    n_billboards: u32,
    report: &mut Report,
) -> Result<(), String> {
    let (_, faddr) = cluster.follower.as_ref().expect("durable cluster");
    let mut fc = FrameConn::connect(*faddr).map_err(|e| format!("follower: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let head = loop {
        let head = num(&stats_of(&mut cluster.control, "leader")?["wal_next_seq"]) - 1.0;
        let applied = num(&stats_of(&mut fc, "follower")?["repl_applied_seq"]);
        let again = num(&stats_of(&mut cluster.control, "leader")?["wal_next_seq"]) - 1.0;
        if applied >= head && again == head {
            break head;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "stage 'follower convergence' hung: applied {applied}, leader head {head}"
            ));
        }
        thread::sleep(Duration::from_millis(2));
    };
    let n = n_billboards;
    let sets: Vec<Vec<u32>> = vec![(0..n.min(8)).collect(), vec![0], vec![n / 2], vec![n - 1]];
    for (k, set) in sets.into_iter().enumerate() {
        let req = Request::QueryCoverage {
            id: CONTROL_ID + 100 + k as u64,
            billboards: set.clone(),
        }
        .encode();
        let mut frames = Vec::new();
        for conn in [&mut cluster.control, &mut fc] {
            conn.send(req.as_bytes()).map_err(|e| e.to_string())?;
            frames.push(
                conn.recv(Some(Duration::from_secs(30)))
                    .map_err(|e| e.to_string())?
                    .ok_or("no coverage answer")?,
            );
        }
        report.check(frames[0] == frames[1], || {
            format!(
                "coverage of {set:?} at seq {head}: leader {} follower {}",
                String::from_utf8_lossy(&frames[0]),
                String::from_utf8_lossy(&frames[1])
            )
        });
    }
    let l = stats_of(&mut cluster.control, "leader")?;
    let f = stats_of(&mut fc, "follower")?;
    for field in ["day", "locked", "free", "collected", "regret"] {
        report.check(num(&l[field]) == num(&f[field]), || {
            format!(
                "stats {field} at seq {head}: leader {} follower {}",
                num(&l[field]),
                num(&f[field])
            )
        });
    }
    Ok(())
}

/// Sums each billboard's own influence (the supply `I*` proposals are
/// sized against) with one coverage read per billboard. The reads are
/// pipelined: the leader's replies are small writes that can sit behind
/// a delayed ACK, so one-at-a-time calls would cost a timer tick each.
fn supply_of(control: &mut FrameConn, n_billboards: u32) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("supply read: {e}");
    for b in 0..n_billboards {
        let req = Request::QueryCoverage {
            id: CONTROL_ID + 1000 + u64::from(b),
            billboards: vec![b],
        }
        .encode();
        control.send(req.as_bytes()).map_err(err)?;
    }
    let mut supply = 0u64;
    for _ in 0..n_billboards {
        let frame = control
            .recv(Some(Duration::from_secs(30)))
            .map_err(err)?
            .ok_or("supply read: no answer in time")?;
        supply += num(&parse(&frame).map_err(err)?["influence"]) as u64;
    }
    Ok(supply)
}

/// Runs one served workload.
#[allow(clippy::too_many_arguments)]
pub fn run(
    mode: Mode,
    bins: &Bins,
    work: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let t_run = Instant::now();
    // Set-up, several times; the last cluster serves the run.
    let mut setups = Vec::new();
    let mut cluster = None;
    let mut genesis = None;
    for attempt in 0..SETUPS {
        if let Some(mut old) = cluster.take() {
            stop(&mut old);
        }
        let (c, secs, g) = start(mode, bins, work, attempt)?;
        setups.push(secs);
        cluster = Some(c);
        genesis = g;
    }
    let mut cluster = cluster.expect("at least one set-up");
    report.set("setup_s", median(&setups));
    report.set("replica.catch_up_ms", cluster.catch_up_micros / 1e3);

    let first = stats_of(&mut cluster.control, "leader")?;
    let n_billboards = (num(&first["locked"]) + num(&first["free"])) as u32;
    let supply = supply_of(&mut cluster.control, n_billboards)?;
    let w = generate(mode, seed, seconds as f64, supply, n_billboards);
    println!(
        "{}: {} ops over {seconds} s against {} ({} billboards, supply {supply})",
        match mode {
            Mode::Heavy => "serve-heavy",
            Mode::Durable => "durable-mixed",
        },
        w.ops.len(),
        cluster.addr,
        n_billboards
    );

    let t_load = Instant::now();
    eprintln!(
        "phase: set-up and inputs {:.2} s",
        (t_load - t_run).as_secs_f64()
    );
    let read_addr = cluster.follower.as_ref().map_or(cluster.addr, |(_, a)| *a);
    let obs = play(&w, cluster.addr, read_addr, traced && mode == Mode::Durable)?;
    let start_instant = obs.start;
    eprintln!("phase: load {:.2} s", t_load.elapsed().as_secs_f64());
    let late: Vec<f64> = w
        .ops
        .iter()
        .zip(&obs.sent)
        .map(|(o, s)| ms(s.saturating_duration_since(start_instant + o.at)))
        .collect();
    let (answers, control) = pair(&w, obs, report);
    check_allocations(&w, &answers, report);
    if let Some(d) = Dist::of(&late) {
        report.set("loadgen.late_ms", d.tail);
        println!(
            "  loadgen late: p50 {:.4} ms {} {:.4} ms",
            d.p50,
            d.tail_label(),
            d.tail
        );
    }
    let span = seconds as f64;
    let submits = latencies(&w, start_instant, &answers, OpKind::Submit);
    set_dist(
        report,
        "alloc_p50_ms",
        "alloc_tail_ms",
        "submit",
        &submits,
        span,
    );
    let reads = latencies(&w, start_instant, &answers, OpKind::Read);
    set_dist(report, "read_p50_ms", "read_tail_ms", "read", &reads, span);
    if mode == Mode::Durable {
        let ingests = latencies(&w, start_instant, &answers, OpKind::Ingest);
        set_dist(
            report,
            "client.ingest_p50_ms",
            "client.ingest_tail_ms",
            "ingest",
            &ingests,
            span,
        );
    }
    // Pair each second's leader durable seq with the follower's applied
    // seq sampled at (nearly) the same moment.
    let mut heads: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for v in control
        .iter()
        .filter(|v| v["type"].as_str() == Some("stats"))
    {
        let id = num(&v["id"]) as u64;
        if id >= FOLLOWER_PROBE {
            heads.entry(id - FOLLOWER_PROBE).or_default().1 = num(&v["stats"]["repl_applied_seq"]);
        } else if id >= LEADER_PROBE {
            heads.entry(id - LEADER_PROBE).or_default().0 = num(&v["stats"]["wal_durable_seq"]);
        }
    }
    let lags: Vec<f64> = heads
        .values()
        .map(|&(leader, follower)| (leader - follower).max(0.0))
        .collect();
    if !lags.is_empty() {
        report.set("replica.lag_seqs", median(&lags));
    }

    let waits: Vec<f64> = answers
        .values()
        .filter(|a| a.value["type"].as_str() == Some("allocated"))
        .map(|a| num(&a.value["wait_micros"]))
        .collect();
    let satisfied = answers
        .values()
        .filter(|a| a.value["satisfied"].as_bool() == Some(true))
        .count();
    if !waits.is_empty() {
        report.set("serve.queue_wait_us", median(&waits));
        report.set(
            "market.satisfied_ratio",
            satisfied as f64 / waits.len() as f64,
        );
    }

    if mode == Mode::Durable {
        check_follower(&mut cluster, n_billboards, report)?;
    }
    let stats = stats_of(&mut cluster.control, "leader")?;
    report.check(num(&stats["submits"]) == w.proposals.len() as f64, || {
        format!(
            "leader saw {} submits, sent {}",
            num(&stats["submits"]),
            w.proposals.len()
        )
    });
    if let Some(rss) = crate::peak_rss_mib(Some(cluster.leader.pid())) {
        report.set("peak_rss_mb", rss);
    }
    let server_p50 = num(&stats["latency"]["p50"]);
    report.set("serve.server_p50_us", server_p50);
    report.set("serve.server_p99_us", num(&stats["latency"]["p99"]));
    report.set("market.batch_size", num(&stats["mean_batch"]));
    let submit_ms: Vec<f64> = submits.iter().map(|&(_, v)| v).collect();
    if let Some(d) = Dist::of(&submit_ms) {
        report.set("client.submit_p50_ms", d.p50);
        report.set("serve.unattributed_us", d.p50 * 1e3 - server_p50);
    }
    let records = num(&stats["wal_records"]);
    if records > 0.0 {
        report.set("wal.fsyncs_per_record", num(&stats["wal_fsyncs"]) / records);
        report.set("wal.bytes_per_record", num(&stats["wal_bytes"]) / records);
    }
    println!(
        "  server: day {} batches {} mean batch {:.2} latency p50 {} us p99 {} us solve p50 {} us; wal records {} fsyncs {}",
        num(&stats["day"]),
        num(&stats["batches"]),
        num(&stats["mean_batch"]),
        num(&stats["latency"]["p50"]),
        num(&stats["latency"]["p99"]),
        num(&stats["solve"]["p50"]),
        num(&stats["wal_records"]),
        num(&stats["wal_fsyncs"]),
    );

    eprintln!(
        "phase: checks done at {:.2} s",
        t_run.elapsed().as_secs_f64()
    );
    match mode {
        Mode::Heavy => {
            if traced {
                replay::serve_heavy(&w, &answers, &stats, report, tracer);
            }
            stop(&mut cluster);
            eprintln!("phase: stopped at {:.2} s", t_run.elapsed().as_secs_f64());
        }
        Mode::Durable => {
            let wal_dir = work.join(format!("wal-{}", SETUPS - 1));
            cluster.leader.kill();
            if traced {
                replay::durable(
                    &w,
                    &answers,
                    &stats,
                    &wal_dir,
                    genesis.as_deref().expect("durable genesis"),
                    work,
                    report,
                    tracer,
                )?;
            }
            // Restart on the same WAL dir: the recovered leader must
            // report the pre-kill ledger.
            report.attempted += 1;
            let t = Instant::now();
            let (restarted, addr, _) = start_leader(mode, bins, work, Some(&wal_dir), "restart")?;
            let (mut rc, first) = first_stats(
                addr,
                Instant::now() + Duration::from_secs(120),
                "leader recovery",
            )?;
            let recovery = t.elapsed().as_secs_f64();
            report.set("client.recovery_s", recovery);
            println!("  recovery_s = {recovery:.4} s");
            let after = &first["stats"];
            for field in ["day", "collected", "regret"] {
                if num(&after[field]) != num(&stats[field]) {
                    report.failed += 1;
                    report.fail(format!(
                        "recovered {field} {} != pre-kill {}",
                        num(&after[field]),
                        num(&stats[field])
                    ));
                }
            }
            let _ = rc.send(format!("{{\"type\":\"shutdown\",\"id\":{CONTROL_ID}}}").as_bytes());
            let mut restarted = restarted;
            restarted.wait_or_kill(Duration::from_secs(10));
            stop(&mut cluster);
        }
    }
    Ok(())
}

/// Asks every daemon of the cluster to shut down, killing any that does
/// not exit promptly.
fn stop(cluster: &mut Cluster) {
    let bye = format!("{{\"type\":\"shutdown\",\"id\":{}}}", CONTROL_ID + 7);
    if let Some((f, faddr)) = cluster.follower.as_mut() {
        if let Ok(mut c) = FrameConn::connect(*faddr) {
            let _ = c.send(bye.as_bytes());
        }
        f.wait_or_kill(Duration::from_secs(10));
    }
    let _ = cluster.control.send(bye.as_bytes());
    cluster.leader.wait_or_kill(Duration::from_secs(10));
}
