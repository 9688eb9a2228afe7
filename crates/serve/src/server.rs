//! The TCP serving loop.
//!
//! Thread architecture (std only, no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ per-connection reader ──Incoming──▶ command loop
//!                        per-connection writer ◀──String────┘   (owns Host)
//! ```
//!
//! * The **acceptor** polls a non-blocking listener and spawns a reader
//!   and writer thread per connection.
//! * Each **reader** decodes frames into [`Request`]s and forwards them —
//!   tagged with its connection's reply channel — over one shared mpsc
//!   into the command loop. Malformed frames are answered directly with
//!   an `error` response and do not reach the loop.
//! * The **command loop** is the *single writer*: it owns the
//!   [`StreamEngine`] and the [`Host`] outright (no locks), batches
//!   `submit` requests under the [`Batcher`]'s adaptive policy, and
//!   answers everything else immediately. Its mpsc receive timeout is
//!   the batch deadline, so a lull in traffic closes the open batch on
//!   time.
//! * **Graceful shutdown**: a `shutdown` request first drains the open
//!   batch (every in-flight `submit` still gets its `allocated`
//!   response), then acknowledges, then stops the acceptor and unblocks
//!   any parked readers by shutting their sockets down.
//!
//! **Streaming epochs**: the served world is always a [`StreamEngine`]
//! (a fixed model is an engine that never ingests), and the loop runs
//! one host per *serving epoch* — the host borrows the engine's
//! compacted base, so allocation always sees a consistent model while
//! ingestion lands in the overlay. `ingest` requests apply immediately
//! at a batch boundary; while a solve batch is open they park in a
//! bounded pending-delta queue (backpressure: a full queue answers
//! `error` instead of growing without bound) and drain when the batch
//! closes. A compaction —
//! explicit `compact` request or the engine's policy firing at a batch
//! boundary — folds the overlay into a fresh base and *re-seeds* the
//! host against it: day clock, locks (resized for added inventory), and
//! ledger carry over, exactly like a snapshot resume.

use crate::batch::{BatchPolicy, Batcher, CloseReason};
use crate::feed::{self, FeedHandle, FeedStats, ReplicationConfig};
use crate::frame::{read_frame, write_frame};
use crate::histogram::LogHistogram;
use crate::protocol::{Request, Response, StatsReport};
use mroam_market::host::{Host, HostConfig, HostSeed};
use mroam_market::{DayRecord, Proposal};
use mroam_stream::{IngestBatch, StreamEngine};
use mroam_wal::state;
use mroam_wal::{SharedWal, WalOptions, WalRecord};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Write-ahead logging configuration. `None` in [`ServeConfig`] means
/// the server keeps no durable log (the pre-WAL behaviour).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `wal-*.seg` segments and `snap-*.snap`
    /// snapshots. Created if missing.
    pub dir: PathBuf,
    /// Fsync policy and segment rotation size.
    pub options: WalOptions,
    /// Write a durable snapshot every this many served days (≥ 1).
    /// Snapshots bound replay time and let old segments be pruned.
    pub snapshot_every: u32,
}

impl WalConfig {
    /// Defaults (per-batch fsync, 4 MiB segments, snapshot every 8
    /// days) for the given directory.
    pub fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            options: WalOptions::default(),
            snapshot_every: 8,
        }
    }
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Host configuration (γ + solver).
    pub host: HostConfig,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Ingest batches that may park behind an open solve batch before
    /// further `ingest` requests are refused (streaming backpressure).
    pub ingest_queue: usize,
    /// Durable write-ahead log; `None` disables logging.
    pub wal: Option<WalConfig>,
    /// Replication feed for read-only followers; requires `wal`
    /// (followers are fed from the log). `None` disables.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: HostConfig::default(),
            batch: BatchPolicy::default(),
            ingest_queue: 16,
            wal: None,
            replication: None,
        }
    }
}

/// One decoded request en route to the command loop.
struct Incoming {
    req: Request,
    reply: Sender<String>,
    received: Instant,
}

/// A queued `submit` awaiting its batch.
struct PendingSubmit {
    id: u64,
    proposal: Proposal,
    reply: Sender<String>,
    received: Instant,
}

/// An `ingest` parked behind the open solve batch; its `ingested`
/// response is sent when the batch closes and the delta actually lands.
struct PendingIngest {
    id: u64,
    batch: IngestBatch,
    reply: Sender<String>,
}

/// Serving counters owned by the command loop.
#[derive(Default)]
struct ServerStats {
    requests: u64,
    submits: u64,
    batches: u64,
    batched_total: u64,
    max_batch: usize,
    latency: LogHistogram,
    solve: LogHistogram,
}

/// A running server. Dropping the handle does **not** stop the server;
/// send a `shutdown` request (or use [`ServerHandle::join`] after one).
pub struct ServerHandle {
    addr: SocketAddr,
    command: JoinHandle<()>,
    acceptor: JoinHandle<()>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    feed: Option<FeedHandle>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication feed's bound address, when replication is on.
    pub fn replica_addr(&self) -> Option<SocketAddr> {
        self.feed.as_ref().map(FeedHandle::addr)
    }

    /// Waits for the server to stop (i.e. for a `shutdown` request to be
    /// processed), then force-closes any still-connected sockets so their
    /// reader threads unblock.
    pub fn join(self) {
        let _ = self.command.join();
        let _ = self.acceptor.join();
        for conn in self.conns.lock().expect("conn registry").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(feed) = self.feed {
            feed.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving a live
/// [`StreamEngine`]: allocation runs against the engine's compacted base
/// while `ingest` requests land new trajectories and inventory events as
/// epochs (see the module docs for the batching/backpressure rules).
/// `resume` continues from a snapshot seed instead of day 0.
pub fn spawn(
    engine: StreamEngine,
    resume: Option<HostSeed>,
    config: ServeConfig,
    addr: &str,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    // Warm the rayon pool and the derived structures (inverted index,
    // overlap graph, bitmap) before the first batch arrives, so no request
    // pays worker startup or the one-time build cost inside its latency
    // window.
    rayon::warm_up();
    engine.model().precompute();
    let stopping = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel::<Incoming>();

    // The WAL opens here (not inside the command loop) so the
    // replication feed can share the same `SharedWal` handle; a log
    // that cannot open fails the spawn instead of a later panic.
    let wal = match config.wal.as_ref() {
        Some(wc) => Some(open_wal(wc).map_err(io::Error::other)?),
        None => None,
    };
    let feed = match (&config.replication, &wal) {
        (Some(rc), Some(w)) => Some(feed::spawn_feed(
            w.dir.clone(),
            Arc::clone(&w.shared),
            rc.clone(),
            Arc::clone(&stopping),
        )?),
        (Some(_), None) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication requires a wal directory",
            ))
        }
        _ => None,
    };
    let feed_stats = feed.as_ref().map(FeedHandle::stats_handle);

    let command = {
        let stopping = Arc::clone(&stopping);
        thread::spawn(move || command_loop(engine, resume, config, rx, stopping, wal, feed_stats))
    };

    let acceptor = {
        let stopping = Arc::clone(&stopping);
        let conns = Arc::clone(&conns);
        thread::spawn(move || accept_loop(listener, tx, stopping, conns))
    };

    Ok(ServerHandle {
        addr: bound,
        command,
        acceptor,
        conns,
        feed,
    })
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<Incoming>,
    stopping: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
) {
    loop {
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if let Ok(registered) = stream.try_clone() {
                    conns.lock().expect("conn registry").push(registered);
                }
                spawn_connection(stream, tx.clone());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Starts the reader and writer threads for one connection. Both threads
/// are detached: they exit when the client disconnects or the server
/// shuts the socket down.
fn spawn_connection(stream: TcpStream, tx: Sender<Incoming>) {
    // A reply is latency-bound: its last segment must leave at once, not
    // wait under Nagle for the ACK of the previous one.
    let _ = stream.set_nodelay(true);
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    thread::spawn(move || writer_loop(writer_stream, reply_rx));
    thread::spawn(move || reader_loop(stream, tx, reply_tx));
}

fn writer_loop(mut stream: TcpStream, replies: Receiver<String>) {
    while let Ok(payload) = replies.recv() {
        if write_frame(&mut stream, payload.as_bytes()).is_err() {
            return;
        }
    }
}

fn reader_loop(mut stream: TcpStream, tx: Sender<Incoming>, reply: Sender<String>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            _ => return, // clean EOF, socket shutdown, or stream error
        };
        let received = Instant::now();
        let parsed = std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok());
        let Some(value) = parsed else {
            let _ = reply.send(
                Response::Error {
                    id: 0,
                    message: "frame is not valid JSON".into(),
                }
                .encode(),
            );
            continue;
        };
        match Request::decode(&value) {
            Ok(req) => {
                if tx
                    .send(Incoming {
                        req,
                        reply: reply.clone(),
                        received,
                    })
                    .is_err()
                {
                    // Command loop already stopped: tell the client.
                    let _ = reply.send(
                        Response::Error {
                            id: 0,
                            message: "server is shutting down".into(),
                        }
                        .encode(),
                    );
                    return;
                }
            }
            Err(e) => {
                let id = value["id"].as_f64().unwrap_or(0.0) as u64;
                let _ = reply.send(
                    Response::Error {
                        id,
                        message: e.to_string(),
                    }
                    .encode(),
                );
            }
        }
    }
}

/// Durable-logging state owned by the command loop. Every mutation the
/// loop applies — a served day, an ingest, a compaction — is appended
/// (and, per policy, fsynced) *before* it applies; see `crates/wal` for
/// the frame format and the recovery protocol.
///
/// WAL failures are fatal by design: a server that cannot make its log
/// durable must not keep acknowledging mutations, so every append/sync
/// here `expect`s.
struct WalState {
    /// The group-commit log handle, shared with the replication feed
    /// (which tails it read-only, gated on `durable_seq`).
    shared: Arc<SharedWal>,
    dir: PathBuf,
    snapshot_every: u32,
    /// Days served since the last snapshot.
    days_since_snapshot: u32,
    /// No snapshot exists yet; write the genesis snapshot (watermark =
    /// current log head) as soon as the first host is constructed.
    genesis_needed: bool,
    /// Watermark of the newest durable snapshot.
    last_snapshot_seq: u64,
}

fn open_wal(wc: &WalConfig) -> Result<WalState, mroam_wal::WalError> {
    let shared = Arc::new(SharedWal::open(&wc.dir, wc.options.clone())?);
    let snaps = state::list_snapshots(&wc.dir)
        .map_err(|e| mroam_wal::WalError::Io(io::Error::other(e.to_string())))?;
    let last = snaps.last().map(|(seq, _)| *seq);
    Ok(WalState {
        shared,
        dir: wc.dir.clone(),
        snapshot_every: wc.snapshot_every.max(1),
        days_since_snapshot: 0,
        genesis_needed: last.is_none(),
        last_snapshot_seq: last.unwrap_or(0),
    })
}

impl WalState {
    /// Logs one record and makes it as durable as the sync policy
    /// promises, *before* the caller applies the mutation.
    fn log(&mut self, record: &WalRecord) {
        self.shared.append(record).expect("wal: append failed");
        self.shared
            .batch_boundary()
            .expect("wal: sync failed at batch boundary");
    }
}

/// Writes a durable snapshot at the current log head if one is due,
/// then prunes segments and snapshots recovery can no longer reach.
/// Retention keeps the new snapshot *and* the previous one (with its
/// full replay suffix), so recovery survives a torn newest snapshot.
fn maybe_snapshot(wal: &mut Option<WalState>, host: &Host<'_>, engine: &StreamEngine) {
    let Some(w) = wal.as_mut() else { return };
    if w.days_since_snapshot < w.snapshot_every {
        return;
    }
    // Everything up to the watermark must be durable before the
    // snapshot claims to cover it.
    w.shared.sync().expect("wal: sync before snapshot");
    let watermark = w.shared.next_seq() - 1;
    state::write_snapshot_file(&w.dir, watermark, &state::encode(host, Some(engine)))
        .expect("wal: snapshot write failed");
    w.log(&WalRecord::SnapshotMark {
        wal_seq: watermark,
        day: host.day(),
        epoch: engine.epoch(),
    });
    let floor = w.last_snapshot_seq;
    w.last_snapshot_seq = watermark;
    w.days_since_snapshot = 0;
    w.shared.prune_below(floor).expect("wal: prune failed");
    prune_snapshots(&w.dir, floor);
}

/// Removes snapshot files below the retention floor (the previous
/// snapshot's watermark) — recovery never reaches past it because the
/// matching log segments are pruned too.
fn prune_snapshots(dir: &Path, keep_from: u64) {
    if let Ok(snaps) = state::list_snapshots(dir) {
        for (seq, path) in snaps {
            if seq < keep_from {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

fn command_loop(
    mut engine: StreamEngine,
    resume: Option<HostSeed>,
    config: ServeConfig,
    rx: Receiver<Incoming>,
    stopping: Arc<AtomicBool>,
    mut wal: Option<WalState>,
    feed_stats: Option<Arc<Mutex<FeedStats>>>,
) {
    let started = Instant::now();
    let now_nanos = move || started.elapsed().as_nanos() as u64;
    let mut batcher: Batcher<PendingSubmit> = Batcher::new(config.batch);
    let mut stats = ServerStats::default();
    let mut pending_ingest: VecDeque<PendingIngest> = VecDeque::new();
    let mut seed = resume;
    let mut running = true;

    // One outer iteration per serving epoch: the host borrows the
    // engine's current base model; a compaction re-bases the engine, so
    // we break inward, carry the host state out as a seed (locks resized
    // for any added inventory), and re-enter against the fresh base.
    while running {
        let model = Arc::clone(engine.model());
        let mut host = match seed.take() {
            Some(s) => Host::resume(&model, config.host.clone(), s),
            None => Host::new(&model, config.host.clone()),
        };
        let mut rebase = false;
        if let Some(w) = wal.as_mut() {
            // A fresh WAL directory gets a genesis snapshot so recovery
            // always has a base state; its watermark is the current log
            // head (0 on a brand-new log).
            if w.genesis_needed {
                let watermark = w.shared.next_seq() - 1;
                state::write_snapshot_file(&w.dir, watermark, &state::encode(&host, Some(&engine)))
                    .expect("wal: genesis snapshot failed");
                w.last_snapshot_seq = watermark;
                w.genesis_needed = false;
            }
        }

        while !rebase {
            let msg = match batcher.deadline_nanos() {
                Some(deadline) => {
                    let now = now_nanos();
                    if now >= deadline {
                        Err(RecvTimeoutError::Timeout)
                    } else {
                        rx.recv_timeout(Duration::from_nanos(deadline - now))
                    }
                }
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(incoming) => {
                    stats.requests += 1;
                    let Incoming {
                        req,
                        reply,
                        received,
                    } = incoming;
                    match req {
                        Request::Submit { id, proposal } => {
                            stats.submits += 1;
                            let close = batcher.push(
                                PendingSubmit {
                                    id,
                                    proposal,
                                    reply,
                                    received,
                                },
                                now_nanos(),
                            );
                            if close == Some(CloseReason::SizeCap) {
                                solve_batch(&mut host, &mut batcher, &mut stats, &mut wal);
                                rebase = after_batch(&mut engine, &mut pending_ingest, &mut wal);
                                if !rebase {
                                    maybe_snapshot(&mut wal, &host, &engine);
                                }
                            }
                        }
                        Request::RunDay { id } => {
                            let (record, batch_size) =
                                solve_batch(&mut host, &mut batcher, &mut stats, &mut wal);
                            send(
                                &reply,
                                Response::DayClosed {
                                    id,
                                    batch_size,
                                    record,
                                },
                            );
                            rebase = after_batch(&mut engine, &mut pending_ingest, &mut wal);
                            if !rebase {
                                maybe_snapshot(&mut wal, &host, &engine);
                            }
                        }
                        Request::QueryCoverage { id, billboards } => {
                            send(
                                &reply,
                                coverage_response(id, &billboards, &engine, host.locked_count()),
                            );
                        }
                        Request::Stats { id } => {
                            let report = stats_report(
                                &stats,
                                &host,
                                &batcher,
                                started,
                                &engine,
                                pending_ingest.len(),
                                wal.as_ref(),
                                feed_stats.as_ref(),
                            );
                            send(
                                &reply,
                                Response::Stats {
                                    id,
                                    stats: Box::new(report),
                                },
                            );
                        }
                        Request::Snapshot { id } => {
                            send(
                                &reply,
                                Response::Snapshot {
                                    id,
                                    state_json: state::encode(&host, Some(&engine)),
                                },
                            );
                        }
                        Request::Ingest { id, batch } => {
                            if batcher.is_empty() {
                                // Batch boundary: land the delta now,
                                // compacting (and re-basing) if the
                                // policy fires.
                                pending_ingest.push_back(PendingIngest { id, batch, reply });
                                rebase = after_batch(&mut engine, &mut pending_ingest, &mut wal);
                            } else if pending_ingest.len() >= config.ingest_queue {
                                send(
                                    &reply,
                                    Response::Error {
                                        id,
                                        message: format!(
                                            "ingest queue full ({} pending)",
                                            pending_ingest.len()
                                        ),
                                    },
                                );
                            } else {
                                pending_ingest.push_back(PendingIngest { id, batch, reply });
                            }
                        }
                        Request::Compact { id } => {
                            // A compaction is a batch boundary by
                            // definition: close the open batch (its
                            // submits keep their allocations), land
                            // queued deltas, then fold.
                            if !batcher.is_empty() {
                                solve_batch(&mut host, &mut batcher, &mut stats, &mut wal);
                            }
                            for p in pending_ingest.drain(..) {
                                apply_ingest(&mut engine, p.id, &p.batch, &p.reply, &mut wal);
                            }
                            if let Some(w) = wal.as_mut() {
                                w.log(&WalRecord::Compact {
                                    epoch: engine.epoch(),
                                });
                            }
                            let report = engine.compact();
                            send(&reply, Response::Compacted { id, report });
                            rebase = true;
                        }
                        Request::EpochStats { id } => {
                            send(
                                &reply,
                                Response::EpochStats {
                                    id,
                                    stats: engine.epoch_stats(),
                                },
                            );
                        }
                        Request::Shutdown { id } => {
                            // Drain the in-flight batch first: every
                            // queued submit still gets its allocation,
                            // and every parked ingest its epoch.
                            if !batcher.is_empty() {
                                solve_batch(&mut host, &mut batcher, &mut stats, &mut wal);
                            }
                            for p in pending_ingest.drain(..) {
                                apply_ingest(&mut engine, p.id, &p.batch, &p.reply, &mut wal);
                            }
                            send(&reply, Response::Bye { id });
                            running = false;
                            rebase = true;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Batch window elapsed.
                    if !batcher.is_empty() {
                        solve_batch(&mut host, &mut batcher, &mut stats, &mut wal);
                    }
                    rebase = after_batch(&mut engine, &mut pending_ingest, &mut wal);
                    if !rebase {
                        maybe_snapshot(&mut wal, &host, &engine);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    running = false;
                    rebase = true;
                }
            }
        }
        if running {
            let mut carried = host.seed();
            carried.lock = carried.lock.resized(engine.model().n_billboards());
            seed = Some(carried);
        }
    }
    // Make every acknowledged record durable before the process exits,
    // whatever the interval policy left unsynced.
    if let Some(w) = wal.as_mut() {
        w.shared.sync().expect("wal: final sync failed");
    }
    stopping.store(true, Ordering::SeqCst);
}

/// Runs the streaming work owed at a batch boundary: applies every
/// parked ingest (answering each), then compacts if the engine's policy
/// fires. Returns whether the base changed, i.e. whether the caller must
/// re-seed the host against the new epoch.
fn after_batch(
    engine: &mut StreamEngine,
    pending: &mut VecDeque<PendingIngest>,
    wal: &mut Option<WalState>,
) -> bool {
    for p in pending.drain(..) {
        apply_ingest(engine, p.id, &p.batch, &p.reply, wal);
    }
    if engine.needs_compaction() {
        // Compactions are logged explicitly so replay never consults
        // the (possibly retuned) compaction policy.
        if let Some(w) = wal.as_mut() {
            w.log(&WalRecord::Compact {
                epoch: engine.epoch(),
            });
        }
        engine.compact();
        true
    } else {
        false
    }
}

/// Applies one ingest batch and answers its client. The record is
/// logged first even when the engine rejects it — replay re-applies the
/// same batch to the same engine state and deterministically re-rejects.
fn apply_ingest(
    engine: &mut StreamEngine,
    id: u64,
    batch: &IngestBatch,
    reply: &Sender<String>,
    wal: &mut Option<WalState>,
) {
    if let Some(w) = wal.as_mut() {
        w.log(&WalRecord::Ingest {
            epoch: engine.epoch(),
            batch: batch.clone(),
        });
    }
    let response = match engine.ingest(batch) {
        Ok(report) => Response::Ingested { id, report },
        Err(e) => Response::Error {
            id,
            message: e.to_string(),
        },
    };
    send(reply, response);
}

/// The `query_coverage` answer, shared by the leader's command loop and
/// the read-only follower so both give the same bytes at the same history
/// prefix: `I(S)` from the engine's merged base + overlay view (the
/// freshest epoch), and `free_total` as the allocation inventory of the
/// serving base, given the `locked` count of the host or replayed world.
pub fn coverage_response(
    id: u64,
    billboards: &[u32],
    engine: &StreamEngine,
    locked: usize,
) -> Response {
    if billboards
        .iter()
        .any(|&b| b as usize >= engine.n_billboards())
    {
        return Response::Error {
            id,
            message: "billboard id out of range".into(),
        };
    }
    Response::Coverage {
        id,
        influence: engine.set_influence(billboards),
        free_total: engine.model().n_billboards() - locked,
    }
}

/// Closes the open batch (possibly empty), solves it as one market day,
/// and answers every queued submit. Returns the day record and batch
/// size.
fn solve_batch(
    host: &mut Host<'_>,
    batcher: &mut Batcher<PendingSubmit>,
    stats: &mut ServerStats,
    wal: &mut Option<WalState>,
) -> (DayRecord, usize) {
    let pending = batcher.take();
    let day = host.day();
    let proposals: Vec<Proposal> = pending.iter().map(|p| p.proposal).collect();
    if let Some(w) = wal.as_mut() {
        // Log-before-apply: the day's full proposal batch is durable
        // before any allocation response leaves the loop.
        w.log(&WalRecord::RunDay {
            day,
            proposals: proposals.clone(),
        });
        w.days_since_snapshot += 1;
    }
    let solve_started = Instant::now();
    let outcome = host.run_day(&proposals);
    let solve_elapsed = solve_started.elapsed();
    batcher.observe_solve(solve_elapsed.as_nanos() as u64);
    stats.batches += 1;
    stats.batched_total += pending.len() as u64;
    stats.max_batch = stats.max_batch.max(pending.len());
    stats.solve.record(solve_elapsed.as_micros() as u64);
    debug_assert_eq!(outcome.outcomes.len(), pending.len());
    for (submit, result) in pending.into_iter().zip(outcome.outcomes) {
        let wait_micros = solve_started
            .saturating_duration_since(submit.received)
            .as_micros() as u64;
        stats
            .latency
            .record(submit.received.elapsed().as_micros() as u64);
        send(
            &submit.reply,
            Response::Allocated {
                id: submit.id,
                day,
                outcome: result,
                wait_micros,
            },
        );
    }
    (outcome.record, proposals.len())
}

#[allow(clippy::too_many_arguments)]
fn stats_report(
    stats: &ServerStats,
    host: &Host<'_>,
    batcher: &Batcher<PendingSubmit>,
    started: Instant,
    engine: &StreamEngine,
    ingest_pending: usize,
    wal: Option<&WalState>,
    feed: Option<&Arc<Mutex<FeedStats>>>,
) -> StatsReport {
    let ws = wal.map(|w| w.shared.stats()).unwrap_or_default();
    let durable = wal.map_or(0, |w| w.shared.durable_seq());
    let (repl, rows) = match feed.and_then(|f| f.lock().ok()) {
        Some(fs) => {
            let rows = fs
                .rows
                .iter()
                .map(|r| crate::protocol::ReplicaRow {
                    id: r.id,
                    connected: u64::from(r.connected),
                    shipped_seq: r.shipped_seq,
                    acked_seq: r.acked_seq,
                    lag: durable.saturating_sub(r.acked_seq),
                    shipped_bytes: r.shipped_bytes,
                    snapshot_sends: r.snapshot_sends,
                })
                .collect();
            (
                (
                    fs.connected() as u64,
                    fs.connects,
                    fs.snapshot_sends,
                    fs.shipped_frames,
                    fs.shipped_bytes,
                    fs.slow_disconnects,
                ),
                rows,
            )
        }
        None => ((0, 0, 0, 0, 0, 0), Vec::new()),
    };
    StatsReport {
        uptime_micros: started.elapsed().as_micros() as u64,
        requests: stats.requests,
        submits: stats.submits,
        batches: stats.batches,
        max_batch: stats.max_batch,
        mean_batch: if stats.batches == 0 {
            0.0
        } else {
            stats.batched_total as f64 / stats.batches as f64
        },
        latency: stats.latency.percentiles(),
        solve: stats.solve.percentiles(),
        queue_depth: batcher.len(),
        day: u64::from(host.day()),
        locked: host.locked_count(),
        free: host.free_count(),
        collected: host.ledger().total_collected(),
        regret: host.ledger().total_regret(),
        batch_window_micros: batcher.window_nanos() / 1_000,
        snapshot_epoch: engine.epoch(),
        ingest_pending: ingest_pending as u64,
        wal_segments: ws.segments as u64,
        wal_records: ws.records_appended,
        wal_bytes: ws.bytes_appended,
        wal_fsyncs: ws.fsyncs,
        wal_last_sync_age_micros: ws.last_sync_age_micros,
        wal_next_seq: ws.next_seq,
        wal_snapshot_seq: wal.map_or(0, |w| w.last_snapshot_seq),
        wal_durable_seq: durable,
        repl_followers: repl.0,
        repl_connects: repl.1,
        repl_snapshot_sends: repl.2,
        repl_shipped_frames: repl.3,
        repl_shipped_bytes: repl.4,
        repl_slow_disconnects: repl.5,
        replica_rows: rows,
        repl_applied_seq: 0,
        repl_reconnects: 0,
        repl_snapshots_received: 0,
        repl_catch_up_micros: 0,
        repl_leader_durable: 0,
    }
}

/// Sends a response, ignoring a disconnected client.
fn send(reply: &Sender<String>, response: Response) {
    let _ = reply.send(response.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_stream::testutil::disjoint_engine;

    #[test]
    fn coverage_response_validates_ids() {
        let engine = disjoint_engine(&[4, 3]);
        let coverage = |influence| Response::Coverage {
            id: 1,
            influence,
            free_total: 1,
        };
        assert_eq!(coverage_response(1, &[0], &engine, 1), coverage(4));
        assert_eq!(coverage_response(1, &[0, 1], &engine, 1), coverage(7));
        assert_eq!(coverage_response(1, &[], &engine, 1), coverage(0));
        assert_eq!(
            coverage_response(1, &[9], &engine, 1),
            Response::Error {
                id: 1,
                message: "billboard id out of range".into(),
            }
        );
    }
}
