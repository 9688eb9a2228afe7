//! The leader's replication feed: log shipping to read-only followers.
//!
//! A second listener (separate from the command port) speaks the
//! binary [`mroam_wal::ship`] protocol. Each follower connection runs
//! three threads on the leader:
//!
//! * the **session** thread reads the follower's `hello{watermark}`,
//!   ships a snapshot if the follower has no world or fell behind the
//!   pruning horizon, then tails the WAL with a [`WalCursor`] — frames
//!   are only shipped once the group-commit machinery has published
//!   them durable ([`SharedWal::wait_durable_past`]), so a follower can
//!   never apply a record the leader could still lose;
//! * the **writer** thread drains a *bounded* queue onto the socket. A
//!   follower that cannot keep up fills the queue; the session thread's
//!   `try_send` fails and the connection is dropped (slow-follower
//!   disconnect) rather than buffering without bound — the follower
//!   reconnects with its watermark and catches up;
//! * the **ack reader** thread drains `ack{applied_seq}` messages into
//!   the per-follower stats row, giving `stats --replication` its lag.
//!
//! The feed never touches the command loop: it reads segment files and
//! snapshot files the loop writes, synchronised only through
//! `durable_seq`. Snapshot shipping picks the newest snapshot that
//! still unseals (same CRC container recovery trusts) and resets the
//! cursor to its watermark; retention keeps the previous snapshot's
//! full replay suffix on disk, so a just-pruned horizon still has a
//! shippable base.

use mroam_wal::ship::{self, ShipMsg};
use mroam_wal::state;
use mroam_wal::tail::{TailError, WalCursor};
use mroam_wal::SharedWal;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Replication feed configuration (lives in
/// [`crate::server::ServeConfig::replication`]; requires a WAL).
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Listen address for follower connections, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Bounded per-follower send queue (messages). A full queue
    /// disconnects the follower instead of buffering further.
    pub queue_msgs: usize,
    /// Heartbeat cadence when no frames are flowing (also the poll
    /// granularity for the stopping flag).
    pub heartbeat: Duration,
}

impl ReplicationConfig {
    /// Defaults for the given listen address.
    pub fn new(addr: String) -> Self {
        Self {
            addr,
            queue_msgs: 256,
            heartbeat: Duration::from_millis(200),
        }
    }
}

/// Per-follower counters, surfaced as `replica_rows` in `stats`.
#[derive(Debug, Clone, Default)]
pub struct FollowerRow {
    /// Connection id (monotonic per feed; a reconnect is a new row).
    pub id: u64,
    /// Still connected.
    pub connected: bool,
    /// Highest seq handed to the writer queue.
    pub shipped_seq: u64,
    /// Highest seq the follower acknowledged applying.
    pub acked_seq: u64,
    /// Payload bytes shipped (frames + snapshots).
    pub shipped_bytes: u64,
    /// Snapshots shipped on this connection.
    pub snapshot_sends: u64,
}

/// Feed-wide counters (aggregates over all rows, plus the rows).
#[derive(Debug, Default)]
pub struct FeedStats {
    /// Follower connections accepted since start.
    pub connects: u64,
    /// Snapshots shipped.
    pub snapshot_sends: u64,
    /// WAL frames shipped.
    pub shipped_frames: u64,
    /// Payload bytes shipped.
    pub shipped_bytes: u64,
    /// Connections dropped for falling behind the bounded queue.
    pub slow_disconnects: u64,
    /// Per-connection rows, oldest first (bounded; see `push_row`).
    pub rows: Vec<FollowerRow>,
}

/// Rows kept after disconnect, so a crashed follower's last state stays
/// visible in `stats --replication` without growing without bound.
const MAX_ROWS: usize = 64;

impl FeedStats {
    fn push_row(&mut self, row: FollowerRow) {
        if self.rows.len() >= MAX_ROWS {
            // Evict the oldest *disconnected* row.
            if let Some(pos) = self.rows.iter().position(|r| !r.connected) {
                self.rows.remove(pos);
            }
        }
        self.rows.push(row);
    }

    fn row_mut(&mut self, id: u64) -> Option<&mut FollowerRow> {
        self.rows.iter_mut().find(|r| r.id == id)
    }

    /// Currently connected followers.
    pub fn connected(&self) -> usize {
        self.rows.iter().filter(|r| r.connected).count()
    }
}

/// A running feed. Owned by the [`crate::server::ServerHandle`].
pub struct FeedHandle {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    stats: Arc<Mutex<FeedStats>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl FeedHandle {
    /// The bound feed address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters (the command loop folds these into `stats`).
    pub fn stats_handle(&self) -> Arc<Mutex<FeedStats>> {
        Arc::clone(&self.stats)
    }

    /// Force-closes follower sockets and joins the acceptor. Call after
    /// the stopping flag is set.
    pub fn join(self) {
        for conn in self.conns.lock().expect("feed conn registry").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = self.acceptor.join();
    }
}

/// Binds the feed listener and starts accepting followers.
pub fn spawn_feed(
    dir: PathBuf,
    wal: Arc<SharedWal>,
    config: ReplicationConfig,
    stopping: Arc<AtomicBool>,
) -> io::Result<FeedHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stats: Arc<Mutex<FeedStats>> = Arc::default();
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
    let acceptor = {
        let stats = Arc::clone(&stats);
        let conns = Arc::clone(&conns);
        thread::spawn(move || loop {
            if stopping.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(registered) = stream.try_clone() {
                        conns.lock().expect("feed conn registry").push(registered);
                    }
                    let id = {
                        let mut st = stats.lock().expect("feed stats");
                        st.connects += 1;
                        st.connects
                    };
                    let dir = dir.clone();
                    let wal = Arc::clone(&wal);
                    let config = config.clone();
                    let stats = Arc::clone(&stats);
                    let stopping = Arc::clone(&stopping);
                    thread::spawn(move || {
                        serve_follower(stream, id, dir, wal, config, stats, stopping);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        })
    };
    Ok(FeedHandle {
        addr,
        acceptor,
        stats,
        conns,
    })
}

/// Reads the newest snapshot that still unseals, as raw sealed bytes.
/// Older snapshots are tried in turn (a file may be pruned or torn
/// under us); `None` when nothing shippable exists.
fn newest_sealed_snapshot(dir: &Path) -> Option<(u64, Vec<u8>)> {
    let snaps = state::list_snapshots(dir).ok()?;
    for (seq, path) in snaps.into_iter().rev() {
        let Ok(content) = std::fs::read_to_string(&path) else {
            continue;
        };
        if state::unseal(&content).is_ok() {
            return Some((seq, content.into_bytes()));
        }
    }
    None
}

/// One follower connection, start to finish. See the module docs.
fn serve_follower(
    stream: TcpStream,
    id: u64,
    dir: PathBuf,
    wal: Arc<SharedWal>,
    config: ReplicationConfig,
    stats: Arc<Mutex<FeedStats>>,
    stopping: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let mut session = Session {
        id,
        stats: &stats,
        queue: None,
        disconnect_slow: false,
    };
    stats.lock().expect("feed stats").push_row(FollowerRow {
        id,
        connected: true,
        ..FollowerRow::default()
    });
    let outcome = session.run(stream, &dir, &wal, &config, &stopping);
    if let Ok(mut st) = stats.lock() {
        if session.disconnect_slow {
            st.slow_disconnects += 1;
        }
        if let Some(row) = st.row_mut(id) {
            row.connected = false;
        }
    }
    drop(outcome);
}

/// Everything one follower session threads through its loops.
struct Session<'a> {
    id: u64,
    stats: &'a Arc<Mutex<FeedStats>>,
    queue: Option<mpsc::SyncSender<ShipMsg>>,
    disconnect_slow: bool,
}

impl Session<'_> {
    fn run(
        &mut self,
        stream: TcpStream,
        dir: &Path,
        wal: &Arc<SharedWal>,
        config: &ReplicationConfig,
        stopping: &Arc<AtomicBool>,
    ) -> io::Result<()> {
        let mut rd = stream.try_clone()?;
        let mut wr = stream.try_clone()?;
        // Handshake: exactly one hello.
        let Some(ShipMsg::Hello {
            watermark,
            need_snapshot,
        }) = ship::read_msg(&mut rd)?
        else {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "follower did not open with hello",
            ));
        };

        // Writer thread behind the bounded queue.
        let (tx, rx) = mpsc::sync_channel::<ShipMsg>(config.queue_msgs.max(1));
        self.queue = Some(tx);
        let writer = thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                if ship::write_msg(&mut wr, &msg).is_err() {
                    return;
                }
            }
        });
        // Ack reader: progress reports only; EOF/garbage ends the
        // session by shutting the socket (the tail loop notices on its
        // next send).
        let ack_reader = {
            let stats = Arc::clone(self.stats);
            let id = self.id;
            let sock = stream.try_clone()?;
            thread::spawn(move || {
                while let Ok(Some(ShipMsg::Ack { applied_seq })) = ship::read_msg(&mut rd) {
                    if let Ok(mut st) = stats.lock() {
                        if let Some(row) = st.row_mut(id) {
                            row.acked_seq = row.acked_seq.max(applied_seq);
                        }
                    }
                }
                let _ = sock.shutdown(Shutdown::Both);
            })
        };

        let result = self.tail(watermark, need_snapshot, dir, wal, config, stopping);
        // Closing the queue stops the writer; shutting the socket
        // unblocks the ack reader.
        self.queue = None;
        let _ = stream.shutdown(Shutdown::Both);
        let _ = writer.join();
        let _ = ack_reader.join();
        result
    }

    /// The shipping loop: snapshot catch-up when needed, then durable
    /// frames as they appear, heartbeats when idle.
    fn tail(
        &mut self,
        watermark: u64,
        need_snapshot: bool,
        dir: &Path,
        wal: &Arc<SharedWal>,
        config: &ReplicationConfig,
        stopping: &Arc<AtomicBool>,
    ) -> io::Result<()> {
        let mut cursor = WalCursor::open(dir, watermark);
        if need_snapshot {
            self.ship_snapshot(dir, &mut cursor)?;
        }
        let mut last_heartbeat = Instant::now();
        loop {
            if stopping.load(Ordering::SeqCst) {
                return Ok(());
            }
            let durable = wal.wait_durable_past(cursor.next_seq() - 1, config.heartbeat);
            let mut frames = Vec::new();
            match cursor.poll(durable, &mut frames) {
                Ok(_) => {}
                Err(TailError::Pruned { .. }) => {
                    // The follower's position predates the oldest
                    // segment: restart it from a snapshot.
                    self.ship_snapshot(dir, &mut cursor)?;
                    continue;
                }
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            if frames.is_empty() {
                if last_heartbeat.elapsed() >= config.heartbeat {
                    self.ship(ShipMsg::Heartbeat {
                        durable_seq: durable,
                    })?;
                    last_heartbeat = Instant::now();
                }
                continue;
            }
            let mut shipped_bytes = 0u64;
            let mut shipped_seq = 0u64;
            let count = frames.len() as u64;
            for f in frames {
                shipped_bytes += f.payload.len() as u64;
                shipped_seq = f.seq;
                self.ship(ShipMsg::from_frame(&f))?;
            }
            last_heartbeat = Instant::now();
            let mut st = self.stats.lock().expect("feed stats");
            st.shipped_frames += count;
            st.shipped_bytes += shipped_bytes;
            if let Some(row) = st.row_mut(self.id) {
                row.shipped_seq = shipped_seq;
                row.shipped_bytes += shipped_bytes;
            }
        }
    }

    /// Ships the newest shippable snapshot and repositions the cursor
    /// at its watermark.
    fn ship_snapshot(&mut self, dir: &Path, cursor: &mut WalCursor) -> io::Result<()> {
        let Some((wal_seq, sealed)) = newest_sealed_snapshot(dir) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no shippable snapshot on the leader",
            ));
        };
        let bytes = sealed.len() as u64;
        self.ship(ShipMsg::Snapshot { wal_seq, sealed })?;
        cursor.reset(wal_seq);
        let mut st = self.stats.lock().expect("feed stats");
        st.snapshot_sends += 1;
        st.shipped_bytes += bytes;
        if let Some(row) = st.row_mut(self.id) {
            row.snapshot_sends += 1;
            row.shipped_bytes += bytes;
            row.shipped_seq = row.shipped_seq.max(wal_seq);
        }
        Ok(())
    }

    /// Enqueues one message; a full queue is the slow-follower
    /// disconnect, a closed one means the writer already died.
    fn ship(&mut self, msg: ShipMsg) -> io::Result<()> {
        let tx = self.queue.as_ref().expect("writer queue");
        match tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.disconnect_slow = true;
                Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "follower send queue full: slow-follower disconnect",
                ))
            }
            Err(TrySendError::Disconnected(_)) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "follower writer stopped",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_wal::testutil::TempDir;

    #[test]
    fn snapshot_choice_skips_a_newest_file_with_a_damaged_magic_line() {
        let tmp = TempDir::new("feed-snap-choice");
        let doc = r#"{"version":2}"#;
        state::write_snapshot_file(tmp.path(), 1, doc).unwrap();
        let newest = state::write_snapshot_file(tmp.path(), 2, doc).unwrap();
        assert_eq!(newest_sealed_snapshot(tmp.path()).unwrap().0, 2);
        // Lose snap-2's first byte: recovery would skip it, so the feed
        // must not ship it to a catching-up follower either.
        let sealed = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &sealed[1..]).unwrap();
        let (seq, bytes) = newest_sealed_snapshot(tmp.path()).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(bytes, state::seal(doc).into_bytes());
    }
}
