//! Child daemons: spawn, read their announced addresses with deadlines,
//! and kill and reap them on every exit path (the guard's `Drop` runs on
//! normal return and while a panic unwinds).

use crate::conn::FrameConn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

/// Pool width pinned for the harness and every daemon it starts.
pub const POOL_WIDTH: &str = "1";

/// A running daemon, killed and reaped when dropped.
pub struct Daemon {
    name: String,
    child: Child,
    lines: Receiver<String>,
    log: PathBuf,
}

impl Daemon {
    /// Starts `bin args…` with stdout piped (it announces its addresses
    /// there) and stderr appended to `log`.
    pub fn spawn(name: &str, bin: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let err = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{name}: cannot open log {log:?}: {e}"))?;
        let mut child = Command::new(bin)
            .args(args)
            .env("RAYON_NUM_THREADS", POOL_WIDTH)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("{name}: cannot start {bin:?}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        Ok(Daemon {
            name: name.to_string(),
            child,
            lines,
            log: log.to_path_buf(),
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next stdout line, or an error naming `stage` when none arrives
    /// before `deadline` (the error carries the daemon's stderr tail).
    pub fn next_line(&mut self, deadline: Instant, stage: &str) -> Result<String, String> {
        let wait = deadline.saturating_duration_since(Instant::now());
        self.lines.recv_timeout(wait).map_err(|_| {
            let exited = self.child.try_wait().ok().flatten();
            format!(
                "{}: stage '{stage}' hung or failed (exit status {exited:?}); log tail:\n{}",
                self.name,
                log_tail(&self.log)
            )
        })
    }

    /// Reads an announced socket address (`prefix` then the address).
    pub fn addr_line(
        &mut self,
        prefix: &str,
        deadline: Instant,
        stage: &str,
    ) -> Result<SocketAddr, String> {
        let line = self.next_line(deadline, stage)?;
        line.strip_prefix(prefix)
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("{}: stage '{stage}': unexpected line {line:?}", self.name))
    }

    /// SIGKILLs the daemon and waits for it to end.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `timeout` for a voluntary exit; kills it otherwise.
    /// Returns whether it exited by itself.
    pub fn wait_or_kill(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Last lines of a log file, for hang diagnostics.
pub fn log_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(8)..].join("\n")
}

/// Connects to `addr` and waits for its first answered `stats`, retrying
/// until `deadline`; the error names `stage`.
pub fn first_stats(
    addr: SocketAddr,
    deadline: Instant,
    stage: &str,
) -> Result<(FrameConn, serde_json::Value), String> {
    let mut last = String::new();
    while Instant::now() < deadline {
        match FrameConn::connect(addr) {
            Ok(mut conn) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match conn.call("{\"type\":\"stats\",\"id\":0}", wait) {
                    Ok(v) if v["type"].as_str() == Some("stats") => return Ok((conn, v)),
                    Ok(v) => last = format!("unexpected answer {v:?}"),
                    Err(e) => last = e.to_string(),
                }
            }
            Err(e) => last = e.to_string(),
        }
        thread::sleep(Duration::from_millis(2));
    }
    Err(format!(
        "stage '{stage}' hung: no stats answer from {addr} ({last})"
    ))
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench/run-<pid>-<nanos>` under the current directory.
    pub fn create() -> std::io::Result<WorkDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = std::env::current_dir()?
            .join(".perfbench")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
