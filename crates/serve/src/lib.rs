//! `mroam-serve` — a long-running host allocation service.
//!
//! The offline crates answer "given these proposals, what should the host
//! deploy?"; this crate runs that decision loop as a daemon. A server
//! owns the world state (a stream engine over the coverage model,
//! inventory locks, revenue ledger) behind a single-writer command loop,
//! speaks a length-framed JSON protocol over plain TCP, coalesces
//! concurrent proposal submissions into batched MROAM instances under an
//! adaptive window, and can snapshot/restore its full state for crash
//! recovery.
//!
//! Module map:
//!
//! * [`frame`] — length-delimited framing over a byte stream;
//! * [`protocol`] — the JSON request/response grammar;
//! * [`batch`] — adaptive (EWMA-of-solve-time) request batching;
//! * [`histogram`] — HDR-style log-bucket latency histogram;
//! * [`server`] — the TCP serving loop;
//! * [`client`] — a minimal blocking client.
//!
//! The world state machine ([`mroam_market::host`]) and its snapshot
//! codec ([`mroam_wal::state`]) live below this crate, so WAL replay steps
//! through exactly the transitions the server applies.
//!
//! Binaries: `mroam-served` (the daemon) and `loadgen` (an open-loop
//! load-test harness printing throughput and latency percentiles).

pub mod batch;
pub mod client;
pub mod feed;
pub mod frame;
pub mod histogram;
pub mod protocol;
pub mod server;

pub use batch::{BatchPolicy, Batcher, CloseReason};
pub use client::Client;
pub use feed::{FeedStats, FollowerRow, ReplicationConfig};
pub use histogram::{LogHistogram, Percentiles};
pub use protocol::{Request, Response, StatsReport};
pub use server::{coverage_response, spawn, ServeConfig, ServerHandle};
