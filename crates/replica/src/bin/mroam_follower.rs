//! `mroam-follower` — a read-only replica of a running `mroam-served`.
//!
//! ```text
//! mroam-follower --leader 127.0.0.1:PORT [--addr 127.0.0.1:0]
//!                [--leader-cmd 127.0.0.1:7464]
//! ```
//!
//! `--leader` is the leader's *replication feed* address (the daemon's
//! `replica <addr>` stdout line when started with `--replica-addr`).
//! The follower holds no disk state: on start (or restart after a kill)
//! it requests a snapshot, replays the shipped WAL suffix, then tails
//! live appends, serving `query_coverage`/`stats`/`epoch_stats` on its
//! own port and redirecting every mutation to `--leader-cmd`.
//!
//! Stdout carries exactly the bound read-only address, so harnesses can
//! parse it. A `shutdown` request stops the follower.

use mroam_experiments::args::Args;
use mroam_replica::{spawn_follower, FollowerConfig};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::exit;

fn main() {
    let args = Args::from_env(&["leader", "leader-cmd", "addr"]);
    let Some(leader) = args.get("leader") else {
        eprintln!("--leader <addr> is required (the leader's replication feed address)");
        exit(2);
    };
    let leader_feed: SocketAddr = match leader.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("bad --leader {leader:?}: expected host:port");
            exit(2);
        }
    };
    let config = FollowerConfig {
        leader_feed,
        leader_hint: args.get("leader-cmd").unwrap_or("").to_string(),
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
    };
    let handle = spawn_follower(config).unwrap_or_else(|e| {
        eprintln!("cannot start follower: {e}");
        exit(1);
    });
    println!("{}", handle.addr());
    handle.join();
    eprintln!("follower stopped");
}
