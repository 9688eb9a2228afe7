//! The JSON wire protocol: one JSON object per frame, both directions.
//!
//! Every request carries a client-chosen `id` that the matching response
//! echoes, so clients can pipeline requests and pair responses out of
//! order (a `submit` response arrives only when its batch is solved, which
//! may be after later `stats` responses). The vendored `serde` stub only
//! serializes, so responses are encoded with the stub's derive/impls where
//! the shape allows (named-field structs) and assembled by hand otherwise;
//! requests and client-side response decoding go through untyped
//! [`serde_json::Value`] documents with the shared `market::json` helpers.
//!
//! Request grammar (`type` selects the variant):
//!
//! ```text
//! {"type":"submit","id":N,"demand":D,"payment":P,"duration_days":K,"zone":Z?}
//! {"type":"run_day","id":N}
//! {"type":"query_coverage","id":N,"billboards":[o,...]}
//! {"type":"stats","id":N}
//! {"type":"snapshot","id":N}
//! {"type":"ingest","id":N,"trajectories":[{"points":[[x,y],...],"timestamps":[t,...]},...],
//!  "add_billboards":[[x,y],...],"retire_billboards":[o,...]}
//! {"type":"compact","id":N}
//! {"type":"epoch_stats","id":N}
//! {"type":"shutdown","id":N}
//! ```
//!
//! `ingest` applies billboard adds, then retires, then the new
//! trajectories, as one epoch (see `mroam_stream::IngestBatch`). A
//! trajectory's `timestamps` may be omitted, in which case they are
//! derived from arc length at [`DEFAULT_INGEST_SPEED_MPS`].

use crate::histogram::Percentiles;
use mroam_market::json::{self, DecodeError};
use mroam_market::{DayRecord, Proposal, ProposalOutcome};
use mroam_stream::{CompactionReport, EpochStats, IngestBatch, IngestReport};
use serde::Serialize;
use serde_json::Value;

pub use mroam_stream::json::DEFAULT_INGEST_SPEED_MPS;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue one campaign proposal for the next solved batch.
    Submit { id: u64, proposal: Proposal },
    /// Force-close the open batch (even if empty) and advance the day.
    RunDay { id: u64 },
    /// Influence of a billboard set plus free-inventory counts.
    QueryCoverage { id: u64, billboards: Vec<u32> },
    /// Serving statistics (throughput, latency percentiles, market state).
    Stats { id: u64 },
    /// Full host snapshot for crash recovery.
    Snapshot { id: u64 },
    /// One epoch of streaming input (new trajectories + inventory
    /// events), applied behind the bounded pending-delta queue.
    Ingest { id: u64, batch: IngestBatch },
    /// Fold the delta overlay into a fresh base model and re-seed the
    /// host against it.
    Compact { id: u64 },
    /// Streaming epoch counters and overlay occupancy.
    EpochStats { id: u64 },
    /// Drain in-flight work, reply, and stop the server.
    Shutdown { id: u64 },
}

impl Request {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Submit { id, .. }
            | Request::RunDay { id }
            | Request::QueryCoverage { id, .. }
            | Request::Stats { id }
            | Request::Snapshot { id }
            | Request::Ingest { id, .. }
            | Request::Compact { id }
            | Request::EpochStats { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// Decodes a request from a parsed JSON document.
    pub fn decode(v: &Value) -> Result<Self, DecodeError> {
        let id = json::u64_field(v, "id")?;
        match v["type"].as_str() {
            Some("submit") => Ok(Request::Submit {
                id,
                proposal: json::decode_proposal(v)?,
            }),
            Some("run_day") => Ok(Request::RunDay { id }),
            Some("query_coverage") => {
                let Value::Array(items) = &v["billboards"] else {
                    return Err(DecodeError {
                        field: "billboards".into(),
                        expected: "array of billboard ids",
                    });
                };
                let billboards = items
                    .iter()
                    .map(|item| match item.as_f64() {
                        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => {
                            Ok(n as u32)
                        }
                        _ => Err(DecodeError {
                            field: "billboards[]".into(),
                            expected: "billboard id",
                        }),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Request::QueryCoverage { id, billboards })
            }
            Some("stats") => Ok(Request::Stats { id }),
            Some("snapshot") => Ok(Request::Snapshot { id }),
            Some("ingest") => Ok(Request::Ingest {
                id,
                batch: decode_ingest_batch(v)?,
            }),
            Some("compact") => Ok(Request::Compact { id }),
            Some("epoch_stats") => Ok(Request::EpochStats { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            _ => Err(DecodeError {
                field: "type".into(),
                expected:
                    "submit|run_day|query_coverage|stats|snapshot|ingest|compact|epoch_stats|shutdown",
            }),
        }
    }

    /// Encodes a request as its wire JSON (used by clients).
    #[allow(clippy::format_push_string)]
    pub fn encode(&self) -> String {
        match self {
            Request::Submit { id, proposal } => {
                let zone = match proposal.zone {
                    Some(z) => format!(",\"zone\":{z}"),
                    None => String::new(),
                };
                format!(
                    "{{\"type\":\"submit\",\"id\":{id},\"demand\":{},\"payment\":{},\"duration_days\":{}{zone}}}",
                    proposal.demand, proposal.payment, proposal.duration_days
                )
            }
            Request::RunDay { id } => format!("{{\"type\":\"run_day\",\"id\":{id}}}"),
            Request::QueryCoverage { id, billboards } => {
                let ids = serde_json::to_string(billboards).expect("stub never fails");
                format!("{{\"type\":\"query_coverage\",\"id\":{id},\"billboards\":{ids}}}")
            }
            Request::Stats { id } => format!("{{\"type\":\"stats\",\"id\":{id}}}"),
            Request::Snapshot { id } => format!("{{\"type\":\"snapshot\",\"id\":{id}}}"),
            Request::Ingest { id, batch } => {
                let mut out = format!("{{\"type\":\"ingest\",\"id\":{id},");
                mroam_stream::json::encode_ingest_batch_fields(batch, &mut out);
                out.push('}');
                out
            }
            Request::Compact { id } => format!("{{\"type\":\"compact\",\"id\":{id}}}"),
            Request::EpochStats { id } => format!("{{\"type\":\"epoch_stats\",\"id\":{id}}}"),
            Request::Shutdown { id } => format!("{{\"type\":\"shutdown\",\"id\":{id}}}"),
        }
    }
}

/// Decodes the streaming fields of an `ingest` request into an
/// [`IngestBatch`] via the shared stream codec (the same codec decodes
/// WAL `ingest` payloads, so the wire and the log can't drift).
fn decode_ingest_batch(v: &Value) -> Result<IngestBatch, DecodeError> {
    mroam_stream::json::decode_ingest_batch(v).map_err(|e| DecodeError {
        field: e.field,
        expected: e.expected,
    })
}

/// The serving statistics block of a `stats` response.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct StatsReport {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Total requests decoded (all types).
    pub requests: u64,
    /// Proposals submitted.
    pub submits: u64,
    /// Batches solved (= market days advanced).
    pub batches: u64,
    /// Largest batch solved so far.
    pub max_batch: usize,
    /// Mean solved batch size.
    pub mean_batch: f64,
    /// Submit→allocated latency percentiles, in microseconds.
    pub latency: Percentiles,
    /// Per-batch solve-time percentiles, in microseconds.
    pub solve: Percentiles,
    /// Proposals queued in the open batch right now.
    pub queue_depth: usize,
    /// Next market day index.
    pub day: u64,
    /// Currently locked billboards.
    pub locked: usize,
    /// Currently free billboards.
    pub free: usize,
    /// Ledger totals so far.
    pub collected: f64,
    /// Total regret so far.
    pub regret: f64,
    /// Current adaptive batch window, in microseconds (satellite: the
    /// window adapts to solve time, so clients can see the knee).
    pub batch_window_micros: u64,
    /// Epoch a snapshot taken right now would carry (0 when the server
    /// is not streaming).
    pub snapshot_epoch: u64,
    /// Ingest batches parked behind the open solve batch.
    pub ingest_pending: u64,
    /// WAL: segment files on disk (all `wal_*` fields read 0 when the
    /// server runs without `--wal-dir`).
    pub wal_segments: u64,
    /// WAL: records appended since this process opened the log.
    pub wal_records: u64,
    /// WAL: frame bytes appended since open.
    pub wal_bytes: u64,
    /// WAL: fsyncs since open.
    pub wal_fsyncs: u64,
    /// WAL: microseconds since the last fsync.
    pub wal_last_sync_age_micros: u64,
    /// WAL: next sequence number to be assigned.
    pub wal_next_seq: u64,
    /// WAL: the replay watermark — sequence of the last durable
    /// snapshot (recovery replays strictly after it).
    pub wal_snapshot_seq: u64,
    /// WAL: highest seq on stable storage (the replication shipping
    /// horizon; 0 without a WAL).
    pub wal_durable_seq: u64,
    /// Replication (leader): followers connected right now (all
    /// `repl_*` leader fields read 0 when replication is off).
    pub repl_followers: u64,
    /// Replication (leader): follower connections accepted since start.
    pub repl_connects: u64,
    /// Replication (leader): snapshots shipped to followers.
    pub repl_snapshot_sends: u64,
    /// Replication (leader): WAL frames shipped.
    pub repl_shipped_frames: u64,
    /// Replication (leader): payload bytes shipped (frames + snapshots).
    pub repl_shipped_bytes: u64,
    /// Replication (leader): followers dropped for outrunning their
    /// bounded send queue.
    pub repl_slow_disconnects: u64,
    /// Replication (leader): one row per follower connection.
    pub replica_rows: Vec<ReplicaRow>,
    /// Replication (follower): highest WAL seq applied to the local
    /// replay world (0 on a leader).
    pub repl_applied_seq: u64,
    /// Replication (follower): tailer reconnects since start.
    pub repl_reconnects: u64,
    /// Replication (follower): snapshots received (catch-ups).
    pub repl_snapshots_received: u64,
    /// Replication (follower): wall time of the last catch-up, from
    /// connect to reaching the leader's durable horizon.
    pub repl_catch_up_micros: u64,
    /// Replication (follower): the leader's durable seq as last heard
    /// (lag = this minus `repl_applied_seq`).
    pub repl_leader_durable: u64,
}

/// One follower connection's row in a leader `stats` response.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ReplicaRow {
    /// Connection id (monotonic; a reconnect is a new row).
    pub id: u64,
    /// 1 while connected, 0 after disconnect.
    pub connected: u64,
    /// Highest seq shipped to this follower.
    pub shipped_seq: u64,
    /// Highest seq the follower acknowledged applying.
    pub acked_seq: u64,
    /// Leader durable seq minus `acked_seq`.
    pub lag: u64,
    /// Payload bytes shipped on this connection.
    pub shipped_bytes: u64,
    /// Snapshots shipped on this connection.
    pub snapshot_sends: u64,
}

/// A server response, ready to encode.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submitted proposal's batch was solved; its share of the day.
    Allocated {
        id: u64,
        /// Day the batch was solved as.
        day: u32,
        outcome: ProposalOutcome,
        /// Queueing delay (submit→solve start) in microseconds.
        wait_micros: u64,
    },
    /// A day closed (response to `run_day`).
    DayClosed {
        id: u64,
        batch_size: usize,
        record: DayRecord,
    },
    /// Coverage query result.
    Coverage {
        id: u64,
        influence: u64,
        free_total: usize,
    },
    /// Statistics.
    Stats { id: u64, stats: Box<StatsReport> },
    /// Snapshot; `state` is the snapshot document itself (already JSON).
    Snapshot { id: u64, state_json: String },
    /// An ingest batch was applied (sent when it actually lands, which
    /// may be after the open solve batch closes).
    Ingested { id: u64, report: IngestReport },
    /// The overlay was folded into a fresh base.
    Compacted { id: u64, report: CompactionReport },
    /// Streaming epoch counters.
    EpochStats { id: u64, stats: EpochStats },
    /// Acknowledged shutdown.
    Bye { id: u64 },
    /// A mutation hit a read-only follower: the typed redirect carries
    /// the leader's command address (may be empty when unknown).
    Redirect { id: u64, leader: String },
    /// Malformed or unserviceable request.
    Error { id: u64, message: String },
}

impl Response {
    /// Encodes the response as its wire JSON.
    pub fn encode(&self) -> String {
        match self {
            Response::Allocated {
                id,
                day,
                outcome,
                wait_micros,
            } => {
                let billboards: Vec<u32> =
                    outcome.billboards.iter().map(|b| b.0).collect();
                format!(
                    "{{\"type\":\"allocated\",\"id\":{id},\"day\":{day},\"influence\":{},\
                     \"satisfied\":{},\"collected\":{},\"regret\":{},\"expires\":{},\
                     \"wait_micros\":{wait_micros},\"billboards\":{}}}",
                    outcome.influence,
                    outcome.satisfied,
                    outcome.collected,
                    outcome.regret,
                    outcome.expires,
                    serde_json::to_string(&billboards).expect("stub never fails"),
                )
            }
            Response::DayClosed {
                id,
                batch_size,
                record,
            } => format!(
                "{{\"type\":\"day_closed\",\"id\":{id},\"batch_size\":{batch_size},\"record\":{}}}",
                serde_json::to_string(record).expect("stub never fails"),
            ),
            Response::Coverage {
                id,
                influence,
                free_total,
            } => format!(
                "{{\"type\":\"coverage\",\"id\":{id},\"influence\":{influence},\"free_total\":{free_total}}}"
            ),
            Response::Stats { id, stats } => format!(
                "{{\"type\":\"stats\",\"id\":{id},\"stats\":{}}}",
                serde_json::to_string(stats.as_ref()).expect("stub never fails"),
            ),
            Response::Snapshot { id, state_json } => {
                format!("{{\"type\":\"snapshot\",\"id\":{id},\"state\":{state_json}}}")
            }
            Response::Ingested { id, report } => format!(
                "{{\"type\":\"ingested\",\"id\":{id},\"epoch\":{},\"new_trajectories\":{},\
                 \"new_billboards\":{},\"retired\":{},\"changed_billboards\":{}}}",
                report.epoch,
                report.new_trajectories,
                report.new_billboards,
                report.retired,
                serde_json::to_string(&report.changed_billboards).expect("stub never fails"),
            ),
            Response::Compacted { id, report } => format!(
                "{{\"type\":\"compacted\",\"id\":{id},\"epoch\":{},\"folded_trajectories\":{},\
                 \"folded_billboards\":{},\"changed_billboards\":{}}}",
                report.epoch,
                report.folded_trajectories,
                report.folded_billboards,
                serde_json::to_string(&report.changed_billboards).expect("stub never fails"),
            ),
            Response::EpochStats { id, stats } => format!(
                "{{\"type\":\"epoch_stats\",\"id\":{id},\"epoch\":{},\"base_epoch\":{},\
                 \"compactions\":{},\"n_billboards\":{},\"n_trajectories\":{},\"n_retired\":{},\
                 \"overlay_trajectories\":{},\"overlay_billboards\":{}}}",
                stats.epoch,
                stats.base_epoch,
                stats.compactions,
                stats.n_billboards,
                stats.n_trajectories,
                stats.n_retired,
                stats.overlay_trajectories,
                stats.overlay_billboards,
            ),
            Response::Bye { id } => format!("{{\"type\":\"bye\",\"id\":{id}}}"),
            Response::Redirect { id, leader } => {
                let mut quoted = String::new();
                serde::write_json_string(leader, &mut quoted);
                format!(
                    "{{\"type\":\"redirect\",\"id\":{id},\"leader\":{quoted},\
                     \"message\":\"read-only follower: send mutations to the leader\"}}"
                )
            }
            Response::Error { id, message } => {
                let mut quoted = String::new();
                serde::write_json_string(message, &mut quoted);
                format!("{{\"type\":\"error\",\"id\":{id},\"message\":{quoted}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_data::BillboardId;
    use mroam_geo::Point;
    use mroam_stream::{BillboardEvent, TrajectoryDelta};

    #[test]
    fn request_encode_decode_roundtrip() {
        let reqs = vec![
            Request::Submit {
                id: 3,
                proposal: Proposal {
                    demand: 40,
                    payment: 38.0,
                    duration_days: 2,
                    zone: None,
                },
            },
            Request::Submit {
                id: 9,
                proposal: Proposal {
                    demand: 12,
                    payment: 10.5,
                    duration_days: 1,
                    zone: Some(3),
                },
            },
            Request::RunDay { id: 4 },
            Request::QueryCoverage {
                id: 5,
                billboards: vec![0, 2, 7],
            },
            Request::Stats { id: 6 },
            Request::Snapshot { id: 7 },
            Request::Ingest {
                id: 9,
                batch: IngestBatch {
                    billboard_events: vec![
                        BillboardEvent::Add {
                            location: Point::new(10.5, -3.25),
                        },
                        BillboardEvent::Retire { id: 2 },
                    ],
                    trajectories: vec![TrajectoryDelta {
                        points: vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)],
                        timestamps: vec![0.0, 0.5],
                    }],
                },
            },
            Request::Compact { id: 10 },
            Request::EpochStats { id: 11 },
            Request::Shutdown { id: 8 },
        ];
        for req in reqs {
            let v = serde_json::from_str(&req.encode()).expect("valid JSON");
            assert_eq!(Request::decode(&v).expect("decodes"), req);
        }
    }

    #[test]
    fn unknown_type_is_rejected() {
        for kind in ["frobnicate", "solve"] {
            let v = serde_json::from_str(&format!(r#"{{"type":"{kind}","id":1}}"#)).unwrap();
            assert!(Request::decode(&v).is_err(), "{kind}");
        }
    }

    #[test]
    fn ingest_timestamps_default_to_constant_speed() {
        let v = serde_json::from_str(
            r#"{"type":"ingest","id":1,"trajectories":[{"points":[[0,0],[20,0]]}]}"#,
        )
        .unwrap();
        let Request::Ingest { batch, .. } = Request::decode(&v).unwrap() else {
            panic!("expected ingest");
        };
        assert_eq!(
            batch.trajectories,
            vec![TrajectoryDelta::at_speed(
                vec![Point::new(0.0, 0.0), Point::new(20.0, 0.0)],
                DEFAULT_INGEST_SPEED_MPS,
            )]
        );
        assert!(batch.billboard_events.is_empty());
    }

    #[test]
    fn malformed_ingest_fields_are_rejected() {
        for doc in [
            r#"{"type":"ingest","id":1,"trajectories":[{"points":[[0]]}]}"#,
            r#"{"type":"ingest","id":1,"trajectories":[{"points":[[0,0]],"timestamps":["x"]}]}"#,
            r#"{"type":"ingest","id":1,"add_billboards":[[1]]}"#,
            r#"{"type":"ingest","id":1,"retire_billboards":[-1]}"#,
        ] {
            let v = serde_json::from_str(doc).unwrap();
            assert!(Request::decode(&v).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn responses_encode_as_parseable_json() {
        let responses = vec![
            Response::Allocated {
                id: 1,
                day: 0,
                outcome: ProposalOutcome {
                    influence: 12,
                    satisfied: true,
                    collected: 10.0,
                    regret: 0.5,
                    billboards: vec![BillboardId(1), BillboardId(4)],
                    expires: 3,
                },
                wait_micros: 250,
            },
            Response::DayClosed {
                id: 2,
                batch_size: 3,
                record: DayRecord::default(),
            },
            Response::Coverage {
                id: 3,
                influence: 99,
                free_total: 7,
            },
            Response::Stats {
                id: 4,
                stats: Box::default(),
            },
            Response::Snapshot {
                id: 5,
                state_json: "{\"version\":1}".into(),
            },
            Response::Ingested {
                id: 8,
                report: IngestReport {
                    epoch: 2,
                    new_trajectories: 5,
                    new_billboards: 1,
                    retired: 1,
                    changed_billboards: vec![0, 3, 9],
                },
            },
            Response::Compacted {
                id: 9,
                report: CompactionReport {
                    epoch: 2,
                    folded_trajectories: 5,
                    folded_billboards: 1,
                    changed_billboards: vec![0, 3, 9],
                },
            },
            Response::EpochStats {
                id: 10,
                stats: EpochStats {
                    epoch: 4,
                    base_epoch: 2,
                    compactions: 1,
                    n_billboards: 12,
                    n_trajectories: 90,
                    n_retired: 2,
                    overlay_trajectories: 10,
                    overlay_billboards: 1,
                },
            },
            Response::Bye { id: 6 },
            Response::Redirect {
                id: 12,
                leader: "127.0.0.1:7464".into(),
            },
            Response::Error {
                id: 7,
                message: "bad \"quote\"".into(),
            },
        ];
        for r in responses {
            let v = serde_json::from_str(&r.encode()).expect("valid JSON");
            assert!(v["type"].as_str().is_some());
            assert!(v["id"].as_f64().is_some());
        }
    }

    #[test]
    fn allocated_carries_the_outcome_fields() {
        let r = Response::Allocated {
            id: 11,
            day: 2,
            outcome: ProposalOutcome {
                influence: 8,
                satisfied: false,
                collected: 4.0,
                regret: 6.0,
                billboards: vec![BillboardId(3)],
                expires: 5,
            },
            wait_micros: 1000,
        };
        let v = serde_json::from_str(&r.encode()).unwrap();
        assert_eq!(v["day"].as_f64(), Some(2.0));
        assert_eq!(v["influence"].as_f64(), Some(8.0));
        assert_eq!(v["satisfied"].as_bool(), Some(false));
        assert_eq!(v["billboards"][0].as_f64(), Some(3.0));
        assert_eq!(v["expires"].as_f64(), Some(5.0));
    }
}
