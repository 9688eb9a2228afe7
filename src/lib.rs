//! # mroam-repro — Minimizing the Regret of an Influence Provider
//!
//! A full Rust reproduction of the SIGMOD 2021 paper *"Minimizing the Regret
//! of an Influence Provider"* (Zhang, Li, Bao, Zheng, Jagadish): the MROAM
//! problem, its regret model, the G-Order / G-Global / ALS / BLS algorithms,
//! the geometric influence substrate they run on, synthetic stand-ins for
//! the paper's NYC and SG datasets, and a harness regenerating every table
//! and figure of the evaluation section.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! * [`geo`] — points, bounding boxes, polylines, grid index;
//! * [`data`] — billboard/trajectory stores, CSV interchange, Table 5 stats;
//! * [`influence`] — the meets relation, coverage model, incremental
//!   counters, Figure 1 curves;
//! * [`core`] — regret model, allocations, all four paper algorithms, the
//!   exact solver, and the N3DM hardness reduction;
//! * [`datagen`] — the synthetic NYC-like and SG-like city generators and
//!   the α / p(ĪA) advertiser workload generator;
//! * [`market`] — a multi-day market simulator (daily proposal arrivals,
//!   contract lifetimes, inventory locking) built on the core library;
//! * [`serve`] — a long-running allocation daemon: JSON protocol over TCP,
//!   adaptive request batching, snapshot/restore, and a load-test harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology and results.
//!
//! ```
//! use mroam_repro::prelude::*;
//!
//! // Generate a small synthetic city, derive a workload, and solve it.
//! let city = NycConfig::test_scale().generate();
//! let model = city.coverage(100.0);
//! let advertisers = WorkloadConfig { alpha: 0.6, p_avg: 0.1, seed: 7 }
//!     .generate(model.supply());
//! let instance = Instance::new(&model, &advertisers, 0.5);
//!
//! let greedy = GGlobal.solve(&instance);
//! let refined = Bls::default().solve(&instance);
//! assert!(refined.total_regret <= greedy.total_regret);
//! ```

pub use mroam_core as core;
pub use mroam_data as data;
pub use mroam_datagen as datagen;
pub use mroam_geo as geo;
pub use mroam_influence as influence;
pub use mroam_market as market;
pub use mroam_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use mroam_core::prelude::*;
    pub use mroam_data::{AdvertiserId, BillboardId, DatasetStats, TrajectoryId};
    pub use mroam_datagen::{City, NycConfig, SgConfig, WorkloadConfig};
    pub use mroam_influence::{CoverageCounter, CoverageModel};
}
