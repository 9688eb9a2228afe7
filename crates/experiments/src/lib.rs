//! Experiment harness for the MROAM reproduction.
//!
//! One binary per paper artefact (see `src/bin/`): Table 5, Figure 1, the
//! regret sweeps of Figures 2–7, the running-time sweeps of Figures 8–9,
//! the γ sweeps of Figures 10–11, and the λ sweep of Figure 12. Every
//! binary prints the same rows/series the paper plots, so EXPERIMENTS.md can
//! record paper-vs-measured shape comparisons.
//!
//! Shared here: the Table 6 parameter grid ([`params`]), dataset/solver
//! setup ([`setup`]), sweep execution ([`run`]), plain-text table
//! rendering ([`table`]), and the `results/BENCH_*.json` recorder
//! ([`record`]).

pub mod args;
pub mod cache;
pub mod chart;
pub mod cli_io;
pub mod params;
pub mod record;
pub mod rss;
pub mod run;
pub mod setup;
pub mod table;

pub use args::Args;
pub use run::{AlgoResult, SweepRow};
pub use setup::{build_city, CityKind, Scale};
