//! Columnar trajectory and billboard stores for the MROAM reproduction.
//!
//! The paper's inputs are a billboard database `U` (LAMAR roadside panels in
//! NYC; JCDecaux bus-stop panels in SG) and a trajectory database `T` (TLC
//! taxi trips; EZ-link bus trips). This crate provides:
//!
//! * typed ids ([`BillboardId`], [`TrajectoryId`], [`AdvertiserId`]) so the
//!   three id spaces can never be confused,
//! * [`TrajectoryStore`] — an in-memory columnar, offset-indexed point
//!   store with per-point timestamps (needed for Table 5's average travel
//!   time); it has no file format of its own, CSV is its interchange,
//! * [`BillboardStore`] — billboard locations plus the influence-proportional
//!   rental cost `o.w = ⌊τ·I(o)/10⌋` from Section 7.1.2,
//! * CSV interchange ([`csv`]) for both stores, and
//! * [`stats::DatasetStats`] reproducing the Table 5 columns.

pub mod billboard;
pub mod col;
pub mod csv;
pub mod ids;
pub mod mmap;
pub mod stats;
pub mod trajectory;

pub use billboard::BillboardStore;
pub use col::Col;
pub use ids::{AdvertiserId, BillboardId, TrajectoryId};
pub use stats::DatasetStats;
pub use trajectory::{StoreError, TrajectoryRef, TrajectoryStore};
