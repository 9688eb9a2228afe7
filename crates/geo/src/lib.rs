//! Geometry and spatial-indexing substrate for the MROAM reproduction.
//!
//! The paper ("Minimizing the Regret of an Influence Provider", SIGMOD 2021)
//! defines billboard influence through a purely geometric *meets* relation: a
//! billboard influences a trajectory iff some trajectory point lies within a
//! Euclidean distance threshold `λ` of the billboard (Section 7.1.2). This
//! crate provides everything needed to evaluate that relation efficiently:
//!
//! * [`Point`] — planar points in metres with distance helpers,
//! * [`BoundingBox`] — axis-aligned extents,
//! * [`Polyline`] — trajectory-shaped point sequences (length, resampling),
//! * [`GridIndex`] — a uniform-grid spatial index supporting radius queries.
//!
//! All coordinates are planar metres; the synthetic city generators emit
//! metres directly.

pub mod bbox;
pub mod grid;
pub mod point;
pub mod polyline;

pub use bbox::BoundingBox;
pub use grid::GridIndex;
pub use point::Point;
pub use polyline::{resample_into, Polyline};
