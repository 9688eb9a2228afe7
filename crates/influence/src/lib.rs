//! Coverage/influence engine for the MROAM reproduction.
//!
//! Section 7.1.2 of the paper defines the influence model this crate
//! implements: a Bernoulli variable `p(o, t) = 1` iff some point of
//! trajectory `t` lies within `λ` metres of billboard `o`; the influence of a
//! billboard set is `I(S) = Σ_t (1 − Π_{o∈S}(1 − p(o, t)))`, i.e. the number
//! of **distinct trajectories** covered by the set. Every MROAM algorithm is
//! built on fast evaluation of `I(S)` under single-billboard insertions,
//! removals, and swaps, which is what this crate provides:
//!
//! * [`bitset::BitSet`] — a fixed-size bitset substrate,
//! * [`kernel`] — the chunked popcount/AND/OR word kernels every bit-level
//!   hot loop bottoms out in,
//! * [`hash`] — an FxHash-style hasher for hot integer-keyed maps,
//! * [`meets`] — computes the billboard→trajectory meets relation with a
//!   grid index (parallelised over trajectories),
//! * [`CoverageModel`] — per-billboard sorted coverage lists, individual
//!   influences, and the host's total supply `I* = Σ_o I({o})`,
//! * [`CoverageCounter`] — an incremental multiset counter giving O(|cov(o)|)
//!   add/remove/marginal-gain (dense or sparse, auto-selected),
//! * [`curves`] — the Figure 1 distribution curves.

pub mod bitset;
pub mod counter;
pub mod curves;
pub mod extend;
pub mod hash;
pub mod kernel;
pub mod measure;
pub mod meets;
pub mod model;
pub mod slots;
pub mod storage;

pub use bitset::BitSet;
pub use counter::CoverageCounter;
pub use extend::CoverageDelta;
pub use measure::{InfluenceMeasure, MeasuredCounter};
pub use model::{
    CovSource, CoverageBitmap, CoverageLists, CoverageModel, InvertedIndex, ModelMemoryStats,
    OverlapGraph,
};
pub use slots::{SlotGrid, SlottedModel};
