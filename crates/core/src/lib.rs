//! The MROAM core library.
//!
//! Implements the primary contribution of *"Minimizing the Regret of an
//! Influence Provider"* (SIGMOD 2021): the host-side regret model
//! (Equation 1), its dual revenue objective (Equation 2), and the four
//! deployment algorithms evaluated in the paper —
//!
//! * [`GOrder`](greedy::GOrder) — budget-effective greedy (Algorithm 1),
//! * [`GGlobal`](greedy::GGlobal) — synchronous greedy (Algorithm 2),
//! * [`Als`](als::Als) — randomized restarts + advertiser-driven local
//!   search (Algorithms 3 & 4),
//! * [`Bls`](bls::Bls) — billboard-driven local search (Algorithm 5), with
//!   the `(1+r)`-approximate-local-maximum knob from Definition 6.1,
//!
//! plus an exact brute-force solver for tiny instances and the N3DM
//! reduction used in the Section 4 hardness proof.
//!
//! # Quickstart
//!
//! ```
//! use mroam_core::prelude::*;
//! use mroam_influence::CoverageModel;
//!
//! // Example 1 of the paper: six billboards with disjoint coverage and
//! // the Table 1 influences 2, 6, 3, 7, 1, 1.
//! let mut lists = Vec::new();
//! let mut next = 0u32;
//! for k in [2u32, 6, 3, 7, 1, 1] {
//!     lists.push((next..next + k).collect::<Vec<u32>>());
//!     next += k;
//! }
//! let model = CoverageModel::from_lists(lists, next as usize);
//!
//! // Three advertisers: (demand, payment) = (5, $10), (7, $11), (8, $20).
//! let advertisers = AdvertiserSet::new(vec![
//!     Advertiser::new(5, 10.0),
//!     Advertiser::new(7, 11.0),
//!     Advertiser::new(8, 20.0),
//! ]);
//!
//! let instance = Instance::new(&model, &advertisers, 0.5);
//! let solution = Bls::default().solve(&instance);
//! // Strategy 2 of Example 1 achieves zero regret; BLS finds it.
//! assert_eq!(solution.total_regret, 0.0);
//! ```

pub mod advertiser;
pub mod allocation;
pub mod als;
pub mod bls;
pub mod exact;
pub mod gain;
pub mod greedy;
pub mod instance;
pub mod moves;
pub mod n3dm;
pub mod regret;
pub mod solver;
pub mod theory;
pub mod warm;

pub mod testutil;

pub use advertiser::{Advertiser, AdvertiserSet};
pub use allocation::Allocation;
pub use gain::GainEngine;
pub use instance::Instance;
pub use moves::MoveEngine;
pub use regret::{dual_revenue, regret, RegretBreakdown};
pub use solver::{Solution, Solver};
pub use warm::{solution_carries_over, warm_solve};

/// Convenient glob import for downstream code.
pub mod prelude {
    pub use crate::advertiser::{Advertiser, AdvertiserSet};
    pub use crate::allocation::Allocation;
    pub use crate::als::Als;
    pub use crate::bls::Bls;
    pub use crate::exact::ExactSolver;
    pub use crate::gain::GainEngine;
    pub use crate::greedy::{GGlobal, GOrder};
    pub use crate::instance::Instance;
    pub use crate::moves::MoveEngine;
    pub use crate::regret::{dual_revenue, regret, RegretBreakdown};
    pub use crate::solver::{Solution, Solver};
    pub use crate::warm::{solution_carries_over, warm_bls, warm_g_global, warm_solve};
}
