//! Experiment harness for the paper's evaluation section.
//!
//! * [`random`] — uniform random permutation sampling and optimal-size
//!   distributions (paper §4.1, Table 3: 10 M random permutations,
//!   weighted average 11.94 gates).
//! * [`estimate`] — extrapolation of the exact Table 4 counts to sizes
//!   beyond k from a random sample (paper §4.2, Table 4 rows 10..17).
//! * [`timing`] — average synthesis time per optimal size (paper Table 1).
//! * [`hard`] — the §4.5 time-boxed search for a permutation needing more
//!   than 14 gates (extension of hard circuits by boundary gates).
//!
//! All randomness is seeded and reproducible. The paper used a Mersenne
//! twister; any high-quality uniform generator is statistically equivalent
//! for these experiments, and this crate uses the self-contained
//! [`rng::SplitMix64`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod hard;
pub mod random;
pub mod rng;
pub mod testset;
pub mod timing;

pub use estimate::{estimate_counts, SizeEstimate, TOTAL_4BIT_FUNCTIONS};
pub use hard::{HardSearch, HardSearchOutcome};
pub use random::{
    random_perm, sample_distribution, sample_distribution_stats, sample_distribution_with,
    SizeDistribution,
};
pub use rng::{Rng, SplitMix64};
pub use testset::{Score, TestCase, TestSet};
