//! Equivalence classes of reversible functions under simultaneous
//! input/output relabeling and inversion (paper §3.2).
//!
//! Two reversible functions are **equivalent** when one can be obtained from
//! the other by a simultaneous relabeling of inputs and outputs
//! (`f_σ = π_σ ∘ f ∘ π_σ⁻¹` for a wire permutation `σ`), by inversion, or by
//! both. Equivalent functions have the same optimal circuit size, and a
//! minimal circuit for any member is obtained from a minimal circuit of the
//! class representative by relabeling wires and/or reversing the gate string
//! — so the breadth-first search only needs to store **one representative
//! per class**, shrinking storage by a factor of almost `2 · 4! = 48`.
//!
//! The canonical representative is the class member whose packed word
//! ([`revsynth_perm::Perm::packed`]) is smallest. The paper finds it by
//! conjugating `f` and `f⁻¹` through all 24 relabelings along 46 chained
//! adjacent-wire transpositions (a plain-changes walk through the
//! symmetric group), comparing packed words along the way — one
//! inversion, 46 conjugations and 47 comparisons in total
//! ([`Symmetries::canonical_walk`]). The same minimum, with the same
//! witness, also comes from a shuffle-table kernel that computes every
//! conjugate independently with two byte shuffles ([`ShuffleKernel`]).
//! That kernel needs SSSE3 and `unsafe`, so it lives in `revsynth-mmap`;
//! `revsynth_bfs::symmetries` attaches it where the CPU has SSSE3, and
//! the walk runs everywhere else.
//!
//! # Example
//!
//! ```
//! use revsynth_canon::Symmetries;
//! use revsynth_perm::Perm;
//!
//! let sym = Symmetries::new(4);
//! let f = Perm::from_values(&[1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])?;
//! // NOT(a) is equivalent to exactly the four NOT gates (paper §3.2 example).
//! assert_eq!(sym.class_size(f), 4);
//! let rep = sym.canonical(f);
//! assert_eq!(sym.canonical(f.inverse()), rep);
//! # Ok::<(), revsynth_perm::InvalidPermError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod replay;
mod symmetries;

pub use class::ClassStats;
pub use replay::replay_for_witness;
pub use symmetries::{Canonicalized, Frames, ShuffleKernel, Symmetries, SHUFFLE_TABLES};
