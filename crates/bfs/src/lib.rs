//! Breadth-first generation of all optimal reversible functions of size ≤ k
//! (Algorithm 2 of the paper).
//!
//! The output of the search is a [`SearchTables`] value holding, for every
//! equivalence class (see [`revsynth_canon`]) of optimal circuit size
//! `0 ≤ s ≤ k`:
//!
//! * the canonical representative, stored in a linear-probing hash table
//!   ([`revsynth_table::FnTable`]) for the O(1) membership test of the
//!   search-and-lookup algorithm, and
//! * one byte recording either the **last** or the **first** gate of a
//!   minimal circuit for the representative — enough to reconstruct an
//!   entire minimal circuit by repeated peeling (paper §3.2);
//! * per-size lists of representatives (the paper's lists `A_i`), used by
//!   the meet-in-the-middle phase of Algorithm 1 and for the exact counts of
//!   the paper's Table 4.
//!
//! Level `i` is produced by composing every level-`(i−1)` representative
//! *and its inverse* with all 32 gates and canonicalizing; a class not seen
//! before has size exactly `i`. The completeness argument is documented in
//! the `generate` module source.
//!
//! The paper ran this to k = 9 in ~3 hours on a 16-core, 64 GB machine;
//! the defaults here (k = 6 for tests, k = 7 for experiments) run in
//! seconds to a couple of minutes on one laptop core, and the same code
//! scales to k = 8–9 given the paper's hardware (see the README's "Deep
//! tables: checkpointing & resume").
//!
//! # Example
//!
//! ```
//! use revsynth_bfs::SearchTables;
//!
//! // All 3-wire reversible functions of optimal size ≤ 3.
//! let tables = SearchTables::generate(3, 3);
//! let counts = tables.counts();
//! assert_eq!(counts[1].functions, 12); // the 12 gates of the 3-wire library
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod expand;
mod generate;
mod info;
pub mod reference;
mod store;
mod tables;
mod weighted;

pub use counts::LevelCount;
pub use expand::GenOptions;
pub use info::{decode_stored, encode_stored, CorruptRecord, StoredGate, IDENTITY_BYTE};
pub use store::{file_digest, LevelInfo, StoreError, StoreErrorKind, StoreInfo};
pub use tables::{Levels, LevelsIter, SearchTables};

use revsynth_canon::Symmetries;

/// The symmetries of `n` wires that every table built or loaded here
/// canonicalizes with. At n = 4 that is the SSSE3 shuffle-table kernel
/// of [`revsynth_mmap::shuffle`] where the CPU has SSSE3; everywhere
/// else it is the plain-changes walk. Only the CPU and `n` decide, and
/// both give the same representatives and witnesses.
///
/// # Panics
///
/// Panics if `n` is not 2, 3 or 4.
#[must_use]
pub fn symmetries(n: usize) -> Symmetries {
    let sym = Symmetries::new(n);
    match revsynth_mmap::shuffle::kernel() {
        // The kernel always computes 48 conjugates; below 4 wires the
        // walk's 2·(n! − 1) steps (2 or 10) are faster.
        Some(name) if n == 4 => sym.with_kernel(name, revsynth_mmap::shuffle::first_min_conjugate),
        _ => sym,
    }
}
