//! Linear-probing hash table keyed by packed reversible functions.
//!
//! The membership test of the search-and-lookup algorithm (paper §3.1) must
//! answer "is this canonical representative of size ≤ k?" in a handful of
//! nanoseconds over hundreds of millions of entries. The paper uses a
//! **linear probing** open-addressing table with Thomas Wang's
//! `hash64shift` hash (§3.3, Table 2); this crate reproduces that design:
//!
//! * keys are packed permutations ([`revsynth_perm::Perm`]), stored inline
//!   in a flat `u64` array (8 bytes per slot, power-of-two capacity);
//! * values are one byte (the synthesis pipeline packs a gate and a
//!   first/last flag into it);
//! * the empty slot marker is `u64::MAX`, which is not a valid packed
//!   permutation, so no key is ever ambiguous;
//! * probe and cluster statistics match the columns of the paper's Table 2
//!   (load factor, average/maximal chain length).
//!
//! # Example
//!
//! ```
//! use revsynth_perm::Perm;
//! use revsynth_table::FnTable;
//!
//! let mut table = FnTable::for_entries(100);
//! table.insert(Perm::identity(), 7);
//! assert_eq!(table.get(Perm::identity()), Some(7));
//! assert_eq!(table.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod invariant;
mod ring;
mod stats;
mod storage;
mod table;

pub use batch::{ByteForm, CandidateBatch};
pub use invariant::InvariantIndex;
pub use ring::ProbeRing;
pub use stats::TableStats;
pub use table::{FnTable, Probe};
