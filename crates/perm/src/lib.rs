//! Bit-packed permutation kernel for optimal reversible-circuit synthesis.
//!
//! This crate implements the low-level machine representation from §3.3 of
//! *Synthesis of the Optimal 4-bit Reversible Circuits* (Golubitsky,
//! Falconer, Maslov; DAC 2010): an `n`-bit reversible function (`n ≤ 4`) is a
//! permutation of `{0, …, 2ⁿ−1}` stored in a single `u64`, with 4 bits
//! allocated to each value `f(0), f(1), …, f(15)`.
//!
//! Functions on fewer than 4 wires are embedded as permutations of
//! `{0, …, 15}` that fix every point outside `{0, …, 2ⁿ−1}`. Because the
//! embedding pads with the *identity*, composition, inversion and comparison
//! are uniform straight-line code for every `n` — there is no `n` parameter
//! anywhere in the hot path.
//!
//! The three kernels the paper counts machine instructions for are here:
//!
//! * [`Perm::then`] — functional composition (the paper's `composition`,
//!   94 instructions),
//! * [`Perm::inverse`] — inversion (the paper's `inverse`, 59 instructions),
//! * [`Perm::conjugate_swap`] — conjugation by a simultaneous input/output
//!   relabeling that swaps two wires (the paper's `conjugate01`,
//!   14 instructions), generalized to all six wire pairs via compile-time
//!   mask tables.
//!
//! # Example
//!
//! ```
//! use revsynth_perm::Perm;
//!
//! // The `shift4` benchmark: x ↦ x + 1 (mod 16).
//! let shift: Vec<u8> = (0..16).map(|x| ((x + 1) % 16) as u8).collect();
//! let p = Perm::from_values(&shift)?;
//! assert_eq!(p.apply(15), 0);
//! assert_eq!(p.then(p.inverse()), Perm::identity());
//! # Ok::<(), revsynth_perm::InvalidPermError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hash;
mod masks;
mod packed;
mod wire;

pub use error::InvalidPermError;
pub use hash::hash64shift;
pub use masks::{TranspositionMasks, TRANSPOSITION_MASKS};
pub use packed::{Perm, WEIGHT_MIX};
pub use wire::{WirePerm, MAX_WIRES};

/// Maximum number of wires representable in the packed `u64` encoding.
///
/// Each of the `2ⁿ` values needs 4 bits, so `2ⁿ · 4 ≤ 64` forces `n ≤ 4`.
/// Extending the search to 5 wires (the paper's §5 future work) requires a
/// 160-bit representation and is out of scope for this crate.
pub const MAX_SUPPORTED_WIRES: usize = 4;
