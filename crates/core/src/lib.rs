//! Optimal synthesis of 4-bit reversible circuits — the search-and-lookup
//! algorithm (Algorithm 1) of *Synthesis of the Optimal 4-bit Reversible
//! Circuits* (Golubitsky, Falconer, Maslov; DAC 2010).
//!
//! Given the breadth-first tables of all equivalence classes of optimal
//! size ≤ k ([`revsynth_bfs::SearchTables`]), a [`Synthesizer`] produces a
//! provably gate-count-minimal circuit for **any** reversible function of
//! size ≤ 2k:
//!
//! * **Fast path** (size ≤ k): canonicalize, look up the stored boundary
//!   gate, map it back through the canonicalization witness, peel it off
//!   the correct end, repeat. Each step is one hash probe plus O(1) work.
//! * **Meet-in-the-middle** (k < size ≤ 2k): scan the size-`i` lists in
//!   increasing `i`; for every size-`i` function `g`, test whether
//!   `f.then(g)` has size ≤ k via one canonicalization and one hash probe.
//!   The first hit yields the two halves, both synthesized by the fast
//!   path. Minimality: no hit can occur at `i < size(f) − k` (the residue
//!   would need size > k), and every hit at the first `i` has residue size
//!   exactly `k`, so the assembled circuit has exactly `size(f)` gates.
//!
//! The meet-in-the-middle phase runs on the frame-hoisted, batched,
//! parallel engine of the [`search`] module: query frames are hoisted and
//! deduplicated once, stored representatives are scanned directly (no
//! per-representative class expansion), an **invariant gate** skips
//! candidates whose class invariants prove they cannot be in the table
//! (on by default, [`SearchOptions::filter`]; selectivity reported via
//! [`SearchStats`]), probes ride a W-deep wavefront
//! ([`SearchOptions::probe_depth`]), and level scans can be sharded
//! across threads ([`SearchOptions`]) or amortized over whole batches
//! ([`Synthesizer::synthesize_many`] / [`Synthesizer::size_many`]) with
//! identical circuits and sizes for every thread count, gate setting and
//! wavefront depth.
//!
//! The same engine serves weighted costs (paper §5): over cost-bucketed
//! tables ([`revsynth_bfs::SearchTables::generate_weighted`]) the scan
//! runs under one residue rule that reduces to the exact-`k` residue on
//! gate-count tables (see the [`search`] module docs).
//!
//! With k = 9 the paper synthesizes a random 4-bit permutation in ~0.01 s;
//! with the laptop-scale defaults here (k = 6–7) the same code covers all
//! sizes the paper ever observed (≤ 14 = 2·7) with larger list scans.
//!
//! # Example
//!
//! ```
//! use revsynth_core::Synthesizer;
//! use revsynth_perm::Perm;
//!
//! // Small tables: k = 2 synthesizes any function of size ≤ 4.
//! let synth = Synthesizer::from_scratch(4, 2);
//! // The rd32 adder benchmark (paper Table 6) — proved optimal at 4 gates.
//! let f = Perm::from_values(&[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5])?;
//! let circuit = synth.synthesize(f)?;
//! assert_eq!(circuit.len(), 4);
//! assert_eq!(circuit.perm(4), f);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod depth;
mod error;
mod peephole;
pub mod search;
mod suite;
mod synth;

pub use depth::DepthSynthesizer;
pub use error::SynthesisError;
pub use peephole::PeepholeOptimizer;
pub use search::{SearchOptions, SearchStats};
pub use suite::{SuiteConfig, SynthesisSuite};
pub use synth::{Synthesis, Synthesizer};
