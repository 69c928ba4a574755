//! # revsynth — optimal synthesis of 4-bit reversible circuits
//!
//! A from-scratch Rust reproduction of *Synthesis of the Optimal 4-bit
//! Reversible Circuits* (Oleg Golubitsky, Sean M. Falconer, Dmitri Maslov;
//! DAC 2010, arXiv:1003.1914): gate-count-optimal synthesis of any 4-bit
//! reversible function over the NOT/CNOT/Toffoli/Toffoli-4 library, via
//! symmetry-reduced breadth-first search plus meet-in-the-middle lookup.
//!
//! This crate is the umbrella: it re-exports every subsystem crate under
//! one name and hosts the runnable examples and the cross-crate
//! integration tests.
//!
//! ## Subsystems
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`perm`] | `revsynth-perm` | packed `u64` permutations, bit-twiddling kernels, Wang hash |
//! | [`circuit`] | `revsynth-circuit` | gates, gate libraries, circuits, depth & cost metrics |
//! | [`canon`] | `revsynth-canon` | ×48 symmetry reduction, canonical representatives |
//! | [`table`] | `revsynth-table` | linear-probing hash table (paper Table 2) |
//! | [`bfs`] | `revsynth-bfs` | Algorithm 2: all optimal classes of size ≤ k, persistence |
//! | [`core`] | `revsynth-core` | Algorithm 1: the optimal synthesizer |
//! | [`linear`] | `revsynth-linear` | GF(2) affine functions, Table 5 |
//! | [`specs`] | `revsynth-specs` | Table 6 benchmarks, Figure 2 adder |
//! | [`analysis`] | `revsynth-analysis` | random sampling, estimates, timing, hard search |
//! | [`obs`] | `revsynth-obs` | metrics registry + Prometheus export, trace spans, latency histograms |
//! | [`serve`] | `revsynth-serve` | TCP service: class-keyed result cache, coalescing batch scheduler |
//!
//! ## Quickstart
//!
//! ```
//! use revsynth::core::Synthesizer;
//! use revsynth::specs::benchmark;
//!
//! // k = 3 tables synthesize any function of size ≤ 6 in microseconds.
//! let synth = Synthesizer::from_scratch(4, 3);
//! let rd32 = benchmark("rd32").expect("in Table 6");
//! let circuit = synth.synthesize(rd32.perm())?;
//! assert_eq!(circuit.len(), rd32.optimal_size);
//! println!("{circuit}"); // e.g. TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c)
//! # Ok::<(), revsynth::core::SynthesisError>(())
//! ```
//!
//! Batched, multi-threaded serving with identical results per thread
//! count (the frame-hoisted engine; see `revsynth::core::search`):
//!
//! ```
//! use revsynth::core::{SearchOptions, Synthesizer};
//! use revsynth::specs::benchmark;
//!
//! let synth = Synthesizer::from_scratch(4, 2);
//! let batch = vec![
//!     benchmark("rd32").unwrap().perm(),
//!     benchmark("shift4").unwrap().perm(),
//! ];
//! let opts = SearchOptions::new().threads(2);
//! for result in synth.synthesize_many(&batch, &opts) {
//!     assert_eq!(result?.circuit.len(), 4);
//! }
//! # Ok::<(), revsynth::core::SynthesisError>(())
//! ```
//!
//! See `examples/` for end-to-end programs and the README's Quickstart
//! for the commands that rerun the paper's experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use revsynth_analysis as analysis;
pub use revsynth_bfs as bfs;
pub use revsynth_canon as canon;
pub use revsynth_circuit as circuit;
pub use revsynth_core as core;
pub use revsynth_linear as linear;
pub use revsynth_obs as obs;
pub use revsynth_perm as perm;
pub use revsynth_serve as serve;
pub use revsynth_specs as specs;
pub use revsynth_table as table;
