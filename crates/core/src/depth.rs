//! Depth-optimal synthesis (paper §5).
//!
//! "Minor modifications to the algorithm could be explored ... for
//! practicality, one may be interested in minimizing depth. ... To
//! optimize depth, one needs to consider a different family of gates,
//! where, for instance, sequence NOT(a) CNOT(b, c) is counted as a single
//! gate." — that family is the [`Layer`] alphabet (all sets of
//! pairwise-disjoint gates), and this module runs the same
//! symmetry-reduced breadth-first search over it.
//!
//! The ×48 reduction survives because relabeling a layer's wires yields a
//! layer (the alphabet is closed under conjugation — tested in
//! `revsynth-circuit`) and reversing a schedule reverses its layers.
//! Completeness mirrors the gate-count argument: a depth-`d` function has
//! a schedule whose last layer can be stripped, leaving depth `d − 1`.

use std::collections::HashMap;
use std::fmt;

use revsynth_canon::Symmetries;
use revsynth_circuit::{all_layers, Circuit, GateLib, Layer};
use revsynth_perm::Perm;

use crate::error::SynthesisError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DepthRecord {
    depth: u16,
    /// Index into `layers` of a boundary layer (in the representative's
    /// frame), or `None` for the identity.
    layer: Option<(u16, bool)>, // (layer index, is_first)
}

/// Depth-optimal synthesizer: finds circuits minimizing the number of
/// parallel time steps instead of the gate count.
///
/// # Example
///
/// ```
/// use revsynth_circuit::{Circuit, GateLib};
/// use revsynth_core::DepthSynthesizer;
///
/// let synth = DepthSynthesizer::generate(GateLib::nct(4), 3);
/// // NOT(a) CNOT(b,c) is one time step (the paper's own example).
/// let c: Circuit = "NOT(a) CNOT(b,c)".parse()?;
/// assert_eq!(synth.depth_of(c.perm(4)), Some(1));
/// # Ok::<(), revsynth_circuit::ParseCircuitError>(())
/// ```
pub struct DepthSynthesizer {
    lib: GateLib,
    sym: Symmetries,
    layers: Vec<Layer>,
    max_depth: usize,
    settled: HashMap<Perm, DepthRecord>,
    by_depth: Vec<Vec<Perm>>,
}

impl DepthSynthesizer {
    /// Runs the layer-alphabet breadth-first search to depth `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth > 16` (no 4-bit function needs anywhere near
    /// 16 layers).
    #[must_use]
    pub fn generate(lib: GateLib, max_depth: usize) -> Self {
        assert!(
            max_depth <= 16,
            "max_depth {max_depth} is beyond any reachable depth"
        );
        let n = lib.wires();
        let sym = revsynth_bfs::symmetries(n);
        let layers = all_layers(&lib);
        let layer_index: HashMap<Layer, u16> = layers
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), u16::try_from(i).expect("layer count fits u16")))
            .collect();
        let layer_perms: Vec<Perm> = layers.iter().map(|l| l.perm(n)).collect();

        let mut settled: HashMap<Perm, DepthRecord> = HashMap::new();
        settled.insert(
            Perm::identity(),
            DepthRecord {
                depth: 0,
                layer: None,
            },
        );
        let mut by_depth: Vec<Vec<Perm>> = vec![vec![Perm::identity()]];

        for d in 1..=max_depth {
            let mut level: Vec<Perm> = Vec::new();
            let prev = by_depth[d - 1].clone();
            for f in prev.into_iter().flat_map(|f| {
                let inv = f.inverse();
                if inv == f {
                    vec![f]
                } else {
                    vec![f, inv]
                }
            }) {
                for (i, layer) in layers.iter().enumerate() {
                    let h = f.then(layer_perms[i]);
                    let w = sym.canonicalize(h);
                    if settled.contains_key(&w.rep) {
                        continue;
                    }
                    let stored = layer.conjugate_by_wires(w.sigma);
                    let idx = layer_index[&stored];
                    settled.insert(
                        w.rep,
                        DepthRecord {
                            depth: d as u16,
                            layer: Some((idx, w.inverted)),
                        },
                    );
                    level.push(w.rep);
                }
            }
            level.sort_unstable();
            if level.is_empty() {
                break;
            }
            by_depth.push(level);
        }

        DepthSynthesizer {
            lib,
            sym,
            layers,
            max_depth,
            settled,
            by_depth,
        }
    }

    /// The gate library underlying the layer alphabet.
    #[must_use]
    pub fn lib(&self) -> &GateLib {
        &self.lib
    }

    /// The layer alphabet (103 layers for the 4-wire NCT library).
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The depth budget of the generation run.
    #[must_use]
    pub const fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The minimal depth of `f`, if within the generated budget.
    #[must_use]
    pub fn depth_of(&self, f: Perm) -> Option<usize> {
        self.settled
            .get(&self.sym.canonical(f))
            .map(|r| usize::from(r.depth))
    }

    /// A depth-minimal circuit for `f` (gates emitted layer by layer), or
    /// `None` beyond the budget.
    #[must_use]
    pub fn synthesize(&self, f: Perm) -> Option<Circuit> {
        let n = self.lib.wires();
        let mut front: Vec<Layer> = Vec::new();
        let mut back: Vec<Layer> = Vec::new();
        let mut cur = f;
        loop {
            if cur.is_identity() {
                let mut gates = Vec::new();
                for layer in front.iter().chain(back.iter().rev()) {
                    gates.extend_from_slice(layer.gates());
                }
                return Some(Circuit::from_gates(gates));
            }
            let w = self.sym.canonicalize(cur);
            let record = self.settled.get(&w.rep)?;
            let (idx, is_first) = record.layer.expect("non-identity record has a layer");
            let layer = self.layers[usize::from(idx)].conjugate_by_wires(w.sigma.inverse());
            let layer_perm = layer.perm(n);
            if w.inverted == is_first {
                back.push(layer);
                cur = cur.then(layer_perm);
            } else {
                front.push(layer);
                cur = layer_perm.then(cur);
            }
        }
    }

    /// Like [`synthesize`](Self::synthesize) but with a typed error.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::SizeExceedsLimit`] when `f`'s depth exceeds the
    /// budget (the limit reported is the depth budget).
    pub fn try_synthesize(&self, f: Perm) -> Result<Circuit, SynthesisError> {
        self.synthesize(f).ok_or(SynthesisError::SizeExceedsLimit {
            function: f,
            limit: self.max_depth,
        })
    }

    /// Census rows `(depth, classes, functions)`.
    #[must_use]
    pub fn counts(&self) -> Vec<(usize, u64, u64)> {
        let mut buf = Vec::with_capacity(self.sym.max_class_size());
        self.by_depth
            .iter()
            .enumerate()
            .map(|(d, reps)| {
                let mut functions = 0u64;
                for &rep in reps {
                    self.sym.class_members_into(rep, &mut buf);
                    functions += buf.len() as u64;
                }
                (d, reps.len() as u64, functions)
            })
            .collect()
    }
}

impl fmt::Debug for DepthSynthesizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DepthSynthesizer(n={}, max depth {}, {} classes, {} layers)",
            self.lib.wires(),
            self.max_depth,
            self.settled.len(),
            self.layers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as Map;

    /// Whole-space depth BFS without symmetry, as the oracle.
    fn reference_depths(lib: &GateLib, max_depth: usize) -> Map<Perm, usize> {
        let n = lib.wires();
        let layer_perms: Vec<Perm> = all_layers(lib).iter().map(|l| l.perm(n)).collect();
        let mut depths = Map::new();
        depths.insert(Perm::identity(), 0usize);
        let mut frontier = vec![Perm::identity()];
        for d in 1..=max_depth {
            let mut next = Vec::new();
            for &f in &frontier {
                for &lp in &layer_perms {
                    let h = f.then(lp);
                    if let std::collections::hash_map::Entry::Vacant(e) = depths.entry(h) {
                        e.insert(d);
                        next.push(h);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        depths
    }

    #[test]
    fn paper_example_not_a_cnot_bc_is_depth_1() {
        let synth = DepthSynthesizer::generate(GateLib::nct(4), 2);
        let c: Circuit = "NOT(a) CNOT(b,c)".parse().unwrap();
        assert_eq!(synth.depth_of(c.perm(4)), Some(1));
        let found = synth.synthesize(c.perm(4)).unwrap();
        assert_eq!(found.perm(4), c.perm(4));
        assert_eq!(found.depth(), 1);
    }

    #[test]
    fn exhaustive_n2_matches_reference() {
        let lib = GateLib::nct(2);
        let oracle = reference_depths(&lib, 12);
        assert_eq!(oracle.len(), 24, "all of S4 reachable");
        let max = *oracle.values().max().unwrap();
        let synth = DepthSynthesizer::generate(GateLib::nct(2), max);
        for (&f, &d) in &oracle {
            assert_eq!(synth.depth_of(f), Some(d), "f = {f}");
            let c = synth.synthesize(f).unwrap();
            assert_eq!(c.perm(2), f);
            assert_eq!(c.depth(), d, "schedule must realize the optimal depth");
        }
    }

    #[test]
    fn exhaustive_n3_matches_reference() {
        let lib = GateLib::nct(3);
        let oracle = reference_depths(&lib, 16);
        assert_eq!(oracle.len(), 40_320, "all of S8 reachable");
        let max = *oracle.values().max().unwrap();
        let synth = DepthSynthesizer::generate(GateLib::nct(3), max);
        for (i, (&f, &d)) in oracle.iter().enumerate() {
            assert_eq!(synth.depth_of(f), Some(d), "f = {f}");
            if i % 101 == 0 {
                let c = synth.synthesize(f).unwrap();
                assert_eq!(c.perm(3), f);
                assert_eq!(c.depth(), d);
            }
        }
    }

    #[test]
    fn depth_never_exceeds_size() {
        use crate::Synthesizer;
        let depth_synth = DepthSynthesizer::generate(GateLib::nct(4), 3);
        let size_synth = Synthesizer::from_scratch(4, 3);
        for reps in &depth_synth.by_depth {
            for &rep in reps.iter().step_by(23) {
                let d = depth_synth.depth_of(rep).unwrap();
                if let Ok(s) = size_synth.size(rep) {
                    assert!(d <= s, "depth {d} > size {s} for {rep}");
                }
            }
        }
    }

    #[test]
    fn depth_census_level_1_counts_layers() {
        // Depth-1 classes = equivalence classes of the 103 layers.
        let synth = DepthSynthesizer::generate(GateLib::nct(4), 1);
        let counts = synth.counts();
        assert_eq!(counts[0], (0, 1, 1));
        let (_, _, functions) = counts[1];
        // Every layer computes a distinct function, and layer perms are
        // closed under the equivalence moves, so the level-1 function
        // count is exactly the number of layers.
        assert_eq!(functions, 103);
    }

    #[test]
    fn beyond_budget_is_none() {
        let synth = DepthSynthesizer::generate(GateLib::nct(3), 1);
        let c: Circuit = "CNOT(a,b) CNOT(b,c) CNOT(c,a)".parse().unwrap();
        let f = c.perm(3);
        if synth.depth_of(f).is_none() {
            assert!(synth.synthesize(f).is_none());
            assert!(synth.try_synthesize(f).is_err());
        }
    }
}
