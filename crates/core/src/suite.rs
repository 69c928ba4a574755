//! The multi-cost-model synthesis suite: one front door for the three
//! cost axes (paper §5) — gate count, quantum cost and depth.
//!
//! A [`SynthesisSuite`] bundles the gate-count [`Synthesizer`] (the
//! breadth-first tables everything else in the stack already uses) with
//! two **lazily constructed** sibling engines:
//!
//! * a quantum-cost [`Synthesizer`] over cost-bucketed tables
//!   ([`SearchTables::generate_weighted`] with [`CostModel::quantum`]),
//!   running the same meet-in-the-middle scan as the gate-count engine
//!   under the same residue rule — threaded, batched and gated alike
//!   (see the [`search` module](crate::search) docs) — and
//! * a [`DepthSynthesizer`] over the parallel-layer alphabet.
//!
//! Laziness matters operationally: the serve layer can hold a suite and
//! pay for an engine only when the first query under that cost model
//! arrives; a gates-only workload never builds the siblings.
//!
//! All three engines share the ×48 class geometry — every [`CostKind`]
//! is invariant under conjugation-by-relabeling and inversion (property
//! tested in `revsynth-canon`) — so one canonicalization serves every
//! model, and a class-keyed cache may reuse one witness replay path for
//! all of them; only the *cache key* must carry the model.

use std::sync::OnceLock;

use revsynth_bfs::SearchTables;
use revsynth_canon::Symmetries;
use revsynth_circuit::{CostKind, CostModel};
use revsynth_perm::Perm;

use crate::depth::DepthSynthesizer;
use crate::error::SynthesisError;
use crate::search::{SearchOptions, SearchStats};
use crate::synth::{Synthesis, Synthesizer};

/// Construction parameters for the sibling engines.
///
/// The defaults are sized for interactive use on one core: the quantum
/// budget covers every single gate (TOF4 costs 13) and the depth budget
/// matches the depth engine's own test scale. Services that only ever
/// answer one model can leave the others at defaults — unused engines
/// are never built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Quantum-cost generation budget (classes of optimal quantum cost
    /// ≤ this are settled; the search reaches `2·budget − 12`).
    pub quantum_budget: u64,
    /// Depth generation budget (layers).
    pub depth_budget: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            quantum_budget: 13,
            depth_budget: 3,
        }
    }
}

/// The three-engine synthesis front door. See the module docs.
///
/// # Example
///
/// ```
/// use revsynth_circuit::CostKind;
/// use revsynth_core::{SuiteConfig, SynthesisSuite, Synthesizer};
/// use revsynth_perm::Perm;
///
/// let suite = SynthesisSuite::new(
///     Synthesizer::from_scratch(4, 2),
///     SuiteConfig { quantum_budget: 6, depth_budget: 2 },
/// );
/// let swap_ab = Perm::from_values(&[0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15])?;
/// let gates = suite.synthesize(swap_ab, CostKind::Gates)?;
/// let quantum = suite.synthesize(swap_ab, CostKind::Quantum)?;
/// assert_eq!(gates.cost, 3); // three CNOTs
/// assert_eq!(quantum.cost, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SynthesisSuite {
    gates: Synthesizer,
    config: SuiteConfig,
    quantum: OnceLock<Synthesizer>,
    depth: OnceLock<DepthSynthesizer>,
}

impl SynthesisSuite {
    /// Wraps an existing gate-count synthesizer; sibling engines are
    /// generated from `config` on first use.
    #[must_use]
    pub fn new(gates: Synthesizer, config: SuiteConfig) -> Self {
        SynthesisSuite {
            gates,
            config,
            quantum: OnceLock::new(),
            depth: OnceLock::new(),
        }
    }

    /// Convenience: generate the gate-count tables from scratch and use
    /// default sibling budgets.
    #[must_use]
    pub fn from_scratch(n: usize, k: usize) -> Self {
        SynthesisSuite::new(Synthesizer::from_scratch(n, k), SuiteConfig::default())
    }

    /// The wire count shared by every engine.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.gates.wires()
    }

    /// The sibling-engine construction parameters.
    #[must_use]
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// The shared symmetry context (one canonicalization serves every
    /// model — see the module docs).
    #[must_use]
    pub fn sym(&self) -> &Symmetries {
        self.gates.tables().sym()
    }

    /// The gate-count engine.
    #[must_use]
    pub fn gates(&self) -> &Synthesizer {
        &self.gates
    }

    /// The quantum-cost engine, generating its cost-bucketed tables on
    /// first call.
    #[must_use]
    pub fn quantum(&self) -> &Synthesizer {
        self.quantum.get_or_init(|| {
            Synthesizer::new(SearchTables::generate_weighted(
                self.gates.tables().lib().clone(),
                CostModel::quantum(),
                self.config.quantum_budget,
            ))
        })
    }

    /// The depth engine, generating its layer tables on first call.
    #[must_use]
    pub fn depth(&self) -> &DepthSynthesizer {
        self.depth.get_or_init(|| {
            DepthSynthesizer::generate(self.gates.tables().lib().clone(), self.config.depth_budget)
        })
    }

    /// Whether an engine has been built yet (diagnostics; never forces
    /// construction).
    #[must_use]
    pub fn is_built(&self, kind: CostKind) -> bool {
        match kind {
            CostKind::Gates => true,
            CostKind::Quantum => self.quantum.get().is_some(),
            CostKind::Depth => self.depth.get().is_some(),
        }
    }

    /// Synthesizes a cost-minimal circuit for `f` under `kind`.
    ///
    /// # Errors
    ///
    /// As [`Synthesizer::synthesize`]; for quantum/depth the limit in a
    /// [`SynthesisError::SizeExceedsLimit`] is that engine's reach.
    pub fn synthesize(&self, f: Perm, kind: CostKind) -> Result<Synthesis, SynthesisError> {
        self.synthesize_many(
            std::slice::from_ref(&f),
            &SearchOptions::new().cost_model(kind),
        )
        .pop()
        .expect("one query yields one result")
    }

    /// Batched synthesis under the cost axis selected by
    /// [`SearchOptions::cost_model`]. Gates and quantum route through
    /// their engines' batched meet-in-the-middle entry points; depth
    /// queries run per function (the layer tables have no
    /// meet-in-the-middle phase).
    pub fn synthesize_many(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
    ) -> Vec<Result<Synthesis, SynthesisError>> {
        match opts.cost_kind() {
            CostKind::Gates => self.gates.synthesize_many(fs, opts),
            CostKind::Quantum => self.quantum().synthesize_many(fs, opts),
            CostKind::Depth => {
                let depth = self.depth();
                fs.iter()
                    .map(|&f| {
                        self.check_domain(f)?;
                        let circuit = depth.try_synthesize(f)?;
                        Ok(Synthesis {
                            cost: CostKind::Depth.measure(&circuit),
                            circuit,
                            lists_scanned: 0,
                            candidates_tested: 0,
                            stats: SearchStats::default(),
                        })
                    })
                    .collect()
            }
        }
    }

    /// The minimal cost of `f` under `kind` without reconstructing the
    /// circuit for the table-backed engines.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Self::synthesize).
    pub fn cost_of(&self, f: Perm, kind: CostKind) -> Result<u64, SynthesisError> {
        match kind {
            CostKind::Gates => self.gates.size(f).map(|s| s as u64),
            CostKind::Quantum => self.quantum().size(f).map(|s| s as u64),
            CostKind::Depth => self.synthesize(f, kind).map(|s| s.cost),
        }
    }

    /// The depth engine's domain check — the table engines' own check,
    /// reused so the rule and error payload can never diverge.
    fn check_domain(&self, f: Perm) -> Result<(), SynthesisError> {
        self.gates.check_domain(f)
    }
}

impl std::fmt::Debug for SynthesisSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SynthesisSuite(n={}, gates k={}, quantum {}, depth {})",
            self.wires(),
            self.gates.tables().k(),
            if self.is_built(CostKind::Quantum) {
                "built"
            } else {
                "lazy"
            },
            if self.is_built(CostKind::Depth) {
                "built"
            } else {
                "lazy"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_circuit::Circuit;

    fn suite() -> SynthesisSuite {
        SynthesisSuite::new(
            Synthesizer::from_scratch(4, 2),
            SuiteConfig {
                quantum_budget: 6,
                depth_budget: 2,
            },
        )
    }

    #[test]
    fn engines_are_lazy_until_used() {
        let s = suite();
        assert!(s.is_built(CostKind::Gates));
        assert!(!s.is_built(CostKind::Quantum));
        assert!(!s.is_built(CostKind::Depth));
        let f = Circuit::new().perm(4);
        let _ = s.synthesize(f, CostKind::Quantum).unwrap();
        assert!(s.is_built(CostKind::Quantum));
        assert!(!s.is_built(CostKind::Depth));
        let _ = s.synthesize(f, CostKind::Depth).unwrap();
        assert!(s.is_built(CostKind::Depth));
    }

    #[test]
    fn each_kind_minimizes_its_own_measure() {
        let s = suite();
        // NOT(a) CNOT(b,c): 2 gates, quantum cost 2, depth 1.
        let c: Circuit = "NOT(a) CNOT(b,c)".parse().unwrap();
        let f = c.perm(4);
        let gates = s.synthesize(f, CostKind::Gates).unwrap();
        assert_eq!(gates.cost, 2);
        assert_eq!(gates.circuit.perm(4), f);
        let quantum = s.synthesize(f, CostKind::Quantum).unwrap();
        assert_eq!(quantum.cost, 2);
        assert_eq!(quantum.circuit.perm(4), f);
        let depth = s.synthesize(f, CostKind::Depth).unwrap();
        assert_eq!(depth.cost, 1, "the paper's own depth-1 example");
        assert_eq!(depth.circuit.perm(4), f);
        assert_eq!(s.cost_of(f, CostKind::Depth).unwrap(), 1);
        assert_eq!(s.cost_of(f, CostKind::Quantum).unwrap(), 2);
        assert_eq!(s.cost_of(f, CostKind::Gates).unwrap(), 2);
    }

    #[test]
    fn batched_dispatch_matches_singles() {
        let s = suite();
        let fs: Vec<Perm> = ["NOT(a)", "CNOT(a,b) NOT(c)", "TOF(a,b,c)"]
            .iter()
            .map(|t| t.parse::<Circuit>().unwrap().perm(4))
            .collect();
        for kind in CostKind::ALL {
            let batch = s.synthesize_many(&fs, &SearchOptions::new().cost_model(kind));
            for (j, (&f, result)) in fs.iter().zip(&batch).enumerate() {
                let single = s.synthesize(f, kind).unwrap();
                let result = result.as_ref().unwrap();
                assert_eq!(result.circuit, single.circuit, "{kind} query {j}");
                assert_eq!(result.cost, single.cost, "{kind} query {j}");
            }
        }
    }

    #[test]
    fn depth_domain_mismatch_is_reported() {
        let s = SynthesisSuite::new(
            Synthesizer::from_scratch(3, 2),
            SuiteConfig {
                quantum_budget: 5,
                depth_budget: 1,
            },
        );
        let f = Perm::from_values(&[0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12, 13, 14, 15]).unwrap();
        assert!(matches!(
            s.synthesize(f, CostKind::Depth),
            Err(SynthesisError::DomainMismatch { wires: 3, .. })
        ));
    }

    #[test]
    fn suite_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SynthesisSuite>();
    }
}
