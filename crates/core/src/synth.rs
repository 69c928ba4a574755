//! The synthesizer (paper Algorithm 1).

use std::fmt;

use revsynth_bfs::{SearchTables, StoredGate};
use revsynth_circuit::{Circuit, Gate};
use revsynth_perm::Perm;

use crate::error::SynthesisError;
use crate::search::{SearchOptions, SearchStats};

/// Optimal-circuit synthesizer for reversible functions within the
/// tables' reach: size ≤ 2k on gate-count tables, cost ≤
/// [`SearchTables::cost_reach`] on cost-bucketed ones.
///
/// Construct from precomputed tables ([`Synthesizer::new`]) or generate
/// them on the spot ([`Synthesizer::from_scratch`]). The synthesizer is
/// immutable and `Sync`: share it across threads behind a reference or an
/// `Arc` to synthesize many functions concurrently.
pub struct Synthesizer {
    tables: SearchTables,
}

/// Detailed result of a synthesis, exposing the work performed
/// (used by the Table 1 timing experiments and by tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synthesis {
    /// A cost-minimal circuit for the requested function under the
    /// synthesizer's cost model (gate-count-minimal on the default
    /// breadth-first tables).
    pub circuit: Circuit,
    /// The circuit's provably minimal cost under the active model: the
    /// gate count on gate-count tables, the weighted model cost on
    /// cost-bucketed tables, the schedule depth when produced by the
    /// depth engine (via [`crate::SynthesisSuite`]).
    pub cost: u64,
    /// Number of size-`i` lists (cost buckets) scanned by the
    /// meet-in-the-middle phase (0 when the fast path sufficed).
    pub lists_scanned: usize,
    /// Number of `canonicalize + probe` candidate tests performed by the
    /// meet-in-the-middle phase (equals [`SearchStats::canonicalized`];
    /// kept as the historical headline counter).
    pub candidates_tested: u64,
    /// Full candidate-pipeline accounting, including how many candidates
    /// the invariant gate rejected before canonicalization.
    pub stats: SearchStats,
}

impl Synthesizer {
    /// Wraps precomputed breadth-first tables.
    #[must_use]
    pub fn new(tables: SearchTables) -> Self {
        Synthesizer { tables }
    }

    /// Generates tables for the full NCT library on `n` wires up to size
    /// `k`, then wraps them. Convenience for examples and tests; real
    /// deployments generate once and [`SearchTables::save`] the result.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 2, 3 or 4, or `k > 16`.
    #[must_use]
    pub fn from_scratch(n: usize, k: usize) -> Self {
        Synthesizer::new(SearchTables::generate(n, k))
    }

    /// The underlying tables.
    #[must_use]
    pub fn tables(&self) -> &SearchTables {
        &self.tables
    }

    /// The wire count.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.tables.wires()
    }

    /// The deepest cost searchable with these tables: the guaranteed
    /// meet-in-the-middle reach [`SearchTables::cost_reach`], which is
    /// `2k` on gate-count tables and, on cost-bucketed ones, the largest
    /// `r ≤ 2B` with `r ≤ 2B − g(r) + 1` (`B` the max cost, `g(r)` the
    /// costliest library gate of cost ≤ `r`).
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.tables.cost_reach() as usize
    }

    /// Synthesizes a cost-minimal circuit for `f` under the tables'
    /// model (gate-count-minimal on gate-count tables), searching up to
    /// [`max_size`](Self::max_size).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::DomainMismatch`] if `f` moves a point outside the
    /// domain; [`SynthesisError::SizeExceedsLimit`] if `f` costs more
    /// than [`max_size`](Self::max_size).
    pub fn synthesize(&self, f: Perm) -> Result<Circuit, SynthesisError> {
        self.synthesize_within(f, self.max_size())
            .map(|s| s.circuit)
    }

    /// Like [`synthesize`](Self::synthesize) but bounds the search to
    /// circuits of cost at most `limit` and reports search statistics:
    /// [`synthesize_with`](Self::synthesize_with) on one thread.
    ///
    /// The meet-in-the-middle phase runs the frame-hoisted engine (see the
    /// [`search` module](crate::search) docs): the ≤ `2·n!` symmetry
    /// frames of `f` are computed and deduplicated once, then the stored
    /// representatives are scanned directly — per candidate, one
    /// composition, one canonicalization and one pipelined hash probe.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Self::synthesize), with `limit` in place of
    /// [`max_size`](Self::max_size).
    pub fn synthesize_within(&self, f: Perm, limit: usize) -> Result<Synthesis, SynthesisError> {
        self.synthesize_with(f, &SearchOptions::new().threads(1).limit(limit))
    }

    /// The optimal cost of `f` (its gate count on gate-count tables)
    /// without building the circuit: [`size_with`](Self::size_with) on
    /// one thread.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Self::synthesize).
    pub fn size(&self, f: Perm) -> Result<usize, SynthesisError> {
        self.size_with(f, &SearchOptions::new().threads(1))
    }

    pub(crate) fn check_domain(&self, f: Perm) -> Result<(), SynthesisError> {
        let n = self.tables.wires();
        for x in (1u8 << n)..16 {
            if f.apply(x) != x {
                return Err(SynthesisError::DomainMismatch {
                    wires: n,
                    moved_point: x,
                });
            }
        }
        Ok(())
    }

    /// Fast path: reconstructs a minimal circuit for a function of size
    /// ≤ k by repeatedly looking up the stored boundary gate and peeling
    /// it from the recorded side. Returns `Ok(None)` when size(f) > k.
    ///
    /// Peeling side: with canonicalization witness (`inverted`, `σ`) and a
    /// stored record (`λ̄`, `is_first` relative to the representative's
    /// minimal circuit), the gate `λ = conj_{σ⁻¹}(λ̄)` sits at the **back**
    /// of `f`'s circuit iff `inverted == is_first` (all four cases are
    /// derived in the module tests and exercised exhaustively for n ≤ 3).
    ///
    /// The tables may come from a mapped store whose bulk checksums were
    /// never verified, so every record is distrusted: a malformed byte, a
    /// walk that leaves the table or does not reach the identity within
    /// the stored depth, or a circuit that does not compute `f` is an
    /// `Err` naming the failed check, never a panic.
    pub(crate) fn peel(&self, f: Perm) -> Result<Option<Circuit>, &'static str> {
        let n = self.tables.wires();
        let sym = self.tables.sym();
        let mut front: Vec<Gate> = Vec::new();
        let mut back: Vec<Gate> = Vec::new();
        let mut cur = f;
        // Gate-count tables peel at most k gates; cost-bucketed tables
        // peel at most max_cost gates (every gate costs ≥ 1, and each
        // peel lands in a strictly cheaper bucket). max_cost == k on
        // unit tables, so this is one bound for both.
        for step in 0..=self.tables.max_cost() as usize {
            if cur.is_identity() {
                front.extend(back.iter().rev());
                let circuit = Circuit::from_gates(front);
                if circuit.perm(n) != f {
                    return Err("a peeled circuit does not compute its function");
                }
                return Ok(Some(circuit));
            }
            let w = sym.canonicalize(cur);
            let record = self
                .tables
                .lookup(w.rep)
                .map_err(|_| "a stored gate record is malformed")?;
            match record {
                None if step == 0 => return Ok(None),
                None => return Err("peeling a stored function left the table"),
                Some(StoredGate::Identity) => {
                    return Err("a non-identity function has the identity record")
                }
                Some(StoredGate::Gate { gate, is_first }) => {
                    let lam = sym.gate_from_rep(&w, gate);
                    if usize::from(lam.max_wire()) >= n {
                        return Err("a stored gate touches a wire outside the domain");
                    }
                    let lam_perm = lam.perm(n);
                    if w.inverted == is_first {
                        back.push(lam);
                        cur = cur.then(lam_perm);
                    } else {
                        front.push(lam);
                        cur = lam_perm.then(cur);
                    }
                }
            }
        }
        Err("peeling exceeded the stored depth")
    }
}

impl fmt::Debug for Synthesizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Synthesizer(n={}, k={}, max size {})",
            self.wires(),
            self.tables.k(),
            self.max_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_bfs::reference;
    use revsynth_circuit::GateLib;
    use std::sync::OnceLock;

    fn synth_n4_k3() -> &'static Synthesizer {
        static S: OnceLock<Synthesizer> = OnceLock::new();
        S.get_or_init(|| Synthesizer::from_scratch(4, 3))
    }

    fn synth_n4_k4() -> &'static Synthesizer {
        static S: OnceLock<Synthesizer> = OnceLock::new();
        S.get_or_init(|| Synthesizer::from_scratch(4, 4))
    }

    #[test]
    fn identity_synthesizes_to_empty_circuit() {
        let c = synth_n4_k3().synthesize(Perm::identity()).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn single_gates_synthesize_to_one_gate() {
        let s = synth_n4_k3();
        for (_, gate, p) in GateLib::nct(4).iter() {
            let c = s.synthesize(p).unwrap();
            assert_eq!(c.len(), 1, "{gate}");
            assert_eq!(c.perm(4), p);
        }
    }

    #[test]
    fn exhaustive_n2_matches_reference_sizes() {
        let lib = GateLib::nct(2);
        let oracle = reference::full_space_sizes(&lib);
        let max = *oracle.values().max().unwrap();
        let k = max.div_ceil(2);
        let s = Synthesizer::from_scratch(2, k);
        for (&f, &size) in &oracle {
            let c = s.synthesize(f).unwrap();
            assert_eq!(c.len(), size, "f = {f}");
            assert_eq!(c.perm(2), f, "f = {f}");
        }
    }

    #[test]
    fn exhaustive_n3_matches_reference_sizes() {
        // Every one of the 40,320 3-wire functions: the synthesized
        // circuit must compute f and have exactly the oracle's size.
        let lib = GateLib::nct(3);
        let oracle = reference::full_space_sizes(&lib);
        let max = *oracle.values().max().unwrap();
        let k = max.div_ceil(2);
        let s = Synthesizer::from_scratch(3, k);
        assert!(s.max_size() >= max);
        for (&f, &size) in &oracle {
            let c = s.synthesize(f).unwrap();
            assert_eq!(c.len(), size, "f = {f}");
            assert_eq!(c.perm(3), f, "f = {f}");
        }
    }

    #[test]
    fn size_agrees_with_synthesize() {
        let lib = GateLib::nct(3);
        let oracle = reference::full_space_sizes(&lib);
        let max = *oracle.values().max().unwrap();
        let s = Synthesizer::from_scratch(3, max.div_ceil(2));
        for (j, (&f, &size)) in oracle.iter().enumerate() {
            if j % 53 == 0 {
                assert_eq!(s.size(f).unwrap(), size, "f = {f}");
            }
        }
    }

    #[test]
    fn rd32_and_shift4_are_4_gates() {
        // Paper Table 6, proved-optimal entries.
        let s = synth_n4_k3();
        let rd32 =
            Perm::from_values(&[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5]).unwrap();
        let c = s.synthesize(rd32).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.perm(4), rd32);

        let shift4 =
            Perm::from_values(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0]).unwrap();
        let c = s.synthesize(shift4).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.perm(4), shift4);
    }

    #[test]
    fn benchmark_4bit_7_8_is_7_gates() {
        // Paper Table 6: SOC = 7; with k = 4 the meet-in-the-middle phase
        // must find it at list i = 3.
        let s = synth_n4_k4();
        let spec =
            Perm::from_values(&[0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15]).unwrap();
        let result = s.synthesize_within(spec, 8).unwrap();
        assert_eq!(result.circuit.len(), 7);
        assert_eq!(result.circuit.perm(4), spec);
        assert_eq!(result.lists_scanned, 3);
        assert!(result.candidates_tested > 0);
    }

    #[test]
    fn imark_is_7_gates() {
        let s = synth_n4_k4();
        let spec =
            Perm::from_values(&[4, 5, 2, 14, 0, 3, 6, 10, 11, 8, 15, 1, 12, 13, 7, 9]).unwrap();
        let c = s.synthesize(spec).unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.perm(4), spec);
    }

    #[test]
    fn limit_is_respected() {
        let s = synth_n4_k3();
        // A function of size 7 cannot be synthesized within limit 5.
        let spec =
            Perm::from_values(&[0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15]).unwrap();
        let err = s.synthesize_within(spec, 5).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::SizeExceedsLimit { limit: 5, .. }
        ));
        // But 6 tables (k=3, lists to 3) can't reach size 7 either.
        let err = s.synthesize_within(spec, 6).unwrap_err();
        assert!(matches!(err, SynthesisError::SizeExceedsLimit { .. }));
    }

    #[test]
    fn domain_mismatch_is_reported() {
        let s = Synthesizer::from_scratch(3, 2);
        // A genuine 4-wire function: moves point 8.
        let f = Perm::from_values(&[0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12, 13, 14, 15]).unwrap();
        let err = s.synthesize(f).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::DomainMismatch {
                wires: 3,
                moved_point: 8
            }
        ));
    }

    #[test]
    fn random_compositions_roundtrip() {
        // Compose random gate sequences of length ≤ 2k; synthesis must
        // return an equal-or-shorter circuit computing the same function.
        let s = synth_n4_k3();
        let lib = GateLib::nct(4);
        let mut state = 0xD1B54A32D192ED03u64;
        for trial in 0..200 {
            let len = (state % (2 * 3 + 1)) as usize;
            let mut f = Perm::identity();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (_, _, p) = lib
                    .iter()
                    .nth((state >> 33) as usize % lib.len())
                    .expect("index in range");
                f = f.then(p);
            }
            let c = s.synthesize(f).unwrap_or_else(|e| {
                panic!("trial {trial}: {e} (len {len})");
            });
            assert!(c.len() <= len, "trial {trial}: {} > {len}", c.len());
            assert_eq!(c.perm(4), f, "trial {trial}");
            state = state.wrapping_add(trial);
        }
    }

    #[test]
    fn synthesizer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Synthesizer>();
    }
}
