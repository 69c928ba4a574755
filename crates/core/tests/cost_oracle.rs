//! The exhaustive cost-model differential suite.
//!
//! Two independent implementations answer every cost question:
//!
//! * the **oracle** — a whole-space Dijkstra over all 40,320 3-wire
//!   reversible functions, no symmetry reduction, no tables, no
//!   meet-in-the-middle: just weighted relaxation until the group is
//!   exhausted; and
//! * the **engine** — cost-bucketed tables
//!   ([`SearchTables::generate_weighted`]) plus the one meet-in-the-middle
//!   scan under the residue rule, with the ×48 reduction, the
//!   residue-mask invariant gate and witness-replay peeling.
//!
//! The suite proves they agree on **every** function (quantum cost), that
//! the gate and the thread count never change an answer, and that
//! gate-count mode is bit-identical to the pre-cost-model engine
//! (`synthesize_within`), so threading the cost axis through the stack
//! changed nothing for the paper's primary metric.
//!
//! Debug builds run a deterministic stride of the 40,320 (tier-1 tests
//! stay fast); release builds — the CI `cost-models` job — run the full
//! space.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use revsynth_bfs::{reference, SearchTables};
use revsynth_circuit::{CostKind, CostModel, GateLib};
use revsynth_core::{SearchOptions, Synthesizer};
use revsynth_perm::Perm;

/// Every function's optimal cost by whole-space Dijkstra (bucket queue),
/// run until the group is exhausted — the trusted reference.
fn oracle_costs(lib: &GateLib, model: &CostModel) -> HashMap<Perm, u64> {
    let mut dist: HashMap<Perm, u64> = HashMap::new();
    dist.insert(Perm::identity(), 0);
    let mut buckets: BTreeMap<u64, Vec<Perm>> = BTreeMap::new();
    buckets.insert(0, vec![Perm::identity()]);
    let mut settled: std::collections::HashSet<Perm> = Default::default();
    while let Some((&c, _)) = buckets.iter().next() {
        for f in buckets.remove(&c).expect("key just observed") {
            if !settled.insert(f) {
                continue;
            }
            for (_, gate, gate_perm) in lib.iter() {
                let nc = c + model.gate_cost(gate);
                let h = f.then(gate_perm);
                if dist.get(&h).is_none_or(|&old| nc < old) {
                    dist.insert(h, nc);
                    buckets.entry(nc).or_default().push(h);
                }
            }
        }
    }
    dist
}

/// Full space in release (the CI `cost-models` job), deterministic
/// stride in debug so `cargo test` stays minutes-free.
fn stride() -> usize {
    if cfg!(debug_assertions) {
        63
    } else {
        1
    }
}

/// Every 3-wire function's optimal quantum cost, by the oracle.
fn quantum_oracle() -> &'static HashMap<Perm, u64> {
    static ORACLE: OnceLock<HashMap<Perm, u64>> = OnceLock::new();
    ORACLE.get_or_init(|| oracle_costs(&GateLib::nct(3), &CostModel::quantum()))
}

/// The quantum engine on 3 wires, with a budget whose reach provably
/// covers the costliest function (reach = 2B − 4 here: the costliest
/// 3-wire gate is TOF at 5).
fn quantum_engine() -> &'static Synthesizer {
    static ENGINE: OnceLock<Synthesizer> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let max = *quantum_oracle().values().max().unwrap();
        let budget = (max + 4).div_ceil(2);
        let tables = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), budget);
        assert!(tables.cost_reach() >= max, "budget must cover the space");
        Synthesizer::new(tables)
    })
}

#[test]
fn quantum_cost_engine_matches_the_oracle_on_n3() {
    let model = CostModel::quantum();
    // Sorted, so the strided samples are the same on every run.
    let mut oracle: Vec<(Perm, u64)> = quantum_oracle().iter().map(|(&f, &c)| (f, c)).collect();
    oracle.sort_unstable();
    assert_eq!(oracle.len(), 40_320, "the whole group is reachable");
    let synth = quantum_engine();
    let opts = SearchOptions::new()
        .threads(1)
        .cost_model(CostKind::Quantum);
    let ungated = SearchOptions::new().threads(1).filter(false);
    let threaded = SearchOptions::new().threads(2);

    let mut via_mitm = 0u64;
    for (i, &(f, cost)) in oracle.iter().enumerate() {
        if i % stride() != 0 {
            continue;
        }
        let syn = synth
            .synthesize_with(f, &opts)
            .unwrap_or_else(|e| panic!("f = {f}: {e} (oracle cost {cost})"));
        assert_eq!(syn.cost, cost, "f = {f}");
        assert_eq!(syn.circuit.perm(3), f, "f = {f}");
        assert_eq!(syn.circuit.cost(&model), cost, "f = {f}");
        if syn.lists_scanned > 0 {
            via_mitm += 1;
        }
        // The residue-mask gate may only skip candidates that could not
        // be accepted, and shards merge to the serial first achiever:
        // gated, ungated and two-thread scans are bit-identical.
        if i % (stride() * 17) == 0 {
            let bare = synth.synthesize_with(f, &ungated).unwrap();
            assert_eq!(bare.circuit, syn.circuit, "gate changed the circuit of {f}");
            assert_eq!(bare.cost, syn.cost, "gate changed the cost of {f}");
            let sharded = synth.synthesize_with(f, &threaded).unwrap();
            assert_eq!(
                sharded.circuit, syn.circuit,
                "threads changed the circuit of {f}"
            );
            assert_eq!(sharded.lists_scanned, syn.lists_scanned, "f = {f}");
        }
    }
    assert!(
        via_mitm > 0,
        "the sample must exercise the meet-in-the-middle scan"
    );
}

#[test]
fn gate_count_mode_is_bit_identical_to_the_pre_cost_engine() {
    // The cost axis must not perturb the paper's primary metric: for
    // every 3-wire function, dispatching through the cost-model options
    // (CostKind::Gates) returns byte-for-byte the circuit the plain
    // engine returns, at the oracle's optimal size.
    let lib = GateLib::nct(3);
    let mut sizes: Vec<(Perm, usize)> = reference::full_space_sizes(&lib).into_iter().collect();
    sizes.sort_unstable();
    let max = sizes.iter().map(|&(_, size)| size).max().unwrap();
    let synth = Synthesizer::from_scratch(3, max.div_ceil(2));
    let opts = SearchOptions::new().threads(1).cost_model(CostKind::Gates);
    for (i, &(f, size)) in sizes.iter().enumerate() {
        if i % stride() != 0 {
            continue;
        }
        let plain = synth.synthesize_within(f, synth.max_size()).unwrap();
        let dispatched = synth.synthesize_with(f, &opts).unwrap();
        assert_eq!(dispatched.circuit, plain.circuit, "f = {f}");
        assert_eq!(dispatched.lists_scanned, plain.lists_scanned, "f = {f}");
        assert_eq!(dispatched.cost, plain.circuit.len() as u64, "f = {f}");
        assert_eq!(plain.circuit.len(), size, "f = {f} (oracle size)");
    }
}

#[test]
fn quantum_cost_never_exceeds_five_times_gate_count_and_is_tight() {
    // Across the two engines on the strided space: the quantum circuit
    // never costs more under the quantum model than the gate-count
    // circuit (so never more than 5 · gates: every 3-wire gate costs
    // ≤ 5), the gate-count circuit never has more gates than the quantum
    // one, and the bound is not slack — the weighted search pays off
    // somewhere with a circuit strictly cheaper than the gate-count
    // optimum.
    let model = CostModel::quantum();
    let quantum = quantum_engine();
    let sizes = reference::full_space_sizes(&GateLib::nct(3));
    let max = *sizes.values().max().unwrap();
    let gates = Synthesizer::from_scratch(3, max.div_ceil(2));
    let mut fs: Vec<Perm> = sizes.into_keys().collect();
    fs.sort_unstable();
    let mut strictly_cheaper = 0u64;
    for &f in fs.iter().step_by(stride()) {
        let cheap = quantum
            .synthesize(f)
            .unwrap_or_else(|e| panic!("f = {f}: {e}"));
        let small = gates
            .synthesize(f)
            .unwrap_or_else(|e| panic!("f = {f}: {e}"));
        assert!(cheap.cost(&model) <= small.cost(&model), "f = {f}");
        assert!(cheap.cost(&model) <= 5 * small.len() as u64, "f = {f}");
        assert!(small.len() <= cheap.len(), "f = {f}");
        if cheap.cost(&model) < small.cost(&model) {
            strictly_cheaper += 1;
        }
    }
    assert!(
        strictly_cheaper > 0,
        "the quantum engine must beat the gate-count optimum somewhere"
    );
}

#[test]
fn cost_limit_and_reach_errors_are_clean() {
    let model = CostModel::quantum();
    let tables = SearchTables::generate_weighted(GateLib::nct(3), model, 6);
    let reach = tables.cost_reach() as usize;
    let synth = Synthesizer::new(tables);
    // A function of quantum cost 10 (two Toffolis) is beyond budget-6
    // tables' reach (2·6 − 5 + 1 = 8).
    let two_tofs = "TOF(a,b,c) NOT(a) TOF(a,c,b)"
        .parse::<revsynth_circuit::Circuit>()
        .unwrap()
        .perm(3);
    let err = synth.synthesize(two_tofs).unwrap_err();
    assert!(
        matches!(err, revsynth_core::SynthesisError::SizeExceedsLimit { limit, .. } if limit == reach),
        "{err:?}"
    );
    // An explicit limit below a function's cost also errors cleanly.
    let tof = "TOF(a,b,c)"
        .parse::<revsynth_circuit::Circuit>()
        .unwrap()
        .perm(3);
    let err = synth
        .synthesize_with(tof, &SearchOptions::new().limit(4))
        .unwrap_err();
    assert!(matches!(
        err,
        revsynth_core::SynthesisError::SizeExceedsLimit { limit: 4, .. }
    ));
    // And within the limit it succeeds with the exact cost.
    let syn = synth
        .synthesize_with(tof, &SearchOptions::new().limit(5))
        .unwrap();
    assert_eq!(syn.cost, 5);
}
