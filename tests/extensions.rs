//! Integration tests for the §5/§1 extensions working together with the
//! core pipeline.

use std::sync::OnceLock;

use revsynth::analysis::TestSet;
use revsynth::bfs::SearchTables;
use revsynth::circuit::{real, Circuit, CostModel, GateLib};
use revsynth::core::{DepthSynthesizer, PeepholeOptimizer, Synthesizer};
use revsynth::specs::{benchmark, benchmarks};

fn synth_k4() -> &'static Synthesizer {
    static S: OnceLock<Synthesizer> = OnceLock::new();
    S.get_or_init(|| Synthesizer::from_scratch(4, 4))
}

#[test]
fn rd32_is_cheapest_and_shallowest_of_its_kind() {
    // The proved-optimal 4-gate adder: the cost-optimal circuit for the
    // same function costs no more than rd32's quantum cost, and the
    // depth-optimal schedule is no deeper than rd32's own depth.
    let rd32 = benchmark("rd32").expect("present");
    let model = CostModel::quantum();
    let paper_circuit = rd32.paper_circuit().expect("parses");

    // rd32 has quantum cost 9, within budget 7's reach of 10.
    let cost_synth = Synthesizer::new(SearchTables::generate_weighted(GateLib::nct(4), model, 7));
    let cheap = cost_synth.synthesize(rd32.perm()).expect("within reach");
    assert!(cheap.cost(&model) <= paper_circuit.cost(&model));
    assert_eq!(cheap.perm(4), rd32.perm());

    let depth_synth = DepthSynthesizer::generate(GateLib::nct(4), 4);
    let shallow = depth_synth.synthesize(rd32.perm()).expect("within budget");
    assert!(shallow.depth() <= paper_circuit.depth());
    assert_eq!(shallow.perm(4), rd32.perm());
}

#[test]
fn peephole_collapses_benchmark_roundtrips() {
    // Concatenate a benchmark circuit with its inverse — a 22-gate
    // identity — and confirm the optimizer collapses it completely.
    let synth = synth_k4();
    let opt = PeepholeOptimizer::new(synth);
    let hwb4 = benchmark("hwb4")
        .expect("present")
        .paper_circuit()
        .expect("parses");
    let padded = hwb4.then(&hwb4.inverse());
    assert_eq!(padded.len(), 22);
    assert!(padded.perm(4).is_identity());
    let out = opt.optimize(&padded).expect("windows within bound");
    assert!(out.is_empty(), "identity must collapse to nothing: {out}");
}

#[test]
fn real_format_roundtrips_every_benchmark_circuit() {
    for b in benchmarks() {
        let circuit = b.paper_circuit().expect("parses");
        let text = real::to_real(&circuit, 4);
        let (back, vars) = real::parse_real(&text).expect("own output parses");
        assert_eq!(back, circuit, "{}", b.name);
        assert_eq!(vars, ["a", "b", "c", "d"], "{}", b.name);
        assert_eq!(back.perm(4), b.perm(), "{}", b.name);
    }
}

#[test]
fn nearest_neighbor_synthesis_is_exact_up_to_relabeling() {
    // The LNN library is not closed under wire relabeling, so the
    // symmetry-reduced pipeline computes LNN-optimality *up to
    // simultaneous input/output relabeling* (paper §5: "trivially if an
    // optimal implementation is required up to the input/output
    // permutation"). Consequences checked here:
    //  * the synthesized circuit computes f exactly,
    //  * its gates come from the relabeling *closure* of the library,
    //  * its length is never below the full-library optimum
    //    (closure(LNN) ⊆ NCT), and never below the honest LNN size of
    //    the easiest relabeling of f.
    let lib = GateLib::nearest_neighbor(4);
    assert!(!lib.is_relabeling_closed());
    let closure = lib.relabeling_closure();

    let full = synth_k4();
    let lnn = Synthesizer::new(revsynth::bfs::SearchTables::generate_with(lib.clone(), 4));
    let mut f = revsynth::perm::Perm::identity();
    for i in 0..60usize {
        f = f.then(lib.perm_of((i * 7 + 1) % lib.len()));
        let Ok(lnn_circuit) = lnn.synthesize(f) else {
            continue;
        };
        assert_eq!(lnn_circuit.perm(4), f, "step {i}");
        for g in lnn_circuit.iter() {
            assert!(
                closure.id_of(*g).is_some(),
                "step {i}: {g} outside the LNN relabeling closure"
            );
        }
        if let Ok(full_size) = full.size(f) {
            assert!(lnn_circuit.len() >= full_size, "step {i}");
        }
    }
}

#[test]
fn cost_depth_and_size_agree_on_easy_functions() {
    // For single gates: size 1; depth 1; cost = the gate's own cost.
    let model = CostModel::quantum();
    // TOF4 costs 13: only a budget-13 store holds it.
    let cost_synth = Synthesizer::new(SearchTables::generate_weighted(GateLib::nct(4), model, 13));
    let depth_synth = DepthSynthesizer::generate(GateLib::nct(4), 2);
    let size_synth = synth_k4();
    for (_, gate, p) in GateLib::nct(4).iter() {
        assert_eq!(size_synth.size(p).ok(), Some(1), "{gate}");
        assert_eq!(depth_synth.depth_of(p), Some(1), "{gate}");
        assert_eq!(
            cost_synth.size(p),
            Ok(model.gate_cost(gate) as usize),
            "{gate}"
        );
    }
}

#[test]
fn testset_grades_the_peephole_pipeline() {
    // Grade "greedy + peephole cleanup" style pipeline: apply the
    // optimizer to a padded optimal circuit; it must recover optimality
    // on every case (peephole windows cover these small sizes entirely).
    let synth = synth_k4();
    let opt = PeepholeOptimizer::new(synth);
    let suite = TestSet::generate(synth, 5, 4, 33);
    let score = suite.score(4, |f| {
        let mut padded: Vec<_> = synth
            .synthesize(f)
            .expect("suite sizes within reach")
            .into_iter()
            .collect();
        // Pad with a cancelling pair, then let the optimizer clean up.
        let pad: Circuit = "TOF(a,b,c) TOF(a,b,c)".parse().expect("parses");
        padded.extend(pad);
        opt.optimize(&Circuit::from_gates(padded))
            .expect("within bound")
    });
    assert_eq!(score.incorrect, 0);
    assert_eq!(
        score.optimal, score.total,
        "peephole recovers optimality here"
    );
    assert_eq!(score.excess_gates, 0);
}
