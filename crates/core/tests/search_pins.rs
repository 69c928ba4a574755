//! Pinned meet-in-the-middle work: the circuits and every [`SearchStats`]
//! field for a fixed set of n = 4 queries, across thread counts, probe
//! depths and the invariant gate setting.
//!
//! The engine's contract is that circuits never depend on those options
//! and that the stats count the work actually performed, deterministically
//! for a fixed option set. Both halves are pinned here, so a change to the
//! scan loop that reorders, drops or adds candidate work fails this test
//! even when every answer stays correct.
//!
//! The per-query counts of each option set are folded into an FNV-1a
//! digest next to their totals. On a mismatch the test prints the full
//! table it measured, in the layout of the pins below.
//!
//! A second leg pins the answers of the same scan on cost-bucketed
//! (quantum-cost) tables: circuit, cost and buckets scanned, across
//! thread counts and the gate setting. Its stats are not pinned: the
//! gate tests a batch against the residue mask in force when the batch
//! starts, so the work done depends on when earlier hits resolve.

use revsynth_bfs::SearchTables;
use revsynth_circuit::{Circuit, CostModel, GateLib};
use revsynth_core::{SearchOptions, SearchStats, Synthesizer};
use revsynth_perm::Perm;

/// Queries drawn, each a random circuit of 4–6 gates whose function has
/// optimal size > k = 3 (so every one reaches the meet-in-the-middle scan).
const QUERIES: usize = 32;

/// The optimal circuit of each query, identical under every option set.
const CIRCUITS: [&str; QUERIES] = [
    "TOF(b,c,d) CNOT(a,b) TOF4(a,c,d,b) CNOT(b,a)",
    "CNOT(a,d) TOF4(a,b,d,c) TOF(a,c,b) CNOT(b,c)",
    "TOF(a,c,d) TOF4(a,b,d,c) TOF(b,c,a) NOT(b) CNOT(c,d) TOF(b,d,c)",
    "TOF(b,d,c) TOF(a,d,b) TOF4(a,b,d,c) CNOT(c,b)",
    "TOF(a,b,c) TOF(c,d,a) TOF(a,d,c) CNOT(d,c) TOF(a,d,b)",
    "CNOT(b,d) CNOT(a,c) TOF(b,c,a) TOF(a,c,d) CNOT(a,c) TOF4(b,c,d,a)",
    "CNOT(d,c) TOF4(a,b,c,d) CNOT(c,b) NOT(b) TOF(b,d,c)",
    "TOF(a,b,d) CNOT(d,b) TOF(a,b,c) CNOT(b,d) CNOT(a,c)",
    "TOF(a,d,b) NOT(a) TOF(c,d,a) TOF(a,b,c) NOT(c) TOF(a,c,b)",
    "TOF(a,d,c) CNOT(b,a) TOF(c,d,a) NOT(a) CNOT(c,d)",
    "TOF(c,d,b) TOF(a,b,d) TOF4(a,b,c,d) CNOT(b,d)",
    "TOF4(a,c,d,b) TOF(a,d,c) CNOT(d,a) CNOT(b,c)",
    "CNOT(d,c) CNOT(b,d) TOF(b,d,a) CNOT(c,a)",
    "TOF(a,c,b) TOF(a,b,d) TOF(a,d,c) CNOT(b,d)",
    "CNOT(b,c) TOF(a,d,b) TOF(b,c,d) TOF4(b,c,d,a)",
    "TOF(a,d,c) TOF(a,b,d) NOT(a) TOF(a,c,b)",
    "TOF(c,d,a) CNOT(a,d) TOF(b,d,a) CNOT(a,c)",
    "TOF(b,d,c) TOF(a,c,d) CNOT(b,c) NOT(b) TOF(b,c,d)",
    "TOF(c,d,b) TOF(b,c,a) CNOT(a,c) TOF(a,d,b) TOF(b,d,c)",
    "CNOT(a,c) CNOT(d,a) CNOT(a,d) NOT(b)",
    "TOF4(a,b,d,c) TOF(a,d,c) TOF4(a,c,d,b) CNOT(c,b) CNOT(d,c) TOF(a,b,c)",
    "TOF(a,d,b) CNOT(b,c) TOF4(a,c,d,b) NOT(c) CNOT(b,d) TOF4(a,c,d,b)",
    "TOF(b,c,a) CNOT(a,d) TOF4(b,c,d,a) CNOT(a,d)",
    "CNOT(a,d) TOF(b,c,a) TOF(a,d,c) CNOT(d,c) TOF(c,d,b)",
    "TOF4(a,b,c,d) TOF(a,d,b) CNOT(b,a) TOF(a,b,d) NOT(b)",
    "TOF4(a,c,d,b) CNOT(d,a) TOF(a,c,d) CNOT(c,a) TOF(a,b,d)",
    "CNOT(d,c) CNOT(b,c) TOF(b,d,c) CNOT(a,b)",
    "CNOT(d,b) TOF(a,b,d) CNOT(c,b) NOT(b) CNOT(d,a)",
    "CNOT(d,c) CNOT(a,d) TOF4(b,c,d,a) CNOT(b,c)",
    "TOF(a,c,d) TOF4(a,c,d,b) CNOT(a,c) TOF4(a,b,c,d) TOF(c,d,b) TOF(b,c,a)",
    "CNOT(d,a) CNOT(c,d) TOF4(b,c,d,a) NOT(d)",
    "CNOT(c,d) CNOT(b,c) TOF4(a,b,c,d) CNOT(a,d) TOF4(b,c,d,a)",
];

/// One option set's pin: `(threads, probe_depth, gate, considered, gated,
/// canonicalized, probed, digest of the per-query counts)`.
type StatsPin = (usize, usize, bool, u64, u64, u64, u64, u64);

/// The pins of the 8 option sets.
const STATS: [StatsPin; 8] = [
    (1, 1, true, 48203, 47935, 268, 236, 0x2ea1e2233b0366ed),
    (1, 1, false, 44460, 0, 44460, 44428, 0xf4de4fcee59374ba),
    (1, 8, true, 89674, 89229, 445, 236, 0x4d48f6a40f7a6e9d),
    (1, 8, false, 44684, 0, 44684, 44428, 0x78ded418863efa22),
    (2, 1, true, 79808, 79364, 444, 399, 0x90af7f32a44dc0cd),
    (2, 1, false, 75658, 0, 75658, 75610, 0x88cc8aa7953c04cf),
    (2, 8, true, 103455, 102848, 607, 399, 0x5216d7f1fbd6dde6),
    (2, 8, false, 75993, 0, 75993, 75610, 0xe1f865207f2b017f),
];

/// Quantum-cost queries drawn, each a random NCT gate string whose summed
/// quantum cost stays within the budget-7 tables' reach of 10 and whose
/// function costs more than the budget (so every one reaches the scan).
const QUANTUM_QUERIES: usize = 32;

/// `(circuit, cost, buckets scanned)` of each quantum query, identical
/// under every option set.
const QUANTUM: [(&str, u64, usize); QUANTUM_QUERIES] = [
    ("CNOT(c,d) CNOT(a,d) CNOT(d,c) TOF(c,d,b)", 8, 5),
    ("TOF(c,d,b) TOF(b,c,a)", 10, 5),
    (
        "CNOT(a,d) TOF(c,d,a) CNOT(b,d) CNOT(a,d) CNOT(d,b) CNOT(b,c)",
        10,
        3,
    ),
    ("TOF(b,d,a) TOF(a,b,d)", 10, 5),
    ("CNOT(b,d) CNOT(d,a) TOF(a,b,d) CNOT(d,a)", 8, 1),
    (
        "TOF(c,d,b) CNOT(c,d) CNOT(d,c) CNOT(a,b) NOT(c) CNOT(c,b)",
        10,
        3,
    ),
    ("NOT(b) TOF(b,c,d) CNOT(d,b) NOT(c)", 8, 1),
    ("TOF(a,b,c) TOF(c,d,a)", 10, 5),
    ("TOF(c,d,b) TOF(a,d,c)", 10, 5),
    ("CNOT(b,d) CNOT(b,a) TOF(b,d,c) CNOT(a,d)", 8, 1),
    ("TOF(a,b,d) TOF(c,d,b)", 10, 5),
    ("CNOT(b,c) CNOT(d,a) TOF(a,c,d) NOT(d) CNOT(b,d)", 9, 2),
    ("TOF(a,c,d) TOF(b,c,a)", 10, 5),
    ("CNOT(a,b) CNOT(d,c) CNOT(a,d) CNOT(b,a) TOF(c,d,a)", 9, 5),
    ("TOF(a,d,c) TOF(a,c,b)", 10, 5),
    ("CNOT(c,a) TOF(a,d,b) CNOT(d,a) NOT(d)", 8, 1),
    ("CNOT(b,a) NOT(a) CNOT(a,c) TOF(b,d,a) CNOT(c,d)", 9, 6),
    ("CNOT(b,c) NOT(b) TOF(b,d,c) NOT(d)", 8, 1),
    ("TOF(a,c,d) TOF(c,d,a)", 10, 5),
    ("CNOT(b,a) TOF(a,d,c) CNOT(c,a) CNOT(d,c)", 8, 1),
    ("TOF(b,c,d) TOF(a,d,b)", 10, 5),
    ("TOF(a,c,b) TOF(a,d,c)", 10, 5),
    ("CNOT(d,a) CNOT(c,d) TOF(a,d,b) NOT(c)", 8, 1),
    ("TOF(a,c,b) TOF(a,b,d)", 10, 5),
    ("TOF(b,c,d) CNOT(c,b) CNOT(c,a) CNOT(d,b)", 8, 1),
    ("CNOT(d,a) CNOT(d,c) TOF(a,c,d) CNOT(b,d)", 8, 1),
    ("NOT(b) NOT(a) TOF(a,b,d) NOT(c) CNOT(c,d)", 9, 2),
    ("CNOT(d,a) TOF(a,d,c) CNOT(c,b) CNOT(b,d) CNOT(b,c)", 9, 2),
    ("TOF(a,d,b) TOF(b,d,c)", 10, 5),
    ("TOF(a,c,d) TOF(b,d,a)", 10, 5),
    ("TOF(a,d,c) TOF(a,c,b)", 10, 5),
    ("CNOT(d,c) TOF(a,c,b) CNOT(d,c) CNOT(a,b) CNOT(b,c)", 9, 2),
];

/// A splitmix64 stream.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded query set.
fn queries() -> Vec<Perm> {
    let lib = GateLib::nct(4);
    let synth = synth();
    let mut next = splitmix(0x005E_ED0F_C0DE);
    let mut out = Vec::with_capacity(QUERIES);
    while out.len() < QUERIES {
        let gates = 4 + (next() % 3) as usize;
        let f = (0..gates).fold(Perm::identity(), |f, _| {
            f.then(lib.perm_of((next() % lib.len() as u64) as usize))
        });
        if synth.tables().size_of(f).is_none() {
            out.push(f);
        }
    }
    out
}

fn synth() -> &'static Synthesizer {
    static S: std::sync::OnceLock<Synthesizer> = std::sync::OnceLock::new();
    S.get_or_init(|| Synthesizer::from_scratch(4, 3))
}

fn fnv(acc: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn search_circuits_and_stats_are_pinned() {
    let synth = synth();
    let fs = queries();
    let mut circuits: Vec<Circuit> = Vec::new();
    let mut table: Vec<StatsPin> = Vec::new();
    for threads in [1usize, 2] {
        for depth in [1usize, 8] {
            for gate in [true, false] {
                let opts = SearchOptions::new()
                    .threads(threads)
                    .probe_depth(depth)
                    .filter(gate);
                let mut total = SearchStats::default();
                let mut singles: Vec<SearchStats> = Vec::new();
                let mut digest = 0xCBF2_9CE4_8422_2325u64;
                for (j, &f) in fs.iter().enumerate() {
                    let syn = synth
                        .synthesize_with(f, &opts)
                        .unwrap_or_else(|e| panic!("query {j}: {e}"));
                    assert_eq!(syn.circuit.perm(4), f, "query {j}");
                    match circuits.get(j) {
                        Some(c) => assert_eq!(&syn.circuit, c, "query {j}, {opts:?}"),
                        None => circuits.push(syn.circuit.clone()),
                    }
                    let st = syn.stats;
                    assert_eq!(st.considered, st.gated + st.canonicalized, "query {j}");
                    assert!(st.probed <= st.canonicalized, "query {j}");
                    if !gate {
                        assert_eq!(st.gated, 0, "query {j}");
                    }
                    total.merge(&st);
                    singles.push(st);
                    for word in [st.considered, st.gated, st.canonicalized, st.probed] {
                        digest = fnv(digest, word);
                    }
                }
                // The batch path does the same per-query work.
                for (j, r) in synth.synthesize_many(&fs, &opts).iter().enumerate() {
                    let syn = r.as_ref().unwrap_or_else(|e| panic!("query {j}: {e}"));
                    assert_eq!(&syn.circuit, &circuits[j], "batched query {j}, {opts:?}");
                    assert_eq!(syn.stats, singles[j], "batched query {j}, {opts:?}");
                }
                table.push((
                    threads,
                    depth,
                    gate,
                    total.considered,
                    total.gated,
                    total.canonicalized,
                    total.probed,
                    digest,
                ));
            }
        }
    }
    let shown: Vec<String> = circuits.iter().map(ToString::to_string).collect();
    let measured = format!(
        "const CIRCUITS: [&str; QUERIES] = [\n{}];\n\n\
         const STATS: [StatsPin; 8] = [\n{}];",
        shown
            .iter()
            .map(|c| format!("    \"{c}\",\n"))
            .collect::<String>(),
        table
            .iter()
            .map(|r| format!(
                "    ({}, {}, {}, {}, {}, {}, {}, {:#018x}),\n",
                r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7
            ))
            .collect::<String>()
    );
    assert!(
        shown.iter().map(String::as_str).eq(CIRCUITS) && table[..] == STATS[..],
        "search work drifted from the pins; measured:\n{measured}"
    );
}

fn quantum_synth() -> &'static Synthesizer {
    static S: std::sync::OnceLock<Synthesizer> = std::sync::OnceLock::new();
    S.get_or_init(|| {
        Synthesizer::new(SearchTables::generate_weighted(
            GateLib::nct(4),
            CostModel::quantum(),
            7,
        ))
    })
}

/// The seeded quantum query set: random gates are appended until the
/// next one would push the string's cost past the reach.
fn quantum_queries() -> Vec<Perm> {
    let lib = GateLib::nct(4);
    let model = CostModel::quantum();
    let tables = quantum_synth().tables();
    let reach = tables.cost_reach();
    let mut next = splitmix(0x0C05_7ED0_C0DE);
    let mut out = Vec::with_capacity(QUANTUM_QUERIES);
    while out.len() < QUANTUM_QUERIES {
        let (mut f, mut cost) = (Perm::identity(), 0);
        loop {
            let id = (next() % lib.len() as u64) as usize;
            let gate_cost = model.gate_cost(lib.gate(id));
            if cost + gate_cost > reach {
                break;
            }
            cost += gate_cost;
            f = f.then(lib.perm_of(id));
        }
        if tables.cost_of(f).is_none() {
            out.push(f);
        }
    }
    out
}

#[test]
fn quantum_answers_are_pinned_across_threads_and_gate() {
    let synth = quantum_synth();
    let model = CostModel::quantum();
    let fs = quantum_queries();
    let mut answers: Vec<(String, u64, usize)> = Vec::new();
    for threads in [1usize, 2] {
        for gate in [true, false] {
            let opts = SearchOptions::new().threads(threads).filter(gate);
            let batch = synth.synthesize_many(&fs, &opts);
            for (j, &f) in fs.iter().enumerate() {
                let syn = synth
                    .synthesize_with(f, &opts)
                    .unwrap_or_else(|e| panic!("query {j}: {e}"));
                assert_eq!(syn.circuit.perm(4), f, "query {j}");
                assert_eq!(syn.circuit.cost(&model), syn.cost, "query {j}");
                let batched = batch[j]
                    .as_ref()
                    .unwrap_or_else(|e| panic!("query {j}: {e}"));
                assert_eq!(batched.circuit, syn.circuit, "batched query {j}, {opts:?}");
                assert_eq!(batched.cost, syn.cost, "batched query {j}, {opts:?}");
                assert_eq!(
                    batched.lists_scanned, syn.lists_scanned,
                    "batched query {j}"
                );
                let answer = (syn.circuit.to_string(), syn.cost, syn.lists_scanned);
                match answers.get(j) {
                    Some(pinned) => assert_eq!(&answer, pinned, "query {j}, {opts:?}"),
                    None => answers.push(answer),
                }
            }
        }
    }
    let measured: String = answers
        .iter()
        .map(|(c, cost, lists)| format!("    (\"{c}\", {cost}, {lists}),\n"))
        .collect();
    assert!(
        answers
            .iter()
            .map(|(c, cost, lists)| (c.as_str(), *cost, *lists))
            .eq(QUANTUM),
        "quantum answers drifted from the pins; measured:\n{measured}"
    );
}
