//! Cross-crate pipeline integration: persistence, parallelism, and
//! synthesis working together.

use std::sync::OnceLock;

use revsynth::bfs::{GenOptions, SearchTables};
use revsynth::circuit::GateLib;
use revsynth::core::{SearchOptions, Synthesizer};

fn synth_k4() -> &'static Synthesizer {
    static S: OnceLock<Synthesizer> = OnceLock::new();
    S.get_or_init(|| Synthesizer::from_scratch(4, 4))
}

#[test]
fn save_load_synthesize_roundtrip() {
    // The paper's workflow: generate once, save, load later, synthesize.
    let path = std::env::temp_dir().join(format!("revsynth-it-{}.bin", std::process::id()));
    let tables = SearchTables::generate(4, 4);
    tables.save(&path).expect("save");
    let loaded = SearchTables::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    // The reload holds the same classes, level by level, with the same
    // gate records (the content digest covers both, in any format).
    assert_eq!(loaded.levels(), tables.levels());
    assert_eq!(loaded.content_digest(), tables.content_digest());

    let original = Synthesizer::new(tables);
    let reloaded = Synthesizer::new(loaded);
    // Both must synthesize identical-size circuits, and fail alike beyond
    // their reach, along a walk through the gate library (circuits
    // themselves may differ only if multiple minimal circuits exist —
    // sizes must agree exactly). The walk's first dozen steps (sizes up
    // to the reach) and every 10th step after, in one batch each.
    let lib = GateLib::nct(4);
    let mut f = revsynth::perm::Perm::identity();
    let mut walk = Vec::new();
    for i in 0..200usize {
        f = f.then(lib.perm_of(i % lib.len()));
        if i < 12 || i % 10 == 0 {
            walk.push(f);
        }
    }
    let opts = SearchOptions::new().threads(1);
    let sizes = original.size_many(&walk, &opts);
    assert!(
        sizes.iter().any(Result::is_ok) && sizes.iter().any(Result::is_err),
        "the walk reaches past the tables: {sizes:?}"
    );
    assert_eq!(reloaded.size_many(&walk, &opts), sizes);
}

#[test]
fn parallel_tables_synthesize_identically() {
    let serial = Synthesizer::new(SearchTables::generate(4, 3));
    let parallel = Synthesizer::new(SearchTables::generate_opts(
        GateLib::nct(4),
        3,
        &GenOptions::new().threads(3),
    ));
    assert_eq!(serial.tables().levels(), parallel.tables().levels());
    let lib = GateLib::nct(4);
    let mut f = revsynth::perm::Perm::identity();
    for i in 0..150usize {
        f = f.then(lib.perm_of((i * 7) % lib.len()));
        assert_eq!(serial.size(f).ok(), parallel.size(f).ok(), "step {i}");
    }
}

#[test]
fn synthesized_circuits_use_library_gates_only() {
    let synth = synth_k4();
    let lib = synth.tables().lib();
    let mut f = revsynth::perm::Perm::identity();
    for i in 0..100usize {
        f = f.then(lib.perm_of((i * 11) % lib.len()));
        if let Ok(c) = synth.synthesize(f) {
            for g in c.iter() {
                assert!(lib.id_of(*g).is_some(), "gate {g} not in library");
            }
        }
    }
}

#[test]
fn equivalence_invariants_of_size() {
    // Size is invariant under inversion and wire relabeling — the
    // foundation of the ×48 reduction, checked through the whole stack.
    let synth = synth_k4();
    let sym = synth.tables().sym();
    let lib = GateLib::nct(4);
    let mut f = revsynth::perm::Perm::identity();
    for i in 0..60usize {
        f = f.then(lib.perm_of((i * 13) % lib.len()));
        let Ok(size) = synth.size(f) else { continue };
        assert_eq!(synth.size(f.inverse()).ok(), Some(size), "inverse at {i}");
        for sigma in revsynth::perm::WirePerm::all().into_iter().step_by(5) {
            assert_eq!(
                synth.size(f.conjugate_by_wires(sigma)).ok(),
                Some(size),
                "conjugate at {i}"
            );
        }
        assert_eq!(
            synth.size(sym.canonical(f)).ok(),
            Some(size),
            "canonical at {i}"
        );
    }
}

#[test]
fn depth_and_cost_metrics_are_consistent_with_size() {
    use revsynth::circuit::CostModel;
    let synth = synth_k4();
    let lib = GateLib::nct(4);
    let mut f = revsynth::perm::Perm::identity();
    for i in 0..80usize {
        f = f.then(lib.perm_of((i * 3 + 1) % lib.len()));
        if let Ok(c) = synth.synthesize(f) {
            assert!(c.depth() <= c.len(), "depth never exceeds gate count");
            assert_eq!(c.cost(&CostModel::unit()), c.len() as u64);
            assert!(c.cost(&CostModel::quantum()) >= c.len() as u64);
        }
    }
}
