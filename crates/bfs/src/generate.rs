//! Breadth-first search driver (paper Algorithm 2), built on the sharded
//! level expander in [`crate::shard`] and extendable level by level —
//! both in RAM ([`SearchTables::extend_to`]) and streamed to a
//! checkpointed store so an interrupted generation resumes from its
//! deepest completed level.
//!
//! # Completeness
//!
//! Claim: every equivalence class of size `i ≥ 1` contains a member of the
//! form `x.then(λ)` where `x` is a size-`(i−1)` canonical representative or
//! the inverse of one, and `λ` is a gate.
//!
//! Proof: take any `h` of size `i` with minimal circuit `h = g.then(μ)`
//! (`g` = all but the last gate, size `i−1`). Let `c = canonical(g)`.
//! Either `c = conj_σ(g)`, and then `conj_σ(h) = c.then(conj_σ(μ))` is an
//! equivalent of `h` of the required form; or `c = conj_σ(g⁻¹)`, i.e.
//! `c⁻¹ = conj_σ(g)`, and then `conj_σ(h) = c⁻¹.then(conj_σ(μ))`. ∎
//!
//! Therefore expanding every representative **and its inverse** by all
//! gates reaches at least one member of every size-`i` class; its canonical
//! form is inserted exactly once (the hash table already holds all classes
//! of size < i by induction, so smaller classes are filtered out).
//!
//! Because level `i` depends only on the table contents and the sorted
//! level-`(i−1)` list, the search is **restartable**: a store holding
//! levels `0..=j` is exactly the state the single-shot search had after
//! level `j`, so resuming from it and extending to `k` reproduces the
//! single-shot run byte for byte.
//!
//! # Stored gate records
//!
//! When a new representative `r = canonical(h)` with `h = x.then(λ)` is
//! inserted (witness `σ`, `inverted`):
//!
//! * not inverted: `r = conj_σ(x).then(conj_σ(λ))` — record
//!   `conj_σ(λ)` as the **last** gate;
//! * inverted: `r = conj_σ(h⁻¹) = conj_σ(λ).then(conj_σ(x⁻¹))` — record
//!   `conj_σ(λ)` as the **first** gate
//!
//! (gates are involutions, so `h⁻¹ = λ.then(x⁻¹)`).

use std::path::Path;

use revsynth_canon::Symmetries;
use revsynth_circuit::{CostModel, GateLib};
use revsynth_perm::Perm;
use revsynth_table::FnTable;

use crate::info::IDENTITY_BYTE;
use crate::shard::{expand_level, GenOptions};
use crate::store::{CheckpointWriter, StoreError};
use crate::tables::SearchTables;

pub(crate) fn run(lib: GateLib, k: usize) -> SearchTables {
    run_opts(lib, k, &GenOptions::new())
}

pub(crate) fn run_opts(lib: GateLib, k: usize, opts: &GenOptions) -> SearchTables {
    let (sym, mut table, mut levels) = seed(&lib, k);
    extend_levels(&lib, &sym, &mut table, &mut levels, k, opts, None)
        .expect("no checkpoint writer: extension performs no I/O");
    SearchTables::assemble(lib, sym, k, table, levels)
}

/// Generates from scratch while streaming every completed level to a v4
/// checkpoint store at `path` (write-level → fsync → update trailer).
pub(crate) fn run_checkpointed(
    lib: GateLib,
    k: usize,
    opts: &GenOptions,
    path: &Path,
) -> Result<SearchTables, StoreError> {
    let (sym, mut table, mut levels) = seed(&lib, k);
    let mut ckpt = CheckpointWriter::create(path, &lib, &CostModel::unit(), true)?;
    ckpt.append_level(0, &levels[0], &table)?;
    extend_levels(
        &lib,
        &sym,
        &mut table,
        &mut levels,
        k,
        opts,
        Some(&mut ckpt),
    )?;
    Ok(SearchTables::assemble(lib, sym, k, table, levels))
}

fn seed(lib: &GateLib, k: usize) -> (Symmetries, FnTable, Vec<Vec<Perm>>) {
    assert!(k <= 16, "k = {k} is far beyond any reachable optimal size");
    let sym = Symmetries::new(lib.wires());
    let mut table = FnTable::for_entries(SearchTables::estimated_total(lib, k));
    table.insert(Perm::identity(), IDENTITY_BYTE);
    (sym, table, vec![vec![Perm::identity()]])
}

/// Extends `levels` (currently complete through `levels.len() - 1`) up
/// to size `k`, appending each completed level to the checkpoint store
/// when one is given. This is the one loop behind fresh generation,
/// in-RAM extension and checkpoint resume; an empty frontier means the
/// group is exhausted and the remaining levels stay empty (still
/// recorded, so a resumed store and a single-shot one agree byte for
/// byte).
pub(crate) fn extend_levels(
    lib: &GateLib,
    sym: &Symmetries,
    table: &mut FnTable,
    levels: &mut Vec<Vec<Perm>>,
    k: usize,
    opts: &GenOptions,
    mut ckpt: Option<&mut CheckpointWriter>,
) -> Result<(), StoreError> {
    assert!(k <= 16, "k = {k} is far beyond any reachable optimal size");
    for i in levels.len()..=k {
        let frontier = &levels[i - 1];
        let level = if frontier.is_empty() {
            Vec::new()
        } else {
            expand_level(lib, sym, table, frontier, opts)
        };
        if let Some(w) = ckpt.as_deref_mut() {
            w.append_level(i as u64, &level, table)?;
        }
        levels.push(level);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::StoredGate;
    use crate::tables::N4_REDUCED_COUNTS;

    #[test]
    fn level0_is_identity_only() {
        let t = SearchTables::generate(4, 1);
        assert_eq!(t.level(0), &[Perm::identity()]);
        assert_eq!(t.lookup(Perm::identity()), Ok(Some(StoredGate::Identity)));
    }

    #[test]
    fn level1_reduced_count_is_4_for_n4() {
        // The 32 gates form 4 classes: NOT, CNOT, TOF, TOF4 (Table 4).
        let t = SearchTables::generate(4, 1);
        assert_eq!(t.level(1).len(), 4);
        for &rep in t.level(1) {
            assert!(t.sym().is_canonical(rep));
            assert_eq!(t.size_of(rep), Some(1));
        }
    }

    #[test]
    fn reduced_counts_match_paper_table4_to_size5() {
        let t = SearchTables::generate(4, 5);
        for (i, &expected) in N4_REDUCED_COUNTS.iter().take(6).enumerate() {
            assert_eq!(
                t.level(i).len() as u64,
                expected,
                "reduced count at size {i}"
            );
        }
    }

    #[test]
    fn every_gate_has_size_1() {
        let t = SearchTables::generate(4, 2);
        for (_, _, p) in GateLib::nct(4).iter() {
            assert_eq!(t.size_of(p), Some(1));
        }
    }

    #[test]
    fn products_of_two_gates_have_size_at_most_2() {
        let t = SearchTables::generate(4, 2);
        let lib = GateLib::nct(4);
        for (_, _, p) in lib.iter() {
            for (_, _, q) in lib.iter() {
                let size = t.size_of(p.then(q)).expect("size ≤ 2 must be found");
                assert!(size <= 2);
                if p == q {
                    assert_eq!(size, 0);
                }
            }
        }
    }

    #[test]
    fn stored_gate_peels_one_level() {
        // For every size-i representative, composing with the stored gate
        // on the recorded side yields a size-(i-1) function.
        let t = SearchTables::generate(4, 4);
        for i in 1..=4usize {
            for &rep in t.level(i).iter().step_by(7) {
                match t
                    .lookup(rep)
                    .unwrap()
                    .expect("level member must be in table")
                {
                    StoredGate::Identity => panic!("identity record on nonzero level"),
                    StoredGate::Gate { gate, is_first } => {
                        let g = gate.perm(4);
                        let peeled = if is_first { g.then(rep) } else { rep.then(g) };
                        assert_eq!(
                            t.size_of(peeled),
                            Some(i - 1),
                            "size {i} rep {rep} gate {gate} is_first={is_first}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariant_index_admits_every_stored_representative() {
        use revsynth_table::InvariantIndex;
        let t = SearchTables::generate(4, 3);
        let index = t.invariants();
        assert!(!index.is_empty());
        for i in 0..=3usize {
            for &rep in t.level(i) {
                let key = InvariantIndex::key_of(rep);
                assert!(index.admits_at(key, i), "size {i} rep {rep}");
                assert!(index.min_distance(key).expect("stored") as usize <= i);
            }
        }
        // The gate must reject invariants no stored function has: a
        // random-looking full-support permutation needs far more than 3
        // gates, and its cycle structure matches nothing of size ≤ 3.
        let generic =
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
        assert!(t.size_of(generic).is_none());
        assert_eq!(index.distance_mask(InvariantIndex::key_of(generic)), 0);
    }

    #[test]
    fn small_group_exhausts_and_stops() {
        // n = 2: only 24 functions exist; deep k must terminate with empty
        // tail levels and total classes summing to the whole group.
        let t = SearchTables::generate(2, 12);
        let total: u64 = t.counts().iter().map(|c| c.functions).sum();
        assert_eq!(total, 24);
        assert!(t.levels().iter().any(|l| l.is_empty()));
    }

    #[test]
    fn linear_library_exhausts_the_affine_group_n3() {
        // NOT/CNOT circuits on 3 wires compute exactly the affine group of
        // order 8 · |GL(3,2)| = 8 · 168 = 1344.
        let t = SearchTables::generate_with(GateLib::linear(3), 12);
        let total: u64 = t.counts().iter().map(|c| c.functions).sum();
        assert_eq!(total, 1344);
    }

    #[test]
    fn in_ram_extension_matches_single_shot() {
        // Level-by-level extension is the single-shot search replayed: the
        // level lists AND the recorded boundary bytes must coincide.
        let single = SearchTables::generate(3, 5);
        let mut grown = SearchTables::generate(3, 2);
        grown.extend_to(5, &GenOptions::new());
        assert_eq!(grown.k(), 5);
        assert_eq!(grown.levels(), single.levels());
        assert_eq!(grown.invariants(), single.invariants());
        for level in single.levels() {
            for &rep in level {
                assert_eq!(grown.lookup(rep), single.lookup(rep), "{rep}");
            }
        }
        // Extending to a size already covered is a no-op.
        grown.extend_to(3, &GenOptions::new());
        assert_eq!(grown.k(), 5);
    }
}
