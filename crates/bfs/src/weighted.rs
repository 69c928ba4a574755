//! Weighted (cost-bucketed) table generation — the paper's §5 sketch,
//! "search for small circuits via increasing cost by one", run all the
//! way into the [`SearchTables`] product so the meet-in-the-middle
//! machinery works over any additive [`CostModel`], not just gate count.
//!
//! # Algorithm
//!
//! A uniform-cost search (Dijkstra with an integer bucket queue) over
//! equivalence classes: expanding a settled class `f` (and its inverse —
//! the same completeness argument as the breadth-first `generate`
//! module, since relabeling and reversal preserve every gate's cost) by
//! every library gate `λ` discovers `canonical(f.then(λ))` at tentative
//! cost `cost(f) + cost(λ)`. Classes settle in nondecreasing cost, so
//! the first settlement is at the optimal cost and the recorded boundary
//! gate peels toward a *strictly cheaper* function — exactly the witness
//! mechanics the gate-count peel uses, so [`SearchTables::lookup`] and
//! the fast-path reconstruction work unchanged.
//!
//! # Restartability
//!
//! Settled buckets are expanded in **sorted representative order**, which
//! makes the whole search a deterministic function of the settled prefix:
//! the pending queue can always be rebuilt by re-expanding the settled
//! buckets that can still reach past the settled frontier (those with
//! `cost > settled_max − max_gate_cost`; anything cheaper only produces
//! candidates that are already settled). [`settle`] therefore serves
//! three callers with byte-identical results: fresh generation,
//! budget extension of in-RAM tables, and resuming a checkpointed store
//! whose generation was interrupted mid-bucket.
//!
//! # The product
//!
//! Levels become **cost buckets**: `levels[i]` holds the sorted
//! representatives of optimal cost exactly `bucket_costs[i]`, with
//! `bucket_costs` strictly ascending from 0 (the identity). The unit
//! model degenerates to `bucket_costs[i] == i` — the same level layout
//! the breadth-first paths produce — so the engine's one residue rule
//! reduces to the gate-count scan on it.
//!
//! The [`InvariantIndex`] is keyed by **bucket index** (not raw cost),
//! so the scan's gate asks "does any stored class in an allowed
//! residue bucket share this candidate's invariants" — the exact-`k`
//! residue argument of the gate-count gate generalized to
//! exact-residual-cost buckets. Bucket indices must fit the index's
//! 32-bit distance masks, hence the budget assertion below.

use std::collections::BTreeMap;
use std::path::Path;

use revsynth_canon::Symmetries;
use revsynth_circuit::{CostModel, GateLib};
use revsynth_perm::Perm;
use revsynth_table::{FnTable, InvariantIndex};

use crate::info::{encode_stored, IDENTITY_BYTE};
use crate::store::{CheckpointWriter, StoreError};
use crate::tables::SearchTables;

/// Hard ceiling on the number of distinct cost values (= buckets): the
/// invariant index stores per-bucket occurrence masks in a `u32`.
pub(crate) const MAX_BUCKETS: usize = 32;

pub(crate) fn run(lib: GateLib, model: CostModel, budget: u64) -> SearchTables {
    let (sym, mut table, mut levels, mut costs) = seed(lib.wires());
    settle(
        &lib,
        &model,
        &sym,
        &mut table,
        &mut levels,
        &mut costs,
        budget,
        None,
    )
    .expect("no checkpoint writer: settling performs no I/O");
    SearchTables::assemble_weighted(lib, sym, model, table, levels, costs)
}

/// Fresh weighted generation streamed to a v4 checkpoint store: every
/// settled bucket is written (then fsynced) before the next one starts.
pub(crate) fn run_checkpointed(
    lib: GateLib,
    model: CostModel,
    budget: u64,
    path: &Path,
) -> Result<SearchTables, StoreError> {
    let (sym, mut table, mut levels, mut costs) = seed(lib.wires());
    let mut ckpt = CheckpointWriter::create(path, &lib, &model, true)?;
    ckpt.append_level(0, &levels[0], &table)?;
    settle(
        &lib,
        &model,
        &sym,
        &mut table,
        &mut levels,
        &mut costs,
        budget,
        Some(&mut ckpt),
    )?;
    Ok(SearchTables::assemble_weighted(
        lib, sym, model, table, levels, costs,
    ))
}

fn seed(n: usize) -> (Symmetries, FnTable, Vec<Vec<Perm>>, Vec<u64>) {
    let sym = Symmetries::new(n);
    let mut table = FnTable::for_entries(1 << 12);
    table.insert(Perm::identity(), IDENTITY_BYTE);
    (sym, table, vec![vec![Perm::identity()]], vec![0])
}

/// Runs the uniform-cost search from the settled state in
/// `levels`/`bucket_costs` (which must describe a complete prefix: every
/// class of optimal cost ≤ `bucket_costs.last()` settled) until every
/// class of optimal cost ≤ `budget` is settled. The pending queue is
/// rebuilt from the settled frontier, so this is equally a fresh run
/// (state = the identity bucket), an in-RAM budget extension, or a
/// checkpoint resume — all byte-identical.
///
/// # Panics
///
/// Panics if `budget > 200` or the model produces more than
/// [`MAX_BUCKETS`] distinct cost values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn settle(
    lib: &GateLib,
    model: &CostModel,
    sym: &Symmetries,
    table: &mut FnTable,
    levels: &mut Vec<Vec<Perm>>,
    bucket_costs: &mut Vec<u64>,
    budget: u64,
    mut ckpt: Option<&mut CheckpointWriter>,
) -> Result<(), StoreError> {
    assert!(
        budget <= 200,
        "cost budget {budget} looks like a unit mix-up"
    );
    let gmax = lib
        .iter()
        .map(|(_, gate, _)| model.gate_cost(gate))
        .max()
        .expect("library is non-empty");
    let settled_max = *bucket_costs.last().expect("bucket 0 always exists");
    // pending[c] = (representative, stored-gate byte) discovered at
    // tentative cost c; duplicates are filtered at settlement.
    let mut pending: BTreeMap<u64, Vec<(Perm, u8)>> = BTreeMap::new();
    // Rebuild the frontier: only settled buckets within one gate cost of
    // the settled maximum can discover anything new (cheaper buckets'
    // expansions all land at tentative cost ≤ settled_max, i.e. on
    // classes that are already settled and filtered out).
    for (i, level) in levels.iter().enumerate() {
        let cost = bucket_costs[i];
        if cost + gmax <= settled_max {
            continue;
        }
        for &rep in level {
            expand(lib, sym, model, rep, cost, budget, table, &mut pending);
            let inv = rep.inverse();
            if inv != rep {
                expand(lib, sym, model, inv, cost, budget, table, &mut pending);
            }
        }
    }

    while let Some((&cost, _)) = pending.iter().next() {
        let batch = pending.remove(&cost).expect("key just observed");
        let mut newly: Vec<Perm> = Vec::new();
        for (rep, byte) in batch {
            // Settled earlier (at this or a smaller cost) ⇒ skip.
            if table.insert_if_absent(rep, byte) {
                newly.push(rep);
            }
        }
        if newly.is_empty() {
            continue;
        }
        assert!(
            bucket_costs.len() < MAX_BUCKETS,
            "more than {MAX_BUCKETS} cost buckets exceed the 32-bit invariant masks \
             (lower the budget)"
        );
        // Sorted expansion order makes the search restartable: a resumed
        // run re-expands stored (sorted) buckets and must push the same
        // pending stream the uninterrupted run pushed.
        newly.sort_unstable();
        for &rep in &newly {
            expand(lib, sym, model, rep, cost, budget, table, &mut pending);
            let inv = rep.inverse();
            if inv != rep {
                expand(lib, sym, model, inv, cost, budget, table, &mut pending);
            }
        }
        if let Some(w) = ckpt.as_deref_mut() {
            w.append_level(cost, &newly, table)?;
        }
        bucket_costs.push(cost);
        levels.push(newly);
    }
    Ok(())
}

/// Pushes every one-gate expansion of `f` (settled at `cost`) into the
/// pending buckets, recording the boundary-gate byte exactly as the
/// breadth-first expansion does.
#[allow(clippy::too_many_arguments)]
fn expand(
    lib: &GateLib,
    sym: &Symmetries,
    model: &CostModel,
    f: Perm,
    cost: u64,
    budget: u64,
    table: &FnTable,
    pending: &mut BTreeMap<u64, Vec<(Perm, u8)>>,
) {
    for (_, gate, gate_perm) in lib.iter() {
        let next_cost = cost + model.gate_cost(gate);
        if next_cost > budget {
            continue;
        }
        let h = f.then(gate_perm);
        let w = sym.canonicalize(h);
        if table.contains(w.rep) {
            continue;
        }
        let stored = gate.conjugate_by_wires(w.sigma);
        pending
            .entry(next_cost)
            .or_default()
            .push((w.rep, encode_stored(stored, w.inverted)));
    }
}

/// Builds the bucket-indexed invariant index shared by every
/// construction path (the distance recorded per representative is its
/// **bucket index**; for unit buckets that equals the optimal size).
pub(crate) fn bucket_invariants(levels: &crate::tables::Levels) -> InvariantIndex {
    InvariantIndex::build(
        levels
            .iter()
            .enumerate()
            .flat_map(|(i, level)| level.iter().map(move |&rep| (rep, i))),
        levels.total(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weighted_tables_match_the_breadth_first_levels() {
        // The degenerate case: a unit-cost Dijkstra settles exactly the
        // breadth-first levels (same representative sets per size), so
        // the weighted path is a strict generalization of the BFS.
        for (n, k) in [(3usize, 3u64), (4, 2)] {
            let bfs = SearchTables::generate(n, k as usize);
            let weighted = SearchTables::generate_weighted(GateLib::nct(n), CostModel::unit(), k);
            assert!(!weighted.is_cost_bucketed(), "unit buckets are levels");
            assert_eq!(weighted.levels().len(), bfs.levels().len());
            for (i, (w, b)) in weighted.levels().iter().zip(bfs.levels()).enumerate() {
                assert_eq!(w, b, "n={n} k={k} level {i}");
                assert_eq!(weighted.bucket_cost(i), i as u64);
            }
            assert_eq!(weighted.invariants(), bfs.invariants());
        }
    }

    #[test]
    fn quantum_buckets_are_strictly_ascending_and_start_at_zero() {
        let t = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 8);
        assert!(t.is_cost_bucketed());
        assert_eq!(t.bucket_cost(0), 0);
        assert_eq!(t.level(0), &[Perm::identity()]);
        for i in 1..t.levels().len() {
            assert!(t.bucket_cost(i) > t.bucket_cost(i - 1), "bucket {i}");
            assert!(!t.level(i).is_empty(), "settled buckets are non-empty");
        }
        assert_eq!(t.max_cost(), 8);
        // Every single gate lands in the bucket of its own cost.
        for (_, gate, p) in GateLib::nct(3).iter() {
            assert_eq!(t.cost_of(p), Some(CostModel::quantum().gate_cost(gate)));
        }
    }

    #[test]
    fn cost_of_is_class_invariant_and_bounded() {
        let t = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 7);
        let sym = t.sym();
        for i in 0..t.levels().len() {
            for &rep in t.level(i).iter().step_by(3) {
                let cost = t.bucket_cost(i);
                assert_eq!(t.cost_of(rep), Some(cost));
                assert_eq!(t.cost_of(rep.inverse()), Some(cost), "inversion");
                for member in sym.class_members(rep).into_iter().step_by(7) {
                    assert_eq!(t.cost_of(member), Some(cost), "member of {rep}");
                }
            }
        }
    }

    #[test]
    fn stored_gate_peels_to_a_cheaper_bucket() {
        // For every settled non-identity representative, composing with
        // the stored boundary gate on the recorded side lands in a
        // strictly cheaper bucket — the invariant the fast-path peel
        // relies on for termination and optimality.
        use crate::info::StoredGate;
        let t = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 7);
        for i in 1..t.levels().len() {
            for &rep in t.level(i) {
                match t.lookup(rep).unwrap().expect("settled") {
                    StoredGate::Identity => panic!("identity record in bucket {i}"),
                    StoredGate::Gate { gate, is_first } => {
                        let g = gate.perm(3);
                        let peeled = if is_first { g.then(rep) } else { rep.then(g) };
                        let peeled_cost = t.cost_of(peeled).expect("cheaper ⇒ settled");
                        assert!(
                            peeled_cost < t.bucket_cost(i),
                            "bucket {i} rep {rep}: {peeled_cost} ≥ {}",
                            t.bucket_cost(i)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_reach_formula() {
        let t = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 8);
        // n = 3 library: costliest gate is TOF at 5 ⇒ reach 2·8 − 5 + 1.
        assert_eq!(t.cost_reach(), 12);
        let u = SearchTables::generate(4, 2);
        assert_eq!(u.cost_reach(), 4, "unit reach is 2k");
    }

    #[test]
    fn budget_extension_matches_single_shot() {
        // Settle to 5, extend in place to 8: same buckets, same recorded
        // bytes as settling to 8 in one shot — the restartability
        // property the checkpoint/resume path is built on.
        let single = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 8);
        let mut grown = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 5);
        grown.extend_to(8, &crate::GenOptions::new());
        assert_eq!(grown.bucket_costs(), single.bucket_costs());
        assert_eq!(grown.levels(), single.levels());
        assert_eq!(grown.invariants(), single.invariants());
        for level in single.levels() {
            for &rep in level {
                assert_eq!(grown.lookup(rep), single.lookup(rep), "{rep}");
            }
        }
    }
}
