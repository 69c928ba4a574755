//! Weighted (cost-bucketed) table generation — the paper's §5 sketch,
//! "search for small circuits via increasing cost by one", run all the
//! way into the [`SearchTables`](crate::SearchTables) product so the
//! meet-in-the-middle machinery works over any additive [`CostModel`],
//! not just gate count.
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
//! mechanics the gate-count peel uses, so
//! [`SearchTables::lookup`](crate::SearchTables::lookup) and the
//! fast-path reconstruction work unchanged. Each settled bucket is
//! expanded through the threaded candidate producer the breadth-first
//! driver uses ([`crate::expand`]), restricted to the gates the budget
//! can still afford.
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
//! whose generation was interrupted mid-bucket. The producer keeps the
//! candidate stream order for every thread count, so the thread count
//! never changes the result either.
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

use revsynth_canon::Symmetries;
use revsynth_circuit::{CostModel, Gate, GateLib};
use revsynth_perm::Perm;
use revsynth_table::{FnTable, InvariantIndex};

use crate::expand::for_each_candidate;
use crate::info::{decode_stored, StoredGate};
use crate::store::{CheckpointWriter, StoreError};

/// Hard ceiling on the number of distinct cost values (= buckets): the
/// invariant index stores per-bucket occurrence masks in a `u32`.
pub(crate) const MAX_BUCKETS: usize = 32;

/// Candidates discovered per tentative cost, as `(representative,
/// stored-gate byte)` in discovery order; duplicates are filtered at
/// settlement.
type Pending = BTreeMap<u64, Vec<(Perm, u8)>>;

/// Runs the uniform-cost search from the settled state in
/// `levels`/`bucket_costs` (which must describe a complete prefix: every
/// class of optimal cost ≤ `bucket_costs.last()` settled) until every
/// class of optimal cost ≤ `budget` is settled, producing candidates on
/// `threads` threads. The pending queue is rebuilt from the settled
/// frontier, so this is equally a fresh run (state = the identity
/// bucket), an in-RAM budget extension, or a checkpoint resume — all
/// byte-identical, whatever the thread count.
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
    threads: usize,
    mut ckpt: Option<&mut CheckpointWriter>,
) -> Result<(), StoreError> {
    assert!(
        budget <= 200,
        "cost budget {budget} looks like a unit mix-up"
    );
    let gates: Vec<(Gate, Perm)> = lib.iter().map(|(_, gate, perm)| (gate, perm)).collect();
    let gmax = gates
        .iter()
        .map(|&(gate, _)| model.gate_cost(gate))
        .max()
        .expect("library is non-empty");
    // Expands one settled bucket by the gates it can still afford,
    // filing each candidate under its tentative cost. The stored byte
    // holds the gate conjugated into the candidate's frame, and
    // conjugation keeps the control count the cost depends on.
    let expand_bucket = |table: &mut FnTable, pending: &mut Pending, bucket: &[Perm], cost: u64| {
        let affordable: Vec<(Gate, Perm)> = gates
            .iter()
            .copied()
            .filter(|&(gate, _)| cost + model.gate_cost(gate) <= budget)
            .collect();
        if affordable.is_empty() {
            return;
        }
        for_each_candidate(&affordable, sym, table, bucket, threads, |_, rep, byte| {
            let Some(StoredGate::Gate { gate, .. }) = decode_stored(byte) else {
                unreachable!("expansion records a gate")
            };
            pending
                .entry(cost + model.gate_cost(gate))
                .or_default()
                .push((rep, byte));
        });
    };
    let settled_max = *bucket_costs.last().expect("bucket 0 always exists");
    let mut pending = Pending::new();
    // Rebuild the frontier: only settled buckets within one gate cost of
    // the settled maximum can discover anything new (cheaper buckets'
    // expansions all land at tentative cost ≤ settled_max, i.e. on
    // classes that are already settled and filtered out).
    for (level, &cost) in levels.iter().zip(bucket_costs.iter()) {
        if cost + gmax > settled_max {
            expand_bucket(table, &mut pending, level, cost);
        }
    }

    while let Some((cost, batch)) = pending.pop_first() {
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
        expand_bucket(table, &mut pending, &newly, cost);
        if let Some(w) = ckpt.as_deref_mut() {
            w.append_level(cost, &newly, table)?;
        }
        bucket_costs.push(cost);
        levels.push(newly);
    }
    Ok(())
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
    use crate::SearchTables;

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
