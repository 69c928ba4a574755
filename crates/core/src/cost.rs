//! The residue rule: the one stop rule the meet-in-the-middle scan runs
//! under, for gate count and weighted cost alike (paper §5).
//!
//! The paper's search minimizes gate count and sketches the weighted
//! variant as *"one needs to search for small circuits via increasing
//! cost by one"*. [`SearchTables::generate_weighted`] builds the tables
//! that way, in buckets of one cost each; the scan then needs only to
//! know which residue buckets a split may still use. That set is read off
//! the tables, so gate-count and cost-bucketed tables share one scan (see
//! the [`search` module](crate::search) docs for why the floor is sound).

use revsynth_bfs::SearchTables;

/// Which residue buckets a split may still use, given its member bucket
/// and the query's cost cap: bucket `rb` is allowed iff
/// `cost[rb] ≥ floor` and `cost[rb] + cost[ib] ≤ cap`, with
/// `floor = max(1, B − g(B) + 1)`, where `B` is the tables' max cost and
/// `g(B)` the costliest library gate of cost ≤ `B`.
pub(crate) struct ResidueRule<'a> {
    costs: &'a [u64],
    floor: u64,
}

impl<'a> ResidueRule<'a> {
    /// Reads the rule off the tables.
    pub(crate) fn new(tables: &'a SearchTables) -> Self {
        let b = tables.max_cost();
        ResidueRule {
            costs: tables.bucket_costs(),
            floor: (b + 1)
                .saturating_sub(tables.max_gate_cost_within(b))
                .max(1),
        }
    }

    /// The number of buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.costs.len()
    }

    /// The cost of bucket `i`.
    pub(crate) fn cost(&self, i: usize) -> u64 {
        self.costs[i]
    }

    /// The allowed residue buckets for member bucket `ib` under `cap`,
    /// as a bitmask over bucket indices (empty once no residue fits).
    pub(crate) fn mask(&self, ib: usize, cap: u64) -> u32 {
        let member = self.costs[ib];
        let mut mask = 0u32;
        for (rb, &c) in self.costs.iter().enumerate() {
            if c >= self.floor && c + member <= cap {
                mask |= 1 << rb;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SynthesisError, Synthesizer};
    use revsynth_bfs::reference;
    use revsynth_circuit::{CostModel, GateLib};
    use revsynth_perm::Perm;
    use std::collections::{BTreeMap, HashMap, HashSet};

    /// Reference: whole-space Dijkstra without symmetry reduction.
    fn reference_costs(lib: &GateLib, model: &CostModel, max_cost: u64) -> HashMap<Perm, u64> {
        let mut dist: HashMap<Perm, u64> = HashMap::new();
        dist.insert(Perm::identity(), 0);
        let mut buckets: BTreeMap<u64, Vec<Perm>> = BTreeMap::new();
        buckets.insert(0, vec![Perm::identity()]);
        let mut settled: HashSet<Perm> = HashSet::new();
        while let Some((&c, _)) = buckets.iter().next() {
            for f in buckets.remove(&c).expect("key just observed") {
                if !settled.insert(f) {
                    continue;
                }
                for (_, gate, gp) in lib.iter() {
                    let nc = c + model.gate_cost(gate);
                    let h = f.then(gp);
                    if nc <= max_cost && dist.get(&h).is_none_or(|&old| nc < old) {
                        dist.insert(h, nc);
                        buckets.entry(nc).or_default().push(h);
                    }
                }
            }
        }
        dist
    }

    fn weighted(n: usize, model: CostModel, budget: u64) -> Synthesizer {
        Synthesizer::new(SearchTables::generate_weighted(
            GateLib::nct(n),
            model,
            budget,
        ))
    }

    #[test]
    fn floor_and_masks_read_off_the_tables() {
        // Gate-count tables: floor k, so the only residue is bucket k,
        // allowed while k + i fits the cap.
        let unit = SearchTables::generate(3, 3);
        let rule = ResidueRule::new(&unit);
        assert_eq!(rule.buckets(), 4);
        assert_eq!(rule.mask(1, 6), 1 << 3);
        assert_eq!(rule.mask(3, 6), 1 << 3);
        assert_eq!(rule.mask(3, 5), 0, "the first hit closes the query");
        // Quantum tables at budget 7 on 3 wires: TOF costs 5, so the
        // floor is 7 − 5 + 1 = 3.
        let quantum = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 7);
        assert_eq!(quantum.bucket_costs(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        let rule = ResidueRule::new(&quantum);
        assert_eq!(rule.mask(1, 9), 0b1111_1000);
        assert_eq!(rule.mask(5, 9), 0b0001_1000);
        assert_eq!(rule.mask(7, 9), 0, "no residue of cost ≥ 3 fits");
        // On 4 wires TOF4 costs 13, more than budget 7: no split of the
        // scan can contain it, so the floor is still 7 − 5 + 1 = 3.
        let quantum4 = SearchTables::generate_weighted(GateLib::nct(4), CostModel::quantum(), 7);
        assert_eq!(quantum4.cost_reach(), 10);
        let rule = ResidueRule::new(&quantum4);
        assert_eq!(rule.floor, 3);
        assert_eq!(rule.mask(1, 10), 0b1111_1000);
    }

    #[test]
    fn unit_cost_equals_gate_count_n3() {
        // Unit-model weighted tables are the breadth-first levels, and
        // the engine over them answers the oracle's sizes.
        let synth = weighted(3, CostModel::unit(), 5);
        let count_synth = Synthesizer::from_scratch(3, 3);
        for cost in 0..=synth.tables().k() {
            for &rep in synth.tables().level(cost) {
                assert_eq!(count_synth.size(rep).ok(), Some(cost), "{rep}");
            }
        }
        let mut oracle: Vec<_> = reference::full_space_sizes(&GateLib::nct(3))
            .into_iter()
            .collect();
        oracle.sort_unstable();
        for &(f, size) in oracle.iter().step_by(97) {
            assert_eq!(synth.size(f), Ok(size), "f = {f}");
        }
    }

    #[test]
    fn quantum_cost_matches_reference_n2_exhaustively() {
        let model = CostModel::quantum();
        let oracle = reference_costs(&GateLib::nct(2), &model, 8);
        let synth = weighted(2, model, 8);
        for (&f, &cost) in &oracle {
            assert_eq!(synth.tables().cost_of(f), Some(cost), "f = {f}");
            let c = synth.synthesize(f).expect("within budget");
            assert_eq!(c.perm(2), f);
            assert_eq!(c.cost(&model), cost);
        }
        // And nothing beyond the oracle is claimed.
        let stored: u64 = synth.tables().counts().iter().map(|c| c.functions).sum();
        assert_eq!(stored, oracle.len() as u64);
    }

    #[test]
    fn quantum_cost_matches_reference_n3_sampled() {
        // Budget 7 reaches cost 2·7 − 5 + 1 = 10, so oracle costs 8–10
        // go through the meet-in-the-middle scan.
        let model = CostModel::quantum();
        let mut oracle: Vec<_> = reference_costs(&GateLib::nct(3), &model, 10)
            .into_iter()
            .collect();
        oracle.sort_unstable();
        let synth = weighted(3, model, 7);
        assert_eq!(synth.max_size(), 10);
        let mut via_scan = 0;
        for &(f, cost) in oracle.iter().step_by(17) {
            let syn = synth.synthesize_within(f, 10).expect("within reach");
            assert_eq!(syn.cost, cost, "f = {f}");
            assert_eq!(syn.circuit.perm(3), f);
            assert_eq!(syn.circuit.cost(&model), cost);
            via_scan += usize::from(syn.lists_scanned > 0);
        }
        assert!(via_scan > 0, "the sample must reach the scan");
    }

    #[test]
    fn swap_costs_three_cnots() {
        let synth = weighted(4, CostModel::quantum(), 6);
        let vals: Vec<u8> = (0..16usize)
            .map(|x| {
                let (a, b) = (x & 1, (x >> 1) & 1);
                (x & !3) as u8 | (a << 1) as u8 | b as u8
            })
            .collect();
        let swap = Perm::from_values(&vals).unwrap();
        assert_eq!(synth.tables().cost_of(swap), Some(3));
        let c = synth.synthesize(swap).unwrap();
        assert!(c.iter().all(|g| g.num_controls() == 1), "three CNOTs");
    }

    #[test]
    fn cost_optimal_can_beat_gate_optimal_on_cost() {
        // Over all classes of quantum cost ≤ 9 on 3 wires, the cost-optimal
        // circuit's cost is never above the gate-optimal circuit's cost,
        // and is strictly below for at least one function (a gate-count
        // optimum that uses a Toffoli where two CNOTs + NOTs would do).
        let model = CostModel::quantum();
        let cost_synth = weighted(3, model, 9);
        let gate_synth = Synthesizer::from_scratch(3, 4);
        let mut strictly_better = 0u32;
        for bucket in 0..=cost_synth.tables().k() {
            for &rep in cost_synth.tables().level(bucket) {
                let cheap = cost_synth.synthesize(rep).expect("stored");
                if let Ok(small) = gate_synth.synthesize(rep) {
                    assert!(cheap.cost(&model) <= small.cost(&model), "{rep}");
                    if cheap.cost(&model) < small.cost(&model) {
                        strictly_better += 1;
                    }
                    // And conversely the gate-count optimum has no more
                    // gates than the cost optimum.
                    assert!(small.len() <= cheap.len(), "{rep}");
                }
            }
        }
        assert!(
            strictly_better > 0,
            "weighted search must pay off somewhere"
        );
    }

    #[test]
    fn out_of_budget_returns_none() {
        // Unit tables to budget 2 store sizes ≤ 2 and reach 4; this
        // hwb-like 3-wire function needs more.
        let synth = weighted(3, CostModel::unit(), 2);
        let f = Perm::from_values(&[0, 2, 4, 6, 1, 3, 5, 7]).unwrap();
        assert!(Synthesizer::from_scratch(3, 4).size(f).unwrap() > 4);
        assert_eq!(synth.tables().cost_of(f), None);
        assert!(matches!(
            synth.synthesize(f),
            Err(SynthesisError::SizeExceedsLimit { limit: 4, .. })
        ));
    }
}
