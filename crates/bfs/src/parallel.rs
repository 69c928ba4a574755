//! Multi-threaded breadth-first search — a thin wrapper over the shared
//! sharded expander in [`crate::shard`].
//!
//! The expansion of level `i−1` is embarrassingly parallel: each worker
//! canonicalizes its share of the `(representative, gate)` products and
//! filters against the (read-only during the pass) hash table. Workers
//! take contiguous frontier chunks and their outputs are concatenated in
//! chunk order, so the candidate stream — and with it every recorded
//! boundary gate — is **identical to the serial search's**: parallel,
//! serial, sharded and resumed generations all produce byte-identical
//! tables (asserted by the `shard` and checkpoint tests).

use revsynth_circuit::GateLib;

use crate::shard::GenOptions;
use crate::tables::SearchTables;

pub(crate) fn run(lib: GateLib, k: usize, threads: usize) -> SearchTables {
    assert!(threads >= 1, "need at least one worker thread");
    crate::generate::run_opts(lib, k, &GenOptions::new().threads(threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_key_sets() {
        for n in [2usize, 3] {
            let serial = SearchTables::generate(n, 4);
            let parallel = SearchTables::generate_parallel(GateLib::nct(n), 4, 3);
            assert_eq!(serial.k(), parallel.k());
            for i in 0..=4usize {
                assert_eq!(serial.level(i), parallel.level(i), "n={n} level {i}");
            }
        }
    }

    #[test]
    fn parallel_n4_matches_serial_counts() {
        let serial = SearchTables::generate(4, 4);
        let parallel = SearchTables::generate_parallel(GateLib::nct(4), 4, 2);
        assert_eq!(serial.reduced_counts(), parallel.reduced_counts());
        for i in 0..=4usize {
            assert_eq!(serial.level(i), parallel.level(i), "level {i}");
        }
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        let a = SearchTables::generate_parallel(GateLib::nct(2), 6, 1);
        let b = SearchTables::generate(2, 6);
        assert_eq!(a.reduced_counts(), b.reduced_counts());
    }

    #[test]
    fn parallel_records_are_valid_boundary_gates() {
        use crate::info::StoredGate;
        let t = SearchTables::generate_parallel(GateLib::nct(3), 5, 3);
        for i in 1..=5usize {
            for &rep in t.level(i).iter().step_by(11) {
                match t.lookup(rep).unwrap().expect("present") {
                    StoredGate::Identity => panic!("identity record on level {i}"),
                    StoredGate::Gate { gate, is_first } => {
                        let g = gate.perm(3);
                        let peeled = if is_first { g.then(rep) } else { rep.then(g) };
                        assert_eq!(t.size_of(peeled), Some(i - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_records_match_serial_records_exactly() {
        // Stronger than "valid boundary gates": chunk-ordered candidate
        // production makes the recorded bytes identical to the serial
        // search's, which is what keeps store digests thread-count-free.
        let serial = SearchTables::generate(3, 4);
        let parallel = SearchTables::generate_parallel(GateLib::nct(3), 4, 3);
        for level in serial.levels() {
            for &rep in level {
                assert_eq!(parallel.lookup(rep), serial.lookup(rep), "{rep}");
            }
        }
    }
}
