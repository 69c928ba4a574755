//! The byte-form batch and key kernels against the scalar `Perm` kernels.
//!
//! A [`CandidateBatch`] is filled by the byte-shuffle kernels of
//! `revsynth_mmap::shuffle` where the CPU has SSSE3 and POPCNT, and by
//! the scalar kernels otherwise (`compose_scalar`, also callable here).
//! Every test requires both fills to equal the scalar reference on every
//! candidate: the candidate (`Perm::then`), its inverse
//! (`Perm::inverse`), its weight key (`Perm::wire_weight_key`) and its
//! cycle key (`Perm::cycle_type_key`); `InvariantIndex::key_of` to equal
//! the keys' scalar mix; and `Symmetries::canonical_with_inverse`, fed the
//! batch's inverse, to equal `canonical_walk`. The gate leg requires
//! `admits_batch` to answer like one `admits` call per candidate on the
//! k = 5 tables' index and on its compact layout. Each test prints the
//! kernels it ran as `kernel: <batch> (canonicalization: <name>)`, which
//! read `ssse3+popcnt` and `ssse3` on a CPU that has both, or `scalar`;
//! pass `--nocapture` to see them.

use std::sync::OnceLock;

use revsynth_bfs::{symmetries, SearchTables};
use revsynth_canon::Symmetries;
use revsynth_perm::{hash64shift, Perm};
use revsynth_table::{ByteForm, CandidateBatch, InvariantIndex};

/// SplitMix64, as in the other property tests.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of the `2ⁿ` points of `n` wires.
    fn perm(&mut self, n: u32) -> Perm {
        let mut vals: Vec<u8> = (0..1u8 << n).collect();
        for i in (1..vals.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        Perm::from_values(&vals).expect("shuffle is a permutation")
    }

    fn frames(&mut self, n: u32, count: usize) -> Vec<ByteForm> {
        (0..count).map(|_| ByteForm::new(self.perm(n))).collect()
    }
}

/// Calls `visit` on every permutation of `values` (Heap's algorithm).
fn for_each_permutation(values: &mut [u8], visit: &mut impl FnMut(&[u8])) {
    fn heap(k: usize, values: &mut [u8], visit: &mut impl FnMut(&[u8])) {
        if k <= 1 {
            visit(values);
            return;
        }
        for i in 0..k - 1 {
            heap(k - 1, values, visit);
            values.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
        heap(k - 1, values, visit);
    }
    heap(values.len(), values, visit);
}

fn tables_k5() -> &'static SearchTables {
    static T: OnceLock<SearchTables> = OnceLock::new();
    T.get_or_init(|| SearchTables::generate(4, 5))
}

/// The scalar reference of the combined invariant key.
fn scalar_key(f: Perm) -> u64 {
    hash64shift(f.cycle_type_key()) ^ f.wire_weight_key()
}

/// Checks a batch both ways: filled by `compose` (the byte kernel where
/// it runs) and, when `scalar_too`, by `compose_scalar`. Every candidate,
/// inverse and key must be the scalar kernels' and the canonical form
/// from the batch's inverse the walk's. Returns the kernel `compose` ran.
fn check_batch(
    batch: &mut CandidateBatch,
    sym: &Symmetries,
    rep: Perm,
    fwd: &[ByteForm],
    inv: &[ByteForm],
    scalar_too: bool,
) -> &'static str {
    let want: Vec<Perm> = fwd
        .iter()
        .map(|frame| frame.perm().then(rep))
        .chain(inv.iter().map(|frame| rep.then(frame.perm())))
        .collect();
    let mut kernel = "scalar";
    for scalar in [false, true] {
        if scalar {
            if !scalar_too {
                break;
            }
            batch.compose_scalar(rep, fwd, inv);
        } else {
            batch.compose(rep, rep.inverse(), fwd, inv);
            kernel = batch.kernel();
        }
        let what = batch.kernel();
        assert_eq!(batch.candidates(), &want[..], "rep {rep}, {what}");
        let cycle_keys = batch.cycle_type_keys(u64::MAX);
        for (j, &c) in want.iter().enumerate() {
            let inverse = batch.inverse(j);
            assert_eq!(inverse, c.inverse(), "candidate {c}, {what}");
            assert_eq!(
                batch.weight_keys()[j],
                c.wire_weight_key(),
                "candidate {c}, {what}"
            );
            assert_eq!(cycle_keys[j], c.cycle_type_key(), "candidate {c}, {what}");
            if !scalar {
                assert_eq!(
                    sym.canonical_with_inverse(c, inverse),
                    sym.canonical_walk(c),
                    "candidate {c}"
                );
                assert_eq!(InvariantIndex::key_of(c), scalar_key(c), "candidate {c}");
            }
        }
        assert!(cycle_keys[want.len()..].iter().all(|&k| k == 0));
    }
    kernel
}

fn report(kernel: &str, sym: &Symmetries, what: &str) {
    println!(
        "kernel: {kernel} (canonicalization: {}; {what})",
        sym.kernel()
    );
}

#[test]
fn every_three_wire_function_as_a_representative() {
    // The representative and the composites with the identity frames run
    // through all 40,320 functions of 3 wires; the other frames compose
    // each with seeded functions. Three wires keep the walk in
    // `symmetries`, so the shuffle kernel is attached as it is at n = 4.
    let sym = match revsynth_mmap::shuffle::kernel() {
        Some(name) => {
            Symmetries::new(3).with_kernel(name, revsynth_mmap::shuffle::first_min_conjugate)
        }
        None => Symmetries::new(3),
    };
    let mut g = Gen(3);
    let mut fwd = g.frames(3, 3);
    let mut inv = g.frames(3, 3);
    fwd[0] = ByteForm::new(Perm::identity());
    inv[0] = ByteForm::new(Perm::identity());
    let mut batch = CandidateBatch::new();
    let mut values: Vec<u8> = (0..8).collect();
    let mut checked = 0;
    let mut kernel = "";
    for_each_permutation(&mut values, &mut |vals| {
        let rep = Perm::from_values(vals).expect("a permutation");
        kernel = check_batch(&mut batch, &sym, rep, &fwd, &inv, true);
        checked += 1;
    });
    assert_eq!(checked, 40_320);
    report(
        kernel,
        &sym,
        "all 40320 3-wire functions, 6 candidates each",
    );
}

#[test]
fn a_million_seeded_four_wire_candidates() {
    let sym = symmetries(4);
    let mut g = Gen(1004);
    let mut batch = CandidateBatch::new();
    let mut kernel = "";
    let mut checked = 0;
    for round in 0..21_000 {
        let rep = g.perm(4);
        let fwd = g.frames(4, 24);
        let inv = g.frames(4, 24);
        kernel = check_batch(&mut batch, &sym, rep, &fwd, &inv, round % 16 == 0);
        checked += 48;
    }
    assert!(checked >= 1_000_000);
    report(kernel, &sym, &format!("{checked} seeded 4-wire candidates"));
}

#[test]
fn every_stored_k5_representative_with_seeded_frames() {
    let tables = tables_k5();
    let sym = tables.sym();
    let mut g = Gen(1005);
    let pool_fwd = g.frames(4, 64);
    let pool_inv = g.frames(4, 64);
    let mut batch = CandidateBatch::new();
    let mut kernel = "";
    let mut checked = 0;
    for (level, reps) in tables.levels().iter().enumerate() {
        for (i, &rep) in reps.iter().enumerate() {
            // Every index is built by the key kernels; its keys are the
            // scalar ones.
            assert!(tables.invariants().admits_at(scalar_key(rep), level));
            let at = i % 61;
            let (fwd, inv) = (&pool_fwd[at..at + 3], &pool_inv[at..at + 3]);
            kernel = check_batch(&mut batch, sym, rep, fwd, inv, i % 64 == 0);
            checked += 6;
        }
    }
    assert_eq!(checked, 6 * tables.num_representatives());
    report(
        kernel,
        sym,
        &format!("every stored k = 5 representative, {checked} candidates"),
    );
}

#[test]
fn batch_gate_equals_one_admits_per_candidate_on_the_k5_index() {
    // Single-bit masks (one distance each) and multi-bit sets, on the
    // index as generation builds it and on its compact (v5) layout, for
    // batches of every stored level's representatives.
    let tables = tables_k5();
    let built = tables.invariants();
    let compact = built.compact();
    let masks: Vec<u32> = (0..=5)
        .map(|d| 1 << d)
        .chain([0, 0b11_0000, 0b10_1010, 0x3F, u32::MAX])
        .collect();
    let mut g = Gen(1006);
    let mut batch = CandidateBatch::new();
    let mut kernel = "";
    let mut batches = 0;
    for index in [built, &compact] {
        for reps in tables.levels() {
            for &rep in reps.iter().step_by(97) {
                let fwd = g.frames(4, 24);
                let inv = g.frames(4, 24);
                for scalar in [false, true] {
                    if scalar {
                        batch.compose_scalar(rep, &fwd, &inv);
                    } else {
                        batch.compose(rep, rep.inverse(), &fwd, &inv);
                        kernel = batch.kernel();
                    }
                    // Bit d of expected[j] ⇔ admits(candidate j, d); the
                    // k = 5 index holds no distance past 5.
                    let expected: Vec<u32> = batch
                        .candidates()
                        .iter()
                        .map(|&c| (0..=5).fold(0, |m, d| m | u32::from(index.admits(c, d)) << d))
                        .collect();
                    for &allowed in &masks {
                        let admitted = index.admits_batch(&batch, allowed);
                        assert_eq!(admitted >> batch.len(), 0);
                        for (j, &mask) in expected.iter().enumerate() {
                            assert_eq!(
                                admitted >> j & 1 == 1,
                                mask & allowed != 0,
                                "rep {rep}, candidate {j}, mask {allowed:#x}, {}",
                                batch.kernel()
                            );
                        }
                    }
                }
                batches += 1;
            }
        }
    }
    println!("kernel: {kernel} ({batches} gated batches of 48, built and compact index)");
}
