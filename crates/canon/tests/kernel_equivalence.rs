//! The shuffle-table kernel against the plain-changes walk.
//!
//! With the SSSE3 shuffle kernel attached, [`Symmetries::canonical`] and
//! [`Symmetries::canonicalize`] run it where the CPU has SSSE3 and the
//! paper's walk elsewhere; the walk stays callable as `canonical_walk`
//! and `canonicalize_walk`. Every test here requires the two to agree on
//! the representative, the `inverted` flag and `sigma` (the witness
//! decides which circuit a replay produces) and prints the kernel that
//! ran as `kernel: ssse3` or `kernel: scalar`; pass `--nocapture` to see
//! it. At n = 4 the symmetries are those of `revsynth_bfs::symmetries`,
//! which every table canonicalizes with; it keeps n < 4 on the walk, so
//! those tests attach the kernel themselves.

use std::sync::OnceLock;

use revsynth_bfs::{symmetries, SearchTables};
use revsynth_canon::Symmetries;
use revsynth_circuit::GateLib;
use revsynth_perm::Perm;

fn assert_same(sym: &Symmetries, f: Perm) {
    assert_eq!(sym.canonicalize(f), sym.canonicalize_walk(f), "f = {f}");
    let walk = sym.canonical_walk(f);
    assert_eq!(sym.canonical(f), walk, "f = {f}");
    assert_eq!(sym.canonical_with_inverse(f, f.inverse()), walk, "f = {f}");
}

fn report(sym: &Symmetries, what: &str, checked: usize) {
    println!(
        "kernel: {} ({} wires, {checked} {what})",
        sym.kernel(),
        sym.wires()
    );
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

    fn perm(&mut self) -> Perm {
        let mut vals: [u8; 16] = std::array::from_fn(|i| i as u8);
        for i in (1..16usize).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        Perm::from_values(&vals).expect("shuffle is a permutation")
    }
}

/// `n`-wire symmetries with the SSSE3 kernel attached where the CPU has
/// it, as [`symmetries`] attaches it at n = 4.
fn with_shuffle_kernel(n: usize) -> Symmetries {
    let sym = Symmetries::new(n);
    match revsynth_mmap::shuffle::kernel() {
        Some(name) => sym.with_kernel(name, revsynth_mmap::shuffle::first_min_conjugate),
        None => sym,
    }
}

fn tables_k5() -> &'static SearchTables {
    static T: OnceLock<SearchTables> = OnceLock::new();
    T.get_or_init(|| SearchTables::generate(4, 5))
}

#[test]
fn every_function_on_two_and_three_wires() {
    for (n, count) in [(2usize, 24usize), (3, 40_320)] {
        let sym = with_shuffle_kernel(n);
        let mut values: Vec<u8> = (0..1u8 << n).collect();
        let mut checked = 0;
        for_each_permutation(&mut values, &mut |vals| {
            assert_same(&sym, Perm::from_values(vals).expect("a permutation"));
            checked += 1;
        });
        assert_eq!(checked, count, "n = {n}");
        report(&sym, "functions, all of them", checked);
    }
}

#[test]
fn a_million_seeded_four_wire_functions_the_identity_and_every_gate() {
    let sym = symmetries(4);
    let mut g = Gen(1003);
    for _ in 0..1_000_000 {
        assert_same(&sym, g.perm());
    }
    assert_same(&sym, Perm::identity());
    for (_, _, gate) in GateLib::nct(4).iter() {
        assert_same(&sym, gate);
    }
    report(
        &sym,
        "seeded functions, the identity and 32 gates",
        1_000_033,
    );
}

#[test]
fn every_stored_k5_representative_and_its_inverse() {
    // Representatives are the class minima, and the symmetric ones tie
    // with other conjugates: the first-minimum rule decides the witness.
    let tables = tables_k5();
    let sym = tables.sym();
    let mut checked = 0;
    for level in tables.levels() {
        for &rep in level {
            assert_same(sym, rep);
            assert_same(sym, rep.inverse());
            checked += 2;
        }
    }
    assert_eq!(checked, 2 * tables.num_representatives());
    report(sym, "stored k = 5 representatives and inverses", checked);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn every_level6_candidate_of_the_k5_tables() {
    // Exactly the candidates table generation canonicalizes to build
    // level 6: each level-5 representative, then its inverse unless it
    // is an involution, composed with every gate in library order.
    let tables = tables_k5();
    let sym = tables.sym();
    let gates: Vec<Perm> = tables.lib().iter().map(|(_, _, p)| p).collect();
    let mut checked = 0;
    for &rep in tables.level(5) {
        let inv = rep.inverse();
        let sources: &[Perm] = if inv == rep { &[rep] } else { &[rep, inv] };
        for &f in sources {
            for &gate in &gates {
                assert_same(sym, f.then(gate));
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 6_496_000);
    report(sym, "level-6 candidates", checked);
}
