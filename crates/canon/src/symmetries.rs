//! Canonicalization: the shuffle-table kernel and the plain-changes walk.

use std::fmt;

use revsynth_circuit::Gate;
use revsynth_perm::{Perm, WirePerm};

/// Index into `TRANSPOSITION_MASKS` for the adjacent pair `(w, w+1)`.
const ADJACENT_MASK_INDEX: [usize; 3] = [0, 3, 5]; // (0,1), (1,2), (2,3)

/// The number of table pairs a [`ShuffleKernel`] reads: `4!`, one per
/// wire relabeling of a 4-wire function.
pub const SHUFFLE_TABLES: usize = 24;

/// A shuffle-table canonicalization kernel, attached to a [`Symmetries`]
/// with [`Symmetries::with_kernel`].
///
/// `kernel(f, f_inverse, gather, relabel)` returns the first minimum,
/// with its index, of the 48 packed words `conj_0(f), …, conj_23(f),
/// conj_0(f⁻¹), …, conj_23(f⁻¹)`, where nibble `x` of `conj_s(p)` is
/// `relabel[s][p(gather[s][x])]` — or `None` when the running CPU cannot
/// execute it. Ties go to the lower index. `f_inverse` is `Some(f⁻¹)`
/// when the caller already holds the inverse
/// ([`Symmetries::canonical_with_inverse`]); with `None` the kernel
/// inverts `f` itself.
///
/// Choosing CPU instructions at run time takes `unsafe`, which this
/// crate forbids. The SSSE3 kernel is
/// `revsynth_mmap::shuffle::first_min_conjugate`, and
/// `revsynth_bfs::symmetries` attaches it to the symmetries of every
/// table that crate builds or loads.
pub type ShuffleKernel = fn(
    Perm,
    Option<Perm>,
    &[[u8; 16]; SHUFFLE_TABLES],
    &[[u8; 16]; SHUFFLE_TABLES],
) -> Option<(Perm, usize)>;

/// Precomputed symmetry data for an `n`-wire domain: the transposition walk
/// that visits all `n!` wire relabelings, the prefix relabelings needed
/// to reconstruct witnesses, and two 16-byte shuffle tables per
/// relabeling for a [`ShuffleKernel`].
///
/// Construction is cheap (a tiny backtracking search over at most 24
/// nodes); build once and share.
#[derive(Clone)]
pub struct Symmetries {
    n: usize,
    /// Mask index (into `TRANSPOSITION_MASKS`) per walk step.
    walk: Vec<usize>,
    /// `prefixes[i]` = composite relabeling after `i` steps (`prefixes[0]`
    /// is the identity); length `walk.len() + 1 == n!`.
    prefixes: Vec<WirePerm>,
    /// `gather[i][x] = π_σ⁻¹(x)` for `σ = prefixes[i]`: the position
    /// table of the shuffle kernel. Past `n!` entries, copies of the
    /// identity's table pad it to the kernel's fixed 24.
    gather: [[u8; 16]; SHUFFLE_TABLES],
    /// `relabel[i][y] = π_σ(y)` for `σ = prefixes[i]`: its value table,
    /// padded the same way.
    relabel: [[u8; 16]; SHUFFLE_TABLES],
    /// The attached shuffle kernel and its name; `None` runs the walk.
    kernel: Option<(&'static str, ShuffleKernel)>,
}

/// The result of [`Symmetries::canonicalize`]: the canonical representative
/// together with a witness of how the input maps onto it.
///
/// Contract: `rep == (if inverted { f.inverse() } else { f })
/// .conjugate_by_wires(sigma)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canonicalized {
    /// The canonical (packed-word-minimal) member of the class.
    pub rep: Perm,
    /// Whether the representative was reached from `f⁻¹` rather than `f`.
    pub inverted: bool,
    /// The wire relabeling carrying `f` (or `f⁻¹`) onto `rep`.
    pub sigma: WirePerm,
}

impl Symmetries {
    /// Builds the symmetry context for `n` wires. It canonicalizes by the
    /// plain-changes walk until a kernel is attached
    /// ([`with_kernel`](Self::with_kernel)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 2, 3 or 4.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!((2..=4).contains(&n), "unsupported wire count {n}");
        let (walk_pairs, prefixes) = find_walk(n);
        let walk = walk_pairs
            .iter()
            .map(|&w| ADJACENT_MASK_INDEX[usize::from(w)])
            .collect();
        // The padding repeats relabeling 0 (the identity); a repeat never
        // beats the first occurrence, so the kernel never returns it.
        let tables = |map: fn(WirePerm) -> WirePerm| {
            std::array::from_fn(|i| {
                let sigma = map(prefixes.get(i).copied().unwrap_or(prefixes[0]));
                std::array::from_fn(|x| sigma.permute_index(x as u8))
            })
        };
        let gather = tables(WirePerm::inverse);
        let relabel = tables(|sigma| sigma);
        Symmetries {
            n,
            walk,
            prefixes,
            gather,
            relabel,
            kernel: None,
        }
    }

    /// These symmetries with `kernel` computing
    /// [`canonical`](Self::canonical) and
    /// [`canonicalize`](Self::canonicalize); `name` is what
    /// [`kernel`](Self::kernel) reports. Wherever `kernel` returns `None`
    /// the walk runs instead. The results do not change: an attached
    /// kernel must return the walk's representative and witness (see
    /// [`ShuffleKernel`]).
    #[must_use]
    pub fn with_kernel(mut self, name: &'static str, kernel: ShuffleKernel) -> Self {
        self.kernel = Some((name, kernel));
        self
    }

    /// The name of the attached canonicalization kernel (`"ssse3"` for
    /// the one `revsynth_bfs::symmetries` attaches), or `"scalar"` for
    /// the plain-changes walk.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        self.kernel.map_or("scalar", |(name, _)| name)
    }

    /// The wire count.
    #[inline]
    #[must_use]
    pub const fn wires(&self) -> usize {
        self.n
    }

    /// Number of wire relabelings (`n!`).
    #[inline]
    #[must_use]
    pub fn num_relabelings(&self) -> usize {
        self.prefixes.len()
    }

    /// Maximum possible equivalence-class size, `2 · n!`.
    #[inline]
    #[must_use]
    pub fn max_class_size(&self) -> usize {
        2 * self.prefixes.len()
    }

    /// The canonical representative of the equivalence class of `f`: the
    /// packed-word-minimal function among the `≤ 2·n!` conjugates of `f`
    /// and `f⁻¹`.
    ///
    /// This is the hot kernel of the whole pipeline. The paper computes
    /// it as one inversion, 46 conjugations-by-transposition and 47 word
    /// comparisons for n = 4 (~750 machine instructions), a chain of
    /// dependent steps ([`canonical_walk`](Self::canonical_walk)). With
    /// a shuffle kernel attached ([`with_kernel`](Self::with_kernel);
    /// the SSSE3 one where the CPU has it), each of the 48 conjugates is
    /// instead computed on its own from two 16-byte tables (a position
    /// gather and a value relabel, one `pshufb` each) and the words are
    /// min-reduced; the result is the walk's, bit for bit.
    #[inline]
    #[must_use]
    pub fn canonical(&self, f: Perm) -> Perm {
        match self.shuffle(f, None) {
            Some((rep, _)) => rep,
            None => self.canonical_walk(f),
        }
    }

    /// [`canonical`](Self::canonical) of `f` when the caller already
    /// holds `f_inverse = f⁻¹`, which every kernel needs: the
    /// meet-in-the-middle scan gets each candidate's inverse from the
    /// same byte shuffle that composes it, and so skips the scalar
    /// inversion. The result is `canonical(f)`; an `f_inverse` that is
    /// not `f⁻¹` gives a meaningless class member.
    #[inline]
    #[must_use]
    pub fn canonical_with_inverse(&self, f: Perm, f_inverse: Perm) -> Perm {
        match self.shuffle(f, Some(f_inverse)) {
            Some((rep, _)) => rep,
            None => self.walk_min(f, f_inverse),
        }
    }

    /// The attached kernel's first minimum and its index, if it ran.
    #[inline]
    fn shuffle(&self, f: Perm, f_inverse: Option<Perm>) -> Option<(Perm, usize)> {
        let (_, kernel) = self.kernel?;
        kernel(f, f_inverse, &self.gather, &self.relabel)
    }

    /// Like [`canonical`](Self::canonical) but also returns the witness
    /// (which relabeling, and whether inversion was used) needed to map
    /// gates between `f`'s frame and the representative's frame.
    ///
    /// The witness is the **first** minimum in walk order — the conjugates
    /// of `f` in [`relabelings`](Self::relabelings) order, then those of
    /// `f⁻¹` — on every kernel, so replayed circuits do not depend on the
    /// CPU.
    #[must_use]
    pub fn canonicalize(&self, f: Perm) -> Canonicalized {
        match self.shuffle(f, None) {
            Some((rep, at)) => {
                let inverted = at >= SHUFFLE_TABLES;
                let step = if inverted { at - SHUFFLE_TABLES } else { at };
                Canonicalized {
                    rep,
                    inverted,
                    sigma: self.prefixes[step],
                }
            }
            None => self.canonicalize_walk(f),
        }
    }

    /// [`canonical`](Self::canonical) by the paper's plain-changes walk:
    /// `2·(n! − 1)` chained transposition steps, each one 14-instruction
    /// [`Perm::conjugate_swap_indexed`]. The fallback where no shuffle
    /// kernel runs, and the reference kernels are tested against.
    #[must_use]
    pub fn canonical_walk(&self, f: Perm) -> Perm {
        self.walk_min(f, f.inverse())
    }

    /// The walk's minimum over the conjugates of `f` and of its inverse
    /// `inv`.
    fn walk_min(&self, f: Perm, inv: Perm) -> Perm {
        let mut best = f;
        let mut cur = f;
        for &idx in &self.walk {
            cur = cur.conjugate_swap_indexed(idx);
            if cur < best {
                best = cur;
            }
        }
        if inv < best {
            best = inv;
        }
        let mut cur = inv;
        for &idx in &self.walk {
            cur = cur.conjugate_swap_indexed(idx);
            if cur < best {
                best = cur;
            }
        }
        best
    }

    /// [`canonicalize`](Self::canonicalize) by the plain-changes walk
    /// (see [`canonical_walk`](Self::canonical_walk)).
    #[must_use]
    pub fn canonicalize_walk(&self, f: Perm) -> Canonicalized {
        let mut best = f;
        let mut best_step = 0usize;
        let mut best_inverted = false;

        let mut cur = f;
        for (step, &idx) in self.walk.iter().enumerate() {
            cur = cur.conjugate_swap_indexed(idx);
            if cur < best {
                best = cur;
                best_step = step + 1;
            }
        }
        let inv = f.inverse();
        if inv < best {
            best = inv;
            best_step = 0;
            best_inverted = true;
        }
        let mut cur = inv;
        for (step, &idx) in self.walk.iter().enumerate() {
            cur = cur.conjugate_swap_indexed(idx);
            if cur < best {
                best = cur;
                best_step = step + 1;
                best_inverted = true;
            }
        }
        Canonicalized {
            rep: best,
            inverted: best_inverted,
            sigma: self.prefixes[best_step],
        }
    }

    /// Whether `f` is the canonical representative of its class.
    #[must_use]
    pub fn is_canonical(&self, f: Perm) -> bool {
        self.canonical(f) == f
    }

    /// Reference implementation of [`canonical`](Self::canonical): apply
    /// every relabeling to `f` and `f⁻¹` from scratch via
    /// [`Perm::conjugate_by_wires`] and take the minimum.
    ///
    /// Exists to validate, in tests, both fast kernels: the paper's
    /// incremental plain-changes walk, which replaces each full
    /// conjugation with a single 14-instruction transposition step, and
    /// the shuffle-table kernel.
    #[must_use]
    pub fn canonical_naive(&self, f: Perm) -> Perm {
        let inv = f.inverse();
        self.prefixes
            .iter()
            .flat_map(|&sigma| [f.conjugate_by_wires(sigma), inv.conjugate_by_wires(sigma)])
            .min()
            .expect("at least the identity relabeling exists")
    }

    /// Maps a gate from the frame of `f` into the frame of the
    /// representative produced by [`canonicalize`](Self::canonicalize)
    /// (i.e. relabels its wires by the witness `σ`).
    #[must_use]
    pub fn gate_to_rep(&self, witness: &Canonicalized, gate: Gate) -> Gate {
        gate.conjugate_by_wires(witness.sigma)
    }

    /// Maps a gate from the representative's frame back into `f`'s frame.
    #[must_use]
    pub fn gate_from_rep(&self, witness: &Canonicalized, gate: Gate) -> Gate {
        gate.conjugate_by_wires(witness.sigma.inverse())
    }

    /// All wire relabelings of the walk (prefix composites), starting with
    /// the identity; exactly `n!` entries, all distinct.
    #[must_use]
    pub fn relabelings(&self) -> &[WirePerm] {
        &self.prefixes
    }

    /// Lazily yields the `n!` **frames** of `f` — the conjugates
    /// `conj_τ(f) = π_τ ∘ f ∘ π_τ⁻¹` for every wire relabeling `τ` — as
    /// `(frame, step)` pairs with
    /// `frame == f.conjugate_by_wires(self.relabelings()[step])`.
    ///
    /// Frames are produced incrementally along the plain-changes walk (one
    /// 14-instruction transposition step each) and without allocation; this
    /// is the setup kernel of the frame-hoisted meet-in-the-middle search,
    /// which computes the frames of a query **once** and then exploits
    /// `canonical(conj_σ(g) ∘ f) = canonical(g ∘ conj_{σ⁻¹}(f))` to scan
    /// stored representatives directly instead of expanding each
    /// representative's equivalence class.
    #[must_use]
    pub fn frames(&self, f: Perm) -> Frames<'_> {
        Frames {
            walk: &self.walk,
            cur: f,
            next_step: 0,
        }
    }

    /// Visits every member of the equivalence class of `f`, with
    /// duplicates when the class has fewer than `2·n!` distinct members.
    /// Use [`class_members_into`](Self::class_members_into) for a deduped
    /// list.
    pub fn for_each_candidate<F: FnMut(Perm)>(&self, f: Perm, mut visit: F) {
        let mut cur = f;
        visit(cur);
        for &idx in &self.walk {
            cur = cur.conjugate_swap_indexed(idx);
            visit(cur);
        }
        let inv = f.inverse();
        let mut cur = inv;
        visit(cur);
        for &idx in &self.walk {
            cur = cur.conjugate_swap_indexed(idx);
            visit(cur);
        }
    }

    /// Writes the distinct members of the equivalence class of `f` into
    /// `buf` (cleared first), sorted ascending. The buffer is reusable
    /// across calls to avoid allocation in hot loops.
    pub fn class_members_into(&self, f: Perm, buf: &mut Vec<Perm>) {
        buf.clear();
        self.for_each_candidate(f, |p| buf.push(p));
        buf.sort_unstable();
        buf.dedup();
    }

    /// The distinct members of the equivalence class of `f`, sorted.
    #[must_use]
    pub fn class_members(&self, f: Perm) -> Vec<Perm> {
        let mut buf = Vec::with_capacity(self.max_class_size());
        self.class_members_into(f, &mut buf);
        buf
    }

    /// Number of distinct members in the equivalence class of `f`
    /// (the paper observes this is `2·4! = 48` for the vast majority of
    /// 4-bit functions).
    #[must_use]
    pub fn class_size(&self, f: Perm) -> usize {
        let mut buf = Vec::with_capacity(self.max_class_size());
        self.class_members_into(f, &mut buf);
        buf.len()
    }
}

/// Iterator returned by [`Symmetries::frames`]: the `n!` wire-relabeling
/// conjugates of a function, walked incrementally, allocation-free.
#[derive(Clone)]
pub struct Frames<'a> {
    walk: &'a [usize],
    cur: Perm,
    next_step: usize,
}

impl Iterator for Frames<'_> {
    /// `(frame, step)` — the conjugate and the index of its relabeling in
    /// [`Symmetries::relabelings`].
    type Item = (Perm, usize);

    #[inline]
    fn next(&mut self) -> Option<(Perm, usize)> {
        let step = self.next_step;
        if step == 0 {
            self.next_step = 1;
            return Some((self.cur, 0));
        }
        let &mask_idx = self.walk.get(step - 1)?;
        self.cur = self.cur.conjugate_swap_indexed(mask_idx);
        self.next_step += 1;
        Some((self.cur, step))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.walk.len() + 1).saturating_sub(self.next_step);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Frames<'_> {}

impl fmt::Debug for Symmetries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Symmetries({} wires, {} relabelings, {}-step walk)",
            self.n,
            self.prefixes.len(),
            self.walk.len()
        )
    }
}

/// Finds a plain-changes walk: a sequence of adjacent transpositions
/// `(w, w+1)` (with `w + 1 < n`) whose prefix products visit every
/// relabeling of wires `0..n` exactly once, starting from the identity.
///
/// Returns `(steps, prefixes)` with `prefixes.len() == steps.len() + 1`.
/// Existence is guaranteed by the Steinhaus–Johnson–Trotter construction;
/// a tiny backtracking search over at most 24 nodes finds one directly.
fn find_walk(n: usize) -> (Vec<u8>, Vec<WirePerm>) {
    let target: Vec<WirePerm> = WirePerm::all()
        .into_iter()
        .filter(|w| w.fixes_wires_from(n))
        .collect();
    let total = target.len(); // n!
    let gens: Vec<(u8, WirePerm)> = (0..n as u8 - 1)
        .map(|w| (w, WirePerm::transposition(w, w + 1)))
        .collect();

    let mut steps = Vec::with_capacity(total - 1);
    let mut prefixes = vec![WirePerm::identity()];
    let mut visited = std::collections::HashSet::with_capacity(total);
    visited.insert(WirePerm::identity());
    let found = dfs(&gens, total, &mut steps, &mut prefixes, &mut visited);
    assert!(found, "plain-changes walk must exist for n = {n}");
    (steps, prefixes)
}

fn dfs(
    gens: &[(u8, WirePerm)],
    total: usize,
    steps: &mut Vec<u8>,
    prefixes: &mut Vec<WirePerm>,
    visited: &mut std::collections::HashSet<WirePerm>,
) -> bool {
    if prefixes.len() == total {
        return true;
    }
    let cur = *prefixes.last().expect("prefixes starts non-empty");
    for &(w, tau) in gens {
        let next = cur.then(tau);
        if visited.insert(next) {
            steps.push(w);
            prefixes.push(next);
            if dfs(gens, total, steps, prefixes, visited) {
                return true;
            }
            steps.pop();
            prefixes.pop();
            visited.remove(&next);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_circuit::GateLib;

    #[test]
    fn walk_visits_all_relabelings() {
        for n in 2..=4usize {
            let sym = Symmetries::new(n);
            let expected: usize = (1..=n).product();
            assert_eq!(sym.num_relabelings(), expected, "n={n}");
            let set: std::collections::HashSet<_> = sym.relabelings().iter().copied().collect();
            assert_eq!(set.len(), expected);
            assert!(sym.relabelings().iter().all(|s| s.fixes_wires_from(n)));
        }
    }

    #[test]
    fn walk_prefixes_match_conjugation_chain() {
        // Chaining conjugate_swap along the walk must equal conjugating by
        // the recorded prefix relabeling at every step.
        let sym = Symmetries::new(4);
        let f = Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
        let mut cur = f;
        assert_eq!(cur, f.conjugate_by_wires(sym.prefixes[0]));
        for (i, &idx) in sym.walk.iter().enumerate() {
            cur = cur.conjugate_swap_indexed(idx);
            assert_eq!(cur, f.conjugate_by_wires(sym.prefixes[i + 1]), "step {i}");
        }
    }

    #[test]
    fn canonical_is_class_invariant() {
        let sym = Symmetries::new(4);
        let f = Perm::from_values(&[1, 2, 4, 8, 0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]).unwrap();
        let rep = sym.canonical(f);
        for member in sym.class_members(f) {
            assert_eq!(sym.canonical(member), rep, "member {member}");
        }
        assert_eq!(sym.canonical(f.inverse()), rep);
    }

    #[test]
    fn canonical_is_minimum_of_class() {
        let sym = Symmetries::new(4);
        for f in [
            Perm::identity(),
            Perm::from_values(&[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5]).unwrap(),
            Perm::from_values(&[2, 3, 5, 7, 11, 13, 0, 1, 4, 6, 8, 9, 10, 12, 14, 15]).unwrap(),
        ] {
            let members = sym.class_members(f);
            assert_eq!(sym.canonical(f), members[0], "min of sorted member list");
            assert!(sym.is_canonical(members[0]));
        }
    }

    #[test]
    fn canonicalize_witness_is_sound() {
        let sym = Symmetries::new(4);
        for f in [
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap(),
            Perm::from_values(&[6, 0, 12, 15, 7, 1, 5, 2, 4, 10, 13, 3, 11, 8, 14, 9]).unwrap(),
            Perm::identity(),
        ] {
            let w = sym.canonicalize(f);
            let base = if w.inverted { f.inverse() } else { f };
            assert_eq!(base.conjugate_by_wires(w.sigma), w.rep);
            assert_eq!(w.rep, sym.canonical(f));
        }
    }

    #[test]
    fn gate_mapping_roundtrips() {
        let sym = Symmetries::new(4);
        let f = Perm::from_values(&[9, 0, 2, 15, 11, 6, 7, 8, 14, 3, 4, 13, 5, 1, 12, 10]).unwrap();
        let w = sym.canonicalize(f);
        for (_, g, _) in GateLib::nct(4).iter() {
            let there = sym.gate_to_rep(&w, g);
            let back = sym.gate_from_rep(&w, there);
            assert_eq!(back, g);
            // Gate mapping must commute with perm conjugation.
            assert_eq!(there.perm(4), g.perm(4).conjugate_by_wires(w.sigma));
        }
    }

    #[test]
    fn frames_match_prefix_conjugations() {
        // frames(f) must yield exactly (f.conjugate_by_wires(prefixes[s]), s)
        // for every step s, in walk order, without allocation.
        for n in 2..=4usize {
            let sym = Symmetries::new(n);
            let f = Perm::from_values(&[3, 0, 2, 1]).unwrap();
            let frames: Vec<(Perm, usize)> = sym.frames(f).collect();
            assert_eq!(frames.len(), sym.num_relabelings(), "n={n}");
            assert_eq!(
                sym.frames(f).len(),
                sym.num_relabelings(),
                "exact size hint"
            );
            for (i, &(frame, step)) in frames.iter().enumerate() {
                assert_eq!(step, i, "steps ascend in walk order");
                assert_eq!(
                    frame,
                    f.conjugate_by_wires(sym.relabelings()[step]),
                    "n={n} step {step}"
                );
            }
        }
    }

    #[test]
    fn frames_cover_all_conjugates() {
        let sym = Symmetries::new(4);
        let f = Perm::from_values(&[9, 0, 2, 15, 11, 6, 7, 8, 14, 3, 4, 13, 5, 1, 12, 10]).unwrap();
        let from_iter: std::collections::HashSet<Perm> =
            sym.frames(f).map(|(frame, _)| frame).collect();
        let expected: std::collections::HashSet<Perm> = sym
            .relabelings()
            .iter()
            .map(|&tau| f.conjugate_by_wires(tau))
            .collect();
        assert_eq!(from_iter, expected);
    }

    #[test]
    fn gate_class_sizes_match_paper() {
        // Paper §3.2: NOT's class has 4 members; Table 4 row 1 says the 32
        // gates form 4 classes (NOT, CNOT, TOF, TOF4).
        let sym = Symmetries::new(4);
        let lib = GateLib::nct(4);
        let mut reps = std::collections::HashSet::new();
        for (_, g, p) in lib.iter() {
            let expected = match g.num_controls() {
                0 | 3 => 4,
                _ => 12,
            };
            assert_eq!(sym.class_size(p), expected, "{g}");
            reps.insert(sym.canonical(p));
        }
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn identity_class_is_trivial() {
        for n in 2..=4usize {
            let sym = Symmetries::new(n);
            assert_eq!(sym.class_size(Perm::identity()), 1);
            assert!(sym.is_canonical(Perm::identity()));
        }
    }

    #[test]
    fn small_domain_classes_stay_in_domain() {
        let sym = Symmetries::new(3);
        let lib = GateLib::nct(3);
        for (_, _, p) in lib.iter() {
            for member in sym.class_members(p) {
                for x in 8..16u8 {
                    assert_eq!(member.apply(x), x);
                }
            }
        }
    }

    #[test]
    fn class_size_divides_max() {
        // Orbit sizes under a group action divide the group order 2·n!.
        let sym = Symmetries::new(4);
        for f in [
            Perm::identity(),
            Perm::from_values(&[1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]).unwrap(),
            Perm::from_values(&[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5]).unwrap(),
        ] {
            let size = sym.class_size(f);
            assert_eq!(sym.max_class_size() % size, 0, "class size {size}");
        }
    }
}
