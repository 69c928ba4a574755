//! The packed permutation type and its straight-line kernels.

use std::fmt;

use crate::error::InvalidPermError;
use crate::masks::{pair_index, TRANSPOSITION_MASKS};
use crate::wire::WirePerm;

/// Packed representation of the identity on `{0, …, 15}`:
/// nibble `i` holds the value `i`.
const IDENTITY_PACKED: u64 = 0xFEDC_BA98_7654_3210;

/// A reversible function on up to 4 wires, stored as a permutation of
/// `{0, …, 15}` packed into a `u64` (nibble `i` holds `f(i)`).
///
/// Functions on 2 or 3 wires are embedded as 16-point permutations fixing
/// the points outside their domain, so every operation below is uniform
/// straight-line code regardless of the wire count.
///
/// The derived [`Ord`] compares the packed words as unsigned integers — the
/// total order the synthesis pipeline uses to pick canonical class
/// representatives (any fixed total order works; see the crate docs).
///
/// # Example
///
/// ```
/// use revsynth_perm::Perm;
///
/// let cnot_ab = Perm::from_values(&[0, 3, 2, 1])?; // CNOT(a,b) on 2 wires
/// assert_eq!(cnot_ab.apply(1), 3);
/// assert_eq!(cnot_ab.inverse(), cnot_ab); // reversible gates are involutions
/// # Ok::<(), revsynth_perm::InvalidPermError>(())
/// ```
///
/// The layout is `#[repr(transparent)]` over the packed `u64` so that
/// persisted little-endian key arrays can be viewed as `&[Perm]` without
/// copying (see `revsynth-mmap`); every bit pattern is a constructible
/// value via [`Perm::from_packed_unchecked`], validity as a permutation
/// is a semantic property checked separately.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Perm(u64);

impl Perm {
    /// The identity function (empty circuit).
    ///
    /// ```
    /// use revsynth_perm::Perm;
    /// assert!(Perm::identity().is_identity());
    /// ```
    #[inline]
    #[must_use]
    pub const fn identity() -> Self {
        Perm(IDENTITY_PACKED)
    }

    /// Builds a permutation from its value list `f(0), f(1), …`.
    ///
    /// Accepts lists of length 4, 8 or 16 (for 2, 3 or 4 wires); shorter
    /// domains are embedded by fixing the remaining points.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPermError`] if the length is unsupported, a value is
    /// out of range, or a value repeats.
    pub fn from_values(values: &[u8]) -> Result<Self, InvalidPermError> {
        let len = values.len();
        if len != 4 && len != 8 && len != 16 {
            return Err(InvalidPermError::BadLength(len));
        }
        let mut seen = [false; 16];
        let mut packed = 0u64;
        for (i, &v) in values.iter().enumerate() {
            if usize::from(v) >= len {
                return Err(InvalidPermError::ValueOutOfRange { value: v, len });
            }
            if seen[usize::from(v)] {
                return Err(InvalidPermError::DuplicateValue(v));
            }
            seen[usize::from(v)] = true;
            packed |= u64::from(v) << (4 * i);
        }
        // Identity padding for the points outside the declared domain.
        for i in len..16 {
            packed |= (i as u64) << (4 * i);
        }
        Ok(Perm(packed))
    }

    /// Reinterprets a packed word as a permutation, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPermError::DuplicateValue`] if two nibbles hold the
    /// same value (the word is not a bijection).
    pub fn from_packed(packed: u64) -> Result<Self, InvalidPermError> {
        let mut seen = [false; 16];
        let mut w = packed;
        for _ in 0..16 {
            let v = (w & 15) as usize;
            if seen[v] {
                return Err(InvalidPermError::DuplicateValue(v as u8));
            }
            seen[v] = true;
            w >>= 4;
        }
        Ok(Perm(packed))
    }

    /// Reinterprets a packed word as a permutation without validation.
    ///
    /// Safe (no memory unsafety is possible), but operations on a
    /// non-bijective word produce meaningless results. Intended for hot
    /// paths that re-ingest words produced by this crate, e.g. hash-table
    /// keys read back from a store file after checksum verification.
    #[inline]
    #[must_use]
    pub const fn from_packed_unchecked(packed: u64) -> Self {
        Perm(packed)
    }

    /// The packed `u64` (nibble `i` = `f(i)`).
    #[inline]
    #[must_use]
    pub const fn packed(self) -> u64 {
        self.0
    }

    /// Applies the function to a point: `f(x)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x >= 16`.
    #[inline]
    #[must_use]
    pub const fn apply(self, x: u8) -> u8 {
        debug_assert!(x < 16);
        ((self.0 >> ((x as u32) * 4)) & 15) as u8
    }

    /// The value list `[f(0), …, f(15)]`.
    #[must_use]
    pub fn values(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        let mut w = self.0;
        for slot in &mut out {
            *slot = (w & 15) as u8;
            w >>= 4;
        }
        out
    }

    /// Whether this is the identity function.
    #[inline]
    #[must_use]
    pub const fn is_identity(self) -> bool {
        self.0 == IDENTITY_PACKED
    }

    /// Functional composition, applying `self` first: `x ↦ q(self(x))`.
    ///
    /// This is the paper's `composition(p, q)` kernel (94 machine
    /// instructions): nibble `i` of the result is nibble `p(i)` of `q`.
    ///
    /// ```
    /// use revsynth_perm::Perm;
    /// let p = Perm::from_values(&[1, 2, 3, 0])?; // +1 mod 4
    /// assert_eq!(p.then(p).apply(3), 1);
    /// # Ok::<(), revsynth_perm::InvalidPermError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn then(self, q: Perm) -> Perm {
        let mut p = self.0;
        let q = q.0;
        let mut r = 0u64;
        let mut i = 0u32;
        while i < 16 {
            r |= ((q >> ((p & 15) << 2)) & 15) << (4 * i);
            p >>= 4;
            i += 1;
        }
        Perm(r)
    }

    /// Mathematical composition `self ∘ g` (apply `g` first).
    ///
    /// `f.compose(g) == g.then(f)`; provided so call sites can match the
    /// paper's right-to-left notation literally.
    #[inline]
    #[must_use]
    pub fn compose(self, g: Perm) -> Perm {
        g.then(self)
    }

    /// The inverse permutation (the paper's `inverse` kernel,
    /// 59 machine instructions).
    ///
    /// ```
    /// use revsynth_perm::Perm;
    /// let p = Perm::from_values(&[2, 0, 3, 1])?;
    /// assert!(p.then(p.inverse()).is_identity());
    /// # Ok::<(), revsynth_perm::InvalidPermError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn inverse(self) -> Perm {
        let mut p = self.0;
        let mut q = 0u64;
        let mut i = 0u64;
        while i < 16 {
            q |= i << ((p & 15) << 2);
            p >>= 4;
            i += 1;
        }
        Perm(q)
    }

    /// Conjugates by the simultaneous input/output relabeling that swaps
    /// wires `a` and `b` (the paper's `conjugate01` kernel, generalized to
    /// all six wire pairs through compile-time masks).
    ///
    /// The operation is an involution: applying it twice returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is `≥ 4`.
    #[inline]
    #[must_use]
    pub fn conjugate_swap(self, a: u8, b: u8) -> Perm {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.conjugate_swap_indexed(pair_index(a, b))
    }

    /// Same as [`conjugate_swap`](Self::conjugate_swap), taking the
    /// precomputed index into [`TRANSPOSITION_MASKS`] — the form used by the
    /// canonicalization inner loop where the pair sequence is fixed.
    ///
    /// # Panics
    ///
    /// Panics if `mask_index >= 6`.
    #[inline]
    #[must_use]
    pub fn conjugate_swap_indexed(self, mask_index: usize) -> Perm {
        let m = &TRANSPOSITION_MASKS[mask_index];
        // Step 1: permute the nibble positions (swap bits a,b of the index).
        let p = (self.0 & m.pos_keep)
            | ((self.0 & m.pos_up) << m.pos_shift)
            | ((self.0 & m.pos_down) >> m.pos_shift);
        // Step 2: swap bits a,b of every value nibble.
        Perm((p & m.val_keep) | ((p & m.val_a) << m.val_shift) | ((p & m.val_b) >> m.val_shift))
    }

    /// Conjugates by an arbitrary wire relabeling `σ`:
    /// returns `π_σ ∘ self ∘ π_σ⁻¹` where `π_σ` is the index map that moves
    /// bit `w` to bit `σ(w)` ([`WirePerm::permute_index`]).
    ///
    /// This direction is chosen so that relabeling every gate of a circuit
    /// by `σ` (wire `w` becomes wire `σ(w)`) transforms the computed
    /// function exactly by this operation; for the transpositions used by
    /// the canonicalization walk the two directions coincide.
    ///
    /// This is the reference implementation (a loop over all 16 points);
    /// hot paths use chains of
    /// [`conjugate_swap_indexed`](Self::conjugate_swap_indexed) instead.
    #[must_use]
    pub fn conjugate_by_wires(self, sigma: WirePerm) -> Perm {
        let fwd = sigma;
        let inv = sigma.inverse();
        let mut packed = 0u64;
        for x in 0..16u8 {
            // f_σ(x) = π_σ( f( π_σ⁻¹(x) ) )
            let y = fwd.permute_index(self.apply(inv.permute_index(x)));
            packed |= u64::from(y) << (4 * x);
        }
        Perm(packed)
    }

    /// The cycle type of the permutation, packed into a `u64` key: nibble
    /// `L − 1` holds the number of cycles of length `L` (fixed points
    /// included).
    ///
    /// The kernel pointer-chases the 16 packed nibbles with a visited
    /// bitmask — a few instructions per point, no memory traffic — and is
    /// the hot invariant of the meet-in-the-middle candidate gate: the
    /// cycle type is constant under conjugation by **any** relabeling of
    /// the 16 points (conjugation relabels a cycle element-wise without
    /// changing its length) and under inversion (which reverses each cycle
    /// in place), so it is constant on every equivalence class of the
    /// synthesis pipeline's ×48 symmetry reduction — a candidate whose
    /// cycle type no stored function shares can never be in the table.
    ///
    /// The encoding is injective on cycle types: counts can only exceed a
    /// nibble for the identity (16 fixed points, key `0x10`), and the
    /// carried value would decode as "one 2-cycle and nothing else", which
    /// no 16-point permutation has (cycle lengths must sum to 16).
    ///
    /// There are exactly 231 possible keys — the partitions of 16.
    ///
    /// ```
    /// use revsynth_perm::Perm;
    ///
    /// assert_eq!(Perm::identity().cycle_type_key(), 0x10); // 16 fixed points
    /// // One transposition: 14 fixed points + one 2-cycle.
    /// let swap = Perm::from_values(&[1, 0, 2, 3])?;
    /// assert_eq!(swap.cycle_type_key(), 0x1E);
    /// // The key is invariant under inversion and conjugation.
    /// let p = Perm::from_values(&[2, 0, 3, 1])?;
    /// assert_eq!(p.inverse().cycle_type_key(), p.cycle_type_key());
    /// # Ok::<(), revsynth_perm::InvalidPermError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn cycle_type_key(self) -> u64 {
        let p = self.0;
        let mut unvisited: u32 = 0xFFFF;
        let mut key = 0u64;
        while unvisited != 0 {
            let start = unvisited.trailing_zeros();
            let mut len = 0u32;
            let mut x = start;
            loop {
                unvisited &= !(1 << x);
                len += 1;
                x = ((p >> (x * 4)) & 15) as u32;
                if x == start {
                    break;
                }
            }
            key += 1u64 << ((len - 1) * 4);
        }
        key
    }

    /// A second class invariant, complementing
    /// [`cycle_type_key`](Self::cycle_type_key): a mixed hash of the
    /// histogram of `(|x|, |f(x)|, |x ∧ f(x)|)` popcount triples over all
    /// 16 points.
    ///
    /// Wire relabelings permute the *bits* of the 4-bit point indices, so
    /// conjugating by one maps the pair `(x, f(x))` to
    /// `(σ(x), σ(f(x)))` — all three popcounts are preserved and the
    /// histogram is unchanged. Inversion maps `(x, f(x))` to `(f(x), x)`,
    /// swapping the first two coordinates; the mixing table is symmetric
    /// in them, so the key is unchanged there too. The key is therefore
    /// constant on every ×48 equivalence class, like the cycle type — but
    /// far finer: where only 231 cycle types exist, tens of thousands of
    /// weight profiles occur among the stored classes of the search
    /// tables, which is what gives the meet-in-the-middle invariant gate
    /// its selectivity.
    ///
    /// The kernel is straight-line: two SWAR per-nibble popcounts and 16
    /// table-driven accumulations, no branches or data-dependent chains.
    ///
    /// ```
    /// use revsynth_perm::Perm;
    ///
    /// let p = Perm::from_values(&[2, 0, 3, 1])?;
    /// let key = p.wire_weight_key();
    /// assert_eq!(p.inverse().wire_weight_key(), key);
    /// assert_eq!(p.conjugate_swap(0, 1).wire_weight_key(), key);
    /// # Ok::<(), revsynth_perm::InvalidPermError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn wire_weight_key(self) -> u64 {
        /// Per-nibble popcounts of the identity word: nibble `x` holds
        /// `popcount(x)`.
        const PCX: u64 = 0x4332_3221_3221_2110;
        let p = self.0;
        let pj = nibble_popcounts(p);
        let pa = nibble_popcounts(p & IDENTITY_PACKED);
        let mut key = 0u64;
        let mut x = 0u32;
        while x < 16 {
            let shift = x * 4;
            let i = ((PCX >> shift) & 15) as usize;
            let j = ((pj >> shift) & 15) as usize;
            let a = ((pa >> shift) & 15) as usize;
            key = key.wrapping_add(WEIGHT_MIX[i * 25 + j * 5 + a]);
            x += 1;
        }
        key
    }

    /// Number of points `x` with `f(x) ≠ x` (support size of the embedded
    /// 16-point permutation).
    #[must_use]
    pub fn support(self) -> u32 {
        let diff = self.0 ^ IDENTITY_PACKED;
        let mut count = 0;
        let mut w = diff;
        while w != 0 {
            count += 1;
            w &= !(0xFu64 << ((w.trailing_zeros() / 4) * 4));
        }
        count
    }

    /// Whether the permutation is even (product of an even number of
    /// transpositions). Linear reversible functions and circuits over
    /// CNOT/TOF/TOF4 on ≥ 4 wires have constrained parity; exposed for
    /// analysis and tests.
    #[must_use]
    pub fn is_even(self) -> bool {
        // Count cycles; parity = (16 - #cycles) mod 2.
        let vals = self.values();
        let mut seen = [false; 16];
        let mut cycles = 0u32;
        for start in 0..16usize {
            if seen[start] {
                continue;
            }
            cycles += 1;
            let mut x = start;
            while !seen[x] {
                seen[x] = true;
                x = usize::from(vals[x]);
            }
        }
        (16 - cycles).is_multiple_of(2)
    }
}

/// SWAR per-nibble popcount: nibble `x` of the result holds the popcount
/// of nibble `x` of `w` (0..=4).
#[inline]
const fn nibble_popcounts(w: u64) -> u64 {
    const LOW1: u64 = 0x5555_5555_5555_5555;
    const LOW2: u64 = 0x3333_3333_3333_3333;
    let pairs = (w & LOW1) + ((w >> 1) & LOW1);
    (pairs & LOW2) + ((pairs >> 2) & LOW2)
}

/// Mixing constants for [`Perm::wire_weight_key`], indexed by
/// `i * 25 + j * 5 + a` for the popcount triple `(i, j, a)`. Symmetric in
/// `(i, j)` so that inversion (which swaps the roles of `x` and `f(x)`)
/// leaves the accumulated key unchanged. Generated deterministically at
/// compile time from a SplitMix64 stream.
///
/// Exported so that other kernels (the byte-shuffle ones of
/// `revsynth-mmap`) can compute the same key: the key of `f` is the
/// wrapping sum of `WEIGHT_MIX[i * 25 + j * 5 + a]` over the 16 points
/// `x`, with `i = |x|`, `j = |f(x)|` and `a = |x ∧ f(x)|`.
pub const WEIGHT_MIX: [u64; 125] = build_weight_mix();

const fn build_weight_mix() -> [u64; 125] {
    let mut m = [0u64; 125];
    let mut state: u64 = 0x243F_6A88_85A3_08D3; // pi, for nothing-up-my-sleeve
    let mut i = 0;
    while i < 5 {
        let mut j = 0;
        while j <= i {
            let mut a = 0;
            while a < 5 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                m[i * 25 + j * 5 + a] = z;
                m[j * 25 + i * 5 + a] = z;
                a += 1;
            }
            j += 1;
        }
        i += 1;
    }
    m
}

impl Default for Perm {
    /// The identity function, like [`Perm::identity`].
    fn default() -> Self {
        Perm::identity()
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Perm({:#018x})", self.0)
    }
}

impl fmt::Display for Perm {
    /// Formats as the value list used by the paper's benchmark
    /// specifications, e.g. `[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl fmt::LowerHex for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<Perm> for u64 {
    fn from(p: Perm) -> u64 {
        p.packed()
    }
}

impl TryFrom<u64> for Perm {
    type Error = InvalidPermError;

    fn try_from(packed: u64) -> Result<Self, Self::Error> {
        Perm::from_packed(packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive array-based reference model.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Ref([u8; 16]);

    impl Ref {
        fn of(p: Perm) -> Ref {
            Ref(p.values())
        }
        fn to_perm(self) -> Perm {
            Perm::from_values(&self.0).unwrap()
        }
        fn then(self, q: Ref) -> Ref {
            let mut out = [0u8; 16];
            for (slot, &v) in out.iter_mut().zip(&self.0) {
                *slot = q.0[usize::from(v)];
            }
            Ref(out)
        }
        fn inverse(self) -> Ref {
            let mut out = [0u8; 16];
            for i in 0..16u8 {
                out[usize::from(self.0[usize::from(i)])] = i;
            }
            Ref(out)
        }
    }

    fn sample_perms() -> Vec<Perm> {
        // A deterministic spread of permutations: rotations, benchmark-like
        // value lists, and products thereof.
        let mut ps = vec![
            Perm::identity(),
            Perm::from_values(&(0..16).map(|x| (x + 1) % 16).collect::<Vec<u8>>()).unwrap(),
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap(),
            Perm::from_values(&[0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5]).unwrap(),
            Perm::from_values(&[1, 2, 4, 8, 0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]).unwrap(),
        ];
        let a = ps[2];
        let b = ps[3];
        ps.push(a.then(b));
        ps.push(b.then(a).inverse());
        ps
    }

    #[test]
    fn identity_roundtrip() {
        let id = Perm::identity();
        assert_eq!(
            id.values(),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
        );
        assert!(id.is_identity());
        assert_eq!(id.inverse(), id);
        assert_eq!(id.then(id), id);
        assert!(id.is_even());
        assert_eq!(id.support(), 0);
    }

    #[test]
    fn from_values_validates() {
        assert_eq!(
            Perm::from_values(&[0, 1, 2]).unwrap_err(),
            InvalidPermError::BadLength(3)
        );
        assert_eq!(
            Perm::from_values(&[0, 1, 2, 4]).unwrap_err(),
            InvalidPermError::ValueOutOfRange { value: 4, len: 4 }
        );
        assert_eq!(
            Perm::from_values(&[0, 1, 2, 2]).unwrap_err(),
            InvalidPermError::DuplicateValue(2)
        );
    }

    #[test]
    fn small_domain_embeds_with_identity_padding() {
        let p = Perm::from_values(&[1, 0, 2, 3]).unwrap(); // NOT(a) on 2 wires
        let vals = p.values();
        assert_eq!(&vals[..4], &[1, 0, 2, 3]);
        assert_eq!(&vals[4..], &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn from_packed_rejects_non_bijections() {
        assert!(Perm::from_packed(0).is_err());
        assert!(Perm::from_packed(IDENTITY_PACKED).is_ok());
        assert!(Perm::from_packed(u64::MAX).is_err());
    }

    #[test]
    fn then_matches_reference() {
        for &p in &sample_perms() {
            for &q in &sample_perms() {
                let expected = Ref::of(p).then(Ref::of(q)).to_perm();
                assert_eq!(p.then(q), expected, "p={p} q={q}");
            }
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for &p in &sample_perms() {
            assert_eq!(p.inverse(), Ref::of(p).inverse().to_perm(), "p={p}");
            assert!(p.then(p.inverse()).is_identity());
            assert!(p.inverse().then(p).is_identity());
        }
    }

    #[test]
    fn compose_is_then_flipped() {
        let ps = sample_perms();
        for &p in &ps {
            for &q in &ps {
                assert_eq!(p.compose(q), q.then(p));
            }
        }
    }

    #[test]
    fn conjugate_swap_matches_wire_conjugation() {
        for &p in &sample_perms() {
            for a in 0..4u8 {
                for b in (a + 1)..4u8 {
                    let sigma = WirePerm::transposition(a, b);
                    assert_eq!(
                        p.conjugate_swap(a, b),
                        p.conjugate_by_wires(sigma),
                        "p={p} swap=({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn conjugate_swap_is_involution() {
        for &p in &sample_perms() {
            for i in 0..6 {
                assert_eq!(p.conjugate_swap_indexed(i).conjugate_swap_indexed(i), p);
            }
        }
    }

    #[test]
    fn conjugation_preserves_group_structure() {
        let ps = sample_perms();
        for &p in &ps {
            for &q in &ps {
                for i in 0..6 {
                    // conj(p.then(q)) == conj(p).then(conj(q))
                    assert_eq!(
                        p.then(q).conjugate_swap_indexed(i),
                        p.conjugate_swap_indexed(i)
                            .then(q.conjugate_swap_indexed(i))
                    );
                    // conj(p⁻¹) == conj(p)⁻¹
                    assert_eq!(
                        p.inverse().conjugate_swap_indexed(i),
                        p.conjugate_swap_indexed(i).inverse()
                    );
                }
            }
        }
    }

    #[test]
    fn display_formats_value_list() {
        assert_eq!(
            Perm::identity().to_string(),
            "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]"
        );
    }

    /// Reference cycle type: sorted cycle-length list via array chasing.
    fn ref_cycle_lengths(p: Perm) -> Vec<u32> {
        let vals = p.values();
        let mut seen = [false; 16];
        let mut lens = Vec::new();
        for start in 0..16usize {
            if seen[start] {
                continue;
            }
            let mut len = 0u32;
            let mut x = start;
            while !seen[x] {
                seen[x] = true;
                len += 1;
                x = usize::from(vals[x]);
            }
            lens.push(len);
        }
        lens.sort_unstable();
        lens
    }

    /// The reference encoding of a cycle-length multiset.
    fn ref_key(lens: &[u32]) -> u64 {
        lens.iter().map(|&l| 1u64 << ((l - 1) * 4)).sum()
    }

    #[test]
    fn cycle_type_key_matches_reference() {
        for &p in &sample_perms() {
            assert_eq!(p.cycle_type_key(), ref_key(&ref_cycle_lengths(p)), "p={p}");
        }
        // The full 16-cycle (shift4): one cycle of length 16.
        let shift = Perm::from_values(&(0..16).map(|x| (x + 1) % 16).collect::<Vec<u8>>()).unwrap();
        assert_eq!(shift.cycle_type_key(), 1u64 << 60);
    }

    #[test]
    fn cycle_type_key_is_invariant_under_inverse_and_conjugation() {
        for &p in &sample_perms() {
            let key = p.cycle_type_key();
            assert_eq!(p.inverse().cycle_type_key(), key, "inverse of {p}");
            for i in 0..6 {
                assert_eq!(
                    p.conjugate_swap_indexed(i).cycle_type_key(),
                    key,
                    "conjugate {i} of {p}"
                );
            }
            for sigma in crate::wire::WirePerm::all() {
                assert_eq!(
                    p.conjugate_by_wires(sigma).cycle_type_key(),
                    key,
                    "relabeling {sigma:?} of {p}"
                );
            }
        }
    }

    #[test]
    fn wire_weight_key_is_invariant_under_inverse_and_conjugation() {
        for &p in &sample_perms() {
            let key = p.wire_weight_key();
            assert_eq!(p.inverse().wire_weight_key(), key, "inverse of {p}");
            for sigma in crate::wire::WirePerm::all() {
                assert_eq!(
                    p.conjugate_by_wires(sigma).wire_weight_key(),
                    key,
                    "relabeling {sigma:?} of {p}"
                );
            }
        }
    }

    #[test]
    fn wire_weight_key_matches_reference_histogram() {
        // The SWAR kernel must accumulate exactly the per-point popcount
        // triples a naive loop computes.
        for &p in &sample_perms() {
            let mut expected = 0u64;
            for x in 0..16u8 {
                let y = p.apply(x);
                let (i, j) = (x.count_ones() as usize, y.count_ones() as usize);
                let a = (x & y).count_ones() as usize;
                expected = expected.wrapping_add(WEIGHT_MIX[i * 25 + j * 5 + a]);
            }
            assert_eq!(p.wire_weight_key(), expected, "p={p}");
        }
    }

    #[test]
    fn wire_weight_key_is_finer_than_cycle_type() {
        // Two permutations with the same cycle type but distinguishable
        // weight profiles: a transposition of adjacent values vs one of
        // distant values.
        let mut a: Vec<u8> = (0..16).collect();
        a.swap(0, 1); // 0 <-> 1: popcounts 0,1
        let mut b: Vec<u8> = (0..16).collect();
        b.swap(0, 15); // 0 <-> 15: popcounts 0,4
        let pa = Perm::from_values(&a).unwrap();
        let pb = Perm::from_values(&b).unwrap();
        assert_eq!(pa.cycle_type_key(), pb.cycle_type_key());
        assert_ne!(pa.wire_weight_key(), pb.wire_weight_key());
    }

    #[test]
    fn cycle_type_key_distinguishes_identity_from_transposition() {
        // The only carrying encoding (identity, 16 fixed points) must not
        // collide with the type it superficially resembles (one 2-cycle).
        assert_eq!(Perm::identity().cycle_type_key(), 0x10);
        let mut vals: Vec<u8> = (0..16).collect();
        vals.swap(0, 1);
        let swap = Perm::from_values(&vals).unwrap();
        assert_eq!(swap.cycle_type_key(), 0x1E);
    }

    #[test]
    fn parity_of_transposition_is_odd() {
        let mut vals: Vec<u8> = (0..16).collect();
        vals.swap(0, 1);
        let p = Perm::from_values(&vals).unwrap();
        assert!(!p.is_even());
        assert!(p.then(p).is_even());
        assert_eq!(p.support(), 2);
    }

    #[test]
    fn ord_is_packed_word_order() {
        let a = Perm::identity();
        let mut vals: Vec<u8> = (0..16).collect();
        vals.swap(14, 15); // changes the two most significant nibbles
        let b = Perm::from_values(&vals).unwrap();
        assert!(b < a, "swapping high nibbles lowers nibble 15");
        assert_eq!(a.cmp(&b), a.packed().cmp(&b.packed()));
    }
}
