//! Byte-shuffle kernels: canonicalization, and the candidate batches and
//! class keys of the meet-in-the-middle scan.
//!
//! A packed permutation `f` (nibble `i` holds `f(i)`) unpacks into 16
//! bytes, byte `i` holding `f(i)`, and in that form the paper's
//! permutation kernels become byte shuffles: on x86_64 one SSSE3
//! `pshufb` each.
//!
//! * **Composition.** `pshufb(q, p)` has `q(p(i))` in byte `i`: that is
//!   `p.then(q)`, the paper's 94-instruction `composition`.
//! * **Conjugation.** Conjugating `f` by a wire relabeling σ,
//!   `π_σ ∘ f ∘ π_σ⁻¹`, is a **gather** that reads byte `π_σ⁻¹(x)` into
//!   position `x`, then a **relabel** that replaces every value `y` by
//!   `π_σ(y)`. A `pmaddubsw` + `packuswb` pair packs the bytes of two
//!   conjugates back into two nibble words. [`first_min_conjugate`]
//!   computes every conjugate of `f` and of `f⁻¹` this way, independently
//!   of each other, and returns the first minimum: exactly what the
//!   scalar plain-changes walk in `revsynth-canon` finds step by step.
//! * **Candidate batches.** [`compose_batch`] composes one stored
//!   representative with every frame of a query (unpacked once per query
//!   into a [`ByteForm`]): one `pshufb` gives a candidate, one more its
//!   inverse (`(p.then(q))⁻¹ = q⁻¹.then(p⁻¹)`), and the candidate's bytes
//!   give its wire-weight key directly: a popcount is a `pshufb` into a
//!   16-entry table, so the 16 indices into `revsynth_perm::WEIGHT_MIX`
//!   cost three shuffles and two adds.
//! * **Cycle type.** [`cycle_type_keys`] raises a candidate to the powers
//!   `p¹ … p¹⁶` (one `pshufb` each); `pcmpeqb` against the identity and
//!   `pmovmskb` give the points each power fixes, and a point first
//!   returns home at its cycle's length, so `popcnt` of the newly fixed
//!   points over that length counts the cycles of each length.
//!
//! The kernels are chosen at run time: every function checks what the
//! CPU supports and returns `None` (or `false`) when it cannot run, or
//! when the target is not x86_64, so the caller falls back to the scalar
//! `Perm` methods, which stay the reference. Canonicalization needs
//! SSSE3 ([`kernel`]); the batch and key kernels also count with POPCNT
//! ([`batch_kernel`]). [`first_min_conjugate`] is a
//! `revsynth_canon::ShuffleKernel`, which `revsynth_bfs::symmetries`
//! attaches to the 4-wire symmetries every table canonicalizes with; the
//! others fill the candidate batches and compute the class keys of
//! `revsynth_table`.

use revsynth_perm::{Perm, WEIGHT_MIX};

/// The number of relabelings the kernel conjugates by: `4!`, one per
/// wire relabeling of a 4-wire function. Fewer wires have fewer
/// relabelings; their callers pad the tables with copies of earlier
/// entries, which the first-minimum rule never returns.
pub const RELABELINGS: usize = 24;

/// The name of the shuffle kernel this CPU runs (`"ssse3"`), or `None`
/// when [`first_min_conjugate`] would return `None` here.
#[must_use]
pub fn kernel() -> Option<&'static str> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") {
        return Some("ssse3");
    }
    None
}

/// The name of the batch and key kernels this CPU runs
/// (`"ssse3+popcnt"`), or `None` when [`compose_batch`],
/// [`cycle_type_keys`], [`cycle_type_key`] and [`wire_weight_key`] do not
/// run here.
#[must_use]
pub fn batch_kernel() -> Option<&'static str> {
    batch_kernel_runs().then_some("ssse3+popcnt")
}

#[inline]
fn batch_kernel_runs() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") && std::arch::is_x86_feature_detected!("popcnt")
    {
        return true;
    }
    false
}

/// The first minimum, with its index, of the 48 words
/// `conj_0(f), …, conj_23(f), conj_0(f⁻¹), …, conj_23(f⁻¹)`,
/// where nibble `x` of `conj_s(p)` is `relabel[s][p(gather[s][x])]`.
///
/// With `gather[s]` the index map of `π_σ⁻¹` and `relabel[s]` that of
/// `π_σ`, `conj_s(p)` is `p` conjugated by the `s`-th relabeling σ. The
/// comparison is the unsigned order of packed words ([`Perm`]'s `Ord`),
/// and ties go to the earlier index: conjugates of `f` (index `s`)
/// before those of `f⁻¹` (index `24 + s`), and table order within each.
///
/// `f_inverse` is `f⁻¹` when the caller already holds it; with `None`
/// the kernel computes [`Perm::inverse`] itself. A word that is not `f`'s
/// inverse gives a meaningless but well-defined answer. Every nibble word
/// is accepted, a permutation or not; only the low nibble of each table
/// byte is read.
///
/// Returns `None` when the CPU lacks SSSE3 or the target is not x86_64
/// (see [`kernel`]); the caller then computes the same result by other
/// means.
#[must_use]
pub fn first_min_conjugate(
    f: Perm,
    f_inverse: Option<Perm>,
    gather: &[[u8; 16]; RELABELINGS],
    relabel: &[[u8; 16]; RELABELINGS],
) -> Option<(Perm, usize)> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") {
        let inverse = f_inverse.unwrap_or_else(|| f.inverse());
        // SAFETY: `ssse3::first_min_conjugate` enables only the `ssse3`
        // target feature, and `is_x86_feature_detected!("ssse3")` just
        // confirmed that the running CPU supports it.
        let (word, at) = unsafe { ssse3::first_min_conjugate(f, inverse, gather, relabel) };
        return Some((Perm::from_packed_unchecked(word), at));
    }
    let _ = (f, f_inverse, gather, relabel);
    None
}

/// A permutation unpacked for the batch kernels, with its inverse: byte
/// `x` of the value bytes is `p(x)`, byte `x` of the inverse bytes is
/// `p⁻¹(x)`. The meet-in-the-middle scan unpacks each frame of a query
/// once and composes it with every stored representative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(16))]
pub struct ByteForm {
    values: [u8; 16],
    inverse: [u8; 16],
    perm: Perm,
}

impl ByteForm {
    /// Unpacks `p` and its inverse.
    #[must_use]
    pub fn new(p: Perm) -> Self {
        ByteForm {
            values: p.values(),
            inverse: p.inverse().values(),
            perm: p,
        }
    }

    /// The packed permutation.
    #[inline]
    #[must_use]
    pub fn perm(&self) -> Perm {
        self.perm
    }
}

/// Composes the representative `rep` with the frames of one query, in
/// batch order: `fwd[i].then(rep)` for every `i`, then `rep.then(inv[i])`
/// for every `i`. Slot `j` of `candidates` receives the `j`-th candidate,
/// of `inverses` its inverse and of `weights` its
/// [`Perm::wire_weight_key`]; slots past `fwd.len() + inv.len()` are left
/// as they are. `rep_inverse` must be `rep⁻¹`.
///
/// Returns `false`, and writes nothing, when the CPU lacks SSSE3 or
/// POPCNT or the target is not x86_64 (see [`batch_kernel`]).
///
/// # Panics
///
/// Panics if an output slice is shorter than `fwd.len() + inv.len()`.
pub fn compose_batch(
    rep: Perm,
    rep_inverse: Perm,
    fwd: &[ByteForm],
    inv: &[ByteForm],
    candidates: &mut [Perm],
    inverses: &mut [Perm],
    weights: &mut [u64],
) -> bool {
    let len = fwd.len() + inv.len();
    assert!(
        candidates.len() >= len && inverses.len() >= len && weights.len() >= len,
        "batch outputs hold fewer than {len} candidates"
    );
    #[cfg(target_arch = "x86_64")]
    if batch_kernel_runs() {
        // SAFETY: `ssse3::compose_batch` enables only the `ssse3` and
        // `popcnt` target features, and `batch_kernel_runs` just
        // confirmed that the running CPU supports both.
        unsafe {
            ssse3::compose_batch(rep, rep_inverse, fwd, inv, candidates, inverses, weights);
        }
        return true;
    }
    let _ = (rep, rep_inverse, inverses);
    false
}

/// Writes [`Perm::cycle_type_key`] of `perms[j]` into `keys[j]` for every
/// set bit `j` of `select` below `perms.len()`; other slots are left as
/// they are.
///
/// Returns `false`, and writes nothing, when the CPU lacks SSSE3 or
/// POPCNT or the target is not x86_64 (see [`batch_kernel`]).
///
/// # Panics
///
/// Panics if `keys` is shorter than `perms`.
pub fn cycle_type_keys(perms: &[Perm], select: u64, keys: &mut [u64]) -> bool {
    assert!(keys.len() >= perms.len(), "fewer key slots than perms");
    #[cfg(target_arch = "x86_64")]
    if batch_kernel_runs() {
        // SAFETY: as in `compose_batch`: both enabled features were
        // confirmed by `batch_kernel_runs`.
        unsafe { ssse3::cycle_type_keys(perms, select, keys) };
        return true;
    }
    let _ = select;
    false
}

/// [`Perm::cycle_type_key`] of `p` by the batch kernel, or `None` where
/// it does not run (see [`batch_kernel`]).
#[must_use]
pub fn cycle_type_key(p: Perm) -> Option<u64> {
    let mut key = [0];
    cycle_type_keys(&[p], 1, &mut key).then_some(key[0])
}

/// [`Perm::wire_weight_key`] of `p` by the batch kernel, or `None` where
/// it does not run (see [`batch_kernel`]).
#[must_use]
pub fn wire_weight_key(p: Perm) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    if batch_kernel_runs() {
        // SAFETY: as in `compose_batch`: both enabled features were
        // confirmed by `batch_kernel_runs`.
        return Some(unsafe { ssse3::wire_weight_key(p) });
    }
    let _ = p;
    None
}

/// `WEIGHT_MIX` padded to 256 entries, so that a byte indexes it without
/// a bounds check (the kernels' indices stay below 125).
#[cfg(target_arch = "x86_64")]
static WEIGHT_MIX_BYTES: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < WEIGHT_MIX.len() {
        table[i] = WEIGHT_MIX[i];
        i += 1;
    }
    table
};

#[cfg(target_arch = "x86_64")]
mod ssse3 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi8, _mm_and_si128, _mm_cmpeq_epi8, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
        _mm_loadu_si128, _mm_maddubs_epi16, _mm_movemask_epi8, _mm_packus_epi16, _mm_set1_epi16,
        _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi16, _mm_unpackhi_epi64, _mm_unpacklo_epi8,
    };

    use revsynth_perm::Perm;

    use super::{ByteForm, RELABELINGS, WEIGHT_MIX_BYTES};

    /// Byte `x` is `x`: the identity, and the point index of every lane.
    const IDENTITY: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

    /// Byte `v` is `popcount(v)`.
    const POPCOUNT: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];

    /// Byte `v` is `5 · popcount(v)`.
    const POPCOUNT_5: [u8; 16] = [0, 5, 5, 10, 5, 10, 10, 15, 5, 10, 10, 15, 10, 15, 15, 20];

    /// Byte `x` is `25 · popcount(x)`: the constant first term of point
    /// `x`'s index into `WEIGHT_MIX`.
    const POPCOUNT_25: [u8; 16] = [
        0, 25, 25, 50, 25, 50, 50, 75, 25, 50, 50, 75, 50, 75, 75, 100,
    ];

    /// `RECIPROCAL[m - 1] = ⌈2¹⁶ / m⌉`: `(c · RECIPROCAL[m - 1]) >> 16`
    /// is `c / m` for every multiple `c ≤ 16` of `m`, without a divide.
    const RECIPROCAL: [u32; 16] = {
        let mut r = [0u32; 16];
        let mut m = 1;
        while m <= 16 {
            r[m - 1] = 65_536_u32.div_ceil(m as u32);
            m += 1;
        }
        r
    };

    /// Byte `i` of the result is nibble `i` of `word`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn unpack(word: u64) -> __m128i {
        let low = _mm_set1_epi8(0x0f);
        let x = _mm_cvtsi64_si128(word as i64);
        let even = _mm_and_si128(x, low);
        let odd = _mm_and_si128(_mm_srli_epi16::<4>(x), low);
        _mm_unpacklo_epi8(even, odd)
    }

    #[inline]
    #[target_feature(enable = "ssse3")]
    fn load(table: &[u8; 16]) -> __m128i {
        // SAFETY: `table` is a live reference to exactly the 16 bytes
        // `loadu` reads, and `loadu` has no alignment requirement. It is
        // an SSE2 instruction, part of the x86_64 baseline; this module
        // is only entered after the CPU's SSSE3 support was confirmed
        // (see `super::first_min_conjugate` and `super::compose_batch`).
        unsafe { _mm_loadu_si128(table.as_ptr().cast()) }
    }

    /// Packs the value bytes (each below 16) of `low` and `high` into two
    /// nibble words.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn pack_pair(low: __m128i, high: __m128i) -> [u64; 2] {
        // Each 16-bit lane is the byte pair (1, 16): `pmaddubsw` turns the
        // value bytes (b₀, b₁) of a lane into the packed byte b₀ + 16·b₁.
        let weights = _mm_set1_epi16(0x1001);
        let both = _mm_packus_epi16(
            _mm_maddubs_epi16(low, weights),
            _mm_maddubs_epi16(high, weights),
        );
        [
            _mm_cvtsi128_si64(both) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(both, both)) as u64,
        ]
    }

    /// Conjugates the unpacked `fwd` and `inv` by one relabeling's pair
    /// of tables and packs the results back into two nibble words.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn conjugate_pair(
        fwd: __m128i,
        inv: __m128i,
        gather: &[u8; 16],
        relabel: &[u8; 16],
    ) -> [u64; 2] {
        let (g, r) = (load(gather), load(relabel));
        pack_pair(
            _mm_shuffle_epi8(r, _mm_shuffle_epi8(fwd, g)),
            _mm_shuffle_epi8(r, _mm_shuffle_epi8(inv, g)),
        )
    }

    /// See [`super::first_min_conjugate`]. The 48 words form four runs of
    /// 12 (the two halves of the tables, for `f` and for `f⁻¹`), each
    /// reduced in its own register chain; the runs are then merged in
    /// order, so the strict `<` keeps the first occurrence throughout.
    #[target_feature(enable = "ssse3")]
    pub(super) fn first_min_conjugate(
        f: Perm,
        f_inverse: Perm,
        gather: &[[u8; 16]; RELABELINGS],
        relabel: &[[u8; 16]; RELABELINGS],
    ) -> (u64, usize) {
        const HALF: usize = RELABELINGS / 2;
        let (fwd, inv) = (unpack(f.packed()), unpack(f_inverse.packed()));
        // Run r starts at index r·12: f's first and second half, then f⁻¹'s.
        let [f0, i0] = conjugate_pair(fwd, inv, &gather[0], &relabel[0]);
        let [f1, i1] = conjugate_pair(fwd, inv, &gather[HALF], &relabel[HALF]);
        let mut best = [(f0, 0), (f1, HALF), (i0, 2 * HALF), (i1, 3 * HALF)];
        for s in 1..HALF {
            let [f0, i0] = conjugate_pair(fwd, inv, &gather[s], &relabel[s]);
            let [f1, i1] = conjugate_pair(fwd, inv, &gather[HALF + s], &relabel[HALF + s]);
            for (run, word) in [f0, f1, i0, i1].into_iter().enumerate() {
                if word < best[run].0 {
                    best[run] = (word, run * HALF + s);
                }
            }
        }
        first_of_runs(best)
    }

    /// The first minimum of per-run minima listed in run order.
    #[inline(always)]
    pub(super) fn first_of_runs(runs: [(u64, usize); 4]) -> (u64, usize) {
        runs.into_iter()
            .reduce(|first, later| if later.0 < first.0 { later } else { first })
            .expect("four runs")
    }

    /// The wire-weight key of the permutation whose value bytes are
    /// `values`: the wrapping sum over points `x` of
    /// `WEIGHT_MIX[25·|x| + 5·|f(x)| + |x ∧ f(x)|]`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn weight_key_of_bytes(values: __m128i) -> u64 {
        let index = _mm_add_epi8(
            _mm_add_epi8(
                load(&POPCOUNT_25),
                _mm_shuffle_epi8(load(&POPCOUNT_5), values),
            ),
            _mm_shuffle_epi8(load(&POPCOUNT), _mm_and_si128(values, load(&IDENTITY))),
        );
        let [low, high] = [
            _mm_cvtsi128_si64(index) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(index, index)) as u64,
        ];
        let mut key = 0u64;
        for half in [low, high] {
            for byte in half.to_le_bytes() {
                key = key.wrapping_add(WEIGHT_MIX_BYTES[usize::from(byte)]);
            }
        }
        key
    }

    /// See [`super::wire_weight_key`].
    #[target_feature(enable = "ssse3,popcnt")]
    pub(super) fn wire_weight_key(p: Perm) -> u64 {
        weight_key_of_bytes(unpack(p.packed()))
    }

    /// The cycle-type key of the permutation whose value bytes are
    /// `values`. Point `x` is fixed by `pᵐ` exactly when its cycle's
    /// length divides `m`, so the points first fixed at `m` are the
    /// points of the `m`-cycles, `m` per cycle.
    #[inline]
    #[target_feature(enable = "ssse3,popcnt")]
    fn cycle_type_key_of_bytes(values: __m128i) -> u64 {
        let identity = load(&IDENTITY);
        let mut power = values;
        let mut returned = 0u32;
        let mut key = 0u64;
        // Pass `m` (from 1) tests `pᵐ` and adds the `m`-cycles to nibble
        // `m − 1` of the key.
        for (nibble, &reciprocal) in RECIPROCAL.iter().enumerate() {
            let fixed = _mm_movemask_epi8(_mm_cmpeq_epi8(power, identity)) as u32;
            let first = fixed & !returned;
            returned |= fixed;
            let cycles = (first.count_ones() * reciprocal) >> 16;
            key += u64::from(cycles) << (4 * nibble);
            power = _mm_shuffle_epi8(values, power);
        }
        key
    }

    /// See [`super::cycle_type_keys`].
    #[target_feature(enable = "ssse3,popcnt")]
    pub(super) fn cycle_type_keys(perms: &[Perm], select: u64, keys: &mut [u64]) {
        let mut select = select;
        while select != 0 {
            let j = select.trailing_zeros() as usize;
            select &= select - 1;
            let Some(&p) = perms.get(j) else {
                break;
            };
            keys[j] = cycle_type_key_of_bytes(unpack(p.packed()));
        }
    }

    /// See [`super::compose_batch`]. Composition and inversion of the
    /// products are one `pshufb` each:
    /// `frame.then(rep)` is `pshufb(rep, frame)` with inverse
    /// `rep⁻¹.then(frame⁻¹)`, and `rep.then(frame)` is `pshufb(frame, rep)`
    /// with inverse `frame⁻¹.then(rep⁻¹)`.
    #[target_feature(enable = "ssse3,popcnt")]
    pub(super) fn compose_batch(
        rep: Perm,
        rep_inverse: Perm,
        fwd: &[ByteForm],
        inv: &[ByteForm],
        candidates: &mut [Perm],
        inverses: &mut [Perm],
        weights: &mut [u64],
    ) {
        let (r, r_inv) = (unpack(rep.packed()), unpack(rep_inverse.packed()));
        for (j, frame) in fwd.iter().enumerate() {
            let c = _mm_shuffle_epi8(r, load(&frame.values));
            let [word, inverse] = pack_pair(c, _mm_shuffle_epi8(load(&frame.inverse), r_inv));
            candidates[j] = Perm::from_packed_unchecked(word);
            inverses[j] = Perm::from_packed_unchecked(inverse);
            weights[j] = weight_key_of_bytes(c);
        }
        for (j, frame) in inv.iter().enumerate() {
            let c = _mm_shuffle_epi8(load(&frame.values), r);
            let [word, inverse] = pack_pair(c, _mm_shuffle_epi8(r_inv, load(&frame.inverse)));
            let j = fwd.len() + j;
            candidates[j] = Perm::from_packed_unchecked(word);
            inverses[j] = Perm::from_packed_unchecked(inverse);
            weights[j] = weight_key_of_bytes(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ID: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

    /// `table` first, then identity tables.
    fn padded(table: [u8; 16]) -> [[u8; 16]; RELABELINGS] {
        std::array::from_fn(|s| if s == 0 { table } else { ID })
    }

    #[test]
    fn identity_tables_order_f_before_its_inverse() {
        // x ↦ x + 1 on {0, 1, 2}: nibble 2 is 0 in f and 1 in f⁻¹.
        let f = Perm::from_values(&[1, 2, 0, 3]).unwrap();
        let id = padded(ID);
        let Some(got) = first_min_conjugate(f, None, &id, &id) else {
            assert_eq!(kernel(), None);
            return;
        };
        assert_eq!(kernel(), Some("ssse3"));
        // Ties go to the first occurrence: 24 copies of f, then of f⁻¹.
        assert_eq!(got, (f, 0));
        assert_eq!(
            first_min_conjugate(f, Some(f.inverse()), &id, &id),
            Some((f, 0))
        );
        assert_eq!(
            first_min_conjugate(f.inverse(), None, &id, &id),
            Some((f, RELABELINGS))
        );
        let involution = Perm::from_values(&[1, 0, 3, 2]).unwrap();
        assert_eq!(
            first_min_conjugate(involution, Some(involution), &id, &id),
            Some((involution, 0))
        );
    }

    #[test]
    fn one_relabeling_matches_the_pointwise_definition() {
        // The relabeling that reverses the order of the 4 wires: an
        // involution, so one table serves as gather and relabel.
        let rev: [u8; 16] = std::array::from_fn(|x| (x as u8).reverse_bits() >> 4);
        let conj = |p: Perm| {
            let word = (0..16).fold(0u64, |word, x| {
                word | u64::from(rev[usize::from(p.apply(rev[x]))]) << (4 * x)
            });
            Perm::from_packed_unchecked(word)
        };
        let tables = padded(rev);
        for f in [
            Perm::from_values(&[9, 0, 2, 15, 11, 6, 7, 8, 14, 3, 4, 13, 5, 1, 12, 10]).unwrap(),
            Perm::from_values(&[6, 0, 12, 15, 7, 1, 5, 2, 4, 10, 13, 3, 11, 8, 14, 9]).unwrap(),
        ] {
            let Some(got) = first_min_conjugate(f, None, &tables, &tables) else {
                return;
            };
            let want = [
                (conj(f), 0),
                (f, 1),
                (conj(f.inverse()), RELABELINGS),
                (f.inverse(), RELABELINGS + 1),
            ]
            .into_iter()
            .reduce(|first, later| if later.0 < first.0 { later } else { first })
            .unwrap();
            assert_eq!(got, want, "f = {f}");
            assert_eq!(
                first_min_conjugate(f, Some(f.inverse()), &tables, &tables),
                Some(want)
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn runs_merge_to_the_first_occurrence() {
        use super::ssse3::first_of_runs;
        assert_eq!(first_of_runs([(9, 0), (9, 12), (9, 24), (9, 36)]), (9, 0));
        assert_eq!(first_of_runs([(9, 0), (3, 13), (3, 30), (3, 47)]), (3, 13));
        assert_eq!(first_of_runs([(9, 0), (3, 13), (3, 30), (2, 40)]), (2, 40));
    }

    #[test]
    fn batch_of_two_sides_matches_the_scalar_kernels() {
        let rep =
            Perm::from_values(&[9, 0, 2, 15, 11, 6, 7, 8, 14, 3, 4, 13, 5, 1, 12, 10]).unwrap();
        let frames = [
            Perm::identity(),
            Perm::from_values(&[6, 0, 12, 15, 7, 1, 5, 2, 4, 10, 13, 3, 11, 8, 14, 9]).unwrap(),
            Perm::from_values(&[1, 0, 2, 3]).unwrap(),
        ];
        let unpacked: Vec<ByteForm> = frames.iter().map(|&p| ByteForm::new(p)).collect();
        assert_eq!(unpacked[1].perm(), frames[1]);
        let (mut candidates, mut inverses, mut weights) =
            ([Perm::identity(); 8], [Perm::identity(); 8], [0u64; 8]);
        let ran = compose_batch(
            rep,
            rep.inverse(),
            &unpacked,
            &unpacked[1..],
            &mut candidates,
            &mut inverses,
            &mut weights,
        );
        assert_eq!(ran, batch_kernel().is_some());
        if !ran {
            assert_eq!(cycle_type_key(rep), None);
            assert_eq!(wire_weight_key(rep), None);
            return;
        }
        let want: Vec<Perm> = frames
            .iter()
            .map(|&frame| frame.then(rep))
            .chain(frames[1..].iter().map(|&frame| rep.then(frame)))
            .collect();
        assert_eq!(&candidates[..5], &want[..]);
        assert_eq!(
            candidates[5],
            Perm::identity(),
            "slots past the batch are kept"
        );
        for (j, &c) in want.iter().enumerate() {
            assert_eq!(inverses[j], c.inverse(), "candidate {j}");
            assert_eq!(weights[j], c.wire_weight_key(), "candidate {j}");
            assert_eq!(wire_weight_key(c), Some(c.wire_weight_key()));
            assert_eq!(cycle_type_key(c), Some(c.cycle_type_key()));
        }
        let mut keys = [7u64; 8];
        assert!(cycle_type_keys(&candidates[..5], 0b1_0110, &mut keys));
        for (j, &key) in keys.iter().enumerate() {
            match j {
                1 | 2 | 4 => assert_eq!(key, want[j].cycle_type_key(), "candidate {j}"),
                _ => assert_eq!(key, 7, "unselected slot {j} is kept"),
            }
        }
        assert_eq!(cycle_type_key(Perm::identity()), Some(0x10));
        // x ↦ x + 1 (mod 16): the one 16-cycle only returns at p¹⁶.
        let shift: Vec<u8> = (0..16).map(|x| (x + 1) % 16).collect();
        assert_eq!(
            cycle_type_key(Perm::from_values(&shift).unwrap()),
            Some(1 << 60)
        );
    }
}
