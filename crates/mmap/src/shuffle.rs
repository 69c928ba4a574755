//! The shuffle-table conjugation kernel behind canonicalization.
//!
//! Conjugating a packed permutation `f` (nibble `i` holds `f(i)`) by a
//! wire relabeling σ, `π_σ ∘ f ∘ π_σ⁻¹`, is two byte shuffles once the
//! 16 nibbles sit in 16 bytes: a **gather** that reads byte `π_σ⁻¹(x)`
//! into position `x`, then a **relabel** that replaces every value `y`
//! by `π_σ(y)`. On x86_64 each shuffle is one SSSE3 `pshufb`, and a
//! `pmaddubsw` + `packuswb` pair packs the bytes of two conjugates back
//! into two nibble words. [`first_min_conjugate`] computes every
//! conjugate of `f` and of `f⁻¹` this way, independently of each other,
//! and returns the first minimum: exactly what the scalar
//! plain-changes walk in `revsynth-canon` finds step by step.
//!
//! The kernel is chosen at run time: [`first_min_conjugate`] checks that
//! the CPU supports SSSE3 and returns `None` when it does not, or when
//! the target is not x86_64, so the caller falls back to its scalar walk.
//! It is a `revsynth_canon::ShuffleKernel`; `revsynth_bfs::symmetries`
//! attaches it to the 4-wire symmetries every table canonicalizes with.

use revsynth_perm::Perm;

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

/// The first minimum, with its index, of the 48 words
/// `conj_0(f), …, conj_23(f), conj_0(f⁻¹), …, conj_23(f⁻¹)`,
/// where nibble `x` of `conj_s(p)` is `relabel[s][p(gather[s][x])]`.
///
/// With `gather[s]` the index map of `π_σ⁻¹` and `relabel[s]` that of
/// `π_σ`, `conj_s(p)` is `p` conjugated by the `s`-th relabeling σ. The
/// comparison is the unsigned order of packed words ([`Perm`]'s `Ord`),
/// and ties go to the earlier index: conjugates of `f` (index `s`)
/// before those of `f⁻¹` ([`Perm::inverse`], index `24 + s`), and table
/// order within each.
///
/// Every nibble word is accepted, a permutation or not; only the low
/// nibble of each table byte is read.
///
/// Returns `None` when the CPU lacks SSSE3 or the target is not x86_64
/// (see [`kernel`]); the caller then computes the same result by other
/// means.
#[must_use]
pub fn first_min_conjugate(
    f: Perm,
    gather: &[[u8; 16]; RELABELINGS],
    relabel: &[[u8; 16]; RELABELINGS],
) -> Option<(Perm, usize)> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") {
        // SAFETY: `ssse3::first_min_conjugate` enables only the `ssse3`
        // target feature, and `is_x86_feature_detected!("ssse3")` just
        // confirmed that the running CPU supports it.
        let (word, at) = unsafe { ssse3::first_min_conjugate(f, gather, relabel) };
        return Some((Perm::from_packed_unchecked(word), at));
    }
    let _ = (f, gather, relabel);
    None
}

#[cfg(target_arch = "x86_64")]
mod ssse3 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_loadu_si128,
        _mm_maddubs_epi16, _mm_packus_epi16, _mm_set1_epi16, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi16, _mm_unpackhi_epi64, _mm_unpacklo_epi8,
    };

    use revsynth_perm::Perm;

    use super::RELABELINGS;

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
        // is only entered after `is_x86_feature_detected!("ssse3")`
        // passed (see `super::first_min_conjugate`).
        unsafe { _mm_loadu_si128(table.as_ptr().cast()) }
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
        // Each 16-bit lane is the byte pair (1, 16): `pmaddubsw` turns the
        // value bytes (b₀, b₁) of a lane into the packed byte b₀ + 16·b₁.
        let weights = _mm_set1_epi16(0x1001);
        let (g, r) = (load(gather), load(relabel));
        let conj_fwd = _mm_shuffle_epi8(r, _mm_shuffle_epi8(fwd, g));
        let conj_inv = _mm_shuffle_epi8(r, _mm_shuffle_epi8(inv, g));
        let both = _mm_packus_epi16(
            _mm_maddubs_epi16(conj_fwd, weights),
            _mm_maddubs_epi16(conj_inv, weights),
        );
        [
            _mm_cvtsi128_si64(both) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(both, both)) as u64,
        ]
    }

    /// See [`super::first_min_conjugate`]. The 48 words form four runs of
    /// 12 (the two halves of the tables, for `f` and for `f⁻¹`), each
    /// reduced in its own register chain; the runs are then merged in
    /// order, so the strict `<` keeps the first occurrence throughout.
    #[target_feature(enable = "ssse3")]
    pub(super) fn first_min_conjugate(
        f: Perm,
        gather: &[[u8; 16]; RELABELINGS],
        relabel: &[[u8; 16]; RELABELINGS],
    ) -> (u64, usize) {
        const HALF: usize = RELABELINGS / 2;
        let (fwd, inv) = (unpack(f.packed()), unpack(f.inverse().packed()));
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
        let Some(got) = first_min_conjugate(f, &id, &id) else {
            assert_eq!(kernel(), None);
            return;
        };
        assert_eq!(kernel(), Some("ssse3"));
        // Ties go to the first occurrence: 24 copies of f, then of f⁻¹.
        assert_eq!(got, (f, 0));
        assert_eq!(
            first_min_conjugate(f.inverse(), &id, &id),
            Some((f, RELABELINGS))
        );
        let involution = Perm::from_values(&[1, 0, 3, 2]).unwrap();
        assert_eq!(
            first_min_conjugate(involution, &id, &id),
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
            let Some(got) = first_min_conjugate(f, &tables, &tables) else {
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
}
