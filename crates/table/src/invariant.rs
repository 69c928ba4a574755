//! The invariant index: the data structure behind the meet-in-the-middle
//! candidate gate.
//!
//! Every function the search tables store is a canonical representative of
//! a ×48 equivalence class (conjugation by wire relabelings, and
//! inversion). Both [`Perm::cycle_type_key`] and [`Perm::wire_weight_key`]
//! are **constant on each class**, so a candidate composition whose
//! combined invariant key matches no stored function *provably* misses the
//! table — its canonicalization and hash probe can be skipped outright.
//!
//! The index maps each distinct combined invariant value occurring in the
//! tables to the **bitmask of optimal sizes** at which it occurs (bit `d`
//! set ⇔ some stored representative of size exactly `d` has this
//! invariant; on cost-bucketed tables, of bucket `d`), which also yields
//! the minimum stored distance per invariant as `mask.trailing_zeros()`.
//! The search engine gates with
//! [`admits_batch`](InvariantIndex::admits_batch) against the mask of
//! residue buckets a hit may still use (see the engine docs); on
//! gate-count tables that is the single bit `k`.
//!
//! Collisions in the combined 64-bit key only ever *merge* entries, which
//! widens a mask — the gate stays sound (it can pass a doomed candidate,
//! never reject a viable one).
//!
//! Every path computes both keys with the same kernels: the byte-shuffle
//! ones of [`revsynth_mmap::shuffle`] where the CPU has SSSE3 and POPCNT,
//! the scalar `Perm` methods (their reference) elsewhere. Both give the
//! same keys, so an index built on one CPU answers identically on another.

use revsynth_mmap::{prefetch_read, ArcSlice};
use revsynth_perm::{hash64shift, Perm};

use crate::batch::{cycle_type_key, wire_weight_key, CandidateBatch};
use crate::storage::RawStore;

/// Maps combined class-invariant keys to the distance sets at which they
/// occur among the stored representatives. Built once per
/// `SearchTables`; read-only and `Sync` afterwards.
///
/// Internally a small linear-probing table (like
/// [`FnTable`](crate::FnTable), but with `u32` distance-mask values and a
/// zero-mask empty marker), sized well below the main hash table: the
/// k = 5 tables hold ~109k classes but only ~47k distinct invariants.
///
/// Like [`FnTable`](crate::FnTable), the arrays are either owned (built
/// by the generate path) or borrowed zero-copy from a v5 store mapping
/// ([`InvariantIndex::from_mapped`]); the index is never mutated after
/// construction, so mapped storage is never copied.
#[derive(Clone)]
pub struct InvariantIndex {
    keys: RawStore<u64>,
    masks: RawStore<u32>,
    slot_mask: u64,
    len: usize,
    /// Stage-1 prefilter: a bitmap over hashed [`Perm::wire_weight_key`]
    /// values of the stored representatives. The weight key alone is
    /// already a class invariant, and it is the cheap half of the
    /// combined key (it comes with each batch candidate), so the hot
    /// gate tests it first and computes the cycle type only for the few
    /// candidates whose weight profile occurs at all. A clear bit proves
    /// absence; a set bit (including hash false positives) falls through
    /// to the exact combined lookup — staging never changes the answer.
    weight_bits: RawStore<u64>,
    weight_bit_mask: u64,
}

impl InvariantIndex {
    /// The most candidates one [`admits_batch`](Self::admits_batch) call
    /// takes: one bit of its `u64` answer each. The engine's batches are
    /// the ≤ 2·n! = 48 compositions of one representative with one
    /// query's frames.
    pub const MAX_BATCH: usize = 64;

    /// The combined invariant key of a function: its cycle type
    /// ([`Perm::cycle_type_key`]) mixed with its wire-weight profile
    /// ([`Perm::wire_weight_key`]). Constant on every ×48 equivalence
    /// class. Both keys come from the byte-shuffle kernels where the CPU
    /// runs them (see the module docs), as in the gate.
    #[inline]
    #[must_use]
    pub fn key_of(f: Perm) -> u64 {
        hash64shift(cycle_type_key(f)) ^ wire_weight_key(f)
    }

    /// Builds the index from `(representative, optimal size)` pairs.
    /// `expected` pre-sizes the table (the number of pairs is fine; the
    /// distinct-invariant count is always smaller). An underestimate
    /// costs a rehash, never correctness: the table doubles when the
    /// distinct-key count reaches half its slots.
    ///
    /// # Panics
    ///
    /// Panics if a distance exceeds 31 (the search depth `k` is asserted
    /// ≤ 16 long before this).
    #[must_use]
    pub fn build<I: IntoIterator<Item = (Perm, usize)>>(entries: I, expected: usize) -> Self {
        let bits = usize::BITS - expected.max(8).saturating_mul(2).leading_zeros();
        let cap = 1usize << bits;
        // Prefilter bitmap: ~8 bits per expected entry keeps the
        // false-positive rate of stage 1 low without leaving cache
        // (2^20 bits = 128 KB at the k = 5 scale), clamped to sane sizes.
        let weight_bits_pow =
            (usize::BITS - expected.max(8).saturating_mul(8).leading_zeros()).clamp(14, 27);
        let mut index = InvariantIndex {
            keys: RawStore::Owned(vec![0; cap]),
            masks: RawStore::Owned(vec![0; cap]),
            slot_mask: (cap - 1) as u64,
            len: 0,
            weight_bits: RawStore::Owned(vec![0; 1 << (weight_bits_pow - 6)]),
            weight_bit_mask: (1u64 << weight_bits_pow) - 1,
        };
        for (rep, distance) in entries {
            assert!(distance < 32, "distance {distance} out of mask range");
            let weight = wire_weight_key(rep);
            let bit = hash64shift(weight) & index.weight_bit_mask;
            index.weight_bits.make_mut()[(bit >> 6) as usize] |= 1 << (bit & 63);
            index.insert(hash64shift(cycle_type_key(rep)) ^ weight, 1 << distance);
        }
        index
    }

    /// Builds the index over arrays borrowed zero-copy from a store
    /// mapping (the v5 load path).
    ///
    /// `len` is the persisted distinct-invariant count and `empty_slot` a
    /// persisted witness index of one empty slot (`mask == 0`); both are
    /// validated here, along with the array shapes, so probe loops on the
    /// borrowed arrays terminate even before the store's bulk section
    /// checksums have been verified.
    pub fn from_mapped(
        keys: ArcSlice<u64>,
        masks: ArcSlice<u32>,
        weight_bits: ArcSlice<u64>,
        weight_bit_mask: u64,
        len: usize,
        empty_slot: usize,
    ) -> Result<Self, &'static str> {
        let cap = keys.len();
        if cap != masks.len() {
            return Err("key and mask arrays differ in length");
        }
        if !cap.is_power_of_two() || cap < 2 {
            return Err("slot count is not a supported power of two");
        }
        if len.checked_mul(2).is_none_or(|need| need > cap) {
            return Err("entry count exceeds the half-full load limit");
        }
        if empty_slot >= cap || masks[empty_slot] != 0 {
            return Err("empty-slot witness does not point at an empty slot");
        }
        if weight_bits.is_empty() || !weight_bits.len().is_power_of_two() {
            return Err("prefilter bitmap length is not a power of two");
        }
        let expect_mask = (weight_bits.len() as u64)
            .checked_mul(64)
            .map(|bits| bits - 1);
        if expect_mask != Some(weight_bit_mask) {
            return Err("prefilter bit mask does not match the bitmap length");
        }
        Ok(InvariantIndex {
            keys: RawStore::Mapped(keys),
            masks: RawStore::Mapped(masks),
            slot_mask: (cap - 1) as u64,
            len,
            weight_bits: RawStore::Mapped(weight_bits),
            weight_bit_mask,
        })
    }

    /// Rebuilds the index into its canonical compact owned layout: the
    /// smallest power-of-two slot count at load ≤ 1/2, entries inserted
    /// in sorted key order. Two logically equal indexes compact to
    /// byte-identical arrays regardless of how either was built — this is
    /// what makes v5 store bytes deterministic.
    #[must_use]
    pub fn compact(&self) -> InvariantIndex {
        let mut entries: Vec<(u64, u32)> = self.entries().collect();
        entries.sort_unstable();
        let cap = (entries.len().max(4) * 2).next_power_of_two();
        let slot_mask = (cap - 1) as u64;
        let mut keys = vec![0u64; cap];
        let mut masks = vec![0u32; cap];
        for &(key, mask) in &entries {
            let mut i = (hash64shift(key) & slot_mask) as usize;
            while masks[i] != 0 {
                i = (i + 1) & slot_mask as usize;
            }
            keys[i] = key;
            masks[i] = mask;
        }
        InvariantIndex {
            keys: RawStore::Owned(keys),
            masks: RawStore::Owned(masks),
            slot_mask,
            len: entries.len(),
            weight_bits: RawStore::Owned(self.weight_bits.to_vec()),
            weight_bit_mask: self.weight_bit_mask,
        }
    }

    /// The raw slot arrays (keys, distance masks), including empty slots
    /// (`mask == 0`). Exposed for store persistence.
    #[must_use]
    pub fn slot_arrays(&self) -> (&[u64], &[u32]) {
        (&self.keys, &self.masks)
    }

    /// The stage-1 prefilter bitmap and its bit mask. Exposed for store
    /// persistence.
    #[must_use]
    pub fn weight_bitmap(&self) -> (&[u64], u64) {
        (&self.weight_bits, self.weight_bit_mask)
    }

    /// Index of the first empty slot — the witness persisted alongside
    /// the slot arrays.
    ///
    /// # Panics
    ///
    /// Panics if no slot is empty (impossible at load ≤ 1/2).
    #[must_use]
    pub fn first_empty_slot(&self) -> usize {
        self.masks
            .iter()
            .position(|&m| m == 0)
            .expect("index at load <= 1/2 always has an empty slot")
    }

    /// Whether the arrays are still borrowed from a store mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.keys.is_mapped() || self.masks.is_mapped() || self.weight_bits.is_mapped()
    }

    /// The hot gate test: whether any stored representative of size
    /// **exactly** `distance` could share `f`'s class invariants.
    ///
    /// Evaluates in two stages — the cheap weight key against the
    /// prefilter bitmap first, the full combined key against the index
    /// only for survivors — and is exactly equivalent to
    /// `admits_at(key_of(f), distance)`. This is the one-candidate
    /// reference; the search engine gates whole batches with
    /// [`admits_batch`](Self::admits_batch).
    #[inline]
    #[must_use]
    pub fn admits(&self, f: Perm, distance: usize) -> bool {
        let weight = wire_weight_key(f);
        let bit = hash64shift(weight) & self.weight_bit_mask;
        if self.weight_bits[(bit >> 6) as usize] >> (bit & 63) & 1 == 0 {
            return false;
        }
        self.admits_at(hash64shift(cycle_type_key(f)) ^ weight, distance)
    }

    /// The gate for a batch of candidates: bit `i` of the result is set
    /// ⇔ some stored representative at a distance in `allowed` (bit `d`
    /// set ⇔ distance `d` allowed) could share candidate `i`'s class
    /// invariants — for a single-bit `allowed = 1 << d`, exactly
    /// [`admits(candidate, d)`](Self::admits). A clear bit proves the
    /// candidate misses every allowed distance.
    ///
    /// On tables larger than the cache both stages of the gate are a
    /// dependent cache miss, one into the prefilter bitmap and one into
    /// the index. Asked one candidate at a time they run back to back;
    /// here the batch runs in three passes so that the misses of a pass
    /// overlap each other and the arithmetic of the next candidates:
    ///
    /// 1. hash every weight key (the batch holds them) and prefetch its
    ///    prefilter word;
    /// 2. test the words, compute the cycle-type keys of the survivors
    ///    only ([`CandidateBatch::cycle_type_keys`]), and for each
    ///    survivor prefetch the home slot of its combined key in both the
    ///    key and the mask array;
    /// 3. resolve each survivor's distance mask against `allowed`.
    #[must_use]
    pub fn admits_batch(&self, batch: &CandidateBatch, allowed: u32) -> u64 {
        let mut bits = [0u64; Self::MAX_BATCH];
        for (bit, &weight) in bits.iter_mut().zip(batch.weight_keys()) {
            *bit = hash64shift(weight) & self.weight_bit_mask;
            prefetch_read(&self.weight_bits[(*bit >> 6) as usize]);
        }
        let mut survivors = 0u64;
        for (i, &bit) in bits[..batch.len()].iter().enumerate() {
            survivors |= (self.weight_bits[(bit >> 6) as usize] >> (bit & 63) & 1) << i;
        }
        let mut keys = batch.cycle_type_keys(survivors);
        let mut pending = survivors;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            keys[i] = hash64shift(keys[i]) ^ batch.weight_keys()[i];
            let home = self.home_slot(keys[i]);
            prefetch_read(&self.keys[home]);
            prefetch_read(&self.masks[home]);
        }
        let mut admitted = 0u64;
        while survivors != 0 {
            let i = survivors.trailing_zeros() as usize;
            survivors &= survivors - 1;
            admitted |= u64::from(self.distance_mask(keys[i]) & allowed != 0) << i;
        }
        admitted
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (hash64shift(key) & self.slot_mask) as usize
    }

    fn insert(&mut self, key: u64, mask_bit: u32) {
        // Keep the load factor ≤ 1/2 so probes terminate even when the
        // builder's `expected` underestimated the distinct-key count.
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let slot_mask = self.slot_mask;
        let mut i = (hash64shift(key) & slot_mask) as usize;
        let keys = self.keys.make_mut();
        let masks = self.masks.make_mut();
        loop {
            if masks[i] == 0 {
                keys[i] = key;
                masks[i] = mask_bit;
                self.len += 1;
                return;
            }
            if keys[i] == key {
                masks[i] |= mask_bit;
                return;
            }
            i = (i + 1) & slot_mask as usize;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, RawStore::Owned(vec![0; new_cap]));
        let old_masks = std::mem::replace(&mut self.masks, RawStore::Owned(vec![0; new_cap]));
        self.slot_mask = (new_cap - 1) as u64;
        let slot_mask = self.slot_mask;
        let keys = self.keys.make_mut();
        let masks = self.masks.make_mut();
        for (&key, &mask) in old_keys.iter().zip(old_masks.iter()) {
            if mask == 0 {
                continue;
            }
            let mut i = (hash64shift(key) & slot_mask) as usize;
            while masks[i] != 0 {
                i = (i + 1) & slot_mask as usize;
            }
            keys[i] = key;
            masks[i] = mask;
        }
    }

    /// The distance bitmask stored for `key` (bit `d` ⇔ the invariant
    /// occurs at optimal size `d`), or 0 if the invariant occurs nowhere
    /// in the tables.
    #[inline]
    #[must_use]
    pub fn distance_mask(&self, key: u64) -> u32 {
        let mut i = self.home_slot(key);
        loop {
            let mask = self.masks[i];
            if mask == 0 {
                return 0;
            }
            if self.keys[i] == key {
                return mask;
            }
            i = (i + 1) & self.slot_mask as usize;
        }
    }

    /// The minimum stored distance of any representative with this
    /// invariant, or `None` if the invariant occurs nowhere.
    #[inline]
    #[must_use]
    pub fn min_distance(&self, key: u64) -> Option<u32> {
        match self.distance_mask(key) {
            0 => None,
            mask => Some(mask.trailing_zeros()),
        }
    }

    /// Whether any stored representative of size **exactly** `distance`
    /// has this invariant.
    #[inline]
    #[must_use]
    pub fn admits_at(&self, key: u64, distance: usize) -> bool {
        self.distance_mask(key) >> distance & 1 == 1
    }

    /// Number of distinct invariant values stored.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident bytes (key, mask and prefilter arrays).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * 8 + self.masks.len() * 4 + self.weight_bits.len() * 8
    }

    /// Iterates over the stored `(invariant key, distance mask)` entries
    /// in unspecified order. Used to compare indexes built by different
    /// paths (e.g. the generate path versus a store load) for logical
    /// equality.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.masks.iter())
            .filter(|&(_, &mask)| mask != 0)
            .map(|(&key, &mask)| (key, mask))
    }
}

/// Logical equality: two indexes are equal when they hold the same
/// `(key, mask)` entries and the same stage-1 prefilter bitmap —
/// regardless of slot layout (which depends on insertion order). Two
/// indexes built from the same `(rep, distance)` multiset with the same
/// pre-sizing hint always compare equal.
impl PartialEq for InvariantIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len
            || self.weight_bit_mask != other.weight_bit_mask
            || self.weight_bits[..] != other.weight_bits[..]
        {
            return false;
        }
        let mut a: Vec<(u64, u32)> = self.entries().collect();
        let mut b: Vec<(u64, u32)> = other.entries().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl Eq for InvariantIndex {}

impl std::fmt::Debug for InvariantIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InvariantIndex({} invariants, 2^{} slots)",
            self.len,
            self.keys.len().trailing_zeros()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ByteForm;

    fn perm_of(i: u64) -> Perm {
        let mut vals: Vec<u8> = (0..16).collect();
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for j in (1..16).rev() {
            vals.swap(j, (x % (j as u64 + 1)) as usize);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(12345);
            x >>= 7;
            if x == 0 {
                x = i.wrapping_add(j as u64) | 1;
            }
        }
        Perm::from_values(&vals).unwrap()
    }

    #[test]
    fn key_of_is_class_invariant_under_inverse() {
        for i in 0..50 {
            let p = perm_of(i);
            assert_eq!(
                InvariantIndex::key_of(p),
                InvariantIndex::key_of(p.inverse())
            );
        }
    }

    #[test]
    fn build_and_lookup_roundtrip() {
        let entries: Vec<(Perm, usize)> = (0..200u64)
            .map(|i| (perm_of(i), (i % 7) as usize))
            .collect();
        let index = InvariantIndex::build(entries.iter().copied(), entries.len());
        assert!(index.len() <= 200);
        assert!(!index.is_empty());
        for &(p, d) in &entries {
            let key = InvariantIndex::key_of(p);
            assert!(index.admits_at(key, d), "distance {d} of {p}");
            let min = index.min_distance(key).expect("stored invariant");
            assert!(min as usize <= d);
            assert_eq!(min, index.distance_mask(key).trailing_zeros());
        }
    }

    #[test]
    fn absent_invariants_are_rejected_at_every_distance() {
        // Index of near-identity permutations only: a generic permutation
        // with full support has a different cycle type and must be absent.
        let mut vals: Vec<u8> = (0..16).collect();
        vals.swap(0, 1);
        let swap = Perm::from_values(&vals).unwrap();
        let index = InvariantIndex::build([(swap, 1), (Perm::identity(), 0)], 2);
        assert_eq!(index.len(), 2);
        let generic =
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
        let key = InvariantIndex::key_of(generic);
        assert_eq!(index.distance_mask(key), 0);
        assert_eq!(index.min_distance(key), None);
        for d in 0..32 {
            assert!(!index.admits_at(key, d));
        }
    }

    #[test]
    fn build_survives_a_wild_underestimate() {
        // `expected` far below the distinct-key count must trigger growth,
        // not an unterminated probe loop.
        let entries: Vec<(Perm, usize)> = (0..300u64).map(|i| (perm_of(i), 1)).collect();
        let index = InvariantIndex::build(entries.iter().copied(), 1);
        assert!(
            index.len() > 32,
            "sample must exceed the minimum initial slot count"
        );
        for &(p, d) in &entries {
            assert!(index.admits_at(InvariantIndex::key_of(p), d));
        }
    }

    /// Bit `d` set ⇔ the one-candidate gate admits `p` at distance `d`.
    fn admitted_at(index: &InvariantIndex, p: Perm) -> u32 {
        (0..32).fold(0, |mask, d| mask | u32::from(index.admits(p, d)) << d)
    }

    #[test]
    fn staged_admits_equals_exact_admits() {
        // The weight-key prefilter may only reject what the exact lookup
        // also rejects, and the batched gate must answer exactly like the
        // one-candidate gate: a batch bit is set iff some allowed distance
        // admits the candidate. All agree on every candidate, mask (single
        // distances and multi-bit sets) and batch length, on a built index
        // and on its compact layout, for batches the byte kernel fills and
        // for batches the scalar fallback fills.
        let entries: Vec<(Perm, usize)> = (0..100u64)
            .map(|i| (perm_of(i), (i % 9) as usize))
            .collect();
        let built = InvariantIndex::build(entries.iter().copied(), entries.len());
        // Stored representatives and their inverses, which the index must
        // admit, among random candidates.
        let candidates: Vec<Perm> = entries
            .iter()
            .flat_map(|&(p, _)| [p, p.inverse()])
            .chain((100..400u64).map(perm_of))
            .collect();
        let frames: Vec<ByteForm> = candidates.iter().map(|&p| ByteForm::new(p)).collect();
        let masks: Vec<u32> = (0..9)
            .map(|d| 1 << d)
            .chain([0, 0b1010, 0b1_1000_0110, 0x1FF, u32::MAX])
            .collect();
        let mut batch = CandidateBatch::new();
        for index in [built.compact(), built] {
            let mut admitted_at_i = vec![0u32; candidates.len()];
            for (i, &p) in candidates.iter().enumerate() {
                let key = InvariantIndex::key_of(p);
                for d in 0..32 {
                    assert_eq!(
                        index.admits(p, d),
                        index.admits_at(key, d),
                        "perm {i}, distance {d}"
                    );
                }
                admitted_at_i[i] = admitted_at(&index, p);
            }
            assert!(admitted_at_i[..200].iter().all(|&mask| mask != 0));
            for len in 0..=48 {
                for start in (0..candidates.len() - len).step_by(37) {
                    // With the identity as the representative, the batch's
                    // candidates are its frames, on both sides.
                    let (fwd, inv) = frames[start..start + len].split_at(len / 3);
                    for scalar in [false, true] {
                        if scalar {
                            batch.compose_scalar(Perm::identity(), fwd, inv);
                        } else {
                            batch.compose(Perm::identity(), Perm::identity(), fwd, inv);
                        }
                        assert_eq!(batch.candidates(), &candidates[start..start + len]);
                        for &allowed in &masks {
                            let admitted = index.admits_batch(&batch, allowed);
                            assert_eq!(admitted >> len, 0, "bits past the batch stay clear");
                            for j in 0..len {
                                assert_eq!(
                                    admitted >> j & 1 == 1,
                                    admitted_at_i[start + j] & allowed != 0,
                                    "batch {start}+{len}, entry {j}, mask {allowed:#x}, {}",
                                    batch.kernel()
                                );
                            }
                        }
                    }
                }
            }
            // Composed batches: a representative with 24 frames a side.
            for r in 0..20 {
                let rep = candidates[r * 7];
                let (fwd, inv) = frames[r * 11..r * 11 + 48].split_at(24);
                for scalar in [false, true] {
                    if scalar {
                        batch.compose_scalar(rep, fwd, inv);
                    } else {
                        batch.compose(rep, rep.inverse(), fwd, inv);
                    }
                    let expected: Vec<u32> = batch
                        .candidates()
                        .iter()
                        .map(|&c| admitted_at(&index, c))
                        .collect();
                    for &allowed in &masks {
                        let admitted = index.admits_batch(&batch, allowed);
                        for (j, &mask) in expected.iter().enumerate() {
                            assert_eq!(
                                admitted >> j & 1 == 1,
                                mask & allowed != 0,
                                "rep {r}, entry {j}, mask {allowed:#x}, {}",
                                batch.kernel()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_gate_batches_are_rejected() {
        let frames = [ByteForm::new(Perm::identity()); InvariantIndex::MAX_BATCH + 1];
        CandidateBatch::new().compose(Perm::identity(), Perm::identity(), &frames, &[]);
    }

    #[test]
    fn masks_merge_across_distances() {
        let p = perm_of(3);
        let index = InvariantIndex::build([(p, 2), (p, 5), (p.inverse(), 4)], 3);
        assert_eq!(index.len(), 1, "same class merges into one entry");
        let key = InvariantIndex::key_of(p);
        assert_eq!(index.distance_mask(key), (1 << 2) | (1 << 5) | (1 << 4));
        assert_eq!(index.min_distance(key), Some(2));
        assert!(index.admits_at(key, 4));
        assert!(!index.admits_at(key, 3));
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn distances_beyond_mask_are_rejected() {
        let _ = InvariantIndex::build([(Perm::identity(), 32)], 1);
    }

    #[test]
    fn entries_expose_every_stored_invariant() {
        let entries: Vec<(Perm, usize)> =
            (0..80u64).map(|i| (perm_of(i), (i % 5) as usize)).collect();
        let index = InvariantIndex::build(entries.iter().copied(), entries.len());
        let listed: std::collections::HashMap<u64, u32> = index.entries().collect();
        assert_eq!(listed.len(), index.len());
        for &(p, d) in &entries {
            let key = InvariantIndex::key_of(p);
            assert_eq!(listed[&key], index.distance_mask(key), "perm {p}");
            assert!(listed[&key] >> d & 1 == 1, "distance {d}");
        }
    }

    #[test]
    fn compact_is_deterministic_and_logically_equal() {
        let entries: Vec<(Perm, usize)> = (0..150u64)
            .map(|i| (perm_of(i), (i % 6) as usize))
            .collect();
        let forward = InvariantIndex::build(entries.iter().copied(), entries.len());
        let reverse = InvariantIndex::build(entries.iter().rev().copied(), entries.len());
        // Different insertion orders produce different slot layouts but
        // identical compact layouts.
        let a = forward.compact();
        let b = reverse.compact();
        assert_eq!(a.slot_arrays().0, b.slot_arrays().0);
        assert_eq!(a.slot_arrays().1, b.slot_arrays().1);
        assert_eq!(a.weight_bitmap().0, b.weight_bitmap().0);
        assert_eq!(a.first_empty_slot(), b.first_empty_slot());
        // The compacted index answers identically.
        assert_eq!(a, forward);
        assert!(a.slot_arrays().0.len() <= forward.slot_arrays().0.len());
        for i in 0..400u64 {
            let p = perm_of(i);
            for d in 0..8 {
                assert_eq!(a.admits(p, d), forward.admits(p, d), "perm {i} d {d}");
            }
            assert_eq!(
                a.distance_mask(InvariantIndex::key_of(p)),
                forward.distance_mask(InvariantIndex::key_of(p))
            );
        }
        // Compacting a compact index is the identity on the arrays.
        let c = a.compact();
        assert_eq!(a.slot_arrays().0, c.slot_arrays().0);
        assert_eq!(a.slot_arrays().1, c.slot_arrays().1);
    }

    #[test]
    fn equality_is_insertion_order_independent() {
        let entries: Vec<(Perm, usize)> = (0..120u64)
            .map(|i| (perm_of(i), (i % 6) as usize))
            .collect();
        let forward = InvariantIndex::build(entries.iter().copied(), entries.len());
        let reverse = InvariantIndex::build(entries.iter().rev().copied(), entries.len());
        assert_eq!(forward, reverse, "slot layout must not matter");

        let mut shorter = entries.clone();
        shorter.truncate(100);
        let partial = InvariantIndex::build(shorter.iter().copied(), entries.len());
        assert_ne!(forward, partial);
        // A distance change flips a mask bit and must break equality.
        let mut bumped = entries;
        bumped[0].1 += 20;
        let changed = InvariantIndex::build(bumped.iter().copied(), bumped.len());
        assert_ne!(forward, changed);
    }
}
