//! The open-addressing table.

use std::fmt;

use revsynth_mmap::{prefetch_read, ArcSlice};
use revsynth_perm::{hash64shift, Perm};

use crate::ring::ProbeRing;
use crate::stats::TableStats;
use crate::storage::RawStore;

/// Empty-slot marker. `u64::MAX` decodes to a constant map (every nibble
/// 15), which is not a bijection, so it can never collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Default maximum load factor before the table doubles.
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 8;

/// A linear-probing hash table mapping packed permutations to one-byte
/// values (paper §3.3).
///
/// Keys and values live in two parallel flat arrays; lookups hash the key
/// with [`hash64shift`] and scan forward (wrapping) until the key or an
/// empty slot is found.
///
/// The table grows automatically when the load factor would exceed 7/8,
/// but callers that know the final entry count (the BFS does) should
/// pre-size it with [`FnTable::for_entries`] or
/// [`FnTable::with_capacity_bits`] to avoid rehashing hundreds of millions
/// of keys.
///
/// The slot arrays are either owned (generation paths) or borrowed
/// zero-copy from a v5 store mapping ([`FnTable::from_mapped`]); reads are
/// identical either way, and any mutation of a mapped table first copies
/// the arrays into owned storage.
#[derive(Clone)]
pub struct FnTable {
    keys: RawStore<u64>,
    values: RawStore<u8>,
    mask: u64,
    len: usize,
    /// Insertions (including rehash reinsertions) that did not land in
    /// their home slot.
    displaced_inserts: u64,
    /// Total slots walked past by displaced insertions — the running
    /// cost of clustering, cheap to maintain and surfaced through
    /// [`TableStats`] so load-factor tuning is visible without a full
    /// table scan.
    insert_displacement_total: u64,
}

impl FnTable {
    /// Creates a table with `2^bits` slots.
    ///
    /// The paper's configurations (Table 2): 2²⁵ slots for k = 7 (256 MB),
    /// 2²⁸ for k = 8 (2 GB), 2³² for k = 9 (32 GB).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 40.
    #[must_use]
    pub fn with_capacity_bits(bits: u32) -> Self {
        assert!((1..=40).contains(&bits), "unreasonable table size 2^{bits}");
        let cap = 1usize << bits;
        FnTable {
            keys: RawStore::Owned(vec![EMPTY; cap]),
            values: RawStore::Owned(vec![0; cap]),
            mask: (cap - 1) as u64,
            len: 0,
            displaced_inserts: 0,
            insert_displacement_total: 0,
        }
    }

    /// Builds a table over slot arrays borrowed zero-copy from a store
    /// mapping (the v5 load path).
    ///
    /// `len` is the persisted entry count and `empty_slot` a persisted
    /// witness index of one empty slot; both are validated here (together
    /// with capacity shape) so that probe loops on the borrowed arrays
    /// are guaranteed to terminate even before the store's bulk section
    /// checksums have been verified. The key/value *contents* are taken
    /// as-is — semantic validation belongs to the store's checksums and
    /// structural checks.
    pub fn from_mapped(
        keys: ArcSlice<u64>,
        values: ArcSlice<u8>,
        len: usize,
        empty_slot: usize,
    ) -> Result<Self, &'static str> {
        let cap = keys.len();
        if cap != values.len() {
            return Err("key and value arrays differ in length");
        }
        if !cap.is_power_of_two() || !(8..=1 << 40).contains(&cap) {
            return Err("slot count is not a supported power of two");
        }
        if len >= cap {
            return Err("entry count does not leave an empty slot");
        }
        if empty_slot >= cap || keys[empty_slot] != EMPTY {
            return Err("empty-slot witness does not point at an empty slot");
        }
        Ok(FnTable {
            keys: RawStore::Mapped(keys),
            values: RawStore::Mapped(values),
            mask: (cap - 1) as u64,
            len,
            displaced_inserts: 0,
            insert_displacement_total: 0,
        })
    }

    /// The raw slot arrays (keys, values), including empty slots (key
    /// `u64::MAX`). Exposed for store persistence.
    #[must_use]
    pub fn slot_arrays(&self) -> (&[u64], &[u8]) {
        (&self.keys, &self.values)
    }

    /// Index of the first empty slot — the witness persisted alongside
    /// the slot arrays so a mapped load can prove probe termination.
    ///
    /// # Panics
    ///
    /// Panics if the table is full (impossible below the growth
    /// threshold).
    #[must_use]
    pub fn first_empty_slot(&self) -> usize {
        self.keys
            .iter()
            .position(|&k| k == EMPTY)
            .expect("table below maximum load always has an empty slot")
    }

    /// Whether the slot arrays are still borrowed from a store mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.keys.is_mapped() || self.values.is_mapped()
    }

    /// Creates a table sized for `expected` entries at a load factor of at
    /// most ~0.58 (the paper's k = 7 configuration), rounded up to a power
    /// of two.
    ///
    /// # Panics
    ///
    /// Panics (like [`with_capacity_bits`](Self::with_capacity_bits)) if
    /// the required slot count exceeds `2⁴⁰`.
    #[must_use]
    pub fn for_entries(expected: usize) -> Self {
        Self::with_capacity_bits(Self::capacity_bits_for(expected))
    }

    /// The power-of-two slot exponent [`for_entries`](Self::for_entries)
    /// would allocate for `expected` entries (`⌈expected / 0.583⌉` rounded
    /// up to a power of two, at least 8 slots).
    ///
    /// The arithmetic is carried out in 128 bits: at the paper's k = 9
    /// regime `expected` approaches 2³², where the naive `expected * 12`
    /// would overflow 32-bit builds — and a wrapped product would
    /// silently size the table orders of magnitude too small.
    #[must_use]
    pub fn capacity_bits_for(expected: usize) -> u32 {
        let min_slots = (expected.max(4) as u128 * 12) / 7; // expected / 0.583
        let bits = 128 - (min_slots - 1).leading_zeros();
        bits.max(3)
    }

    /// Number of stored entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots (a power of two).
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Current load factor `len / capacity`.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Approximate resident memory in bytes (keys + values arrays).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * 8 + self.values.len()
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (hash64shift(key) & self.mask) as usize
    }

    #[inline]
    fn record_displacement(&mut self, d: u64) {
        if d > 0 {
            self.displaced_inserts += 1;
            self.insert_displacement_total += d;
        }
    }

    /// Whether `key` is present. This is the hot membership test of
    /// Algorithm 1's inner loop.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: Perm) -> bool {
        let key = key.packed();
        let mut i = self.home_slot(key);
        loop {
            let slot = self.keys[i];
            if slot == key {
                return true;
            }
            if slot == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Starts a pipelined membership probe for `key`: hashes it, issues a
    /// software prefetch of its home slot ([`prefetch_read`]) and returns
    /// the in-flight [`Probe`] without touching the slot.
    ///
    /// On the multi-GB tables of the paper's k = 8–9 regime (and already
    /// at k = 7) every probe is a cache miss. The meet-in-the-middle inner
    /// loop therefore starts the next candidates' probes *before*
    /// finishing the current one, so the home-slot loads run behind the
    /// next ~750-instruction canonicalizations instead of one after
    /// another ([`contains`](Self::contains) by contrast stalls on the
    /// load).
    ///
    /// Resolve with [`probe_finish`](Self::probe_finish), which reads the
    /// home slot. The probe is only meaningful against an unmodified
    /// table: an insertion between start and finish may grow it and move
    /// the key's home slot.
    #[inline]
    #[must_use]
    pub fn probe_start(&self, key: Perm) -> Probe {
        self.probe_start_raw(key.packed())
    }

    #[inline]
    fn probe_start_raw(&self, key: u64) -> Probe {
        let slot = self.home_slot(key);
        prefetch_read(&self.keys[slot]);
        Probe { key, slot }
    }

    /// Resolves a probe started by [`probe_start`](Self::probe_start):
    /// whether the key is present. Walks the probe sequence from the home
    /// slot, whose cache line the prefetch has been loading since the
    /// probe started.
    #[inline]
    #[must_use]
    pub fn probe_finish(&self, probe: Probe) -> bool {
        let mut i = probe.slot;
        loop {
            let slot = self.keys[i];
            if slot == probe.key {
                return true;
            }
            if slot == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// The value stored for `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: Perm) -> Option<u8> {
        let key = key.packed();
        let mut i = self.home_slot(key);
        loop {
            let slot = self.keys[i];
            if slot == key {
                return Some(self.values[i]);
            }
            if slot == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Inserts or replaces; returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: Perm, value: u8) -> Option<u8> {
        self.grow_if_needed();
        let key = key.packed();
        let mask = self.mask;
        let mut i = (hash64shift(key) & mask) as usize;
        let keys = self.keys.make_mut();
        let values = self.values.make_mut();
        let mut d = 0u64;
        loop {
            let slot = keys[i];
            if slot == key {
                let old = values[i];
                values[i] = value;
                return Some(old);
            }
            if slot == EMPTY {
                keys[i] = key;
                values[i] = value;
                self.len += 1;
                self.record_displacement(d);
                return None;
            }
            i = (i + 1) & mask as usize;
            d += 1;
        }
    }

    /// Inserts only if the key is absent; returns `true` when inserted.
    /// This is the BFS's "new canonical representative?" test-and-set.
    #[inline]
    pub fn insert_if_absent(&mut self, key: Perm, value: u8) -> bool {
        self.grow_if_needed();
        let key = key.packed();
        let mask = self.mask;
        let mut i = (hash64shift(key) & mask) as usize;
        let keys = self.keys.make_mut();
        let values = self.values.make_mut();
        let mut d = 0u64;
        loop {
            let slot = keys[i];
            if slot == key {
                return false;
            }
            if slot == EMPTY {
                keys[i] = key;
                values[i] = value;
                self.len += 1;
                self.record_displacement(d);
                return true;
            }
            i = (i + 1) & mask as usize;
            d += 1;
        }
    }

    fn grow_if_needed(&mut self) {
        if (self.len + 1) * MAX_LOAD_DEN > self.capacity() * MAX_LOAD_NUM {
            self.grow();
        }
    }

    /// Ring depth for the rehashing wavefront: every relocated key's home
    /// slot in the new arrays is prefetched ([`FnTable::probe_start`])
    /// this many insertions ahead of the serial walk that places it, so a
    /// growth pass keeps several of the new arrays' cache lines in flight
    /// instead of stalling on one dependent miss per key.
    const GROW_WAVEFRONT: usize = 8;

    fn grow(&mut self) {
        let new_cap = self.capacity() * 2;
        let old_keys = std::mem::replace(&mut self.keys, RawStore::Owned(vec![EMPTY; new_cap]));
        let old_values = std::mem::replace(&mut self.values, RawStore::Owned(vec![0; new_cap]));
        self.mask = (new_cap - 1) as u64;
        self.len = 0;
        let mut ring: ProbeRing<u8> = ProbeRing::new(Self::GROW_WAVEFRONT);
        for (&key, &value) in old_keys.iter().zip(old_values.iter()) {
            if key == EMPTY {
                continue;
            }
            if let Some((probe, v)) = ring.push(self.probe_start_raw(key), value) {
                self.insert_relocated(probe, v);
            }
        }
        while let Some((probe, v)) = ring.pop() {
            self.insert_relocated(probe, v);
        }
    }

    /// Resolves one relocated key from the growth wavefront: walks from
    /// the probed home slot (whose cache line the probe's prefetch pulled
    /// in) to the first empty slot and places the key there. Keys are
    /// distinct during a rehash, so the first empty slot is always the
    /// correct destination.
    fn insert_relocated(&mut self, probe: Probe, value: u8) {
        let mask = self.mask;
        let mut i = probe.slot;
        let mut d = 0u64;
        let keys = self.keys.make_mut();
        let values = self.values.make_mut();
        while keys[i] != EMPTY {
            i = (i + 1) & mask as usize;
            d += 1;
        }
        keys[i] = probe.key;
        values[i] = value;
        self.len += 1;
        self.record_displacement(d);
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Perm, u8)> + '_ {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (Perm::from_packed_unchecked(k), v))
    }

    /// Probe and cluster statistics in the shape of the paper's Table 2.
    ///
    /// This scans the whole table; intended for reporting, not hot paths.
    #[must_use]
    pub fn stats(&self) -> TableStats {
        let cap = self.capacity();
        // Displacement: distance from each occupied slot to its home slot.
        let mut total_displacement = 0u64;
        let mut max_displacement = 0u64;
        for (i, &key) in self.keys.iter().enumerate() {
            if key == EMPTY {
                continue;
            }
            let home = self.home_slot(key);
            let d = (i + cap - home) as u64 & self.mask;
            total_displacement += d;
            max_displacement = max_displacement.max(d);
        }
        // Clusters: maximal runs of occupied slots (wrapping).
        let mut clusters = 0u64;
        let mut total_cluster_len = 0u64;
        let mut max_cluster_len = 0u64;
        let mut run = 0u64;
        // Find a starting empty slot to unwrap the circular scan; a full
        // table (load factor 1) is impossible because growth triggers at 7/8.
        let start = self
            .keys
            .iter()
            .position(|&k| k == EMPTY)
            .expect("table below maximum load always has an empty slot");
        for offset in 0..cap {
            let i = (start + 1 + offset) & self.mask as usize;
            if self.keys[i] != EMPTY {
                run += 1;
            } else if run > 0 {
                clusters += 1;
                total_cluster_len += run;
                max_cluster_len = max_cluster_len.max(run);
                run = 0;
            }
        }
        if run > 0 {
            clusters += 1;
            total_cluster_len += run;
            max_cluster_len = max_cluster_len.max(run);
        }
        TableStats {
            entries: self.len as u64,
            capacity: cap as u64,
            memory_bytes: self.memory_bytes() as u64,
            displaced_inserts: self.displaced_inserts,
            insert_displacement_total: self.insert_displacement_total,
            load_factor: self.load_factor(),
            avg_displacement: if self.len == 0 {
                0.0
            } else {
                total_displacement as f64 / self.len as f64
            },
            max_displacement,
            clusters,
            avg_cluster_len: if clusters == 0 {
                0.0
            } else {
                total_cluster_len as f64 / clusters as f64
            },
            max_cluster_len,
        }
    }
}

/// An in-flight membership probe: the packed key and its home slot,
/// whose cache line is being prefetched. Created by
/// [`FnTable::probe_start`], consumed by [`FnTable::probe_finish`].
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    key: u64,
    slot: usize,
}

impl fmt::Debug for FnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FnTable({} entries, 2^{} slots, load {:.2})",
            self.len,
            self.capacity().trailing_zeros(),
            self.load_factor()
        )
    }
}

impl Default for FnTable {
    /// A small empty table (grows on demand).
    fn default() -> Self {
        FnTable::with_capacity_bits(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm_of(i: u64) -> Perm {
        // Derive a valid permutation from an integer by composing wire
        // swaps and rotations of the identity — enough variety for tests.
        let mut vals: Vec<u8> = (0..16).collect();
        let mut x = i;
        for j in (1..16).rev() {
            vals.swap(j, (x % (j as u64 + 1)) as usize);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >>= 8;
            if x == 0 {
                x = i.wrapping_add(j as u64);
            }
        }
        Perm::from_values(&vals).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = FnTable::for_entries(1000);
        for i in 0..1000u64 {
            t.insert(perm_of(i), (i % 251) as u8);
        }
        for i in 0..1000u64 {
            assert_eq!(t.get(perm_of(i)), Some((i % 251) as u8), "key {i}");
            assert!(t.contains(perm_of(i)));
        }
        assert!(!t.contains(perm_of(5000)) || perm_of(5000) == perm_of(999));
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = FnTable::default();
        let p = Perm::identity();
        assert_eq!(t.insert(p, 1), None);
        assert_eq!(t.insert(p, 2), Some(1));
        assert_eq!(t.get(p), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_if_absent_keeps_first() {
        let mut t = FnTable::default();
        let p = Perm::identity();
        assert!(t.insert_if_absent(p, 1));
        assert!(!t.insert_if_absent(p, 2));
        assert_eq!(t.get(p), Some(1));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = FnTable::with_capacity_bits(3); // 8 slots
        let count = 500u64;
        let mut distinct = std::collections::HashSet::new();
        for i in 0..count {
            let p = perm_of(i);
            distinct.insert(p);
            t.insert(p, (i & 0xFF) as u8);
        }
        assert_eq!(t.len(), distinct.len());
        assert!(t.capacity() >= distinct.len());
        for i in 0..count {
            assert!(t.contains(perm_of(i)));
        }
    }

    #[test]
    fn model_check_against_std_hashmap() {
        let mut t = FnTable::with_capacity_bits(4);
        let mut model = std::collections::HashMap::new();
        let mut state = 0x12345678u64;
        for step in 0..5000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = perm_of(state % 700);
            let value = (state >> 32) as u8;
            match state % 3 {
                0 => {
                    assert_eq!(
                        t.insert(key, value),
                        model.insert(key, value),
                        "step {step}"
                    );
                }
                1 => {
                    let inserted = t.insert_if_absent(key, value);
                    let model_inserted = match model.entry(key) {
                        std::collections::hash_map::Entry::Occupied(_) => false,
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(value);
                            true
                        }
                    };
                    assert_eq!(inserted, model_inserted, "step {step}");
                }
                _ => {
                    assert_eq!(t.get(key), model.get(&key).copied(), "step {step}");
                    assert_eq!(t.contains(key), model.contains_key(&key), "step {step}");
                }
            }
            assert_eq!(t.len(), model.len(), "step {step}");
        }
        // Final sweep.
        for (k, v) in &model {
            assert_eq!(t.get(*k), Some(*v));
        }
        let from_iter: std::collections::HashMap<Perm, u8> = t.iter().collect();
        assert_eq!(from_iter, model);
    }

    #[test]
    fn probe_pipeline_agrees_with_contains() {
        let mut t = FnTable::with_capacity_bits(8); // dense: load ~0.78 forces clusters
        for i in 0..180u64 {
            t.insert(perm_of(i), 0);
        }
        // Pipeline of depth 2 over a mix of present and absent keys.
        let keys: Vec<Perm> = (0..400u64).map(perm_of).collect();
        let mut pending = None;
        let mut resolved = Vec::new();
        for &k in &keys {
            let probe = t.probe_start(k);
            if let Some(p) = pending.replace(probe) {
                resolved.push(t.probe_finish(p));
            }
        }
        if let Some(p) = pending {
            resolved.push(t.probe_finish(p));
        }
        let expected: Vec<bool> = keys.iter().map(|&k| t.contains(k)).collect();
        assert_eq!(resolved, expected);
    }

    #[test]
    fn capacity_bits_do_not_overflow_for_huge_tables() {
        // The paper's k = 9 regime: ~2.45 G entries. The naive
        // `expected * 12` would overflow a 32-bit usize and is within a
        // factor 2 of overflowing 64-bit for absurd inputs; the 128-bit
        // computation must stay exact everywhere.
        if usize::BITS >= 64 {
            let paper_k9: usize = 2_458_109_431;
            // 2³² slots — exactly the paper's Table 2 configuration for k = 9.
            assert_eq!(FnTable::capacity_bits_for(paper_k9), 32);
        }
        // On every pointer width, the top of the usize range must compute
        // exactly rather than wrap: ⌈(2^B − 1) · 12/7⌉ needs B + 1 bits.
        assert_eq!(FnTable::capacity_bits_for(usize::MAX), usize::BITS + 1);
        assert_eq!(FnTable::capacity_bits_for(usize::MAX / 2), usize::BITS);
        assert_eq!(FnTable::capacity_bits_for(0), 3);
        assert_eq!(FnTable::capacity_bits_for(4), 3);
        // Monotone in `expected`.
        let mut last = 0;
        for shift in 0..usize::BITS - 1 {
            let bits = FnTable::capacity_bits_for(1usize << shift);
            assert!(bits >= last, "2^{shift}");
            last = bits;
        }
    }

    // On 32-bit targets no `usize` entry count can exceed the 2^40-slot
    // guard, so the panic path is only reachable with 64-bit pointers.
    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "unreasonable table size")]
    fn for_entries_rejects_absurd_sizes_instead_of_wrapping() {
        // Before the 128-bit fix this wrapped (silently building a tiny
        // table); now an absurd request must hit the explicit capacity
        // guard (2^62 entries need far more than 2^40 slots).
        let _ = FnTable::for_entries(usize::MAX >> 2);
    }

    #[test]
    fn displacement_counters_track_inserts() {
        let mut t = FnTable::with_capacity_bits(4); // 16 slots, grows under load
        assert_eq!(t.stats().displaced_inserts, 0);
        for i in 0..200u64 {
            t.insert(perm_of(i), 0);
        }
        let s = t.stats();
        // Dense inserts through several growths must have displaced some
        // keys, and every displaced insert walked at least one slot.
        assert!(s.displaced_inserts > 0);
        assert!(s.insert_displacement_total >= s.displaced_inserts);
        // Replacing existing keys does not move them.
        let before = t.stats().displaced_inserts;
        let total_before = t.stats().insert_displacement_total;
        for i in 0..200u64 {
            t.insert(perm_of(i), 1);
        }
        assert_eq!(t.stats().displaced_inserts, before);
        assert_eq!(t.stats().insert_displacement_total, total_before);
    }

    #[test]
    fn growth_wavefront_preserves_content_exactly() {
        // Force many growths from a tiny table and verify against a model.
        let mut t = FnTable::with_capacity_bits(3);
        let mut model = std::collections::HashMap::new();
        for i in 0..2000u64 {
            let p = perm_of(i);
            let v = (i % 251) as u8;
            t.insert(p, v);
            model.insert(p, v);
        }
        assert_eq!(t.len(), model.len());
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn stats_are_sane() {
        let mut t = FnTable::with_capacity_bits(10);
        for i in 0..512u64 {
            t.insert(perm_of(i), 0);
        }
        let s = t.stats();
        assert_eq!(s.entries, t.len() as u64);
        assert_eq!(s.capacity, 1024);
        assert!(s.load_factor > 0.3 && s.load_factor < 0.6);
        assert!(s.avg_cluster_len >= 1.0);
        assert!(s.max_cluster_len >= s.avg_cluster_len as u64);
        assert!(s.max_displacement >= s.avg_displacement as u64);
        assert_eq!(s.memory_bytes, 1024 * 9);
    }

    #[test]
    fn empty_table_stats() {
        let t = FnTable::default();
        let s = t.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.clusters, 0);
        assert_eq!(s.avg_cluster_len, 0.0);
    }

    #[test]
    #[should_panic(expected = "unreasonable table size")]
    fn rejects_oversized_tables() {
        let _ = FnTable::with_capacity_bits(63);
    }

    #[test]
    fn mapped_table_reads_and_thaws_like_owned() {
        use revsynth_mmap::{ArcSlice, Region};
        use std::io::Write;

        let mut owned = FnTable::with_capacity_bits(8);
        for i in 0..120u64 {
            owned.insert(perm_of(i), (i % 97) as u8);
        }
        let (keys, values) = owned.slot_arrays();
        let path = std::env::temp_dir().join(format!("revsynth-fntable-{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&path).unwrap();
            for &k in keys {
                f.write_all(&k.to_le_bytes()).unwrap();
            }
            f.write_all(values).unwrap();
        }
        let mut f = std::fs::File::open(&path).unwrap();
        let region = std::sync::Arc::new(Region::map_file(&mut f).unwrap());
        let mapped_keys = ArcSlice::<u64>::new(std::sync::Arc::clone(&region), 0, keys.len());
        let mapped_values = ArcSlice::<u8>::new(region, keys.len() * 8, values.len());
        #[cfg(target_endian = "little")]
        {
            let witness = owned.first_empty_slot();
            let mut t = FnTable::from_mapped(
                mapped_keys.unwrap(),
                mapped_values.unwrap(),
                owned.len(),
                witness,
            )
            .unwrap();
            assert!(t.is_mapped());
            assert_eq!(t.len(), owned.len());
            for i in 0..200u64 {
                assert_eq!(t.get(perm_of(i)), owned.get(perm_of(i)), "key {i}");
                assert_eq!(t.contains(perm_of(i)), owned.contains(perm_of(i)));
            }
            // Mutation thaws to owned storage and keeps behaving.
            let fresh = perm_of(5_000_000);
            t.insert(fresh, 42);
            assert!(!t.is_mapped());
            assert_eq!(t.get(fresh), Some(42));
            assert_eq!(t.len(), owned.len() + usize::from(!owned.contains(fresh)));
        }
        // A bogus witness (occupied slot) must be rejected up front.
        let occupied = keys.iter().position(|&k| k != u64::MAX).unwrap();
        let mut f2 = std::fs::File::open(&path).unwrap();
        let region2 = std::sync::Arc::new(Region::map_file(&mut f2).unwrap());
        let mk = ArcSlice::<u64>::new(std::sync::Arc::clone(&region2), 0, keys.len()).unwrap();
        let mv = ArcSlice::<u8>::new(region2, keys.len() * 8, values.len()).unwrap();
        assert!(FnTable::from_mapped(mk.clone(), mv.clone(), owned.len(), occupied).is_err());
        assert!(FnTable::from_mapped(mk, mv, keys.len(), 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
