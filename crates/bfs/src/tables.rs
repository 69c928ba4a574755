//! The product of the breadth-first search: hash table + per-size lists.

use std::fmt;
use std::path::Path;

use revsynth_canon::Symmetries;
use revsynth_circuit::{CostModel, GateLib};
use revsynth_mmap::ArcSlice;
use revsynth_perm::Perm;
use revsynth_table::{FnTable, InvariantIndex, TableStats};

use crate::counts::LevelCount;
use crate::info::{decode_stored, CorruptRecord, StoredGate};
use crate::shard::GenOptions;
use crate::store::{CheckpointWriter, StoreError, StoreInfo};

/// Known reduced (per-class) counts for the 4-wire NCT library, paper
/// Table 4 — used to pre-size the hash table. Indices are sizes 0..=9.
pub(crate) const N4_REDUCED_COUNTS: [u64; 10] = [
    1,
    4,
    33,
    425,
    6_538,
    101_983,
    1_482_686,
    19_466_575,
    225_242_556,
    2_208_511_226,
];

/// The per-size (or per-cost-bucket) lists of sorted canonical
/// representatives — the paper's reduced lists `A_i`.
///
/// Generation and extension paths own the lists as `Vec<Vec<Perm>>`; a
/// v5 store load borrows each level zero-copy from the file mapping
/// instead. Reads are uniform across both representations ([`Levels::iter`],
/// indexing); mutation goes through the crate-private `make_owned`, which
/// copies a mapped representation into owned vectors exactly once.
pub struct Levels(LevelsRepr);

enum LevelsRepr {
    Owned(Vec<Vec<Perm>>),
    Mapped(Vec<ArcSlice<Perm>>),
}

impl Levels {
    pub(crate) fn from_owned(levels: Vec<Vec<Perm>>) -> Self {
        Levels(LevelsRepr::Owned(levels))
    }

    pub(crate) fn from_mapped(levels: Vec<ArcSlice<Perm>>) -> Self {
        Levels(LevelsRepr::Mapped(levels))
    }

    /// Number of levels (cost buckets).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            LevelsRepr::Owned(v) => v.len(),
            LevelsRepr::Mapped(v) => v.len(),
        }
    }

    /// Whether there are no levels at all (never true for valid tables —
    /// level 0 holds the identity).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total representative count across all levels.
    #[must_use]
    pub fn total(&self) -> usize {
        self.iter().map(<[Perm]>::len).sum()
    }

    /// Iterates over the levels as sorted slices.
    pub fn iter(&self) -> LevelsIter<'_> {
        LevelsIter { levels: self, i: 0 }
    }

    /// Whether the levels still borrow from a store mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, LevelsRepr::Mapped(_))
    }

    /// Promotes to owned storage (copying mapped levels once) and returns
    /// the mutable level vectors for the extension paths.
    pub(crate) fn make_owned(&mut self) -> &mut Vec<Vec<Perm>> {
        if let LevelsRepr::Mapped(slices) = &self.0 {
            let owned = slices.iter().map(|s| s.to_vec()).collect();
            self.0 = LevelsRepr::Owned(owned);
        }
        match &mut self.0 {
            LevelsRepr::Owned(v) => v,
            LevelsRepr::Mapped(_) => unreachable!("promoted to owned above"),
        }
    }
}

impl std::ops::Index<usize> for Levels {
    type Output = [Perm];

    fn index(&self, i: usize) -> &[Perm] {
        match &self.0 {
            LevelsRepr::Owned(v) => &v[i],
            LevelsRepr::Mapped(v) => &v[i],
        }
    }
}

/// Iterator over [`Levels`], yielding each level as a sorted slice.
pub struct LevelsIter<'a> {
    levels: &'a Levels,
    i: usize,
}

impl<'a> Iterator for LevelsIter<'a> {
    type Item = &'a [Perm];

    fn next(&mut self) -> Option<&'a [Perm]> {
        if self.i < self.levels.len() {
            self.i += 1;
            Some(&self.levels[self.i - 1])
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.levels.len() - self.i;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for LevelsIter<'_> {}

impl<'a> IntoIterator for &'a Levels {
    type Item = &'a [Perm];
    type IntoIter = LevelsIter<'a>;

    fn into_iter(self) -> LevelsIter<'a> {
        self.iter()
    }
}

/// Content equality, regardless of owned/mapped representation.
impl PartialEq for Levels {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for Levels {}

impl fmt::Debug for Levels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Levels({} levels, {} reps, {})",
            self.len(),
            self.total(),
            if self.is_mapped() { "mapped" } else { "owned" }
        )
    }
}

/// The precomputed optimal-circuit data for all functions of size ≤ k
/// (paper Algorithm 2's output: hash table `H` and lists `A_i`).
///
/// Build with [`SearchTables::generate`] (serial) or
/// [`SearchTables::generate_parallel`], persist with
/// [`save`](SearchTables::save)/[`load`](SearchTables::load) (the paper
/// computes once and re-loads in later runs).
pub struct SearchTables {
    pub(crate) lib: GateLib,
    pub(crate) sym: Symmetries,
    pub(crate) k: usize,
    pub(crate) table: FnTable,
    /// `levels[i]` = sorted canonical representatives of cost bucket `i`
    /// (for the breadth-first paths, bucket `i` = size exactly `i`).
    pub(crate) levels: Levels,
    /// Class-invariant gate index: combined invariant → bucket bitmask.
    pub(crate) invariants: InvariantIndex,
    /// The additive cost model the buckets were built under (unit for the
    /// breadth-first paths: cost = gate count).
    pub(crate) model: CostModel,
    /// `bucket_costs[i]` = the optimal cost shared by every member of
    /// `levels[i]`; strictly ascending from 0, equal to `0..=k` for the
    /// breadth-first (gate-count) paths.
    pub(crate) bucket_costs: Vec<u64>,
    /// The store format version these tables were loaded from (3, 4
    /// or 5), or `None` when generated in this process. Used to surface
    /// "a faster format exists — run `tables upgrade`" hints.
    pub(crate) source_format: Option<u8>,
}

impl SearchTables {
    /// Finalizes a gate-count table build: derives the [`InvariantIndex`]
    /// from the level lists (every representative's combined class
    /// invariant, tagged with its optimal size) and stamps the unit cost
    /// metadata (`bucket_costs[i] = i`). All gate-count construction
    /// paths — serial BFS, parallel BFS and store loading — go through
    /// here so the gate index can never be out of sync with the tables.
    pub(crate) fn assemble(
        lib: GateLib,
        sym: Symmetries,
        k: usize,
        table: FnTable,
        levels: Vec<Vec<Perm>>,
    ) -> Self {
        let levels = Levels::from_owned(levels);
        let invariants = crate::weighted::bucket_invariants(&levels);
        let bucket_costs: Vec<u64> = (0..levels.len() as u64).collect();
        SearchTables {
            lib,
            sym,
            k,
            table,
            levels,
            invariants,
            model: CostModel::unit(),
            bucket_costs,
            source_format: None,
        }
    }

    /// Finalizes a weighted (cost-bucketed) build: same invariant-index
    /// derivation, but levels are cost buckets labeled by
    /// `bucket_costs` (strictly ascending from 0, one entry per level).
    pub(crate) fn assemble_weighted(
        lib: GateLib,
        sym: Symmetries,
        model: CostModel,
        table: FnTable,
        levels: Vec<Vec<Perm>>,
        bucket_costs: Vec<u64>,
    ) -> Self {
        assert_eq!(levels.len(), bucket_costs.len(), "one cost per bucket");
        assert!(
            bucket_costs.first() == Some(&0) && bucket_costs.windows(2).all(|w| w[0] < w[1]),
            "bucket costs must ascend strictly from 0"
        );
        let levels = Levels::from_owned(levels);
        let invariants = crate::weighted::bucket_invariants(&levels);
        let k = levels.len().saturating_sub(1);
        SearchTables {
            lib,
            sym,
            k,
            table,
            levels,
            invariants,
            model,
            bucket_costs,
            source_format: None,
        }
    }
    /// Runs the breadth-first search over the full NCT library on `n`
    /// wires, up to size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 2, 3 or 4, or if `k > 16`.
    #[must_use]
    pub fn generate(n: usize, k: usize) -> Self {
        Self::generate_with(GateLib::nct(n), k)
    }

    /// Runs the breadth-first search over a custom gate library.
    ///
    /// For libraries **closed under wire relabeling**
    /// ([`GateLib::is_relabeling_closed`]) the computed sizes and circuits
    /// are exact optima. For non-closed libraries (e.g.
    /// [`GateLib::nearest_neighbor`]) the ×48 class reduction conflates
    /// relabeled variants, so results are optimal *up to simultaneous
    /// input/output relabeling* (the regime the paper's §5 calls trivial
    /// for restricted architectures), and reconstructed circuits may use
    /// gates from the library's [`relabeling closure`]
    /// (GateLib::relabeling_closure).
    ///
    /// # Panics
    ///
    /// Panics if `k > 16` (no 4-bit function needs anywhere near 16 gates;
    /// larger k is certainly a bug).
    #[must_use]
    pub fn generate_with(lib: GateLib, k: usize) -> Self {
        crate::generate::run(lib, k)
    }

    /// Parallel variant of [`generate_with`](Self::generate_with) using
    /// `threads` worker threads (std scoped threads; the result is
    /// identical up to which of several equally-minimal boundary gates is
    /// recorded).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `k > 16`.
    #[must_use]
    pub fn generate_parallel(lib: GateLib, k: usize, threads: usize) -> Self {
        crate::parallel::run(lib, k, threads)
    }

    /// Runs the **weighted** uniform-cost search (paper §5's "increasing
    /// cost by one"), settling every equivalence class of optimal cost
    /// ≤ `budget` under `model` into cost-bucketed levels (see the
    /// `weighted` module). With [`CostModel::unit`] the buckets coincide
    /// with the breadth-first levels.
    ///
    /// # Panics
    ///
    /// Panics if `budget > 200` or the model produces more than 32
    /// distinct cost values (the invariant-index mask width).
    #[must_use]
    pub fn generate_weighted(lib: GateLib, model: CostModel, budget: u64) -> Self {
        crate::weighted::run(lib, model, budget)
    }

    /// Gate-count generation with explicit construction knobs
    /// ([`GenOptions`]: worker threads, candidate shards, memory budget).
    /// The result is **byte-identical** for every knob setting — the
    /// sharded expander routes candidates by canonical key, so the
    /// first-discovered boundary gate wins regardless of spill timing.
    ///
    /// # Panics
    ///
    /// Panics if `k > 16`.
    #[must_use]
    pub fn generate_opts(lib: GateLib, k: usize, opts: &GenOptions) -> Self {
        crate::generate::run_opts(lib, k, opts)
    }

    /// Generates from scratch while **streaming every completed level**
    /// (cost bucket) to a format-v4 store at `path`: each level is
    /// written, fsynced, and published via the store trailer before the
    /// next one starts, so an interrupt at any instant leaves a loadable
    /// store missing only the in-flight level. With a unit `model` this
    /// is the breadth-first search to size `budget`; otherwise the
    /// weighted uniform-cost search to cost `budget` (which is serial —
    /// the [`GenOptions`] knobs tune only the unit-model expander).
    ///
    /// The finished file is byte-identical to [`save`](Self::save) of
    /// the same tables — and to any interrupted-then-
    /// [resumed](Self::resume_checkpointed) run.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on any I/O failure (the checkpoint file is
    /// left in its last published state).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range budgets (unit: `budget > 16`; weighted:
    /// `budget > 200` or more than 32 distinct cost values).
    pub fn generate_checkpointed<P: AsRef<Path>>(
        lib: GateLib,
        model: CostModel,
        budget: u64,
        opts: &GenOptions,
        path: P,
    ) -> Result<Self, StoreError> {
        if model == CostModel::unit() {
            let k = usize::try_from(budget).expect("unit budget is a level count");
            crate::generate::run_checkpointed(lib, k, opts, path.as_ref())
        } else {
            crate::weighted::run_checkpointed(lib, model, budget, path.as_ref())
        }
    }

    /// Resumes an interrupted (or simply shallower) checkpointed
    /// generation: loads the v4 store at `path`, drops any torn
    /// in-flight level, and extends it to `budget` — streaming the new
    /// levels back into the same file. The result (in RAM and on disk)
    /// is byte-identical to an uninterrupted
    /// [`generate_checkpointed`](Self::generate_checkpointed) run with
    /// the same target.
    ///
    /// Unit-model stores resume the breadth-first search from the
    /// deepest completed level; cost-bucketed stores rebuild the
    /// uniform-cost frontier from the settled buckets. A store already
    /// at (or past) `budget` is returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the store is not a loadable v4 store
    /// (only v4 is extendable in place) or on I/O failure while
    /// appending.
    pub fn resume_checkpointed<P: AsRef<Path>>(
        path: P,
        budget: u64,
        opts: &GenOptions,
    ) -> Result<Self, StoreError> {
        let (mut tables, mut ckpt) = CheckpointWriter::resume(path.as_ref(), true)?;
        tables.extend_impl(budget, opts, Some(&mut ckpt))?;
        Ok(tables)
    }

    /// Extends the tables **in place** until every class of optimal cost
    /// ≤ `budget` is stored (for gate-count tables the budget is the
    /// size `k`). A budget at or below [`max_cost`](Self::max_cost) is a
    /// no-op; the invariant index and cost metadata are rebuilt to cover
    /// the new levels (the rebuild walks every stored level, so growing
    /// one level at a time costs more index work than one big
    /// extension). The extension replays exactly what single-shot
    /// generation at the larger budget would have done, so the extended
    /// tables are indistinguishable from freshly generated ones. On
    /// cost-bucketed tables the [`GenOptions`] knobs are ignored (the
    /// weighted search is serial).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range budgets (unit: `budget > 16`; weighted:
    /// `budget > 200` or more than 32 distinct cost values).
    pub fn extend_to(&mut self, budget: u64, opts: &GenOptions) {
        self.extend_impl(budget, opts, None)
            .expect("in-RAM extension performs no I/O");
    }

    /// The shared extension core behind [`extend_to`](Self::extend_to)
    /// and [`resume_checkpointed`](Self::resume_checkpointed).
    fn extend_impl(
        &mut self,
        budget: u64,
        opts: &GenOptions,
        ckpt: Option<&mut CheckpointWriter>,
    ) -> Result<(), StoreError> {
        if budget <= self.max_cost() {
            return Ok(());
        }
        if self.model == CostModel::unit() {
            let k = usize::try_from(budget).expect("unit budget is a level count");
            crate::generate::extend_levels(
                &self.lib,
                &self.sym,
                &mut self.table,
                self.levels.make_owned(),
                k,
                opts,
                ckpt,
            )?;
            self.bucket_costs = (0..self.levels.len() as u64).collect();
        } else {
            crate::weighted::settle(
                &self.lib,
                &self.model,
                &self.sym,
                &mut self.table,
                self.levels.make_owned(),
                &mut self.bucket_costs,
                budget,
                ckpt,
            )?;
        }
        self.k = self.levels.len().saturating_sub(1);
        self.invariants = crate::weighted::bucket_invariants(&self.levels);
        Ok(())
    }

    /// The wire count.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.lib.wires()
    }

    /// The depth of the search: representatives of size ≤ k are stored.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// The gate library the search ran over.
    #[must_use]
    pub fn lib(&self) -> &GateLib {
        &self.lib
    }

    /// The symmetry context (shared with callers so they canonicalize with
    /// the same walk).
    #[must_use]
    pub fn sym(&self) -> &Symmetries {
        &self.sym
    }

    /// Whether `rep` (must already be canonical) has size ≤ k.
    #[inline]
    #[must_use]
    pub fn contains(&self, rep: Perm) -> bool {
        self.table.contains(rep)
    }

    /// The stored boundary-gate record for a canonical representative of
    /// size ≤ k, or `None` if the representative is not in the table.
    ///
    /// # Errors
    ///
    /// [`CorruptRecord`] if the stored byte is malformed. A verified store
    /// never holds one; a store loaded through the fast path, whose bulk
    /// section checksums are deferred, can if its file was damaged.
    pub fn lookup(&self, rep: Perm) -> Result<Option<StoredGate>, CorruptRecord> {
        self.table
            .get(rep)
            .map(|byte| decode_stored(byte).ok_or(CorruptRecord { rep, byte }))
            .transpose()
    }

    /// The underlying hash table of canonical representatives, for callers
    /// that pipeline their own probes ([`FnTable::probe_start`] /
    /// [`FnTable::probe_finish`]) instead of going through
    /// [`contains`](Self::contains).
    #[must_use]
    pub fn table(&self) -> &FnTable {
        &self.table
    }

    /// The class-invariant gate index: maps each combined invariant
    /// ([`InvariantIndex::key_of`]) occurring among the stored
    /// representatives to the bitmask of optimal sizes at which it
    /// occurs. The meet-in-the-middle engine uses it to skip candidates
    /// whose invariant proves they cannot be in the table.
    #[must_use]
    pub fn invariants(&self) -> &InvariantIndex {
        &self.invariants
    }

    /// The sorted canonical representatives of size exactly `i`
    /// (the paper's reduced list `A_i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > k`.
    #[must_use]
    pub fn level(&self, i: usize) -> &[Perm] {
        &self.levels[i]
    }

    /// Splits the size-`i` list into at most `shards` contiguous sorted
    /// slices of near-equal length, for fan-out across worker threads
    /// (the level lists are sorted, so each shard covers a disjoint,
    /// ascending key range — a parallel scan that takes the hit from the
    /// lowest shard is deterministic regardless of thread count).
    ///
    /// # Panics
    ///
    /// Panics if `i > k` or `shards == 0`.
    pub fn level_chunks(&self, i: usize, shards: usize) -> std::slice::Chunks<'_, Perm> {
        assert!(shards > 0, "need at least one shard");
        let level = &self.levels[i];
        level.chunks(level.len().div_ceil(shards).max(1))
    }

    /// All levels, `levels()[i]` being the size-`i` representatives
    /// (owned by generation paths, borrowed zero-copy from the file
    /// mapping after a v5 load).
    #[must_use]
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// Total number of stored representatives (all sizes).
    #[must_use]
    pub fn num_representatives(&self) -> usize {
        self.levels.total()
    }

    /// The optimal size of `f`, if it is ≤ k. Accepts any function (not
    /// just canonical representatives).
    #[must_use]
    pub fn size_of(&self, f: Perm) -> Option<usize> {
        let rep = self.sym.canonical(f);
        if !self.table.contains(rep) {
            return None;
        }
        (0..=self.k).find(|&i| self.levels[i].binary_search(&rep).is_ok())
    }

    /// The additive cost model the level buckets were built under
    /// (unit — cost = gate count — for the breadth-first paths).
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Whether the levels are genuine cost buckets rather than plain
    /// gate-count levels — i.e. the tables were built under a non-unit
    /// model. (The bucket *labels* alone cannot tell: quantum costs on
    /// small libraries happen to be contiguous integers, yet bucket 5
    /// holds the 1-gate Toffoli.) The search engine needs no such branch
    /// — one residue rule covers both kinds — but cost-unit callers such
    /// as the peephole optimizer's window bound do.
    #[must_use]
    pub fn is_cost_bucketed(&self) -> bool {
        self.model != CostModel::unit()
    }

    /// The optimal cost labeling bucket `i` (equal to `i` on gate-count
    /// tables).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a bucket index.
    #[must_use]
    pub fn bucket_cost(&self, i: usize) -> u64 {
        self.bucket_costs[i]
    }

    /// All bucket costs, ascending (index-aligned with [`levels`](Self::levels)).
    #[must_use]
    pub fn bucket_costs(&self) -> &[u64] {
        &self.bucket_costs
    }

    /// The largest stored optimal cost (the generation budget actually
    /// reached; `k` on gate-count tables).
    #[must_use]
    pub fn max_cost(&self) -> u64 {
        *self.bucket_costs.last().expect("bucket 0 always exists")
    }

    /// `g(c)`: the costliest library gate of cost ≤ `c` under the table's
    /// model (0 if no gate is that cheap).
    #[must_use]
    pub fn max_gate_cost_within(&self, c: u64) -> u64 {
        self.lib
            .iter()
            .map(|(_, gate, _)| self.model.gate_cost(gate))
            .filter(|&g| g <= c)
            .max()
            .unwrap_or(0)
    }

    /// The guaranteed meet-in-the-middle reach in cost units: the
    /// largest `r` such that any function of optimal cost ≤ `r` has a
    /// split with both halves ≤ `B =` [`max_cost`](Self::max_cost).
    ///
    /// Argument: a cost-`r` optimal circuit contains no gate costlier
    /// than `r`, so with `g(r)` = the costliest library gate of cost
    /// ≤ `r`, taking the maximal prefix of cost ≤ `B` leaves a suffix of
    /// cost < `r − B + g(r)`; both halves fit whenever `r ≤ 2B − g(r) +
    /// 1` (which also forces `g(r) ≤ B` for `r > B`). `r = B` always
    /// qualifies (the fast path), and the condition is monotone, so the
    /// reach is the largest qualifying `r ≤ 2B`. For unit tables this is
    /// the familiar `2k`; for quantum tables with `B ≥ 13` it is
    /// `2B − 12`.
    #[must_use]
    pub fn cost_reach(&self) -> u64 {
        let b = self.max_cost();
        let mut reach = b;
        for r in b..=2 * b {
            if r <= (2 * b).saturating_sub(self.max_gate_cost_within(r)) + 1 {
                reach = r;
            } else {
                break;
            }
        }
        reach
    }

    /// The bucket index of a **canonical** representative, or `None` if
    /// it is not stored.
    #[must_use]
    pub fn bucket_of(&self, rep: Perm) -> Option<usize> {
        if !self.table.contains(rep) {
            return None;
        }
        (0..self.levels.len()).find(|&i| self.levels[i].binary_search(&rep).is_ok())
    }

    /// The optimal cost of `f` under the table's model, if it is within
    /// the stored budget. Accepts any function (not just canonical
    /// representatives).
    #[must_use]
    pub fn cost_of(&self, f: Perm) -> Option<u64> {
        self.bucket_of(self.sym.canonical(f))
            .map(|i| self.bucket_costs[i])
    }

    /// Statistics of the underlying hash table (paper Table 2).
    #[must_use]
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Exact per-size counts: reduced (classes) and full (functions),
    /// the paper's Table 4. Computing full counts enumerates every class
    /// once (≤ 48 conjugations per representative).
    #[must_use]
    pub fn counts(&self) -> Vec<LevelCount> {
        crate::counts::exact_counts(self)
    }

    /// Reduced-only per-size counts (no class-size enumeration; free).
    #[must_use]
    pub fn reduced_counts(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.len() as u64).collect()
    }

    /// The store format version these tables were loaded from (4 or 5),
    /// or `None` when they were generated in this process. Lets
    /// callers suggest `tables upgrade` when a faster format exists.
    #[must_use]
    pub fn source_format(&self) -> Option<u8> {
        self.source_format
    }

    /// A format-independent digest of the logical table contents (wires,
    /// library, cost model, and every level's cost, keys and gate
    /// records). Two stores of the same tables — v4 or v5 — agree on
    /// this digest even though their file bytes differ; CI pins it across
    /// the v4→v5 upgrade.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        crate::store::content_digest(self)
    }

    /// Serializes to `path` in the checkpointable v4 format
    /// (self-describing, per-level FNV-1a checksums; see the `store`
    /// module). The bytes are identical to what a
    /// [checkpointed generation](Self::generate_checkpointed) of the
    /// same tables writes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure (with the path attached).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        crate::store::save(self, path.as_ref())
    }

    /// Serializes to `path` in the mmap-friendly v5 format: page-aligned
    /// contiguous little-endian sections (level keys/values, the hash
    /// table's slot arrays, the invariant index) with per-section FNV-1a
    /// checksums, so a later [`load`](Self::load) borrows everything
    /// zero-copy off the page cache in milliseconds. The bytes are a
    /// deterministic function of the logical tables: saving equal tables
    /// always produces identical files.
    ///
    /// Unlike v4, a v5 file is written in one shot (no mid-generation
    /// checkpointing); checkpointed generation still streams v4 and
    /// upgrades at the end (see [`upgrade`](Self::upgrade)).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure (with the path attached).
    pub fn save_v5<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        crate::store::save_v5(self, path.as_ref())
    }

    /// Upgrades the store at `path` to format v5 **in place**: fully
    /// validates and loads the existing store (any version), writes the
    /// v5 bytes to a sibling temporary file, and atomically renames it
    /// over the original. A crash at any instant leaves either the old
    /// or the new store intact, never a torn file; open mappings of the
    /// old file keep working (the rename unlinks the name, not the
    /// inode). Upgrading an already-v5 store rewrites it canonically
    /// (byte-identical for an untampered file).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the existing store fails validation or
    /// on I/O failure.
    pub fn upgrade<P: AsRef<Path>>(path: P) -> Result<(), StoreError> {
        crate::store::upgrade(path.as_ref())
    }

    /// Loads like [`load`](Self::load) but verifies **everything** up
    /// front: on v5 stores every section checksum plus full structural
    /// checks (sorted valid levels, hash-table membership of every
    /// representative, invariant-index admission), where the fast path
    /// defers bulk checksums to first use. v4 stores are already fully
    /// verified by their loader, so this is the universal
    /// "trust this file" entry point used by `tables verify`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, malformed or corrupted
    /// files, or checksum mismatch.
    pub fn load_validated<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        crate::store::load_validated(path.as_ref())
    }

    /// Loads tables previously written by [`save`](Self::save) or
    /// [`save_v5`](Self::save_v5) (format v4 or v5). v4 stores are
    /// deserialized and the hash table rebuilt (the paper's "load
    /// previously computed optimal circuits into RAM" step, seconds at
    /// k = 7); v5 stores are mapped and borrowed zero-copy (milliseconds
    /// at any size — bulk section checksums are deferred to
    /// [`load_validated`](Self::load_validated) / `tables verify`, while
    /// header, layout and probe-termination witnesses are always checked
    /// eagerly). Check [`source_format`](Self::source_format) to suggest
    /// an upgrade when the slow path was taken.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, malformed or corrupted files,
    /// or checksum mismatch — always naming the offending file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        crate::store::load(path.as_ref())
    }

    /// Summarizes a store file (version, wires, model, per-level costs
    /// and class counts) **without** reading or validating the level
    /// bodies — cheap enough to poll while a checkpointed generation is
    /// appending to the same file, which is how the CI pipeline decides
    /// when to kill a generation mid-level.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure or a malformed
    /// header/trailer.
    pub fn peek<P: AsRef<Path>>(path: P) -> Result<StoreInfo, StoreError> {
        crate::store::peek(path.as_ref())
    }

    /// Pre-sizing hint: expected total representative count for the
    /// standard 4-wire library, or a growth-friendly default otherwise.
    pub(crate) fn estimated_total(lib: &GateLib, k: usize) -> usize {
        if lib.wires() == 4 && lib.len() == 32 {
            N4_REDUCED_COUNTS
                .iter()
                .take(k + 1)
                .sum::<u64>()
                .min(usize::MAX as u64) as usize
        } else {
            1 << 12
        }
    }
}

impl fmt::Debug for SearchTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SearchTables(n={}, k={}, {} classes)",
            self.lib.wires(),
            self.k,
            self.num_representatives()
        )
    }
}
