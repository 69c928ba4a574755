//! The frame-hoisted, parallel, batched meet-in-the-middle search engine.
//!
//! # The frame-hoisting identity
//!
//! The meet-in-the-middle phase must decide, for a query `f` and every
//! stored size-`i` representative `g`, whether **any member** `g'` of the
//! equivalence class of `g` satisfies `size(f.then(g')) ≤ k`. The naive
//! (seed) implementation expanded all `≤ 2·n!` class members of *every*
//! representative — `2·n!` conjugations plus a sort and dedup per
//! representative — before canonicalizing each composition.
//!
//! Conjugation by a wire relabeling is an automorphism and the canonical
//! form is invariant under it, so the class test can be re-associated onto
//! the query instead. Writing `conj_σ(x) = π_σ ∘ x ∘ π_σ⁻¹`:
//!
//! ```text
//! canonical(conj_σ(g) ∘ f)      = canonical(g ∘ conj_{σ⁻¹}(f))
//! canonical(conj_σ(g⁻¹) ∘ f)    = canonical(conj_{σ⁻¹}(f⁻¹) ∘ g)
//! ```
//!
//! (the second line also uses invariance under inversion). The right-hand
//! sides only involve the **frames** of the query — the `n!` conjugates
//! `conj_τ(f)` and `conj_τ(f⁻¹)` — which are computed *once per query*
//! ([`revsynth_canon::Symmetries::frames`], one 14-instruction
//! transposition step each) and deduplicated: a query with wire symmetries
//! has fewer than `n!` distinct frames and the duplicates are skipped
//! entirely. Stored representatives are then iterated **directly**, with
//! per-candidate work reduced to one composition, one canonicalization and
//! one hash probe.
//!
//! # The invariant gate
//!
//! Even with hoisted frames, nearly all of the scan's time goes into
//! fully canonicalizing candidates that end up missing the table. The
//! gate refuses to canonicalize candidates that **provably cannot hit**:
//!
//! * [`Perm::cycle_type_key`] and [`Perm::wire_weight_key`] are constant
//!   on every ×48 equivalence class (conjugation by a wire relabeling
//!   permutes points/bits without changing cycle structure or popcounts;
//!   inversion likewise), so a candidate's combined invariant
//!   ([`revsynth_table::InvariantIndex::key_of`]) equals its canonical
//!   representative's — *without computing the representative*.
//! * The tables index every stored invariant with the bitmask of optimal
//!   sizes at which it occurs ([`revsynth_bfs::SearchTables::invariants`]).
//! * A probe at level `i` can only succeed with residue distance
//!   **exactly `k`**: the fast path already established `size(f) > k`,
//!   and exhausting levels `< i` without a hit establishes
//!   `size(f) ≥ k + i` (the standard meet-in-the-middle minimality
//!   argument), so any composition in the table (distance ≤ k) at level
//!   `i` satisfies `k ≥ distance ≥ size(f) − i ≥ k`. The engine
//!   therefore asks the sharpest sound question — "does any stored
//!   function of size exactly `k` share this invariant?" — and skips the
//!   ~750-instruction canonicalization plus probe when the answer is no.
//!   (This subsumes the conservative `min_distance[invariant] > budget`
//!   test with `budget = k`, the residue budget of every scanned level.)
//!
//! Because the gate only ever skips candidates whose probe must miss,
//! results — circuits, sizes, and the hit chosen — are **bit-identical**
//! with the gate on and off (verified exhaustively for every 3-wire
//! function in `tests/engine_equivalence.rs`). The gate is on by default;
//! [`SearchOptions::filter`] is the escape hatch, and [`SearchStats`]
//! reports its selectivity (candidates gated / canonicalized / probed).
//!
//! On tables that exceed the cache, both stages of the gate are a cache
//! miss — the prefilter word, then the index's home slot — and one
//! candidate at a time they run back to back. The scan therefore gates
//! the ≤ 2·n! candidates of one representative and one query as a batch
//! ([`InvariantIndex::admits_batch`]) in three passes: weight keys with a
//! prefetch of each prefilter word; the prefilter test, with the combined
//! key and a prefetch of its index slot for each survivor; then each
//! survivor's distance mask. The misses of a pass overlap each other and
//! the arithmetic of the next candidates. The batch is then replayed in
//! candidate order through count → gated? → canonicalize → probe, so the
//! scan stops where a one-at-a-time loop would and [`SearchStats`] count
//! the same work; verdicts computed past a hit are speculative and not
//! counted.
//!
//! # The probe wavefront
//!
//! Probes into a table that exceeds the last-level cache are
//! memory-latency-bound (paper §4.1 loads multi-GB tables). The inner
//! loop keeps a W-deep FIFO ring of in-flight probes per query
//! ([`revsynth_table::ProbeRing`], W = 8 by default,
//! [`SearchOptions::probe_depth`]): starting a candidate's probe
//! ([`revsynth_table::FnTable::probe_start`], which issues an explicit
//! prefetch of the home slot and does not read it) evicts and resolves
//! only the ring's *oldest* probe, so up to W memory accesses overlap the
//! computation of subsequent candidates — dependent cache misses become
//! memory-level parallelism, a serial win that needs no second hardware
//! thread. The ring survives across representatives within a shard and
//! drains at shard end; since eviction is strictly FIFO, the first
//! successful resolve is the earliest candidate hit, so the chosen hit is
//! identical for every ring depth.
//!
//! # Parallel level scanning and determinism
//!
//! Each size-`i` list is split into contiguous sorted shards
//! ([`revsynth_bfs::SearchTables::level_chunks`]) scanned by scoped worker
//! threads, mirroring the parallel BFS. The contract of the serial search
//! is preserved exactly:
//!
//! * lists are still exhausted in order `i = 1, 2, …`, so the first level
//!   with a hit is minimal and the returned circuit size is optimal;
//! * within a level, the accepted hit is the one at the smallest
//!   representative (shards cover disjoint ascending ranges, so taking
//!   the earliest shard's first hit is independent of the thread count);
//! * any hit at the minimal `i` yields a valid minimal circuit — the same
//!   contract the parallel BFS relies on.
//!
//! # Batched serving
//!
//! [`Synthesizer::synthesize_many`] / [`Synthesizer::size_many`] run a
//! whole batch of queries through one pass over the level lists: frames
//! are hoisted per query, and every representative loaded from a level is
//! tested against **all** still-open queries while it is hot in cache —
//! the access pattern a traffic-serving deployment needs (the level lists,
//! not the queries, are the multi-GB working set).

use revsynth_bfs::SearchTables;
use revsynth_canon::Symmetries;
use revsynth_circuit::CostKind;
use revsynth_perm::Perm;
use revsynth_table::{InvariantIndex, ProbeRing};

use crate::error::SynthesisError;
use crate::synth::{Synthesis, Synthesizer};

/// Default depth of the probe wavefront (in-flight probes per query).
const DEFAULT_PROBE_DEPTH: usize = 8;

/// Upper bound on the configurable wavefront depth: deeper rings only add
/// drain latency once every outstanding-miss slot of the memory subsystem
/// is occupied.
const MAX_PROBE_DEPTH: usize = 64;

/// Options for the batched/parallel search entry points.
///
/// ```
/// use revsynth_core::SearchOptions;
///
/// let opts = SearchOptions::new().threads(8).limit(12);
/// assert_eq!(opts.limit_or(16), 12);
/// assert!(opts.filter_enabled()); // invariant gate is on by default
/// let opts = opts.filter(false).probe_depth(4);
/// assert!(!opts.filter_enabled());
/// assert_eq!(opts.effective_probe_depth(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchOptions {
    threads: usize,
    limit: Option<usize>,
    /// Inverted so that the zero value (`Default`) keeps the gate on.
    no_filter: bool,
    /// 0 = use [`DEFAULT_PROBE_DEPTH`].
    probe_depth: usize,
    /// The cost axis to optimize (defaults to gate count). Consumed by
    /// cost-dispatching entry points ([`crate::SynthesisSuite`], the
    /// serve scheduler); a bare [`Synthesizer`] always optimizes its own
    /// tables' model.
    cost: CostKind,
}

impl SearchOptions {
    /// Default options: single-threaded, search up to the tables' full
    /// `2k` reach, invariant gate on, wavefront depth 8.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads for the level scans; `0` (the default)
    /// selects the machine's available parallelism
    /// ([`effective_threads`](Self::effective_threads)). Applies to the
    /// gate-count engine; the cost-bounded scan on cost-bucketed tables
    /// is serial regardless (its branch-and-bound cap is sequential).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Bounds the search to circuits of at most `limit` gates (like
    /// [`Synthesizer::synthesize_within`]).
    #[must_use]
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Enables or disables the invariant candidate gate (see the module
    /// docs). On by default; disabling is an escape hatch for A/B
    /// measurement — results are bit-identical either way, only the work
    /// performed changes.
    #[must_use]
    pub fn filter(mut self, enabled: bool) -> Self {
        self.no_filter = !enabled;
        self
    }

    /// Whether the invariant gate is enabled.
    #[must_use]
    pub fn filter_enabled(&self) -> bool {
        !self.no_filter
    }

    /// Sets the probe-wavefront depth: how many table probes are kept in
    /// flight per query while later candidates are canonicalized. `0`
    /// (the default) selects depth 8; values are clamped to `1..=64`.
    /// The chosen hit is identical for every depth.
    #[must_use]
    pub fn probe_depth(mut self, depth: usize) -> Self {
        self.probe_depth = depth;
        self
    }

    /// The wavefront depth to use (default applied, clamped).
    #[must_use]
    pub fn effective_probe_depth(&self) -> usize {
        if self.probe_depth == 0 {
            DEFAULT_PROBE_DEPTH
        } else {
            self.probe_depth.min(MAX_PROBE_DEPTH)
        }
    }

    /// Selects the cost axis batches run under when dispatched through a
    /// cost-aware entry point ([`crate::SynthesisSuite::synthesize_many`],
    /// the serve scheduler). Defaults to [`CostKind::Gates`]. A bare
    /// [`Synthesizer`] ignores this: it always optimizes the model its
    /// tables were built under.
    #[must_use]
    pub fn cost_model(mut self, kind: CostKind) -> Self {
        self.cost = kind;
        self
    }

    /// The configured cost axis.
    #[must_use]
    pub fn cost_kind(&self) -> CostKind {
        self.cost
    }

    /// The configured limit, or `default` when unset.
    #[must_use]
    pub fn limit_or(&self, default: usize) -> usize {
        self.limit.unwrap_or(default)
    }

    /// The worker-thread count to use: the configured value, or the
    /// machine's available parallelism when the count is 0.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// Per-query accounting of the meet-in-the-middle candidate pipeline.
///
/// `considered = gated + canonicalized`; `probed ≤ canonicalized` (probes
/// started after a query's accepted hit are discarded unresolved). The
/// gate's selectivity is `gated / considered`. Counts reflect the work
/// *actually performed* and are deterministic for a fixed thread count,
/// gate setting and wavefront depth; the returned circuits and sizes are
/// identical across all of those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidate compositions enumerated.
    pub considered: u64,
    /// Candidates rejected by the invariant gate — no canonicalization,
    /// no probe.
    pub gated: u64,
    /// Candidates that survived the gate and were canonicalized (each
    /// also starts a table probe).
    pub canonicalized: u64,
    /// Probes actually resolved.
    pub probed: u64,
}

impl SearchStats {
    /// Fraction of considered candidates the gate rejected (0 when
    /// nothing was considered).
    #[must_use]
    pub fn gate_selectivity(&self) -> f64 {
        if self.considered == 0 {
            0.0
        } else {
            self.gated as f64 / self.considered as f64
        }
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.considered += other.considered;
        self.gated += other.gated;
        self.canonicalized += other.canonicalized;
        self.probed += other.probed;
    }
}

/// Which side of the frame identity a hit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// `canonical(conj_τ(f) .then rep)` — member `conj_{τ⁻¹}(rep)`.
    Fwd,
    /// `canonical(rep .then conj_τ(f⁻¹))` — member `conj_{τ⁻¹}(rep⁻¹)`.
    Inv,
}

/// A query with its deduplicated frames hoisted out of the level scans.
pub(crate) struct PreparedQuery {
    /// Distinct conjugates `conj_τ(f)`, sorted; `step` indexes
    /// `Symmetries::relabelings`, smallest step kept per distinct frame.
    fwd: Vec<(Perm, u32)>,
    /// Distinct conjugates `conj_τ(f⁻¹)`, sorted likewise.
    inv: Vec<(Perm, u32)>,
}

/// A meet-in-the-middle hit: `(level, rep, side, step)` identifies the
/// class member that splits the query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hit {
    pub level: usize,
    pub rep: Perm,
    side: Side,
    step: u32,
}

/// A cost-bounded meet-in-the-middle hit on cost-bucketed tables: the
/// query splits as `f = residue ∘ member⁻¹` with the residue in bucket
/// `residue_bucket`, the member's class in bucket `bucket`, and total
/// cost `total` (provably minimal when the scan completes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CostHit {
    pub residue_bucket: usize,
    pub bucket: usize,
    pub total: u64,
    pub rep: Perm,
    side: Side,
    step: u32,
}

/// Result of scanning levels `1..=deepest` for a batch of queries.
pub(crate) struct ScanOutcome {
    /// Per query: the minimal-level hit, if any.
    pub hits: Vec<Option<Hit>>,
    /// Per query: candidate-pipeline accounting.
    pub stats: Vec<SearchStats>,
}

impl Synthesizer {
    /// Hoists and deduplicates the frames of `f` (see the module docs).
    pub(crate) fn prepare_query(&self, f: Perm) -> PreparedQuery {
        let sym = self.tables().sym();
        let mut fwd: Vec<(Perm, u32)> = sym
            .frames(f)
            .map(|(frame, step)| (frame, step as u32))
            .collect();
        fwd.sort_unstable();
        fwd.dedup_by(|a, b| a.0 == b.0); // keeps the smallest step per frame
        let mut inv: Vec<(Perm, u32)> = sym
            .frames(f.inverse())
            .map(|(frame, step)| (frame, step as u32))
            .collect();
        inv.sort_unstable();
        inv.dedup_by(|a, b| a.0 == b.0);
        PreparedQuery { fwd, inv }
    }

    /// Scans the size-`i` lists in increasing `i` for every query at once,
    /// sharding each level across the configured scoped workers. Hits are
    /// identical for every thread count, gate setting and wavefront depth
    /// (see the module docs); the stats reflect the work actually
    /// performed, which grows with the shard count on hit levels.
    pub(crate) fn mitm_scan(
        &self,
        queries: &[PreparedQuery],
        deepest: usize,
        opts: &SearchOptions,
    ) -> ScanOutcome {
        let tables = self.tables();
        let threads = opts.effective_threads();
        let gate = opts.filter_enabled().then(|| tables.invariants());
        let probe_depth = opts.effective_probe_depth();
        let mut hits: Vec<Option<Hit>> = vec![None; queries.len()];
        let mut stats: Vec<SearchStats> = vec![SearchStats::default(); queries.len()];
        let mut open: Vec<usize> = (0..queries.len()).collect();

        for i in 1..=deepest {
            if open.is_empty() {
                break;
            }
            let level = tables.level(i);
            if level.is_empty() {
                // The BFS exhausted the group: all deeper lists are empty.
                break;
            }
            let workers = threads.clamp(1, level.len());
            let shard_results: Vec<ShardResult> = if workers == 1 {
                vec![scan_shard(tables, level, queries, &open, gate, probe_depth)]
            } else {
                std::thread::scope(|scope| {
                    let open = &open;
                    let handles: Vec<_> = tables
                        .level_chunks(i, workers)
                        .map(|shard| {
                            scope.spawn(move || {
                                scan_shard(tables, shard, queries, open, gate, probe_depth)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("level-scan worker must not panic"))
                        .collect()
                })
            };
            // Merge in shard order: shards cover ascending disjoint rep
            // ranges, so the first hit per query is the minimal-rep hit.
            for shard in shard_results {
                for (slot, &q) in open.iter().enumerate() {
                    stats[q].merge(&shard.stats[slot]);
                    if hits[q].is_none() {
                        if let Some((rep, side, step)) = shard.hits[slot] {
                            hits[q] = Some(Hit {
                                level: i,
                                rep,
                                side,
                                step,
                            });
                        }
                    }
                }
            }
            open.retain(|&q| hits[q].is_none());
        }

        ScanOutcome { hits, stats }
    }

    /// Reconstructs the class member a hit identifies and assembles the
    /// minimal circuit `f = (f.then(m)) .then m⁻¹`, certified: both halves
    /// must be stored with the sizes the scan proved (residue `k`, member
    /// the hit's level) and the circuit must compute `f`.
    pub(crate) fn resolve_hit(
        &self,
        f: Perm,
        hit: &Hit,
        stats: SearchStats,
    ) -> Result<Synthesis, SynthesisError> {
        let corrupt = |detail| SynthesisError::CorruptTables {
            function: f,
            detail,
        };
        let (residue, member) = self.split(f, hit.rep, hit.side, hit.step);
        let front = self
            .peel(residue)
            .map_err(corrupt)?
            .ok_or_else(|| corrupt("the residue of a hit is not stored"))?;
        let back = self
            .peel(member.inverse())
            .map_err(corrupt)?
            .ok_or_else(|| corrupt("a stored representative is not stored"))?;
        if front.len() != self.tables().k() || back.len() != hit.level {
            return Err(corrupt("the halves of a hit do not have the proved sizes"));
        }
        let circuit = front.then(&back);
        if circuit.perm(self.wires()) != f {
            return Err(corrupt("the assembled circuit does not compute the query"));
        }
        Ok(Synthesis {
            cost: circuit.len() as u64,
            circuit,
            lists_scanned: hit.level,
            candidates_tested: stats.canonicalized,
            stats,
        })
    }

    /// The split a hit identifies: `(f.then(member), member)` for the
    /// class member `conj_{τ⁻¹}(rep)` or `conj_{τ⁻¹}(rep⁻¹)`.
    fn split(&self, f: Perm, rep: Perm, side: Side, step: u32) -> (Perm, Perm) {
        let tau_inv = self.tables().sym().relabelings()[step as usize].inverse();
        let member = match side {
            Side::Fwd => rep.conjugate_by_wires(tau_inv),
            Side::Inv => rep.inverse().conjugate_by_wires(tau_inv),
        };
        (f.then(member), member)
    }

    /// The **cost-bounded** meet-in-the-middle scan, for cost-bucketed
    /// tables ([`SearchTables::is_cost_bucketed`]): enumerates
    /// half-circuit pairs in nondecreasing combined cost and returns,
    /// per query, the minimal-total-cost hit within `cost_limit`.
    ///
    /// # The generalized residue argument
    ///
    /// Any decomposition `f = residue ∘ member⁻¹` with both halves
    /// stored has total cost `cost(residue) + cost(member)` (inversion
    /// preserves cost), realized as the candidate composition
    /// `conj_τ(f).then(rep)` (or the inverse-side twin) landing in the
    /// residue's **exact cost bucket**. The scan therefore walks member
    /// buckets `ib` in ascending cost and, per candidate, asks the
    /// residual-bucket question the gate-count engine asks for the
    /// single distance `k`: *which residue buckets could still improve
    /// the best total?* That set — `allowed = {rb ≥ 1 : cost[rb] +
    /// cost[ib] ≤ cap}` with `cap = min(limit, best_total − 1)` — is a
    /// bitmask over bucket indices, and the invariant gate
    /// ([`InvariantIndex::admits_any`]) rejects candidates sharing no
    /// class invariant with any allowed bucket **before**
    /// canonicalization, exactly as the exact-`k` gate does. A gated
    /// candidate provably cannot improve the best decomposition, so
    /// results are identical with the gate on and off (verified
    /// exhaustively for 3-wire quantum cost in `tests/cost_oracle.rs`).
    ///
    /// Survivors are canonicalized once and their exact bucket is read
    /// from the sorted bucket lists — the probe is an exact-cost
    /// membership test, so an accepted hit's total is exact, never an
    /// upper bound. Acceptance requires `total ≤ cap < best_total`, so
    /// the final hit is the **first candidate in scan order achieving
    /// the minimal total** — deterministic, independent of the gate
    /// setting. Buckets stop as soon as `cost[ib] + cost[1]` exceeds
    /// the cap (later buckets only cost more).
    ///
    /// Minimality: a cost-`c` circuit for `f` with `c ≤`
    /// [`SearchTables::cost_reach`] splits (maximal prefix argument in
    /// `cost_reach`'s docs) into two stored halves, so its pair is
    /// enumerated; the scan's minimum over all pairs is therefore the
    /// true optimum whenever `f` is within reach.
    pub(crate) fn mitm_scan_cost(
        &self,
        queries: &[PreparedQuery],
        cost_limit: u64,
        opts: &SearchOptions,
    ) -> Vec<(Option<CostHit>, SearchStats)> {
        let tables = self.tables();
        let sym = tables.sym();
        let costs = tables.bucket_costs();
        let gate = opts.filter_enabled().then(|| tables.invariants());
        queries
            .iter()
            .map(|query| {
                let mut best: Option<CostHit> = None;
                let mut stats = SearchStats::default();
                for ib in 1..costs.len() {
                    let cap = best.as_ref().map_or(cost_limit, |b| b.total - 1);
                    if costs[ib] + costs.get(1).copied().unwrap_or(1) > cap {
                        break; // later buckets only cost more
                    }
                    let mut mask = residue_mask(costs, costs[ib], cap);
                    if mask == 0 {
                        continue;
                    }
                    for &rep in tables.level(ib) {
                        let rep_self_inverse = rep.inverse() == rep;
                        for &(frame, step) in &query.fwd {
                            consider_cost_candidate(
                                tables,
                                sym,
                                gate,
                                costs,
                                ib,
                                &mut mask,
                                cost_limit,
                                &mut best,
                                &mut stats,
                                frame.then(rep),
                                rep,
                                Side::Fwd,
                                step,
                            );
                        }
                        if !rep_self_inverse {
                            for &(frame, step) in &query.inv {
                                consider_cost_candidate(
                                    tables,
                                    sym,
                                    gate,
                                    costs,
                                    ib,
                                    &mut mask,
                                    cost_limit,
                                    &mut best,
                                    &mut stats,
                                    rep.then(frame),
                                    rep,
                                    Side::Inv,
                                    step,
                                );
                            }
                        }
                        if mask == 0 {
                            break; // cap shrank below this bucket's reach
                        }
                    }
                }
                (best, stats)
            })
            .collect()
    }

    /// Reconstructs the minimal-cost circuit a [`CostHit`] identifies,
    /// certified like [`resolve_hit`](Self::resolve_hit): the front half
    /// must cost exactly its residue bucket, the whole circuit exactly the
    /// hit's total, and it must compute `f`.
    pub(crate) fn resolve_cost_hit(
        &self,
        f: Perm,
        hit: &CostHit,
        stats: SearchStats,
    ) -> Result<Synthesis, SynthesisError> {
        let corrupt = |detail| SynthesisError::CorruptTables {
            function: f,
            detail,
        };
        let model = self.tables().model();
        let (residue, member) = self.split(f, hit.rep, hit.side, hit.step);
        let front = self
            .peel(residue)
            .map_err(corrupt)?
            .ok_or_else(|| corrupt("the residue of a hit is not stored"))?;
        let back = self
            .peel(member.inverse())
            .map_err(corrupt)?
            .ok_or_else(|| corrupt("a stored representative is not stored"))?;
        let circuit = front.then(&back);
        if front.cost(model) != self.tables().bucket_cost(hit.residue_bucket)
            || circuit.cost(model) != hit.total
        {
            return Err(corrupt("the halves of a hit do not have the proved costs"));
        }
        if circuit.perm(self.wires()) != f {
            return Err(corrupt("the assembled circuit does not compute the query"));
        }
        Ok(Synthesis {
            cost: hit.total,
            circuit,
            lists_scanned: hit.bucket,
            candidates_tested: stats.canonicalized,
            stats,
        })
    }

    /// Synthesizes a whole batch of functions through one frame-hoisted,
    /// optionally multi-threaded pass over the level lists.
    ///
    /// Results are per query and independent: a query that fails (domain
    /// mismatch, size beyond the limit) does not affect the others. For
    /// every query the returned **circuit and its statistics of record**
    /// ([`Synthesis::circuit`], [`Synthesis::lists_scanned`]) are
    /// gate-count minimal and identical to what
    /// [`synthesize_within`](Synthesizer::synthesize_within) returns, for
    /// every thread count. [`Synthesis::candidates_tested`] reports the
    /// work *actually performed*, which grows with sharding: parallel
    /// shards that have not seen the hit keep scanning their own ranges,
    /// so the count is deterministic only for a fixed thread count.
    ///
    /// Frame setup is amortized per query and level scans are amortized
    /// across the whole batch: every representative loaded from a size-`i`
    /// list is tested against all still-open queries while hot in cache.
    pub fn synthesize_many(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
    ) -> Vec<Result<Synthesis, SynthesisError>> {
        let limit = opts.limit_or(self.max_size());
        let k = self.tables().k();

        let mut results: Vec<Option<Result<Synthesis, SynthesisError>>> =
            (0..fs.len()).map(|_| None).collect();
        let mut open_idx: Vec<usize> = Vec::new();
        let mut queries: Vec<PreparedQuery> = Vec::new();
        for (j, &f) in fs.iter().enumerate() {
            if let Err(e) = self.check_domain(f) {
                results[j] = Some(Err(e));
                continue;
            }
            let peeled = match self.peel(f) {
                Ok(peeled) => peeled,
                Err(detail) => {
                    results[j] = Some(Err(SynthesisError::CorruptTables {
                        function: f,
                        detail,
                    }));
                    continue;
                }
            };
            if let Some(circuit) = peeled {
                // On unit tables the model cost is the gate count, so
                // this is the historical `len > limit` check verbatim.
                let cost = circuit.cost(self.tables().model());
                results[j] = Some(if cost > limit as u64 {
                    Err(SynthesisError::SizeExceedsLimit { function: f, limit })
                } else {
                    Ok(Synthesis {
                        cost,
                        circuit,
                        lists_scanned: 0,
                        candidates_tested: 0,
                        stats: SearchStats::default(),
                    })
                });
                continue;
            }
            open_idx.push(j);
            queries.push(self.prepare_query(f));
        }

        if self.tables().is_cost_bucketed() {
            let outcome = self.mitm_scan_cost(&queries, limit as u64, opts);
            for (slot, &j) in open_idx.iter().enumerate() {
                let (ref hit, stats) = outcome[slot];
                results[j] = Some(match hit {
                    Some(hit) => self.resolve_cost_hit(fs[j], hit, stats),
                    None => Err(SynthesisError::SizeExceedsLimit {
                        function: fs[j],
                        limit,
                    }),
                });
            }
        } else {
            let deepest = k.min(limit.saturating_sub(k));
            let outcome = self.mitm_scan(&queries, deepest, opts);
            for (slot, &j) in open_idx.iter().enumerate() {
                results[j] = Some(match outcome.hits[slot] {
                    Some(ref hit) => self.resolve_hit(fs[j], hit, outcome.stats[slot]),
                    None => Err(SynthesisError::SizeExceedsLimit {
                        function: fs[j],
                        limit,
                    }),
                });
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every query resolved"))
            .collect()
    }

    /// Single-query synthesis with explicit search options — the threaded
    /// variant of [`synthesize_within`](Synthesizer::synthesize_within)
    /// (which equals `synthesize_with(f, &SearchOptions::new().threads(1)
    /// .limit(limit))`). The returned circuit is identical for every
    /// thread count; `candidates_tested` reflects the work actually
    /// performed (see [`synthesize_many`](Self::synthesize_many)).
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Synthesizer::synthesize).
    pub fn synthesize_with(
        &self,
        f: Perm,
        opts: &SearchOptions,
    ) -> Result<Synthesis, SynthesisError> {
        self.synthesize_many(std::slice::from_ref(&f), opts)
            .pop()
            .expect("one query yields one result")
    }

    /// Single-query size with explicit search options (threaded level
    /// scans).
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Synthesizer::synthesize).
    pub fn size_with(&self, f: Perm, opts: &SearchOptions) -> Result<usize, SynthesisError> {
        self.size_many(std::slice::from_ref(&f), opts)
            .pop()
            .expect("one query yields one result")
    }

    /// The optimal sizes of a whole batch of functions (cheaper than
    /// [`synthesize_many`](Self::synthesize_many): circuits are never
    /// reconstructed). Same batching, threading and determinism contract.
    pub fn size_many(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
    ) -> Vec<Result<usize, SynthesisError>> {
        self.size_many_stats(fs, opts).0
    }

    /// Like [`size_many`](Self::size_many), additionally returning the
    /// aggregated candidate-pipeline accounting for the whole batch —
    /// how many candidates the invariant gate rejected versus how many
    /// were canonicalized and probed.
    pub fn size_many_stats(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
    ) -> (Vec<Result<usize, SynthesisError>>, SearchStats) {
        let limit = opts.limit_or(self.max_size());
        let k = self.tables().k();
        let bucketed = self.tables().is_cost_bucketed();

        let mut results: Vec<Option<Result<usize, SynthesisError>>> =
            (0..fs.len()).map(|_| None).collect();
        let mut open_idx: Vec<usize> = Vec::new();
        let mut queries: Vec<PreparedQuery> = Vec::new();
        for (j, &f) in fs.iter().enumerate() {
            if let Err(e) = self.check_domain(f) {
                results[j] = Some(Err(e));
                continue;
            }
            // On cost-bucketed tables "size" means the model cost.
            let stored = if bucketed {
                self.tables().cost_of(f).map(|c| c as usize)
            } else {
                self.tables().size_of(f)
            };
            if let Some(size) = stored {
                results[j] = Some(if size > limit {
                    Err(SynthesisError::SizeExceedsLimit { function: f, limit })
                } else {
                    Ok(size)
                });
                continue;
            }
            open_idx.push(j);
            queries.push(self.prepare_query(f));
        }

        let mut total = SearchStats::default();
        if bucketed {
            let outcome = self.mitm_scan_cost(&queries, limit as u64, opts);
            for (slot, &j) in open_idx.iter().enumerate() {
                let (ref hit, stats) = outcome[slot];
                total.merge(&stats);
                results[j] = Some(match hit {
                    Some(hit) => Ok(hit.total as usize),
                    None => Err(SynthesisError::SizeExceedsLimit {
                        function: fs[j],
                        limit,
                    }),
                });
            }
        } else {
            let deepest = k.min(limit.saturating_sub(k));
            let outcome = self.mitm_scan(&queries, deepest, opts);
            for s in &outcome.stats {
                total.merge(s);
            }
            for (slot, &j) in open_idx.iter().enumerate() {
                results[j] = Some(match outcome.hits[slot] {
                    Some(ref hit) => Ok(k + hit.level),
                    None => Err(SynthesisError::SizeExceedsLimit {
                        function: fs[j],
                        limit,
                    }),
                });
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every query resolved"))
            .collect();
        (results, total)
    }
}

/// The residue buckets that could still improve the best decomposition:
/// bit `rb` set ⇔ `rb ≥ 1` and `costs[rb] + c_ib ≤ cap`.
fn residue_mask(costs: &[u64], c_ib: u64, cap: u64) -> u32 {
    let mut mask = 0u32;
    for (rb, &c) in costs.iter().enumerate().skip(1) {
        if c + c_ib <= cap {
            mask |= 1 << rb;
        }
    }
    mask
}

/// Runs one cost-scan candidate through the residual-bucket gate →
/// canonicalize → exact-bucket probe pipeline, tightening `best`, the
/// cap and the allowed mask on acceptance.
#[allow(clippy::too_many_arguments)] // hot inner kernel, deliberately flat
#[inline]
fn consider_cost_candidate(
    tables: &SearchTables,
    sym: &Symmetries,
    gate: Option<&InvariantIndex>,
    costs: &[u64],
    ib: usize,
    mask: &mut u32,
    cost_limit: u64,
    best: &mut Option<CostHit>,
    stats: &mut SearchStats,
    composition: Perm,
    rep: Perm,
    side: Side,
    step: u32,
) {
    stats.considered += 1;
    if let Some(index) = gate {
        // No allowed residue bucket shares this candidate's class
        // invariants ⇒ it cannot improve the best total; skip the
        // canonicalization (sound for the same reason as the exact-k
        // gate — the probe below is an exact-bucket membership test).
        if !index.admits_any(composition, *mask) {
            stats.gated += 1;
            return;
        }
    }
    let canon = sym.canonical(composition);
    stats.canonicalized += 1;
    stats.probed += 1;
    if let Some(rb) = tables.bucket_of(canon) {
        if *mask >> rb & 1 == 1 {
            let total = costs[rb] + costs[ib];
            *best = Some(CostHit {
                residue_bucket: rb,
                bucket: ib,
                total,
                rep,
                side,
                step,
            });
            *mask = residue_mask(costs, costs[ib], cost_limit.min(total - 1));
        }
    }
}

/// Per-shard scan output, indexed like the `open` slice.
struct ShardResult {
    hits: Vec<Option<(Perm, Side, u32)>>,
    stats: Vec<SearchStats>,
}

/// One candidate's identity while its table probe is in flight.
struct InFlight {
    rep: Perm,
    side: Side,
    step: u32,
}

/// Scans one contiguous shard of a level against every open query, with
/// the invariant gate in front of canonicalization and a per-query probe
/// wavefront behind it.
///
/// Candidate order — representatives outermost (each loaded once, tested
/// against all open queries while hot), then the query's forward frames,
/// then its inverse frames — fixes the hit priority: probes resolve in
/// strict FIFO order across the whole shard, so the first hit per query
/// is the one at the smallest `(rep, side, frame)` regardless of the
/// wavefront depth, and the gate never skips a candidate that could hit
/// (see the module docs), so the gate setting cannot change it either.
///
/// The gate runs a stage ahead: the ≤ 2·n! candidates of one
/// representative and one query are gated as one batch
/// ([`InvariantIndex::admits_batch`]), then replayed in order through
/// count → gated? → canonicalize → probe ring. The replay stops exactly
/// where a candidate-at-a-time loop would; verdicts for candidates past
/// a hit are speculative work and are not counted.
fn scan_shard(
    tables: &SearchTables,
    shard: &[Perm],
    queries: &[PreparedQuery],
    open: &[usize],
    gate: Option<&InvariantIndex>,
    probe_depth: usize,
) -> ShardResult {
    let sym = tables.sym();
    let table = tables.table();
    let budget = tables.k();
    let mut hits: Vec<Option<(Perm, Side, u32)>> = vec![None; open.len()];
    let mut stats = vec![SearchStats::default(); open.len()];
    let mut rings: Vec<ProbeRing<InFlight>> =
        open.iter().map(|_| ProbeRing::new(probe_depth)).collect();
    let mut remaining = open.len();
    let mut batch: Vec<Perm> = Vec::new();
    'reps: for &rep in shard {
        // A self-inverse representative contributes the same candidate
        // classes on both sides; skip the redundant inverse side.
        let rep_self_inverse = rep.inverse() == rep;
        for (slot, &q) in open.iter().enumerate() {
            if hits[slot].is_some() {
                continue;
            }
            let query = &queries[q];
            batch.clear();
            batch.extend(query.fwd.iter().map(|&(frame, _)| frame.then(rep)));
            if !rep_self_inverse {
                batch.extend(query.inv.iter().map(|&(frame, _)| rep.then(frame)));
            }
            // A hit's residue has distance exactly `budget` (= k); a
            // candidate no stored function of that size shares invariants
            // with must miss the probe, so it is never canonicalized.
            let admitted = gate.map_or(u64::MAX, |index| index.admits_batch(&batch, budget));
            let ring = &mut rings[slot];
            let stat = &mut stats[slot];
            for (j, &composition) in batch.iter().enumerate() {
                stat.considered += 1;
                if admitted >> j & 1 == 0 {
                    stat.gated += 1;
                    continue;
                }
                let canon = sym.canonical(composition);
                stat.canonicalized += 1;
                let (side, step) = match query.fwd.get(j) {
                    Some(&(_, step)) => (Side::Fwd, step),
                    None => (Side::Inv, query.inv[j - query.fwd.len()].1),
                };
                let tag = InFlight { rep, side, step };
                if let Some((prev, tag)) = ring.push(table.probe_start(canon), tag) {
                    stat.probed += 1;
                    if table.probe_finish(prev) {
                        hits[slot] = Some((tag.rep, tag.side, tag.step));
                        break;
                    }
                }
            }
            if hits[slot].is_some() {
                ring.clear();
                remaining -= 1;
                if remaining == 0 {
                    break 'reps;
                }
            }
        }
    }
    // Drain the wavefronts of still-open queries (FIFO, so the first
    // successful resolve is still the earliest candidate).
    for (slot, ring) in rings.iter_mut().enumerate() {
        if hits[slot].is_some() {
            continue;
        }
        while let Some((probe, tag)) = ring.pop() {
            stats[slot].probed += 1;
            if table.probe_finish(probe) {
                hits[slot] = Some((tag.rep, tag.side, tag.step));
                break;
            }
        }
    }
    ShardResult { hits, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revsynth_canon::Symmetries;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    fn synth_n4_k3() -> &'static Synthesizer {
        static S: OnceLock<Synthesizer> = OnceLock::new();
        S.get_or_init(|| Synthesizer::from_scratch(4, 3))
    }

    /// Deterministic pseudo-random 4-wire permutations.
    fn random_perms(count: usize, seed: u64) -> Vec<Perm> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..count)
            .map(|_| {
                let mut vals: Vec<u8> = (0..16).collect();
                for i in (1..16usize).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    vals.swap(i, j);
                }
                Perm::from_values(&vals).expect("shuffle is a permutation")
            })
            .collect()
    }

    #[test]
    fn frames_are_deduplicated_and_sorted() {
        let s = synth_n4_k3();
        // The identity has a single frame on both sides.
        let q = s.prepare_query(Perm::identity());
        assert_eq!(q.fwd.len(), 1);
        assert_eq!(q.inv.len(), 1);
        // NOT(d) is invariant under relabelings of the other three wires:
        // 24 / 3! = 4 distinct frames.
        let not_d =
            Perm::from_values(&[8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        let q = s.prepare_query(not_d);
        assert_eq!(q.fwd.len(), 4);
        assert_eq!(q.inv.len(), 4);
        for w in q.fwd.windows(2) {
            assert!(w[0].0 < w[1].0, "sorted and distinct");
        }
        // A generic permutation has all 24 frames.
        let generic =
            Perm::from_values(&[15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11]).unwrap();
        let q = s.prepare_query(generic);
        assert_eq!(q.fwd.len(), 24);
    }

    #[test]
    fn frame_steps_witness_the_conjugation() {
        let s = synth_n4_k3();
        let sym = s.tables().sym();
        let f = Perm::from_values(&[6, 0, 12, 15, 7, 1, 5, 2, 4, 10, 13, 3, 11, 8, 14, 9]).unwrap();
        let q = s.prepare_query(f);
        for &(frame, step) in &q.fwd {
            assert_eq!(
                frame,
                f.conjugate_by_wires(sym.relabelings()[step as usize])
            );
        }
        for &(frame, step) in &q.inv {
            assert_eq!(
                frame,
                f.inverse()
                    .conjugate_by_wires(sym.relabelings()[step as usize])
            );
        }
    }

    #[test]
    fn hoisted_frames_cover_exactly_the_member_candidates() {
        // The property behind the whole engine: for any query f and
        // representative g, the candidate classes produced by the
        // deduplicated frames equal the candidate classes produced by
        // expanding every member of g's class (the seed algorithm) —
        // deduplication never changes results.
        let sym = Symmetries::new(4);
        let s = synth_n4_k3();
        let reps: Vec<Perm> = s.tables().level(2).iter().step_by(7).copied().collect();
        for (fi, &f) in random_perms(6, 0xF0F0).iter().enumerate() {
            let q = s.prepare_query(f);
            for &rep in &reps {
                let seed_classes: BTreeSet<Perm> = sym
                    .class_members(rep)
                    .into_iter()
                    .map(|m| sym.canonical(f.then(m)))
                    .collect();
                let mut hoisted: BTreeSet<Perm> = q
                    .fwd
                    .iter()
                    .map(|&(frame, _)| sym.canonical(frame.then(rep)))
                    .collect();
                hoisted.extend(
                    q.inv
                        .iter()
                        .map(|&(frame, _)| sym.canonical(rep.then(frame))),
                );
                assert_eq!(hoisted, seed_classes, "query {fi}, rep {rep}");
            }
        }
    }

    #[test]
    fn self_inverse_rep_sides_coincide() {
        // The scan skips the inverse side for self-inverse representatives;
        // verify the skipped candidates are exactly the forward ones.
        let sym = Symmetries::new(4);
        let s = synth_n4_k3();
        let f = random_perms(1, 42)[0];
        let q = s.prepare_query(f);
        let mut checked = 0;
        for &rep in s.tables().level(1) {
            if rep.inverse() != rep {
                continue;
            }
            checked += 1;
            let fwd: BTreeSet<Perm> = q
                .fwd
                .iter()
                .map(|&(frame, _)| sym.canonical(frame.then(rep)))
                .collect();
            let inv: BTreeSet<Perm> = q
                .inv
                .iter()
                .map(|&(frame, _)| sym.canonical(rep.then(frame)))
                .collect();
            assert_eq!(fwd, inv, "rep {rep}");
        }
        assert!(checked > 0, "NCT gates are self-inverse");
    }

    #[test]
    fn batch_matches_single_queries_across_thread_counts() {
        let s = synth_n4_k3();
        let fs = random_perms(12, 0xBEEF);
        let singles: Vec<_> = fs
            .iter()
            .map(|&f| s.synthesize_within(f, s.max_size()))
            .collect();
        for threads in [1usize, 2, 4, 7] {
            let opts = SearchOptions::new().threads(threads);
            let batch = s.synthesize_many(&fs, &opts);
            for (j, (single, batched)) in singles.iter().zip(&batch).enumerate() {
                match (single, batched) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.circuit, b.circuit, "query {j}, {threads} threads");
                        assert_eq!(a.lists_scanned, b.lists_scanned, "query {j}");
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("query {j} diverged: {a:?} vs {b:?}"),
                }
            }
            let sizes = s.size_many(&fs, &opts);
            for (j, (single, size)) in singles.iter().zip(&sizes).enumerate() {
                match (single, size) {
                    (Ok(a), Ok(b)) => assert_eq!(a.circuit.len(), *b, "query {j}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("query {j} diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn batch_handles_fast_path_errors_and_limits() {
        let s = synth_n4_k3();
        // Identity (fast path), a 3-wire-moving function (domain OK on 4
        // wires), and a function needing 7 gates (beyond limit 5).
        let seven =
            Perm::from_values(&[0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15]).unwrap();
        let fs = vec![Perm::identity(), seven];
        let opts = SearchOptions::new().threads(2).limit(5);
        let out = s.synthesize_many(&fs, &opts);
        assert_eq!(out[0].as_ref().unwrap().circuit.len(), 0);
        assert!(matches!(
            out[1],
            Err(SynthesisError::SizeExceedsLimit { limit: 5, .. })
        ));
        let sizes = s.size_many(&fs, &opts);
        assert_eq!(sizes[0], Ok(0));
        assert!(sizes[1].is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let s = synth_n4_k3();
        assert!(s.synthesize_many(&[], &SearchOptions::new()).is_empty());
        assert!(s.size_many(&[], &SearchOptions::new()).is_empty());
    }

    #[test]
    fn batch_circuits_compute_their_functions() {
        let s = synth_n4_k3();
        let fs = random_perms(20, 0xCAFE);
        let out = s.synthesize_many(&fs, &SearchOptions::new().threads(3));
        let mut resolved = 0;
        for (j, result) in out.iter().enumerate() {
            if let Ok(syn) = result {
                assert_eq!(syn.circuit.perm(4), fs[j], "query {j}");
                resolved += 1;
            }
        }
        // k = 3 reaches size 6; most random permutations need more — but
        // the sample must contain a few small ones via fast paths, and the
        // engine must never mislabel an unresolved one.
        for (j, result) in out.iter().enumerate() {
            if result.is_err() {
                assert!(
                    s.synthesize(fs[j]).is_err(),
                    "query {j}: serial path must agree it is out of reach"
                );
            }
        }
        let _ = resolved;
    }

    #[test]
    fn search_options_accessors() {
        let opts = SearchOptions::new();
        assert_eq!(opts.limit_or(14), 14);
        assert!(opts.effective_threads() >= 1);
        assert!(opts.filter_enabled());
        assert_eq!(opts.effective_probe_depth(), 8);
        let opts = opts.threads(3).limit(9).filter(false).probe_depth(200);
        assert_eq!(opts.effective_threads(), 3);
        assert_eq!(opts.limit_or(14), 9);
        assert!(!opts.filter_enabled());
        assert_eq!(opts.effective_probe_depth(), 64, "clamped to the max");
        let opts = opts.filter(true).probe_depth(1);
        assert!(opts.filter_enabled());
        assert_eq!(opts.effective_probe_depth(), 1);
        assert_eq!(opts.cost_kind(), CostKind::Gates, "gates is the default");
        let opts = opts.cost_model(CostKind::Quantum);
        assert_eq!(opts.cost_kind(), CostKind::Quantum);
    }

    #[test]
    fn weighted_tables_batch_and_singles_agree() {
        use revsynth_bfs::SearchTables;
        use revsynth_circuit::{CostModel, GateLib};
        let s = Synthesizer::new(SearchTables::generate_weighted(
            GateLib::nct(4),
            CostModel::quantum(),
            7,
        ));
        let fs = random_perms(8, 0xC057);
        let batch = s.synthesize_many(&fs, &SearchOptions::new().threads(1));
        let (sizes, stats) = s.size_many_stats(&fs, &SearchOptions::new().threads(1));
        for (j, (&f, result)) in fs.iter().zip(&batch).enumerate() {
            match (result, &sizes[j]) {
                (Ok(syn), Ok(size)) => {
                    assert_eq!(syn.cost as usize, *size, "query {j}");
                    assert_eq!(syn.circuit.perm(4), f, "query {j}");
                    assert_eq!(
                        syn.circuit.cost(&CostModel::quantum()),
                        syn.cost,
                        "query {j}"
                    );
                    let single = s.synthesize(f).unwrap();
                    assert_eq!(single, syn.circuit, "query {j}");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("query {j} diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(stats.considered, stats.gated + stats.canonicalized);
    }

    #[test]
    fn gate_on_and_off_are_bit_identical() {
        let s = synth_n4_k3();
        let fs = random_perms(16, 0x6A7E);
        let gated = s.synthesize_many(&fs, &SearchOptions::new().threads(1));
        let ungated = s.synthesize_many(&fs, &SearchOptions::new().threads(1).filter(false));
        for (j, (a, b)) in gated.iter().zip(&ungated).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.circuit, b.circuit, "query {j}");
                    assert_eq!(a.lists_scanned, b.lists_scanned, "query {j}");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("query {j} diverged: {a:?} vs {b:?}"),
            }
        }
        // The gate must actually reject candidates on this workload
        // (aggregate over the whole batch, failed queries included), and
        // the ungated run must canonicalize everything it considers.
        let (_, total) = s.size_many_stats(&fs, &SearchOptions::new().threads(1));
        assert!(total.gated > 0, "gate rejected nothing: {total:?}");
        for (j, r) in ungated.iter().enumerate() {
            if let Ok(syn) = r {
                assert_eq!(syn.stats.gated, 0, "query {j}");
                assert_eq!(syn.stats.considered, syn.stats.canonicalized, "query {j}");
            }
        }
    }

    #[test]
    fn stats_accounting_adds_up() {
        let s = synth_n4_k3();
        let fs = random_perms(10, 0x57A7);
        for filter in [true, false] {
            let opts = SearchOptions::new().threads(1).filter(filter);
            for r in s.synthesize_many(&fs, &opts).into_iter().flatten() {
                let st = r.stats;
                assert_eq!(st.considered, st.gated + st.canonicalized);
                assert!(st.probed <= st.canonicalized);
                assert_eq!(r.candidates_tested, st.canonicalized);
                assert!(st.gate_selectivity() >= 0.0 && st.gate_selectivity() <= 1.0);
            }
        }
    }

    #[test]
    fn probe_depth_does_not_change_results() {
        let s = synth_n4_k3();
        let fs = random_perms(12, 0xDE47);
        let baseline = s.synthesize_many(&fs, &SearchOptions::new().threads(1).probe_depth(1));
        for depth in [2usize, 8, 33] {
            let out = s.synthesize_many(&fs, &SearchOptions::new().threads(1).probe_depth(depth));
            for (j, (a, b)) in baseline.iter().zip(&out).enumerate() {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.circuit, b.circuit, "depth {depth}, query {j}");
                        assert_eq!(a.lists_scanned, b.lists_scanned, "depth {depth}, query {j}");
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("depth {depth}, query {j}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn size_many_stats_aggregates_the_batch() {
        let s = synth_n4_k3();
        let fs = random_perms(8, 0xA66);
        let opts = SearchOptions::new().threads(1);
        let (sizes, total) = s.size_many_stats(&fs, &opts);
        assert_eq!(sizes, s.size_many(&fs, &opts));
        assert_eq!(total.considered, total.gated + total.canonicalized);
        // Random 4-wire permutations almost surely exceed the fast path,
        // so the scan must have considered candidates.
        assert!(total.considered > 0);
    }
}
