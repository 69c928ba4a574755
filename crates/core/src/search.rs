//! The frame-hoisted, parallel, batched meet-in-the-middle search engine:
//! one scan for every cost model.
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
//! # One residue rule for every cost model
//!
//! The tables store every class of optimal cost ≤ `B` in buckets of one
//! cost each, ascending ([`SearchTables::bucket_costs`]). On gate-count
//! tables bucket `i` is the paper's size-`i` list, so `cost[i] = i` and
//! `B = k`; on cost-bucketed tables ([`SearchTables::generate_weighted`],
//! paper §5's "increasing cost by one") bucket `i` holds the classes of
//! the `i`-th smallest weighted cost. A query beyond the fast path splits
//! as `f = residue ∘ member⁻¹` with both halves stored, at total cost
//! `cost[rb] + cost[ib]`; the candidate `conj_τ(f).then(rep)` (or its
//! inverse-side twin) of the member's representative then canonicalizes
//! into the residue's bucket `rb`.
//!
//! The scan walks member buckets `ib` in ascending cost and keeps a
//! **cap** per query: the limit at first, `best total − 1` after each
//! accepted hit. The residues that could still improve the answer are
//!
//! ```text
//! mask(ib) = { rb : cost[rb] ≥ floor, cost[rb] + cost[ib] ≤ cap }
//! floor    = max(1, B − g(B) + 1)
//! ```
//!
//! where `g(B)` is the costliest library gate of cost ≤ `B`
//! ([`SearchTables::max_gate_cost_within`]).
//!
//! A probe hit is accepted only if its bucket is in the query's current
//! mask; then the cap tightens and the mask is recomputed. A query whose
//! mask is empty is closed, because later buckets only cost more. The
//! one rule reads:
//!
//! * on gate-count tables `floor = k`, so `mask(i) = {k}` while
//!   `k + i ≤ cap`, and the first hit empties it: the paper's scan, whose
//!   first level with a hit is minimal;
//! * on cost-bucketed tables, branch-and-bound: the answer is the first
//!   candidate in scan order that achieves the minimal total.
//!
//! **The floor is sound and changes no answer.** Take a split of the
//! best total `t > B` the scan can find (cheaper functions take the fast
//! path) and the circuit made of its two stored halves. The longest
//! prefix of that circuit of cost ≤ `B` and the rest of it form another
//! split of total ≤ `t`, so of total exactly `t`, whose member is no
//! costlier than the first split's. The gate after the prefix lies in
//! that member, which costs ≤ `B`, so the gate costs at most `g(B)`, and
//! the prefix pushed past `B` by it costs at least `B − g(B) + 1` — the
//! maximal-prefix argument behind [`SearchTables::cost_reach`]. Buckets
//! run in ascending member cost, so the first split that reaches the best
//! total has the smallest member, hence the largest residue, which is at
//! least the floor. This holds for every limit, beyond the reach too. The
//! floor therefore never removes the answer; it only skips dead residues
//! wherever it exceeds 1 (on 4 wires under the quantum model TOF4 costs
//! 13, so a budget below 13 still gets a floor above 1). Minimality
//! follows from the same argument: a function of optimal cost
//! ≤ `cost_reach` has a split into two stored halves, so its optimum is
//! enumerated.
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
//! * The tables index every stored invariant with the bitmask of buckets
//!   in which it occurs ([`revsynth_bfs::SearchTables::invariants`]).
//! * A candidate can only be accepted if its canonical form lies in an
//!   allowed residue bucket, so the engine asks "does any stored function
//!   in a bucket of the mask share this invariant?" and skips the
//!   canonicalization plus probe when the answer is no.
//!   On gate-count tables the mask is `{k}`: the sharpest sound question.
//!
//! Because the gate only ever skips candidates that could not be
//! accepted, results — circuits, costs, and the hit chosen — are
//! **bit-identical** with the gate on and off (verified exhaustively for
//! every 3-wire function in `tests/engine_equivalence.rs`, and on a
//! sample of the quantum-cost space in `tests/cost_oracle.rs`). The gate
//! is on by default; [`SearchOptions::filter`] is the escape hatch, and
//! [`SearchStats`] reports its selectivity (candidates gated /
//! canonicalized / probed).
//!
//! # The byte-form candidate batch
//!
//! The ≤ 2·n! candidates of one representative and one query are built
//! together, as one [`CandidateBatch`], from the query's frames unpacked
//! once per query into byte form ([`ByteForm`], one byte per point, with
//! the inverse's bytes beside). Where the CPU has SSSE3 and POPCNT the
//! batch kernels of `revsynth_mmap::shuffle` fill it: one `pshufb`
//! composes a candidate (`frame.then(rep)` is `pshufb(rep, frame)`), one
//! more gives its inverse (`(frame.then(rep))⁻¹ = rep⁻¹.then(frame⁻¹)`),
//! and the candidate's bytes give its wire-weight key directly. Elsewhere
//! the scalar `Perm` kernels fill the same batch and invert a candidate
//! only when it is canonicalized. Gate-off scans build the same batch.
//!
//! On tables that exceed the cache, both stages of the gate are a cache
//! miss — the prefilter word, then the index's home slot — and one
//! candidate at a time they run back to back. The scan therefore gates
//! the whole batch ([`InvariantIndex::admits_batch`]) in three passes:
//! a prefetch of each candidate's prefilter word; the prefilter test,
//! then the cycle-type keys of the **survivors only** (16 `pshufb`
//! powers and a first-return count each, where the CPU runs the kernel)
//! and a prefetch of each survivor's index slot; then each survivor's
//! bucket mask against the allowed mask. The misses of a pass overlap
//! each other and the arithmetic of the next candidates. The batch is
//! then replayed in candidate order through count → gated? →
//! canonicalize → probe, and each survivor is canonicalized from the
//! inverse the batch holds ([`Symmetries::canonical_with_inverse`]). The
//! batch is gated with the mask in force when it starts; a hit accepted
//! during the replay can only shrink the mask, and the acceptance test
//! re-checks every later hit against it. On gate-count tables the first
//! hit closes the query, so the scan stops where a one-at-a-time loop
//! would and [`SearchStats`] count the same work; verdicts computed past
//! that hit are speculative and not counted.
//!
//! [`Symmetries::canonical_with_inverse`]: revsynth_canon::Symmetries::canonical_with_inverse
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
//! drains at shard end; since eviction is strictly FIFO, hits are
//! accepted in candidate order, so the chosen hit is identical for every
//! ring depth. A resolved hit's bucket is read from the level lists; a
//! probe hit that is in no level list can only come from a damaged store
//! and surfaces as [`SynthesisError::CorruptTables`].
//!
//! # Parallel bucket scanning and determinism
//!
//! Each bucket is split into contiguous sorted shards
//! ([`revsynth_bfs::SearchTables::level_chunks`]) scanned by scoped worker
//! threads, mirroring the parallel BFS. Every shard starts from the caps
//! in force at the bucket's start. The contract of the serial search is
//! preserved exactly:
//!
//! * buckets are still exhausted in ascending cost, and a later bucket's
//!   hit is accepted only if it is strictly cheaper;
//! * within a bucket, shards are merged in order under the same
//!   acceptance rule: the lowest total wins, and the earliest shard wins
//!   a tie. Shards cover disjoint ascending ranges, so this is the serial
//!   first achiever, independent of the thread count.
//!
//! # Batched serving
//!
//! [`Synthesizer::synthesize_many`] / [`Synthesizer::size_many`] run a
//! whole batch of queries through one pass over the bucket lists: frames
//! are hoisted per query, and every representative loaded from a bucket
//! is tested against **all** still-open queries while it is hot in cache
//! — the access pattern a traffic-serving deployment needs (the level
//! lists, not the queries, are the multi-GB working set).

use revsynth_bfs::SearchTables;
use revsynth_circuit::CostKind;
use revsynth_perm::Perm;
use revsynth_table::{ByteForm, CandidateBatch, InvariantIndex, ProbeRing};

use crate::cost::ResidueRule;
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
    /// Default options: all available threads, search up to the tables'
    /// full reach ([`Synthesizer::max_size`]), invariant gate on,
    /// wavefront depth 8.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker threads for the bucket scans; `0` (the default)
    /// selects the machine's available parallelism
    /// ([`effective_threads`](Self::effective_threads)). Every bucket is
    /// sharded across them, on gate-count and cost-bucketed tables alike;
    /// answers are identical for every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Bounds the search to circuits of cost at most `limit` — gates on
    /// gate-count tables (like [`Synthesizer::synthesize_within`]).
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
    /// `fwd`'s frames unpacked for the candidate batches, in its order.
    fwd_bytes: Vec<ByteForm>,
    /// `inv`'s frames unpacked likewise.
    inv_bytes: Vec<ByteForm>,
}

/// A meet-in-the-middle hit: the query splits as `f = residue ∘ member⁻¹`
/// with the member's class in bucket `bucket` (identified by `(rep, side,
/// step)`), the residue in bucket `residue_bucket`, and total cost
/// `total`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hit {
    pub bucket: usize,
    pub residue_bucket: usize,
    pub total: u64,
    pub rep: Perm,
    side: Side,
    step: u32,
}

/// Result of scanning the buckets for a batch of queries.
pub(crate) struct ScanOutcome {
    /// Per query: the minimal-cost hit within the limit, if any, or the
    /// detail of the damage a probe ran into.
    pub hits: Vec<Result<Option<Hit>, &'static str>>,
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
        let unpack =
            |frames: &[(Perm, u32)]| frames.iter().map(|&(f, _)| ByteForm::new(f)).collect();
        PreparedQuery {
            fwd_bytes: unpack(&fwd),
            inv_bytes: unpack(&inv),
            fwd,
            inv,
        }
    }

    /// Scans the buckets in ascending cost for every query at once,
    /// sharding each bucket across the configured scoped workers, and
    /// returns per query the minimal-total hit of cost ≤ `limit`. Hits
    /// are identical for every thread count, gate setting and wavefront
    /// depth (see the module docs); the stats reflect the work actually
    /// performed, which grows with the shard count.
    pub(crate) fn mitm_scan(
        &self,
        queries: &[PreparedQuery],
        limit: u64,
        opts: &SearchOptions,
    ) -> ScanOutcome {
        let tables = self.tables();
        let rule = ResidueRule::new(tables);
        let threads = opts.effective_threads();
        let gate = opts.filter_enabled().then(|| tables.invariants());
        let probe_depth = opts.effective_probe_depth();
        let mut hits: Vec<Result<Option<Hit>, &'static str>> = vec![Ok(None); queries.len()];
        let mut stats: Vec<SearchStats> = vec![SearchStats::default(); queries.len()];
        let mut caps: Vec<u64> = vec![limit; queries.len()];

        for ib in 1..rule.buckets() {
            // Masks only shrink from bucket to bucket, so a query closed
            // here stays closed.
            let open: Vec<OpenQuery> = (0..queries.len())
                .filter(|&q| hits[q].is_ok())
                .map(|q| OpenQuery {
                    query: q,
                    mask: rule.mask(ib, caps[q]),
                })
                .filter(|open| open.mask != 0)
                .collect();
            if open.is_empty() {
                break;
            }
            let level = tables.level(ib);
            if level.is_empty() {
                continue;
            }
            let scan =
                |shard| scan_shard(tables, &rule, ib, shard, queries, &open, gate, probe_depth);
            let workers = threads.clamp(1, level.len());
            let shard_results: Vec<Vec<ShardQuery>> = if workers == 1 {
                vec![scan(level)]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = tables
                        .level_chunks(ib, workers)
                        .map(|shard| scope.spawn(move || scan(shard)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("bucket-scan worker must not panic"))
                        .collect()
                })
            };
            // Merge in shard order under the scan's own acceptance rule:
            // shards cover ascending disjoint rep ranges, so a strictly
            // cheaper hit wins and the earliest shard wins a tie.
            for shard in shard_results {
                for (slot, open) in open.iter().enumerate() {
                    let q = open.query;
                    let result = &shard[slot];
                    stats[q].merge(&result.stats);
                    if let Some(detail) = result.corrupt {
                        hits[q] = Err(detail);
                    }
                    if let (Some(hit), Ok(best)) = (result.best, &mut hits[q]) {
                        if hit.total <= caps[q] {
                            *best = Some(hit);
                            caps[q] = hit.total - 1;
                        }
                    }
                }
            }
        }

        ScanOutcome { hits, stats }
    }

    /// Reconstructs the class member a hit identifies and assembles the
    /// minimal circuit `f = (f.then(m)) .then m⁻¹`, certified: the front
    /// half must cost exactly its residue bucket, the whole circuit
    /// exactly the hit's total (on gate-count tables: residue `k` gates,
    /// member the hit's level), and it must compute `f`.
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

    /// The one path every entry point takes: per query, the domain check,
    /// then the fast path `stored` (which returns the stored function's
    /// cost and answer, or `None` past the tables), then the scan, whose
    /// hits `found` turns into answers. Costs above the limit are
    /// [`SynthesisError::SizeExceedsLimit`].
    fn search_batch<T>(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
        stored: impl Fn(Perm) -> Result<Option<(u64, T)>, SynthesisError>,
        found: impl Fn(Perm, &Hit, SearchStats) -> Result<T, SynthesisError>,
    ) -> (Vec<Result<T, SynthesisError>>, SearchStats) {
        let limit = opts.limit_or(self.max_size());
        let beyond = |function| SynthesisError::SizeExceedsLimit { function, limit };
        let mut results: Vec<Option<Result<T, SynthesisError>>> =
            (0..fs.len()).map(|_| None).collect();
        let mut open_idx: Vec<usize> = Vec::new();
        let mut queries: Vec<PreparedQuery> = Vec::new();
        for (j, &f) in fs.iter().enumerate() {
            let answer = self.check_domain(f).and_then(|()| stored(f));
            results[j] = match answer {
                Ok(None) => {
                    open_idx.push(j);
                    queries.push(self.prepare_query(f));
                    continue;
                }
                Ok(Some((cost, _))) if cost > limit as u64 => Some(Err(beyond(f))),
                Ok(Some((_, value))) => Some(Ok(value)),
                Err(e) => Some(Err(e)),
            };
        }

        let outcome = self.mitm_scan(&queries, limit as u64, opts);
        let mut total = SearchStats::default();
        for (slot, &j) in open_idx.iter().enumerate() {
            let f = fs[j];
            let stats = outcome.stats[slot];
            total.merge(&stats);
            results[j] = Some(match outcome.hits[slot] {
                Ok(Some(ref hit)) => found(f, hit, stats),
                Ok(None) => Err(beyond(f)),
                Err(detail) => Err(SynthesisError::CorruptTables {
                    function: f,
                    detail,
                }),
            });
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every query resolved"))
            .collect();
        (results, total)
    }

    /// Synthesizes a whole batch of functions through one frame-hoisted,
    /// optionally multi-threaded pass over the bucket lists.
    ///
    /// Results are per query and independent: a query that fails (domain
    /// mismatch, cost beyond the limit) does not affect the others. For
    /// every query the returned **circuit and its statistics of record**
    /// ([`Synthesis::circuit`], [`Synthesis::cost`],
    /// [`Synthesis::lists_scanned`]) are cost-minimal under the tables'
    /// model and identical to what
    /// [`synthesize_within`](Synthesizer::synthesize_within) returns, for
    /// every thread count. [`Synthesis::candidates_tested`] reports the
    /// work *actually performed*, which grows with sharding: parallel
    /// shards that have not seen the hit keep scanning their own ranges,
    /// so the count is deterministic only for a fixed thread count.
    ///
    /// Frame setup is amortized per query and bucket scans are amortized
    /// across the whole batch: every representative loaded from a bucket
    /// is tested against all still-open queries while hot in cache.
    pub fn synthesize_many(
        &self,
        fs: &[Perm],
        opts: &SearchOptions,
    ) -> Vec<Result<Synthesis, SynthesisError>> {
        let model = self.tables().model();
        let stored = |f| {
            let corrupt = |detail| SynthesisError::CorruptTables {
                function: f,
                detail,
            };
            let Some(circuit) = self.peel(f).map_err(corrupt)? else {
                return Ok(None);
            };
            // Peeling certified that the circuit computes f; a damaged
            // record can still make it longer than optimal, so its cost
            // must also be the cost of f's class.
            let cost = circuit.cost(model);
            if self.tables().cost_of(f) != Some(cost) {
                return Err(corrupt("a peeled circuit does not have its class's cost"));
            }
            let synthesis = Synthesis {
                cost,
                circuit,
                lists_scanned: 0,
                candidates_tested: 0,
                stats: SearchStats::default(),
            };
            Ok(Some((cost, synthesis)))
        };
        let found = |f, hit: &Hit, stats| self.resolve_hit(f, hit, stats);
        self.search_batch(fs, opts, stored, found).0
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

    /// Single-query size with explicit search options (threaded bucket
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

    /// The optimal costs (gate counts on gate-count tables) of a whole
    /// batch of functions — cheaper than
    /// [`synthesize_many`](Self::synthesize_many): circuits are never
    /// reconstructed. Same batching, threading and determinism contract.
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
        let stored = |f| Ok(self.tables().cost_of(f).map(|c| (c, c as usize)));
        let found = |_, hit: &Hit, _| Ok(hit.total as usize);
        self.search_batch(fs, opts, stored, found)
    }
}

/// A query open at the start of a bucket, with the residue mask every
/// shard starts it from.
struct OpenQuery {
    query: usize,
    mask: u32,
}

/// One candidate's identity while its table probe is in flight.
struct InFlight {
    rep: Perm,
    side: Side,
    step: u32,
    canon: Perm,
}

/// One open query's state within a shard.
struct ShardQuery {
    /// The allowed residue buckets; 0 once the query is closed.
    mask: u32,
    /// The last accepted hit: the shard's first achiever of its minimal
    /// total.
    best: Option<Hit>,
    /// Set when a probe hit lies in no level list.
    corrupt: Option<&'static str>,
    ring: ProbeRing<InFlight>,
    stats: SearchStats,
}

impl ShardQuery {
    /// Applies the acceptance rule to a resolved probe hit of a
    /// bucket-`ib` candidate: the hit is kept only if its residue bucket
    /// is still allowed, and then tightens the mask to the cap
    /// `total − 1`.
    fn accept(&mut self, tables: &SearchTables, rule: &ResidueRule, ib: usize, tag: &InFlight) {
        let Some(rb) = tables.bucket_of(tag.canon) else {
            self.corrupt = Some("a probed candidate is stored in no level list");
            self.mask = 0;
            return;
        };
        if self.mask >> rb & 1 == 1 {
            let total = rule.cost(rb) + rule.cost(ib);
            self.best = Some(Hit {
                bucket: ib,
                residue_bucket: rb,
                total,
                rep: tag.rep,
                side: tag.side,
                step: tag.step,
            });
            self.mask = rule.mask(ib, total - 1);
        }
    }
}

/// Scans one contiguous shard of bucket `ib` against every open query,
/// with the invariant gate in front of canonicalization and a per-query
/// probe wavefront behind it.
///
/// Candidate order — representatives outermost (each loaded once, tested
/// against all open queries while hot), then the query's forward frames,
/// then its inverse frames — fixes the hit priority: probes resolve in
/// strict FIFO order across the whole shard, so hits are accepted in
/// `(rep, side, frame)` order regardless of the wavefront depth, and the
/// gate never skips a candidate that could be accepted (see the module
/// docs), so the gate setting cannot change them either.
///
/// The gate runs a stage ahead: the ≤ 2·n! candidates of one
/// representative and one query are composed as one [`CandidateBatch`]
/// and gated together ([`InvariantIndex::admits_batch`]) against the
/// query's mask, then replayed in order through count → gated? →
/// canonicalize (from the batch's inverse) → probe ring.
/// A query whose mask empties stops there; verdicts for its candidates
/// past that point are speculative work and are not counted.
#[allow(clippy::too_many_arguments)] // hot kernel, deliberately flat
fn scan_shard(
    tables: &SearchTables,
    rule: &ResidueRule,
    ib: usize,
    shard: &[Perm],
    queries: &[PreparedQuery],
    open: &[OpenQuery],
    gate: Option<&InvariantIndex>,
    probe_depth: usize,
) -> Vec<ShardQuery> {
    let sym = tables.sym();
    let table = tables.table();
    let mut states: Vec<ShardQuery> = open
        .iter()
        .map(|open| ShardQuery {
            mask: open.mask,
            best: None,
            corrupt: None,
            ring: ProbeRing::new(probe_depth),
            stats: SearchStats::default(),
        })
        .collect();
    let mut remaining = open.len();
    let mut batch = CandidateBatch::new();
    'reps: for &rep in shard {
        // A self-inverse representative contributes the same candidate
        // classes on both sides; skip the redundant inverse side.
        let rep_inverse = rep.inverse();
        let rep_self_inverse = rep_inverse == rep;
        for (state, open) in states.iter_mut().zip(open) {
            if state.mask == 0 {
                continue;
            }
            let query = &queries[open.query];
            let inv_frames: &[ByteForm] = if rep_self_inverse {
                &[]
            } else {
                &query.inv_bytes
            };
            batch.compose(rep, rep_inverse, &query.fwd_bytes, inv_frames);
            // A candidate no stored function of an allowed residue bucket
            // shares invariants with cannot be accepted, so it is never
            // canonicalized.
            let admitted = gate.map_or(u64::MAX, |index| index.admits_batch(&batch, state.mask));
            for (j, &composition) in batch.candidates().iter().enumerate() {
                state.stats.considered += 1;
                if admitted >> j & 1 == 0 {
                    state.stats.gated += 1;
                    continue;
                }
                let canon = sym.canonical_with_inverse(composition, batch.inverse(j));
                state.stats.canonicalized += 1;
                let (side, step) = match query.fwd.get(j) {
                    Some(&(_, step)) => (Side::Fwd, step),
                    None => (Side::Inv, query.inv[j - query.fwd.len()].1),
                };
                let tag = InFlight {
                    rep,
                    side,
                    step,
                    canon,
                };
                if let Some((prev, tag)) = state.ring.push(table.probe_start(canon), tag) {
                    state.stats.probed += 1;
                    if table.probe_finish(prev) {
                        state.accept(tables, rule, ib, &tag);
                        if state.mask == 0 {
                            break;
                        }
                    }
                }
            }
            if state.mask == 0 {
                state.ring.clear();
                remaining -= 1;
                if remaining == 0 {
                    break 'reps;
                }
            }
        }
    }
    // Drain the wavefronts of still-open queries (FIFO, so hits are
    // still accepted in candidate order).
    for state in &mut states {
        while state.mask != 0 {
            let Some((probe, tag)) = state.ring.pop() else {
                break;
            };
            state.stats.probed += 1;
            if table.probe_finish(probe) {
                state.accept(tables, rule, ib, &tag);
            }
        }
    }
    states
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
