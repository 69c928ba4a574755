//! Candidate production shared by both table drivers: the breadth-first
//! levels of the gate-count model ([`crate::generate`]) and the
//! uniform-cost buckets of every other model ([`crate::weighted`]).
//!
//! Expanding a frontier composes each representative, then its inverse,
//! with each gate of a given list in list order, canonicalizes, and
//! drops classes the table already holds. [`for_each_candidate`] hands
//! the survivors to the driver in exactly that **stream order** for every
//! thread count: with several threads each block of the frontier is cut
//! into contiguous chunks, one per worker, and the workers' outputs are
//! read back in chunk order. Both drivers keep the first discovery of a
//! class, so the recorded boundary gates — and with them the store bytes
//! — do not depend on the thread count, which is what lets the CI
//! pipeline pin one store digest across single-shot, parallel and
//! kill-and-resumed runs.
//!
//! Working memory is one block of candidates: a block is a single
//! representative on one thread and [`BLOCK`] representatives on more
//! (each yields at most `2·|gates|` candidates).

use revsynth_canon::Symmetries;
use revsynth_circuit::Gate;
use revsynth_perm::Perm;
use revsynth_table::FnTable;

use crate::info::encode_stored;

/// Source representatives per block when several threads produce.
const BLOCK: usize = 1 << 14;

/// Construction settings for table generation (see
/// [`SearchTables::generate_opts`](crate::SearchTables::generate_opts),
/// [`extend_to`](crate::SearchTables::extend_to) and the checkpointed
/// variants). The produced tables are byte-identical for every setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOptions {
    threads: usize,
}

impl GenOptions {
    /// Defaults: 1 thread.
    #[must_use]
    pub fn new() -> Self {
        GenOptions { threads: 1 }
    }

    /// Worker threads for candidate production (`0` means all cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved worker-thread count.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        }
    }
}

impl Default for GenOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Streams every one-gate expansion of `frontier` whose class `table`
/// does not yet hold to `consume`, as `(canonical representative,
/// stored-gate byte)`, in stream order. `consume` may insert into the
/// table: production of the next block sees the insertions.
pub(crate) fn for_each_candidate(
    gates: &[(Gate, Perm)],
    sym: &Symmetries,
    table: &mut FnTable,
    frontier: &[Perm],
    threads: usize,
    mut consume: impl FnMut(&mut FnTable, Perm, u8),
) {
    let threads = threads.max(1);
    let block_len = if threads == 1 { 1 } else { BLOCK };
    let mut parts: Vec<Vec<(Perm, u8)>> = vec![Vec::new(); threads];
    for block in frontier.chunks(block_len) {
        produce_block(gates, sym, table, block, &mut parts);
        for &(rep, byte) in parts.iter().flatten() {
            consume(table, rep, byte);
        }
    }
}

/// Produces the candidates of one frontier block into `parts`, one
/// contiguous chunk of the block per part (each cleared first), so
/// reading the parts in order yields the block's stream order.
fn produce_block(
    gates: &[(Gate, Perm)],
    sym: &Symmetries,
    table: &FnTable,
    block: &[Perm],
    parts: &mut [Vec<(Perm, u8)>],
) {
    for part in parts.iter_mut() {
        part.clear();
    }
    if parts.len() == 1 || block.len() < 2 {
        for &f in block {
            collect(gates, sym, table, &mut parts[0], f);
        }
        return;
    }
    let per_worker = block.len().div_ceil(parts.len());
    std::thread::scope(|scope| {
        for (part, chunk) in parts.iter_mut().zip(block.chunks(per_worker)) {
            scope.spawn(move || {
                // Push into a vector on this worker's stack: the parts'
                // headers share a cache line, and updating them on every
                // push would bounce it between the workers.
                let mut out = std::mem::take(part);
                for &f in chunk {
                    collect(gates, sym, table, &mut out, f);
                }
                *part = out;
            });
        }
    });
}

/// Pushes the expansions of `rep` and then of its inverse (skipped when
/// `rep` is an involution), each by every gate in order.
#[inline]
fn collect(
    gates: &[(Gate, Perm)],
    sym: &Symmetries,
    table: &FnTable,
    out: &mut Vec<(Perm, u8)>,
    rep: Perm,
) {
    let inv = rep.inverse();
    let sources: &[Perm] = if inv == rep { &[rep] } else { &[rep, inv] };
    for &f in sources {
        for &(gate, gate_perm) in gates {
            let w = sym.canonicalize(f.then(gate_perm));
            if table.contains(w.rep) {
                continue;
            }
            let stored = gate.conjugate_by_wires(w.sigma);
            out.push((w.rep, encode_stored(stored, w.inverted)));
        }
    }
}
