//! Byte-form candidate batches for the meet-in-the-middle scan, and the
//! class-key kernels every invariant-index path shares.
//!
//! The scan composes each stored representative with every frame of a
//! query: at most `2·n! = 48` candidates per (representative, query)
//! pair. A [`CandidateBatch`] holds them together with what the rest of
//! the pipeline needs of each: its inverse (canonicalization conjugates
//! both) and its wire-weight key (the gate's prefilter). Where the CPU
//! has SSSE3 and POPCNT, [`revsynth_mmap::shuffle::compose_batch`] fills
//! the batch with one `pshufb` per candidate and one per inverse from the
//! query's frames unpacked once into [`ByteForm`]s, and
//! [`cycle_type_keys`](CandidateBatch::cycle_type_keys) computes the
//! second class key of only the candidates the gate's prefilter passes.
//! Elsewhere the scalar [`Perm`] kernels fill the same batch, the
//! reference every kernel is tested against; that fallback inverts a
//! candidate only when it is asked for the inverse.

use revsynth_mmap::shuffle;
pub use revsynth_mmap::shuffle::ByteForm;
use revsynth_perm::Perm;

use crate::InvariantIndex;

const MAX: usize = InvariantIndex::MAX_BATCH;

/// The candidates of one representative and one query's frames, in batch
/// order: `fwd[i].then(rep)` for every forward frame, then
/// `rep.then(inv[i])` for every inverse frame (see
/// [`compose`](Self::compose)). Reused across representatives; holds up
/// to [`InvariantIndex::MAX_BATCH`] candidates.
#[derive(Clone)]
pub struct CandidateBatch {
    len: usize,
    candidates: [Perm; MAX],
    /// The candidates' inverses, when the byte kernel filled the batch.
    inverses: [Perm; MAX],
    weights: [u64; MAX],
    /// The kernel that filled the batch; `None` for the scalar fallback,
    /// which leaves `inverses` unset.
    kernel: Option<&'static str>,
}

impl Default for CandidateBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl CandidateBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        CandidateBatch {
            len: 0,
            candidates: [Perm::identity(); MAX],
            inverses: [Perm::identity(); MAX],
            weights: [0; MAX],
            kernel: None,
        }
    }

    /// Refills the batch with `rep` composed with one query's frames:
    /// `fwd[i].then(rep)` for each `i`, then `rep.then(inv[i])` for each
    /// `i`, each with its [`Perm::wire_weight_key`]. `rep_inverse` must be
    /// `rep⁻¹`. The byte kernel fills it where the CPU runs one (see
    /// [`kernel`](Self::kernel)), and
    /// [`compose_scalar`](Self::compose_scalar) everywhere else; both give
    /// the same candidates and keys.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`InvariantIndex::MAX_BATCH`] frames.
    pub fn compose(&mut self, rep: Perm, rep_inverse: Perm, fwd: &[ByteForm], inv: &[ByteForm]) {
        self.len = checked_len(fwd, inv);
        self.kernel = shuffle::compose_batch(
            rep,
            rep_inverse,
            fwd,
            inv,
            &mut self.candidates,
            &mut self.inverses,
            &mut self.weights,
        )
        .then(shuffle::batch_kernel)
        .flatten();
        if self.kernel.is_none() {
            self.compose_scalar(rep, fwd, inv);
        }
    }

    /// [`compose`](Self::compose) by the scalar kernels
    /// ([`Perm::then`], [`Perm::wire_weight_key`]): the fallback where no
    /// byte kernel runs, and the reference the byte kernels are tested
    /// against. Inverses are computed only when asked for, and cycle keys
    /// by [`Perm::cycle_type_key`].
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`InvariantIndex::MAX_BATCH`] frames.
    pub fn compose_scalar(&mut self, rep: Perm, fwd: &[ByteForm], inv: &[ByteForm]) {
        self.len = checked_len(fwd, inv);
        self.kernel = None;
        let products = fwd
            .iter()
            .map(|frame| frame.perm().then(rep))
            .chain(inv.iter().map(|frame| rep.then(frame.perm())));
        for ((slot, weight), c) in self
            .candidates
            .iter_mut()
            .zip(&mut self.weights)
            .zip(products)
        {
            *slot = c;
            *weight = c.wire_weight_key();
        }
    }

    /// The kernel that filled the batch: the byte kernel's name
    /// (`"ssse3+popcnt"`), or `"scalar"`.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        self.kernel.unwrap_or("scalar")
    }

    /// The number of candidates.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no candidate.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The candidates, in batch order.
    #[inline]
    #[must_use]
    pub fn candidates(&self) -> &[Perm] {
        &self.candidates[..self.len]
    }

    /// The candidates' [`Perm::wire_weight_key`]s, in batch order.
    #[inline]
    #[must_use]
    pub fn weight_keys(&self) -> &[u64] {
        &self.weights[..self.len]
    }

    /// The inverse of candidate `j`: held by a byte-kernel batch,
    /// computed by [`Perm::inverse`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below [`len`](Self::len).
    #[inline]
    #[must_use]
    pub fn inverse(&self, j: usize) -> Perm {
        assert!(j < self.len, "candidate {j} of {}", self.len);
        match self.kernel {
            Some(_) => self.inverses[j],
            None => self.candidates[j].inverse(),
        }
    }

    /// [`Perm::cycle_type_key`] of candidate `j` in slot `j` for every set
    /// bit `j` of `select` below [`len`](Self::len); other slots are 0.
    /// The gate asks only for the candidates its prefilter passes.
    #[must_use]
    pub fn cycle_type_keys(&self, select: u64) -> [u64; MAX] {
        let mut keys = [0u64; MAX];
        let candidates = self.candidates();
        if self.kernel.is_none() || !shuffle::cycle_type_keys(candidates, select, &mut keys) {
            for (j, (key, c)) in keys.iter_mut().zip(candidates).enumerate() {
                if select >> j & 1 == 1 {
                    *key = c.cycle_type_key();
                }
            }
        }
        keys
    }
}

fn checked_len(fwd: &[ByteForm], inv: &[ByteForm]) -> usize {
    let len = fwd.len() + inv.len();
    assert!(len <= MAX, "candidate batch of {len} exceeds {MAX}");
    len
}

/// [`Perm::wire_weight_key`], by the byte kernel where it runs.
#[inline]
pub(crate) fn wire_weight_key(f: Perm) -> u64 {
    shuffle::wire_weight_key(f).unwrap_or_else(|| f.wire_weight_key())
}

/// [`Perm::cycle_type_key`], by the byte kernel where it runs.
#[inline]
pub(crate) fn cycle_type_key(f: Perm) -> u64 {
    shuffle::cycle_type_key(f).unwrap_or_else(|| f.cycle_type_key())
}
