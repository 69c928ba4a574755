//! Binary persistence of [`SearchTables`] — now checkpointed and
//! extendable in place.
//!
//! The paper computes the k = 9 tables once (~3 h) and thereafter loads
//! them from disk (§4.1: 1111 seconds to load 43 GB into RAM; §5 estimates
//! ~5 minutes at modern transfer rates); the follow-up deep sweeps
//! (arXiv:1103.2686) restart interrupted multi-hour generations instead of
//! recomputing. Format **version 4** supports exactly that workflow: the
//! file is a header plus an append-only sequence of per-level records,
//! with a small fixed-position trailer naming the completed prefix, so a
//! generation interrupted at level `k` loses only the in-flight level and
//! [`SearchTables::resume_checkpointed`] continues from the deepest
//! completed one.
//!
//! ```text
//! magic    8 B  "RVSYNTB4"
//! n        1 B  wire count (2..=4)
//! reserved 1 B  zero
//! lib_len  2 B  number of gates in the library (LE)
//! gates    lib_len B  (controls << 2) | target, bit 7 clear
//! model    4 × 8 B  per-control-count gate costs (LE; 1,1,1,1 = unit)
//! hdr_fnv  8 B  FNV-1a of every preceding byte (LE)
//! trailer  (fixed offset, rewritten in place after every level)
//!   levels       8 B  number of completed level records
//!   payload_end  8 B  file offset one past the last completed record
//!   trailer_fnv  8 B  FNV-1a of the 16 trailer bytes above
//! levels   append-only; for each completed level:
//!   cost    8 B (LE; strictly ascending from 0 — the bucket cost)
//!   count   8 B (LE)
//!   keys    count × 8 B (LE, sorted ascending)
//!   values  count × 1 B
//!   rec_fnv 8 B  FNV-1a of this record's preceding bytes
//! ```
//!
//! The checkpoint protocol is write-level → fsync → rewrite trailer →
//! fsync, so at any instant the bytes before `payload_end` form a valid
//! store and anything after it is an ignorable torn tail. Resuming
//! truncates the tail and appends, which keeps a resumed file
//! **byte-identical** to an uninterrupted run.
//!
//! Loading validates everything it can cheaply validate: magic, header
//! ranges, gate encodings, permutation keys, key ordering, value records,
//! and the checksums. The hash table is rebuilt by reinsertion.
//!
//! Format **version 5** ("RVSYNTB5") is the mmap-friendly layout: the
//! same header as v4, then a checksummed meta block (level costs/counts,
//! table shapes, a section table), then page-aligned contiguous
//! little-endian sections — concatenated level keys, level values, the
//! hash table's slot arrays, and the invariant index's slot arrays and
//! prefilter bitmap:
//!
//! ```text
//! header   as v4, magic "RVSYNTB5"
//! meta     level_count, total_classes, hash/index shapes and
//!          empty-slot witnesses, per-level (cost, count) pairs,
//!          7 × (offset, byte_len, fnv) section descriptors, meta_fnv
//! S0..S6   4096-aligned: level keys (u64), level values (u8),
//!          fn keys (u64), fn values (u8), inv keys (u64),
//!          inv masks (u32), inv weight bitmap (u64)
//! ```
//!
//! A v5 load maps the file and borrows every array zero-copy
//! (milliseconds at any size; one physical copy shared by every process
//! serving the same store). The fast path eagerly verifies the header
//! and meta checksums, the section layout (recomputed from the counts,
//! so no descriptor can point outside the file or overlap), and the
//! empty-slot witnesses that guarantee probe termination; the bulk
//! section checksums are deferred to [`load_validated`] (`tables
//! verify`) and the upgrade path. The v5 bytes are a deterministic
//! function of the logical tables: the hash table is canonically rebuilt
//! at save time (sorted level-order insertion) and the invariant index
//! compacted, so equal tables always serialize identically.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use revsynth_circuit::{CostModel, Gate, GateLib};
use revsynth_mmap::{ArcSlice, Region};
use revsynth_perm::Perm;
use revsynth_table::{FnTable, InvariantIndex};

use crate::info::{decode_stored, StoredGate, IDENTITY_BYTE};
use crate::tables::{Levels, SearchTables};
use crate::weighted::MAX_BUCKETS;

const MAGIC_V4: &[u8; 8] = b"RVSYNTB4";
const MAGIC_V5: &[u8; 8] = b"RVSYNTB5";

/// Section alignment of the v5 layout: one page, so every mapped array
/// starts page- (and thus element-) aligned.
const V5_ALIGN: u64 = 4096;
/// Number of data sections in a v5 file (see the module docs).
const V5_SECTIONS: usize = 7;
/// Fixed u64 fields at the start of the v5 meta block.
const V5_META_FIXED: usize = 10;

/// Buffer size for the load/save/digest paths. The default 8 KiB
/// `BufReader` turned a 190 MB k = 7 load into ~24k syscalls; 1 MiB
/// keeps the sequential scan I/O-bound instead of syscall-bound.
const IO_BUF: usize = 1 << 20;

/// Error returned by [`SearchTables::load`], [`save`](SearchTables::save)
/// and the checkpoint/resume paths. Always names the offending file so a
/// CI failure (or an operator) can tell *which* artifact is bad.
#[derive(Debug)]
pub struct StoreError {
    path: PathBuf,
    kind: StoreErrorKind,
}

/// What went wrong with a table store file (see [`StoreError`]).
#[derive(Debug)]
pub enum StoreErrorKind {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with a known format magic.
    BadMagic,
    /// A header field is out of range.
    BadHeader(String),
    /// The fixed-position checkpoint trailer is truncated or inconsistent.
    BadTrailer(String),
    /// The body is structurally invalid (bad gate, bad key, bad record…).
    Corrupt(String),
    /// An FNV-1a checksum does not match the content it covers.
    ChecksumMismatch,
}

impl StoreError {
    pub(crate) fn new(path: &Path, kind: StoreErrorKind) -> Self {
        StoreError {
            path: path.to_path_buf(),
            kind,
        }
    }

    /// The file the failed operation was reading or writing.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The failure itself, independent of which file it hit.
    #[must_use]
    pub fn kind(&self) -> &StoreErrorKind {
        &self.kind
    }
}

impl fmt::Display for StoreErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreErrorKind::Io(e) => write!(f, "i/o error: {e}"),
            StoreErrorKind::BadMagic => write!(f, "not a revsynth table store (bad magic)"),
            StoreErrorKind::BadHeader(msg) => write!(f, "invalid header: {msg}"),
            StoreErrorKind::BadTrailer(msg) => write!(f, "invalid checkpoint trailer: {msg}"),
            StoreErrorKind::Corrupt(msg) => write!(f, "corrupted store: {msg}"),
            StoreErrorKind::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table store {}: {}", self.path.display(), self.kind)
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            StoreErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreErrorKind {
    fn from(e: io::Error) -> Self {
        StoreErrorKind::Io(e)
    }
}

/// Incremental FNV-1a 64-bit hasher (tiny, dependency-free; collisions are
/// irrelevant here — the checksums only guard against torn/corrupted
/// files, not adversaries).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv1a_of(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv1a::new();
    fnv.update(bytes);
    fnv.finish()
}

/// FNV-1a 64-bit digest of an entire file's bytes — the "store digest"
/// the CI pipeline pins: resumed and uninterrupted generations must agree
/// on it bit for bit.
///
/// # Errors
///
/// Propagates I/O failures (with the path attached).
pub fn file_digest<P: AsRef<Path>>(path: P) -> Result<u64, StoreError> {
    let path = path.as_ref();
    let wrap = |e: io::Error| StoreError::new(path, e.into());
    let mut reader = BufReader::with_capacity(IO_BUF, File::open(path).map_err(wrap)?);
    let mut fnv = Fnv1a::new();
    let mut buf = [0u8; 1 << 16];
    loop {
        let got = reader.read(&mut buf).map_err(wrap)?;
        if got == 0 {
            return Ok(fnv.finish());
        }
        fnv.update(&buf[..got]);
    }
}

struct HashingWriter<W: Write> {
    inner: W,
    fnv: Fnv1a,
}

impl<W: Write> HashingWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fnv.update(bytes);
        self.inner.write_all(bytes)
    }
    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
}

struct HashingReader<R: Read> {
    inner: R,
    fnv: Fnv1a,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            fnv: Fnv1a::new(),
        }
    }
    fn take(&mut self, buf: &mut [u8]) -> Result<(), StoreErrorKind> {
        self.inner.read_exact(buf)?;
        self.fnv.update(buf);
        Ok(())
    }
    fn take_u64(&mut self) -> Result<u64, StoreErrorKind> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn take_u8(&mut self) -> Result<u8, StoreErrorKind> {
        let mut b = [0u8; 1];
        self.take(&mut b)?;
        Ok(b[0])
    }
    /// Restarts the running hash (v4 hashes each record independently).
    fn reset_fnv(&mut self) {
        self.fnv = Fnv1a::new();
    }
    fn fnv_value(&self) -> u64 {
        self.fnv.finish()
    }
}

// ---------------------------------------------------------------------------
// Shared header/level validation
// ---------------------------------------------------------------------------

/// Validates and decodes the gate-library bytes of the v4/v5 header.
fn decode_library(n: usize, bytes: &[u8]) -> Result<GateLib, StoreErrorKind> {
    let mut gates = Vec::with_capacity(bytes.len());
    for (i, &byte) in bytes.iter().enumerate() {
        if byte & 0x80 != 0 {
            return Err(StoreErrorKind::Corrupt(format!(
                "gate byte {i} has bit 7 set"
            )));
        }
        let gate = Gate::new((byte >> 2) & 0x0F, byte & 0x03)
            .map_err(|e| StoreErrorKind::Corrupt(format!("gate byte {i}: {e}")))?;
        if usize::from(gate.max_wire()) >= n {
            return Err(StoreErrorKind::Corrupt(format!(
                "gate {gate} touches a wire outside the {n}-wire domain"
            )));
        }
        gates.push(gate);
    }
    let lib = GateLib::from_gates(n, &gates);
    if lib.len() != bytes.len() {
        return Err(StoreErrorKind::Corrupt("duplicate gates in library".into()));
    }
    Ok(lib)
}

/// Validates a cost-model block: zero would violate `CostModel`'s
/// positivity invariant (and panic in `custom`); any positive cost a
/// writer could produce must round-trip — corruption is caught by the
/// checksums.
fn decode_model(costs: [u64; 4]) -> Result<CostModel, StoreErrorKind> {
    for (controls, &c) in costs.iter().enumerate() {
        if c == 0 {
            return Err(StoreErrorKind::BadHeader(format!(
                "zero gate cost for {controls} controls"
            )));
        }
    }
    Ok(CostModel::custom(costs))
}

/// Structural checks shared by both loaders for one level's keys/values.
fn check_level(i: usize, keys: &[Perm], values: &[u8]) -> Result<(), StoreErrorKind> {
    debug_assert_eq!(keys.len(), values.len());
    for (j, w) in keys.windows(2).enumerate() {
        if w[1] <= w[0] {
            return Err(StoreErrorKind::Corrupt(format!(
                "level {i} keys not strictly ascending at index {}",
                j + 1
            )));
        }
    }
    for (j, &byte) in values.iter().enumerate() {
        match decode_stored(byte) {
            Some(StoredGate::Identity) if i == 0 => {}
            Some(StoredGate::Gate { .. }) if i > 0 => {}
            _ => {
                return Err(StoreErrorKind::Corrupt(format!(
                    "level {i} value {j} (byte {byte:#04x}) is invalid for this level"
                )))
            }
        }
    }
    Ok(())
}

/// Assembles the loaded level pairs into `SearchTables`, rebuilding the
/// hash table by reinsertion (shared final step of both loaders).
fn assemble_loaded(
    lib: GateLib,
    model: CostModel,
    pairs: Vec<(Vec<Perm>, Vec<u8>)>,
    bucket_costs: Vec<u64>,
) -> Result<SearchTables, StoreErrorKind> {
    if pairs.is_empty() || pairs[0].0 != [Perm::identity()] || pairs[0].1 != [IDENTITY_BYTE] {
        return Err(StoreErrorKind::Corrupt(
            "level 0 must be exactly the identity".into(),
        ));
    }
    let n = lib.wires();
    let total: usize = pairs.iter().map(|(keys, _)| keys.len()).sum();
    let mut table = FnTable::for_entries(total);
    let mut levels = Vec::with_capacity(pairs.len());
    for (keys, values) in pairs {
        for (&key, &value) in keys.iter().zip(&values) {
            if !table.insert_if_absent(key, value) {
                return Err(StoreErrorKind::Corrupt(format!(
                    "duplicate representative {key} across levels"
                )));
            }
        }
        levels.push(keys);
    }
    Ok(SearchTables::assemble_weighted(
        lib,
        crate::symmetries(n),
        model,
        table,
        levels,
        bucket_costs,
    ))
}

/// Reads and range-checks a level's count field. `body_bytes` is the
/// number of file bytes that could possibly hold this level's keys and
/// values (9 bytes per entry), so a corrupted count yields a typed error
/// before `Vec::with_capacity` can attempt a multi-terabyte allocation.
fn read_count<R: Read>(
    r: &mut HashingReader<R>,
    i: usize,
    body_bytes: u64,
) -> Result<usize, StoreErrorKind> {
    let count = r.take_u64()?;
    let max = body_bytes / 9;
    if count > max {
        return Err(StoreErrorKind::Corrupt(format!(
            "level {i} count {count} exceeds the {max} entries the remaining file bytes could hold"
        )));
    }
    usize::try_from(count)
        .map_err(|_| StoreErrorKind::Corrupt(format!("level {i} count overflows")))
}

/// Reads one level's keys and values and runs the structural checks.
fn read_level_body<R: Read>(
    r: &mut HashingReader<R>,
    i: usize,
    count: usize,
) -> Result<(Vec<Perm>, Vec<u8>), StoreErrorKind> {
    let mut keys = Vec::with_capacity(count);
    for j in 0..count {
        let packed = r.take_u64()?;
        let perm = Perm::from_packed(packed)
            .map_err(|e| StoreErrorKind::Corrupt(format!("level {i} key {j}: {e}")))?;
        keys.push(perm);
    }
    let mut values = vec![0u8; count];
    if count > 0 {
        r.take(&mut values)?;
    }
    check_level(i, &keys, &values)?;
    Ok((keys, values))
}

// ---------------------------------------------------------------------------
// Version 4: checkpointed, extendable in place
// ---------------------------------------------------------------------------

/// Encodes the header shared by v4 and v5: magic, n, reserved, library
/// size, gate bytes, cost model, header FNV.
fn encode_header(magic: &[u8; 8], lib: &GateLib, model: &CostModel) -> Vec<u8> {
    let mut header = Vec::with_capacity(64 + lib.len());
    header.extend_from_slice(magic);
    header.push(lib.wires() as u8);
    header.push(0); // reserved
    let lib_len = u16::try_from(lib.len()).expect("library fits u16");
    header.extend_from_slice(&lib_len.to_le_bytes());
    for (_, gate, _) in lib.iter() {
        header.push((gate.controls() << 2) | gate.target());
    }
    for controls in 0..4 {
        header.extend_from_slice(&model.cost_of_controls(controls).to_le_bytes());
    }
    let header_fnv = fnv1a_of(&header);
    header.extend_from_slice(&header_fnv.to_le_bytes());
    header
}

/// Size of the fixed trailer: levels (8) + payload_end (8) + fnv (8).
const TRAILER_LEN: u64 = 24;

/// Byte layout of the v4 header for a given library size.
fn trailer_offset(lib_len: usize) -> u64 {
    // magic 8 + n 1 + reserved 1 + lib_len 2 + gates + model 32 + fnv 8
    52 + lib_len as u64
}

fn encode_trailer(levels: u64, payload_end: u64) -> [u8; TRAILER_LEN as usize] {
    let mut out = [0u8; TRAILER_LEN as usize];
    out[..8].copy_from_slice(&levels.to_le_bytes());
    out[8..16].copy_from_slice(&payload_end.to_le_bytes());
    let fnv = fnv1a_of(&out[..16]);
    out[16..].copy_from_slice(&fnv.to_le_bytes());
    out
}

/// v4 metadata carried alongside a loaded `SearchTables` so a resume can
/// pick up writing where the completed prefix ends.
pub(crate) struct V4Meta {
    pub(crate) trailer_offset: u64,
    pub(crate) payload_end: u64,
    pub(crate) levels_complete: u64,
}

/// Incremental writer of the v4 format: create (or resume) a store, then
/// append one record per completed level. With `durable` set, every
/// append is write → fsync → rewrite trailer → fsync, so an interrupt at
/// any instant leaves a loadable store holding every completed level.
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    file: File,
    trailer_offset: u64,
    payload_end: u64,
    levels_complete: u64,
    durable: bool,
}

impl CheckpointWriter {
    /// Creates (truncating) a fresh v4 store holding the header and an
    /// empty-prefix trailer; level records follow via
    /// [`append_level`](Self::append_level).
    pub(crate) fn create(
        path: &Path,
        lib: &GateLib,
        model: &CostModel,
        durable: bool,
    ) -> Result<Self, StoreError> {
        let wrap = |e: io::Error| StoreError::new(path, e.into());
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(wrap)?;
        let mut header = encode_header(MAGIC_V4, lib, model);
        let trailer_offset = trailer_offset(lib.len());
        debug_assert_eq!(header.len() as u64, trailer_offset);
        let payload_end = trailer_offset + TRAILER_LEN;
        header.extend_from_slice(&encode_trailer(0, payload_end));
        let mut w = BufWriter::new(&file);
        w.write_all(&header).map_err(wrap)?;
        w.flush().map_err(wrap)?;
        drop(w);
        if durable {
            file.sync_data().map_err(wrap)?;
        }
        Ok(CheckpointWriter {
            path: path.to_path_buf(),
            file,
            trailer_offset,
            payload_end,
            levels_complete: 0,
            durable,
        })
    }

    /// Reopens an existing v4 store for appending: loads it, drops any
    /// torn tail beyond the trailer's `payload_end`, and positions the
    /// writer after the last completed level.
    pub(crate) fn resume(path: &Path, durable: bool) -> Result<(SearchTables, Self), StoreError> {
        let (tables, meta) = load_v4_with_meta(path)?;
        let wrap = |e: io::Error| StoreError::new(path, e.into());
        let file = OpenOptions::new().write(true).open(path).map_err(wrap)?;
        // Drop the torn in-flight level (if any) so appended levels land
        // exactly where an uninterrupted run would have put them.
        file.set_len(meta.payload_end).map_err(wrap)?;
        if durable {
            file.sync_data().map_err(wrap)?;
        }
        Ok((
            tables,
            CheckpointWriter {
                path: path.to_path_buf(),
                file,
                trailer_offset: meta.trailer_offset,
                payload_end: meta.payload_end,
                levels_complete: meta.levels_complete,
                durable,
            },
        ))
    }

    /// Appends one completed level (cost bucket) and republishes the
    /// trailer. On return (durable mode) the record is on disk and the
    /// store loads with this level included.
    pub(crate) fn append_level(
        &mut self,
        cost: u64,
        level: &[Perm],
        table: &FnTable,
    ) -> Result<(), StoreError> {
        let wrap = |e: io::Error| StoreError::new(&self.path, e.into());
        (&self.file)
            .seek(SeekFrom::Start(self.payload_end))
            .map_err(wrap)?;
        let mut w = HashingWriter {
            inner: BufWriter::new(&self.file),
            fnv: Fnv1a::new(),
        };
        let mut body = || -> io::Result<()> {
            w.put_u64(cost)?;
            w.put_u64(level.len() as u64)?;
            for &rep in level {
                w.put_u64(rep.packed())?;
            }
            for &rep in level {
                let byte = table.get(rep).expect("every level member is in the table");
                w.put(&[byte])?;
            }
            let rec_fnv = w.fnv.finish();
            w.inner.write_all(&rec_fnv.to_le_bytes())?;
            w.inner.flush()
        };
        body().map_err(wrap)?;
        if self.durable {
            self.file.sync_data().map_err(wrap)?;
        }
        self.payload_end += 24 + 9 * level.len() as u64;
        self.levels_complete += 1;
        (&self.file)
            .seek(SeekFrom::Start(self.trailer_offset))
            .map_err(wrap)?;
        (&self.file)
            .write_all(&encode_trailer(self.levels_complete, self.payload_end))
            .map_err(wrap)?;
        if self.durable {
            self.file.sync_data().map_err(wrap)?;
        }
        Ok(())
    }
}

/// One-shot v4 write of fully built tables (same bytes as checkpointed
/// generation of the same tables, minus the fsyncs).
pub(crate) fn save(tables: &SearchTables, path: &Path) -> Result<(), StoreError> {
    let mut w = CheckpointWriter::create(path, &tables.lib, &tables.model, false)?;
    for (i, level) in tables.levels.iter().enumerate() {
        w.append_level(tables.bucket_costs[i], level, &tables.table)?;
    }
    Ok(())
}

/// Reads and validates the v4 header, returning `(lib, model)` and
/// leaving `r` positioned at the trailer.
fn read_v4_header(
    r: &mut HashingReader<impl Read>,
) -> Result<(GateLib, CostModel), StoreErrorKind> {
    let n = usize::from(r.take_u8()?);
    let reserved = r.take_u8()?;
    if !(2..=4).contains(&n) {
        return Err(StoreErrorKind::BadHeader(format!("wire count {n}")));
    }
    if reserved != 0 {
        return Err(StoreErrorKind::BadHeader(format!(
            "reserved byte {reserved:#04x} is nonzero"
        )));
    }
    let mut lib_len_bytes = [0u8; 2];
    r.take(&mut lib_len_bytes)?;
    let lib_len = usize::from(u16::from_le_bytes(lib_len_bytes));
    if lib_len == 0 || lib_len > 127 {
        return Err(StoreErrorKind::BadHeader(format!("library size {lib_len}")));
    }
    let mut gate_bytes = vec![0u8; lib_len];
    r.take(&mut gate_bytes)?;
    let lib = decode_library(n, &gate_bytes)?;
    let mut costs = [0u64; 4];
    for slot in costs.iter_mut() {
        *slot = r.take_u64()?;
    }
    let model = decode_model(costs)?;
    let computed = r.fnv_value();
    let mut fnv_bytes = [0u8; 8];
    r.inner.read_exact(&mut fnv_bytes)?;
    if u64::from_le_bytes(fnv_bytes) != computed {
        return Err(StoreErrorKind::ChecksumMismatch);
    }
    Ok((lib, model))
}

/// Reads and validates the trailer, returning `(levels, payload_end)`.
fn read_trailer(inner: &mut impl Read) -> Result<(u64, u64), StoreErrorKind> {
    let mut trailer = [0u8; TRAILER_LEN as usize];
    inner.read_exact(&mut trailer).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreErrorKind::BadTrailer("file truncated inside the trailer".into())
        } else {
            e.into()
        }
    })?;
    let fnv = u64::from_le_bytes(trailer[16..24].try_into().expect("8 bytes"));
    if fnv != fnv1a_of(&trailer[..16]) {
        return Err(StoreErrorKind::BadTrailer(
            "trailer checksum mismatch (torn or corrupted checkpoint)".into(),
        ));
    }
    let levels = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let payload_end = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    Ok((levels, payload_end))
}

fn load_v4_with_meta(path: &Path) -> Result<(SearchTables, V4Meta), StoreError> {
    let kind_err = |kind: StoreErrorKind| StoreError::new(path, kind);
    let file = File::open(path).map_err(|e| kind_err(e.into()))?;
    let file_len = file.metadata().map_err(|e| kind_err(e.into()))?.len();
    let mut r = HashingReader::new(BufReader::with_capacity(IO_BUF, file));
    let mut magic = [0u8; 8];
    r.take(&mut magic).map_err(kind_err)?;
    if &magic != MAGIC_V4 {
        return Err(kind_err(StoreErrorKind::BadMagic));
    }
    load_v4_body(&mut r, file_len).map_err(kind_err)
}

fn load_v4_body(
    r: &mut HashingReader<BufReader<File>>,
    file_len: u64,
) -> Result<(SearchTables, V4Meta), StoreErrorKind> {
    let (lib, model) = read_v4_header(r)?;
    let trailer_offset = trailer_offset(lib.len());
    let (levels_complete, payload_end) = read_trailer(&mut r.inner)?;
    let unit = model == CostModel::unit();
    let max_levels = if unit { 17 } else { MAX_BUCKETS as u64 };
    if levels_complete == 0 || levels_complete > max_levels {
        return Err(StoreErrorKind::BadTrailer(format!(
            "{levels_complete} completed levels is outside 1..={max_levels}"
        )));
    }
    let payload_start = trailer_offset + TRAILER_LEN;
    if payload_end < payload_start || payload_end > file_len {
        return Err(StoreErrorKind::BadTrailer(format!(
            "payload end {payload_end} is outside the file (length {file_len})"
        )));
    }

    let mut offset = payload_start;
    let mut bucket_costs: Vec<u64> = Vec::with_capacity(levels_complete as usize);
    let mut pairs: Vec<(Vec<Perm>, Vec<u8>)> = Vec::with_capacity(levels_complete as usize);
    for i in 0..levels_complete as usize {
        r.reset_fnv();
        let cost = r.take_u64()?;
        let ascending = match bucket_costs.last() {
            None => cost == 0,
            Some(&prev) => cost > prev,
        };
        if !ascending {
            return Err(StoreErrorKind::Corrupt(format!(
                "bucket {i} cost {cost} does not ascend strictly from 0"
            )));
        }
        if unit && cost != i as u64 {
            return Err(StoreErrorKind::Corrupt(format!(
                "unit-model bucket {i} labeled cost {cost}"
            )));
        }
        bucket_costs.push(cost);
        // The record is cost (8, read) + count (8) + bodies + fnv (8):
        // bodies can occupy at most what's left before payload_end.
        let body_bytes = payload_end.saturating_sub(offset + 24);
        let count = read_count(r, i, body_bytes)?;
        let record_len = 24 + 9 * count as u64;
        if offset + record_len > payload_end {
            return Err(StoreErrorKind::Corrupt(format!(
                "level {i} record overruns the checkpointed payload"
            )));
        }
        let (keys, values) = read_level_body(r, i, count)?;
        let computed = r.fnv_value();
        let mut fnv_bytes = [0u8; 8];
        r.inner.read_exact(&mut fnv_bytes)?;
        if u64::from_le_bytes(fnv_bytes) != computed {
            return Err(StoreErrorKind::ChecksumMismatch);
        }
        offset += record_len;
        pairs.push((keys, values));
    }
    if offset != payload_end {
        return Err(StoreErrorKind::BadTrailer(format!(
            "completed records end at {offset}, trailer says {payload_end}"
        )));
    }
    // Bytes beyond payload_end are a torn in-flight level: legal, ignored.

    let mut tables = assemble_loaded(lib, model, pairs, bucket_costs)?;
    tables.source_format = Some(4);
    Ok((
        tables,
        V4Meta {
            trailer_offset,
            payload_end,
            levels_complete,
        },
    ))
}

/// Loads any format, dispatching on the magic: v5 is mapped zero-copy,
/// v4 is scanned and rebuilt.
pub(crate) fn load(path: &Path) -> Result<SearchTables, StoreError> {
    let kind_err = |kind: StoreErrorKind| StoreError::new(path, kind);
    let file = File::open(path).map_err(|e| kind_err(e.into()))?;
    let file_len = file.metadata().map_err(|e| kind_err(e.into()))?.len();
    let mut r = HashingReader::new(BufReader::with_capacity(IO_BUF, file));
    let mut magic = [0u8; 8];
    r.take(&mut magic).map_err(kind_err)?;
    if &magic == MAGIC_V5 {
        drop(r);
        return load_v5(path, false);
    }
    if &magic == MAGIC_V4 {
        return load_v4_body(&mut r, file_len)
            .map(|(tables, _)| tables)
            .map_err(kind_err);
    }
    Err(kind_err(StoreErrorKind::BadMagic))
}

/// Loads any format with *every* check enabled. For v5 this verifies all
/// section checksums and re-runs the structural validation the fast
/// mapped load defers; for v4 it is the ordinary (always-validating)
/// load. Backs `tables verify` and the upgrade path.
pub(crate) fn load_validated(path: &Path) -> Result<SearchTables, StoreError> {
    if is_v5(path)? {
        load_v5(path, true)
    } else {
        load(path)
    }
}

/// Whether the file at `path` starts with the v5 magic.
pub(crate) fn is_v5(path: &Path) -> Result<bool, StoreError> {
    let mut magic = [0u8; 8];
    File::open(path)
        .and_then(|mut file| file.read_exact(&mut magic))
        .map_err(|e| StoreError::new(path, e.into()))?;
    Ok(&magic == MAGIC_V5)
}

// ---------------------------------------------------------------------------
// Version 5: mmap-friendly fixed layout, zero-copy load
// ---------------------------------------------------------------------------

/// Rounds `offset` up to the next multiple of `align` (a power of two),
/// with overflow reported as `None`.
fn align_up(offset: u64, align: u64) -> Option<u64> {
    debug_assert!(align.is_power_of_two());
    offset.checked_add(align - 1).map(|v| v & !(align - 1))
}

fn fnv_of_u64_iter(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut fnv = Fnv1a::new();
    for v in words {
        fnv.update(&v.to_le_bytes());
    }
    fnv.finish()
}

fn write_u64s<W: Write>(w: &mut W, words: impl IntoIterator<Item = u64>) -> io::Result<()> {
    const CHUNK: usize = 8 << 12;
    let mut buf = Vec::with_capacity(CHUNK);
    for v in words {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

fn write_u32s<W: Write>(w: &mut W, words: impl IntoIterator<Item = u32>) -> io::Result<()> {
    const CHUNK: usize = 4 << 12;
    let mut buf = Vec::with_capacity(CHUNK);
    for v in words {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

fn write_zeros<W: Write>(w: &mut W, n: u64) -> io::Result<()> {
    const ZEROS: [u8; 4096] = [0; 4096];
    let mut left = n;
    while left > 0 {
        let chunk = left.min(ZEROS.len() as u64) as usize;
        w.write_all(&ZEROS[..chunk])?;
        left -= chunk as u64;
    }
    Ok(())
}

/// Byte lengths of the seven v5 sections, in file order, from the table
/// shapes. `None` on (corrupt-meta) overflow.
fn v5_section_lens(
    total: u64,
    fn_cap: u64,
    inv_cap: u64,
    weight_words: u64,
) -> Option<[u64; V5_SECTIONS]> {
    Some([
        total.checked_mul(8)?,
        total,
        fn_cap.checked_mul(8)?,
        fn_cap,
        inv_cap.checked_mul(8)?,
        inv_cap.checked_mul(4)?,
        weight_words.checked_mul(8)?,
    ])
}

/// Section offsets and the exact total file length for the given header
/// length and section lengths. `None` on overflow.
fn v5_layout(
    header_len: u64,
    level_count: u64,
    lens: &[u64; V5_SECTIONS],
) -> Option<([u64; V5_SECTIONS], u64)> {
    let meta_len = 8 * (V5_META_FIXED as u64) + 16 * level_count + 24 * (V5_SECTIONS as u64) + 8;
    let mut offsets = [0u64; V5_SECTIONS];
    let mut end = header_len.checked_add(meta_len)?;
    for (slot, &len) in offsets.iter_mut().zip(lens) {
        *slot = align_up(end, V5_ALIGN)?;
        end = slot.checked_add(len)?;
    }
    Some((offsets, end))
}

/// Writes `tables` in the v5 format. The bytes are a pure function of
/// the logical contents: the hash table is canonically rebuilt (sorted
/// level-order insertion at the canonical capacity) and the invariant
/// index compacted, so any two equal tables — generated, loaded, or
/// upgraded — produce identical files.
pub(crate) fn save_v5(tables: &SearchTables, path: &Path) -> Result<(), StoreError> {
    write_v5(tables, path, false)
}

fn write_v5(tables: &SearchTables, path: &Path, durable: bool) -> Result<(), StoreError> {
    let wrap = |e: io::Error| StoreError::new(path, e.into());

    let total = tables.levels.total();
    let level_values: Vec<Vec<u8>> = tables
        .levels
        .iter()
        .map(|level| {
            level
                .iter()
                .map(|&rep| {
                    tables
                        .table
                        .get(rep)
                        .expect("every level member is in the table")
                })
                .collect()
        })
        .collect();
    let mut fnt = FnTable::for_entries(total);
    for (level, values) in tables.levels.iter().zip(&level_values) {
        for (&rep, &value) in level.iter().zip(values) {
            fnt.insert_if_absent(rep, value);
        }
    }
    debug_assert_eq!(fnt.len(), total, "level lists hold distinct classes");
    let inv = tables.invariants.compact();

    let (fn_keys, fn_values) = fnt.slot_arrays();
    let (inv_keys, inv_masks) = inv.slot_arrays();
    let (weight_bits, weight_bit_mask) = inv.weight_bitmap();

    let header = encode_header(MAGIC_V5, &tables.lib, &tables.model);
    let level_count = tables.levels.len() as u64;
    let lens = v5_section_lens(
        total as u64,
        fn_keys.len() as u64,
        inv_keys.len() as u64,
        weight_bits.len() as u64,
    )
    .expect("in-memory table sizes cannot overflow u64");
    let (offsets, _file_len) = v5_layout(header.len() as u64, level_count, &lens)
        .expect("in-memory table sizes cannot overflow u64");

    // Checksum pass: hash exactly the bytes the write pass will emit.
    let level_keys = || {
        tables
            .levels
            .iter()
            .flat_map(|l| l.iter().map(|r| r.packed()))
    };
    let fnvs: [u64; V5_SECTIONS] = [
        fnv_of_u64_iter(level_keys()),
        {
            let mut fnv = Fnv1a::new();
            for values in &level_values {
                fnv.update(values);
            }
            fnv.finish()
        },
        fnv_of_u64_iter(fn_keys.iter().copied()),
        fnv1a_of(fn_values),
        fnv_of_u64_iter(inv_keys.iter().copied()),
        {
            let mut fnv = Fnv1a::new();
            for &m in inv_masks {
                fnv.update(&m.to_le_bytes());
            }
            fnv.finish()
        },
        fnv_of_u64_iter(weight_bits.iter().copied()),
    ];

    let mut meta = Vec::with_capacity(8 * V5_META_FIXED + 16 * level_count as usize + 176);
    for v in [
        level_count,
        total as u64,
        fnt.len() as u64,
        fn_keys.len() as u64,
        fnt.first_empty_slot() as u64,
        inv.len() as u64,
        inv_keys.len() as u64,
        inv.first_empty_slot() as u64,
        weight_bits.len() as u64,
        weight_bit_mask,
    ] {
        meta.extend_from_slice(&v.to_le_bytes());
    }
    for (i, level) in tables.levels.iter().enumerate() {
        meta.extend_from_slice(&tables.bucket_costs[i].to_le_bytes());
        meta.extend_from_slice(&(level.len() as u64).to_le_bytes());
    }
    for i in 0..V5_SECTIONS {
        meta.extend_from_slice(&offsets[i].to_le_bytes());
        meta.extend_from_slice(&lens[i].to_le_bytes());
        meta.extend_from_slice(&fnvs[i].to_le_bytes());
    }
    let meta_fnv = fnv1a_of(&meta);
    meta.extend_from_slice(&meta_fnv.to_le_bytes());

    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(wrap)?;
    let mut w = BufWriter::with_capacity(IO_BUF, &file);
    let mut body = || -> io::Result<()> {
        w.write_all(&header)?;
        w.write_all(&meta)?;
        let mut pos = (header.len() + meta.len()) as u64;
        write_zeros(&mut w, offsets[0] - pos)?;
        write_u64s(&mut w, level_keys())?;
        pos = offsets[0] + lens[0];
        write_zeros(&mut w, offsets[1] - pos)?;
        for values in &level_values {
            w.write_all(values)?;
        }
        pos = offsets[1] + lens[1];
        write_zeros(&mut w, offsets[2] - pos)?;
        write_u64s(&mut w, fn_keys.iter().copied())?;
        pos = offsets[2] + lens[2];
        write_zeros(&mut w, offsets[3] - pos)?;
        w.write_all(fn_values)?;
        pos = offsets[3] + lens[3];
        write_zeros(&mut w, offsets[4] - pos)?;
        write_u64s(&mut w, inv_keys.iter().copied())?;
        pos = offsets[4] + lens[4];
        write_zeros(&mut w, offsets[5] - pos)?;
        write_u32s(&mut w, inv_masks.iter().copied())?;
        pos = offsets[5] + lens[5];
        write_zeros(&mut w, offsets[6] - pos)?;
        write_u64s(&mut w, weight_bits.iter().copied())?;
        w.flush()
    };
    body().map_err(wrap)?;
    drop(w);
    if durable {
        file.sync_data().map_err(wrap)?;
    }
    Ok(())
}

/// Bounds-checked little-endian field reader over the mapped bytes.
struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteCursor<'_> {
    fn u64(&mut self) -> Result<u64, StoreErrorKind> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                StoreErrorKind::Corrupt("file truncated inside the meta block".into())
            })?;
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }
}

/// Loads a v5 store by mapping it and borrowing every array zero-copy.
///
/// The fast path (`validate_all == false`) verifies the header and meta
/// checksums, recomputes the whole section layout from the counts
/// (rejecting any descriptor that disagrees — no offset can point
/// outside the file, overlap another section, or imply an oversized
/// allocation), and checks the empty-slot witnesses and the level-0
/// identity. `validate_all` adds every section checksum plus the full
/// structural validation the v4 loader performs.
fn load_v5(path: &Path, validate_all: bool) -> Result<SearchTables, StoreError> {
    let kind_err = |kind: StoreErrorKind| StoreError::new(path, kind);
    if cfg!(target_endian = "big") {
        return Err(kind_err(StoreErrorKind::BadHeader(
            "v5 stores are little-endian zero-copy and this host is big-endian; \
             load the store on a little-endian host or use a v4 store"
                .into(),
        )));
    }
    let mut file = File::open(path).map_err(|e| kind_err(e.into()))?;
    let region = Arc::new(Region::map_file(&mut file).map_err(|e| kind_err(e.into()))?);
    drop(file);
    load_v5_mapped(&region, validate_all).map_err(kind_err)
}

#[allow(clippy::too_many_lines)]
fn load_v5_mapped(
    region: &Arc<Region>,
    validate_all: bool,
) -> Result<SearchTables, StoreErrorKind> {
    let bytes = region.bytes();
    if bytes.len() < 8 {
        return Err(StoreErrorKind::BadMagic);
    }
    if &bytes[..8] != MAGIC_V5 {
        return Err(StoreErrorKind::BadMagic);
    }
    let mut r = HashingReader::new(&bytes[8..]);
    r.fnv.update(MAGIC_V5);
    let (lib, model) = read_v4_header(&mut r)?;
    let header_len = 52 + lib.len();

    // --- meta block ---
    let mut c = ByteCursor {
        bytes,
        pos: header_len,
    };
    let level_count = c.u64()?;
    let total_classes = c.u64()?;
    let fn_len = c.u64()?;
    let fn_cap = c.u64()?;
    let fn_empty = c.u64()?;
    let inv_len = c.u64()?;
    let inv_cap = c.u64()?;
    let inv_empty = c.u64()?;
    let weight_words = c.u64()?;
    let weight_bit_mask = c.u64()?;
    let unit = model == CostModel::unit();
    let max_levels = if unit { 17 } else { MAX_BUCKETS as u64 };
    if level_count == 0 || level_count > max_levels {
        return Err(StoreErrorKind::BadHeader(format!(
            "{level_count} levels is outside 1..={max_levels}"
        )));
    }
    let mut bucket_costs: Vec<u64> = Vec::with_capacity(level_count as usize);
    let mut counts: Vec<u64> = Vec::with_capacity(level_count as usize);
    for i in 0..level_count as usize {
        let cost = c.u64()?;
        let count = c.u64()?;
        let ascending = match bucket_costs.last() {
            None => cost == 0,
            Some(&prev) => cost > prev,
        };
        if !ascending {
            return Err(StoreErrorKind::Corrupt(format!(
                "bucket {i} cost {cost} does not ascend strictly from 0"
            )));
        }
        if unit && cost != i as u64 {
            return Err(StoreErrorKind::Corrupt(format!(
                "unit-model bucket {i} labeled cost {cost}"
            )));
        }
        bucket_costs.push(cost);
        counts.push(count);
    }
    let mut descs = [(0u64, 0u64, 0u64); V5_SECTIONS];
    for d in &mut descs {
        *d = (c.u64()?, c.u64()?, c.u64()?);
    }
    let hashed_end = c.pos;
    let stored_meta_fnv = c.u64()?;
    if fnv1a_of(&bytes[header_len..hashed_end]) != stored_meta_fnv {
        return Err(StoreErrorKind::ChecksumMismatch);
    }

    // --- layout: recompute from the counts and require exact agreement ---
    let total = counts.iter().try_fold(0u64, |acc, &c| {
        acc.checked_add(c)
            .ok_or_else(|| StoreErrorKind::Corrupt("level counts overflow".into()))
    })?;
    if total != total_classes {
        return Err(StoreErrorKind::Corrupt(format!(
            "level counts sum to {total}, meta says {total_classes}"
        )));
    }
    if fn_len != total_classes {
        return Err(StoreErrorKind::Corrupt(format!(
            "hash table holds {fn_len} entries for {total_classes} classes"
        )));
    }
    let lens = v5_section_lens(total_classes, fn_cap, inv_cap, weight_words)
        .ok_or_else(|| StoreErrorKind::Corrupt("section lengths overflow".into()))?;
    let (offsets, file_len) = v5_layout(header_len as u64, level_count, &lens)
        .ok_or_else(|| StoreErrorKind::Corrupt("section layout overflows".into()))?;
    if file_len != bytes.len() as u64 {
        return Err(StoreErrorKind::Corrupt(format!(
            "file length {} does not match the {file_len} bytes the layout requires",
            bytes.len()
        )));
    }
    for (i, &(off, len, _fnv)) in descs.iter().enumerate() {
        if (off, len) != (offsets[i], lens[i]) {
            return Err(StoreErrorKind::Corrupt(format!(
                "section {i} descriptor ({off}, {len}) does not match the recomputed \
                 layout ({}, {})",
                offsets[i], lens[i]
            )));
        }
    }

    // --- borrow the sections ---
    fn slice_err(what: &'static str) -> impl FnOnce(revsynth_mmap::SliceError) -> StoreErrorKind {
        move |e| StoreErrorKind::Corrupt(format!("{what}: {e}"))
    }
    let total_us = usize::try_from(total_classes)
        .map_err(|_| StoreErrorKind::Corrupt("class count overflows usize".into()))?;
    let level_keys = ArcSlice::<Perm>::new(Arc::clone(region), offsets[0] as usize, total_us)
        .map_err(slice_err("level keys"))?;
    let level_vals = ArcSlice::<u8>::new(Arc::clone(region), offsets[1] as usize, total_us)
        .map_err(slice_err("level values"))?;
    let fn_keys = ArcSlice::<u64>::new(Arc::clone(region), offsets[2] as usize, fn_cap as usize)
        .map_err(slice_err("hash keys"))?;
    let fn_vals = ArcSlice::<u8>::new(Arc::clone(region), offsets[3] as usize, fn_cap as usize)
        .map_err(slice_err("hash values"))?;
    let inv_keys = ArcSlice::<u64>::new(Arc::clone(region), offsets[4] as usize, inv_cap as usize)
        .map_err(slice_err("invariant keys"))?;
    let inv_masks = ArcSlice::<u32>::new(Arc::clone(region), offsets[5] as usize, inv_cap as usize)
        .map_err(slice_err("invariant masks"))?;
    let weight_bits = ArcSlice::<u64>::new(
        Arc::clone(region),
        offsets[6] as usize,
        weight_words as usize,
    )
    .map_err(slice_err("prefilter bitmap"))?;

    let mut level_slices = Vec::with_capacity(counts.len());
    let mut prefix = 0usize;
    for &count in &counts {
        let count = count as usize;
        level_slices.push(
            level_keys
                .slice(prefix, count)
                .map_err(slice_err("level sub-slice"))?,
        );
        prefix += count;
    }
    if level_slices[0].as_slice() != [Perm::identity()] || level_vals[0] != IDENTITY_BYTE {
        return Err(StoreErrorKind::Corrupt(
            "level 0 must be exactly the identity".into(),
        ));
    }

    let table = FnTable::from_mapped(
        fn_keys,
        fn_vals,
        fn_len as usize,
        usize::try_from(fn_empty)
            .map_err(|_| StoreErrorKind::Corrupt("empty-slot witness overflows".into()))?,
    )
    .map_err(|msg| StoreErrorKind::Corrupt(format!("hash table: {msg}")))?;
    let invariants = InvariantIndex::from_mapped(
        inv_keys,
        inv_masks,
        weight_bits,
        weight_bit_mask,
        inv_len as usize,
        usize::try_from(inv_empty)
            .map_err(|_| StoreErrorKind::Corrupt("empty-slot witness overflows".into()))?,
    )
    .map_err(|msg| StoreErrorKind::Corrupt(format!("invariant index: {msg}")))?;

    if validate_all {
        for &(off, len, fnv) in &descs {
            let section = &bytes[off as usize..(off + len) as usize];
            if fnv1a_of(section) != fnv {
                return Err(StoreErrorKind::ChecksumMismatch);
            }
        }
        // Alignment padding is not covered by any section checksum; it
        // must be all-zero so that every bit of the file is accounted
        // for (a flip anywhere is detected by *some* check here).
        let mut gap_start = hashed_end + 8;
        for i in 0..V5_SECTIONS {
            if bytes[gap_start..offsets[i] as usize]
                .iter()
                .any(|&b| b != 0)
            {
                return Err(StoreErrorKind::Corrupt(format!(
                    "nonzero padding before section {i}"
                )));
            }
            gap_start = (offsets[i] + lens[i]) as usize;
        }
        let mut prefix = 0usize;
        for (i, slice) in level_slices.iter().enumerate() {
            let keys = slice.as_slice();
            for (j, rep) in keys.iter().enumerate() {
                Perm::from_packed(rep.packed())
                    .map_err(|e| StoreErrorKind::Corrupt(format!("level {i} key {j}: {e}")))?;
            }
            let values = &level_vals[prefix..prefix + keys.len()];
            check_level(i, keys, values)?;
            for (&rep, &value) in keys.iter().zip(values) {
                if table.get(rep) != Some(value) {
                    return Err(StoreErrorKind::Corrupt(format!(
                        "level {i} representative {rep} missing from the hash table"
                    )));
                }
                if !invariants.admits(rep, i) {
                    return Err(StoreErrorKind::Corrupt(format!(
                        "level {i} representative {rep} rejected by the invariant index"
                    )));
                }
            }
            prefix += keys.len();
        }
        let (slot_keys, _) = table.slot_arrays();
        let nonempty = slot_keys.iter().filter(|&&k| k != u64::MAX).count() as u64;
        if nonempty != fn_len {
            return Err(StoreErrorKind::Corrupt(format!(
                "hash table holds {nonempty} occupied slots, meta says {fn_len}"
            )));
        }
        let (_, slot_masks) = invariants.slot_arrays();
        let inv_nonempty = slot_masks.iter().filter(|&&m| m != 0).count() as u64;
        if inv_nonempty != inv_len {
            return Err(StoreErrorKind::Corrupt(format!(
                "invariant index holds {inv_nonempty} occupied slots, meta says {inv_len}"
            )));
        }
    }

    let k = bucket_costs.len().saturating_sub(1);
    let sym = crate::symmetries(lib.wires());
    Ok(SearchTables {
        lib,
        sym,
        k,
        table,
        levels: Levels::from_mapped(level_slices),
        invariants,
        model,
        bucket_costs,
        source_format: Some(5),
    })
}

/// Upgrades the store at `path` to v5 in place: fully validates and
/// loads the existing store (any version), then
/// [replaces](replace_with_v5) it by the canonical v5 bytes.
pub(crate) fn upgrade(path: &Path) -> Result<(), StoreError> {
    replace_with_v5(&load_validated(path)?, path)
}

/// Writes `tables` as v5 to a sibling temporary file, fsyncs it, and
/// atomically renames it over `path`. A crash leaves either the old or
/// the new file intact; open mappings of the old file keep working (the
/// rename unlinks the name, not the inode).
pub(crate) fn replace_with_v5(tables: &SearchTables, path: &Path) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".v5-tmp");
    let tmp = PathBuf::from(tmp);
    write_v5(tables, &tmp, true).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        StoreError::new(path, e.into())
    })?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir).and_then(|d| d.sync_all()).ok();
    }
    Ok(())
}

/// Format-independent FNV-1a digest of the logical table contents:
/// wires, library, cost model, and every level's cost, keys and gate
/// records. Stores of the same tables in different formats agree on it.
pub(crate) fn content_digest(tables: &SearchTables) -> u64 {
    let mut fnv = Fnv1a::new();
    fnv.update(&[tables.lib.wires() as u8]);
    let lib_len = u16::try_from(tables.lib.len()).expect("library fits u16");
    fnv.update(&lib_len.to_le_bytes());
    for (_, gate, _) in tables.lib.iter() {
        fnv.update(&[(gate.controls() << 2) | gate.target()]);
    }
    for controls in 0..4 {
        fnv.update(&tables.model.cost_of_controls(controls).to_le_bytes());
    }
    for (i, level) in tables.levels.iter().enumerate() {
        fnv.update(&tables.bucket_costs[i].to_le_bytes());
        fnv.update(&(level.len() as u64).to_le_bytes());
        for &rep in level {
            fnv.update(&rep.packed().to_le_bytes());
        }
        for &rep in level {
            let byte = tables
                .table
                .get(rep)
                .expect("every level member is in the table");
            fnv.update(&[byte]);
        }
    }
    fnv.finish()
}

// ---------------------------------------------------------------------------
// Cheap store inspection (no key/value validation)
// ---------------------------------------------------------------------------

/// Summary of one level record as reported by [`SearchTables::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelInfo {
    /// The bucket cost labeling this level.
    pub cost: u64,
    /// Number of stored canonical representatives.
    pub classes: u64,
    /// Byte offset of the record in the file.
    pub offset: u64,
}

/// Header-and-trailer summary of a store file, gathered without reading
/// (or validating) the level bodies — cheap enough to poll while a
/// checkpointed generation is writing the same file.
#[derive(Debug, Clone)]
pub struct StoreInfo {
    /// Store format version (4 or 5).
    pub version: u8,
    /// Wire count.
    pub wires: usize,
    /// The cost model the levels were bucketed under.
    pub model: CostModel,
    /// Per-level cost and class count, in file order.
    pub levels: Vec<LevelInfo>,
    /// One past the last completed level record (v4: from the trailer;
    /// v5: the file length).
    pub payload_end: u64,
    /// Total file length; bytes in `payload_end..file_len` are a torn
    /// in-flight level on v4 files.
    pub file_len: u64,
}

impl StoreInfo {
    /// Total stored classes across all completed levels.
    #[must_use]
    pub fn total_classes(&self) -> u64 {
        self.levels.iter().map(|l| l.classes).sum()
    }
}

/// Walks the level records of any format without validating bodies.
pub(crate) fn peek(path: &Path) -> Result<StoreInfo, StoreError> {
    let kind_err = |kind: StoreErrorKind| StoreError::new(path, kind);
    let inner = || -> Result<StoreInfo, StoreErrorKind> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        let v5 = match &magic {
            m if m == MAGIC_V5 => true,
            m if m == MAGIC_V4 => false,
            _ => return Err(StoreErrorKind::BadMagic),
        };
        let mut head = [0u8; 2];
        file.read_exact(&mut head)?;
        let wires = usize::from(head[0]); // [n, reserved]
        let mut lib_len_bytes = [0u8; 2];
        file.read_exact(&mut lib_len_bytes)?;
        let lib_len = u64::from(u16::from_le_bytes(lib_len_bytes));
        file.seek(SeekFrom::Current(lib_len as i64))?;
        let mut model_bytes = [0u8; 32];
        file.read_exact(&mut model_bytes)?;
        let mut costs = [0u64; 4];
        for (slot, chunk) in costs.iter_mut().zip(model_bytes.chunks_exact(8)) {
            *slot = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        let model = decode_model(costs)?;
        if v5 {
            file.seek(SeekFrom::Current(8))?; // header fnv
            let mut fixed = [0u8; 8 * V5_META_FIXED];
            file.read_exact(&mut fixed)?;
            let word =
                |i: usize| u64::from_le_bytes(fixed[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            let level_count = word(0);
            let max_levels = if model == CostModel::unit() {
                17
            } else {
                MAX_BUCKETS as u64
            };
            if level_count == 0 || level_count > max_levels {
                return Err(StoreErrorKind::BadHeader(format!(
                    "{level_count} levels is outside 1..={max_levels}"
                )));
            }
            let mut pairs = vec![0u8; 16 * level_count as usize];
            file.read_exact(&mut pairs)?;
            // First section descriptor: offset of the concatenated keys.
            let mut desc = [0u8; 8];
            file.read_exact(&mut desc)?;
            let mut offset = u64::from_le_bytes(desc);
            let mut levels = Vec::with_capacity(level_count as usize);
            for chunk in pairs.chunks_exact(16) {
                let cost = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
                let classes = u64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
                if classes > file_len / 9 {
                    return Err(StoreErrorKind::Corrupt(format!(
                        "level count {classes} exceeds what the file could hold"
                    )));
                }
                levels.push(LevelInfo {
                    cost,
                    classes,
                    offset,
                });
                offset += 8 * classes;
            }
            return Ok(StoreInfo {
                version: 5,
                wires,
                model,
                levels,
                payload_end: file_len,
                file_len,
            });
        }
        file.seek(SeekFrom::Current(8))?; // header fnv
        let (count, payload_end) = read_trailer(&mut file)?;
        if payload_end > file_len {
            return Err(StoreErrorKind::BadTrailer(format!(
                "payload end {payload_end} is outside the file (length {file_len})"
            )));
        }
        let mut levels = Vec::with_capacity(count as usize);
        for i in 0..count {
            let offset = file.stream_position()?;
            if offset >= payload_end {
                return Err(StoreErrorKind::Corrupt(format!(
                    "level {i} record starts past the payload end"
                )));
            }
            let mut rec = [0u8; 16];
            file.read_exact(&mut rec)?;
            let cost = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let classes = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
            // Bound by the bytes actually left before payload_end (less
            // the record's cost, count and fnv) so a bitflipped count
            // cannot drive downstream allocations.
            let max = payload_end.saturating_sub(offset + 24) / 9;
            if classes > max {
                return Err(StoreErrorKind::Corrupt(format!(
                    "level {i} count {classes} exceeds the {max} entries the remaining bytes could hold"
                )));
            }
            file.seek(SeekFrom::Current((9 * classes + 8) as i64))?;
            levels.push(LevelInfo {
                cost,
                classes,
                offset,
            });
        }
        Ok(StoreInfo {
            version: 4,
            wires,
            model,
            levels,
            payload_end,
            file_len,
        })
    };
    inner().map_err(kind_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("revsynth-store-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let tables = SearchTables::generate(3, 4);
        let path = temp_path("roundtrip");
        tables.save(&path).unwrap();
        let loaded = SearchTables::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.wires(), 3);
        assert_eq!(loaded.k(), 4);
        assert_eq!(loaded.lib().len(), tables.lib().len());
        for i in 0..=4usize {
            assert_eq!(loaded.level(i), tables.level(i), "level {i}");
        }
        // Values survive too.
        for i in 0..=4usize {
            for &rep in loaded.level(i) {
                assert_eq!(loaded.lookup(rep), tables.lookup(rep));
            }
        }
    }

    #[test]
    fn save_load_rebuilds_identical_invariant_index() {
        // The load path assembles the invariant gate index from the level
        // lists just like the generate path; the rebuilt index must be
        // logically identical — same invariant keys, same distance masks,
        // same prefilter bitmap — or the gate would behave differently on
        // loaded tables than on freshly generated ones.
        for (n, k) in [(2usize, 4usize), (3, 3)] {
            let tables = SearchTables::generate(n, k);
            let path = temp_path(&format!("invindex-n{n}-k{k}"));
            tables.save(&path).unwrap();
            let loaded = SearchTables::load(&path).unwrap();
            std::fs::remove_file(&path).ok();

            assert_eq!(
                loaded.invariants(),
                tables.invariants(),
                "n={n} k={k}: rebuilt index diverged from the generate path"
            );
            // And the gate answers the same question on both: every stored
            // representative is admitted at exactly its own level.
            for (i, level) in tables.levels().iter().enumerate() {
                for &rep in level {
                    assert_eq!(
                        loaded.invariants().admits(rep, i),
                        tables.invariants().admits(rep, i),
                        "n={n} k={k} level {i} rep {rep}"
                    );
                    assert!(loaded.invariants().admits(rep, i));
                }
            }
        }
    }

    #[test]
    fn weighted_tables_roundtrip_with_cost_metadata() {
        use revsynth_circuit::{CostModel, GateLib};
        let tables = SearchTables::generate_weighted(GateLib::nct(3), CostModel::quantum(), 7);
        let path = temp_path("weighted");
        tables.save(&path).unwrap();
        let loaded = SearchTables::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(loaded.is_cost_bucketed());
        assert_eq!(loaded.model(), tables.model());
        assert_eq!(loaded.bucket_costs(), tables.bucket_costs());
        assert_eq!(loaded.levels(), tables.levels());
        assert_eq!(loaded.invariants(), tables.invariants());
        assert_eq!(loaded.cost_reach(), tables.cost_reach());
        for i in 0..loaded.levels().len() {
            for &rep in loaded.level(i) {
                assert_eq!(loaded.lookup(rep), tables.lookup(rep));
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        // The retired v3 magic ("RVSYNTB3", followed here by a v3 header's
        // n = 3, k = 3) is no longer a known format either.
        let path = temp_path("magic");
        for bytes in [&b"NOTATABLESTORE__"[..], &b"RVSYNTB3\x03\x03\x0c\x00"[..]] {
            std::fs::write(&path, bytes).unwrap();
            for err in [
                SearchTables::load(&path).unwrap_err(),
                SearchTables::load_validated(&path).unwrap_err(),
                SearchTables::peek(&path).unwrap_err(),
            ] {
                assert!(matches!(err.kind(), StoreErrorKind::BadMagic), "{err:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let tables = SearchTables::generate(2, 3);
        let path = temp_path("trunc");
        tables.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let err = SearchTables::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(
                err.kind(),
                StoreErrorKind::Io(_) | StoreErrorKind::Corrupt(_) | StoreErrorKind::BadTrailer(_)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn rejects_bitflip() {
        let tables = SearchTables::generate(2, 4);
        let path = temp_path("bitflip");
        tables.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = SearchTables::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        // Either the structural validation or a checksum catches it.
        assert!(
            matches!(
                err.kind(),
                StoreErrorKind::Corrupt(_)
                    | StoreErrorKind::ChecksumMismatch
                    | StoreErrorKind::BadHeader(_)
                    | StoreErrorKind::BadTrailer(_)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn v4_bitflipped_count_is_typed_error_not_oversized_alloc() {
        let tables = SearchTables::generate(2, 3);
        let path = temp_path("v4-count-flip");
        tables.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // v4: header (52 + lib) + trailer 24, then level 0's cost (8)
        // and count. Flipping byte 4 of the count asks for ~2^40 entries,
        // which must be refused before any allocation is sized by it.
        let count_off = 52 + tables.lib().len() + 24 + 8;
        bytes[count_off + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = SearchTables::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err.kind(), StoreErrorKind::Corrupt(_)),
            "unexpected error {err:?}"
        );
        assert!(
            err.to_string().contains("exceeds"),
            "count must be bounded by the remaining file bytes: {err}"
        );
    }

    #[test]
    fn v5_roundtrip_zero_copy() {
        let tables = SearchTables::generate(3, 3);
        let path = temp_path("v5-roundtrip");
        tables.save_v5(&path).unwrap();
        let loaded = SearchTables::load(&path).unwrap();
        assert_eq!(loaded.source_format(), Some(5));
        assert_eq!(loaded.levels(), tables.levels());
        assert_eq!(loaded.model(), tables.model());
        assert_eq!(loaded.invariants(), tables.invariants());
        assert_eq!(loaded.content_digest(), tables.content_digest());
        for i in 0..=3usize {
            for &rep in loaded.level(i) {
                assert_eq!(loaded.lookup(rep), tables.lookup(rep));
            }
        }
        // And the fully validating path agrees.
        let validated = SearchTables::load_validated(&path).unwrap();
        assert_eq!(validated.levels(), tables.levels());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn upgrade_is_atomic_and_byte_deterministic() {
        let tables = SearchTables::generate(3, 3);
        let path = temp_path("v5-upgrade");
        tables.save(&path).unwrap();
        let content_before = SearchTables::load(&path).unwrap().content_digest();
        SearchTables::upgrade(&path).unwrap();
        let first = std::fs::read(&path).unwrap();
        assert_eq!(&first[..8], MAGIC_V5);
        // Upgrading a v5 store is a canonical rewrite: byte-identical.
        SearchTables::upgrade(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "upgrade must be byte-deterministic");
        // Direct save_v5 of the same tables produces the same bytes too.
        let direct = temp_path("v5-direct");
        tables.save_v5(&direct).unwrap();
        assert_eq!(first, std::fs::read(&direct).unwrap());
        std::fs::remove_file(&direct).ok();
        let after = SearchTables::load(&path).unwrap();
        assert_eq!(after.content_digest(), content_before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peek_reads_v5_files() {
        let tables = SearchTables::generate(3, 3);
        let path = temp_path("peek-v5");
        tables.save_v5(&path).unwrap();
        let info = SearchTables::peek(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(info.version, 5);
        assert_eq!(info.wires, 3);
        assert_eq!(info.levels.len(), 4);
        for (i, level) in info.levels.iter().enumerate() {
            assert_eq!(level.cost, i as u64);
            assert_eq!(level.classes, tables.level(i).len() as u64);
        }
        assert_eq!(info.total_classes(), tables.num_representatives() as u64);
    }

    #[test]
    fn missing_file_is_io_error_with_path() {
        let path = temp_path("nonexistent");
        let err = SearchTables::load(&path).unwrap_err();
        assert!(matches!(err.kind(), StoreErrorKind::Io(_)));
        assert_eq!(err.path(), path);
        assert!(
            err.to_string().contains("nonexistent"),
            "error must name the file: {err}"
        );
    }

    #[test]
    fn peek_reports_levels_without_full_validation() {
        let tables = SearchTables::generate(3, 3);
        let path = temp_path("peek");
        tables.save(&path).unwrap();
        let info = SearchTables::peek(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(info.version, 4);
        assert_eq!(info.wires, 3);
        assert_eq!(info.levels.len(), 4);
        for (i, level) in info.levels.iter().enumerate() {
            assert_eq!(level.cost, i as u64);
            assert_eq!(level.classes, tables.level(i).len() as u64);
        }
        assert_eq!(info.total_classes(), tables.num_representatives() as u64);
        assert_eq!(info.payload_end, info.file_len);
    }
}
