//! Minimal, std-only read-only file mapping for zero-copy table loads.
//!
//! The v5 store format lays every table section out as a contiguous
//! little-endian array so that [`Region`] can hand the whole file to the
//! page cache and [`ArcSlice`] can reinterpret byte ranges as typed slices
//! without copying. The workspace carries no external dependencies, so the
//! `mmap(2)` call is issued through a raw syscall on the platforms we
//! support and falls back to an aligned heap read everywhere else — the
//! API is identical either way, only the load cost differs.
//!
//! # Safety argument (scoped to this crate)
//!
//! This is the only crate in the workspace that contains `unsafe` code
//! (`revsynth-perm`, `revsynth-canon`, `revsynth-table`, `revsynth-bfs`
//! and the rest all `#![forbid(unsafe_code)]`): besides the mapping, it
//! holds the raw-syscall networking of [`net`] (sockets, epoll and the
//! eventfd wakers of the serving event loops; its module docs carry the
//! descriptor and pointer arguments) and the SIMD kernels of [`shuffle`]
//! (canonicalization, and the meet-in-the-middle scan's candidate
//! batches and class keys). The argument for each use:
//!
//! * **Mapping lifetime.** A [`Region`] owns its mapping (or heap buffer)
//!   and unmaps it only in `Drop`. [`ArcSlice`] holds an `Arc<Region>`,
//!   so the base pointer outlives every typed view derived from it.
//! * **Read-only aliasing.** The mapping is created `PROT_READ` +
//!   `MAP_PRIVATE` and nothing in this crate (or the workspace) ever
//!   writes through it, so shared `&[T]` views cannot race with writes
//!   from this process.
//! * **Validity of `&[T]`.** [`ArcSlice::new`] checks bounds with
//!   overflow-safe arithmetic and checks the alignment of
//!   `base + byte_offset` against `align_of::<T>()` before the pointer is
//!   ever reinterpreted. Element types are restricted by the [`Pod`]
//!   trait to types with no padding and no invalid bit patterns, so any
//!   file content produces well-defined (if semantically garbage) values
//!   — semantic validation is the caller's job, which is exactly what the
//!   store's checksums and structural checks do.
//! * **Truncation under our feet.** If another process truncates the file
//!   while it is mapped, Linux delivers `SIGBUS` on access to the vanished
//!   pages. This is the documented, accepted risk of any mmap consumer;
//!   the store mitigates it by only ever replacing stores via
//!   `rename(2)`, which leaves open mappings on the old inode intact.
//! * **Prefetch hints.** [`prefetch_read`] issues a cache prefetch
//!   instruction for the address of a live reference. A prefetch is a
//!   hint: it never faults, never writes, and has no effect a program can
//!   observe other than timing, so it cannot break any invariant above.
//! * **SIMD kernels.** [`shuffle::first_min_conjugate`] calls a function
//!   compiled with the `ssse3` target feature only after
//!   `is_x86_feature_detected!("ssse3")` has confirmed that the running
//!   CPU supports it, and returns `None` otherwise, so no SSSE3
//!   instruction ever reaches a CPU without SSSE3. The batch and key
//!   kernels ([`shuffle::compose_batch`], [`shuffle::cycle_type_keys`],
//!   [`shuffle::cycle_type_key`], [`shuffle::wire_weight_key`]) likewise
//!   call functions compiled with `ssse3` and `popcnt` only after
//!   `is_x86_feature_detected!` has confirmed both, and return `false`
//!   or `None` otherwise. Their `unsafe` blocks are those calls and
//!   unaligned 16-byte loads from live `&[u8; 16]` references (the
//!   shuffle tables and the byte forms of [`shuffle::ByteForm`]); every
//!   other access is a bounds-checked slice or array index, and the
//!   entry points assert that each output slice holds the batch before
//!   any kernel runs. Shuffles move bytes between registers and never
//!   address memory, and the weight kernel indexes its 256-entry table
//!   with a byte, which cannot leave it.

pub mod net;
pub mod shuffle;

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

use revsynth_perm::Perm;

/// Marker for element types that can be reinterpreted from arbitrary
/// mapped bytes.
///
/// # Safety
///
/// Implementors must have no padding bytes, no invalid bit patterns, and
/// no interior mutability, so that any byte content read from a file is a
/// valid value of the type.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: plain integers have no padding and every bit pattern is valid.
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}
// SAFETY: `Perm` is `#[repr(transparent)]` over `u64` and its own safe
// API (`Perm::from_packed_unchecked`) constructs it from any `u64`, so
// every bit pattern is a valid — if possibly non-permutation — value.
// Semantic validation stays with the store loader.
unsafe impl Pod for Perm {}

/// Asks the CPU to start loading the cache line that holds `value` into
/// the L1 data cache, without waiting for it.
///
/// Table lookups that miss the last-level cache spend most of their time
/// waiting for that one line. Issuing the prefetch a stage ahead of the
/// read lets several such misses overlap. The value is not read and
/// nothing observable changes: on x86_64 this is `prefetcht0`, on aarch64
/// `prfm pldl1keep`, and on other targets it compiles to nothing.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    let ptr: *const T = value;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint that never faults and never writes;
    // `ptr` comes from a live reference, and SSE is part of the x86_64
    // baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint that never faults, writes no memory and
    // no flags; `ptr` comes from a live reference.
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) ptr,
            options(nostack, readonly, preserves_flags)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = ptr;
}

/// A read-only byte region backed by either an `mmap`ed file or an
/// aligned heap copy of its contents.
pub struct Region {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    /// `ptr` came from `mmap(2)`; unmapped in `Drop`.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped,
    /// `ptr` points into the (8-byte aligned) heap buffer.
    Heap(#[allow(dead_code)] Vec<u64>),
}

// SAFETY: the region is immutable for its whole lifetime — no writes ever
// go through `ptr` after construction — so sharing it across threads is
// sound.
unsafe impl Send for Region {}
// SAFETY: as above.
unsafe impl Sync for Region {}

impl Region {
    /// Maps `file` read-only, falling back to an aligned heap read when
    /// mapping is unavailable on this platform (or fails).
    ///
    /// Whether the bytes are genuinely zero-copy is reported by
    /// [`Region::is_mapped`]; the contents are identical either way.
    pub fn map_file(file: &mut File) -> io::Result<Region> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Region {
                ptr: Vec::<u64>::new().as_ptr().cast(),
                len: 0,
                backing: Backing::Heap(Vec::new()),
            });
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            if let Some(ptr) = sys::mmap_readonly(file, len) {
                return Ok(Region {
                    ptr,
                    len,
                    backing: Backing::Mapped,
                });
            }
        }
        Self::read_to_heap(file, len)
    }

    /// Reads the whole file into an 8-byte aligned heap buffer. Used as
    /// the portable fallback; also handy for tests that want the exact
    /// non-mapped code path.
    pub fn read_to_heap(file: &mut File, len: usize) -> io::Result<Region> {
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: a `&mut [u64]` of `words` elements is trivially a
        // `&mut [u8]` of `8 * words >= len` bytes; `u8` has no validity
        // or alignment requirements beyond those of the wider type.
        let bytes: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), words * 8) };
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut bytes[..len])?;
        Ok(Region {
            ptr: buf.as_ptr().cast(),
            len,
            backing: Backing::Heap(buf),
        })
    }

    /// Number of bytes in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the bytes are served by a real file mapping (`true`) or a
    /// heap copy (`false`).
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped => true,
            Backing::Heap(_) => false,
        }
    }

    /// The full region contents.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the lifetime of
        // `self` (mapping or heap buffer owned by `self.backing`), and the
        // region is never written after construction.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if matches!(self.backing, Backing::Mapped) {
            // SAFETY: `ptr`/`len` are exactly what `mmap` returned for
            // this still-live mapping, and no `ArcSlice` can outlive the
            // owning `Arc<Region>` that is being dropped here.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Error from carving a typed [`ArcSlice`] out of a [`Region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceError(pub &'static str);

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for SliceError {}

/// A shared, typed, read-only view into a [`Region`].
///
/// Cloning is cheap (an `Arc` bump); the region stays alive as long as
/// any slice into it does. Dereferences to `&[T]`.
pub struct ArcSlice<T: Pod> {
    region: Arc<Region>,
    byte_offset: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> ArcSlice<T> {
    /// Carves `len` elements of `T` starting `byte_offset` bytes into
    /// `region`, validating bounds and alignment.
    pub fn new(region: Arc<Region>, byte_offset: usize, len: usize) -> Result<Self, SliceError> {
        let size = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(SliceError("slice byte length overflows"))?;
        let end = byte_offset
            .checked_add(size)
            .ok_or(SliceError("slice end offset overflows"))?;
        if end > region.len() {
            return Err(SliceError("slice extends past the end of the region"));
        }
        if !(region.ptr as usize + byte_offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(SliceError("slice offset is misaligned for element type"));
        }
        Ok(ArcSlice {
            region,
            byte_offset,
            len,
            _marker: PhantomData,
        })
    }

    /// The typed contents.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `new` checked that `byte_offset..byte_offset + len *
        // size_of::<T>()` lies inside the region and that the start is
        // aligned for `T`; `T: Pod` makes any byte content a valid value;
        // the region is immutable and outlives `self` via the `Arc`.
        unsafe {
            std::slice::from_raw_parts(self.region.ptr.add(self.byte_offset).cast::<T>(), self.len)
        }
    }

    /// A sub-slice of `count` elements starting at element `start`.
    pub fn slice(&self, start: usize, count: usize) -> Result<Self, SliceError> {
        if start.checked_add(count).is_none_or(|end| end > self.len) {
            return Err(SliceError("sub-slice out of bounds"));
        }
        Ok(ArcSlice {
            region: Arc::clone(&self.region),
            byte_offset: self.byte_offset + start * std::mem::size_of::<T>(),
            len: count,
            _marker: PhantomData,
        })
    }

    /// The region this slice borrows from.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }
}

impl<T: Pod> Deref for ArcSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for ArcSlice<T> {
    fn clone(&self) -> Self {
        ArcSlice {
            region: Arc::clone(&self.region),
            byte_offset: self.byte_offset,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for ArcSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcSlice")
            .field("len", &self.len)
            .field("byte_offset", &self.byte_offset)
            .finish()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys {
    //! Raw `mmap(2)`/`munmap(2)` syscalls. The workspace has no `libc`
    //! dependency, so the two calls we need are issued directly.
    //! (`syscall6` is shared with [`crate::net`], which issues the
    //! socket/epoll/affinity calls std does not expose.)

    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Issues a raw 6-argument syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass a syscall number and arguments that are sound
    /// for this process; this module only ever requests read-only private
    /// mappings of file descriptors it owns, and unmaps exactly those.
    pub(crate) unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `syscall` clobbers only rcx/r11 (declared) and returns
        // in rax; all six argument registers are passed per the ABI.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `svc 0` takes the syscall number in x8, arguments in
        // x0..x5 and returns in x0 per the AArch64 Linux ABI.
        unsafe {
            std::arch::asm!(
                "svc 0",
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                in("x8") n,
                options(nostack),
            );
        }
        ret
    }

    /// Maps `len` bytes of `file` read-only. Returns `None` on any
    /// failure so the caller can fall back to a heap read.
    pub fn mmap_readonly(file: &File, len: usize) -> Option<*const u8> {
        let fd = file.as_raw_fd();
        // SAFETY: read-only private mapping of a file descriptor we own;
        // addr=NULL lets the kernel pick placement; errors are returned
        // as -errno in (-4095..=-1) and rejected below.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if (-4095..=-1).contains(&ret) {
            return None;
        }
        Some(ret as *const u8)
    }

    /// Unmaps a mapping previously returned by [`mmap_readonly`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must describe a live mapping created by this module
    /// with no outstanding borrows of its bytes.
    pub unsafe fn munmap(ptr: *const u8, len: usize) {
        // SAFETY: forwarded from the caller's contract.
        unsafe {
            syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("revsynth-mmap-{name}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_and_reads_back_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("roundtrip", &data);
        let mut f = File::open(&path).unwrap();
        let region = Region::map_file(&mut f).unwrap();
        assert_eq!(region.len(), data.len());
        assert_eq!(region.bytes(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_matches_mapping() {
        let data: Vec<u8> = (0..4096u32).flat_map(|w| w.to_le_bytes()).collect();
        let path = temp_file("heap", &data);
        let mut f = File::open(&path).unwrap();
        let mapped = Region::map_file(&mut f).unwrap();
        let mut f2 = File::open(&path).unwrap();
        let heap = Region::read_to_heap(&mut f2, data.len()).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(mapped.bytes(), heap.bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_slices_are_validated() {
        let words: Vec<u64> = (0..512u64).map(|w| w.wrapping_mul(0x9e37_79b9)).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = temp_file("typed", &bytes);
        let mut f = File::open(&path).unwrap();
        let region = Arc::new(Region::map_file(&mut f).unwrap());

        let all = ArcSlice::<u64>::new(Arc::clone(&region), 0, 512).unwrap();
        #[cfg(target_endian = "little")]
        assert_eq!(&*all, &words[..]);

        // Out of bounds and misaligned carves are rejected, not UB.
        assert!(ArcSlice::<u64>::new(Arc::clone(&region), 0, 513).is_err());
        assert!(ArcSlice::<u64>::new(Arc::clone(&region), 4, 2).is_err());
        assert!(ArcSlice::<u64>::new(Arc::clone(&region), usize::MAX, 2).is_err());

        let sub = all.slice(16, 16).unwrap();
        #[cfg(target_endian = "little")]
        assert_eq!(&*sub, &words[16..32]);
        assert!(all.slice(500, 100).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_outlives_file_handle_and_slices_keep_it_alive() {
        let data = vec![0xA5u8; 4096 * 3];
        let path = temp_file("lifetime", &data);
        let slice = {
            let mut f = File::open(&path).unwrap();
            let region = Arc::new(Region::map_file(&mut f).unwrap());
            ArcSlice::<u8>::new(region, 4096, 4096).unwrap()
            // file handle and the original Arc both drop here
        };
        assert!(slice.iter().all(|&b| b == 0xA5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetch_leaves_values_unchanged() {
        let words: Vec<u64> = (0..1024u64).map(|w| w ^ 0x5A5A_5A5A).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = temp_file("prefetch", &bytes);
        let mut f = File::open(&path).unwrap();
        let region = Arc::new(Region::map_file(&mut f).unwrap());
        let mapped = ArcSlice::<u64>::new(region, 0, words.len()).unwrap();
        for slice in [&words[..], &mapped[..]] {
            let (first, last) = (slice[0], slice[slice.len() - 1]);
            prefetch_read(&slice[0]);
            prefetch_read(&slice[slice.len() - 1]);
            assert_eq!((slice[0], slice[slice.len() - 1]), (first, last));
        }
        #[cfg(target_endian = "little")]
        assert_eq!(&mapped[..], &words[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_region() {
        let path = temp_file("empty", &[]);
        let mut f = File::open(&path).unwrap();
        let region = Arc::new(Region::map_file(&mut f).unwrap());
        assert!(region.is_empty());
        let s = ArcSlice::<u64>::new(Arc::clone(&region), 0, 0).unwrap();
        assert!(s.is_empty());
        assert!(ArcSlice::<u64>::new(region, 0, 1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
