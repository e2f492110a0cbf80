//! Shared-memory segments: the storage a [`SpscRing`](super::SpscRing)
//! lives in.
//!
//! A segment is a fixed-size byte area plus a small bank of 8-byte control
//! words with acquire/release semantics. Two backings exist:
//!
//! - [`HeapSegment`] — process-private memory for the loopback fabric and
//!   for tests: control words are `AtomicU64`s, data is an `UnsafeCell`
//!   byte area ordered by them (the classic SPSC publication protocol);
//! - [`FileSegment`] — a file on a tmpfs (`/dev/shm` when present), the
//!   `shm_open` analogue reachable from plain `std`: two processes open the
//!   same path and exchange records through the page cache. Each
//!   `read_at`/`write_at` is a syscall, which both moves the bytes and
//!   orders them — the kernel's page locking plays the role the atomics
//!   play in the heap backing.
//!
//! Records are built and consumed in place through closure-scoped views
//! ([`Segment::write_with`] / [`Segment::read_with`]): the heap backing
//! lends its own bytes, the file backing lends a bounce buffer that it
//! fills with `pread` or flushes with `pwrite`.
//!
//! The ring code is written against the [`Segment`] trait only, so the
//! protocol (and its tests) is identical across backings.

use std::cell::UnsafeCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Control words a ring uses, by fixed slot index. Kept to a handful so a
/// file segment can give each one a fixed header offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ctrl {
    /// Producer cursor: total bytes ever published (monotone).
    Tail = 0,
    /// Consumer cursor: total bytes ever consumed (monotone).
    Head = 1,
    /// Producer-side close flag (shutdown handshake).
    Closed = 2,
    /// Consumer attach acknowledgement (cross-process bring-up).
    Attached = 3,
}

/// Number of control slots.
pub const CTRL_SLOTS: usize = 4;

/// Bytes reserved at the front of a file segment for magic, capacity and
/// the control words; the data area starts here.
pub const FILE_HEADER: u64 = 64;

/// Magic stamped into file segments so a stale or foreign file is rejected
/// instead of parsed.
pub const SEG_MAGIC: u64 = 0x5052_5458_5348_4d31; // "PRTXSHM1"

/// Storage for one ring: a data area plus control words.
///
/// Contract: control-word stores are release operations and loads are
/// acquire operations (or stronger), so data written *before* a
/// [`Ctrl::Tail`] store is visible *after* the corresponding load. Data
/// access is only valid for ranges the protocol proves unshared: the
/// producer writes only `[tail, head + capacity)`, the consumer reads only
/// `[head, tail)`.
pub trait Segment: Send + Sync {
    /// Data-area capacity in bytes.
    fn capacity(&self) -> u64;
    /// Acquire-load a control word.
    fn ctrl_load(&self, slot: Ctrl) -> u64;
    /// Release-store a control word.
    fn ctrl_store(&self, slot: Ctrl, v: u64);
    /// Lend the data bytes `[off, off + len)` to `f` for writing in place
    /// (`off + len <= capacity`; wrap splitting is the ring's job). The
    /// bytes are visible to a reader once a later `Tail` store publishes
    /// them.
    fn write_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&mut [u8]));
    /// Lend the data bytes `[off, off + len)` to `f` for reading in place.
    fn read_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&[u8]));
    /// Copy `src` into the data area at `off`.
    fn data_write(&self, off: u64, src: &[u8]) {
        self.write_with(off, src.len(), &mut |dst| dst.copy_from_slice(src));
    }
    /// Copy `dst.len()` bytes out of the data area at `off`.
    fn data_read(&self, off: u64, dst: &mut [u8]) {
        self.read_with(off, dst.len(), &mut |src| dst.copy_from_slice(src));
    }
}

// ---------------------------------------------------------------------------
// Heap backing
// ---------------------------------------------------------------------------

/// Process-private segment: `AtomicU64` control words over an
/// `UnsafeCell` byte area.
pub struct HeapSegment {
    ctrl: [AtomicU64; CTRL_SLOTS],
    data: Box<[UnsafeCell<u8>]>,
}

// SAFETY: the `Segment` contract confines the producer and the consumer to
// disjoint byte ranges at every instant, with the handoff ordered by the
// acquire/release control words — the same discipline `MemoryRegion`'s
// storage documents, here enforced by the SPSC ring protocol (see
// `shm::ring` and the `ring_protocol` model-checking test).
unsafe impl Send for HeapSegment {}
unsafe impl Sync for HeapSegment {}

impl HeapSegment {
    /// Allocate a zeroed segment of `capacity` data bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "segment capacity must be non-zero");
        let data = (0..capacity)
            .map(|_| UnsafeCell::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HeapSegment {
            ctrl: [const { AtomicU64::new(0) }; CTRL_SLOTS],
            data,
        }
    }
}

impl Segment for HeapSegment {
    fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn ctrl_load(&self, slot: Ctrl) -> u64 {
        self.ctrl[slot as usize].load(Ordering::Acquire)
    }

    fn ctrl_store(&self, slot: Ctrl, v: u64) {
        self.ctrl[slot as usize].store(v, Ordering::Release);
    }

    fn write_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&mut [u8])) {
        let off = off as usize;
        let cells = &self.data[off..off + len];
        // SAFETY: `cells` is a bounds-checked subslice and `UnsafeCell<u8>`
        // has the layout of `u8`. The range is producer-owned per the
        // `Segment` contract, so no other reference to these bytes exists
        // while `f` runs, and the subsequent `ctrl_store(Tail)` release
        // publishes them before any consumer acquire-load can cover them.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), len) };
        f(bytes);
    }

    fn read_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&[u8])) {
        let off = off as usize;
        let cells = &self.data[off..off + len];
        // SAFETY: `cells` is a bounds-checked subslice and `UnsafeCell<u8>`
        // has the layout of `u8`. The range is consumer-owned (published by
        // a Tail release the caller has already acquire-loaded), and the
        // producer cannot reuse it until the caller stores `Head` after `f`
        // returns, so nothing writes these bytes while `f` reads them.
        let bytes = unsafe { std::slice::from_raw_parts(UnsafeCell::raw_get(cells.as_ptr()), len) };
        f(bytes);
    }
}

// ---------------------------------------------------------------------------
// File backing (cross-process)
// ---------------------------------------------------------------------------

/// The directory cross-process segments default to: `/dev/shm` when the
/// platform provides it (a tmpfs, so "files" are pure page-cache memory),
/// otherwise the system temp dir.
pub fn default_shm_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// Cross-process segment backed by a file (tmpfs-resident when available).
///
/// Control words live at fixed 8-byte offsets in a 64-byte header; the data
/// area follows. Every access is a positioned read/write syscall: slower
/// than a true `mmap`, but dependency-free, and the kernel's per-page
/// locking gives each 8-byte aligned control access the atomicity and
/// ordering the protocol needs. The in-place views lend a bounce buffer
/// per direction (one producer and one consumer, so neither lock is
/// contended), reused across calls.
pub struct FileSegment {
    file: std::fs::File,
    capacity: u64,
    write_bounce: Mutex<Vec<u8>>,
    read_bounce: Mutex<Vec<u8>>,
}

impl FileSegment {
    /// Create (truncate) a segment file of `capacity` data bytes.
    pub fn create(path: &Path, capacity: u64) -> std::io::Result<Self> {
        assert!(capacity > 0, "segment capacity must be non-zero");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(FILE_HEADER + capacity)?;
        let seg = FileSegment::from_file(file, capacity);
        seg.write_at(8, &capacity.to_le_bytes())?;
        // Magic last: a peer that sees it knows the header is complete.
        seg.write_at(0, &SEG_MAGIC.to_le_bytes())?;
        Ok(seg)
    }

    /// Open an existing segment file, validating magic. Returns `None`
    /// while the file is absent or its header incomplete (the creator is
    /// still setting it up) — callers poll.
    pub fn open(path: &Path) -> std::io::Result<Option<Self>> {
        let file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut probe = FileSegment::from_file(file, 0);
        let mut word = [0u8; 8];
        if probe.read_at(0, &mut word).is_err() || u64::from_le_bytes(word) != SEG_MAGIC {
            return Ok(None);
        }
        probe.read_at(8, &mut word)?;
        probe.capacity = u64::from_le_bytes(word);
        if probe.capacity == 0 {
            return Ok(None);
        }
        Ok(Some(probe))
    }

    fn from_file(file: std::fs::File, capacity: u64) -> Self {
        FileSegment {
            file,
            capacity,
            write_bounce: Mutex::new(Vec::new()),
            read_bounce: Mutex::new(Vec::new()),
        }
    }

    fn ctrl_off(slot: Ctrl) -> u64 {
        16 + (slot as u64) * 8
    }

    #[cfg(unix)]
    fn read_at(&self, off: u64, dst: &mut [u8]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(dst, off)
    }

    #[cfg(unix)]
    fn write_at(&self, off: u64, src: &[u8]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(src, off)
    }

    #[cfg(not(unix))]
    fn read_at(&self, _off: u64, _dst: &mut [u8]) -> std::io::Result<()> {
        Err(std::io::Error::other(
            "cross-process shm segments require a unix platform",
        ))
    }

    #[cfg(not(unix))]
    fn write_at(&self, _off: u64, _src: &[u8]) -> std::io::Result<()> {
        Err(std::io::Error::other(
            "cross-process shm segments require a unix platform",
        ))
    }
}

impl Segment for FileSegment {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn ctrl_load(&self, slot: Ctrl) -> u64 {
        let mut word = [0u8; 8];
        self.read_at(Self::ctrl_off(slot), &mut word)
            .expect("shm segment control read");
        u64::from_le_bytes(word)
    }

    fn ctrl_store(&self, slot: Ctrl, v: u64) {
        self.write_at(Self::ctrl_off(slot), &v.to_le_bytes())
            .expect("shm segment control write");
    }

    fn write_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&mut [u8])) {
        let mut bounce = self.write_bounce.lock();
        let bytes = lend(&mut bounce, len);
        f(bytes);
        self.data_write(off, bytes);
    }

    fn read_with(&self, off: u64, len: usize, f: &mut dyn FnMut(&[u8])) {
        let mut bounce = self.read_bounce.lock();
        let bytes = lend(&mut bounce, len);
        self.data_read(off, bytes);
        f(bytes);
    }

    fn data_write(&self, off: u64, src: &[u8]) {
        debug_assert!(off + src.len() as u64 <= self.capacity);
        self.write_at(FILE_HEADER + off, src)
            .expect("shm segment data write");
    }

    fn data_read(&self, off: u64, dst: &mut [u8]) {
        debug_assert!(off + dst.len() as u64 <= self.capacity);
        self.read_at(FILE_HEADER + off, dst)
            .expect("shm segment data read");
    }
}

/// The first `len` bytes of `bounce`, grown (never shrunk) to fit, so a
/// steady stream of records reuses one allocation and skips re-zeroing it.
pub(super) fn lend(bounce: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if bounce.len() < len {
        bounce.resize(len, 0);
    }
    &mut bounce[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_round_trip() {
        let seg = HeapSegment::new(64);
        seg.data_write(10, b"hello");
        let mut out = [0u8; 5];
        seg.data_read(10, &mut out);
        assert_eq!(&out, b"hello");
        seg.ctrl_store(Ctrl::Tail, 42);
        assert_eq!(seg.ctrl_load(Ctrl::Tail), 42);
        assert_eq!(seg.ctrl_load(Ctrl::Head), 0);
    }

    #[cfg(unix)]
    #[test]
    fn file_round_trip_and_reopen() {
        let path =
            std::env::temp_dir().join(format!("partix_seg_test_{}.ring", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let seg = FileSegment::create(&path, 128).unwrap();
        seg.data_write(0, b"abc");
        seg.ctrl_store(Ctrl::Tail, 3);
        let reopened = FileSegment::open(&path).unwrap().expect("valid segment");
        assert_eq!(reopened.capacity(), 128);
        assert_eq!(reopened.ctrl_load(Ctrl::Tail), 3);
        let mut out = [0u8; 3];
        reopened.data_read(0, &mut out);
        assert_eq!(&out, b"abc");
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn open_missing_or_foreign_is_none() {
        let dir = std::env::temp_dir();
        assert!(FileSegment::open(&dir.join("partix_seg_missing.ring"))
            .unwrap()
            .is_none());
        let junk = dir.join(format!("partix_seg_junk_{}.ring", std::process::id()));
        std::fs::write(&junk, b"not a segment").unwrap();
        assert!(FileSegment::open(&junk).unwrap().is_none());
        std::fs::remove_file(&junk).unwrap();
    }
}
