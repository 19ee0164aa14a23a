//! [`FileDevice`]: the durable [`PageDevice`] — fixed
//! page slots in a single data file, each payload guarded by a CRC-32.
//!
//! # On-disk format (`data.pyro`)
//!
//! ```text
//! file header (16 B):  [magic "PYRD"][version u32][block_size u32][pad 4]
//! slot i at 16 + i·(16 + block_size):
//!     slot header (16 B): [state u8][pad 3][len u32][crc u32][pad 4]
//!     payload             (len ≤ block_size bytes, CRC-32 over payload)
//! ```
//!
//! All integers are little-endian. `state` is 1 for a written page and 0
//! for a slot that has never been written (file growth zero-fills). The
//! exact written length is preserved — `len` on read returns the same
//! bytes `write_page` took, matching [`SimDevice`](crate::SimDevice)
//! semantics that page decoding depends on.
//!
//! # Allocation state
//!
//! The free list lives in memory only: freeing a page does **not** touch
//! the file (a committed page must never be clobbered before the commit
//! that frees it is durable — the catalog defers frees past the WAL
//! fsync). On reopen every written slot therefore looks live until crash
//! recovery rebuilds the catalog and calls
//! [`reclaim_except`](crate::PageDevice::reclaim_except) with the set of
//! pages the catalog actually references; everything else returns to the
//! free list.
//!
//! # I/O
//!
//! Every transfer is positional (`pread`/`pwrite` through
//! [`FileExt`]): there is no shared file cursor, so the device mutex
//! guards the allocation maps only and is released before the system
//! call — two workers' pool misses read the file concurrently. What the
//! mutex used to give, that a page is never read while it is being
//! written, the layers above already guarantee: a [`crate::TupleFile`]'s
//! pages are written once, before its handle exists, and the buffer pool
//! writes a dirty frame back under its own lock while the page is still
//! resident.
//!
//! A read is one system call into one fresh buffer the size of a slot,
//! the slot is verified *in that buffer*, and the buffer is handed on as
//! the page ([`PageBytes`] over the payload's range): one copy, the
//! kernel's, between the page cache and the decoder. See DESIGN §8 for
//! the measured cost of a miss before and after.
//!
//! # Failure surface
//!
//! Reads verify `state`, then `len`, then the CRC, surfacing typed
//! [`PyroError::Io`] (short slot) and [`PyroError::ChecksumMismatch`]
//! (bit rot, torn write) — never a panic. The raw-block hooks
//! ([`FileDevice::read_raw_block`], [`FileDevice::write_raw_block`],
//! [`FileDevice::decode_block`]) exist so the fault-injection wrapper can
//! plant *undetectably-framed* damage (a torn half-block keeps the old
//! CRC in place) and so tests can flip bytes the way real disks do.

use crate::crc::crc32;
use crate::device::{DeviceRef, IoSnapshot, PageBytes, PageDevice, PageId, DEFAULT_BLOCK_SIZE};
use pyro_common::{PyroError, Result};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const MAGIC: &[u8; 4] = b"PYRD";
const VERSION: u32 = 1;
/// Bytes of file header before the first slot.
pub const FILE_HEADER_LEN: u64 = 16;
/// Bytes of per-slot header before the payload.
pub const SLOT_HEADER_LEN: usize = 16;

const STATE_FREE: u8 = 0;
const STATE_LIVE: u8 = 1;

/// Maps an `std::io` failure into the typed, wire-codeable error.
fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> PyroError {
    PyroError::Io(format!("{ctx} {}: {e}", path.display()))
}

/// The in-memory allocation state (see the module docs).
#[derive(Debug, Default)]
struct Alloc {
    /// `allocated[i]` — page `i` is handed out (alloc'd or restored) and
    /// not on the free list.
    allocated: Vec<bool>,
    free_list: Vec<PageId>,
}

/// A durable page device over a single data file; see the module docs.
#[derive(Debug)]
pub struct FileDevice {
    path: PathBuf,
    block_size: usize,
    /// Read and written positionally, never through its cursor, so it
    /// needs no lock.
    file: File,
    alloc: Mutex<Alloc>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl FileDevice {
    /// Creates a fresh data file at `path` (truncating any existing one)
    /// with the default 4 KB block size.
    pub fn create(path: impl Into<PathBuf>) -> Result<Arc<FileDevice>> {
        Self::create_with_block_size(path, DEFAULT_BLOCK_SIZE)
    }

    /// Creates a fresh data file with a custom block size (min 64 bytes).
    pub fn create_with_block_size(
        path: impl Into<PathBuf>,
        block_size: usize,
    ) -> Result<Arc<FileDevice>> {
        assert!(block_size >= 64, "block size too small: {block_size}");
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        let mut header = [0u8; FILE_HEADER_LEN as usize];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(block_size as u32).to_le_bytes());
        file.write_all_at(&header, 0)
            .map_err(|e| io_err("write header of", &path, e))?;
        file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        Ok(Arc::new(FileDevice {
            path,
            block_size,
            file,
            alloc: Mutex::default(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }))
    }

    /// Opens an existing data file, rebuilding allocation state from the
    /// per-slot `state` bytes. Every written slot is considered live until
    /// [`reclaim_except`](crate::PageDevice::reclaim_except) runs.
    pub fn open(path: impl Into<PathBuf>) -> Result<Arc<FileDevice>> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let mut header = [0u8; FILE_HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| io_err("read header of", &path, e))?;
        if &header[0..4] != MAGIC {
            return Err(PyroError::Recovery(format!(
                "bad data-file magic in {}",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(PyroError::Recovery(format!(
                "unsupported data-file version {version} in {}",
                path.display()
            )));
        }
        let block_size = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        if block_size < 64 {
            return Err(PyroError::Recovery(format!(
                "implausible block size {block_size} in {}",
                path.display()
            )));
        }
        let file_len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        let slot = (SLOT_HEADER_LEN + block_size) as u64;
        let npages = file_len.saturating_sub(FILE_HEADER_LEN) / slot;
        let mut allocated = Vec::with_capacity(npages as usize);
        let mut free_list = Vec::new();
        for id in 0..npages {
            let mut state = [0u8; 1];
            file.read_exact_at(&mut state, FILE_HEADER_LEN + id * slot)
                .map_err(|e| io_err("read slot state of", &path, e))?;
            if state[0] == STATE_FREE {
                free_list.push(id);
                allocated.push(false);
            } else {
                allocated.push(true);
            }
        }
        Ok(Arc::new(FileDevice {
            path,
            block_size,
            file,
            alloc: Mutex::new(Alloc {
                allocated,
                free_list,
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }))
    }

    /// The data file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Upcast to the trait-object handle everything above the device uses.
    pub fn as_device(self: &Arc<Self>) -> DeviceRef {
        self.clone()
    }

    fn slot_offset(&self, id: PageId) -> u64 {
        FILE_HEADER_LEN + id * (SLOT_HEADER_LEN + self.block_size) as u64
    }

    fn alloc(&self) -> MutexGuard<'_, Alloc> {
        self.alloc.lock().expect("file device poisoned")
    }

    /// `Err` unless page `id` is currently handed out; `what` names the
    /// attempted access in the message. Takes and releases the mutex.
    fn check_allocated(&self, id: PageId, what: &str) -> Result<()> {
        if self.alloc().allocated.get(id as usize) == Some(&true) {
            return Ok(());
        }
        Err(PyroError::Storage(format!("{what} unallocated page {id}")))
    }

    /// Fills `buf` from page `id`'s slot with one positional read (more
    /// only if the kernel returns short), stopping early at end of file.
    /// Returns the bytes read and counts one read.
    fn read_slot(&self, id: PageId, buf: &mut [u8]) -> Result<usize> {
        let offset = self.slot_offset(id);
        let mut filled = 0;
        while filled < buf.len() {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err("read page of", &self.path, e)),
            }
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(filled)
    }

    /// Builds the full on-disk block image (slot header + payload) for
    /// `data`, exactly as [`write_page`](crate::PageDevice::write_page)
    /// would lay it down. Fault injection truncates this to fake a torn
    /// write.
    pub fn encode_block(&self, data: &[u8]) -> Result<Vec<u8>> {
        if data.len() > self.block_size {
            return Err(PyroError::Storage(format!(
                "page overflow: {} > block size {}",
                data.len(),
                self.block_size
            )));
        }
        let mut block = Vec::with_capacity(SLOT_HEADER_LEN + data.len());
        block.push(STATE_LIVE);
        block.extend_from_slice(&[0u8; 3]);
        block.extend_from_slice(&(data.len() as u32).to_le_bytes());
        block.extend_from_slice(&crc32(data).to_le_bytes());
        block.extend_from_slice(&[0u8; 4]);
        block.extend_from_slice(data);
        Ok(block)
    }

    /// The read-path validation, in place: checks a raw block image for
    /// page `id` — state must be live, the length sane, the CRC matching
    /// — and returns where in `raw` the payload lies.
    fn verify_block(&self, id: PageId, raw: &[u8]) -> Result<Range<usize>> {
        if raw.len() < SLOT_HEADER_LEN {
            return Err(PyroError::Io(format!(
                "short read on page {id}: {} bytes < {SLOT_HEADER_LEN}-byte slot header",
                raw.len()
            )));
        }
        if raw[0] == STATE_FREE {
            return Err(PyroError::Storage(format!(
                "read of never-written page {id}"
            )));
        }
        let len = u32::from_le_bytes(raw[4..8].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(raw[8..12].try_into().unwrap());
        if len > self.block_size || SLOT_HEADER_LEN + len > raw.len() {
            return Err(PyroError::Io(format!(
                "short read on page {id}: header claims {len} payload bytes, \
                 {} available",
                raw.len().saturating_sub(SLOT_HEADER_LEN)
            )));
        }
        let payload = SLOT_HEADER_LEN..SLOT_HEADER_LEN + len;
        let computed = crc32(&raw[payload.clone()]);
        if computed != stored {
            return Err(PyroError::ChecksumMismatch {
                page: id,
                stored,
                computed,
            });
        }
        Ok(payload)
    }

    /// Verifies a raw block image for page `id` and returns a copy of the
    /// payload. This is the exact validation
    /// [`read_page`](crate::PageDevice::read_page) runs, exposed so fault
    /// injection can run it over deliberately damaged bytes.
    pub fn decode_block(&self, id: PageId, raw: &[u8]) -> Result<Vec<u8>> {
        let payload = self.verify_block(id, raw)?;
        Ok(raw[payload].to_vec())
    }

    /// Reads page `id`'s slot verbatim (header + full payload area), no
    /// verification. Counts one read.
    pub fn read_raw_block(&self, id: PageId) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; SLOT_HEADER_LEN + self.block_size];
        let filled = self.read_slot(id, &mut buf)?;
        buf.truncate(filled);
        Ok(buf)
    }

    /// Writes `bytes` verbatim at page `id`'s slot offset — possibly fewer
    /// bytes than a full block, which is exactly how a torn write looks.
    /// Counts one write.
    pub fn write_raw_block(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        assert!(
            bytes.len() <= SLOT_HEADER_LEN + self.block_size,
            "raw block exceeds slot"
        );
        self.file
            .write_all_at(bytes, self.slot_offset(id))
            .map_err(|e| io_err("write page of", &self.path, e))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Recovery write: forces page `id` allocated (growing the file if
    /// needed) and lays down `data` as a live block. WAL replay uses this
    /// because replayed pages are not on this process's allocation maps.
    pub fn restore_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        let block = self.encode_block(data)?;
        {
            let mut alloc = self.alloc();
            if (id as usize) >= alloc.allocated.len() {
                alloc.allocated.resize(id as usize + 1, false);
                self.file
                    .set_len(self.slot_offset(id + 1))
                    .map_err(|e| io_err("grow", &self.path, e))?;
            }
            alloc.allocated[id as usize] = true;
            alloc.free_list.retain(|&f| f != id);
        }
        self.write_raw_block(id, &block)
    }
}

impl PageDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn alloc_page(&self) -> PageId {
        let mut alloc = self.alloc();
        if let Some(id) = alloc.free_list.pop() {
            alloc.allocated[id as usize] = true;
            return id;
        }
        let id = alloc.allocated.len() as PageId;
        alloc.allocated.push(true);
        // Extend the file now (still under the mutex, so concurrent
        // allocations cannot shrink it back) so reopen sees the slot
        // (zero-filled ⇒ state 0 ⇒ free) and torn partial writes land
        // inside the file.
        let end = self.slot_offset(id + 1);
        if let Err(e) = self.file.set_len(end) {
            // Allocation is infallible in the trait; surface the failure
            // on the first write instead of panicking here.
            eprintln!("pyro-storage: grow {}: {e}", self.path.display());
        }
        id
    }

    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        let block = self.encode_block(data)?;
        self.check_allocated(id, "write to")?;
        self.write_raw_block(id, &block)
    }

    fn read_page(&self, id: PageId) -> Result<PageBytes> {
        self.check_allocated(id, "read of")?;
        // Allocated as the shared buffer it will end up being, so handing
        // it on copies nothing.
        let mut buf: Arc<[u8]> =
            std::iter::repeat_n(0u8, SLOT_HEADER_LEN + self.block_size).collect();
        let slot = Arc::get_mut(&mut buf).expect("a fresh buffer is unshared");
        let filled = self.read_slot(id, slot)?;
        let payload = self.verify_block(id, &buf[..filled])?;
        Ok(PageBytes::slice(buf, payload))
    }

    fn free_page(&self, id: PageId) {
        let mut alloc = self.alloc();
        match alloc.allocated.get_mut(id as usize) {
            Some(slot) if *slot => *slot = false,
            _ => return,
        }
        alloc.free_list.push(id);
        // The slot's on-disk state stays live: a committed page is never
        // clobbered before the commit freeing it is durable, and recovery
        // reclaims anything the catalog no longer references.
    }

    fn io(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn reset_io(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    fn live_pages(&self) -> usize {
        self.alloc().allocated.iter().filter(|a| **a).count()
    }

    fn sync(&self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err("sync", &self.path, e))
    }

    fn reclaim_except(&self, live: &[PageId]) {
        let keep: std::collections::HashSet<PageId> = live.iter().copied().collect();
        let mut alloc = self.alloc();
        let npages = alloc
            .allocated
            .len()
            .max(keep.iter().map(|&id| id as usize + 1).max().unwrap_or(0));
        alloc.allocated = (0..npages as PageId).map(|id| keep.contains(&id)).collect();
        alloc.free_list = (0..npages as PageId)
            .filter(|id| !keep.contains(id))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pyro-fd-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("data.pyro")
    }

    #[test]
    fn roundtrip_and_exact_length() {
        let dev = FileDevice::create_with_block_size(tmp("rt"), 128).unwrap();
        let id = dev.alloc_page();
        dev.write_page(id, b"hello").unwrap();
        assert_eq!(dev.read_page(id).unwrap(), b"hello");
        assert_eq!(
            dev.io(),
            IoSnapshot {
                reads: 1,
                writes: 1
            }
        );
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen");
        let id;
        {
            let dev = FileDevice::create_with_block_size(&path, 128).unwrap();
            id = dev.alloc_page();
            dev.write_page(id, b"persisted").unwrap();
            dev.sync().unwrap();
        }
        let dev = FileDevice::open(&path).unwrap();
        assert_eq!(dev.block_size(), 128);
        assert_eq!(dev.read_page(id).unwrap(), b"persisted");
        assert_eq!(dev.live_pages(), 1);
    }

    #[test]
    fn bit_flip_yields_checksum_mismatch() {
        let path = tmp("flip");
        let dev = FileDevice::create_with_block_size(&path, 128).unwrap();
        let id = dev.alloc_page();
        dev.write_page(id, b"precious data").unwrap();
        let mut raw = dev.read_raw_block(id).unwrap();
        raw[SLOT_HEADER_LEN + 3] ^= 0x01;
        dev.write_raw_block(id, &raw).unwrap();
        match dev.read_page(id) {
            Err(PyroError::ChecksumMismatch { page, .. }) => assert_eq!(page, id),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    /// Damage done to the file itself — no device hook involved — comes
    /// back typed from the real `read_page`: a slot cut short by a
    /// truncated file is a short read, a flipped payload byte a checksum
    /// mismatch.
    #[test]
    fn damaged_file_fails_typed_through_read_page() {
        let path = tmp("damaged");
        let dev = FileDevice::create_with_block_size(&path, 128).unwrap();
        let (a, b) = (dev.alloc_page(), dev.alloc_page());
        dev.write_page(a, &[3u8; 100]).unwrap();
        dev.write_page(b, &[4u8; 100]).unwrap();
        assert_eq!(dev.read_page(b).unwrap(), [4u8; 100]);

        let file = OpenOptions::new().write(true).open(&path).unwrap();
        // Keep page b's header and 40 of its 100 payload bytes.
        file.set_len(dev.slot_offset(b) + SLOT_HEADER_LEN as u64 + 40)
            .unwrap();
        match dev.read_page(b) {
            Err(PyroError::Io(msg)) => assert!(msg.contains("short read on page 1"), "{msg}"),
            other => panic!("expected a short-read Io error, got {other:?}"),
        }
        // ... or not even a whole header.
        file.set_len(dev.slot_offset(b) + 5).unwrap();
        assert!(matches!(dev.read_page(b), Err(PyroError::Io(m)) if m.contains("short read")));

        file.write_all_at(
            &[3 ^ 0x10],
            dev.slot_offset(a) + SLOT_HEADER_LEN as u64 + 57,
        )
        .unwrap();
        match dev.read_page(a) {
            Err(PyroError::ChecksumMismatch {
                page,
                stored,
                computed,
            }) => {
                assert_eq!(page, a);
                assert_eq!(stored, crc32(&[3u8; 100]));
                assert_ne!(computed, stored);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    /// The slot image is pinned byte for byte (the CRC below is zlib's for
    /// the payload): a data file written by any earlier build reads back,
    /// and this build writes what they would have.
    #[test]
    fn slot_image_matches_golden_bytes() {
        const GOLDEN: [u8; 25] = [
            0x01, 0x00, 0x00, 0x00, // state live, pad
            0x09, 0x00, 0x00, 0x00, // len 9
            0x75, 0x67, 0x6F, 0xD3, // crc32("pyro page") = 0xD36F6775
            0x00, 0x00, 0x00, 0x00, // pad
            0x70, 0x79, 0x72, 0x6F, 0x20, 0x70, 0x61, 0x67, 0x65, // "pyro page"
        ];
        let path = tmp("golden");
        let dev = FileDevice::create_with_block_size(&path, 64).unwrap();
        assert_eq!(dev.encode_block(b"pyro page").unwrap(), GOLDEN);
        assert_eq!(dev.decode_block(0, &GOLDEN).unwrap(), b"pyro page");
        // And through the file: what `write_page` lays down is the image,
        // at the documented offset, and an image planted there reads back.
        let id = dev.alloc_page();
        dev.write_page(id, b"pyro page").unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        let slot = FILE_HEADER_LEN as usize;
        assert_eq!(on_disk[slot..slot + GOLDEN.len()], GOLDEN);
        let other = dev.alloc_page();
        dev.write_raw_block(other, &GOLDEN).unwrap();
        assert_eq!(dev.read_page(other).unwrap(), b"pyro page");
    }

    #[test]
    fn torn_write_detected_on_read() {
        let path = tmp("torn");
        let dev = FileDevice::create_with_block_size(&path, 128).unwrap();
        let id = dev.alloc_page();
        dev.write_page(id, &[7u8; 100]).unwrap();
        // Overwrite with only half of a new block image: header (with new
        // CRC) lands, payload does not — the classic torn write.
        let block = dev.encode_block(&[9u8; 100]).unwrap();
        dev.write_raw_block(id, &block[..block.len() / 2]).unwrap();
        assert!(matches!(
            dev.read_page(id),
            Err(PyroError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn free_and_reclaim() {
        let path = tmp("reclaim");
        let keep_id;
        {
            let dev = FileDevice::create_with_block_size(&path, 128).unwrap();
            keep_id = dev.alloc_page();
            let drop_id = dev.alloc_page();
            dev.write_page(keep_id, b"keep").unwrap();
            dev.write_page(drop_id, b"drop").unwrap();
            dev.sync().unwrap();
        }
        let dev = FileDevice::open(&path).unwrap();
        assert_eq!(dev.live_pages(), 2, "all written slots live until reclaim");
        dev.reclaim_except(&[keep_id]);
        assert_eq!(dev.live_pages(), 1);
        assert_eq!(dev.read_page(keep_id).unwrap(), b"keep");
        // The reclaimed slot is reusable.
        let recycled = dev.alloc_page();
        dev.write_page(recycled, b"new").unwrap();
        assert_eq!(dev.read_page(recycled).unwrap(), b"new");
    }

    #[test]
    fn unallocated_access_is_typed_error() {
        let dev = FileDevice::create_with_block_size(tmp("unalloc"), 128).unwrap();
        assert!(matches!(dev.read_page(5), Err(PyroError::Storage(_))));
        assert!(matches!(
            dev.write_page(5, b"x"),
            Err(PyroError::Storage(_))
        ));
    }

    #[test]
    fn oversized_write_rejected() {
        let dev = FileDevice::create_with_block_size(tmp("big"), 64).unwrap();
        let id = dev.alloc_page();
        assert!(dev.write_page(id, &[0u8; 65]).is_err());
    }

    #[test]
    fn open_rejects_foreign_file() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a pyro data file").unwrap();
        assert!(matches!(
            FileDevice::open(&path),
            Err(PyroError::Recovery(_))
        ));
    }
}
