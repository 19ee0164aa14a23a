//! Block devices: the [`PageDevice`] trait and the simulated in-memory
//! implementation ([`SimDevice`]).
//!
//! Everything above this layer — [`crate::PageStore`], [`crate::BufferPool`],
//! [`crate::TupleFile`] — talks to a [`DeviceRef`] (`Arc<dyn PageDevice>`),
//! so the bottom of the stack is swappable: the in-memory [`SimDevice`]
//! for experiments with exact I/O accounting, the durable
//! [`crate::FileDevice`] for data that must survive the process, and the
//! [`crate::FaultDevice`] wrapper for injecting storage failures in tests.

use pyro_common::{PyroError, Result};
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Identifier of a page on a [`PageDevice`].
pub type PageId = u64;

/// Default block size: 4 KB, as in the paper's experimental setup.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Snapshot of device I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Block reads since construction (or the reference snapshot).
    pub reads: u64,
    /// Block writes since construction (or the reference snapshot).
    pub writes: u64,
}

impl IoSnapshot {
    /// Total I/O operations.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter delta `self − earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

/// One page's bytes as a device read them: immutable, and shared rather
/// than copied — a clone is a reference-count increment.
///
/// This is what lets a cold page reach the decoder without being copied on
/// the way: the buffer a device filled (for [`crate::FileDevice`], the
/// whole slot image the kernel wrote into, of which the verified payload
/// is a sub-range) is handed to the buffer pool as the frame's bytes and
/// to the scan as the slice it decodes from. Derefs to the payload.
#[derive(Clone)]
pub struct PageBytes {
    buf: Arc<[u8]>,
    range: Range<usize>,
}

impl PageBytes {
    /// The bytes `range` of `buf`. Panics if `range` is out of bounds,
    /// which would be a bug in the device that built it.
    pub(crate) fn slice(buf: Arc<[u8]>, range: Range<usize>) -> PageBytes {
        assert!(range.start <= range.end && range.end <= buf.len());
        PageBytes { buf, range }
    }
}

impl From<&[u8]> for PageBytes {
    fn from(data: &[u8]) -> PageBytes {
        PageBytes {
            buf: data.into(),
            range: 0..data.len(),
        }
    }
}

impl Deref for PageBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl AsRef<[u8]> for PageBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for PageBytes {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl std::fmt::Debug for PageBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// The block-device surface every storage backend implements: fixed-size
/// page allocation, read, write, free, plus exact I/O accounting.
///
/// Implementations must be `Send + Sync` — morsel workers scan disjoint
/// page ranges of one file concurrently, and I/O counters are summed with
/// relaxed atomics (addition commutes, so totals are interleaving-
/// independent). The two durability hooks ([`PageDevice::sync`],
/// [`PageDevice::reclaim_except`]) default to no-ops so purely in-memory
/// devices need not care.
pub trait PageDevice: Send + Sync + std::fmt::Debug {
    /// The device's block size in bytes.
    fn block_size(&self) -> usize;

    /// Allocates a page id (no I/O counted until it is written).
    fn alloc_page(&self) -> PageId;

    /// Writes a block. `data` must not exceed the block size. Counts one
    /// write.
    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()>;

    /// Reads a block back exactly as written. Counts one read. The
    /// returned [`PageBytes`] share the buffer the device read into (or,
    /// for [`SimDevice`], the stored page itself) — nothing is copied for
    /// the caller.
    fn read_page(&self, id: PageId) -> Result<PageBytes>;

    /// Releases a page back to the free list (no I/O counted).
    fn free_page(&self, id: PageId);

    /// Current I/O counters.
    fn io(&self) -> IoSnapshot;

    /// Resets I/O counters to zero (between experiment phases).
    fn reset_io(&self);

    /// Number of currently allocated (non-freed) pages.
    fn live_pages(&self) -> usize;

    /// Durability barrier: blocks until every completed write is on stable
    /// storage. A no-op for devices without one (the in-memory
    /// [`SimDevice`] *is* its own stable storage).
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Recovery hook: frees every written page **not** in `live` (and
    /// marks the `live` ones allocated). Called once after crash recovery
    /// has rebuilt the catalog, so pages orphaned by an uncommitted
    /// mutation are reclaimed instead of leaking forever. No-op by
    /// default.
    fn reclaim_except(&self, live: &[PageId]) {
        let _ = live;
    }
}

/// An in-memory block device with exact I/O accounting.
///
/// Pages are allocated, written, read and freed through this interface; the
/// device counts every operation. The device is `Send + Sync` so morsel
/// workers can scan disjoint page ranges of the same file concurrently: the
/// page store sits behind an `RwLock` (parallel scans take read locks only)
/// and the I/O counters are relaxed atomics — addition commutes, so the
/// totals are identical no matter how worker reads interleave.
#[derive(Debug)]
pub struct SimDevice {
    block_size: usize,
    pages: RwLock<Vec<Option<PageBytes>>>,
    free_list: Mutex<Vec<PageId>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Shared handle to a device — any [`PageDevice`] behind an [`Arc`].
pub type DeviceRef = Arc<dyn PageDevice>;

impl SimDevice {
    /// Creates a device with the default 4 KB block size.
    // Returns the shared trait-object handle every caller wants, not Self.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> DeviceRef {
        Self::with_block_size(DEFAULT_BLOCK_SIZE)
    }

    /// Creates a device with a custom block size (min 64 bytes).
    pub fn with_block_size(block_size: usize) -> DeviceRef {
        assert!(block_size >= 64, "block size too small: {block_size}");
        Arc::new(SimDevice {
            block_size,
            ..SimDevice::default()
        })
    }
}

impl PageDevice for SimDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    /// Allocates a page id (no I/O counted until it is written).
    ///
    /// The free list and the page table are locked one after the other,
    /// never nested, so allocation cannot deadlock against `free_page`.
    fn alloc_page(&self) -> PageId {
        if let Some(id) = self.free_list.lock().expect("free list poisoned").pop() {
            return id;
        }
        let mut pages = self.pages.write().expect("page table poisoned");
        pages.push(None);
        (pages.len() - 1) as PageId
    }

    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() > self.block_size {
            return Err(PyroError::Storage(format!(
                "page overflow: {} > block size {}",
                data.len(),
                self.block_size
            )));
        }
        let mut pages = self.pages.write().expect("page table poisoned");
        let slot = pages
            .get_mut(id as usize)
            .ok_or_else(|| PyroError::Storage(format!("write to unallocated page {id}")))?;
        *slot = Some(data.into());
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_page(&self, id: PageId) -> Result<PageBytes> {
        let pages = self.pages.read().expect("page table poisoned");
        let slot = pages
            .get(id as usize)
            .ok_or_else(|| PyroError::Storage(format!("read of unallocated page {id}")))?;
        let data = slot
            .as_ref()
            .ok_or_else(|| PyroError::Storage(format!("read of never-written page {id}")))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(data.clone())
    }

    fn free_page(&self, id: PageId) {
        {
            let mut pages = self.pages.write().expect("page table poisoned");
            let Some(slot) = pages.get_mut(id as usize) else {
                return;
            };
            *slot = None;
        }
        self.free_list.lock().expect("free list poisoned").push(id);
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
        self.pages
            .read()
            .expect("page table poisoned")
            .iter()
            .filter(|p| p.is_some())
            .count()
    }

    fn reclaim_except(&self, live: &[PageId]) {
        let keep: std::collections::HashSet<PageId> = live.iter().copied().collect();
        let ids: Vec<PageId> = {
            let pages = self.pages.read().expect("page table poisoned");
            (0..pages.len() as PageId)
                .filter(|id| pages[*id as usize].is_some() && !keep.contains(id))
                .collect()
        };
        for id in ids {
            self.free_page(id);
        }
    }
}

impl Default for SimDevice {
    fn default() -> Self {
        SimDevice {
            block_size: DEFAULT_BLOCK_SIZE,
            pages: RwLock::new(Vec::new()),
            free_list: Mutex::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let dev = SimDevice::with_block_size(128);
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
    fn oversized_write_rejected() {
        let dev = SimDevice::with_block_size(64);
        let id = dev.alloc_page();
        assert!(dev.write_page(id, &[0u8; 65]).is_err());
        // failed write not counted
        assert_eq!(dev.io().writes, 0);
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let dev = SimDevice::new();
        let id = dev.alloc_page();
        assert!(dev.read_page(id).is_err());
        assert!(dev.read_page(999).is_err());
    }

    #[test]
    fn free_list_reuses_pages() {
        let dev = SimDevice::new();
        let a = dev.alloc_page();
        dev.write_page(a, b"x").unwrap();
        dev.free_page(a);
        assert_eq!(dev.live_pages(), 0);
        let b = dev.alloc_page();
        assert_eq!(a, b, "freed page id should be reused");
    }

    #[test]
    fn snapshot_delta() {
        let dev = SimDevice::new();
        let id = dev.alloc_page();
        dev.write_page(id, b"1").unwrap();
        let before = dev.io();
        dev.read_page(id).unwrap();
        dev.read_page(id).unwrap();
        let delta = dev.io().since(&before);
        assert_eq!(
            delta,
            IoSnapshot {
                reads: 2,
                writes: 0
            }
        );
        assert_eq!(delta.total(), 2);
    }

    #[test]
    fn reset_clears_counters() {
        let dev = SimDevice::new();
        let id = dev.alloc_page();
        dev.write_page(id, b"1").unwrap();
        dev.reset_io();
        assert_eq!(dev.io().total(), 0);
    }
}
