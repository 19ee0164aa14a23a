//! The page store: the I/O path every [`TupleFile`] actually uses — a
//! [`PageDevice`] with an optional [`BufferPool`] in front of it.
//!
//! Three modes, chosen at construction:
//!
//! * **bypass** ([`PageStore::bypass`], the default everywhere): reads and
//!   writes go straight to the device, byte- and counter-identical to the
//!   pre-pool engine. This is what a bare device becomes through
//!   [`IntoStore`], so every API that accepts `impl IntoStore` keeps taking
//!   a `DeviceRef`.
//! * **cached** ([`PageStore::cached`]): reads go through the pool's
//!   [`BufferPool::read_page`], which shares the frame's bytes and holds no
//!   frame; writes are write-back. Device counters then measure *cold* I/O
//!   only, and the pool's [`CacheStats`] measure hot/cold separation.
//! * **durable** ([`PageStore::durable`]): a file device with a [`Wal`]
//!   behind it, with or without a pool. Inside a mutation window every page
//!   write is logged before it reaches pool or device, and the pool's write
//!   barrier makes a page's log record stable before the page is written
//!   back.
//!
//! Page **allocation** and **free** always talk to the device directly —
//! the free list is an allocation concern, not a caching one — but freeing
//! also invalidates any resident frame so a recycled page id can never
//! serve stale bytes.
//!
//! [`TupleFile`]: crate::TupleFile
//! [`PageDevice`]: crate::PageDevice

use crate::device::{DeviceRef, PageBytes, PageId};
use crate::pool::{BufferPool, CacheStats};
use crate::wal::{Lsn, Wal};
use pyro_common::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The durability half of a store: the WAL plus the mutation window.
///
/// While the window is open (a catalog mutation in flight), every
/// [`PageStore::write_page`] appends the page image to the WAL before the
/// page can reach pool or device — write-ahead by construction. Writes
/// outside the window (query-time sort spills, whose pages die with the
/// query) skip the log entirely.
#[derive(Debug)]
struct Durable {
    wal: Arc<Wal>,
    window: AtomicBool,
    /// Commit checkpoints (flush + data fsync + new log cycle) once the
    /// log outgrows this many bytes; `u64::MAX` disables auto-checkpoint.
    /// A checkpoint truncates a log file longer than twice this.
    checkpoint_bytes: u64,
}

/// A device plus optional buffer pool; see the module docs.
#[derive(Debug)]
pub struct PageStore {
    device: DeviceRef,
    pool: Option<BufferPool>,
    durable: Option<Durable>,
}

/// Shared handle to a page store. Every [`crate::TupleFile`] of one catalog
/// shares one store, so they share one pool.
pub type StoreRef = Arc<PageStore>;

impl PageStore {
    /// A store that passes every operation straight to `device`.
    pub fn bypass(device: DeviceRef) -> StoreRef {
        Arc::new(PageStore {
            device,
            pool: None,
            durable: None,
        })
    }

    /// A store that caches pages in a `pages`-frame [`BufferPool`] (floor 1).
    pub fn cached(device: DeviceRef, pages: usize) -> StoreRef {
        Arc::new(PageStore {
            pool: Some(BufferPool::new(device.clone(), pages)),
            device,
            durable: None,
        })
    }

    /// A durable store: `device` should be a [`crate::FileDevice`] (or a
    /// fault wrapper around one), `wal` its write-ahead log. With
    /// `pool_pages > 0` the pool's write barrier makes a dirty page's log
    /// record stable ([`Wal::sync_through`]) before the page reaches the
    /// data file; `checkpoint_bytes` bounds
    /// log growth (`u64::MAX` to keep the log until an explicit
    /// [`PageStore::checkpoint`]).
    pub fn durable(
        device: DeviceRef,
        wal: Arc<Wal>,
        pool_pages: usize,
        checkpoint_bytes: u64,
    ) -> StoreRef {
        let pool = (pool_pages > 0).then(|| {
            let barrier_wal = wal.clone();
            BufferPool::with_barrier(
                device.clone(),
                pool_pages,
                Arc::new(move |lsn| barrier_wal.sync_through(lsn)),
            )
        });
        Arc::new(PageStore {
            device,
            pool,
            durable: Some(Durable {
                wal,
                window: AtomicBool::new(false),
                checkpoint_bytes,
            }),
        })
    }

    /// Whether this store has a WAL behind it.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The write-ahead log, when durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.durable.as_ref().map(|d| &d.wal)
    }

    /// Opens the mutation window: until [`PageStore::commit_mutation`] or
    /// [`PageStore::abort_mutation`], every page write is WAL-logged
    /// first. Returns the log offset to [`PageStore::abort_mutation`]
    /// back to. No-op (returns 0) on non-durable stores.
    pub fn begin_mutation(&self) -> u64 {
        match &self.durable {
            Some(d) => {
                d.window.store(true, Ordering::Release);
                d.wal.mark()
            }
            None => 0,
        }
    }

    /// Commits the open mutation: logs `root` (the catalog root image
    /// that makes the mutation visible), appends the commit marker,
    /// fsyncs the log — the durability point — then writes the root
    /// through the normal page path and auto-checkpoints if the log has
    /// outgrown its threshold. On non-durable stores this is just the
    /// root write.
    pub fn commit_mutation(&self, root: PageId, root_image: &[u8]) -> Result<()> {
        if let Some(d) = &self.durable {
            d.wal.append_page(root, root_image)?;
            d.wal.append_commit()?;
            d.wal.sync()?;
            d.window.store(false, Ordering::Release);
        }
        // The root's record is stable already, so its frame needs no LSN.
        self.write_page_after_log(root, root_image, None)?;
        if let Some(d) = &self.durable {
            if d.wal.size() > d.checkpoint_bytes {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Aborts the open mutation, truncating the log back to the
    /// [`PageStore::begin_mutation`] mark so none of it can ever replay.
    /// The half-written data pages are reclaimed by the caller (they were
    /// never referenced by a committed root). No-op on non-durable
    /// stores.
    pub fn abort_mutation(&self, mark: u64) -> Result<()> {
        match &self.durable {
            Some(d) => {
                d.window.store(false, Ordering::Release);
                d.wal.rewind(mark)
            }
            None => Ok(()),
        }
    }

    /// Checkpoint: flush the pool (its barrier fsyncs the WAL first),
    /// fsync the data file, then start a new log cycle ([`Wal::recycle`])
    /// — every committed page is now in the data file, so the log's
    /// history is redundant. The file keeps its length unless it is longer
    /// than twice the checkpoint threshold, which bounds it to one
    /// steady-state cycle. No-op on non-durable stores beyond the pool
    /// flush.
    pub fn checkpoint(&self) -> Result<()> {
        self.flush()?;
        self.device.sync()?;
        if let Some(d) = &self.durable {
            d.wal.recycle(d.checkpoint_bytes.saturating_mul(2))?;
        }
        Ok(())
    }

    /// The underlying device (exact cold-I/O counters).
    pub fn device(&self) -> &DeviceRef {
        &self.device
    }

    /// The pool, when this store is cached.
    pub fn pool(&self) -> Option<&BufferPool> {
        self.pool.as_ref()
    }

    /// Pool capacity in pages; `None` in bypass mode.
    pub fn pool_pages(&self) -> Option<usize> {
        self.pool.as_ref().map(BufferPool::capacity)
    }

    /// The device's block size in bytes.
    pub fn block_size(&self) -> usize {
        self.device.block_size()
    }

    /// Allocates a page id (device free list; never cached).
    pub fn alloc_page(&self) -> PageId {
        self.device.alloc_page()
    }

    /// Currently allocated (non-freed) pages. Allocation always goes to
    /// the device, so this is exact even with dirty pages still in the
    /// pool.
    pub fn live_pages(&self) -> usize {
        self.device.live_pages()
    }

    /// Reads a page — through the pool when cached (a resident page costs
    /// no device read), straight from the device otherwise. Either way the
    /// bytes are shared, not copied: the resident frame's, or the buffer
    /// the device just filled.
    pub fn read_page(&self, id: PageId) -> Result<PageBytes> {
        match &self.pool {
            Some(pool) => pool.read_page(id),
            None => self.device.read_page(id),
        }
    }

    /// Writes a page — write-back through the pool when cached (the device
    /// write is deferred to eviction or [`PageStore::flush`]), a direct
    /// device write otherwise. Inside an open mutation window the page
    /// image goes to the WAL first (write-ahead).
    pub fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        let lsn = match &self.durable {
            Some(d) if d.window.load(Ordering::Acquire) => Some(d.wal.append_page(id, data)?),
            _ => None,
        };
        self.write_page_after_log(id, data, lsn)
    }

    /// The write itself, once the page's image (if it is logged at all) is
    /// in the WAL as record `lsn`.
    fn write_page_after_log(&self, id: PageId, data: &[u8], lsn: Option<Lsn>) -> Result<()> {
        match &self.pool {
            Some(pool) => pool.write_page_logged(id, data, lsn),
            None => self.device.write_page(id, data),
        }
    }

    /// Frees a page: drops any resident frame (dead bytes are not written
    /// back) and returns the id to the device free list.
    pub fn free_page(&self, id: PageId) {
        if let Some(pool) = &self.pool {
            pool.invalidate(id);
        }
        self.device.free_page(id);
    }

    /// Writes every dirty cached page to the device; no-op in bypass mode.
    pub fn flush(&self) -> Result<()> {
        match &self.pool {
            Some(pool) => pool.flush(),
            None => Ok(()),
        }
    }

    /// Writes `pages` back and drops their frames, touching no other page
    /// (see [`BufferPool::flush_and_drop`]); no-op in bypass mode. Bulk-load
    /// paths call this over the pages they wrote, so ingestion neither
    /// pre-warms a query-time cold run nor empties a warm pool.
    pub fn flush_and_drop(&self, pages: &[PageId]) -> Result<()> {
        match &self.pool {
            Some(pool) => pool.flush_and_drop(pages),
            None => Ok(()),
        }
    }

    /// Pool counters; all-zero (and never advancing) in bypass mode.
    pub fn cache_stats(&self) -> CacheStats {
        self.pool
            .as_ref()
            .map(BufferPool::stats)
            .unwrap_or_default()
    }
}

/// Conversion into a [`StoreRef`], implemented for stores and bare devices
/// alike — the compatibility seam that lets sort operators and tuple files
/// keep accepting a `DeviceRef` (which becomes a fresh bypass store) while
/// catalog-driven callers hand in their shared, possibly cached store.
pub trait IntoStore {
    /// Consumes `self` into a shared store handle.
    fn into_store(self) -> StoreRef;
}

impl IntoStore for StoreRef {
    fn into_store(self) -> StoreRef {
        self
    }
}

impl IntoStore for &StoreRef {
    fn into_store(self) -> StoreRef {
        self.clone()
    }
}

impl IntoStore for DeviceRef {
    fn into_store(self) -> StoreRef {
        PageStore::bypass(self)
    }
}

impl IntoStore for &DeviceRef {
    fn into_store(self) -> StoreRef {
        PageStore::bypass(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;

    #[test]
    fn bypass_mirrors_device_exactly() {
        let dev = SimDevice::with_block_size(64);
        let store = PageStore::bypass(dev.clone());
        let id = store.alloc_page();
        store.write_page(id, b"x").unwrap();
        assert_eq!(store.read_page(id).unwrap(), b"x");
        assert_eq!(dev.io().reads, 1);
        assert_eq!(dev.io().writes, 1);
        assert_eq!(store.cache_stats(), CacheStats::default());
        assert!(store.pool().is_none());
        let bytes = store.read_page(id).unwrap();
        let device_bytes = dev.read_page(id).unwrap();
        assert_eq!(bytes.as_ptr(), device_bytes.as_ptr(), "no copy");
        store.flush().unwrap();
        store.flush_and_drop(&[id]).unwrap();
        store.free_page(id);
        assert_eq!(dev.live_pages(), 0);
    }

    #[test]
    fn cached_store_defers_writes_and_absorbs_rereads() {
        let dev = SimDevice::with_block_size(64);
        let store = PageStore::cached(dev.clone(), 4);
        let id = store.alloc_page();
        store.write_page(id, b"x").unwrap();
        assert_eq!(dev.io().writes, 0, "write-back");
        for _ in 0..3 {
            assert_eq!(store.read_page(id).unwrap(), b"x");
        }
        assert_eq!(dev.io().reads, 0, "dirty resident page, no cold read");
        assert_eq!(store.cache_stats().hits, 3);
        store.flush().unwrap();
        assert_eq!(dev.io().writes, 1);
    }

    #[test]
    fn free_page_invalidates_resident_frame() {
        let dev = SimDevice::with_block_size(64);
        let store = PageStore::cached(dev.clone(), 4);
        let id = store.alloc_page();
        store.write_page(id, b"old").unwrap();
        store.free_page(id);
        // Recycled id: the frame must be gone, or this read would see "old".
        let id2 = store.alloc_page();
        assert_eq!(id, id2, "device recycles freed ids");
        store.write_page(id2, b"new").unwrap();
        assert_eq!(store.read_page(id2).unwrap(), b"new");
    }

    #[test]
    fn device_conversions_build_bypass_stores() {
        let dev = SimDevice::new();
        let by_value: StoreRef = dev.clone().into_store();
        let by_ref: StoreRef = (&dev).into_store();
        assert!(by_value.pool().is_none());
        assert!(by_ref.pool().is_none());
        assert_eq!(by_ref.block_size(), dev.block_size());
    }

    /// A checkpoint starts a new log cycle for one fsync: the file keeps
    /// its length within twice the checkpoint threshold and is truncated
    /// past it. A commit's own fsync count does not change.
    #[test]
    fn checkpoint_keeps_the_log_within_twice_its_threshold() {
        use crate::file_device::FileDevice;
        use crate::wal::WAL_HEADER_LEN;
        let dir = std::env::temp_dir().join(format!("pyro-store-{}-retain", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let wal = Arc::new(Wal::open_or_create(dir.join("wal.pyro")).unwrap());
        let store = PageStore::durable(dev.as_device(), wal.clone(), 0, 1_000);
        let root = store.alloc_page();
        let file_len = || std::fs::metadata(dir.join("wal.pyro")).unwrap().len();
        let commit = |pages: usize| {
            store.begin_mutation();
            for _ in 0..pages {
                let id = store.alloc_page();
                store.write_page(id, &[7u8; 100]).unwrap();
            }
            store.commit_mutation(root, b"root").unwrap();
        };

        // Two 125-byte page images, the root and the marker: 320 bytes.
        commit(2);
        assert_eq!(wal.sync_count(), 1, "a commit is one fsync");
        let len = file_len();
        store.checkpoint().unwrap();
        assert_eq!(wal.sync_count(), 2, "a checkpoint is one more");
        assert_eq!((wal.size(), file_len()), (WAL_HEADER_LEN, len));

        // Twenty images outgrow the threshold and twice it: the commit's
        // own checkpoint truncates.
        commit(20);
        assert_eq!(
            wal.sync_count(),
            4,
            "the commit's fsync and its checkpoint's"
        );
        assert_eq!((wal.size(), file_len()), (WAL_HEADER_LEN, WAL_HEADER_LEN));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
