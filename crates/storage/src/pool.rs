//! A fixed-capacity buffer pool over any [`PageDevice`](crate::PageDevice).
//!
//! The pool caches whole pages in **frames**. Replacement is CLOCK (second
//! chance): a hand sweeps the frame array, clearing each frame's reference
//! bit on the first pass and evicting the first frame found with the bit
//! already clear. Writes are **write-back**: a page written through the
//! pool is only marked dirty; the device write happens when the frame is
//! evicted or the pool is [`flush`]ed, so hot spill runs and rescans never
//! round-trip through the device at all.
//!
//! A frame's bytes are a [`PageBytes`]: on a miss, the very buffer the
//! device read into becomes the frame — no copy — and [`read_page`] hands
//! out another reference to it, again without copying. Because the bytes
//! are immutable and reference-counted, no reader holds a frame: an
//! eviction while a scan decodes frees the frame, not the bytes. Every
//! frame can therefore always be evicted, and a full pool always has a
//! victim.
//!
//! The pool is `Send + Sync` — one `Mutex` guards the frame table (device
//! reads on a miss happen *outside* it, so workers' hits proceed while a
//! cold page loads), and the morsel workers of a parallel scan share a
//! single pool the way the paper's PostgreSQL baseline shares its
//! shared_buffers. Hit / miss / eviction / write-back counters are relaxed
//! atomics, summable from any thread.
//!
//! # Write-ahead ordering
//!
//! A durable store logs a page image before the page enters the pool and
//! passes the record's LSN along ([`BufferPool::write_page_logged`]); the
//! frame remembers the newest LSN it was logged under. Before a dirty
//! frame is written back — eviction, [`flush`] or [`flush_and_drop`] —
//! the pool calls its barrier with that LSN, and the barrier
//! ([`crate::Wal::sync_through`]) fsyncs the log only if the record is
//! not stable yet. One fsync therefore covers every page logged before
//! it, and a frame that was never logged asks for none.
//!
//! [`read_page`]: BufferPool::read_page
//! [`flush`]: BufferPool::flush
//! [`flush_and_drop`]: BufferPool::flush_and_drop

use crate::device::{DeviceRef, PageBytes, PageId};
use crate::wal::Lsn;
use pyro_common::{PyroError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of buffer-pool counters, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Reads satisfied from a resident frame (no device read).
    pub hits: u64,
    /// Reads that had to read the page from the device.
    pub misses: u64,
    /// Frames reclaimed by the CLOCK hand.
    pub evictions: u64,
    /// Dirty pages written back to the device (on eviction or flush).
    pub writebacks: u64,
}

impl CacheStats {
    /// Counter delta `self − earlier`.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            writebacks: self.writebacks - earlier.writebacks,
        }
    }

    /// Fraction of reads that hit, in `[0, 1]`; `0` before any read.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One cached page.
struct Frame {
    page: PageId,
    /// Shared so readers keep using the bytes without holding the pool
    /// lock — on a miss this is the buffer the device filled.
    data: PageBytes,
    /// Written through the pool but not yet to the device.
    dirty: bool,
    /// The newest WAL record holding an image of this page, if it was ever
    /// logged: what must be stable before the frame may be written back.
    lsn: Option<Lsn>,
    /// CLOCK reference bit: set on every read and write, cleared by the
    /// sweeping hand.
    referenced: bool,
}

struct PoolInner {
    frames: Vec<Frame>,
    /// `PageId → frames index` for resident pages.
    map: HashMap<PageId, usize>,
    /// The CLOCK hand: index of the next frame to inspect.
    hand: usize,
}

impl PoolInner {
    /// Drops `id`'s frame, if resident, whatever its state.
    fn remove(&mut self, id: PageId) {
        if let Some(idx) = self.map.remove(&id) {
            self.frames.swap_remove(idx);
            if let Some(moved) = self.frames.get(idx) {
                self.map.insert(moved.page, idx);
            }
            if self.hand > self.frames.len() {
                self.hand = 0;
            }
        }
    }

    /// CLOCK second-chance sweep over a full pool: a referenced frame
    /// loses its bit and survives one pass; the first unreferenced frame
    /// is the victim. The first sweep clears every bit it passes, so the
    /// second always ends in a victim.
    fn clock_victim(&mut self) -> usize {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = self.hand % n;
            self.hand = (self.hand + 1) % n;
            if !std::mem::take(&mut self.frames[idx].referenced) {
                return idx;
            }
        }
        unreachable!("a full sweep clears every reference bit")
    }
}

/// A fixed-capacity CLOCK page cache over a [`PageDevice`].
///
/// ```
/// use pyro_storage::{BufferPool, SimDevice};
///
/// let device = SimDevice::with_block_size(128);
/// let id = device.alloc_page();
/// device.write_page(id, b"hello").unwrap();
///
/// let pool = BufferPool::new(device.clone(), 4);
/// let cold = pool.read_page(id).unwrap(); // miss: reads the device
/// assert_eq!(cold, b"hello");
/// let warm = pool.read_page(id).unwrap(); // hit: no device read
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(device.io().reads, 1, "second read never touched the device");
/// assert_eq!(warm.as_ptr(), cold.as_ptr(), "both share the frame's bytes");
/// ```
///
/// [`PageDevice`]: crate::PageDevice
pub struct BufferPool {
    device: DeviceRef,
    capacity: usize,
    inner: Mutex<PoolInner>,
    /// Invoked before a dirty, logged page reaches the device (eviction or
    /// flush) with the LSN that must be stable first. Durable stores hang
    /// the WAL fsync here: a logged-but-unsynced page image must be on
    /// stable log storage before the data file can change — write-ahead,
    /// even for mid-mutation evictions.
    barrier: Option<WriteBarrier>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

/// The pre-writeback hook type: makes every log record up to and
/// including the given LSN stable. See [`BufferPool::with_barrier`].
pub type WriteBarrier = Arc<dyn Fn(Lsn) -> Result<()> + Send + Sync>;

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames (floor 1) over `device`.
    pub fn new(device: DeviceRef, capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            device,
            capacity,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            barrier: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// Like [`BufferPool::new`], with a write barrier called before the
    /// write-back of any dirty page that was logged. The durable store
    /// passes [`crate::Wal::sync_through`] here, making "log hits disk
    /// before data" hold on *every* path a page can take to the device —
    /// explicit flush and CLOCK eviction alike.
    pub fn with_barrier(device: DeviceRef, capacity: usize, barrier: WriteBarrier) -> BufferPool {
        let mut pool = BufferPool::new(device, capacity);
        pool.barrier = Some(barrier);
        pool
    }

    /// Runs the barrier for a write-back whose newest log record is `lsn`;
    /// nothing to wait for when the page was never logged.
    fn pre_writeback(&self, lsn: Option<Lsn>) -> Result<()> {
        match (&self.barrier, lsn) {
            (Some(barrier), Some(lsn)) => barrier(lsn),
            _ => Ok(()),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceRef {
        &self.device
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Reads a page through the pool: a hit hands out the resident
    /// frame's bytes, a miss loads (and caches) the page, and either way
    /// nothing is copied — see the module docs for why the caller holds no
    /// frame.
    pub fn read_page(&self, id: PageId) -> Result<PageBytes> {
        let resident = |inner: &mut PoolInner| {
            let idx = *inner.map.get(&id)?;
            let frame = &mut inner.frames[idx];
            frame.referenced = true;
            Some(frame.data.clone())
        };
        {
            let mut inner = self.inner.lock().expect("buffer pool poisoned");
            if let Some(hit) = resident(&mut inner) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        // Miss: read the device *without* holding the pool lock, so other
        // workers' hits (and misses on other pages) proceed concurrently.
        // The buffer the device filled is the frame's bytes from here on.
        let data = self.device.read_page(id)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        // Another worker may have cached the page while we were reading:
        // use its frame (whose bytes may be newer than our device copy).
        // The miss is already counted — the device read did happen.
        if let Some(raced) = resident(&mut inner) {
            return Ok(raced);
        }
        let frame = Frame {
            page: id,
            data: data.clone(),
            dirty: false,
            lsn: None,
            referenced: true,
        };
        self.install(&mut inner, frame)?;
        Ok(data)
    }

    /// Writes a page through the pool: the frame is updated (or created)
    /// and marked dirty; the device write is deferred to eviction or
    /// [`BufferPool::flush`]. `data` must not exceed the device block
    /// size.
    pub fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.write_page_logged(id, data, None)
    }

    /// [`BufferPool::write_page`] for a page whose image was just appended
    /// to the WAL as record `lsn`: the frame remembers it, and its
    /// write-back waits for that record to be stable. `None` is a write
    /// that was not logged (a resident frame keeps the LSN it had).
    pub fn write_page_logged(&self, id: PageId, data: &[u8], lsn: Option<Lsn>) -> Result<()> {
        if data.len() > self.device.block_size() {
            return Err(PyroError::Storage(format!(
                "page overflow: {} > block size {}",
                data.len(),
                self.device.block_size()
            )));
        }
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        if let Some(&idx) = inner.map.get(&id) {
            let frame = &mut inner.frames[idx];
            frame.data = data.into();
            frame.dirty = true;
            frame.lsn = lsn.or(frame.lsn);
            frame.referenced = true;
            return Ok(());
        }
        let frame = Frame {
            page: id,
            data: data.into(),
            dirty: true,
            lsn,
            referenced: true,
        };
        self.install(&mut inner, frame)
    }

    /// Drops `id`'s frame — **without** write-back — no matter its state.
    /// This is the "file deleted" path: the page's contents are dead, so
    /// flushing them would be wasted I/O. Bytes already handed out stay
    /// valid: they are shared, not owned by the frame.
    pub fn invalidate(&self, id: PageId) {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        inner.remove(id);
    }

    /// Writes every dirty frame back to the device (counting write-backs),
    /// leaving all frames resident and clean.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        let all = 0..inner.frames.len();
        self.write_back(&mut inner, all)
    }

    /// Writes back the dirty ones among the frames at `idxs` — one barrier
    /// call, for the newest LSN among them, then the device writes.
    fn write_back(&self, inner: &mut PoolInner, idxs: impl Iterator<Item = usize>) -> Result<()> {
        let dirty: Vec<usize> = idxs.filter(|&i| inner.frames[i].dirty).collect();
        let newest = dirty.iter().filter_map(|&i| inner.frames[i].lsn).max();
        self.pre_writeback(newest)?;
        for i in dirty {
            let frame = &mut inner.frames[i];
            self.device.write_page(frame.page, &frame.data)?;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
            frame.dirty = false;
        }
        Ok(())
    }

    /// Writes `pages`' dirty frames back (one barrier call, then the
    /// writes) and then drops their frames, leaving every other frame as
    /// it was. A bulk load ends with this over the pages it wrote: the load
    /// is on the device and did not warm the pool, and whatever else the
    /// pool held is still there. Costs a map lookup per page, whatever the
    /// pool's size.
    pub fn flush_and_drop(&self, pages: &[PageId]) -> Result<()> {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        let resident: Vec<usize> = pages
            .iter()
            .filter_map(|id| inner.map.get(id).copied())
            .collect();
        self.write_back(&mut inner, resident.into_iter())?;
        // Dropped in the caller's order, so which frame moves into a
        // vacated slot — and with it every later CLOCK victim and pool
        // counter — repeats from run to run.
        for id in pages {
            inner.remove(*id);
        }
        Ok(())
    }

    /// Flushes dirty frames, then drops every frame — the state a freshly
    /// constructed pool has. For cold-run measurements that must start
    /// from an actually cold cache.
    pub fn clear(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        let all = 0..inner.frames.len();
        self.write_back(&mut inner, all)?;
        inner.frames.clear();
        inner.map.clear();
        inner.hand = 0;
        Ok(())
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.inner
            .lock()
            .expect("buffer pool poisoned")
            .frames
            .len()
    }

    /// Makes room for `frame` and inserts it: a free slot if the pool is
    /// not full yet, otherwise the CLOCK victim's slot (writing the victim
    /// back first when dirty).
    fn install(&self, inner: &mut PoolInner, frame: Frame) -> Result<()> {
        if inner.frames.len() < self.capacity {
            inner.map.insert(frame.page, inner.frames.len());
            inner.frames.push(frame);
            return Ok(());
        }
        let victim = inner.clock_victim();
        // Write-back strictly precedes frame reuse: the victim's bytes are
        // on the device before the slot holds the new page.
        let v = &inner.frames[victim];
        if v.dirty {
            self.pre_writeback(v.lsn)?;
            self.device.write_page(v.page, &v.data)?;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let old = inner.frames[victim].page;
        inner.map.remove(&old);
        inner.map.insert(frame.page, victim);
        inner.frames[victim] = frame;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;

    /// Device with `n` pages written as `[i as u8; 4]`.
    fn device_with_pages(n: usize) -> (DeviceRef, Vec<PageId>) {
        let dev = SimDevice::with_block_size(64);
        let ids: Vec<PageId> = (0..n)
            .map(|i| {
                let id = dev.alloc_page();
                dev.write_page(id, &[i as u8; 4]).unwrap();
                id
            })
            .collect();
        (dev, ids)
    }

    #[test]
    fn hit_after_miss_skips_device() {
        let (dev, ids) = device_with_pages(1);
        let pool = BufferPool::new(dev.clone(), 2);
        let reads_before = dev.io().reads;
        assert_eq!(pool.read_page(ids[0]).unwrap(), vec![0u8; 4]);
        assert_eq!(pool.read_page(ids[0]).unwrap(), vec![0u8; 4]);
        assert_eq!(dev.io().reads, reads_before + 1, "one cold read only");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_gives_second_chance() {
        // Capacity 2; A and B resident with reference bits set. Touching C
        // must clear both bits on the first sweep and evict on the second —
        // and a re-referenced frame must survive longer than one never
        // touched again.
        let (dev, ids) = device_with_pages(4);
        let pool = BufferPool::new(dev.clone(), 2);
        pool.read_page(ids[0]).unwrap(); // A resident, referenced
        pool.read_page(ids[1]).unwrap(); // B resident, referenced
        pool.read_page(ids[0]).unwrap(); // A hit
        pool.read_page(ids[2]).unwrap(); // evicts one of A/B
        assert_eq!(pool.stats().evictions, 1);
        // A was re-referenced after the initial fill; with the hand at the
        // start, the sweep clears A's bit, clears B's bit, then returns to
        // A... both bits were set, so the evicted frame is the one the hand
        // reaches first with a clear bit — deterministically A (hand order),
        // but what we pin down as *behaviour* is just: a later hit on the
        // survivor is free, the evicted page costs a device read.
        let reads = dev.io().reads;
        pool.read_page(ids[1]).unwrap();
        pool.read_page(ids[2]).unwrap();
        let cold = dev.io().reads - reads;
        assert!(cold <= 1, "at most one of B/C was evicted");
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_in_order() {
        let dev = SimDevice::with_block_size(64);
        let a = dev.alloc_page();
        let b = dev.alloc_page();
        let c = dev.alloc_page();
        let pool = BufferPool::new(dev.clone(), 2);
        pool.write_page(a, b"aaaa").unwrap();
        pool.write_page(b, b"bbbb").unwrap();
        assert_eq!(dev.io().writes, 0, "write-back defers device writes");
        // Fill a third page: the victim's bytes must land on the device
        // *before* its frame is reused, so reading the evicted page back
        // through a fresh pool (device truth) sees the latest contents.
        pool.write_page(c, b"cccc").unwrap();
        assert_eq!(dev.io().writes, 1, "exactly the victim written back");
        assert_eq!(pool.stats().writebacks, 1);
        pool.flush().unwrap();
        assert_eq!(dev.io().writes, 3);
        assert_eq!(dev.read_page(a).unwrap(), b"aaaa");
        assert_eq!(dev.read_page(b).unwrap(), b"bbbb");
        assert_eq!(dev.read_page(c).unwrap(), b"cccc");
    }

    /// A pool whose barrier records the LSNs it is asked to make stable.
    fn pool_recording_barrier(
        dev: &DeviceRef,
        capacity: usize,
    ) -> (BufferPool, Arc<Mutex<Vec<Lsn>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let seen = calls.clone();
        let barrier: WriteBarrier = Arc::new(move |lsn| {
            seen.lock().unwrap().push(lsn);
            Ok(())
        });
        (
            BufferPool::with_barrier(dev.clone(), capacity, barrier),
            calls,
        )
    }

    #[test]
    fn barrier_gets_the_victims_lsn_and_unlogged_pages_skip_it() {
        let dev = SimDevice::with_block_size(64);
        let ids: Vec<PageId> = (0..4).map(|_| dev.alloc_page()).collect();
        let (pool, calls) = pool_recording_barrier(&dev, 2);
        pool.write_page_logged(ids[0], b"aaaa", Some(7)).unwrap();
        pool.write_page(ids[1], b"bbbb").unwrap(); // never logged
                                                   // Rewritten without a log record (a commit's root write): the frame
                                                   // still waits for the record it was logged under.
        pool.write_page(ids[0], b"AAAA").unwrap();
        pool.write_page_logged(ids[2], b"cccc", Some(9)).unwrap(); // evicts a
        assert_eq!(*calls.lock().unwrap(), [7]);
        pool.write_page_logged(ids[3], b"dddd", Some(11)).unwrap(); // evicts b
        assert_eq!(
            *calls.lock().unwrap(),
            [7],
            "an unlogged victim asks nothing"
        );
        assert_eq!(dev.io().writes, 2);
        assert_eq!(dev.read_page(ids[0]).unwrap(), b"AAAA");
        // A flush is one barrier call, for the newest LSN among the dirty.
        pool.flush().unwrap();
        assert_eq!(*calls.lock().unwrap(), [7, 11]);
        pool.flush().unwrap();
        assert_eq!(*calls.lock().unwrap(), [7, 11], "clean frames ask nothing");
    }

    #[test]
    fn flush_and_drop_touches_only_its_pages() {
        let (dev, ids) = device_with_pages(2);
        let (pool, calls) = pool_recording_barrier(&dev, 8);
        let loaded: Vec<PageId> = (0..3).map(|_| dev.alloc_page()).collect();
        for (i, id) in loaded.iter().enumerate() {
            pool.write_page_logged(*id, b"load", Some(20 + i as Lsn))
                .unwrap();
        }
        let other = dev.alloc_page();
        pool.write_page_logged(other, b"mine", Some(30)).unwrap();
        pool.read_page(ids[0]).unwrap(); // a clean resident page
        let writes = dev.io().writes;

        pool.flush_and_drop(&loaded).unwrap();
        assert_eq!(
            *calls.lock().unwrap(),
            [22],
            "one barrier, newest LSN of the set"
        );
        assert_eq!(dev.io().writes, writes + 3, "exactly the set written back");
        // The set is gone, and the bystanders — one dirty, one clean — are
        // as they were.
        assert_eq!(pool.resident(), 2);
        let reads = dev.io().reads;
        assert_eq!(pool.read_page(other).unwrap(), b"mine");
        pool.read_page(ids[0]).unwrap();
        assert_eq!(dev.io().reads, reads, "both still resident");
        pool.read_page(loaded[0]).unwrap();
        assert_eq!(dev.io().reads, reads + 1, "a dropped page reads cold");
        pool.flush().unwrap();
        assert_eq!(dev.io().writes, writes + 4, "the bystander was still dirty");
    }

    #[test]
    fn read_page_shares_the_frame_and_pins_nothing() {
        let (dev, ids) = device_with_pages(3);
        let pool = BufferPool::new(dev.clone(), 2);
        let cold = pool.read_page(ids[0]).unwrap();
        let warm = pool.read_page(ids[0]).unwrap();
        assert_eq!(cold.as_ptr(), warm.as_ptr(), "one buffer, handed out twice");
        // Holding the bytes holds no frame: both frames can be reused ...
        pool.read_page(ids[1]).unwrap();
        pool.read_page(ids[2]).unwrap();
        assert_eq!(pool.stats().evictions, 1);
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        // ... and the bytes outlive the frame they came from.
        assert_eq!(cold, [0u8; 4]);
    }

    #[test]
    fn rewrite_of_resident_page_stays_one_frame() {
        let dev = SimDevice::with_block_size(64);
        let a = dev.alloc_page();
        let pool = BufferPool::new(dev.clone(), 2);
        pool.write_page(a, b"v1").unwrap();
        pool.write_page(a, b"v2").unwrap();
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.read_page(a).unwrap(), b"v2");
        pool.flush().unwrap();
        assert_eq!(dev.io().writes, 1, "one write-back for the final value");
        assert_eq!(dev.read_page(a).unwrap(), b"v2");
    }

    #[test]
    fn invalidate_discards_dirty_frame_without_writeback() {
        let dev = SimDevice::with_block_size(64);
        let a = dev.alloc_page();
        let pool = BufferPool::new(dev.clone(), 2);
        pool.write_page(a, b"dead").unwrap();
        pool.invalidate(a);
        pool.flush().unwrap();
        assert_eq!(dev.io().writes, 0, "dead page never written back");
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn clear_resets_to_cold() {
        let (dev, ids) = device_with_pages(2);
        let pool = BufferPool::new(dev.clone(), 4);
        pool.read_page(ids[0]).unwrap();
        pool.read_page(ids[1]).unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        let reads = dev.io().reads;
        pool.read_page(ids[0]).unwrap();
        assert_eq!(dev.io().reads, reads + 1, "cold again after clear");
    }

    #[test]
    fn oversized_write_rejected_without_caching() {
        let dev = SimDevice::with_block_size(64);
        let a = dev.alloc_page();
        let pool = BufferPool::new(dev, 2);
        assert!(pool.write_page(a, &[0u8; 65]).is_err());
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn concurrent_reads_from_four_threads() {
        let (dev, ids) = device_with_pages(8);
        let pool = std::sync::Arc::new(BufferPool::new(dev.clone(), 4));
        const READS_PER_THREAD: usize = 500;
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = pool.clone();
                let ids = ids.clone();
                scope.spawn(move || {
                    let mut state = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    for _ in 0..READS_PER_THREAD {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let id = ids[(state >> 33) as usize % ids.len()];
                        assert_eq!(pool.read_page(id).unwrap(), [id as u8; 4]);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4 * READS_PER_THREAD as u64);
        assert_eq!(
            dev.io().reads,
            s.misses,
            "every miss is exactly one device read"
        );
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
    }

    /// One frame of [`Model`].
    struct ModelFrame {
        page: PageId,
        data: Vec<u8>,
        dirty: bool,
        lsn: Option<Lsn>,
        referenced: bool,
    }

    /// A naive model of the documented policy: a frame array searched
    /// linearly, swap-remove on drop, the CLOCK hand with second chance,
    /// write-back (after the barrier) on eviction and flush, and a device
    /// that is a map.
    struct Model {
        capacity: usize,
        frames: Vec<ModelFrame>,
        hand: usize,
        device: HashMap<PageId, Vec<u8>>,
        device_writes: u64,
        barrier: Vec<Lsn>,
        stats: CacheStats,
    }

    impl Model {
        fn find(&self, id: PageId) -> Option<usize> {
            self.frames.iter().position(|f| f.page == id)
        }

        fn write_back(&mut self, idxs: &[usize]) {
            let dirty: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| self.frames[i].dirty)
                .collect();
            self.barrier
                .extend(dirty.iter().filter_map(|&i| self.frames[i].lsn).max());
            for i in dirty {
                let f = &mut self.frames[i];
                self.device.insert(f.page, f.data.clone());
                self.device_writes += 1;
                self.stats.writebacks += 1;
                f.dirty = false;
            }
        }

        fn install(&mut self, frame: ModelFrame) {
            if self.frames.len() < self.capacity {
                self.frames.push(frame);
                return;
            }
            let n = self.frames.len();
            loop {
                let i = self.hand % n;
                self.hand = (self.hand + 1) % n;
                if self.frames[i].referenced {
                    self.frames[i].referenced = false;
                    continue;
                }
                self.write_back(&[i]);
                self.stats.evictions += 1;
                self.frames[i] = frame;
                return;
            }
        }

        fn drop_frame(&mut self, id: PageId) {
            if let Some(i) = self.find(id) {
                self.frames.swap_remove(i);
                if self.hand > self.frames.len() {
                    self.hand = 0;
                }
            }
        }

        fn read(&mut self, id: PageId) -> Vec<u8> {
            if let Some(i) = self.find(id) {
                self.stats.hits += 1;
                self.frames[i].referenced = true;
                return self.frames[i].data.clone();
            }
            self.stats.misses += 1;
            let data = self.device[&id].clone();
            self.install(ModelFrame {
                page: id,
                data: data.clone(),
                dirty: false,
                lsn: None,
                referenced: true,
            });
            data
        }

        fn write(&mut self, id: PageId, data: &[u8], lsn: Option<Lsn>) {
            match self.find(id) {
                Some(i) => {
                    let f = &mut self.frames[i];
                    f.data = data.to_vec();
                    f.dirty = true;
                    f.lsn = lsn.or(f.lsn);
                    f.referenced = true;
                }
                None => self.install(ModelFrame {
                    page: id,
                    data: data.to_vec(),
                    dirty: true,
                    lsn,
                    referenced: true,
                }),
            }
        }

        fn flush(&mut self) {
            let all: Vec<usize> = (0..self.frames.len()).collect();
            self.write_back(&all);
        }

        fn flush_and_drop(&mut self, pages: &[PageId]) {
            let idxs: Vec<usize> = pages.iter().filter_map(|&id| self.find(id)).collect();
            self.write_back(&idxs);
            for &id in pages {
                self.drop_frame(id);
            }
        }

        fn clear(&mut self) {
            self.flush();
            self.frames.clear();
            self.hand = 0;
        }
    }

    #[test]
    fn matches_a_naive_clock_model() {
        for seed in 0..80u64 {
            let capacity = 1 + (seed % 5) as usize;
            let dev = SimDevice::with_block_size(64);
            let ids: Vec<PageId> = (0..12).map(|_| dev.alloc_page()).collect();
            for (i, &id) in ids.iter().enumerate() {
                dev.write_page(id, &[i as u8, 0xA5]).unwrap();
            }
            let writes_before = dev.io().writes;
            let (pool, calls) = pool_recording_barrier(&dev, capacity);
            let mut model = Model {
                capacity,
                frames: Vec::new(),
                hand: 0,
                device: ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, vec![i as u8, 0xA5]))
                    .collect(),
                device_writes: 0,
                barrier: Vec::new(),
                stats: CacheStats::default(),
            };
            let mut state = (seed + 1).wrapping_mul(0x9E3779B97F4A7C15);
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let mut lsn: Lsn = 0;
            for step in 0..400u64 {
                let id = ids[next(12) as usize];
                let data: Vec<u8> = (0..1 + next(8) as u8)
                    .map(|k| (step as u8).wrapping_add(k))
                    .collect();
                let what = match next(100) {
                    0..=39 => {
                        let got = pool.read_page(id).unwrap();
                        assert_eq!(got, model.read(id), "seed {seed} step {step}: bytes");
                        "read_page"
                    }
                    40..=59 => {
                        pool.write_page(id, &data).unwrap();
                        model.write(id, &data, None);
                        "write_page"
                    }
                    60..=74 => {
                        lsn += 1;
                        pool.write_page_logged(id, &data, Some(lsn)).unwrap();
                        model.write(id, &data, Some(lsn));
                        "write_page_logged"
                    }
                    75..=82 => {
                        pool.invalidate(id);
                        model.drop_frame(id);
                        "invalidate"
                    }
                    83..=87 => {
                        pool.flush().unwrap();
                        model.flush();
                        "flush"
                    }
                    88..=96 => {
                        // A file's pages: distinct ids, in any order.
                        let mut pages = ids.clone();
                        pages.retain(|_| next(3) == 0);
                        let mid = next(pages.len() as u64 + 1) as usize;
                        pages.rotate_left(mid);
                        pool.flush_and_drop(&pages).unwrap();
                        model.flush_and_drop(&pages);
                        "flush_and_drop"
                    }
                    _ => {
                        pool.clear().unwrap();
                        model.clear();
                        "clear"
                    }
                };
                let at = format!("seed {seed} capacity {capacity} step {step} ({what})");
                let frames: Vec<(PageId, bool, bool)> = {
                    let inner = pool.inner.lock().unwrap();
                    inner
                        .frames
                        .iter()
                        .map(|f| (f.page, f.dirty, f.referenced))
                        .collect()
                };
                let expected: Vec<(PageId, bool, bool)> = model
                    .frames
                    .iter()
                    .map(|f| (f.page, f.dirty, f.referenced))
                    .collect();
                assert_eq!(frames, expected, "{at}: frames");
                assert_eq!(pool.stats(), model.stats, "{at}: counters");
                assert_eq!(*calls.lock().unwrap(), model.barrier, "{at}: barrier");
            }
            pool.flush().unwrap();
            model.flush();
            assert_eq!(dev.io().writes - writes_before, model.device_writes);
            for &id in &ids {
                assert_eq!(dev.read_page(id).unwrap(), model.device[&id], "page {id}");
            }
        }
    }
}
