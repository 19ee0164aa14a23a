//! Fault injection: [`FaultDevice`] wraps a [`FileDevice`] and makes
//! storage fail the way real disks do — torn writes, short reads, and a
//! device that dies mid-stream — so recovery and error paths can be
//! tested deterministically instead of hoping a crash lands in the right
//! window.
//!
//! The wrapper needs the *concrete* file device, not the trait: a torn
//! write must lay down half of a correctly-framed block (stale CRC still
//! in place) via [`FileDevice::write_raw_block`], which a plain
//! `write_page` could never produce — it would recompute a valid checksum
//! over the damage.

use crate::device::{DeviceRef, IoSnapshot, PageBytes, PageDevice, PageId};
use crate::file_device::{FileDevice, SLOT_HEADER_LEN};
use pyro_common::{PyroError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which faults to inject, and when. Default: none.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    fail_after_writes: Option<u64>,
    torn_at_write: Option<u64>,
    short_read_on: Option<PageId>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Every write after the first `n` fails with a typed
    /// [`PyroError::Io`] — the disk "fills up" or dies mid-ingest.
    pub fn fail_after_writes(mut self, n: u64) -> FaultPlan {
        self.fail_after_writes = Some(n);
        self
    }

    /// Write number `n` (0-based) is torn: only the first half of the
    /// block image reaches the platter, yet the write *reports success* —
    /// the lying-disk scenario the CRC exists for.
    pub fn torn_at_write(mut self, n: u64) -> FaultPlan {
        self.torn_at_write = Some(n);
        self
    }

    /// Reads of `page` return truncated bytes (payload cut in half).
    pub fn short_read_on(mut self, page: PageId) -> FaultPlan {
        self.short_read_on = Some(page);
        self
    }
}

/// A [`PageDevice`] that delegates to a [`FileDevice`] while injecting
/// the faults in its [`FaultPlan`].
#[derive(Debug)]
pub struct FaultDevice {
    inner: Arc<FileDevice>,
    plan: FaultPlan,
    writes_seen: AtomicU64,
}

impl FaultDevice {
    /// Wraps `inner` with `plan`.
    pub fn wrap(inner: Arc<FileDevice>, plan: FaultPlan) -> Arc<FaultDevice> {
        Arc::new(FaultDevice {
            inner,
            plan,
            writes_seen: AtomicU64::new(0),
        })
    }

    /// The wrapped file device (for post-fault forensics in tests).
    pub fn inner(&self) -> &Arc<FileDevice> {
        &self.inner
    }

    /// Upcast to the trait-object handle.
    pub fn as_device(self: &Arc<Self>) -> DeviceRef {
        self.clone()
    }
}

impl PageDevice for FaultDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn alloc_page(&self) -> PageId {
        self.inner.alloc_page()
    }

    fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        let n = self.writes_seen.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.plan.fail_after_writes {
            if n >= limit {
                return Err(PyroError::Io(format!(
                    "injected fault: write {n} to page {id} failed"
                )));
            }
        }
        if self.plan.torn_at_write == Some(n) {
            // Half the new block lands; the caller is told all of it did.
            let block = self.inner.encode_block(data)?;
            return self.inner.write_raw_block(id, &block[..block.len() / 2]);
        }
        self.inner.write_page(id, data)
    }

    fn read_page(&self, id: PageId) -> Result<PageBytes> {
        if self.plan.short_read_on == Some(id) {
            let mut raw = self.inner.read_raw_block(id)?;
            let cut = if raw.len() >= SLOT_HEADER_LEN {
                let len = u32::from_le_bytes(raw[4..8].try_into().expect("slot header")) as usize;
                if len == 0 {
                    SLOT_HEADER_LEN / 2
                } else {
                    SLOT_HEADER_LEN + len / 2
                }
            } else {
                raw.len() / 2
            };
            raw.truncate(cut);
            return Ok(self.inner.decode_block(id, &raw)?.as_slice().into());
        }
        self.inner.read_page(id)
    }

    fn free_page(&self, id: PageId) {
        self.inner.free_page(id)
    }

    fn io(&self) -> IoSnapshot {
        self.inner.io()
    }

    fn reset_io(&self) {
        self.inner.reset_io()
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn reclaim_except(&self, live: &[PageId]) {
        self.inner.reclaim_except(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pyro-fault-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("data.pyro")
    }

    #[test]
    fn fail_after_n_writes() {
        let file = FileDevice::create_with_block_size(tmp("failn"), 128).unwrap();
        let dev = FaultDevice::wrap(file, FaultPlan::none().fail_after_writes(2));
        let a = dev.alloc_page();
        let b = dev.alloc_page();
        let c = dev.alloc_page();
        dev.write_page(a, b"one").unwrap();
        dev.write_page(b, b"two").unwrap();
        match dev.write_page(c, b"three") {
            Err(PyroError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("expected injected Io error, got {other:?}"),
        }
        // Earlier writes are intact.
        assert_eq!(dev.read_page(a).unwrap(), b"one");
    }

    #[test]
    fn torn_write_reports_success_but_corrupts() {
        let file = FileDevice::create_with_block_size(tmp("torn"), 128).unwrap();
        let dev = FaultDevice::wrap(file, FaultPlan::none().torn_at_write(0));
        let id = dev.alloc_page();
        dev.write_page(id, &[42u8; 100]).unwrap(); // lies: reports success
        assert!(matches!(
            dev.read_page(id),
            Err(PyroError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn short_read_is_typed_io_error() {
        let file = FileDevice::create_with_block_size(tmp("short"), 128).unwrap();
        let dev = FaultDevice::wrap(file, FaultPlan::none().short_read_on(0));
        let id = dev.alloc_page();
        dev.write_page(id, &[7u8; 64]).unwrap();
        match dev.read_page(id) {
            Err(PyroError::Io(msg)) => assert!(msg.contains("short read"), "{msg}"),
            other => panic!("expected short-read Io error, got {other:?}"),
        }
        // Un-faulted pages read fine through the same wrapper.
        let other = dev.alloc_page();
        dev.write_page(other, b"clean").unwrap();
        assert_eq!(dev.read_page(other).unwrap(), b"clean");
    }
}
