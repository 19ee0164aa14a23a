//! Page-level write-ahead log: the durability protocol behind
//! [`crate::FileDevice`].
//!
//! # On-disk format (`wal.pyro`, version 2)
//!
//! ```text
//! file header (16 B): [magic "PYRW"][version u32 = 2][epoch u64]
//! record:             [kind u8][lsn u64][page_id u64][payload_len u32][crc u32]
//!                     [payload…]
//! ```
//!
//! Little-endian throughout. `kind` 1 is a **page image** (payload = the
//! full page as it will be written to the data file), `kind` 2 is a
//! **commit marker** (empty payload). The CRC runs over the header's
//! epoch (8 bytes), then every record byte *except* the crc field itself,
//! then the payload. So a torn append — header without payload, or half
//! a payload — fails verification and ends the scan, and so does a record
//! written under any other epoch.
//!
//! Version 1 (an 8-byte header `[magic][version 1]`, CRCs not seeded with
//! an epoch, the same record framing) still recovers, and its recovery
//! rewrites the file as version 2.
//!
//! # Protocol
//!
//! A catalog mutation appends the page images it will write, then a commit
//! marker, then [`Wal::sync`]s — only after that fsync may any of those
//! pages reach the data file. The buffer pool's write barrier enforces the
//! ordering even for evictions mid-mutation: every append returns its
//! [`Lsn`], the pool keeps the newest one on the page's frame, and before
//! a write-back it calls [`Wal::sync_through`] with it — which fsyncs only
//! when that record is above the log's **synced watermark**, so one fsync
//! covers every page logged before it. Recovery replays page images up to
//! the **last complete commit** and discards everything after it: an
//! uncommitted tail, torn record, or bit flip simply truncates history
//! back to the previous commit.
//!
//! # Cycles
//!
//! The file is reused in **cycles**, one epoch each. A checkpoint (pool
//! flushed, data file fsynced) starts the next cycle with
//! [`Wal::recycle`]: it writes the header with `epoch + 1` at offset 0 and
//! fsyncs — one fsync, as many as a truncation costs — and appends restart
//! at offset 16, over the old cycle's bytes. Those bytes stay in the file
//! but never replay: their CRCs were seeded with an older epoch, so the
//! scan stops at the first of them exactly as at a torn record. A
//! recovery that found any byte past the header ends by starting a cycle
//! too, so no record of the recovered epoch — replayed, uncommitted, or
//! lying behind a torn one — is left under the epoch the next appends
//! use. (An LSN check could not stand in for the epoch: once a torn record
//! is overwritten by a new append that ends on a record boundary, the
//! intact same-cycle records behind it would follow in sequence and pass.)
//! The 16-byte header write is assumed not to tear, as a write inside one
//! sector does not.
//!
//! **Retention.** [`Wal::recycle`] first truncates a file longer than its
//! bound to the header; the page store passes twice its checkpoint
//! threshold, so disk use stays one steady-state cycle and a bulk load's
//! oversized log is not kept. [`Wal::rewind`] (abort) truncates too: an
//! aborted record of the current epoch must not lie behind a later torn
//! append.
//!
//! **Why recycle.** On a 2-vCPU VM's ext4 mount (mounted with `discard`),
//! `ftruncate` of a 1 MB log plus `fsync` took 43–77 ms, against well
//! under 1 ms to rewrite a 16-byte header plus `fsync`. The truncating
//! checkpoint stalled every ~8th commit of the `durable_mix` workload by
//! 86–119 ms (its traced `storage.checkpoint_ms`); recycled, the
//! checkpoint takes 0.6–0.7 ms.

use crate::file_device::FileDevice;
use crate::PageDevice;
use pyro_common::{PyroError, Result};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A log sequence number: the position of a record in the order it was
/// appended, counted from 0 by each [`Wal`] handle.
pub type Lsn = u64;

const MAGIC: &[u8; 4] = b"PYRW";
const VERSION: u32 = 2;
/// The format before cycles: an 8-byte header and unsalted CRCs.
const VERSION_1: u32 = 1;
const V1_HEADER_LEN: u64 = 8;
/// Bytes of file header before the first record.
pub const WAL_HEADER_LEN: u64 = 16;
/// Bytes of fixed per-record header.
pub const RECORD_HEADER_LEN: usize = 25;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> PyroError {
    PyroError::Io(format!("{ctx} {}: {e}", path.display()))
}

fn header(epoch: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[0..4].copy_from_slice(MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&epoch.to_le_bytes());
    header
}

/// The running CRC state a record's checksum starts from: the epoch's
/// bytes fed into the standard initial value, or that value alone for a
/// version-1 log (`None`).
fn crc_seed(epoch: Option<u64>) -> u32 {
    match epoch {
        Some(e) => crate::crc::update(!0u32, &e.to_le_bytes()),
        None => !0u32,
    }
}

#[derive(Debug)]
struct WalInner {
    file: File,
    /// End of the current cycle's records: where the next one goes.
    len: u64,
    /// Length of the file; the bytes from `len` to here are older cycles'.
    file_len: u64,
    /// The current cycle's epoch; `None` for a version-1 log, until its
    /// recovery rewrites it.
    epoch: Option<u64>,
    /// Next log sequence number.
    lsn: Lsn,
    /// The synced watermark: every record with an LSN below this is on
    /// stable storage (or was rewound away and no longer matters).
    synced: Lsn,
}

impl WalInner {
    /// Offset of the first record.
    fn body_start(&self) -> u64 {
        match self.epoch {
            Some(_) => WAL_HEADER_LEN,
            None => V1_HEADER_LEN,
        }
    }
}

/// Write-ahead log reused in epoch-salted cycles; see the module docs for
/// the protocol.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// Fsyncs of the log file since this handle opened it.
    syncs: AtomicU64,
}

/// What [`Wal::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Page images replayed into the data file (committed records only).
    pub pages_replayed: u64,
    /// Commit markers honoured.
    pub commits: u64,
    /// Records discarded after the last commit (uncommitted or torn tail).
    pub records_discarded: u64,
}

impl Wal {
    /// Opens the log at `path`, creating an empty one (header only, epoch
    /// 0) if it does not exist. An existing file must carry the WAL magic
    /// and a known version. Its records are not read here: the log is
    /// empty to appends until [`Wal::recover`] has run, which every opener
    /// calls first.
    pub fn open_or_create(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let mut head = Vec::with_capacity(WAL_HEADER_LEN as usize);
        (&mut file)
            .take(WAL_HEADER_LEN)
            .read_to_end(&mut head)
            .map_err(|e| io_err("read header of", &path, e))?;
        if head.len() >= 4 && &head[0..4] != MAGIC {
            return Err(PyroError::Recovery(format!(
                "bad WAL magic in {}",
                path.display()
            )));
        }
        let version = head
            .get(4..8)
            .map(|v| u32::from_le_bytes(v.try_into().expect("a 4-byte slice")));
        let epoch = match version {
            Some(VERSION_1) => None,
            Some(VERSION) if head.len() == WAL_HEADER_LEN as usize => Some(u64::from_le_bytes(
                head[8..16].try_into().expect("an 8-byte slice"),
            )),
            Some(v) if v != VERSION => {
                return Err(PyroError::Recovery(format!(
                    "unsupported WAL version {v} in {}",
                    path.display()
                )));
            }
            // Fewer bytes than a header: a creation the crash tore (a
            // cycle's header is rewritten in place and never shrinks).
            _ => {
                file.set_len(0).map_err(|e| io_err("truncate", &path, e))?;
                file.write_all_at(&header(0), 0)
                    .map_err(|e| io_err("write header of", &path, e))?;
                file.sync_all().map_err(|e| io_err("sync", &path, e))?;
                Some(0)
            }
        };
        let file_len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        let mut inner = WalInner {
            file,
            len: 0,
            file_len,
            epoch,
            lsn: 0,
            synced: 0,
        };
        inner.len = inner.body_start();
        Ok(Wal {
            path,
            inner: Mutex::new(inner),
            syncs: AtomicU64::new(0),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of the current cycle, header included — the checkpoint
    /// threshold compares against this. Older cycles' bytes further on in
    /// the file do not count.
    pub fn size(&self) -> u64 {
        self.inner.lock().expect("wal poisoned").len
    }

    /// Fsyncs of the log file through this handle so far: one per commit
    /// ([`Wal::sync`]), per barrier sync ([`Wal::sync_through`]), per
    /// rewind ([`Wal::rewind`]) and per started cycle ([`Wal::recycle`],
    /// whether or not it truncates, and the end of [`Wal::recover`]). A
    /// count, not a time: tests and benches gate on it exactly.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Fsyncs the log file and counts it; the caller updates the watermark.
    fn fsync(&self, inner: &WalInner) -> Result<()> {
        inner
            .file
            .sync_all()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn append(&self, kind: u8, page_id: u64, payload: &[u8]) -> Result<Lsn> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        let lsn = inner.lsn;
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.push(kind);
        record.extend_from_slice(&lsn.to_le_bytes());
        record.extend_from_slice(&page_id.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc_state = crate::crc::update(crc_seed(inner.epoch), &record);
        crc_state = crate::crc::update(crc_state, payload);
        record.extend_from_slice(&(crc_state ^ !0u32).to_le_bytes());
        record.extend_from_slice(payload);
        inner
            .file
            .write_all_at(&record, inner.len)
            .map_err(|e| io_err("append to", &self.path, e))?;
        inner.len += record.len() as u64;
        inner.file_len = inner.file_len.max(inner.len);
        inner.lsn += 1;
        Ok(lsn)
    }

    /// Appends a page image: the bytes `page_id` will hold once written
    /// back, and returns the record's LSN. Not yet durable — call
    /// [`Wal::sync`] (the commit path does) or [`Wal::sync_through`].
    pub fn append_page(&self, page_id: u64, payload: &[u8]) -> Result<Lsn> {
        self.append(KIND_PAGE_IMAGE, page_id, payload)
    }

    /// Appends a commit marker: everything logged before it is to be
    /// replayed on recovery once [`Wal::sync`] returns.
    pub fn append_commit(&self) -> Result<()> {
        self.append(KIND_COMMIT, 0, &[]).map(|_| ())
    }

    /// Fsyncs the log. After this returns, every appended record survives
    /// a crash.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        self.fsync(&inner)?;
        inner.synced = inner.lsn;
        Ok(())
    }

    /// Makes record `lsn` (and so every record before it) stable: a no-op
    /// when it is already below the synced watermark, one [`Wal::sync`] —
    /// which also covers everything appended since — otherwise. This is
    /// the buffer pool's pre-writeback barrier.
    pub fn sync_through(&self, lsn: Lsn) -> Result<()> {
        if lsn < self.inner.lock().expect("wal poisoned").synced {
            return Ok(());
        }
        self.sync()
    }

    /// Current end offset, for [`Wal::rewind`] on abort.
    pub fn mark(&self) -> u64 {
        self.inner.lock().expect("wal poisoned").len
    }

    /// Drops every record appended after `mark` (abort path). The file is
    /// truncated there and fsynced, so an aborted mutation can never be
    /// replayed, not even behind a later torn append.
    pub fn rewind(&self, mark: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        if mark >= inner.len {
            return Ok(());
        }
        inner
            .file
            .set_len(mark)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        self.fsync(&inner)?;
        inner.len = mark;
        inner.file_len = mark;
        inner.synced = inner.lsn;
        Ok(())
    }

    /// Starts a new cycle — the checkpoint epilogue, called only after the
    /// data file is flushed **and** fsynced. A file longer than
    /// `retain_bytes` is truncated to its header first. Costs one fsync,
    /// and nothing when the cycle holds no record and the file is within
    /// its bound.
    pub fn recycle(&self, retain_bytes: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        let truncate = inner.file_len > retain_bytes;
        if inner.len == inner.body_start() && !truncate {
            return Ok(());
        }
        self.start_cycle(&mut inner, truncate)
    }

    /// Writes the header of epoch `epoch + 1` at offset 0, after
    /// truncating the file to the header if `truncate` (always for a
    /// version-1 log, which becomes epoch 1), and fsyncs. The next append
    /// goes right after the header.
    fn start_cycle(&self, inner: &mut WalInner, truncate: bool) -> Result<()> {
        let epoch = inner.epoch.map_or(1, |e| e + 1);
        if truncate || inner.epoch.is_none() {
            inner
                .file
                .set_len(WAL_HEADER_LEN)
                .map_err(|e| io_err("truncate", &self.path, e))?;
            inner.file_len = WAL_HEADER_LEN;
        }
        inner
            .file
            .write_all_at(&header(epoch), 0)
            .map_err(|e| io_err("write header of", &self.path, e))?;
        self.fsync(inner)?;
        inner.epoch = Some(epoch);
        inner.len = WAL_HEADER_LEN;
        inner.file_len = inner.file_len.max(WAL_HEADER_LEN);
        inner.synced = inner.lsn;
        Ok(())
    }

    /// Crash recovery: scans the log, replays page images covered by the
    /// last complete commit into `device` (via
    /// [`FileDevice::restore_page`]), fsyncs the data file, and — if the
    /// file holds anything past its header — starts a new cycle, so no
    /// record scanned here can replay again. A version-1 log is truncated
    /// and rewritten as version 2. Torn, corrupt, stale or uncommitted
    /// tails are discarded — that is the protocol working, not an error.
    pub fn recover(&self, device: &FileDevice) -> Result<WalReplay> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        let start = inner.body_start();
        let mut body = vec![0u8; inner.file_len.saturating_sub(start) as usize];
        inner
            .file
            .read_exact_at(&mut body, start)
            .map_err(|e| io_err("read", &self.path, e))?;

        let seed = crc_seed(inner.epoch);
        let max_payload = device.block_size();
        let mut replay = WalReplay::default();
        let mut pending: Vec<(u64, &[u8])> = Vec::new();
        let mut offset = 0usize;
        while offset + RECORD_HEADER_LEN <= body.len() {
            let rec = &body[offset..];
            let kind = rec[0];
            let page_id = u64::from_le_bytes(rec[9..17].try_into().unwrap());
            let payload_len = u32::from_le_bytes(rec[17..21].try_into().unwrap()) as usize;
            let stored_crc = u32::from_le_bytes(rec[21..25].try_into().unwrap());
            if !(kind == KIND_PAGE_IMAGE || kind == KIND_COMMIT)
                || payload_len > max_payload
                || offset + RECORD_HEADER_LEN + payload_len > body.len()
            {
                break; // torn or garbage tail
            }
            let payload = &rec[RECORD_HEADER_LEN..RECORD_HEADER_LEN + payload_len];
            let mut crc_state = crate::crc::update(seed, &rec[..21]);
            crc_state = crate::crc::update(crc_state, payload);
            if crc_state ^ !0u32 != stored_crc {
                break; // bit flip, torn payload, or an older cycle's record
            }
            match kind {
                KIND_PAGE_IMAGE => pending.push((page_id, payload)),
                _ => {
                    for (id, image) in pending.drain(..) {
                        device.restore_page(id, image)?;
                        replay.pages_replayed += 1;
                    }
                    replay.commits += 1;
                }
            }
            offset += RECORD_HEADER_LEN + payload_len;
        }
        replay.records_discarded = pending.len() as u64;
        if replay.pages_replayed > 0 {
            device.sync()?;
        }
        if inner.epoch.is_none() || inner.file_len > WAL_HEADER_LEN {
            self.start_cycle(&mut inner, false)?;
        }
        Ok(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pyro-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn committed_records_replay() {
        let dir = tmp("replay");
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let wal = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        wal.append_page(0, b"page zero").unwrap();
        wal.append_page(3, b"page three").unwrap();
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        // Fresh handles, as a restarted process would have.
        drop(wal);
        let wal = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!(replay.pages_replayed, 2);
        assert_eq!(replay.commits, 1);
        assert_eq!(replay.records_discarded, 0);
        assert_eq!(dev.read_page(0).unwrap(), b"page zero");
        assert_eq!(dev.read_page(3).unwrap(), b"page three");
        assert_eq!(wal.size(), WAL_HEADER_LEN, "recovery starts a new cycle");
        let again = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        assert_eq!(again.recover(&dev).unwrap(), WalReplay::default());
    }

    /// One page image and one commit marker, in the framing every version
    /// shares; `crcs` are the two records' checksums.
    fn golden_records(crcs: [u32; 2]) -> Vec<u8> {
        let mut bytes = vec![0x01]; // kind: page image
        bytes.extend_from_slice(&0u64.to_le_bytes()); // lsn 0
        bytes.extend_from_slice(&3u64.to_le_bytes()); // page 3
        bytes.extend_from_slice(&9u32.to_le_bytes()); // payload length
        bytes.extend_from_slice(&crcs[0].to_le_bytes());
        bytes.extend_from_slice(b"pyro page");
        bytes.push(0x02); // kind: commit
        bytes.extend_from_slice(&1u64.to_le_bytes()); // lsn 1
        bytes.extend_from_slice(&0u64.to_le_bytes()); // page 0
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no payload
        bytes.extend_from_slice(&crcs[1].to_le_bytes());
        bytes
    }

    /// A version-1 log — the bytes of every build before cycles, CRCs
    /// zlib's over header-sans-crc plus payload — still replays, and its
    /// recovery rewrites the file as a bare version-2 header of epoch 1.
    #[test]
    fn v1_golden_bytes_still_replay() {
        let mut golden = b"PYRW\x01\x00\x00\x00".to_vec();
        golden.extend_from_slice(&golden_records([0xF589_266D, 0xC0A7_FFB0]));
        let dir = tmp("golden-v1");
        let path = dir.join("wal.pyro");
        std::fs::write(&path, &golden).unwrap();
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let wal = Wal::open_or_create(&path).unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!((replay.pages_replayed, replay.commits), (1, 1));
        assert_eq!(dev.read_page(3).unwrap(), b"pyro page");
        assert_eq!(wal.sync_count(), 1, "the rewrite is one fsync");
        assert_eq!(std::fs::read(&path).unwrap(), header(1));
    }

    /// The version-2 framing is pinned byte for byte: the header carries
    /// the epoch, and each CRC is zlib's over the epoch's 8 bytes, then
    /// header-sans-crc, then payload. A log written by an earlier build of
    /// this format replays, and this build appends what they would have.
    #[test]
    fn records_match_golden_bytes() {
        let mut epoch0 = b"PYRW\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        epoch0.extend_from_slice(&golden_records([0x6D74_836B, 0x8AF7_FF1D]));
        let mut epoch1 = b"PYRW\x02\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        epoch1.extend_from_slice(&golden_records([0xE0FC_7E89, 0xE9F0_2639]));

        let dir = tmp("golden");
        let path = dir.join("wal.pyro");
        {
            let wal = Wal::open_or_create(&path).unwrap();
            assert_eq!(wal.append_page(3, b"pyro page").unwrap(), 0);
            wal.append_commit().unwrap();
            wal.sync().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), epoch0);
            // A zero retention bound truncates, so the file is the second
            // cycle alone.
            wal.recycle(0).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), header(1));
        }
        {
            let wal = Wal::open_or_create(&path).unwrap();
            assert_eq!(wal.append_page(3, b"pyro page").unwrap(), 0);
            wal.append_commit().unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), epoch1);

        for golden in [&epoch0, &epoch1] {
            std::fs::write(&path, golden).unwrap();
            let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
            let replay = Wal::open_or_create(&path).unwrap().recover(&dev).unwrap();
            assert_eq!((replay.pages_replayed, replay.commits), (1, 1));
            assert_eq!(dev.read_page(3).unwrap(), b"pyro page");
        }
    }

    /// A recycled file keeps its length, and the old cycle's records —
    /// intact, aligned, one epoch behind — never replay.
    #[test]
    fn recycled_records_never_replay() {
        let dir = tmp("recycled");
        let path = dir.join("wal.pyro");
        let wal = Wal::open_or_create(&path).unwrap();
        for page in 0..4 {
            wal.append_page(page, b"old image").unwrap();
            wal.append_commit().unwrap();
        }
        wal.sync().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        wal.recycle(u64::MAX).unwrap();
        assert_eq!(wal.size(), WAL_HEADER_LEN);
        wal.append_page(0, b"new image").unwrap();
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        drop(wal);

        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let replay = Wal::open_or_create(&path).unwrap().recover(&dev).unwrap();
        assert_eq!((replay.pages_replayed, replay.commits), (1, 1));
        assert_eq!(dev.read_page(0).unwrap(), b"new image");
        assert!(dev.read_page(1).is_err(), "an old cycle's image replayed");
    }

    /// `sync_through` fsyncs only for a record above the watermark, and
    /// that one fsync covers everything appended before it.
    #[test]
    fn sync_through_fsyncs_once_per_watermark() {
        let dir = tmp("watermark");
        let wal = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        assert_eq!(wal.sync_count(), 0);
        let first = wal.append_page(0, b"a").unwrap();
        let second = wal.append_page(1, b"b").unwrap();
        assert!(first < second);
        wal.sync_through(first).unwrap();
        assert_eq!(wal.sync_count(), 1, "an unsynced record costs one fsync");
        wal.sync_through(second).unwrap();
        wal.sync_through(first).unwrap();
        assert_eq!(wal.sync_count(), 1, "which covered the later record too");
        let third = wal.append_page(2, b"c").unwrap();
        wal.sync_through(second).unwrap();
        assert_eq!(wal.sync_count(), 1, "a new append does not unsync old ones");
        wal.sync_through(third).unwrap();
        assert_eq!(wal.sync_count(), 2);
        // A commit always fsyncs; a rewind fsyncs its truncation, after
        // which nothing that was logged is waiting.
        wal.sync().unwrap();
        assert_eq!(wal.sync_count(), 3);
        let mark = wal.mark();
        let aborted = wal.append_page(3, b"d").unwrap();
        wal.rewind(mark).unwrap();
        assert_eq!(wal.sync_count(), 4);
        wal.sync_through(aborted).unwrap();
        assert_eq!(wal.sync_count(), 4);
        // A new cycle is one fsync, and leaves nothing waiting either; an
        // empty cycle is not restarted.
        let before_cycle = wal.append_page(4, b"e").unwrap();
        wal.recycle(u64::MAX).unwrap();
        assert_eq!(wal.sync_count(), 5);
        wal.sync_through(before_cycle).unwrap();
        wal.recycle(u64::MAX).unwrap();
        assert_eq!(wal.sync_count(), 5);
    }

    #[test]
    fn uncommitted_tail_discarded() {
        let dir = tmp("uncommitted");
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let wal = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        wal.append_page(0, b"committed").unwrap();
        wal.append_commit().unwrap();
        wal.append_page(1, b"never committed").unwrap();
        wal.sync().unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!(replay.pages_replayed, 1);
        assert_eq!(replay.records_discarded, 1);
        assert_eq!(dev.read_page(0).unwrap(), b"committed");
        assert!(dev.read_page(1).is_err(), "uncommitted image not applied");
    }

    #[test]
    fn torn_record_stops_scan() {
        let dir = tmp("torn");
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let path = dir.join("wal.pyro");
        {
            let wal = Wal::open_or_create(&path).unwrap();
            wal.append_page(0, b"good").unwrap();
            wal.append_commit().unwrap();
            wal.append_page(1, b"will be torn").unwrap();
            wal.append_commit().unwrap();
            wal.sync().unwrap();
        }
        // Tear the file mid-way through the second page image.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 20).unwrap();
        drop(f);
        let wal = Wal::open_or_create(&path).unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!(replay.commits, 1, "only the first commit survives");
        assert_eq!(dev.read_page(0).unwrap(), b"good");
        assert!(dev.read_page(1).is_err());
    }

    #[test]
    fn bit_flip_in_record_stops_scan() {
        let dir = tmp("flip");
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let path = dir.join("wal.pyro");
        {
            let wal = Wal::open_or_create(&path).unwrap();
            wal.append_page(0, b"first").unwrap();
            wal.append_commit().unwrap();
            wal.append_page(1, b"second").unwrap();
            wal.append_commit().unwrap();
            wal.sync().unwrap();
        }
        // Flip one payload byte of the second page image.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = WAL_HEADER_LEN as usize
            + (RECORD_HEADER_LEN + b"first".len())
            + RECORD_HEADER_LEN
            + RECORD_HEADER_LEN
            + 2;
        bytes[second_payload] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let wal = Wal::open_or_create(&path).unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!(replay.commits, 1);
        assert_eq!(dev.read_page(0).unwrap(), b"first");
        assert!(dev.read_page(1).is_err());
    }

    #[test]
    fn rewind_drops_aborted_records() {
        let dir = tmp("rewind");
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let wal = Wal::open_or_create(dir.join("wal.pyro")).unwrap();
        wal.append_page(0, b"kept").unwrap();
        wal.append_commit().unwrap();
        let mark = wal.mark();
        wal.append_page(1, b"aborted").unwrap();
        wal.rewind(mark).unwrap();
        // Appends after a rewind land where the aborted record was.
        wal.append_page(2, b"after abort").unwrap();
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        let replay = wal.recover(&dev).unwrap();
        assert_eq!(replay.pages_replayed, 2);
        assert_eq!(dev.read_page(0).unwrap(), b"kept");
        assert_eq!(dev.read_page(2).unwrap(), b"after abort");
        assert!(dev.read_page(1).is_err());
    }

    #[test]
    fn foreign_file_rejected() {
        let dir = tmp("foreign");
        let path = dir.join("wal.pyro");
        for foreign in [&b"not a wal"[..], b"PYRW\x03\x00\x00\x00 a later version"] {
            std::fs::write(&path, foreign).unwrap();
            assert!(matches!(
                Wal::open_or_create(&path),
                Err(PyroError::Recovery(_))
            ));
        }
    }
}
