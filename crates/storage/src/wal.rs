//! Page-level write-ahead log: the durability protocol behind
//! [`crate::FileDevice`].
//!
//! # On-disk format (`wal.pyro`)
//!
//! ```text
//! file header (8 B): [magic "PYRW"][version u32]
//! record:            [kind u8][lsn u64][page_id u64][payload_len u32][crc u32]
//!                    [payload…]
//! ```
//!
//! Little-endian throughout. `kind` 1 is a **page image** (payload = the
//! full page as it will be written to the data file), `kind` 2 is a
//! **commit marker** (empty payload). The CRC covers every record byte
//! *except* the crc field itself, so a torn append — header without
//! payload, or half a payload — fails verification and ends the scan.
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
//! back to the previous commit. After a checkpoint (pool flushed, data
//! file fsynced) the log is truncated to its header.

use crate::file_device::FileDevice;
use crate::PageDevice;
use pyro_common::{PyroError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A log sequence number: the position of a record in the order it was
/// appended, counted from 0 by each [`Wal`] handle.
pub type Lsn = u64;

const MAGIC: &[u8; 4] = b"PYRW";
const VERSION: u32 = 1;
/// Bytes of file header before the first record.
pub const WAL_HEADER_LEN: u64 = 8;
/// Bytes of fixed per-record header.
pub const RECORD_HEADER_LEN: usize = 25;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> PyroError {
    PyroError::Io(format!("{ctx} {}: {e}", path.display()))
}

#[derive(Debug)]
struct WalInner {
    file: File,
    /// Current end-of-log offset (bytes).
    len: u64,
    /// Next log sequence number.
    lsn: Lsn,
    /// The synced watermark: every record with an LSN below this is on
    /// stable storage (or was rewound away and no longer matters).
    synced: Lsn,
}

/// Append-only write-ahead log; see the module docs for the protocol.
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
    /// Opens the log at `path`, creating an empty one (header only) if it
    /// does not exist. An existing file must carry the WAL magic.
    pub fn open_or_create(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        if len == 0 {
            let mut header = [0u8; WAL_HEADER_LEN as usize];
            header[0..4].copy_from_slice(MAGIC);
            header[4..8].copy_from_slice(&VERSION.to_le_bytes());
            file.write_all(&header)
                .map_err(|e| io_err("write header of", &path, e))?;
            file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        } else {
            let mut header = [0u8; 4];
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", &path, e))?;
            // A crash can leave fewer than 4 header bytes; that is a torn
            // creation, not a foreign file.
            let got = file
                .read(&mut header)
                .map_err(|e| io_err("read header of", &path, e))?;
            if got == 4 && &header != MAGIC {
                return Err(PyroError::Recovery(format!(
                    "bad WAL magic in {}",
                    path.display()
                )));
            }
            if got < 4 {
                file.set_len(0).map_err(|e| io_err("truncate", &path, e))?;
                file.seek(SeekFrom::Start(0))
                    .map_err(|e| io_err("seek", &path, e))?;
                let mut fresh = [0u8; WAL_HEADER_LEN as usize];
                fresh[0..4].copy_from_slice(MAGIC);
                fresh[4..8].copy_from_slice(&VERSION.to_le_bytes());
                file.write_all(&fresh)
                    .map_err(|e| io_err("write header of", &path, e))?;
                file.sync_all().map_err(|e| io_err("sync", &path, e))?;
            }
        }
        let len = file
            .metadata()
            .map_err(|e| io_err("stat", &path, e))?
            .len()
            .max(WAL_HEADER_LEN);
        file.seek(SeekFrom::Start(len))
            .map_err(|e| io_err("seek", &path, e))?;
        Ok(Wal {
            path,
            inner: Mutex::new(WalInner {
                file,
                len,
                lsn: 0,
                synced: 0,
            }),
            syncs: AtomicU64::new(0),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes (header included) — the checkpoint
    /// threshold compares against this.
    pub fn size(&self) -> u64 {
        self.inner.lock().expect("wal poisoned").len
    }

    /// Fsyncs of the log file through this handle so far — commits,
    /// barrier syncs ([`Wal::sync_through`]) and the truncations of
    /// [`Wal::rewind`] alike. A count, not a time: tests and benches gate
    /// on it exactly.
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
        let mut crc_state = crate::crc::update(!0u32, &record);
        crc_state = crate::crc::update(crc_state, payload);
        record.extend_from_slice(&(crc_state ^ !0u32).to_le_bytes());
        record.extend_from_slice(payload);
        inner
            .file
            .write_all(&record)
            .map_err(|e| io_err("append to", &self.path, e))?;
        inner.len += record.len() as u64;
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

    /// Drops every record appended after `mark` (abort path). The
    /// truncation is fsynced so an aborted mutation can never be replayed.
    pub fn rewind(&self, mark: u64) -> Result<()> {
        let mut inner = self.inner.lock().expect("wal poisoned");
        if mark >= inner.len {
            return Ok(());
        }
        inner
            .file
            .set_len(mark)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        inner
            .file
            .seek(SeekFrom::Start(mark))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.fsync(&inner)?;
        inner.len = mark;
        inner.synced = inner.lsn;
        Ok(())
    }

    /// Truncates the log to its header — the checkpoint epilogue, called
    /// only after the data file is flushed **and** fsynced.
    pub fn truncate(&self) -> Result<()> {
        self.rewind(WAL_HEADER_LEN)
    }

    /// Crash recovery: scans the log, replays page images covered by the
    /// last complete commit into `device` (via
    /// [`FileDevice::restore_page`]), fsyncs the data file, and truncates
    /// the log. Torn, corrupt, or uncommitted tails are discarded — that
    /// is the protocol working, not an error. Only a structurally foreign
    /// log (bad magic) fails.
    pub fn recover(&self, device: &FileDevice) -> Result<WalReplay> {
        let body = {
            let mut inner = self.inner.lock().expect("wal poisoned");
            let mut buf = Vec::new();
            inner
                .file
                .seek(SeekFrom::Start(WAL_HEADER_LEN))
                .map_err(|e| io_err("seek", &self.path, e))?;
            inner
                .file
                .read_to_end(&mut buf)
                .map_err(|e| io_err("read", &self.path, e))?;
            buf
        };

        let max_payload = device.block_size();
        let mut replay = WalReplay::default();
        let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
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
            let mut crc_state = crate::crc::update(!0u32, &rec[..21]);
            crc_state = crate::crc::update(crc_state, payload);
            if crc_state ^ !0u32 != stored_crc {
                break; // bit flip or torn payload
            }
            match kind {
                KIND_PAGE_IMAGE => pending.push((page_id, payload.to_vec())),
                _ => {
                    for (id, image) in pending.drain(..) {
                        device.restore_page(id, &image)?;
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
        self.truncate()?;
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
        assert_eq!(wal.size(), WAL_HEADER_LEN, "log truncated after recovery");
    }

    /// The record framing is pinned byte for byte (the CRCs below are
    /// zlib's over header-sans-crc plus payload): a log written by any
    /// earlier build replays, and this build appends what they would have.
    #[test]
    fn records_match_golden_bytes() {
        const PAGE_IMAGE: [u8; 34] = [
            0x01, // kind: page image
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 0
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // page 3
            0x09, 0x00, 0x00, 0x00, // payload length
            0x6D, 0x26, 0x89, 0xF5, // crc 0xF589266D
            0x70, 0x79, 0x72, 0x6F, 0x20, 0x70, 0x61, 0x67, 0x65, // "pyro page"
        ];
        const COMMIT: [u8; 25] = [
            0x02, // kind: commit
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 1
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // page 0
            0x00, 0x00, 0x00, 0x00, // no payload
            0xB0, 0xFF, 0xA7, 0xC0, // crc 0xC0A7FFB0
        ];
        let mut golden = b"PYRW\x01\x00\x00\x00".to_vec();
        golden.extend_from_slice(&PAGE_IMAGE);
        golden.extend_from_slice(&COMMIT);

        let dir = tmp("golden");
        let path = dir.join("wal.pyro");
        {
            let wal = Wal::open_or_create(&path).unwrap();
            assert_eq!(wal.append_page(3, b"pyro page").unwrap(), 0);
            wal.append_commit().unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), golden);

        std::fs::write(&path, &golden).unwrap();
        let dev = FileDevice::create_with_block_size(dir.join("data.pyro"), 128).unwrap();
        let replay = Wal::open_or_create(&path).unwrap().recover(&dev).unwrap();
        assert_eq!((replay.pages_replayed, replay.commits), (1, 1));
        assert_eq!(dev.read_page(3).unwrap(), b"pyro page");
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
        std::fs::write(&path, b"not a wal").unwrap();
        assert!(matches!(
            Wal::open_or_create(&path),
            Err(PyroError::Recovery(_))
        ));
    }
}
