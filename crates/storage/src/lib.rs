//! # pyro-storage
//!
//! A block-accounted storage substrate for the PYRO engine.
//!
//! The paper's experiments run on PostgreSQL with 4 KB blocks and a bounded
//! sort memory; their headline claims ("MRS avoids run generation I/O
//! completely", Fig. 9's crossover when a partial-sort segment outgrows
//! memory) are claims about **block I/O counts**. This crate therefore
//! provides a simulated block device ([`SimDevice`]) that stores pages in
//! memory but counts every block read and write exactly, so tests can assert
//! `run_io == 0` instead of eyeballing timings. Real byte-level tuple
//! encoding ([`page`]) keeps CPU work honest.
//!
//! On top of the device sit two layers:
//!
//! * [`PageStore`] — the I/O path, a device plus an optional [`BufferPool`]
//!   (fixed-capacity CLOCK page cache with write-back, whose readers share
//!   a frame's bytes and hold no frame).
//!   In the default **bypass** mode every operation is exactly a device
//!   operation; in **cached** mode device counters measure cold I/O only and
//!   [`CacheStats`] measures the hot/cold split.
//! * [`TupleFile`]s — ordered page sequences used for base tables,
//!   covering-index entry files and sort spill runs — which read and write
//!   through a shared [`StoreRef`].

#![deny(missing_docs)]

pub mod crc;
pub mod device;
pub mod fault;
pub mod file;
pub mod file_device;
pub mod page;
pub mod pool;
pub mod store;
pub mod wal;

pub use crc::crc32;
pub use device::{DeviceRef, IoSnapshot, PageBytes, PageDevice, PageId, SimDevice};
pub use fault::{FaultDevice, FaultPlan};
pub use file::{write_file, TupleFile, TupleFileScan, TupleFileWriter};
pub use file_device::{FileDevice, FILE_HEADER_LEN, SLOT_HEADER_LEN};
pub use page::{decode_page, decode_page_into_builders, encoded_len, PageBuilder};
pub use pool::{BufferPool, CacheStats, WriteBarrier};
pub use store::{IntoStore, PageStore, StoreRef};
pub use wal::{Lsn, Wal, WalReplay, WAL_HEADER_LEN};
