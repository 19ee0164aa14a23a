//! Tuple files: ordered sequences of pages on a [`crate::SimDevice`].
//!
//! One abstraction serves three roles — base-table heap files (tuples in
//! clustering order), covering-index entry files (entries in key order) and
//! sort spill runs — because all three are append-once, scan-sequentially
//! structures in this engine.

use crate::device::{DeviceRef, PageBytes, PageId};
use crate::page::{decode_page, PageBuilder};
use crate::store::{IntoStore, StoreRef};
use pyro_common::{ColumnBuilder, ColumnVec, Result, Tuple};
use std::sync::Arc;

/// An immutable sequence of tuples stored across pages of a device,
/// accessed through a [`crate::PageStore`] (so reads and writes are cached
/// whenever the store carries a buffer pool).
#[derive(Debug, Clone)]
pub struct TupleFile {
    store: StoreRef,
    pages: Vec<PageId>,
    tuple_count: u64,
    byte_count: u64,
}

impl TupleFile {
    /// Number of tuples.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Number of blocks occupied — the `B(e)` of the paper's cost model.
    pub fn block_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Total encoded bytes (for average-tuple-size statistics).
    pub fn byte_count(&self) -> u64 {
        self.byte_count
    }

    /// The backing device (exact cold-I/O counters).
    pub fn device(&self) -> &DeviceRef {
        self.store.device()
    }

    /// The page store this file reads and writes through.
    pub fn store(&self) -> &StoreRef {
        &self.store
    }

    /// The page ids backing this file, in scan order. Catalog persistence
    /// serializes these so a reopened process can rebuild the file handle
    /// without rewriting a byte of data.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Reassembles a file handle from persisted parts — the inverse of
    /// ([`TupleFile::pages`], [`TupleFile::tuple_count`],
    /// [`TupleFile::byte_count`]). The pages must already hold the file's
    /// data (crash recovery guarantees this for committed files).
    pub fn from_parts(
        store: impl IntoStore,
        pages: Vec<PageId>,
        tuple_count: u64,
        byte_count: u64,
    ) -> TupleFile {
        TupleFile {
            store: store.into_store(),
            pages,
            tuple_count,
            byte_count,
        }
    }

    /// Sequential scan. Each page read is counted by the device.
    pub fn scan(&self) -> TupleFileScan {
        self.scan_pages(0, self.pages.len())
    }

    /// Sequential scan over the half-open page range `[start, end)` — the
    /// unit a morsel-driven parallel scan hands each worker. `end` is
    /// clamped to the file length; an empty or inverted range yields an
    /// immediately exhausted scan.
    pub fn scan_pages(&self, start: usize, end: usize) -> TupleFileScan {
        let end = end.min(self.pages.len());
        TupleFileScan {
            file: self.clone(),
            page_idx: start.min(end),
            end_page: end,
            buffer: Vec::new().into_iter(),
        }
    }

    /// Releases all pages back to the device (used for spill runs). Cached
    /// frames of the freed pages are discarded, not written back.
    pub fn delete(self) {
        for p in &self.pages {
            self.store.free_page(*p);
        }
    }
}

/// Appends tuples to a fresh [`TupleFile`].
#[derive(Debug)]
pub struct TupleFileWriter {
    store: StoreRef,
    builder: PageBuilder,
    pages: Vec<PageId>,
    tuple_count: u64,
    byte_count: u64,
}

impl TupleFileWriter {
    /// Starts a new file on `store` (a [`StoreRef`], or a bare
    /// [`DeviceRef`] for an uncached file).
    pub fn new(store: impl IntoStore) -> Self {
        let store = store.into_store();
        let builder = PageBuilder::new(store.block_size());
        TupleFileWriter {
            store,
            builder,
            pages: Vec::new(),
            tuple_count: 0,
            byte_count: 0,
        }
    }

    /// Appends one tuple, flushing a full page to the device as needed.
    pub fn append(&mut self, tuple: &Tuple) -> Result<()> {
        if !self.builder.try_push(tuple)? {
            self.flush_page()?;
            let pushed = self.builder.try_push(tuple)?;
            debug_assert!(pushed, "tuple must fit in an empty page");
        }
        self.tuple_count += 1;
        self.byte_count += crate::page::encoded_len(tuple) as u64;
        Ok(())
    }

    /// [`TupleFileWriter::append`] for physical row `row` of `cols`: the
    /// file comes out byte-identical to appending the same row boxed.
    pub fn append_row(&mut self, cols: &[Arc<ColumnVec>], row: usize) -> Result<()> {
        let len = match self.builder.try_push_row(cols, row)? {
            Some(len) => len,
            None => {
                self.flush_page()?;
                self.builder
                    .try_push_row(cols, row)?
                    .expect("row must fit in an empty page")
            }
        };
        self.tuple_count += 1;
        self.byte_count += len as u64;
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        let data = self.builder.take();
        let id = self.store.alloc_page();
        self.store.write_page(id, &data)?;
        self.pages.push(id);
        Ok(())
    }

    /// Flushes the tail page and returns the completed file.
    pub fn finish(mut self) -> Result<TupleFile> {
        if !self.builder.is_empty() {
            self.flush_page()?;
        }
        Ok(TupleFile {
            store: self.store,
            pages: self.pages,
            tuple_count: self.tuple_count,
            byte_count: self.byte_count,
        })
    }
}

/// Builds a [`TupleFile`] from an iterator in one call. Accepts a
/// [`StoreRef`] or a bare [`DeviceRef`] (which becomes a bypass store).
pub fn write_file<'a>(
    store: impl IntoStore,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Result<TupleFile> {
    let mut w = TupleFileWriter::new(store);
    for t in tuples {
        w.append(t)?;
    }
    w.finish()
}

/// Streaming scan over a [`TupleFile`] (or a page range of one); yields
/// tuples page by page.
pub struct TupleFileScan {
    file: TupleFile,
    page_idx: usize,
    end_page: usize,
    buffer: std::vec::IntoIter<Tuple>,
}

impl TupleFileScan {
    /// The next page of the range, or `None` past its end. The bytes are
    /// the pool frame's (cached store) or the buffer the device filled
    /// (bypass) — every pull style below decodes straight from them, so a
    /// page is never copied between the device and its decoder.
    fn next_page(&mut self) -> Result<Option<PageBytes>> {
        if self.page_idx >= self.end_page {
            return Ok(None);
        }
        let page = self.file.store.read_page(self.file.pages[self.page_idx])?;
        self.page_idx += 1;
        Ok(Some(page))
    }

    /// Pulls the next tuple, reading the next page when the current one is
    /// exhausted.
    pub fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.buffer.next() {
                return Ok(Some(t));
            }
            let Some(page) = self.next_page()? else {
                return Ok(None);
            };
            self.buffer = decode_page(&page)?.into_iter();
        }
    }

    /// Decodes pages straight into per-column builders until at least
    /// `target` rows have been appended or the scanned range ends — the
    /// vectorized scan path: no `Tuple` is ever boxed. Rows buffered by a
    /// previous `next_tuple` call are appended first, so the pull styles
    /// compose. Returns `true` iff any rows were appended.
    pub fn fill_columns(&mut self, builders: &mut [ColumnBuilder], target: usize) -> Result<bool> {
        let mut appended = 0usize;
        for t in self.buffer.by_ref() {
            for (b, v) in builders.iter_mut().zip(t.values()) {
                b.push_value(v);
            }
            appended += 1;
        }
        while appended < target {
            let Some(page) = self.next_page()? else { break };
            appended += crate::page::decode_page_into_builders(&page, builders)?;
        }
        Ok(appended > 0)
    }
}

impl Iterator for TupleFileScan {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_tuple().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use pyro_common::Value;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("row{i}"))]))
            .collect()
    }

    #[test]
    fn write_scan_roundtrip() {
        let dev = SimDevice::with_block_size(128);
        let data = rows(100);
        let f = write_file(&dev, &data).unwrap();
        assert_eq!(f.tuple_count(), 100);
        assert!(f.block_count() > 1, "should span multiple small pages");
        let scanned: Vec<Tuple> = f.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, data);
    }

    #[test]
    fn scan_counts_block_reads() {
        let dev = SimDevice::with_block_size(128);
        let f = write_file(&dev, &rows(50)).unwrap();
        dev.reset_io();
        let _: Vec<_> = f.scan().collect();
        assert_eq!(dev.io().reads, f.block_count());
        assert_eq!(dev.io().writes, 0);
    }

    #[test]
    fn write_counts_block_writes() {
        let dev = SimDevice::with_block_size(128);
        dev.reset_io();
        let f = write_file(&dev, &rows(50)).unwrap();
        assert_eq!(dev.io().writes, f.block_count());
    }

    #[test]
    fn empty_file() {
        let dev = SimDevice::new();
        let f = write_file(&dev, &[]).unwrap();
        assert_eq!(f.tuple_count(), 0);
        assert_eq!(f.block_count(), 0);
        assert_eq!(f.scan().count(), 0);
    }

    /// A scan through a pool smaller than the file: all rows in both pull
    /// styles, every page read cold each time, and the pool stays full.
    #[test]
    fn scan_through_a_pool_smaller_than_the_file_returns_all_rows() {
        let dev = SimDevice::with_block_size(128);
        let store = crate::PageStore::cached(dev.clone(), 2);
        let data = rows(100);
        let f = write_file(&store, &data).unwrap();
        assert!(f.block_count() > 2, "premise: the file outgrows the pool");
        let pool = store.pool().unwrap();
        pool.clear().unwrap();
        let misses = pool.stats().misses;

        let by_tuple: Vec<Tuple> = f.scan().map(|r| r.unwrap()).collect();
        assert_eq!(by_tuple, data);
        let mut builders = vec![ColumnBuilder::new(), ColumnBuilder::new()];
        let mut scan = f.scan();
        while scan.fill_columns(&mut builders, 16).unwrap() {}
        assert_eq!(
            pyro_common::ColumnarBatch::from_builders(builders).to_rows(),
            data
        );

        assert_eq!(pool.stats().misses, misses + 2 * f.block_count());
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn delete_frees_pages() {
        let dev = SimDevice::with_block_size(128);
        let f = write_file(&dev, &rows(50)).unwrap();
        let blocks = f.block_count() as usize;
        assert_eq!(dev.live_pages(), blocks);
        f.delete();
        assert_eq!(dev.live_pages(), 0);
    }

    /// Appending rows straight from column vectors must leave the very
    /// file appending the same rows boxed leaves: same pages, same bytes,
    /// same counts — spill runs are charged by the page.
    #[test]
    fn append_row_writes_the_same_file_as_append() {
        use pyro_common::ColumnarBatch;
        let data: Vec<Tuple> = (0..120)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    match i % 4 {
                        0 => Value::Null,
                        1 => Value::Double(i as f64 / 8.0),
                        2 => Value::Str("s".repeat(i as usize % 23)),
                        _ => Value::Int(-i),
                    },
                    Value::Str(format!("row{i}")),
                ])
            })
            .collect();
        let boxed_dev = SimDevice::with_block_size(128);
        let boxed = write_file(&boxed_dev, &data).unwrap();
        let batch = ColumnarBatch::from_rows(&data);
        let dev = SimDevice::with_block_size(128);
        let mut w = TupleFileWriter::new(&dev);
        for row in 0..data.len() {
            w.append_row(batch.columns(), row).unwrap();
        }
        let file = w.finish().unwrap();
        assert_eq!(file.block_count(), boxed.block_count());
        assert_eq!(file.tuple_count(), boxed.tuple_count());
        assert_eq!(file.byte_count(), boxed.byte_count());
        for (a, b) in file.pages().iter().zip(boxed.pages()) {
            assert_eq!(
                file.store().read_page(*a).unwrap(),
                boxed.store().read_page(*b).unwrap()
            );
        }
        // A row no page can hold is the same typed error either way.
        let big = [Tuple::new(vec![Value::Str("x".repeat(200))])];
        let cols = ColumnarBatch::from_rows(&big);
        let err = TupleFileWriter::new(&dev).append_row(cols.columns(), 0);
        assert_eq!(err, TupleFileWriter::new(&dev).append(&big[0]));
        assert!(err.is_err());
    }

    #[test]
    fn byte_count_tracks_encoding() {
        let dev = SimDevice::new();
        let data = rows(10);
        let f = write_file(&dev, &data).unwrap();
        let expected: u64 = data
            .iter()
            .map(|t| crate::page::encoded_len(t) as u64)
            .sum();
        assert_eq!(f.byte_count(), expected);
    }
}
