//! Access paths: table scan, clustered scan and covering-index scan — all
//! one [`FileScan`] — plus the [`MorselSource`] queue that deals a file out
//! to the workers of a parallel scan one page range at a time.
//!
//! Every access path reads a [`TupleFile`] sequentially; what differs is the
//! schema it exposes and the sort order it guarantees (knowledge the
//! *optimizer* holds — the operator itself just streams pages, counting I/O
//! via the device).

use crate::op::{Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnBuilder, ColumnarBatch, Result, Schema, Value};
use pyro_storage::{TupleFile, TupleFileScan};
use std::cmp::Ordering as CmpOrdering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Pages claimed per morsel. At the default 4 KB block size this is ~128 KB
/// of encoded tuples per claim — large enough that the shared queue is
/// touched rarely, small enough that stragglers rebalance.
pub const MORSEL_PAGES: usize = 32;

/// Sequential scan over a tuple file (base heap or index entry file).
///
/// Whether this acts as the paper's "Table scan", "C.Idx Scan" (clustering
/// index scan — same file, known order) or "Cov. Idx Scan" (covering-index
/// entry file — narrower schema, key order) is decided by which file and
/// schema the planner binds.
pub struct FileScan {
    schema: Schema,
    scan: TupleFileScan,
    batch: usize,
    /// Tuples in the scanned range, for `size_hint`.
    total: usize,
    emitted: usize,
}

impl FileScan {
    /// Scans `file`, exposing `schema` (column count must match the stored
    /// tuples).
    pub fn new(schema: Schema, file: &TupleFile) -> Self {
        FileScan {
            schema,
            scan: file.scan(),
            batch: DEFAULT_BATCH_SIZE,
            total: file.tuple_count() as usize,
            emitted: 0,
        }
    }

    /// Scans only the half-open page range `[start, end)` of `file` — one
    /// morsel of a parallel scan, or the pages an index seek narrowed the
    /// file to. The tuple count of a partial range is unknown up front, so
    /// `size_hint` stays unbounded.
    pub fn over_pages(schema: Schema, file: &TupleFile, start: usize, end: usize) -> Self {
        FileScan {
            schema,
            scan: file.scan_pages(start, end),
            batch: DEFAULT_BATCH_SIZE,
            total: usize::MAX,
            emitted: 0,
        }
    }
}

impl Operator for FileScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Decodes pages straight into typed column vectors — no `Tuple` is
    /// boxed. The batch may overshoot the batch size by the tail of the
    /// last decoded page (allowed by the batch contract).
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let mut builders: Vec<ColumnBuilder> = (0..self.schema.len())
            .map(|_| ColumnBuilder::new())
            .collect();
        if !self.scan.fill_columns(&mut builders, self.batch)? {
            return Ok(None);
        }
        let batch = ColumnarBatch::from_builders(builders);
        self.emitted += batch.num_rows();
        Ok(Some(batch))
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.total == usize::MAX {
            return (0, None);
        }
        let rem = self.total.saturating_sub(self.emitted);
        (rem, Some(rem))
    }
}

/// Binary-searches the half-open page range of a sorted `file` that can
/// hold tuples whose `key_cols` prefix equals `key`, probing the first
/// tuple of O(log P) pages. A probe decodes its page whole into boxed
/// tuples and then reads only the first one, so the decode, not the
/// search, is what a point seek pays for.
///
/// The returned range is a *superset* of the pages holding matches — the
/// first candidate page's opening tuple may still sort below the key — so
/// callers must keep their residual predicate; a conservatively wide range
/// costs extra I/O, never a wrong answer. Probes compare with the same
/// [`Value`] total order the executor's `=` uses, and each probe is a real
/// page read charged to the device like any other.
pub fn eq_key_page_range(
    file: &TupleFile,
    key_cols: &[usize],
    key: &[Value],
) -> Result<(usize, usize)> {
    let pages = file.block_count() as usize;
    if pages == 0 || key_cols.is_empty() || key_cols.len() != key.len() {
        return Ok((0, pages));
    }
    // Orders page p's first tuple against the key, prefix-lexicographically.
    // Writers never emit empty pages, so a `None` probe cannot occur on a
    // well-formed file; treating it as past-the-key keeps the search total.
    let probe = |p: usize| -> Result<CmpOrdering> {
        Ok(match file.scan_pages(p, p + 1).next_tuple()? {
            Some(t) => key_cols
                .iter()
                .zip(key)
                .map(|(&c, k)| t.get(c).cmp(k))
                .find(|o| *o != CmpOrdering::Equal)
                .unwrap_or(CmpOrdering::Equal),
            None => CmpOrdering::Greater,
        })
    };
    // First page whose opening tuple is >= key. Matches can start one page
    // earlier: that page opens below the key but may reach it further in.
    let (mut lo, mut hi) = (0usize, pages);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? == CmpOrdering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_ge = lo;
    // First page whose opening tuple is > key: the file is sorted on the
    // probed prefix, so no match can live there or beyond.
    let (mut lo, mut hi) = (first_ge, pages);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? == CmpOrdering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok((first_ge.saturating_sub(1), lo))
}

/// One claimed morsel: its sequence number — morsel `i` covers pages
/// `[i * pages_per_morsel, ..)`, so ascending sequence numbers *are* file
/// order — and its half-open page range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position of this morsel in file order.
    pub seq: usize,
    /// First page of the morsel.
    pub start: usize,
    /// One past the last page of the morsel.
    pub end: usize,
}

#[derive(Debug)]
struct Cursor {
    /// Sequence number of the next unclaimed morsel.
    next: usize,
    /// Lowest sequence number the consumer has not released yet.
    head: usize,
    closed: bool,
}

/// The shared work queue of a morsel-driven parallel scan: workers claim
/// fixed-size page ranges of one file, so fast workers naturally take more
/// morsels (Leis et al.'s load-balancing property) at the cost of one short
/// critical section per [`MORSEL_PAGES`] pages.
///
/// The queue refuses to hand out a morsel more than `window` sequence
/// numbers past the oldest one the consumer has not yet
/// [released](MorselSource::release): that bounds what a gather has to
/// buffer while it waits for the oldest morsel to complete, so that it can
/// hand morsels on in file order.
#[derive(Debug)]
pub struct MorselSource {
    file: TupleFile,
    pages_per_morsel: usize,
    window: usize,
    cursor: Mutex<Cursor>,
    /// Signalled when `head` advances or the queue closes.
    moved: Condvar,
}

impl MorselSource {
    /// A shared morsel queue over `file` with [`MORSEL_PAGES`]-page morsels
    /// and a claim window of `window` morsels (floor 1; see the type doc).
    pub fn new(file: &TupleFile, window: usize) -> Arc<MorselSource> {
        MorselSource::with_morsel_pages(file, MORSEL_PAGES, window)
    }

    /// A shared morsel queue with an explicit morsel size in pages.
    pub fn with_morsel_pages(file: &TupleFile, pages: usize, window: usize) -> Arc<MorselSource> {
        Arc::new(MorselSource {
            file: file.clone(),
            pages_per_morsel: pages.max(1),
            window: window.max(1),
            cursor: Mutex::new(Cursor {
                next: 0,
                head: 0,
                closed: false,
            }),
            moved: Condvar::new(),
        })
    }

    /// Every update under this lock is a single field store, so the cursor
    /// is valid at every step and a poisoned lock is safe to keep using.
    fn cursor(&self) -> MutexGuard<'_, Cursor> {
        self.cursor.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next unclaimed morsel, waiting while it lies past the
    /// window; `None` once the file is fully claimed or the queue is
    /// [closed](MorselSource::close). Each page is claimed exactly once
    /// across all workers, so total device reads match a serial scan.
    pub fn claim(&self) -> Option<Morsel> {
        let total = self.file.block_count() as usize;
        let mut cur = self.cursor();
        loop {
            let start = cur.next * self.pages_per_morsel;
            if cur.closed || start >= total {
                return None;
            }
            if cur.next < cur.head + self.window {
                let seq = cur.next;
                cur.next += 1;
                return Some(Morsel {
                    seq,
                    start,
                    end: (start + self.pages_per_morsel).min(total),
                });
            }
            cur = self.moved.wait(cur).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Consumer side of the window: every morsel below `head` has been
    /// handed on, so claims up to `head + window` may proceed.
    pub fn release(&self, head: usize) {
        self.cursor().head = head;
        self.moved.notify_all();
    }

    /// Ends the queue early: pending and future claims return `None`.
    pub fn close(&self) {
        self.cursor().closed = true;
        self.moved.notify_all();
    }

    /// A scan over one claimed morsel, exposing `schema`.
    pub fn scan(&self, morsel: &Morsel, schema: Schema) -> FileScan {
        FileScan::over_pages(schema, &self.file, morsel.start, morsel.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BoxOp};
    use pyro_common::{Tuple, Value};
    use pyro_storage::{write_file, SimDevice};

    fn sample_file(n: i64, block_size: usize) -> (pyro_storage::DeviceRef, TupleFile, Vec<Tuple>) {
        let dev = SimDevice::with_block_size(block_size);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        (dev, file, rows)
    }

    #[test]
    fn scan_streams_file_counting_io() {
        let (dev, file, rows) = sample_file(40, 128);
        dev.reset_io();
        let scan = FileScan::new(Schema::ints(&["a", "b"]), &file);
        assert_eq!(scan.size_hint(), (40, Some(40)));
        let out = collect(Box::new(scan)).unwrap();
        assert_eq!(out, rows);
        assert_eq!(dev.io().reads, file.block_count());
    }

    #[test]
    fn batched_scan_same_rows_and_io() {
        let (dev, file, rows) = sample_file(40, 128);
        for batch in [1usize, 3, 1024] {
            dev.reset_io();
            let mut scan: BoxOp = Box::new(FileScan::new(Schema::ints(&["a", "b"]), &file));
            scan.set_batch_size(batch);
            let out = collect(scan).unwrap();
            assert_eq!(out, rows, "batch={batch}");
            assert_eq!(dev.io().reads, file.block_count(), "batch={batch}");
        }
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let (_dev, file, _) = sample_file(40, 128);
        let mut scan = FileScan::new(Schema::ints(&["a", "b"]), &file);
        scan.set_batch_size(2);
        let first = scan.next_batch().unwrap().expect("a page").num_rows();
        assert!(first < 40);
        assert_eq!(scan.size_hint(), (40 - first, Some(40 - first)));
    }

    #[test]
    fn range_scans_cover_file_disjointly() {
        let (dev, file, rows) = sample_file(60, 128);
        let pages = file.block_count() as usize;
        let mid = pages / 2;
        dev.reset_io();
        let lo = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b"]),
            &file,
            0,
            mid,
        )) as BoxOp)
        .unwrap();
        let hi = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b"]),
            &file,
            mid,
            pages,
        )) as BoxOp)
        .unwrap();
        let mut all = lo;
        all.extend(hi);
        assert_eq!(all, rows, "range halves concatenate to the full file");
        assert_eq!(dev.io().reads, file.block_count(), "each page read once");
    }

    /// Every key present in the file must be fully covered by its probed
    /// range, absent keys must land on ranges without them, and the range
    /// must be a genuine restriction for selective keys.
    #[test]
    fn eq_key_page_range_covers_exactly() {
        // 4 rows per key, keys 0..100, tiny pages so keys straddle pages.
        let dev = SimDevice::with_block_size(128);
        let rows: Vec<Tuple> = (0..400i64)
            .map(|i| Tuple::new(vec![Value::Int(i / 4), Value::Int(i)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        let pages = file.block_count() as usize;
        assert!(pages > 10, "need a multi-page file, got {pages}");
        for key in [0i64, 1, 37, 50, 98, 99] {
            let (start, end) = eq_key_page_range(&file, &[0], &[Value::Int(key)]).unwrap();
            assert!(start < end, "key {key}: empty range {start}..{end}");
            assert!(end <= pages);
            let got: Vec<Tuple> = collect(Box::new(FileScan::over_pages(
                Schema::ints(&["k", "v"]),
                &file,
                start,
                end,
            )) as BoxOp)
            .unwrap()
            .into_iter()
            .filter(|t| t.get(0) == &Value::Int(key))
            .collect();
            let expect: Vec<Tuple> = rows
                .iter()
                .filter(|t| t.get(0) == &Value::Int(key))
                .cloned()
                .collect();
            assert_eq!(got, expect, "key {key} rows lost by the page bounds");
            assert!(
                end - start <= 2,
                "key {key}: 4 rows should sit on at most 2 pages, got {}",
                end - start
            );
        }
        // Absent keys: below, between (impossible here — keys are dense),
        // and above the domain. The range may be nonempty; it just must not
        // contain the key.
        for key in [-5i64, 100, 1000] {
            let (start, end) = eq_key_page_range(&file, &[0], &[Value::Int(key)]).unwrap();
            let hits = collect(Box::new(FileScan::over_pages(
                Schema::ints(&["k", "v"]),
                &file,
                start,
                end,
            )) as BoxOp)
            .unwrap()
            .into_iter()
            .filter(|t| t.get(0) == &Value::Int(key))
            .count();
            assert_eq!(hits, 0, "key {key} does not exist");
        }
    }

    /// Two-column keys narrow further than their one-column prefix, and an
    /// empty/oversized key degrades to the full file.
    #[test]
    fn eq_key_page_range_multi_column_and_degenerate() {
        let dev = SimDevice::with_block_size(128);
        let rows: Vec<Tuple> = (0..300i64)
            .map(|i| Tuple::new(vec![Value::Int(i / 30), Value::Int(i % 30), Value::Int(i)]))
            .collect();
        let file = write_file(&dev, &rows).unwrap();
        let pages = file.block_count() as usize;
        let (s1, e1) = eq_key_page_range(&file, &[0], &[Value::Int(5)]).unwrap();
        let (s2, e2) = eq_key_page_range(&file, &[0, 1], &[Value::Int(5), Value::Int(7)]).unwrap();
        assert!(e2 - s2 <= e1 - s1, "longer key must not widen the range");
        let got: Vec<Tuple> = collect(Box::new(FileScan::over_pages(
            Schema::ints(&["a", "b", "v"]),
            &file,
            s2,
            e2,
        )) as BoxOp)
        .unwrap()
        .into_iter()
        .filter(|t| t.get(0) == &Value::Int(5) && t.get(1) == &Value::Int(7))
        .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(2), &Value::Int(5 * 30 + 7));
        // Degenerate inputs fall back to the whole file.
        assert_eq!(eq_key_page_range(&file, &[], &[]).unwrap(), (0, pages));
        assert_eq!(
            eq_key_page_range(&file, &[0], &[Value::Int(1), Value::Int(2)]).unwrap(),
            (0, pages)
        );
        let no_rows: Vec<Tuple> = Vec::new();
        let empty = write_file(&dev, &no_rows).unwrap();
        assert_eq!(
            eq_key_page_range(&empty, &[0], &[Value::Int(1)]).unwrap(),
            (0, 0)
        );
    }

    #[test]
    fn morsels_partition_file_exactly_once_in_file_order() {
        let (dev, file, rows) = sample_file(200, 128);
        let source = MorselSource::with_morsel_pages(&file, 3, 1);
        dev.reset_io();
        let mut out = Vec::new();
        let mut seq = 0;
        while let Some(m) = source.claim() {
            source.release(seq + 1);
            assert_eq!(
                (m.seq, m.start),
                (seq, seq * 3),
                "claims ascend in file order"
            );
            seq += 1;
            let scan = source.scan(&m, Schema::ints(&["a", "b"]));
            out.extend(collect(Box::new(scan)).unwrap());
        }
        assert_eq!(dev.io().reads, file.block_count(), "each page read once");
        assert_eq!(
            out, rows,
            "morsels in sequence order concatenate to the file"
        );
    }

    /// A claim past the window parks until the consumer releases the head;
    /// closing the queue frees parked and future claims alike.
    #[test]
    fn window_parks_claims_until_release_or_close() {
        let (_dev, file, _) = sample_file(200, 128);
        let source = MorselSource::with_morsel_pages(&file, 1, 2);
        assert_eq!(source.claim().map(|m| m.seq), Some(0));
        assert_eq!(source.claim().map(|m| m.seq), Some(1));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                tx.send(()).unwrap();
                source.claim().map(|m| m.seq)
            });
            rx.recv().unwrap();
            source.release(1);
            assert_eq!(
                parked.join().unwrap(),
                Some(2),
                "head 1 + window 2 admits 2"
            );
            let parked = s.spawn(|| {
                tx.send(()).unwrap();
                source.claim()
            });
            rx.recv().unwrap();
            source.close();
            assert_eq!(parked.join().unwrap(), None);
        });
        assert_eq!(source.claim(), None, "closed for good");
    }
}
