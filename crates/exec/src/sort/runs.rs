//! Spill-run plumbing shared by SRS and MRS: writing runs, k-way merging
//! with bounded fan-in, and the streaming output adapters — once over boxed
//! tuples for the row path ([`MergeStream`]), once over column vectors for
//! the columnar path ([`ColumnarMergeStream`]). Both make the same
//! comparisons in the same order and read and write the same pages.

use super::entry::Keyed;
use super::SortBudget;
use crate::metrics::MetricsRef;
use pyro_common::{ColumnBuilder, ColumnarBatch, KeySpec, Result, Tuple};
use pyro_storage::{StoreRef, TupleFile, TupleFileScan, TupleFileWriter};
use std::cmp::Ordering;

/// Writes `tuples` (already sorted) as one spill run, charging run I/O.
/// Run pages go through `store`, so a pooled store keeps hot runs cached
/// (the logical `run_pages_written` charge is unchanged either way).
pub(crate) fn write_run(
    store: &StoreRef,
    tuples: impl IntoIterator<Item = Tuple>,
    metrics: &MetricsRef,
) -> Result<TupleFile> {
    let mut w = TupleFileWriter::new(store);
    for t in tuples {
        w.append(&t)?;
    }
    let file = w.finish()?;
    metrics.add_run_pages_written(file.block_count());
    metrics.add_run();
    Ok(file)
}

/// [`write_run`] for physical rows `rows` of `batch`, in that order: the
/// same pages, no boxed tuple.
pub(crate) fn write_run_rows(
    store: &StoreRef,
    batch: &ColumnarBatch,
    rows: &[u32],
    metrics: &MetricsRef,
) -> Result<TupleFile> {
    let mut w = TupleFileWriter::new(store);
    for &r in rows {
        w.append_row(batch.columns(), r as usize)?;
    }
    let file = w.finish()?;
    metrics.add_run_pages_written(file.block_count());
    metrics.add_run();
    Ok(file)
}

/// An open run being merged.
struct OpenRun {
    scan: TupleFileScan,
    file: Option<TupleFile>,
    head: Option<Tuple>,
}

/// Streaming k-way merge over sorted runs. Run pages are charged as *run
/// reads* when each run is opened (runs are always fully consumed); files
/// are freed as they are exhausted so device memory stays bounded.
pub struct MergeStream {
    runs: Vec<OpenRun>,
    key: KeySpec,
    metrics: MetricsRef,
}

impl MergeStream {
    /// Opens the given sorted runs for merging. If there are more runs than
    /// `budget.fan_in()`, intermediate merge passes are performed first
    /// (reading and re-writing runs, exactly the
    /// `B(e)·(2·passes + 1)`-style cost the paper's model charges).
    pub fn new(
        store: &StoreRef,
        mut files: Vec<TupleFile>,
        key: KeySpec,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Result<MergeStream> {
        let fan_in = budget.fan_in();
        // Intermediate passes until a single merge can finish the job.
        while files.len() > fan_in {
            let batch: Vec<TupleFile> = files.drain(..fan_in).collect();
            let mut merged = MergeStream::open(batch, key.clone(), metrics.clone())?;
            let mut w = TupleFileWriter::new(store);
            while let Some(t) = merged.next_tuple()? {
                w.append(&t)?;
            }
            let out = w.finish()?;
            metrics.add_run_pages_written(out.block_count());
            files.push(out);
        }
        MergeStream::open(files, key, metrics)
    }

    fn open(files: Vec<TupleFile>, key: KeySpec, metrics: MetricsRef) -> Result<MergeStream> {
        let mut runs = Vec::with_capacity(files.len());
        for file in files {
            metrics.add_run_pages_read(file.block_count());
            let mut scan = file.scan();
            let head = scan.next_tuple()?;
            runs.push(OpenRun {
                scan,
                file: Some(file),
                head,
            });
        }
        Ok(MergeStream { runs, key, metrics })
    }

    /// Pops the globally smallest head tuple, charging comparisons once per
    /// call.
    pub fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        let mut acc = 0;
        let out = self.pop_smallest(&mut acc);
        self.metrics.add_comparisons(acc);
        out
    }

    fn pop_smallest(&mut self, acc: &mut u64) -> Result<Option<Tuple>> {
        // Linear scan over ≤ fan-in heads: simple and cache-friendly for the
        // small fan-ins used here.
        let mut best: Option<usize> = None;
        for i in 0..self.runs.len() {
            if self.runs[i].head.is_none() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let (ta, tb) = (
                        self.runs[i].head.as_ref().expect("head is some"),
                        self.runs[b].head.as_ref().expect("head is some"),
                    );
                    let (ord, n) = self.key.compare_counting(ta, tb);
                    *acc += n;
                    if ord == Ordering::Less {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let Some(i) = best else { return Ok(None) };
        let out = self.runs[i].head.take().expect("winner has a head");
        self.runs[i].head = self.runs[i].scan.next_tuple()?;
        if self.runs[i].head.is_none() {
            // Run exhausted: free its pages.
            if let Some(f) = self.runs[i].file.take() {
                f.delete();
            }
        }
        Ok(Some(out))
    }
}

/// Output adapter for a fully in-memory sorted buffer.
pub struct InMemorySortStream {
    buf: Vec<Tuple>,
    pos: usize,
}

impl InMemorySortStream {
    /// Wraps an already-sorted buffer.
    pub fn new(sorted: Vec<Tuple>) -> Self {
        InMemorySortStream {
            buf: sorted,
            pos: 0,
        }
    }

    /// Next tuple of the sorted buffer (O(1) move-out, no clone).
    pub fn next_tuple(&mut self) -> Option<Tuple> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let t = std::mem::take(&mut self.buf[self.pos]);
        self.pos += 1;
        Some(t)
    }
}

/// One run of a [`ColumnarMergeStream`]: the scan, the page it is on decoded
/// into column vectors, and the position of its head row there.
struct ColumnarRun {
    scan: TupleFileScan,
    file: Option<TupleFile>,
    /// The current page with its rows' normalized keys; `None` once the
    /// run is exhausted.
    page: Option<Keyed>,
    pos: usize,
    /// The head row's first-key prefix, what the merge compares first.
    prefix: u64,
}

impl ColumnarRun {
    /// Moves to the first row of the next page; at the end of the run the
    /// head goes and the file's pages are freed.
    fn load(&mut self, arity: usize, key: &KeySpec) -> Result<()> {
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        self.pos = 0;
        if self.scan.fill_columns(&mut builders, 1)? {
            let page = Keyed::new(ColumnarBatch::from_builders(builders), key);
            self.prefix = page.norms.first(0);
            self.page = Some(page);
        } else {
            self.page = None;
            if let Some(f) = self.file.take() {
                f.delete();
            }
        }
        Ok(())
    }

    /// Steps past the head row.
    fn advance(&mut self, arity: usize, key: &KeySpec) -> Result<()> {
        self.pos += 1;
        let page = self.page.as_ref().expect("a head row");
        if self.pos < page.batch.num_rows() {
            self.prefix = page.norms.first(self.pos);
            Ok(())
        } else {
            self.load(arity, key)
        }
    }
}

/// [`MergeStream`] over column vectors: runs are read a page at a time
/// straight into columns, heads are compared on their normalized prefix
/// first, and output is gathered into batches — no `Tuple` is boxed. Same
/// linear scan over the heads, so the same comparisons in the same order;
/// same run pages charged at the same points.
pub struct ColumnarMergeStream {
    runs: Vec<ColumnarRun>,
    key: KeySpec,
    arity: usize,
    metrics: MetricsRef,
}

impl ColumnarMergeStream {
    /// Opens the given sorted runs of `arity`-column rows for merging,
    /// with intermediate passes exactly as [`MergeStream::new`] makes them.
    pub fn new(
        store: &StoreRef,
        mut files: Vec<TupleFile>,
        key: KeySpec,
        arity: usize,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Result<ColumnarMergeStream> {
        let fan_in = budget.fan_in();
        while files.len() > fan_in {
            let batch: Vec<TupleFile> = files.drain(..fan_in).collect();
            let mut merged = ColumnarMergeStream::open(batch, key.clone(), arity, metrics.clone())?;
            let mut w = TupleFileWriter::new(store);
            let mut acc = 0;
            while let Some(i) = merged.smallest(&mut acc) {
                let run = &merged.runs[i];
                let page = run.page.as_ref().expect("the winner has a head");
                w.append_row(page.batch.columns(), run.pos)?;
                merged.runs[i].advance(arity, &key)?;
            }
            metrics.add_comparisons(acc);
            let out = w.finish()?;
            metrics.add_run_pages_written(out.block_count());
            files.push(out);
        }
        ColumnarMergeStream::open(files, key, arity, metrics)
    }

    fn open(
        files: Vec<TupleFile>,
        key: KeySpec,
        arity: usize,
        metrics: MetricsRef,
    ) -> Result<ColumnarMergeStream> {
        let mut runs = Vec::with_capacity(files.len());
        for file in files {
            metrics.add_run_pages_read(file.block_count());
            let mut run = ColumnarRun {
                scan: file.scan(),
                file: Some(file),
                page: None,
                pos: 0,
                prefix: 0,
            };
            run.load(arity, &key)?;
            runs.push(run);
        }
        Ok(ColumnarMergeStream {
            runs,
            key,
            arity,
            metrics,
        })
    }

    /// The run holding the globally smallest head (the first such run on a
    /// tie, as in [`MergeStream`]); comparisons accumulate in `acc`.
    fn smallest(&self, acc: &mut u64) -> Option<usize> {
        let mut best: Option<(usize, &ColumnarRun, &Keyed)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let Some(page) = &run.page else { continue };
            best = Some(match best {
                None => (i, run, page),
                Some((b, b_run, b_page)) => {
                    let (ord, n) = match run.prefix.cmp(&b_run.prefix) {
                        Ordering::Equal => page.norms.compare(
                            &page.batch,
                            run.pos,
                            &b_page.norms,
                            &b_page.batch,
                            b_run.pos,
                            &self.key,
                        ),
                        differs => (differs, 1),
                    };
                    *acc += n;
                    if ord == Ordering::Less {
                        (i, run, page)
                    } else {
                        (b, b_run, b_page)
                    }
                }
            });
        }
        best.map(|(i, _, _)| i)
    }

    /// Pops up to `max_rows` rows in merge order into one batch;
    /// comparisons hit the shared metrics once per call. `Ok(None)` only at
    /// end of the merged stream.
    pub fn next_columnar(&mut self, max_rows: usize) -> Result<Option<ColumnarBatch>> {
        let mut acc = 0;
        let out = self.pop_into_batch(max_rows.max(1), &mut acc);
        self.metrics.add_comparisons(acc);
        out
    }

    fn pop_into_batch(&mut self, max_rows: usize, acc: &mut u64) -> Result<Option<ColumnarBatch>> {
        let mut builders: Vec<ColumnBuilder> =
            (0..self.arity).map(|_| ColumnBuilder::new()).collect();
        let mut rows = 0;
        while rows < max_rows {
            let Some(i) = self.smallest(acc) else { break };
            let run = &self.runs[i];
            let page = run.page.as_ref().expect("the winner has a head");
            for (b, col) in builders.iter_mut().zip(page.batch.columns()) {
                b.push_from(col, run.pos);
            }
            rows += 1;
            self.runs[i].advance(self.arity, &self.key)?;
        }
        Ok((rows > 0).then(|| ColumnarBatch::from_builders(builders)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use pyro_common::Value;
    use pyro_storage::{IntoStore, SimDevice};

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn run_of(store: &StoreRef, vals: &[i64], m: &MetricsRef) -> TupleFile {
        write_run(store, vals.iter().map(|&v| t(v)), m).unwrap()
    }

    #[test]
    fn merge_two_runs() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        let r1 = run_of(&dev, &[1, 3, 5], &m);
        let r2 = run_of(&dev, &[2, 4, 6], &m);
        let mut ms = MergeStream::new(
            &dev,
            vec![r1, r2],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 128),
            m.clone(),
        )
        .unwrap();
        let mut out = Vec::new();
        while let Some(x) = ms.next_tuple().unwrap() {
            out.push(x.get(0).as_int().unwrap());
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.runs_created(), 2);
        assert!(m.run_pages_read() >= 2);
    }

    #[test]
    fn multipass_merge_with_tiny_fanin() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        // 7 runs but fan-in only 2 → intermediate passes required.
        let files: Vec<TupleFile> = (0..7)
            .map(|i| run_of(&dev, &[i, i + 10, i + 20], &m))
            .collect();
        let written_before = m.run_pages_written();
        let mut ms = MergeStream::new(
            &dev,
            files,
            KeySpec::new(vec![0]),
            SortBudget::new(3, 128), // fan_in = 2
            m.clone(),
        )
        .unwrap();
        let mut out = Vec::new();
        while let Some(x) = ms.next_tuple().unwrap() {
            out.push(x.get(0).as_int().unwrap());
        }
        assert_eq!(out.len(), 21);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            m.run_pages_written() > written_before,
            "intermediate passes must write new runs"
        );
    }

    #[test]
    fn exhausted_runs_free_pages() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        let r1 = run_of(&dev, &[1, 2], &m);
        let live_before = dev.live_pages();
        assert!(live_before > 0);
        let mut ms = MergeStream::new(
            &dev,
            vec![r1],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 128),
            m,
        )
        .unwrap();
        while ms.next_tuple().unwrap().is_some() {}
        assert_eq!(dev.live_pages(), 0);
    }

    #[test]
    fn empty_merge() {
        let dev = SimDevice::new().into_store();
        let m = ExecMetrics::new();
        let mut ms = MergeStream::new(
            &dev,
            vec![],
            KeySpec::new(vec![0]),
            SortBudget::new(10, 4096),
            m,
        )
        .unwrap();
        assert!(ms.next_tuple().unwrap().is_none());
    }

    #[test]
    fn in_memory_stream() {
        let mut s = InMemorySortStream::new(vec![t(1), t(2)]);
        assert_eq!(s.next_tuple(), Some(t(1)));
        assert_eq!(s.next_tuple(), Some(t(2)));
        assert_eq!(s.next_tuple(), None);
    }
}
