//! Spill-run plumbing shared by SRS and MRS: writing runs, and k-way
//! merging with bounded fan-in over column vectors
//! ([`ColumnarMergeStream`]).

use super::entry::Keyed;
use super::SortBudget;
use crate::metrics::MetricsRef;
use pyro_common::{ColumnBuilder, ColumnarBatch, KeySpec, Result};
use pyro_storage::{StoreRef, TupleFile, TupleFileScan, TupleFileWriter};
use std::cmp::Ordering;

/// Writes physical rows `rows` of `batch`, in that order (already sorted),
/// as one spill run, charging run I/O. Run pages go through `store`, so a
/// pooled store keeps hot runs cached (the logical `run_pages_written`
/// charge is unchanged either way).
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

/// Streaming k-way merge over sorted runs: runs are read a page at a time
/// straight into columns, heads are compared on their normalized prefix
/// first (a linear scan over at most fan-in heads; a tie between two exact
/// pages is settled on their prefixes too), and output is gathered
/// into batches — no `Tuple` is boxed. Run pages are charged as *run
/// reads* when each run is opened (runs are always fully consumed); files
/// are freed as they are exhausted so device memory stays bounded.
pub struct ColumnarMergeStream {
    runs: Vec<ColumnarRun>,
    key: KeySpec,
    arity: usize,
    metrics: MetricsRef,
}

impl ColumnarMergeStream {
    /// Opens the given sorted runs of `arity`-column rows for merging. If
    /// there are more runs than `budget.fan_in()`, intermediate merge
    /// passes are performed first (reading and re-writing runs, exactly the
    /// `B(e)·(2·passes + 1)`-style cost the paper's model charges).
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
    /// tie); comparisons accumulate in `acc`.
    fn smallest(&self, acc: &mut u64) -> Option<usize> {
        let mut best: Option<(usize, &ColumnarRun, &Keyed)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let Some(page) = &run.page else { continue };
            best = Some(match best {
                None => (i, run, page),
                Some((b, b_run, b_page)) => {
                    let (ord, n) = match run.prefix.cmp(&b_run.prefix) {
                        Ordering::Equal => page.compare_rows(run.pos, b_page, b_run.pos, &self.key),
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
    use pyro_common::{Tuple, Value};
    use pyro_storage::{IntoStore, SimDevice};

    fn run_of(store: &StoreRef, vals: &[i64], m: &MetricsRef) -> TupleFile {
        let rows: Vec<Tuple> = vals
            .iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let order: Vec<u32> = (0..vals.len() as u32).collect();
        write_run_rows(store, &batch, &order, m).unwrap()
    }

    fn merge(store: &StoreRef, runs: Vec<TupleFile>, blocks: u64, m: &MetricsRef) -> Vec<i64> {
        let budget = SortBudget::new(blocks, 128);
        let key = KeySpec::new(vec![0]);
        let mut ms = ColumnarMergeStream::new(store, runs, key, 1, budget, m.clone()).unwrap();
        let mut out = Vec::new();
        while let Some(batch) = ms.next_columnar(3).unwrap() {
            out.extend(batch.to_rows().iter().map(|t| t.get(0).as_int().unwrap()));
        }
        out
    }

    #[test]
    fn merge_two_runs() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        let runs = vec![run_of(&dev, &[1, 3, 5], &m), run_of(&dev, &[2, 4, 6], &m)];
        assert_eq!(merge(&dev, runs, 10, &m), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.runs_created(), 2);
        assert!(m.run_pages_read() >= 2);
    }

    #[test]
    fn multipass_merge_with_tiny_fanin() {
        let dev = SimDevice::with_block_size(128).into_store();
        let m = ExecMetrics::new();
        // 7 runs but fan-in only 2 → intermediate passes required.
        let runs: Vec<TupleFile> = (0..7)
            .map(|i| run_of(&dev, &[i, i + 10, i + 20], &m))
            .collect();
        let written_before = m.run_pages_written();
        let out = merge(&dev, runs, 3, &m);
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
        let runs = vec![run_of(&dev, &[1, 2], &m)];
        assert!(dev.live_pages() > 0);
        merge(&dev, runs, 10, &m);
        assert_eq!(dev.live_pages(), 0);
    }

    #[test]
    fn empty_merge() {
        let dev = SimDevice::new().into_store();
        assert!(merge(&dev, Vec::new(), 10, &ExecMetrics::new()).is_empty());
    }
}
