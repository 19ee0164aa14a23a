//! Standard replacement selection (SRS) — the baseline external sort.
//!
//! Classical behaviour (matching PostgreSQL's sort, which the paper
//! modified):
//!
//! * If the whole input fits in the memory budget, sort in memory — no disk
//!   I/O at all.
//! * Otherwise run replacement selection: a memory-filling heap emits the
//!   smallest current-run tuple, replacing it with the next input tuple
//!   (demoted to the next run if it sorts below the last emitted key). Runs
//!   average twice the memory size; *presorted input yields a single giant
//!   run* — which is still written to disk and read back, breaking the
//!   pipeline. That wasted round-trip on partially-sorted input is exactly
//!   the deficiency [`super::PartialSort`] removes.
//! * Merge the runs with bounded fan-in (multi-pass if needed).

use super::entry::{sort_rows_into, Entry, Keyed, Sources};
use super::heap::RsHeap;
use super::runs::ColumnarMergeStream;
use super::SortBudget;
use crate::metrics::MetricsRef;
use crate::op::{BoxOp, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnBuilder, ColumnarBatch, KeySpec, PyroError, Result, Schema};
use pyro_storage::{IntoStore, StoreRef, TupleFile, TupleFileWriter};
use std::cmp::Ordering;

enum State {
    /// Input not yet consumed.
    Pending,
    /// Whole input fit in memory — the input as one dense batch, its row
    /// ids in sorted order, and how many were emitted.
    Sorted {
        batch: ColumnarBatch,
        order: Vec<u32>,
        pos: usize,
    },
    /// Merging spill runs.
    Merging(ColumnarMergeStream),
    /// A pull failed; every later pull repeats the error.
    Failed(PyroError),
    Done,
}

/// The SRS sort operator.
pub struct StandardReplacementSort {
    child: Option<BoxOp>,
    schema: Schema,
    key: KeySpec,
    store: StoreRef,
    budget: SortBudget,
    metrics: MetricsRef,
    state: State,
    /// Set by a `Limit` above: merge one row per pull.
    demand_driven: bool,
    batch: usize,
}

/// Where replacement selection reads its next input row from: a dense
/// batch, the next unread row, and the slot the batch is filed under once a
/// heap entry points into it.
struct Input {
    batch: ColumnarBatch,
    pos: usize,
    src: Option<u32>,
}

impl Input {
    fn new(batch: ColumnarBatch, pos: usize) -> Input {
        Input {
            batch: batch.into_dense(),
            pos,
            src: None,
        }
    }
}

impl StandardReplacementSort {
    /// Sorts `child` by `key` using at most `budget` memory; spill runs
    /// live on `store` (a [`StoreRef`], or a bare device for uncached
    /// spills).
    pub fn new(
        child: BoxOp,
        key: KeySpec,
        store: impl IntoStore,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Self {
        let schema = child.schema().clone();
        StandardReplacementSort {
            child: Some(child),
            schema,
            key,
            store: store.into_store(),
            budget,
            metrics,
            state: State::Pending,
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn take_child(&mut self) -> BoxOp {
        // A failed build latches `State::Failed`, so `Pending` is seen once.
        self.child.take().expect("the input is consumed once")
    }

    /// Seals `writer` as one more run of this sort.
    fn seal_run(&self, writer: TupleFileWriter, runs: &mut Vec<TupleFile>) -> Result<()> {
        let file = writer.finish()?;
        self.metrics.add_run_pages_written(file.block_count());
        self.metrics.add_run();
        runs.push(file);
        Ok(())
    }

    /// Consumes the input: buffers it until the budget overflows or input
    /// ends, copying the buffered prefix into one dense batch. If the input
    /// ends there it is sorted in place, with no disk I/O. Otherwise the
    /// buffer seeds a replacement-selection heap as run 0, and later input
    /// rows are addressed in the batches they arrived in: the heap emits
    /// its smallest current-run row, replaced by the next input row — which
    /// joins the next run if it sorts below the row just emitted. Run
    /// formation comparisons (heap sifts and admission checks) accumulate
    /// locally and are charged in bulk.
    fn build(&mut self) -> Result<State> {
        let mut child = self.take_child();
        let budget_bytes = self.budget.bytes();
        let arity = self.schema.len();

        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        let (mut bytes, mut rows) = (0usize, 0usize);
        let mut input: Option<Input> = None;
        while let Some(b) = child.next_batch()? {
            let b = b.into_dense();
            let sizes = b.row_byte_sizes();
            // Rows of this batch that still fit the budget (the first row
            // always does).
            let mut fits = 0;
            for &size in &sizes {
                if bytes + size as usize > budget_bytes && rows > 0 {
                    break;
                }
                bytes += size as usize;
                rows += 1;
                fits += 1;
            }
            for (builder, col) in builders.iter_mut().zip(b.columns()) {
                builder.append_range(col, 0, fits);
            }
            if fits < sizes.len() {
                input = Some(Input::new(b, fits));
                break;
            }
        }
        let base = Keyed::new(ColumnarBatch::from_builders(builders), &self.key);

        if input.is_none() {
            // Everything fits: pure CPU sort, zero disk I/O.
            let mut order = Vec::with_capacity(rows);
            sort_rows_into(
                &base,
                &self.key,
                0..rows,
                &self.metrics,
                &mut Vec::new(),
                &mut order,
            );
            return Ok(State::Sorted {
                batch: base.batch,
                order,
                pos: 0,
            });
        }

        // Replacement selection: heapify the buffer as run 0, then cycle.
        let key = &self.key;
        let mut srcs = Sources::default();
        let mut heap = RsHeap::new(self.metrics.clone());
        let base_src = srcs.add(base, rows);
        for r in 0..rows {
            let e = srcs.get(base_src).entry(base_src, r);
            heap.push(0, e, &|a, b| srcs.compare(key, a, b));
        }
        let mut admission_cmps: u64 = 0;
        let mut next_input = next_entry(&mut child, &mut input, &mut srcs, &mut heap, key, arity)?;
        let mut runs: Vec<TupleFile> = Vec::new();
        let mut current_run: u32 = 0;
        let mut writer = TupleFileWriter::new(&self.store);

        loop {
            match heap.peek_run() {
                None => break,
                Some(r) if r != current_run => {
                    let full = std::mem::replace(&mut writer, TupleFileWriter::new(&self.store));
                    self.seal_run(full, &mut runs)?;
                    current_run = r;
                }
                Some(_) => {}
            }
            let (_, out) = heap
                .pop(&|a, b| srcs.compare(key, a, b))
                .expect("peek_run returned Some");
            writer.append_row(srcs.get(out.src).batch.columns(), out.row as usize)?;

            let admitted = next_input.take();
            if let Some(incoming) = admitted {
                let (ord, n) = srcs.compare(key, &incoming, &out);
                admission_cmps += n;
                let run = if ord == Ordering::Less {
                    current_run + 1
                } else {
                    current_run
                };
                heap.push(run, incoming, &|a, b| srcs.compare(key, a, b));
            }
            // The popped row's batch may go now that the admission check
            // against it is done.
            srcs.release(out.src, input.as_ref().and_then(|i| i.src));
            if admitted.is_some() {
                next_input = next_entry(&mut child, &mut input, &mut srcs, &mut heap, key, arity)?;
            }
        }
        heap.flush_comparisons();
        self.metrics.add_comparisons(admission_cmps);
        self.seal_run(writer, &mut runs)?;

        let merge = ColumnarMergeStream::new(
            &self.store,
            runs,
            self.key.clone(),
            arity,
            self.budget,
            self.metrics.clone(),
        )?;
        Ok(State::Merging(merge))
    }

    fn pull_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            match &mut self.state {
                State::Pending => self.state = self.build()?,
                State::Sorted { batch, order, pos } => {
                    if *pos == order.len() {
                        self.state = State::Done;
                        return Ok(None);
                    }
                    let end = (*pos + self.batch).min(order.len());
                    let out = batch.gather(&order[*pos..end]);
                    *pos = end;
                    return Ok(Some(out));
                }
                State::Merging(m) => {
                    // Each merged row costs comparisons: under a `Limit`,
                    // one row per pull.
                    let rows = if self.demand_driven { 1 } else { self.batch };
                    let c = m.next_columnar(rows)?;
                    if c.is_none() {
                        self.state = State::Done;
                    }
                    return Ok(c);
                }
                State::Failed(e) => return Err(e.clone()),
                State::Done => return Ok(None),
            }
        }
    }

    /// Latches a failed pull: the input may be half consumed and a run half
    /// written, so there is nothing to resume.
    fn latch<T>(&mut self, pulled: Result<T>) -> Result<T> {
        if let Err(e) = &pulled {
            self.state = State::Failed(e.clone());
        }
        pulled
    }
}

/// The next input row of replacement selection as a heap entry, or `None`
/// at end of input. A batch is filed in `srcs` when its first row is
/// handed out; when input moves past a batch no entry points into any
/// more, the batch goes. When `srcs` has come to hold several times the
/// rows the heap does — a few long-lived rows each pinning a whole batch —
/// the heap's rows are copied into one batch of their own first.
fn next_entry(
    child: &mut BoxOp,
    input: &mut Option<Input>,
    srcs: &mut Sources,
    heap: &mut RsHeap<Entry>,
    key: &KeySpec,
    arity: usize,
) -> Result<Option<Entry>> {
    loop {
        let Some(cur) = input else { return Ok(None) };
        if cur.pos < cur.batch.num_rows() {
            let src = match cur.src {
                Some(src) => src,
                None => {
                    if srcs.rows() > 4 * (heap.len() + cur.batch.num_rows()) {
                        compact(srcs, heap, key, arity);
                    }
                    let src = srcs.add(Keyed::new(cur.batch.clone(), key), 0);
                    cur.src = Some(src);
                    src
                }
            };
            srcs.retain(src);
            let e = srcs.get(src).entry(src, cur.pos);
            cur.pos += 1;
            return Ok(Some(e));
        }
        if let Some(src) = cur.src {
            srcs.drop_if_dead(src);
        }
        *input = child.next_batch()?.map(|b| Input::new(b, 0));
    }
}

/// Copies every row a heap entry points at into one fresh batch, repoints
/// the entries (keys untouched, so the heap order stands) and drops the
/// batches they used to pin.
fn compact(srcs: &mut Sources, heap: &mut RsHeap<Entry>, key: &KeySpec, arity: usize) {
    let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
    for e in heap.items_mut() {
        let from = &srcs.get(e.src).batch;
        for (b, col) in builders.iter_mut().zip(from.columns()) {
            b.push_from(col, e.row as usize);
        }
    }
    srcs.clear();
    let packed = Keyed::new(ColumnarBatch::from_builders(builders), key);
    let src = srcs.add(packed, heap.len());
    for (row, e) in heap.items_mut().enumerate() {
        (e.src, e.row) = (src, row as u32);
    }
}

impl Operator for StandardReplacementSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let pulled = self.pull_columnar();
        self.latch(pulled)
    }

    /// The input is consumed whole, so the call stops here; only the
    /// final merge works ahead.
    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::op::{collect, ValuesOp};
    use pyro_common::{Tuple, Value};
    use pyro_storage::SimDevice;

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect()
    }

    fn ints(out: Vec<Tuple>) -> Vec<i64> {
        out.iter().map(|t| t.get(0).as_int().unwrap()).collect()
    }

    fn sort_op(vals: &[i64], budget_blocks: u64, block_size: usize) -> (Vec<i64>, MetricsRef) {
        let dev = SimDevice::with_block_size(block_size);
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a"]), rows(vals));
        let op = StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0]),
            dev,
            SortBudget::new(budget_blocks, block_size),
            m.clone(),
        );
        (ints(collect(Box::new(op)).unwrap()), m)
    }

    #[test]
    fn in_memory_when_fits() {
        let (out, m) = sort_op(&[5, 2, 9, 1, 7], 100, 4096);
        assert_eq!(out, vec![1, 2, 5, 7, 9]);
        assert_eq!(m.run_io(), 0, "in-memory sort must not spill");
        assert!(m.comparisons() > 0);
    }

    #[test]
    fn external_sort_correct() {
        // ~25 bytes/tuple, budget 3 blocks × 128B = 384B ≈ 15 tuples; 200
        // tuples forces spilling.
        let vals: Vec<i64> = (0..200).rev().collect();
        let (out, m) = sort_op(&vals, 3, 128);
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
        assert!(m.run_io() > 0, "external sort must spill");
        assert!(
            m.runs_created() >= 2,
            "reverse input defeats RS run extension"
        );
    }

    #[test]
    fn presorted_input_yields_single_run_but_still_spills() {
        // The paper's point: SRS on sorted input writes ONE big run to disk
        // and reads it back — I/O that MRS avoids.
        let vals: Vec<i64> = (0..200).collect();
        let (out, m) = sort_op(&vals, 3, 128);
        assert_eq!(out, vals);
        assert_eq!(
            m.runs_created(),
            1,
            "replacement selection extends the run forever"
        );
        assert!(m.run_pages_written() > 0);
        assert_eq!(m.run_pages_read(), m.run_pages_written());
    }

    #[test]
    fn random_input_runs_average_twice_memory() {
        // Classic RS property: with random input, expected run length ≈ 2×
        // memory. We only sanity-check runs are fewer than naive chunking.
        let mut vals: Vec<i64> = (0..2000).collect();
        // Pseudo-shuffle deterministically.
        let mut state = 12345u64;
        for i in (1..vals.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            vals.swap(i, j);
        }
        let (out, m) = sort_op(&vals, 4, 256);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // naive chunking would need ~ bytes/total ≈ 2000*25/1024 ≈ 48 runs;
        // RS should do substantially better.
        assert!(
            m.runs_created() < 40,
            "expected < 40 runs, got {}",
            m.runs_created()
        );
    }

    #[test]
    fn empty_and_single_input() {
        let (out, m) = sort_op(&[], 10, 4096);
        assert!(out.is_empty());
        assert_eq!(m.run_io(), 0);
        let (out, _) = sort_op(&[42], 10, 4096);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn duplicates_preserved() {
        let (out, _) = sort_op(&[3, 1, 3, 1, 3], 100, 4096);
        assert_eq!(out, vec![1, 1, 3, 3, 3]);
    }

    #[test]
    fn multi_column_key() {
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let data = vec![
            Tuple::new(vec![Value::Int(2), Value::Int(1)]),
            Tuple::new(vec![Value::Int(1), Value::Int(9)]),
            Tuple::new(vec![Value::Int(1), Value::Int(3)]),
            Tuple::new(vec![Value::Int(2), Value::Int(0)]),
        ];
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data);
        let op = StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        let keys: Vec<(i64, i64)> = out
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        assert_eq!(keys, vec![(1, 3), (1, 9), (2, 0), (2, 1)]);
    }
}
