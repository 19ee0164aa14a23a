//! Modified replacement selection (MRS) — the paper's §3.1 contribution.
//!
//! The input is known to be sorted on a *prefix* `(a1..ak)` of the requested
//! key `(a1..an)`. Tuples sharing a prefix value form a **partial sort
//! segment**; segments arrive in prefix order, so sorting each segment
//! independently on the suffix `(ak+1..an)` yields the full order. The three
//! benefits the paper lists all fall out of the structure:
//!
//! 1. a segment that fits in memory is sorted and emitted with **zero run
//!    I/O** — fully pipelined;
//! 2. tuples are produced **early** (as soon as a segment closes, not after
//!    the whole input);
//! 3. comparisons drop from `O(n log n)` to `O(n log(n/k))` *and* compare
//!    only suffix columns.
//!
//! Oversized segments degrade gracefully: the segment alone spills to runs
//! that are merged when it closes — at the extreme (one segment = whole
//! input, `k` columns sharing one value) MRS behaves like a plain external
//! sort, the convergence Fig. 9's right edge shows.

use super::entry::{sort_rows_into, Entry, Keyed};
use super::runs::{write_run_rows, ColumnarMergeStream};
use super::SortBudget;
use crate::metrics::MetricsRef;
use crate::op::{BoxOp, Latch, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnarBatch, KeySpec, Result, Schema};
use pyro_storage::{IntoStore, StoreRef, TupleFile};

/// The segment scan's state. The operator works on one dense input batch at
/// a time; rows of a segment still open when the batch runs out are carried
/// over in front of the next one ([`ColumnarBatch::carry_into`]), so a
/// segment's in-memory rows always sit in one batch: they are sorted as
/// 16-byte entries addressed by row id and emitted by one gather.
#[derive(Default)]
struct Columnar {
    /// The current input batch (no selection vector), with its rows'
    /// normalized suffix keys.
    batch: Option<Keyed>,
    /// [`Tuple::byte_size`] of each of its rows.
    sizes: Vec<u32>,
    /// Next row of `batch` not yet looked at.
    pos: usize,
    /// True between a segment's first row and its close.
    open: bool,
    /// First row of the open segment still in memory (rows before it were
    /// spilled, or belong to closed segments).
    seg_start: usize,
    /// Budget bytes held by the open segment's in-memory rows.
    seg_bytes: usize,
    /// Row ids of `batch`'s closed in-memory segments, in output order.
    sorted: Vec<u32>,
    /// How many of `sorted` were emitted.
    emitted: usize,
    /// The closed oversized segment being drained (after `sorted`).
    merging: Option<ColumnarMergeStream>,
    /// Entry buffer reused by every segment sort.
    scratch: Vec<Entry>,
}

/// What one step of the segment scan came to.
enum Step {
    /// A segment closed: there is more to emit.
    Closed,
    /// The batch ran out inside a segment (or before one).
    NeedInput,
}

/// The MRS operator: enforces the full key given a sorted prefix.
pub struct PartialSort {
    child: BoxOp,
    schema: Schema,
    /// Columns of the already-sorted prefix.
    prefix: KeySpec,
    /// Remaining key columns each segment is sorted on.
    suffix: KeySpec,
    store: StoreRef,
    budget: SortBudget,
    metrics: MetricsRef,
    /// Spill runs of the current segment (only when it outgrew memory).
    segment_runs: Vec<TupleFile>,
    columnar: Columnar,
    input_done: bool,
    segments_seen: u64,
    failed: Latch,
    /// Set by a `Limit` above: close one segment per pull, not a batchful.
    demand_driven: bool,
    batch: usize,
}

impl PartialSort {
    /// Sorts `child` by `key`, exploiting that the input is already sorted
    /// on the first `prefix_len` columns of `key`.
    ///
    /// `prefix_len = 0` is allowed (degenerates to a chunk-sort external
    /// sort); `prefix_len = key.len()` makes the operator a pass-through
    /// verifier.
    pub fn new(
        child: BoxOp,
        key: KeySpec,
        prefix_len: usize,
        store: impl IntoStore,
        budget: SortBudget,
        metrics: MetricsRef,
    ) -> Self {
        let schema = child.schema().clone();
        let (prefix, suffix) = key.split_at(prefix_len);
        PartialSort {
            child,
            schema,
            prefix,
            suffix,
            store: store.into_store(),
            budget,
            metrics,
            segment_runs: Vec::new(),
            columnar: Columnar::default(),
            input_done: false,
            segments_seen: 0,
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// Number of partial-sort segments that have been closed so far.
    pub fn segments_seen(&self) -> u64 {
        self.segments_seen
    }

    /// Sorts rows `seg_start..end` of `batch` on the suffix
    /// and writes them as one run of the open segment.
    fn spill_rows(&mut self, batch: &Keyed, end: usize) -> Result<()> {
        let st = &mut self.columnar;
        let mut rows = Vec::with_capacity(end - st.seg_start);
        sort_rows_into(
            batch,
            &self.suffix,
            st.seg_start..end,
            &self.metrics,
            &mut st.scratch,
            &mut rows,
        );
        let run = write_run_rows(&self.store, &batch.batch, &rows, &self.metrics)?;
        self.segment_runs.push(run);
        st.seg_start = end;
        st.seg_bytes = 0;
        Ok(())
    }

    /// Closes the open segment, whose last row is row
    /// `end - 1` of `batch`.
    fn close_rows(&mut self, batch: &Keyed, end: usize) -> Result<()> {
        self.segments_seen += 1;
        self.columnar.open = false;
        if self.segment_runs.is_empty() {
            let st = &mut self.columnar;
            sort_rows_into(
                batch,
                &self.suffix,
                st.seg_start..end,
                &self.metrics,
                &mut st.scratch,
                &mut st.sorted,
            );
        } else {
            if self.columnar.seg_start < end {
                self.spill_rows(batch, end)?;
            }
            let runs = std::mem::take(&mut self.segment_runs);
            self.columnar.merging = Some(ColumnarMergeStream::new(
                &self.store,
                runs,
                self.suffix.clone(),
                self.schema.len(),
                self.budget,
                self.metrics.clone(),
            )?);
        }
        self.columnar.seg_start = end;
        self.columnar.seg_bytes = 0;
        Ok(())
    }

    /// Scans the current batch from `pos` to the end of the segment there,
    /// admitting rows against the budget as it goes: a row that would
    /// overflow it first spills the segment's rows so far as one sorted
    /// run. Comparisons are charged once per call.
    fn scan_segment(&mut self) -> Result<Step> {
        let Some(batch) = self.columnar.batch.take() else {
            return Ok(Step::NeedInput);
        };
        let mut acc = 0;
        let step = self.scan_rows(&batch, &mut acc);
        self.metrics.add_comparisons(acc);
        self.columnar.batch = Some(batch);
        step
    }

    fn scan_rows(&mut self, batch: &Keyed, acc: &mut u64) -> Result<Step> {
        let rows = batch.batch.num_rows();
        if self.columnar.pos == rows {
            return Ok(Step::NeedInput);
        }
        let mut from = self.columnar.pos;
        if !self.columnar.open {
            // A segment's first row is admitted untested.
            self.columnar.open = true;
            self.columnar.seg_start = from;
            from += 1;
        }
        // Every later row is tested against the segment's prefix values —
        // here the row before it, which carries them — by `Value ==`, left
        // to right, stopping at the first mismatch.
        let end = if self.prefix.is_empty() {
            rows // one segment spans the input
        } else {
            let (end, cost) = self.prefix.group_end(&batch.batch, from - 1, from, rows);
            *acc += cost;
            end
        };
        let budget = self.budget.bytes();
        for i in self.columnar.pos..end {
            let size = self.columnar.sizes[i] as usize;
            if self.columnar.seg_bytes + size > budget && self.columnar.seg_start < i {
                self.spill_rows(batch, i)?;
            }
            self.columnar.seg_bytes += size;
        }
        self.columnar.pos = end;
        if end == rows {
            return Ok(Step::NeedInput);
        }
        self.close_rows(batch, end)?;
        Ok(Step::Closed)
    }

    /// Replaces the exhausted batch by the open segment's
    /// in-memory rows followed by the next input batch. At end of input the
    /// open segment, if any, closes. Returns `false` when there is nothing
    /// more to produce.
    fn refill(&mut self) -> Result<bool> {
        let st = &mut self.columnar;
        debug_assert_eq!(st.emitted, st.sorted.len(), "a dying batch owes rows");
        let next = match self.input_done {
            true => None,
            false => self.child.next_batch()?,
        };
        let Some(next) = next else {
            self.input_done = true;
            if !st.open {
                return Ok(false);
            }
            let (batch, end) = (st.batch.take().expect("an open segment"), st.pos);
            let closed = self.close_rows(&batch, end);
            self.columnar.batch = Some(batch);
            return closed.map(|()| true);
        };
        let rows = st.batch.as_ref().map_or(0, |b| b.batch.num_rows());
        // The open segment's rows stay; when all of them were spilled its
        // last row still does, for the next row's boundary test.
        let from = match st.open {
            true => st.seg_start.min(rows - 1),
            false => rows,
        };
        let merged = match &st.batch {
            Some(old) if from < rows => old.batch.carry_into(from, &next),
            _ => next.into_dense(),
        };
        st.sizes = merged.row_byte_sizes();
        st.batch = Some(Keyed::new(merged, &self.suffix));
        st.pos = rows - from;
        st.seg_start = st.seg_start.saturating_sub(from);
        st.sorted.clear();
        st.emitted = 0;
        Ok(true)
    }

    fn pull_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            let st = &mut self.columnar;
            let ready = st.sorted.len() - st.emitted;
            // Closed segments go out first, a batchful at a time — or at
            // once when nothing more may be closed before they are out: a
            // merge is waiting behind them, or the consumer may stop early.
            let wanted = if st.merging.is_some() || self.demand_driven {
                1
            } else {
                self.batch
            };
            if ready >= wanted {
                return Ok(Some(self.emit(ready.min(self.batch))));
            }
            if let Some(m) = &mut st.merging {
                // Each merged row costs comparisons: under a `Limit`, one
                // row per pull.
                let rows = if self.demand_driven { 1 } else { self.batch };
                match m.next_columnar(rows)? {
                    Some(b) => return Ok(Some(b)),
                    None => st.merging = None,
                }
                continue;
            }
            if let Step::NeedInput = self.scan_segment()? {
                // The batch is about to be replaced: what it still owes
                // goes out first.
                if ready > 0 {
                    return Ok(Some(self.emit(ready)));
                }
                if !self.refill()? {
                    return Ok(None);
                }
            }
        }
    }

    /// Gathers the next `n` sorted rows of the current batch.
    fn emit(&mut self, n: usize) -> ColumnarBatch {
        let st = &mut self.columnar;
        let batch = &st.batch.as_ref().expect("sorted rows of a batch").batch;
        let out = batch.gather(&st.sorted[st.emitted..st.emitted + n]);
        st.emitted += n;
        out
    }
}

impl Operator for PartialSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Emits up to a batch of sorted rows per call, closing as many
    /// segments as that takes — unless a `Limit` sits above, in which case
    /// at most one segment closes per call, so Top-K closes exactly the
    /// segments one-row pulls would. Short batches are fine under the batch
    /// contract.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        let pulled = self.pull_columnar();
        self.failed.record(pulled)
    }

    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.child.set_demand_driven();
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

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Int(b)])
    }

    /// Input sorted on col 0, random col 1.
    fn segmented_input(segments: i64, per_segment: i64) -> Vec<Tuple> {
        let mut rows = Vec::new();
        let mut state = 99u64;
        for s in 0..segments {
            for _ in 0..per_segment {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rows.push(t2(s, (state >> 40) as i64));
            }
        }
        rows
    }

    fn run_mrs(
        rows: Vec<Tuple>,
        prefix_len: usize,
        budget_blocks: u64,
        block_size: usize,
    ) -> (Vec<Tuple>, MetricsRef) {
        let dev = SimDevice::with_block_size(block_size);
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), rows);
        let op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            prefix_len,
            dev,
            SortBudget::new(budget_blocks, block_size),
            m.clone(),
        );
        (collect(Box::new(op)).unwrap(), m)
    }

    fn assert_sorted(rows: &[Tuple]) {
        let key = KeySpec::new(vec![0, 1]);
        assert!(
            rows.windows(2)
                .all(|w| key.compare(&w[0], &w[1]) != std::cmp::Ordering::Greater),
            "output not sorted"
        );
    }

    #[test]
    fn zero_run_io_when_segments_fit() {
        // This is the paper's headline §3.1 claim, as an exact assertion.
        let rows = segmented_input(50, 20);
        let (out, m) = run_mrs(rows.clone(), 1, 100, 4096);
        assert_eq!(out.len(), rows.len());
        assert_sorted(&out);
        assert_eq!(m.run_io(), 0, "MRS must not touch disk when segments fit");
    }

    #[test]
    fn fewer_comparisons_than_full_sort() {
        let rows = segmented_input(100, 10);
        let (_, m_mrs) = run_mrs(rows.clone(), 1, 100, 4096);

        // Same data through SRS for comparison.
        let dev = SimDevice::new();
        let m_srs = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), rows);
        let op = super::super::srs::StandardReplacementSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            dev,
            SortBudget::new(100, 4096),
            m_srs.clone(),
        );
        collect(Box::new(op)).unwrap();
        assert!(
            m_mrs.comparisons() < m_srs.comparisons(),
            "MRS {} should compare less than SRS {}",
            m_mrs.comparisons(),
            m_srs.comparisons()
        );
    }

    #[test]
    fn oversized_segment_spills_and_merges() {
        // One giant segment (all same prefix) much larger than 3×128B.
        let rows = segmented_input(1, 500);
        let (out, m) = run_mrs(rows, 1, 3, 128);
        assert_eq!(out.len(), 500);
        assert_sorted(&out);
        assert!(m.run_io() > 0, "oversized segment must spill");
    }

    #[test]
    fn mixed_small_and_large_segments() {
        let mut rows = segmented_input(1, 300); // big segment 0
        rows.extend(
            segmented_input(5, 4)
                .into_iter()
                .map(|t| t2(t.get(0).as_int().unwrap() + 1, t.get(1).as_int().unwrap())),
        );
        let (out, _) = run_mrs(rows, 1, 3, 128);
        assert_eq!(out.len(), 320);
        assert_sorted(&out);
    }

    #[test]
    fn early_output_before_input_consumed() {
        // MRS must yield the first segment's tuples before reading the whole
        // input; we detect this by pulling one tuple, then checking the
        // source's remaining count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingSource {
            schema: Schema,
            rows: Vec<Tuple>,
            idx: usize,
            reads: Arc<AtomicUsize>,
        }
        impl Operator for CountingSource {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
                // One row per pull.
                let row = self.rows.get(self.idx).cloned();
                self.idx += row.is_some() as usize;
                self.reads
                    .fetch_add(row.is_some() as usize, Ordering::Relaxed);
                Ok(row.map(|t| ColumnarBatch::from_rows(&[t])))
            }
        }

        let reads = Arc::new(AtomicUsize::new(0));
        let rows = segmented_input(100, 10);
        let n = rows.len();
        let src = CountingSource {
            schema: Schema::ints(&["a", "b"]),
            rows,
            idx: 0,
            reads: reads.clone(),
        };
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let mut op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        op.set_batch_size(1);
        let first = op.next_batch().unwrap();
        assert!(first.is_some());
        assert!(
            reads.load(Ordering::Relaxed) <= 11,
            "MRS read {} tuples before first output; expected ≈ one segment (SRS would read all {n})",
            reads.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn prefix_len_zero_degenerates_to_full_sort() {
        let rows = vec![t2(3, 1), t2(1, 2), t2(2, 0)];
        let (out, _) = run_mrs(rows, 0, 100, 4096);
        assert_eq!(out, vec![t2(1, 2), t2(2, 0), t2(3, 1)]);
    }

    #[test]
    fn full_prefix_is_passthrough() {
        // With prefix_len = |key| the operator's contract says the input is
        // already fully sorted; it must stream through unchanged with zero
        // run I/O.
        let key = KeySpec::new(vec![0, 1]);
        let mut rows = segmented_input(5, 3);
        rows.sort_by(|x, y| key.compare(x, y));
        let (out, m) = run_mrs(rows.clone(), 2, 100, 4096);
        assert_eq!(out, rows);
        assert_eq!(m.run_io(), 0);
    }

    #[test]
    fn empty_input() {
        let (out, m) = run_mrs(vec![], 1, 10, 4096);
        assert!(out.is_empty());
        assert_eq!(m.run_io(), 0);
    }

    #[test]
    fn segments_counted() {
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), segmented_input(7, 3));
        let mut op = PartialSort::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m,
        );
        while op.next_batch().unwrap().is_some() {}
        assert_eq!(op.segments_seen(), 7);
    }
}
