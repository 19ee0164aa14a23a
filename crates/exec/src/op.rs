//! The Volcano operator interface: one pull, `next_batch()`, which hands
//! over a [`Batch`] of rows in whichever layout the operator naturally
//! produces. A consumer that wants one row at a time reads through a
//! [`Stash`].
//!
//! **Layout rule.** A [`Batch`] is either `Rows` (boxed tuples) or `Cols`
//! (column vectors). Columns in, columns out: a scan decodes pages into
//! `Cols`; filter, projection, the hash join, both sort enforcers, the
//! merge join, the sort-based aggregate and limit each have one kernel,
//! over columns, so they call [`Batch::into_cols`] on input and always emit
//! `Cols`. Rows stay at the edge: the two row-wise operators (nested loops
//! and the hash aggregate) call [`Batch::into_rows`] and emit `Rows`. A conversion costs nothing when the
//! layout already matches, so a plan that is columnar throughout converts
//! exactly once — [`Pipeline::run`]'s `into_rows` at the root — and nothing
//! is decided ahead of time.
//!
//! **Batch contract.** The reference is batch size 1: one row per pull.
//! One `next_batch()` call on an operator configured for batch size `B`
//! performs exactly the same per-row work — and charges exactly the same
//! [`crate::ExecMetrics`] — as up to `B` consecutive pulls at batch size 1
//! would, whichever layout it is fed; it returns `Ok(None)` only at end of
//! stream, and a short (even partial) batch does *not* signal the end. This
//! equivalence is what keeps counter totals bit-identical across batch
//! sizes (the paper's Experiment A figures depend on it) while letting
//! batch-native operators skip per-row virtual dispatch, reuse buffers,
//! and charge metrics once per batch.
//!
//! An operator that works ahead to fill its batch (a partial sort closing
//! several segments, a merge join pairing several groups) relies on its
//! output being consumed. When a `Limit` above may cut the stream short it
//! says so through [`Operator::set_demand_driven`], and such operators then
//! do one unit of work per pull. Base-table device reads are the one
//! deliberate exception: a consumer pulls a whole child batch, so under
//! early termination (Top-K) a pull may read up to one batch of input
//! beyond demand — bounded read-ahead, like any paged scan; `ExecMetrics`
//! (comparisons, run I/O) still match exactly.
//!
//! Layouts may change from one batch to the next — every operator looks at
//! each batch it receives. An operator whose pull failed returns that
//! error again on every later pull.

use crate::metrics::MetricsRef;
use pyro_common::{ColumnarBatch, PyroError, Result, Schema, Tuple};
use pyro_storage::StoreRef;

/// Default number of rows per batch (the `SessionBuilder::batch_size`
/// default).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// One batch of an operator's output, in the layout the operator produced
/// it in (see the module doc's layout rule).
#[derive(Debug, Clone)]
pub enum Batch {
    /// Boxed tuples.
    Rows(Vec<Tuple>),
    /// Column vectors (plus an optional selection vector).
    Cols(ColumnarBatch),
}

impl Batch {
    /// Number of (selected) rows — what [`Batch::into_rows`] would yield,
    /// not the physical rows a filtered column batch still carries.
    pub fn num_rows(&self) -> usize {
        match self {
            Batch::Rows(rows) => rows.len(),
            Batch::Cols(cols) => cols.len(),
        }
    }

    /// The batch as boxed tuples: a move for `Rows`, one
    /// [`ColumnarBatch::to_rows`] for `Cols`.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self {
            Batch::Rows(rows) => rows,
            Batch::Cols(cols) => cols.to_rows(),
        }
    }

    /// The batch as column vectors: a move for `Cols`, one
    /// [`ColumnarBatch::from_rows`] for `Rows`.
    pub fn into_cols(self) -> ColumnarBatch {
        match self {
            Batch::Rows(rows) => ColumnarBatch::from_rows(&rows),
            Batch::Cols(cols) => cols,
        }
    }
}

/// A pull-based operator. `next_batch` returns `Ok(None)` at end of
/// stream; operators are single-use.
///
/// Only [`Operator::schema`] and [`Operator::next_batch`] are required, so
/// a minimal operator is a few lines and still sits under any parent:
///
/// ```
/// use pyro_common::{Result, Schema, Tuple, Value};
/// use pyro_exec::{collect, Batch, BoxOp, Operator, Stash};
///
/// /// Yields the integers `0..n` as single-column tuples, two at a time.
/// struct Counter {
///     schema: Schema,
///     next: i64,
///     n: i64,
/// }
///
/// impl Operator for Counter {
///     fn schema(&self) -> &Schema {
///         &self.schema
///     }
///
///     fn next_batch(&mut self) -> Result<Option<Batch>> {
///         let end = (self.next + 2).min(self.n);
///         let rows: Vec<Tuple> = (self.next..end)
///             .map(|i| Tuple::new(vec![Value::Int(i)]))
///             .collect();
///         self.next = end;
///         Ok((!rows.is_empty()).then_some(Batch::Rows(rows)))
///     }
/// }
///
/// let counter = |n| -> BoxOp { Box::new(Counter { schema: Schema::ints(&["i"]), next: 0, n }) };
/// // Either layout converts to the other on demand ...
/// let batch = counter(3).next_batch().unwrap().expect("two rows");
/// assert_eq!(batch.clone().into_cols().num_rows(), 2);
/// // ... a stash hands the rows on one at a time ...
/// let (mut op, mut stash) = (counter(3), Stash::new());
/// let mut seen = Vec::new();
/// while let Some(t) = stash.next_row(&mut op).unwrap() {
///     seen.push(t.get(0).as_int().unwrap());
/// }
/// assert_eq!(seen, [0, 1, 2]);
/// // ... and `collect` drains an operator whole.
/// assert_eq!(collect(counter(3)).unwrap().len(), 3);
/// ```
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Pulls roughly [`Operator::batch_size`] output rows, in the
    /// operator's natural layout. `Ok(None)` means end of stream; a short
    /// batch does not, and an operator whose natural production unit
    /// doesn't divide evenly (a join key with many matches, the tail of a
    /// decoded page) may overshoot the batch size by one such unit —
    /// consumers must not treat `batch_size` as a hard upper bound on batch
    /// length.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// Tells the operator that its consumer may stop pulling before the end
    /// of the stream (a [`crate::limit::Limit`] calls this on its input).
    /// An operator that otherwise works ahead to fill its batch — closing
    /// several sort segments, pairing several join groups — must from then
    /// on do only the work its next output row needs before returning, so
    /// that a stream cut short has charged exactly what pulls at batch size
    /// 1 of the same rows would have. Streaming operators pass the call
    /// on to the inputs they stream from; operators that consume an input
    /// whole before producing anything do not. Default: no-op.
    fn set_demand_driven(&mut self) {}

    /// The operator's configured batch granularity in rows.
    fn batch_size(&self) -> usize {
        DEFAULT_BATCH_SIZE
    }

    /// Reconfigures the batch granularity. Pass-through operators forward
    /// the new size to their input so demand stays bounded (e.g. `Limit`
    /// narrows its child to the rows still wanted). Default: no-op, for
    /// operators without buffering.
    fn set_batch_size(&mut self, _rows: usize) {}

    /// Bounds on the number of rows this operator will still produce, in
    /// `Iterator::size_hint` form: `(lower, Some(upper))` when known.
    /// Collectors use the hint to pre-allocate — a Limit-topped plan knows
    /// its exact output cardinality, a scan knows its file's tuple count.
    /// The default `(0, None)` claims nothing; implementations must never
    /// under-report the upper bound.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Boxed operator, the uniform child type. `Send`, so a compiled fragment
/// can be moved into a worker thread by the exchange operators.
pub type BoxOp = Box<dyn Operator + Send>;

/// Capacity to pre-allocate for a drain of `op`: the hinted upper bound
/// (exact for Limit-topped plans and bare scans), clamped so a misreported
/// hint cannot trigger an absurd allocation.
fn drain_capacity(op: &BoxOp) -> usize {
    const CAP: usize = 1 << 20;
    let (lower, upper) = op.size_hint();
    upper.unwrap_or(lower).min(CAP)
}

/// Drains an operator into a vector of rows — the one conversion of a
/// plan that is columnar throughout — pre-allocating from the operator's
/// [`Operator::size_hint`]. A `Cols` batch is boxed straight into that
/// vector ([`ColumnarBatch::append_rows`]), never into a vector of its own.
pub fn collect(mut op: BoxOp) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(drain_capacity(&op));
    while let Some(batch) = op.next_batch()? {
        match batch {
            Batch::Rows(mut rows) => out.append(&mut rows),
            Batch::Cols(cols) => cols.append_rows(&mut out),
        }
    }
    Ok(out)
}

/// Batched-input adapter: buffers one child batch as rows
/// ([`Batch::into_rows`]) and hands them out one at a time, so an operator
/// whose logic is inherently row-wise (hash build, nested loops, duplicate
/// elimination) can consume its input in batches of either layout without
/// changing a single per-row decision.
#[derive(Default)]
pub struct Stash {
    buf: std::vec::IntoIter<Tuple>,
}

impl Stash {
    /// An empty stash.
    pub fn new() -> Stash {
        Stash::default()
    }

    /// The next input row, refilling from `child.next_batch()` when the
    /// buffer runs dry.
    pub fn next_row(&mut self, child: &mut BoxOp) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.buf.next() {
                return Ok(Some(t));
            }
            match child.next_batch()? {
                Some(batch) => self.buf = batch.into_rows().into_iter(),
                None => return Ok(None),
            }
        }
    }
}

/// A finished output buffer as the batch pull's return value: `None` when
/// nothing was produced (end of stream), else a `Rows` batch.
pub(crate) fn rows_batch(out: Vec<Tuple>) -> Option<Batch> {
    if out.is_empty() {
        None
    } else {
        Some(Batch::Rows(out))
    }
}

/// The first error an operator's pull hit, returned again on every later
/// pull: an input half consumed or a table half built has nothing to
/// resume from.
#[derive(Default)]
pub(crate) struct Latch(Option<PyroError>);

impl Latch {
    /// The latched error, if a pull failed before.
    pub(crate) fn check(&self) -> Result<()> {
        self.0.clone().map_or(Ok(()), Err)
    }

    /// Passes `pulled` on, latching it if it failed.
    pub(crate) fn record<T>(&mut self, pulled: Result<T>) -> Result<T> {
        if let Err(e) = &pulled {
            self.0 = Some(e.clone());
        }
        pulled
    }
}

/// A compiled, ready-to-run operator tree bundled with the metrics block
/// every operator in it shares.
///
/// This is the unit the optimizer hands back: callers either drain it in one
/// shot with [`Pipeline::run`] or pull tuples themselves via
/// [`Pipeline::into_parts`] (streaming consumers, checkpointed benchmarks).
pub struct Pipeline {
    op: BoxOp,
    metrics: MetricsRef,
    /// When set, the drain entry points charge the store's buffer-pool
    /// counter delta (hits/misses) to `metrics` — the per-query slice of
    /// the catalog-wide pool counters.
    store: Option<StoreRef>,
}

impl Pipeline {
    /// Bundles an operator tree with its shared metrics.
    pub fn new(op: BoxOp, metrics: MetricsRef) -> Pipeline {
        Pipeline {
            op,
            metrics,
            store: None,
        }
    }

    /// Attributes `store`'s buffer-pool activity during [`Pipeline::run`]
    /// to this pipeline's metrics as
    /// `cache_hits` / `cache_misses`. A bypass store charges nothing. The
    /// plan compiler sets this to the catalog's store; streaming consumers
    /// going through [`Pipeline::into_parts`] read the pool stats
    /// themselves.
    ///
    /// Attribution is a counter *delta* across the drain, so it assumes
    /// one drain at a time per store: pipelines drained concurrently over
    /// the same pooled store each observe the combined activity. The
    /// pool's own [`pyro_storage::CacheStats`] totals stay exact
    /// regardless.
    pub fn with_store(mut self, store: StoreRef) -> Pipeline {
        self.store = Some(store);
        self
    }

    /// Output schema of the root operator.
    pub fn schema(&self) -> &Schema {
        self.op.schema()
    }

    /// The shared counter block. The handle stays valid (and keeps
    /// counting) across [`Pipeline::run`], so clone it before draining if
    /// you need readings afterwards.
    pub fn metrics(&self) -> &MetricsRef {
        &self.metrics
    }

    /// Drains the pipeline batch-at-a-time, converting what the root hands
    /// over to rows (the plan's one [`Batch::into_rows`]) and returning them
    /// together with the metrics that produced them.
    pub fn run(self) -> Result<Rows> {
        let Pipeline { op, metrics, store } = self;
        let before = store.as_ref().map(|s| s.cache_stats());
        let rows = collect(op)?;
        charge_cache(&metrics, &store, before);
        Ok(Rows { rows, metrics })
    }

    /// Splits into the raw operator and metrics handle for streaming use.
    /// Cache accounting is dropped with the pipeline: streaming consumers
    /// read the pool's counters from the store directly.
    pub fn into_parts(self) -> (BoxOp, MetricsRef) {
        (self.op, self.metrics)
    }

    /// Bounds on the rows the pipeline will produce, delegated to the root
    /// operator's [`Operator::size_hint`]. Exact for Limit-topped plans.
    pub fn size_hint(&self) -> (usize, Option<usize>) {
        self.op.size_hint()
    }
}

/// Adds the store's pool-counter delta since `before` to `metrics` (the
/// [`Pipeline`] drain epilogue).
fn charge_cache(
    metrics: &MetricsRef,
    store: &Option<StoreRef>,
    before: Option<pyro_storage::CacheStats>,
) {
    if let (Some(store), Some(before)) = (store, before) {
        let delta = store.cache_stats().since(&before);
        metrics.add_cache_hits(delta.hits);
        metrics.add_cache_misses(delta.misses);
    }
}

/// Materialized pipeline output: the rows plus the counters accumulated
/// while producing them.
#[derive(Debug)]
pub struct Rows {
    /// The produced tuples, in stream order.
    pub rows: Vec<Tuple>,
    /// Counters accumulated during execution.
    pub metrics: MetricsRef,
}

impl Rows {
    /// Number of produced rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl IntoIterator for Rows {
    type Item = Tuple;
    /// `vec::IntoIter` is an `ExactSizeIterator`, so consumers of a drained
    /// pipeline can pre-allocate from `len()`.
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

/// An operator yielding a fixed in-memory tuple list — the standard test
/// source and the bridge for pre-materialized inputs.
pub struct ValuesOp {
    schema: Schema,
    rows: std::vec::IntoIter<Tuple>,
    batch: usize,
}

impl ValuesOp {
    /// Builds from a schema and rows.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ValuesOp {
            schema,
            rows: rows.into_iter(),
            batch: DEFAULT_BATCH_SIZE,
        }
    }
}

impl Operator for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        Ok(rows_batch(self.rows.by_ref().take(self.batch).collect()))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rows.len();
        (n, Some(n))
    }
}

/// Test operator: passes `child` through row by row until it has handed on
/// `after` rows, then fails — with a typed error, or by panicking.
#[cfg(test)]
pub(crate) struct FaultyOp {
    pub(crate) child: BoxOp,
    pub(crate) after: usize,
    pub(crate) panic: bool,
    pub(crate) stash: Stash,
}

#[cfg(test)]
impl Operator for FaultyOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.after == 0 {
            if self.panic {
                panic!("boom");
            }
            return Err(pyro_common::PyroError::Exec("boom".into()));
        }
        self.after -= 1;
        Ok(self
            .stash
            .next_row(&mut self.child)?
            .map(|t| Batch::Rows(vec![t])))
    }
}

/// Test source: the batches of each part in turn.
#[cfg(test)]
struct Parts(Vec<BoxOp>);

#[cfg(test)]
impl Operator for Parts {
    fn schema(&self) -> &Schema {
        self.0[0].schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(part) = self.0.first_mut() {
            match part.next_batch()? {
                Some(batch) => return Ok(Some(batch)),
                None if self.0.len() > 1 => drop(self.0.remove(0)),
                None => return Ok(None),
            }
        }
        Ok(None)
    }
}

/// Test operator: `child`'s batches, each converted to `Rows` — a source
/// that feeds the operators above row batches.
#[cfg(test)]
pub(crate) struct AsRows(pub(crate) BoxOp);

#[cfg(test)]
impl Operator for AsRows {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        Ok(self.0.next_batch()?.map(|b| Batch::Rows(b.into_rows())))
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.0.set_batch_size(rows);
    }
}

/// `x`'s debug text, which names every cell's variant and spells a double
/// exactly (`-0.0` apart from `0.0`). `Value`'s `==` is the engine's
/// equality and takes `Int(2)` for `Double(2.0)`, so a test that claims
/// two paths return identical rows, or a result of a given type, asserts
/// `exact(&a) == exact(&b)`.
#[cfg(test)]
pub(crate) fn exact<T: std::fmt::Debug + ?Sized>(x: &T) -> String {
    format!("{x:?}")
}

/// [`collect`], asserting that every batch `op` emits is `Cols` — the layout
/// rule of the operators that run only a column kernel.
#[cfg(test)]
pub(crate) fn collect_cols(mut op: BoxOp) -> Vec<Tuple> {
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch().unwrap() {
        let Batch::Cols(cols) = batch else {
            panic!("a Rows batch");
        };
        cols.append_rows(&mut out);
    }
    out
}

/// Test sources: `rows` (not empty) as a stream of `Rows` batches, of
/// `Cols` batches, and of batches alternating between the two — one file
/// scanned whole in either layout, and page by page in alternating layouts.
#[cfg(test)]
pub(crate) fn in_every_layout(schema: &Schema, rows: &[Tuple]) -> [BoxOp; 3] {
    use crate::scan::FileScan;
    let device = pyro_storage::SimDevice::with_block_size(128);
    let file = pyro_storage::write_file(device, rows).expect("in-memory file");
    let page = |p: usize| -> BoxOp {
        let scan = Box::new(FileScan::over_pages(schema.clone(), &file, p, p + 1));
        if p.is_multiple_of(2) {
            Box::new(AsRows(scan))
        } else {
            scan
        }
    };
    let pages = (0..file.block_count() as usize).map(page).collect();
    [
        Box::new(AsRows(Box::new(FileScan::new(schema.clone(), &file)))),
        Box::new(FileScan::new(schema.clone(), &file)),
        Box::new(Parts(pages)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use pyro_common::Value;

    #[test]
    fn values_roundtrip() {
        let schema = Schema::ints(&["a"]);
        let rows: Vec<Tuple> = (0..3).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let op = ValuesOp::new(schema.clone(), rows.clone());
        assert_eq!(op.size_hint(), (3, Some(3)));
        assert_eq!(op.schema(), &schema);
        assert_eq!(collect(Box::new(op)).unwrap(), rows);
    }

    #[test]
    fn num_rows_counts_selected_rows_in_every_layout() {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let mut cols = ColumnarBatch::from_rows(&rows);
        cols.set_sel(vec![1, 5, 8]);
        assert_eq!(cols.num_rows(), 40, "the physical rows stay");
        assert_eq!(Batch::Cols(cols).num_rows(), 3);
        // Under a filter — where `Cols` batches carry selection vectors —
        // every batch of every source layout reports what it converts to.
        let schema = Schema::ints(&["a", "b"]);
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(3i64));
        for input in in_every_layout(&schema, &rows) {
            let mut filter = crate::filter::Filter::new(input, pred.clone());
            let (mut counted, mut seen) = (0, 0);
            while let Some(batch) = filter.next_batch().unwrap() {
                let n = batch.num_rows();
                assert_eq!(n, batch.into_rows().len());
                counted += n;
                seen += 1;
            }
            assert!(seen > 0);
            assert_eq!(
                counted,
                rows.iter().filter(|t| t.get(1) < &Value::Int(3)).count()
            );
        }
    }

    #[test]
    fn pipeline_and_rows_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BoxOp>();
        assert_send::<Pipeline>();
        assert_send::<Rows>();
        assert_send::<crate::metrics::MetricsRef>();
    }

    #[test]
    fn rows_into_iter_is_exact_size() {
        let rows = Rows {
            rows: (0..5).map(|i| Tuple::new(vec![Value::Int(i)])).collect(),
            metrics: crate::metrics::ExecMetrics::new(),
        };
        assert_eq!(rows.len(), 5);
        assert!(!rows.is_empty());
        let it = rows.into_iter();
        assert_eq!(it.len(), 5, "ExactSizeIterator over drained rows");
        assert_eq!(it.size_hint(), (5, Some(5)));
    }
}
