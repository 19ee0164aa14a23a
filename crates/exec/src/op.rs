//! The Volcano operator interface: one pull, `next_batch()`, which hands
//! over a [`ColumnarBatch`] — column vectors plus an optional selection
//! vector. Every operator reads its input as columns and emits columns,
//! and so does an exchange: its workers ship the column batches their
//! fragment produced. Rows are boxed in one place, on the consumer's
//! thread: [`collect`] (and so [`Pipeline::run`]) appends each batch's
//! selected rows to one vector ([`ColumnarBatch::append_rows`]). A
//! session's result stream and the wire server hand batches on as columns.
//!
//! **Batch contract.** The reference is batch size 1: one row per pull.
//! One `next_batch()` call on an operator configured for batch size `B`
//! performs exactly the same per-row work — and charges exactly the same
//! [`crate::ExecMetrics`] — as up to `B` consecutive pulls at batch size 1
//! would; it returns `Ok(None)` only at end of stream, and a short (even
//! empty) batch does *not* signal the end. This equivalence is what keeps
//! counter totals bit-identical across batch sizes (the paper's Experiment
//! A figures depend on it) while letting operators skip per-row virtual
//! dispatch, reuse buffers, and charge metrics once per batch.
//!
//! An operator that works ahead to fill its batch (a partial sort closing
//! several segments, a merge join pairing several groups) relies on its
//! output being consumed. When a `Limit` above may cut the stream short it
//! says so through [`Operator::set_demand_driven`], and such operators then
//! do one unit of work per pull. Base-table device reads are the one
//! deliberate exception: a consumer pulls a whole child batch, so under
//! early termination (Top-K) a pull may read up to one batch of input
//! beyond demand — bounded read-ahead, like any paged scan. Under a
//! [`crate::Gather`] the bound is the gather's claim window instead: its
//! workers may have claimed and read up to `window` morsels past the one
//! the consumer is pulling from when a `Limit` stops. `ExecMetrics`
//! (comparisons, run I/O) still match exactly.
//!
//! A batch's rows are its *selected* rows ([`ColumnarBatch::len`]), in
//! ascending physical order; every operator honours the selection vector
//! it is handed. Column `i` of every batch an operator emits has storage of
//! type `schema().column(i).ty`, in every batch, NULLs included: a
//! consumer builds its own columns from its input's schema. An operator
//! whose pull failed returns that error again on every later pull.

use crate::metrics::MetricsRef;
use pyro_common::{ColumnBuilder, ColumnarBatch, PyroError, Result, Schema, Tuple};
use pyro_storage::StoreRef;

/// Default number of rows per batch (the `SessionBuilder::batch_size`
/// default).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A pull-based operator. `next_batch` returns `Ok(None)` at end of
/// stream; operators are single-use.
///
/// Only [`Operator::schema`] and [`Operator::next_batch`] are required, so
/// a minimal operator is a few lines and still sits under any parent:
///
/// ```
/// use pyro_common::{ColumnBuilder, ColumnarBatch, DataType, Result, Schema};
/// use pyro_exec::{collect, BoxOp, Operator};
///
/// /// Yields the integers `0..n` as one INT column, two rows at a time.
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
///     fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
///         let end = (self.next + 2).min(self.n);
///         if self.next == end {
///             return Ok(None);
///         }
///         let mut col = ColumnBuilder::new(DataType::Int);
///         for i in self.next..end {
///             col.push_int(i);
///         }
///         self.next = end;
///         Ok(Some(ColumnarBatch::from_builders(vec![col])))
///     }
/// }
///
/// let counter = |n| -> BoxOp { Box::new(Counter { schema: Schema::ints(&["i"]), next: 0, n }) };
/// // A pull hands over columns ...
/// let batch = counter(3).next_batch().unwrap().expect("two rows");
/// assert_eq!(batch.len(), 2);
/// // ... and `collect` drains an operator whole, boxing its rows.
/// let rows = collect(counter(3)).unwrap();
/// let seen: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
/// assert_eq!(seen, [0, 1, 2]);
/// ```
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Pulls roughly the configured batch size
    /// ([`Operator::set_batch_size`]) of output rows. `Ok(None)` means end
    /// of stream; a short batch does not, and an operator whose natural
    /// production unit doesn't divide evenly (a join key with many matches,
    /// the tail of a decoded page) may overshoot the batch size by one such
    /// unit — consumers must not treat the batch size as a hard upper bound
    /// on batch length.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>>;

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

/// Drains an operator into a vector of rows — the one place a result is
/// boxed — pre-allocating from the operator's [`Operator::size_hint`]:
/// each batch is boxed straight into that vector
/// ([`ColumnarBatch::append_rows`]), never into a vector of its own.
pub fn collect(mut op: BoxOp) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(drain_capacity(&op));
    while let Some(batch) = op.next_batch()? {
        batch.append_rows(&mut out);
    }
    Ok(out)
}

/// Drains `input` into one dense batch, column at a time — how a join
/// buffers the side it holds in memory.
pub(crate) fn drain_columns(input: &mut BoxOp) -> Result<ColumnarBatch> {
    let mut builders = ColumnBuilder::for_schema(input.schema());
    while let Some(batch) = input.next_batch()? {
        for (c, builder) in builders.iter_mut().enumerate() {
            builder.append_column(batch.column(c), batch.sel());
        }
    }
    Ok(ColumnarBatch::from_builders(builders))
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

    /// Drains the pipeline to rows ([`collect`]) and returns them together
    /// with the metrics that produced them.
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
/// source and the bridge for pre-materialized inputs. A row that does not
/// fit the schema (wrong arity, a value of another type than its column's)
/// fails the pull that reaches it with [`ColumnarBatch::from_rows`]'s
/// error.
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

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let n = self.batch.min(self.rows.len());
        if n == 0 {
            return Ok(None);
        }
        let batch = ColumnarBatch::from_rows(&self.schema, &self.rows.as_slice()[..n])?;
        self.rows.by_ref().take(n).for_each(drop);
        Ok(Some(batch))
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rows.len();
        (n, Some(n))
    }
}

/// Test operator: passes `child`'s rows on one per pull, as one-row
/// column batches, until it has handed on `after` rows, then fails — with
/// a typed error, or by panicking.
#[cfg(test)]
pub(crate) struct FaultyOp {
    child: BoxOp,
    after: usize,
    panic: bool,
    rows: std::vec::IntoIter<Tuple>,
}

#[cfg(test)]
impl FaultyOp {
    pub(crate) fn new(child: BoxOp, after: usize, panic: bool) -> FaultyOp {
        let rows = Vec::new().into_iter();
        FaultyOp {
            child,
            after,
            panic,
            rows,
        }
    }
}

#[cfg(test)]
impl Operator for FaultyOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.after == 0 {
            if self.panic {
                panic!("boom");
            }
            return Err(pyro_common::PyroError::Exec("boom".into()));
        }
        self.after -= 1;
        while self.rows.len() == 0 {
            let Some(batch) = self.child.next_batch()? else {
                break;
            };
            self.rows = batch.to_rows().into_iter();
        }
        let schema = self.child.schema();
        self.rows
            .next()
            .map(|t| ColumnarBatch::from_rows(schema, &[t]))
            .transpose()
    }
}

/// Test source: the batches of each part in turn.
#[cfg(test)]
pub(crate) struct Parts(pub(crate) Vec<BoxOp>);

#[cfg(test)]
impl Operator for Parts {
    fn schema(&self) -> &Schema {
        self.0[0].schema()
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
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

/// Test operator: `child`'s batches with a decoy row in front of every
/// row, hidden behind a selection vector — a source whose every batch an
/// operator above must read through its `sel`.
#[cfg(test)]
struct Decoys(BoxOp);

#[cfg(test)]
impl Operator for Decoys {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        use pyro_common::Value;
        let Some(batch) = self.0.next_batch()? else {
            return Ok(None);
        };
        let decoy = |v: &Value| match v {
            Value::Int(i) => Value::Int(i.wrapping_add(1_000_003)),
            Value::Double(d) => Value::Double(d + 0.5),
            Value::Str(s) => Value::Str(format!("{s}~")),
            Value::Null => Value::Null,
        };
        let mut rows = Vec::new();
        for t in batch.to_rows() {
            rows.push(Tuple::new(t.values().iter().map(decoy).collect()));
            rows.push(t);
        }
        let mut out = ColumnarBatch::from_rows(self.0.schema(), &rows)?;
        out.set_sel((1..rows.len() as u32).step_by(2).collect());
        Ok(Some(out))
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

/// Test sources: `rows` (not empty) as a stream of dense batches, of
/// batches whose rows sit between decoys behind a selection vector, and of
/// batches alternating between the two — one file scanned whole either
/// way, and page by page in alternating layouts.
#[cfg(test)]
pub(crate) fn in_every_layout(schema: &Schema, rows: &[Tuple]) -> [BoxOp; 3] {
    use crate::scan::FileScan;
    let device = pyro_storage::SimDevice::with_block_size(128);
    let file = pyro_storage::write_file(device, rows).expect("in-memory file");
    let page = |p: usize| -> BoxOp {
        let scan = Box::new(FileScan::over_pages(schema.clone(), &file, p, p + 1));
        if p.is_multiple_of(2) {
            scan
        } else {
            Box::new(Decoys(scan))
        }
    };
    let pages = (0..file.block_count() as usize).map(page).collect();
    [
        Box::new(FileScan::new(schema.clone(), &file)),
        Box::new(Decoys(Box::new(FileScan::new(schema.clone(), &file)))),
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
    fn values_refuses_a_row_that_does_not_fit_its_schema() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Double(2.0)]),
        ];
        let mut op = ValuesOp::new(Schema::ints(&["a"]), rows);
        match op.next_batch() {
            Err(PyroError::Exec(msg)) => {
                assert_eq!(msg, "row 1, column a: Double(2.0) is not of type INT")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn num_rows_counts_selected_rows_in_every_layout() {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let schema = Schema::ints(&["a", "b"]);
        let mut cols = ColumnarBatch::from_rows(&schema, &rows).unwrap();
        cols.set_sel(vec![1, 5, 8]);
        assert_eq!(cols.num_rows(), 40, "the physical rows stay");
        assert_eq!(cols.len(), 3);
        // Under a filter — whose batches carry selection vectors — every
        // batch of every source layout counts the rows it converts to.
        let pred = Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(3i64));
        for input in in_every_layout(&schema, &rows) {
            let mut filter = crate::filter::Filter::new(input, pred.clone());
            let (mut counted, mut seen) = (0, 0);
            while let Some(batch) = filter.next_batch().unwrap() {
                let n = batch.len();
                assert_eq!(n, batch.to_rows().len());
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
