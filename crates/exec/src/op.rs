//! The Volcano operator interface, in three granularities: classic
//! tuple-at-a-time `next()`, row batches via `next_batch()`, and columnar
//! batches via `next_columnar()`.
//!
//! **Batch contract.** One `next_batch()` (or `next_columnar()`) call on an
//! operator configured for batch size `B` performs exactly the same per-row
//! work — and charges exactly the same [`crate::ExecMetrics`] — as up to `B`
//! consecutive `next()` calls would; it returns `Ok(None)` only at end of
//! stream, and a short (even partial) batch does *not* signal the end. This
//! equivalence is what keeps counter totals bit-identical between the
//! paths (the paper's Experiment A figures depend on it) while letting
//! batch-native operators skip per-row virtual dispatch, reuse buffers, and
//! charge metrics once per batch. Tuple-at-a-time `next()` is the oracle:
//! the parity suites hold every other path to its rows and its counters.
//!
//! An operator that works ahead to fill its batch (a partial sort closing
//! several segments, a merge join pairing several groups) relies on its
//! output being consumed. When a `Limit` above may cut the stream short it
//! says so through [`Operator::set_demand_driven`], and such operators then
//! do one unit of work per pull. Base-table device reads are the one
//! deliberate exception: a consumer pulls a whole child batch, so under
//! early termination (Top-K) the batch paths may read up to one batch of
//! input beyond demand — bounded read-ahead, like any paged scan;
//! `ExecMetrics` (comparisons, run I/O) still match exactly. The pull
//! styles must not be interleaved on the same operator: batch-native
//! operators buffer input that the row path does not see.

use crate::metrics::MetricsRef;
use pyro_common::{ColumnarBatch, Result, Schema, Tuple};
use pyro_storage::StoreRef;

/// Default number of rows per batch (the `SessionBuilder::batch_size`
/// default).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A pull-based iterator operator. `next` returns `Ok(None)` at end of
/// stream; operators are single-use.
///
/// Only [`Operator::schema`] and [`Operator::next`] are required — the
/// batch pull defaults to the row shim, so a minimal operator is a few
/// lines:
///
/// ```
/// use pyro_common::{Result, Schema, Tuple, Value};
/// use pyro_exec::{collect_batched, Operator};
///
/// /// Yields the integers `0..n` as single-column tuples.
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
///     fn next(&mut self) -> Result<Option<Tuple>> {
///         if self.next >= self.n {
///             return Ok(None);
///         }
///         self.next += 1;
///         Ok(Some(Tuple::new(vec![Value::Int(self.next - 1)])))
///     }
/// }
///
/// let op = Counter { schema: Schema::ints(&["i"]), next: 0, n: 3 };
/// let rows = collect_batched(Box::new(op)).unwrap();
/// assert_eq!(rows.len(), 3);
/// ```
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Pulls the next output tuple.
    fn next(&mut self) -> Result<Option<Tuple>>;

    /// Pulls roughly [`Operator::batch_size`] output tuples. `Ok(None)`
    /// means end of stream; a short batch does not, and an operator whose
    /// natural production unit doesn't divide evenly (a join key with many
    /// matches) may overshoot the batch size by one such unit — consumers
    /// must not treat `batch_size` as a hard upper bound on batch length.
    ///
    /// The default implementation is the row shim — it loops [`Operator::
    /// next`] — so third-party operators keep working unchanged; every
    /// in-tree operator overrides it, with a native row-batch
    /// implementation or with [`Operator::next_columnar`] +
    /// [`ColumnarBatch::to_rows`].
    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        let cap = self.batch_size().max(1);
        let mut out = Vec::new();
        while out.len() < cap {
            match self.next()? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(if out.is_empty() { None } else { Some(out) })
    }

    /// Pulls roughly one batch of output in columnar (SoA) layout. Same
    /// contract as [`Operator::next_batch`]: `Ok(None)` only at end of
    /// stream, short batches carry no meaning, overshoot by one natural
    /// production unit is allowed, and the pull styles must not be
    /// interleaved on one operator.
    ///
    /// The default shims the row batch through
    /// [`ColumnarBatch::from_rows`], so any operator can sit under a
    /// columnar parent. Scan, filter, project and the inner hash join
    /// override it with kernels that never box a row and charge no
    /// `ExecMetrics`. So do the operators that *do* charge them — both sort
    /// enforcers, the merge join and the sort-based aggregate: they pull
    /// their inputs with `next_columnar`, sort 16-byte `(normalized key
    /// prefix, row id)` entries, find segment and group boundaries by
    /// comparing rows in place, and emit by gather, charging per comparison
    /// exactly what `next()` charges for the same two rows (see
    /// [`crate::sort`]). For those four, `next_batch` *is* `next_columnar`
    /// followed by [`ColumnarBatch::to_rows`].
    fn next_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        Ok(self.next_batch()?.map(|b| ColumnarBatch::from_rows(&b)))
    }

    /// Tells the operator that its consumer may stop pulling before the end
    /// of the stream (a [`crate::limit::Limit`] calls this on its input).
    /// An operator that otherwise works ahead to fill its batch — closing
    /// several sort segments, pairing several join groups — must from then
    /// on do only the work its next output row needs before returning, so
    /// that a stream cut short has charged exactly what tuple-at-a-time
    /// pulls of the same rows would have. Streaming operators pass the call
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

/// Drains an operator into a vector (tests and leaf consumers),
/// pre-allocating from the operator's [`Operator::size_hint`].
pub fn collect(mut op: BoxOp) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(drain_capacity(&op));
    while let Some(t) = op.next()? {
        out.push(t);
    }
    Ok(out)
}

/// Drains an operator batch-at-a-time into a vector, pre-allocating from
/// the operator's [`Operator::size_hint`].
pub fn collect_batched(mut op: BoxOp) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(drain_capacity(&op));
    while let Some(mut batch) = op.next_batch()? {
        out.append(&mut batch);
    }
    Ok(out)
}

/// Batched-input adapter: buffers one child batch and hands rows out one at
/// a time, so an operator whose logic is inherently row-wise (hash build,
/// nested loops, duplicate elimination) can consume its input in batches
/// without changing a single per-row decision.
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
                Some(batch) => self.buf = batch.into_iter(),
                None => return Ok(None),
            }
        }
    }
}

/// Pulls one input row in either granularity: directly via `next()` on the
/// row path, or through the operator's [`Stash`] on the batch path.
pub(crate) fn pull_row(
    child: &mut BoxOp,
    stash: &mut Stash,
    batched: bool,
) -> Result<Option<Tuple>> {
    if batched {
        stash.next_row(child)
    } else {
        child.next()
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

    /// Attributes `store`'s buffer-pool activity during [`Pipeline::run`] /
    /// [`Pipeline::run_tuple_at_a_time`] to this pipeline's metrics as
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

    /// Drains the pipeline batch-at-a-time, returning the rows together
    /// with the metrics that produced them.
    pub fn run(self) -> Result<Rows> {
        let Pipeline { op, metrics, store } = self;
        let before = store.as_ref().map(|s| s.cache_stats());
        let rows = collect_batched(op)?;
        charge_cache(&metrics, &store, before);
        Ok(Rows { rows, metrics })
    }

    /// Drains the pipeline tuple-at-a-time through `Operator::next` — the
    /// pre-batching Volcano path, kept for A/B measurement (the
    /// `bench_batch` harness) and as the semantic reference the batch path
    /// must match counter-for-counter.
    pub fn run_tuple_at_a_time(self) -> Result<Rows> {
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

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(self.rows.next())
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        let out: Vec<Tuple> = self.rows.by_ref().take(self.batch).collect();
        Ok(if out.is_empty() { None } else { Some(out) })
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
}

#[cfg(test)]
impl Operator for FaultyOp {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.after == 0 {
            if self.panic {
                panic!("boom");
            }
            return Err(pyro_common::PyroError::Exec("boom".into()));
        }
        self.after -= 1;
        self.child.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
