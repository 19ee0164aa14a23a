//! Duplicate elimination — one of the paper's §1 motivating operators: a
//! sort-based DISTINCT accepts *any* permutation of the output columns as
//! its input order, giving it the same factorial interesting-order space as
//! merge joins.

use crate::metrics::MetricsRef;
use crate::op::{rows_batch, Batch, BoxOp, Latch, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Streaming DISTINCT over an input sorted on (a permutation of) all its
/// columns: emits the first row of each equal run.
pub struct SortDistinct {
    child: BoxOp,
    key: KeySpec,
    metrics: MetricsRef,
    last: Option<Tuple>,
    stash: Stash,
    failed: Latch,
    /// Set by a `Limit` above: one fresh row per pull.
    demand_driven: bool,
    batch: usize,
}

impl SortDistinct {
    /// `key` must cover every column (in the input's sort order) for full
    /// DISTINCT semantics.
    pub fn new(child: BoxOp, key: KeySpec, metrics: MetricsRef) -> Self {
        SortDistinct {
            child,
            key,
            metrics,
            last: None,
            stash: Stash::new(),
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// The next fresh (non-duplicate) row; comparisons accumulate in `acc`.
    fn next_fresh(&mut self, acc: &mut u64) -> Result<Option<Tuple>> {
        while let Some(t) = self.stash.next_row(&mut self.child)? {
            let fresh = match &self.last {
                None => true,
                Some(prev) => {
                    let (ord, n) = self.key.compare_counting(prev, &t);
                    *acc += n;
                    ord != Ordering::Equal
                }
            };
            if fresh {
                self.last = Some(t.clone());
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

impl Operator for SortDistinct {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.failed.check()?;
        let mut acc = 0;
        let mut out = Vec::new();
        let mut pulled = Ok(());
        let want = if self.demand_driven { 1 } else { self.batch };
        while out.len() < want {
            match self.next_fresh(&mut acc) {
                Ok(Some(t)) => out.push(t),
                Ok(None) => break,
                Err(e) => {
                    pulled = Err(e);
                    break;
                }
            }
        }
        self.metrics.add_comparisons(acc);
        self.failed.record(pulled)?;
        Ok(rows_batch(out))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.child.set_demand_driven();
    }
}

/// Hash-based DISTINCT: no input-order requirement, materializes a set.
pub struct HashDistinct {
    child: BoxOp,
    seen: HashSet<Vec<Value>>,
    failed: Latch,
}

impl HashDistinct {
    /// Builds a hash distinct over all columns.
    pub fn new(child: BoxOp) -> Self {
        HashDistinct {
            child,
            seen: HashSet::new(),
            failed: Latch::default(),
        }
    }
}

impl HashDistinct {
    /// The next input batch's rows not seen before, skipping batches that
    /// hold none.
    fn distinct_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(batch) = self.child.next_batch()? {
            let mut batch = batch.into_rows();
            batch.retain(|t| {
                if self.seen.contains(t.values()) {
                    false
                } else {
                    self.seen.insert(t.values().to_vec())
                }
            });
            if !batch.is_empty() {
                return Ok(Some(Batch::Rows(batch)));
            }
        }
        Ok(None)
    }
}

impl Operator for HashDistinct {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.failed.check()?;
        let pulled = self.distinct_batch();
        self.failed.record(pulled)
    }

    fn batch_size(&self) -> usize {
        self.child.batch_size()
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.child.set_batch_size(rows);
    }

    fn set_demand_driven(&mut self) {
        self.child.set_demand_driven();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::op::{collect, ValuesOp};

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    #[test]
    fn sort_distinct_dedups_sorted_input() {
        let data = rows(&[(1, 1), (1, 1), (1, 2), (2, 1), (2, 1), (2, 1)]);
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data);
        let op = SortDistinct::new(Box::new(src), KeySpec::new(vec![0, 1]), ExecMetrics::new());
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, rows(&[(1, 1), (1, 2), (2, 1)]));
    }

    #[test]
    fn sort_distinct_works_under_any_column_permutation() {
        // sorted by (b, a) — still valid for DISTINCT over {a, b}
        let data = rows(&[(2, 1), (2, 1), (1, 2), (3, 2)]);
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data);
        let op = SortDistinct::new(Box::new(src), KeySpec::new(vec![1, 0]), ExecMetrics::new());
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn hash_distinct_agrees_with_sort_distinct() {
        let mut data = rows(&[(3, 1), (1, 1), (3, 1), (2, 2), (1, 1)]);
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data.clone());
        let mut hash_out = collect(Box::new(HashDistinct::new(Box::new(src)))).unwrap();
        data.sort();
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data);
        let mut sort_out = collect(Box::new(SortDistinct::new(
            Box::new(src),
            KeySpec::new(vec![0, 1]),
            ExecMetrics::new(),
        )))
        .unwrap();
        hash_out.sort();
        sort_out.sort();
        assert_eq!(hash_out, sort_out);
    }

    #[test]
    fn empty_input() {
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), vec![]);
        let op = SortDistinct::new(Box::new(src), KeySpec::new(vec![0, 1]), ExecMetrics::new());
        assert!(collect(Box::new(op)).unwrap().is_empty());
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), vec![]);
        assert!(collect(Box::new(HashDistinct::new(Box::new(src))))
            .unwrap()
            .is_empty());
    }
}
