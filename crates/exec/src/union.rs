//! Set operations: concatenating union-all and order-preserving merge union.
//!
//! [`MergeUnion`] is the operator behind the paper's observation (Experiment
//! B2) that a union of outer joins is only cheap when *both* inputs arrive
//! in the **same** sort order — another multi-input operator with a
//! factorial choice of interesting orders.

use crate::metrics::MetricsRef;
use crate::op::{rows_batch, Batch, BoxOp, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple};
use std::cmp::Ordering;

/// Plain UNION ALL: concatenates inputs (no order guarantee).
pub struct UnionAll {
    inputs: Vec<BoxOp>,
    current: usize,
    schema: Schema,
}

impl UnionAll {
    /// Builds from compatible inputs (same column count).
    pub fn new(inputs: Vec<BoxOp>) -> Self {
        assert!(!inputs.is_empty());
        let schema = inputs[0].schema().clone();
        debug_assert!(inputs.iter().all(|i| i.schema().len() == schema.len()));
        UnionAll {
            inputs,
            current: 0,
            schema,
        }
    }
}

impl Operator for UnionAll {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while self.current < self.inputs.len() {
            if let Some(t) = self.inputs[self.current].next()? {
                return Ok(Some(t));
            }
            self.current += 1;
        }
        Ok(None)
    }

    /// Input batches pass through in whatever layout they arrive.
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while self.current < self.inputs.len() {
            if let Some(batch) = self.inputs[self.current].next_batch()? {
                return Ok(Some(batch));
            }
            self.current += 1;
        }
        Ok(None)
    }

    fn batch_size(&self) -> usize {
        self.inputs
            .first()
            .map_or(DEFAULT_BATCH_SIZE, |i| i.batch_size())
    }

    fn set_batch_size(&mut self, rows: usize) {
        for input in &mut self.inputs {
            input.set_batch_size(rows);
        }
    }

    fn set_demand_driven(&mut self) {
        for input in &mut self.inputs {
            input.set_demand_driven();
        }
    }
}

/// Merge union over inputs sorted on the same key: preserves the order and
/// optionally eliminates duplicates (`UNION` vs `UNION ALL` semantics; for
/// dedup, rows must be *entirely* equal, and the key must cover all
/// columns for complete SQL semantics).
pub struct MergeUnion {
    inputs: Vec<BoxOp>,
    stashes: Vec<Stash>,
    heads: Vec<Option<Tuple>>,
    key: KeySpec,
    distinct: bool,
    schema: Schema,
    metrics: MetricsRef,
    last_emitted: Option<Tuple>,
    started: bool,
    batch: usize,
}

impl MergeUnion {
    /// Builds a merge union; every input must be sorted on `key`.
    pub fn new(inputs: Vec<BoxOp>, key: KeySpec, distinct: bool, metrics: MetricsRef) -> Self {
        assert!(!inputs.is_empty());
        let schema = inputs[0].schema().clone();
        let heads = inputs.iter().map(|_| None).collect();
        let stashes = inputs.iter().map(|_| Stash::new()).collect();
        MergeUnion {
            inputs,
            stashes,
            heads,
            key,
            distinct,
            schema,
            metrics,
            last_emitted: None,
            started: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn refill(&mut self, i: usize, batched: bool) -> Result<()> {
        self.heads[i] = if batched {
            self.stashes[i].next_row(&mut self.inputs[i])?
        } else {
            self.inputs[i].next()?
        };
        Ok(())
    }

    /// Produces the next merged row; key comparisons go into `acc` so the
    /// caller can charge metrics once per pull (or per batch).
    fn advance_one(&mut self, batched: bool, acc: &mut u64) -> Result<Option<Tuple>> {
        if !self.started {
            self.started = true;
            for i in 0..self.inputs.len() {
                self.refill(i, batched)?;
            }
        }
        loop {
            let mut best: Option<usize> = None;
            for i in 0..self.heads.len() {
                if self.heads[i].is_none() {
                    continue;
                }
                best = Some(match best {
                    None => i,
                    Some(b) => {
                        let (ta, tb) = (
                            self.heads[i].as_ref().expect("head"),
                            self.heads[b].as_ref().expect("head"),
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
            let t = self.heads[i].take().expect("winner head");
            self.refill(i, batched)?;
            if self.distinct {
                if let Some(last) = &self.last_emitted {
                    if last == &t {
                        continue; // duplicate of the previous emission
                    }
                }
                self.last_emitted = Some(t.clone());
            }
            return Ok(Some(t));
        }
    }
}

impl Operator for MergeUnion {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let mut acc = 0;
        let out = self.advance_one(false, &mut acc);
        self.metrics.add_comparisons(acc);
        out
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let mut acc = 0;
        let mut out = Vec::new();
        while out.len() < self.batch {
            match self.advance_one(true, &mut acc) {
                Ok(Some(t)) => out.push(t),
                Ok(None) => break,
                Err(e) => {
                    self.metrics.add_comparisons(acc);
                    return Err(e);
                }
            }
        }
        self.metrics.add_comparisons(acc);
        Ok(rows_batch(out))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn set_demand_driven(&mut self) {
        for input in &mut self.inputs {
            input.set_demand_driven();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::op::{collect, ValuesOp};
    use pyro_common::Value;

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect()
    }

    fn src(vals: &[i64]) -> BoxOp {
        Box::new(ValuesOp::new(Schema::ints(&["a"]), rows(vals)))
    }

    #[test]
    fn union_all_concatenates() {
        let op = UnionAll::new(vec![src(&[1, 2]), src(&[3]), src(&[])]);
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn merge_union_preserves_order() {
        let m = ExecMetrics::new();
        let op = MergeUnion::new(
            vec![src(&[1, 3, 5]), src(&[2, 3, 6])],
            KeySpec::new(vec![0]),
            false,
            m,
        );
        let out: Vec<i64> = collect(Box::new(op))
            .unwrap()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(out, vec![1, 2, 3, 3, 5, 6]);
    }

    #[test]
    fn merge_union_distinct_dedups() {
        let m = ExecMetrics::new();
        let op = MergeUnion::new(
            vec![src(&[1, 3, 3]), src(&[3, 5])],
            KeySpec::new(vec![0]),
            true,
            m,
        );
        let out: Vec<i64> = collect(Box::new(op))
            .unwrap()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn merge_union_three_inputs() {
        let m = ExecMetrics::new();
        let op = MergeUnion::new(
            vec![src(&[9]), src(&[1]), src(&[5])],
            KeySpec::new(vec![0]),
            false,
            m,
        );
        let out: Vec<i64> = collect(Box::new(op))
            .unwrap()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(out, vec![1, 5, 9]);
    }
}
