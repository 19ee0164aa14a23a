//! Sort-merge join with group buffering.
//!
//! Both inputs must arrive sorted on their join keys under the *same*
//! permutation — the requirement that makes interesting-order choice matter
//! (the paper's whole subject). The operator consumes one *group* (maximal
//! run of equal-key tuples) from each side at a time and emits the cross
//! product of matching groups; outer variants emit NULL-padded rows for
//! groups without a partner.
//!
//! Like the paper (and SQL), rows whose join key contains NULL match
//! nothing — they are emitted only by the outer variants.
//!
//! **Output order.** Inner and left-outer output is sorted on the left key
//! columns by construction. For FULL OUTER joins, unmatched *right* rows are
//! NULL on every left column; emitting them in stream position would
//! interleave NULL keys into the output and silently break the order the
//! optimizer propagates (the paper's Fig. 14 plans depend on that order for
//! the partial sort between the two joins). They are therefore *deferred*
//! and emitted at the end of the stream — exactly where rows with NULL left
//! keys belong under NULLS-LAST ordering, so the guarantee stays truthful.

use super::JoinKind;
use crate::metrics::MetricsRef;
use crate::op::{BoxOp, Latch, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnBuilder, ColumnarBatch, KeySpec, Result, Schema, NULL_ROW};
use std::cmp::Ordering;
use std::sync::Arc;

/// Merge join over key-sorted inputs.
///
/// Each group is a row range of its input batch; output is `(left row,
/// right row)` index pairs gathered column at a time, with [`NULL_ROW`] for
/// outer padding.
pub struct MergeJoin {
    left: BoxOp,
    right: BoxOp,
    left_key: KeySpec,
    right_key: KeySpec,
    kind: JoinKind,
    schema: Schema,
    metrics: MetricsRef,
    started: bool,
    columnar: Columnar,
    failed: Latch,
    /// Set by a `Limit` above: one productive group pairing per pull.
    demand_driven: bool,
    batch: usize,
}

/// One input: the current batch (dense), the current group as a row range
/// of it, and how far the scan for the group's end got.
/// The row at `end`, if any, is the head of the next group. Rows of a group
/// still open when the batch runs out are carried over in front of the next
/// batch, so a group is always one range of one batch.
#[derive(Default)]
struct Side {
    batch: Option<ColumnarBatch>,
    rows: usize,
    start: usize,
    end: usize,
    scan: usize,
    /// The input is exhausted.
    done: bool,
}

impl Side {
    fn group(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    fn batch(&self) -> &ColumnarBatch {
        self.batch.as_ref().expect("a group lives in a batch")
    }
}

/// The pairing state. FULL OUTER joins hold right-padded rows back until
/// the end of the stream, so the output stays sorted on the left key
/// columns (NULLS LAST).
#[derive(Default)]
struct Columnar {
    sides: [Side; 2],
    /// Output rows not yet gathered, as row ids into each side's current
    /// batch ([`NULL_ROW`] = padding). Gathered before either batch changes.
    pairs: [Vec<u32>; 2],
    /// Output rows already gathered, one builder per output column.
    out: Vec<ColumnBuilder>,
    out_rows: usize,
    /// FULL OUTER: rows of the current right batch to defer, not yet
    /// gathered (gathered together with `pairs`).
    defer: Vec<u32>,
    /// FULL OUTER: the right columns of the deferred right-padded rows.
    deferred: Vec<ColumnBuilder>,
    /// The merged stream ended; only the deferred tail is left.
    ended: bool,
    /// The deferred tail once built, and how much of it went out.
    tail: Option<(ColumnarBatch, usize)>,
}

impl MergeJoin {
    /// Builds a merge join; `left_key`/`right_key` are positional keys of
    /// equal length giving the shared sort order.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_key: KeySpec,
        right_key: KeySpec,
        kind: JoinKind,
        metrics: MetricsRef,
    ) -> Self {
        assert_eq!(left_key.len(), right_key.len(), "join keys must align");
        let schema = left.schema().join(right.schema());
        MergeJoin {
            left,
            right,
            left_key,
            right_key,
            kind,
            schema,
            metrics,
            started: false,
            columnar: Columnar::default(),
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn pads_left(&self) -> bool {
        matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter)
    }

    fn pads_right(&self) -> bool {
        matches!(self.kind, JoinKind::FullOuter)
    }

    /// Gathers the pending index pairs into the output
    /// builders. Must run before either side's batch is replaced.
    fn flush_pairs(&mut self) {
        let st = &mut self.columnar;
        if !st.defer.is_empty() {
            if st.deferred.is_empty() {
                st.deferred = (0..self.right.schema().len())
                    .map(|_| ColumnBuilder::new())
                    .collect();
            }
            let right = st.sides[1].batch();
            for (builder, col) in st.deferred.iter_mut().zip(right.columns()) {
                builder.append_gather(col, &st.defer);
            }
            st.defer.clear();
        }
        let n = st.pairs[0].len();
        if n == 0 {
            return;
        }
        if st.out.is_empty() {
            st.out = (0..self.schema.len())
                .map(|_| ColumnBuilder::new())
                .collect();
        }
        let left_arity = self.left.schema().len();
        for (c, builder) in st.out.iter_mut().enumerate() {
            let (w, col) = if c < left_arity {
                (0, c)
            } else {
                (1, c - left_arity)
            };
            match &st.sides[w].batch {
                Some(batch) => builder.append_gather(batch.column(col), &st.pairs[w]),
                // Nothing was ever read from this side: all padding.
                None => builder.push_nulls(n),
            }
        }
        st.out_rows += n;
        st.pairs[0].clear();
        st.pairs[1].clear();
    }

    /// Reads side `w`'s next maximal equal-key group as a row range: the
    /// head row opens the group, every following row is compared against
    /// it, the first that differs becomes the next head. Key comparisons
    /// accumulate in `acc`.
    fn refill(&mut self, w: usize, acc: &mut u64) -> Result<()> {
        let s = &mut self.columnar.sides[w];
        s.start = s.end;
        s.scan = s.start + 1;
        loop {
            let key = if w == 0 {
                &self.left_key
            } else {
                &self.right_key
            };
            let s = &mut self.columnar.sides[w];
            if s.start < s.rows {
                let batch = s.batch.as_ref().expect("rows of a batch");
                let (end, cost) = key.group_end(batch, s.start, s.scan, s.rows);
                *acc += cost;
                s.scan = end;
                if end < s.rows {
                    s.end = end;
                    return Ok(());
                }
            }
            if s.done {
                s.end = s.rows;
                return Ok(());
            }
            // The batch ran out with the group (if any) still open.
            self.flush_pairs();
            let input = if w == 0 {
                &mut self.left
            } else {
                &mut self.right
            };
            let s = &mut self.columnar.sides[w];
            match input.next_batch()? {
                None => s.done = true,
                Some(next) => {
                    let merged = match &s.batch {
                        Some(old) if s.start < s.rows => old.carry_into(s.start, &next),
                        _ => next.into_dense(),
                    };
                    s.scan -= s.start;
                    s.start = 0;
                    s.rows = merged.num_rows();
                    s.batch = Some(merged);
                }
            }
        }
    }

    fn group_key_has_null(&self, w: usize) -> bool {
        let (s, key) = match w {
            0 => (&self.columnar.sides[0], &self.left_key),
            _ => (&self.columnar.sides[1], &self.right_key),
        };
        key.cols()
            .iter()
            .any(|&c| s.batch().column(c).is_null(s.start))
    }

    fn cross_compare_groups(&self, acc: &mut u64) -> Ordering {
        let [l, r] = &self.columnar.sides;
        let mut ord = Ordering::Equal;
        for (&lc, &rc) in self.left_key.cols().iter().zip(self.right_key.cols()) {
            *acc += 1;
            ord = l
                .batch()
                .column(lc)
                .compare(l.start, r.batch().column(rc), r.start);
            if ord != Ordering::Equal {
                break;
            }
        }
        ord
    }

    /// The left group goes out NULL-padded (outer joins).
    fn pad_left_group(&mut self) {
        if self.pads_left() {
            let st = &mut self.columnar;
            let g = st.sides[0].group();
            st.pairs[1].extend(g.clone().map(|_| NULL_ROW));
            st.pairs[0].extend(g.map(|r| r as u32));
        }
    }

    /// The right group joins the deferred tail (full outer).
    fn defer_right_group(&mut self) {
        if self.pads_right() {
            let st = &mut self.columnar;
            st.defer.extend(st.sides[1].group().map(|r| r as u32));
        }
    }

    /// Pairs the current groups once: matching keys cross, a smaller or
    /// NULL key goes out unmatched. Rows whose join key contains NULL
    /// match nothing; NULLs sort last, so NULL-keyed groups surface after
    /// all joinable keys on their side. Returns `false` once both inputs
    /// are exhausted.
    fn step(&mut self, acc: &mut u64) -> Result<bool> {
        if !self.started {
            self.started = true;
            self.refill(0, acc)?;
            self.refill(1, acc)?;
        }
        let [l, r] = &self.columnar.sides;
        match (l.group().is_empty(), r.group().is_empty()) {
            (true, true) => return Ok(false),
            (false, true) => {
                self.pad_left_group();
                self.refill(0, acc)?;
                return Ok(true);
            }
            (true, false) => {
                self.defer_right_group();
                self.refill(1, acc)?;
                return Ok(true);
            }
            (false, false) => {}
        }
        let lnull = self.group_key_has_null(0);
        let rnull = self.group_key_has_null(1);
        match self.cross_compare_groups(acc) {
            Ordering::Less => {
                self.pad_left_group();
                self.refill(0, acc)?;
            }
            Ordering::Greater => {
                self.defer_right_group();
                self.refill(1, acc)?;
            }
            Ordering::Equal if lnull || rnull => {
                self.pad_left_group();
                self.defer_right_group();
                self.refill(0, acc)?;
                self.refill(1, acc)?;
            }
            Ordering::Equal => {
                let st = &mut self.columnar;
                let (gl, gr) = (st.sides[0].group(), st.sides[1].group());
                for l in gl {
                    st.pairs[0].extend(gr.clone().map(|_| l as u32));
                    st.pairs[1].extend(gr.clone().map(|r| r as u32));
                }
                self.refill(0, acc)?;
                self.refill(1, acc)?;
            }
        }
        Ok(true)
    }

    /// The next slice of the deferred full-outer tail — NULL
    /// left columns, the deferred right columns — built on first use.
    fn next_tail(&mut self) -> Option<ColumnarBatch> {
        let st = &mut self.columnar;
        if st.tail.is_none() {
            let right: Vec<_> = std::mem::take(&mut st.deferred)
                .into_iter()
                .map(|b| Arc::new(b.finish()))
                .collect();
            let rows = right.first().map_or(0, |c| c.len());
            let mut columns: Vec<_> = (0..self.left.schema().len())
                .map(|_| {
                    let mut b = ColumnBuilder::new();
                    b.push_nulls(rows);
                    Arc::new(b.finish())
                })
                .collect();
            columns.extend(right);
            st.tail = Some((ColumnarBatch::from_columns(columns, rows), 0));
        }
        let (tail, pos) = st.tail.as_mut().expect("just built");
        if *pos == tail.num_rows() {
            return None;
        }
        let end = (*pos + self.batch).min(tail.num_rows());
        let mut out = tail.clone();
        out.set_sel((*pos as u32..end as u32).collect());
        *pos = end;
        Some(out)
    }

    fn pull_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        if !self.columnar.ended {
            // Pair groups until a batchful is out — or, when the consumer
            // may stop early, only until something is.
            let want = if self.demand_driven { 1 } else { self.batch };
            let mut acc = 0;
            let mut stepped = Ok(true);
            while self.columnar.out_rows + self.columnar.pairs[0].len() < want {
                stepped = self.step(&mut acc);
                if !matches!(stepped, Ok(true)) {
                    break;
                }
            }
            self.metrics.add_comparisons(acc);
            self.columnar.ended = !stepped?;
            self.flush_pairs();
            let st = &mut self.columnar;
            if st.out_rows > 0 {
                st.out_rows = 0;
                return Ok(Some(ColumnarBatch::from_builders(std::mem::take(
                    &mut st.out,
                ))));
            }
        }
        Ok(self.next_tail())
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Emits whole group pairings, about a batchful per call (one pairing
    /// may overshoot it, as the batch contract allows) — or, under a
    /// `Limit`, one productive pairing per call, so the inputs are read
    /// exactly as far as one-row pulls would read them.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        let pulled = self.pull_columnar();
        self.failed.record(pulled)
    }

    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.left.set_demand_driven();
        self.right.set_demand_driven();
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

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    fn join(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Vec<Option<i64>>> {
        let m = ExecMetrics::new();
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(l));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(r));
        let op = MergeJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            kind,
            m,
        );
        collect(Box::new(op))
            .unwrap()
            .iter()
            .map(|t| t.values().iter().map(|v| v.as_int()).collect())
            .collect()
    }

    #[test]
    fn inner_join_basic() {
        let out = join(
            &[(1, 10), (2, 20), (4, 40)],
            &[(2, 200), (3, 300), (4, 400)],
            JoinKind::Inner,
        );
        assert_eq!(
            out,
            vec![
                vec![Some(2), Some(20), Some(2), Some(200)],
                vec![Some(4), Some(40), Some(4), Some(400)],
            ]
        );
    }

    #[test]
    fn duplicates_cross_product() {
        let out = join(&[(1, 1), (1, 2)], &[(1, 3), (1, 4)], JoinKind::Inner);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn left_outer_pads() {
        let out = join(&[(1, 10), (2, 20)], &[(2, 200)], JoinKind::LeftOuter);
        assert_eq!(
            out,
            vec![
                vec![Some(1), Some(10), None, None],
                vec![Some(2), Some(20), Some(2), Some(200)],
            ]
        );
    }

    #[test]
    fn full_outer_pads_both() {
        let out = join(&[(1, 10)], &[(2, 200)], JoinKind::FullOuter);
        assert_eq!(
            out,
            vec![
                vec![Some(1), Some(10), None, None],
                vec![None, None, Some(2), Some(200)],
            ]
        );
    }

    #[test]
    fn full_outer_with_matches_and_tails() {
        let out = join(
            &[(1, 1), (3, 3), (5, 5)],
            &[(3, 30), (5, 50), (7, 70)],
            JoinKind::FullOuter,
        );
        assert_eq!(out.len(), 4); // 1 unmatched, 3 match, 5 match, 7 unmatched
    }

    #[test]
    fn empty_inputs() {
        assert!(join(&[], &[], JoinKind::Inner).is_empty());
        assert_eq!(join(&[(1, 1)], &[], JoinKind::FullOuter).len(), 1);
        assert_eq!(join(&[], &[(1, 1)], JoinKind::FullOuter).len(), 1);
        assert!(join(&[(1, 1)], &[], JoinKind::Inner).is_empty());
    }

    #[test]
    fn null_keys_never_match() {
        let m = ExecMetrics::new();
        let left = ValuesOp::new(
            Schema::ints(&["a", "b"]),
            vec![
                Tuple::new(vec![Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Int(1), Value::Int(2)]),
            ],
        );
        let right = ValuesOp::new(
            Schema::ints(&["c", "d"]),
            vec![
                Tuple::new(vec![Value::Null, Value::Int(3)]),
                Tuple::new(vec![Value::Int(1), Value::Int(4)]),
            ],
        );
        let op = MergeJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            JoinKind::FullOuter,
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        // NULL left row padded, NULL right row padded, 1-1 match = 3 rows.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn multi_column_join_keys() {
        let m = ExecMetrics::new();
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(&[(1, 1), (1, 2), (2, 1)]));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(&[(1, 1), (1, 3), (2, 1)]));
        let op = MergeJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0, 1]),
            KeySpec::new(vec![0, 1]),
            JoinKind::Inner,
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 2); // (1,1) and (2,1)
    }
}
