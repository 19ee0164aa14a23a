//! In-memory hash join (build/probe).
//!
//! The cost-model counterpart the optimizer weighs against merge joins; also
//! the plan shape SYS1 chose for Query 3 (paper Fig. 11a). Build side is
//! materialized into a hash table; NULL keys never match (and are emitted
//! padded by the outer variants). Keys match as the merge join matches
//! them, by `Value`'s `==`: an INT equals the DOUBLE holding exactly its
//! value (see [`pyro_common::value::exact_int`]), which `Value`'s `Hash`
//! honours, so the row table keys on plain `Value`s.
//!
//! Which input is the build side is the caller's choice ([`Side`]): an
//! inner join may build on either, the outer variants build on the left.
//! Whichever it is, the output columns are `left ++ right` and the output
//! order is the probe stream's, each probe row's matches in build arrival
//! order — so a join building on the right emits exactly the sequence a
//! nested-loops join over the same inputs does, and passes its left
//! input's sort order on.
//!
//! A finished build side is immutable — the outer joins' "found a partner"
//! bits live on the probing operator, not in the table — so the workers of
//! a parallel inner join share one table behind an `Arc` ([`SharedBuild`]):
//! it is built once, by whoever needs it first, and every worker probes its
//! own morsels against it.

use super::{JoinKind, Side};
use crate::op::{rows_batch, Batch, BoxOp, Latch, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::value::exact_int;
use pyro_common::{
    CellRef, ColumnBuilder, ColumnData, ColumnVec, ColumnarBatch, KeySpec, NullBitmap, PyroError,
    Result, Schema, Tuple, Value,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Hash join of `left ⋈ right`, building on the input named at
/// construction and probing with the other.
pub struct HashJoin {
    build: BuildInput,
    /// The streaming input.
    probe_input: BoxOp,
    probe_len: usize,
    build_key: KeySpec,
    kind: JoinKind,
    schema: Schema,
    /// The finished build side; `None` until the first pull.
    table: Option<Arc<Built>>,
    probe: RowProbe,
    pending: std::vec::IntoIter<Tuple>,
    /// Full-outer only: after probe ends, emit unmatched build rows.
    drain_unmatched: bool,
    probe_stash: Stash,
    failed: Latch,
    /// Set by a `Limit` above: one productive probe row per pull.
    demand_driven: bool,
    batch: usize,
    /// The probe batch currently being walked: `(batch, selection, cursor)`.
    probe_pos: Option<(ColumnarBatch, Vec<u32>, usize)>,
}

/// Where the build side comes from.
enum BuildInput {
    /// Serial join: this operator drains its own build input, once.
    Own(Option<BoxOp>),
    /// One worker's copy of a parallel inner join.
    Shared(Arc<SharedBuild>),
}

/// A finished build side. Which form it takes is read off the build data.
enum Built {
    /// An inner join whose build side arrived as `Cols` batches throughout
    /// with every key column integer-typed: tight chained hash table over
    /// flattened `i64` keys, probed by the column kernel.
    Vector(VectorTable),
    /// Everything else: the rows themselves plus a key index.
    Rows(RowTable),
}

impl Built {
    /// Drains `input` batch-at-a-time. Rows are inserted in arrival order
    /// under either form, which is what makes the per-probe-row match order
    /// identical across them. With `vectorize` (inner joins), `Cols`
    /// batches are concatenated column by column for a vector table; the
    /// first `Rows` batch — or a non-integer key column at the end — turns
    /// what has been gathered into the exact row stream for the row table.
    /// Both forms match by `Value`'s `==` and never match NULL: the vector
    /// table's probe reads a DOUBLE cell as the INT [`exact_int`] says it
    /// equals, the row table hashes and compares `Value`s.
    fn drain(input: &mut BoxOp, key_cols: &[usize], vectorize: bool) -> Result<Built> {
        let mut rows = RowTable::default();
        let finish = |b: Vec<ColumnBuilder>| b.into_iter().map(ColumnBuilder::finish).collect();
        // `Some` while every batch so far was `Cols`.
        let mut gathered: Option<Vec<ColumnBuilder>> = vectorize.then(|| {
            (0..input.schema().len())
                .map(|_| ColumnBuilder::new())
                .collect()
        });
        while let Some(batch) = input.next_batch()? {
            let batch = match (batch, gathered.as_mut()) {
                (Batch::Cols(b), Some(builders)) => {
                    for (c, builder) in builders.iter_mut().enumerate() {
                        builder.append_column(b.column(c), b.sel());
                    }
                    continue;
                }
                (batch, _) => batch,
            };
            if let Some(builders) = gathered.take() {
                rows.insert_columns(finish(builders), key_cols);
            }
            for t in batch.into_rows() {
                rows.insert(t, key_cols);
            }
        }
        if let Some(builders) = gathered {
            let cols: Vec<ColumnVec> = finish(builders);
            if key_cols
                .iter()
                .all(|&c| matches!(cols[c].data(), ColumnData::Int(_)))
            {
                return Ok(Built::Vector(VectorTable::build(cols, key_cols)));
            }
            rows.insert_columns(cols, key_cols);
        }
        Ok(Built::Rows(rows))
    }
}

/// Row-form build side: the keyed rows in arrival order plus an index from
/// key to their positions (ascending, so a probe row meets its matches in
/// build arrival order).
#[derive(Default)]
struct RowTable {
    rows: Vec<Tuple>,
    index: HashMap<Vec<Value>, Vec<usize>>,
    /// Build rows with NULL keys (never match; emitted by LEFT/FULL OUTER).
    null_rows: Vec<Tuple>,
}

impl RowTable {
    fn insert(&mut self, t: Tuple, key_cols: &[usize]) {
        let key = t.key(key_cols);
        if key.iter().any(Value::is_null) {
            self.null_rows.push(t);
        } else {
            self.index.entry(key).or_default().push(self.rows.len());
            self.rows.push(t);
        }
    }

    /// Inserts the rows of concatenated build columns, in order.
    fn insert_columns(&mut self, cols: Vec<ColumnVec>, key_cols: &[usize]) {
        for i in 0..cols.first().map_or(0, ColumnVec::len) {
            let t = Tuple::new(cols.iter().map(|c| c.value_at(i)).collect());
            self.insert(t, key_cols);
        }
    }
}

/// What a row-granularity probe mutates, kept apart from the (possibly
/// shared) table it reads.
struct RowProbe {
    probe_key: KeySpec,
    /// Which join input the table rows are: decides the column order of a
    /// joined row.
    build: Side,
    /// Reused probe-key buffer: the table lookup borrows it as a slice, so
    /// probing allocates nothing per row.
    key: Vec<Value>,
    /// FULL OUTER only: the build (= left) arity an unmatched probe row is
    /// padded to.
    pad_build: Option<usize>,
    /// LEFT/FULL OUTER only: `seen[i]` ⇔ `RowTable::rows[i]` found a
    /// partner. Empty for inner joins, which never read it.
    seen: Vec<bool>,
}

impl RowProbe {
    /// Probes one row against the build table, appending all produced rows
    /// (matches, or the full-outer pad) to `out`.
    fn probe(&mut self, table: &RowTable, probe: &Tuple, out: &mut Vec<Tuple>) {
        probe.key_into(self.probe_key.cols(), &mut self.key);
        let before = out.len();
        if !self.key.iter().any(Value::is_null) {
            if let Some(matches) = table.index.get(self.key.as_slice()) {
                for &i in matches {
                    if let Some(seen) = self.seen.get_mut(i) {
                        *seen = true;
                    }
                    out.push(match self.build {
                        Side::Left => table.rows[i].concat(probe),
                        Side::Right => probe.concat(&table.rows[i]),
                    });
                }
            }
        }
        if out.len() == before {
            if let Some(arity) = self.pad_build {
                // Right row without partner.
                out.push(Tuple::nulls(arity).concat(probe));
            }
        }
    }
}

/// The build side of a parallel inner hash join: drained and built exactly
/// once — by [`SharedBuild::build`], or by whichever join over it is pulled
/// first, while any others wait; after that every worker probes the same
/// immutable table. (A [`crate::Gather`] calls `build` itself, before it
/// has workers, so in a compiled pipeline nobody waits.)
pub struct SharedBuild {
    schema: Schema,
    key: KeySpec,
    /// The build input until the builder takes it.
    input: Mutex<Option<BoxOp>>,
    built: OnceLock<Result<Arc<Built>>>,
}

impl SharedBuild {
    /// A build side over `input`, keyed on `key`.
    pub fn new(input: BoxOp, key: KeySpec) -> Arc<SharedBuild> {
        Arc::new(SharedBuild {
            schema: input.schema().clone(),
            key,
            input: Mutex::new(Some(input)),
            built: OnceLock::new(),
        })
    }

    /// Drains the input and builds the table now, on the calling thread,
    /// unless that has already happened; reports the build's error if it
    /// failed.
    pub fn build(&self) -> Result<()> {
        self.get().map(|_| ())
    }

    /// The finished table — built here if this is the first caller,
    /// otherwise after waiting for the caller that is building it. A build
    /// error is handed to every caller. If the building thread panics, the
    /// next caller finds the input gone and reports that instead (the panic
    /// itself unwinds the builder, and reaches the consumer through the
    /// builder's exchange if it was a worker).
    fn get(&self) -> Result<Arc<Built>> {
        self.built
            .get_or_init(|| {
                let input = self
                    .input
                    .lock()
                    .map_err(|_| PyroError::Exec("shared hash-join build lock poisoned".into()))?
                    .take();
                let mut input = input.ok_or_else(|| {
                    PyroError::Exec("shared hash-join build abandoned by its builder".into())
                })?;
                Built::drain(&mut input, self.key.cols(), true).map(Arc::new)
            })
            .clone()
    }
}

/// A chained hash table over the concatenated build side, all in flat
/// vectors: `first[bucket]` heads a chain threaded through `next[row]`.
/// Rows are inserted in *reverse* arrival order so walking a chain yields
/// ascending build-arrival order — exactly the order the row table emits
/// matches in.
struct VectorTable {
    /// Concatenated build columns (physical rows, no selection).
    cols: Vec<ColumnVec>,
    /// Flattened keys, row-major: `keys[row * k .. row * k + k]`.
    keys: Vec<i64>,
    k: usize,
    first: Vec<u32>,
    next: Vec<u32>,
    mask: usize,
}

const NIL: u32 = u32::MAX;

/// Multiply-xorshift hash over `k` flattened key words (kernel-internal —
/// nothing about it leaks into row-path semantics).
#[inline]
fn hash_words(keys: &[i64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &x in keys {
        h ^= x as u64;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h
}

impl VectorTable {
    fn build(cols: Vec<ColumnVec>, key_cols: &[usize]) -> VectorTable {
        let n = cols.first().map_or(0, ColumnVec::len);
        let k = key_cols.len();
        let mut keys = vec![0i64; n * k];
        // A row with any NULL key word never matches and stays out of the
        // chains entirely (Inner join drops it).
        let mut valid = vec![true; n];
        for (j, &c) in key_cols.iter().enumerate() {
            let ColumnData::Int(v) = cols[c].data() else {
                unreachable!("vector table requires integer key columns");
            };
            let nulls = cols[c].nulls();
            for i in 0..n {
                keys[i * k + j] = v[i];
                if nulls.get(i) {
                    valid[i] = false;
                }
            }
        }
        let cap = (n.max(1) * 2).next_power_of_two();
        let mut first = vec![NIL; cap];
        let mut next = vec![NIL; n];
        for i in (0..n).rev() {
            if !valid[i] {
                continue;
            }
            let b = (hash_words(&keys[i * k..i * k + k]) as usize) & (cap - 1);
            next[i] = first[b];
            first[b] = i as u32;
        }
        VectorTable {
            cols,
            keys,
            k,
            first,
            next,
            mask: cap - 1,
        }
    }

    /// Appends the build-row indices matching `key` to `out`, in build
    /// arrival order.
    #[inline]
    fn matches_into(&self, key: &[i64], out: &mut Vec<u32>) {
        debug_assert_eq!(key.len(), self.k);
        let mut slot = self.first[(hash_words(key) as usize) & self.mask];
        while slot != NIL {
            let i = slot as usize;
            // Word by word, not as a slice `==`: keys are a word or two, and
            // a slice comparison is a `memcmp` call per chain hop.
            let stored = &self.keys[i * self.k..i * self.k + self.k];
            if stored.iter().zip(key).all(|(a, b)| a == b) {
                out.push(slot);
            }
            slot = self.next[i];
        }
    }
}

/// A probe-side key column as INT key words and their NULL bits. An INT
/// column is read as it is; any other is converted, once per kernel call:
/// a DOUBLE cell to the INT [`exact_int`] says it equals, and a cell no INT
/// equals (a string, a fraction, −0.0, NaN, a DOUBLE past ±2^63) is marked
/// NULL, since neither can match a build key.
fn int_words(col: &ColumnVec) -> (Cow<'_, [i64]>, Cow<'_, NullBitmap>) {
    if let ColumnData::Int(v) = col.data() {
        return (Cow::Borrowed(v), Cow::Borrowed(col.nulls()));
    }
    let mut nulls = NullBitmap::new();
    let words = (0..col.len())
        .map(|i| {
            let word = match col.cell(i) {
                CellRef::Int(x) => Some(x),
                CellRef::Double(d) => exact_int(d),
                CellRef::Str(_) | CellRef::Null => None,
            };
            nulls.push(word.is_none());
            word.unwrap_or(0)
        })
        .collect();
    (Cow::Owned(words), Cow::Owned(nulls))
}

impl HashJoin {
    /// Builds a hash join of `left ⋈ right` on the positional keys, with
    /// the table built on the `build` input. Only an inner join may build
    /// on the right: the outer variants' unmatched-row drain is written for
    /// a preserved build side.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_key: KeySpec,
        right_key: KeySpec,
        kind: JoinKind,
        build: Side,
    ) -> Self {
        let (input, build_key, probe, probe_key) = match build {
            Side::Left => (left, left_key, right, right_key),
            Side::Right => (right, right_key, left, left_key),
        };
        let build_schema = input.schema().clone();
        HashJoin::over(
            BuildInput::Own(Some(input)),
            &build_schema,
            build_key,
            probe,
            probe_key,
            kind,
            build,
        )
    }

    /// One worker's inner join against a build side shared with the other
    /// workers of the same parallel join; `side` says which of the join's
    /// inputs that build side is.
    pub fn with_shared_build(
        build: Arc<SharedBuild>,
        probe: BoxOp,
        probe_key: KeySpec,
        side: Side,
    ) -> Self {
        let (schema, key) = (build.schema.clone(), build.key.clone());
        HashJoin::over(
            BuildInput::Shared(build),
            &schema,
            key,
            probe,
            probe_key,
            JoinKind::Inner,
            side,
        )
    }

    fn over(
        build: BuildInput,
        build_schema: &Schema,
        build_key: KeySpec,
        probe: BoxOp,
        probe_key: KeySpec,
        kind: JoinKind,
        side: Side,
    ) -> Self {
        assert_eq!(build_key.len(), probe_key.len());
        assert!(
            side == Side::Left || kind == JoinKind::Inner,
            "an outer hash join builds on its left input"
        );
        HashJoin {
            build,
            probe_len: probe.schema().len(),
            schema: match side {
                Side::Left => build_schema.join(probe.schema()),
                Side::Right => probe.schema().join(build_schema),
            },
            probe_input: probe,
            build_key,
            kind,
            table: None,
            probe: RowProbe {
                probe_key,
                build: side,
                key: Vec::new(),
                pad_build: matches!(kind, JoinKind::FullOuter).then_some(build_schema.len()),
                seen: Vec::new(),
            },
            pending: Vec::new().into_iter(),
            drain_unmatched: false,
            probe_stash: Stash::new(),
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
            probe_pos: None,
        }
    }

    /// The finished build side, building (or waiting for) it on first use.
    /// Only an inner join may get a vector table: the outer pads need the
    /// row table's seen-bits.
    fn built(&mut self) -> Result<Arc<Built>> {
        if let Some(t) = &self.table {
            return Ok(t.clone());
        }
        let built = match &mut self.build {
            BuildInput::Own(input) => {
                let mut input = input.take().expect("a failed build is latched");
                let vectorize = matches!(self.kind, JoinKind::Inner);
                Arc::new(Built::drain(&mut input, self.build_key.cols(), vectorize)?)
            }
            BuildInput::Shared(shared) => shared.get()?,
        };
        if let (Built::Rows(t), JoinKind::LeftOuter | JoinKind::FullOuter) = (&*built, self.kind) {
            self.probe.seen = vec![false; t.rows.len()];
        }
        self.table = Some(built.clone());
        Ok(built)
    }

    /// At probe end: stages the build rows no probe row matched (left and
    /// full outer joins) in `self.pending`, sorted for a deterministic
    /// order.
    fn stage_unmatched(&mut self, table: &RowTable) {
        self.drain_unmatched = true;
        if matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            let pad = Tuple::nulls(self.probe_len);
            let unmatched = table.rows.iter().zip(&self.probe.seen);
            let unmatched = unmatched.filter(|(_, seen)| !**seen).map(|(l, _)| l);
            let mut out: Vec<Tuple> = unmatched
                .chain(&table.null_rows)
                .map(|l| l.concat(&pad))
                .collect();
            out.sort();
            self.pending = out.into_iter();
        }
    }

    /// The batch pull against a row table: probes row by row, whatever
    /// layout the probe batches arrive in.
    fn probe_rows(&mut self, table: &RowTable) -> Result<Option<Batch>> {
        // Leftovers from the unmatched-rows drain.
        let mut out: Vec<Tuple> = self.pending.by_ref().take(self.batch).collect();
        // Probe loop: matches go straight into the output batch — no
        // per-probe-row staging vector. A probe row with several matches
        // may overshoot the batch size by one match set (allowed by the
        // trait contract).
        while !self.drain_unmatched && out.len() < self.want() {
            match self.probe_stash.next_row(&mut self.probe_input)? {
                Some(probe) => self.probe.probe(table, &probe, &mut out),
                None => {
                    self.stage_unmatched(table);
                    let room = self.batch - out.len();
                    out.extend(self.pending.by_ref().take(room));
                }
            }
        }
        Ok(rows_batch(out))
    }

    /// Output rows to gather before returning: a batchful, or under a
    /// `Limit` whatever the first productive probe row makes.
    fn want(&self) -> usize {
        if self.demand_driven {
            1
        } else {
            self.batch
        }
    }

    /// Walks the current probe batch from `cursor`, appending matched
    /// `(build_row, probe_row)` index pairs until the output would reach
    /// the batch size (each probe row's match set lands whole — the
    /// overshoot the trait contract allows). Returns the new cursor.
    #[allow(clippy::too_many_arguments)]
    fn probe_kernel(
        table: &VectorTable,
        batch: &ColumnarBatch,
        sel: &[u32],
        mut cursor: usize,
        key_cols: &[usize],
        target: usize,
        build_idx: &mut Vec<u32>,
        probe_idx: &mut Vec<u32>,
    ) -> usize {
        let words: Vec<_> = key_cols
            .iter()
            .map(|&c| int_words(batch.column(c)))
            .collect();
        let mut key = vec![0i64; key_cols.len()];
        'rows: while cursor < sel.len() {
            if build_idx.len() >= target {
                break;
            }
            let row = sel[cursor] as usize;
            cursor += 1;
            for (slot, (v, nulls)) in key.iter_mut().zip(&words) {
                if nulls.get(row) {
                    continue 'rows;
                }
                *slot = v[row];
            }
            let before = build_idx.len();
            table.matches_into(&key, build_idx);
            for _ in before..build_idx.len() {
                probe_idx.push(row as u32);
            }
        }
        cursor
    }

    /// Gathers the matched rows column-at-a-time: build columns indexed by
    /// `build_idx`, probe columns by `probe_idx`, laid out `left ++ right`.
    fn gather_output(
        &self,
        table: &VectorTable,
        probe: &ColumnarBatch,
        build_idx: &[u32],
        probe_idx: &[u32],
    ) -> ColumnarBatch {
        let mut builders: Vec<ColumnBuilder> = (0..self.schema.len())
            .map(|_| ColumnBuilder::new())
            .collect();
        let (build_at, probe_at) = match self.probe.build {
            Side::Left => (0, table.cols.len()),
            Side::Right => (self.probe_len, 0),
        };
        for (c, col) in table.cols.iter().enumerate() {
            builders[build_at + c].append_column(col, Some(build_idx));
        }
        for c in 0..self.probe_len {
            builders[probe_at + c].append_column(probe.column(c), Some(probe_idx));
        }
        ColumnarBatch::from_builders(builders)
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probes with the kernel the build side calls for. A vector table
    /// (see `Built`) is probed column-at-a-time: integer key words are
    /// extracted per probe batch, the flat chains walked, and output
    /// gathered into `Cols`. A row table is probed row by row into `Rows`.
    /// Emission order is the same under both: probe stream order, matches
    /// per probe row in build arrival order.
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.failed.check()?;
        let pulled = self.built().and_then(|built| match &*built {
            Built::Vector(table) => Ok(self.probe_columnar(table)?.map(Batch::Cols)),
            Built::Rows(table) => self.probe_rows(table),
        });
        self.failed.record(pulled)
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    /// The probe side streams; the build side is drained whole.
    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.probe_input.set_demand_driven();
    }
}

impl HashJoin {
    fn probe_columnar(&mut self, table: &VectorTable) -> Result<Option<ColumnarBatch>> {
        let mut build_idx: Vec<u32> = Vec::new();
        let mut probe_idx: Vec<u32> = Vec::new();
        loop {
            if let Some((pb, sel, cursor)) = self.probe_pos.take() {
                let new_cursor = Self::probe_kernel(
                    table,
                    &pb,
                    &sel,
                    cursor,
                    self.probe.probe_key.cols(),
                    self.want(),
                    &mut build_idx,
                    &mut probe_idx,
                );
                let exhausted = new_cursor >= sel.len();
                if !exhausted {
                    // More rows remain in this batch; the output target was
                    // reached. Gather before putting the batch back.
                    let out = self.gather_output(table, &pb, &build_idx, &probe_idx);
                    self.probe_pos = Some((pb, sel, new_cursor));
                    return Ok(Some(out));
                }
                if !build_idx.is_empty() {
                    return Ok(Some(self.gather_output(table, &pb, &build_idx, &probe_idx)));
                }
                // Batch fully probed with no matches: fall through to pull
                // the next one.
            }
            match self.probe_input.next_batch()?.map(Batch::into_cols) {
                Some(pb) => {
                    let sel = pb.sel_vec();
                    self.probe_pos = Some((pb, sel, 0));
                }
                None => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, exact, ValuesOp};

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    fn join(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Tuple> {
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(l));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(r));
        let op = HashJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            kind,
            Side::Left,
        );
        collect(Box::new(op)).unwrap()
    }

    #[test]
    fn inner_matches_merge_join_semantics() {
        let out = join(
            &[(1, 10), (2, 20), (4, 40)],
            &[(2, 200), (4, 400), (9, 900)],
            JoinKind::Inner,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn full_outer_emits_all() {
        let out = join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (3, 300)],
            JoinKind::FullOuter,
        );
        // match on 2, unmatched 1 (left), unmatched 3 (right)
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn left_outer() {
        let out = join(&[(1, 10), (2, 20)], &[(2, 200)], JoinKind::LeftOuter);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn null_build_keys_dont_match() {
        let left = ValuesOp::new(
            Schema::ints(&["a", "b"]),
            vec![Tuple::new(vec![Value::Null, Value::Int(1)])],
        );
        let right = ValuesOp::new(
            Schema::ints(&["c", "d"]),
            vec![Tuple::new(vec![Value::Null, Value::Int(2)])],
        );
        let op = HashJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            JoinKind::FullOuter,
            Side::Left,
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 2, "both NULL rows padded, no match");
    }

    #[test]
    fn duplicate_keys_cross() {
        let out = join(&[(1, 1), (1, 2)], &[(1, 3), (1, 4)], JoinKind::Inner);
        assert_eq!(out.len(), 4);
    }

    /// `left ⋈ right` built on `build` one row per pull, then at several
    /// batch sizes with each input fed every layout stream —
    /// all-`Cols` build sides get the vector table, any `Rows` batch the
    /// row table, and either is probed by either layout: same rows, same
    /// order.
    fn assert_batch_pull_matches_next(
        left: (Schema, Vec<Tuple>),
        right: (Schema, Vec<Tuple>),
        kind: JoinKind,
        build: Side,
    ) -> Vec<Tuple> {
        use crate::op::in_every_layout;
        let key = || KeySpec::new(vec![0]);
        let values = |(schema, rows): &(Schema, Vec<Tuple>)| -> BoxOp {
            Box::new(ValuesOp::new(schema.clone(), rows.clone()))
        };
        let mut one_row = HashJoin::new(values(&left), values(&right), key(), key(), kind, build);
        one_row.set_batch_size(1);
        let reference = collect(Box::new(one_row)).unwrap();
        for batch in [1usize, 7, 1024] {
            for (l, r) in (0..3).flat_map(|l| (0..3).map(move |r| (l, r))) {
                let [lhs, rhs] = [(&left, l), (&right, r)]
                    .map(|((schema, rows), i)| in_every_layout(schema, rows).into_iter().nth(i));
                let mut op = HashJoin::new(lhs.unwrap(), rhs.unwrap(), key(), key(), kind, build);
                op.set_batch_size(batch);
                let out = collect(Box::new(op)).unwrap();
                assert_eq!(
                    exact(&reference),
                    exact(&out),
                    "build {build:?} left {l} right {r} batch {batch}"
                );
            }
        }
        reference
    }

    /// Duplicate keys, NULL keys and sub-batch-size output slices, inner on
    /// either build side and — always on the row table — both outer kinds.
    #[test]
    fn columnar_pull_matches_row_pull() {
        let side = |n: i64, modulus: i64, null_every: i64, base: i64| -> Vec<Tuple> {
            (0..n)
                .map(|i| {
                    let k = match i % null_every {
                        0 => Value::Null,
                        _ => Value::Int(i % modulus),
                    };
                    Tuple::new(vec![k, Value::Int(base + i)])
                })
                .collect()
        };
        for (kind, build) in [
            (JoinKind::Inner, Side::Left),
            (JoinKind::Inner, Side::Right),
            (JoinKind::LeftOuter, Side::Left),
            (JoinKind::FullOuter, Side::Left),
        ] {
            let out = assert_batch_pull_matches_next(
                (Schema::ints(&["a", "b"]), side(200, 23, 17, 0)),
                (Schema::ints(&["c", "d"]), side(150, 29, 11, 1000)),
                kind,
                build,
            );
            assert!(!out.is_empty());
        }
    }

    /// Non-integer build keys end up in the row table even when every build
    /// batch is `Cols`, and must still match one-row pulls exactly.
    #[test]
    fn columnar_fallback_on_string_keys_matches_row_pull() {
        use pyro_common::{Column, DataType};

        let schema = |a: &str, b: &str| {
            Schema::new(vec![
                Column::new(a, DataType::Str),
                Column::new(b, DataType::Int),
            ])
        };
        let left_rows: Vec<Tuple> = (0..40)
            .map(|i| {
                Tuple::new(vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("k{}", i % 9))
                    },
                    Value::Int(i),
                ])
            })
            .collect();
        let right_rows: Vec<Tuple> = (0..30)
            .map(|i| {
                Tuple::new(vec![
                    Value::Str(format!("k{}", i % 12)),
                    Value::Int(100 + i),
                ])
            })
            .collect();
        let out = assert_batch_pull_matches_next(
            (schema("a", "b"), left_rows),
            (schema("c", "d"), right_rows),
            JoinKind::Inner,
            Side::Left,
        );
        assert!(!out.is_empty());
    }

    /// Int build keys never match probe cells no INT equals — strings,
    /// fractions, −0.0, NaN — and the vectorized probe must agree.
    #[test]
    fn columnar_probe_type_mismatch_never_matches() {
        let right_rows: Vec<Tuple> = [
            Value::Str("1".into()),
            Value::Double(1.5),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Int(2),
            Value::Null,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![k, Value::Int(i as i64)]))
        .collect();
        let out = assert_batch_pull_matches_next(
            (Schema::ints(&["a", "b"]), rows(&[(0, 0), (1, 10), (2, 20)])),
            (Schema::ints(&["c", "d"]), right_rows),
            JoinKind::Inner,
            Side::Left,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::Int(2));
    }

    /// An INT key equals the DOUBLE holding the same integer, as under a
    /// merge join (`Value::cmp`): on either build side, against a DOUBLE or
    /// a mixed probe column, through the vector table and the row table.
    #[test]
    fn int_and_double_keys_match_numerically() {
        use pyro_common::{Column, DataType};
        let ints: Vec<Tuple> = (0..60)
            .map(|i| {
                let k = match i % 13 {
                    0 => Value::Null,
                    _ => Value::Int(i % 9 - 2),
                };
                Tuple::new(vec![k, Value::Int(i)])
            })
            .collect();
        let doubles: Vec<Tuple> = (0..50)
            .map(|i| {
                let k = match i % 11 {
                    0 => Value::Null,
                    1 => Value::Double(-0.0),
                    2 => Value::Double(f64::NAN),
                    _ => Value::Double((i % 12 - 3) as f64 / 2.0),
                };
                Tuple::new(vec![k, Value::Int(100 + i)])
            })
            .collect();
        // Every fifth key an INT: the column is mixed.
        let mixed: Vec<Tuple> = doubles
            .iter()
            .enumerate()
            .map(|(i, t)| match (i % 5, t.get(0)) {
                (0, Value::Double(d)) => Tuple::new(vec![Value::Int(*d as i64), t.get(1).clone()]),
                _ => t.clone(),
            })
            .collect();
        let double_schema = Schema::new(vec![
            Column::new("c", DataType::Double),
            Column::new("d", DataType::Int),
        ]);
        for right in [doubles, mixed] {
            let mut expect: Vec<Tuple> = ints
                .iter()
                .flat_map(|l| right.iter().map(move |r| (l, r)))
                .filter(|(l, r)| !l.get(0).is_null() && l.get(0).cmp(r.get(0)).is_eq())
                .map(|(l, r)| l.concat(r))
                .collect();
            expect.sort();
            assert!(expect.len() > 20);
            for build in [Side::Left, Side::Right] {
                let mut out = assert_batch_pull_matches_next(
                    (Schema::ints(&["a", "b"]), ints.clone()),
                    (double_schema.clone(), right.clone()),
                    JoinKind::Inner,
                    build,
                );
                out.sort();
                assert_eq!(exact(&out), exact(&expect), "build {build:?}");
            }
        }
    }

    /// Distinct INT keys past ±2^53 share an `f64` image but never match
    /// each other: only equal INTs do, as under a merge join. Inner on
    /// either build side (the vector table, and the row table whenever a
    /// build batch arrives as rows) and FULL OUTER (always the row table).
    #[test]
    fn int_keys_past_two_to_the_53_match_exactly() {
        const BIG: i64 = 1 << 53;
        let keys = [BIG, BIG + 1, i64::MAX - 1, i64::MAX, -BIG - 1, i64::MIN];
        let side = |base: i64| -> Vec<Tuple> {
            keys.iter()
                .enumerate()
                .map(|(i, &k)| Tuple::new(vec![Value::Int(k), Value::Int(base + i as i64)]))
                .collect()
        };
        for (kind, build) in [
            (JoinKind::Inner, Side::Left),
            (JoinKind::Inner, Side::Right),
            (JoinKind::FullOuter, Side::Left),
        ] {
            let mut out = assert_batch_pull_matches_next(
                (Schema::ints(&["a", "b"]), side(0)),
                (Schema::ints(&["c", "d"]), side(100)),
                kind,
                build,
            );
            out.sort();
            let mut expect: Vec<Tuple> = side(0)
                .iter()
                .zip(side(100))
                .map(|(l, r)| l.concat(&r))
                .collect();
            expect.sort();
            assert_eq!(out, expect, "{kind:?} build {build:?}");
        }
    }

    fn probe_rows(part: i64) -> Vec<Tuple> {
        (0..40)
            .map(|i| Tuple::new(vec![Value::Int(i % 7), Value::Int(part * 100 + i)]))
            .collect()
    }

    /// Runs four joins over one shared build concurrently, all reaching
    /// their first pull together, and returns each one's result.
    fn probe_shared_concurrently(
        shared: &Arc<SharedBuild>,
    ) -> Vec<std::thread::Result<Result<Vec<Tuple>>>> {
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|part| {
                    let (shared, barrier) = (shared.clone(), &barrier);
                    s.spawn(move || {
                        let probe = ValuesOp::new(Schema::ints(&["c", "d"]), probe_rows(part));
                        let join = HashJoin::with_shared_build(
                            shared,
                            Box::new(probe),
                            KeySpec::new(vec![0]),
                            Side::Left,
                        );
                        barrier.wait();
                        collect(Box::new(join))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    }

    fn build_rows() -> BoxOp {
        Box::new(ValuesOp::new(
            Schema::ints(&["a", "b"]),
            rows(&[(1, 10), (3, 30), (3, 31), (9, 90)]),
        ))
    }

    /// Whichever join needs the shared table first builds it while the
    /// others wait; all of them probe that one table, in either form.
    #[test]
    fn shared_build_serves_concurrent_joins_from_one_drain() {
        let schema = Schema::ints(&["a", "b"]);
        let table = collect(build_rows()).unwrap();
        for build in crate::op::in_every_layout(&schema, &table) {
            let shared = SharedBuild::new(build, KeySpec::new(vec![0]));
            let mut out: Vec<Tuple> = probe_shared_concurrently(&shared)
                .into_iter()
                .flat_map(|r| r.expect("no panic").expect("no error"))
                .collect();
            out.sort();
            let mut expect = Vec::new();
            for part in 0..4 {
                let probe = ValuesOp::new(Schema::ints(&["c", "d"]), probe_rows(part));
                let serial = HashJoin::new(
                    build_rows(),
                    Box::new(probe),
                    KeySpec::new(vec![0]),
                    KeySpec::new(vec![0]),
                    JoinKind::Inner,
                    Side::Left,
                );
                expect.extend(collect(Box::new(serial)).unwrap());
            }
            expect.sort();
            assert!(!expect.is_empty());
            assert_eq!(out, expect);
        }
    }

    /// A failed shared build fails every join with the build's own error;
    /// a panicking one takes down the join that was building, and the
    /// waiting ones get a typed error instead of a table.
    #[test]
    fn shared_build_failure_reaches_every_waiting_join() {
        use crate::op::FaultyOp;
        let faulty = |panic: bool| -> BoxOp {
            Box::new(FaultyOp {
                child: build_rows(),
                after: 2,
                panic,
                stash: crate::op::Stash::new(),
            })
        };
        let shared = SharedBuild::new(faulty(false), KeySpec::new(vec![0]));
        for r in probe_shared_concurrently(&shared) {
            assert_eq!(
                r.expect("no panic").unwrap_err(),
                PyroError::Exec("boom".into())
            );
        }
        let shared = SharedBuild::new(faulty(true), KeySpec::new(vec![0]));
        let results = probe_shared_concurrently(&shared);
        assert_eq!(
            results.iter().filter(|r| r.is_err()).count(),
            1,
            "the builder"
        );
        for r in results.into_iter().flatten() {
            assert!(matches!(r, Err(PyroError::Exec(m)) if m.contains("abandoned")));
        }
    }
}
