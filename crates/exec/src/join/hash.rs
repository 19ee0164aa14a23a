//! In-memory hash join (build/probe), inner only.
//!
//! The cost-model counterpart the optimizer weighs against merge joins; also
//! the plan shape SYS1 chose for Query 3 (paper Fig. 11a). Outer joins are
//! merge or nested-loops joins, as in the paper. The build side is drained
//! into columns and one chained table over `i64` key words; NULL keys never
//! match. Keys match as the merge join matches them, by `Value`'s `==`: an
//! INT key column keys by its value, any other by a dense code from a
//! dictionary of its values, exact because `Value`'s `Hash` and `Eq` are
//! the numeric equality (an INT equals the DOUBLE holding exactly its
//! value, see [`pyro_common::value::exact_int`]). A probe cell maps to the
//! INT it equals, or through the same dictionary; a cell without a word
//! matches nothing, like a NULL.
//!
//! Which input is the build side is the caller's choice ([`Side`]).
//! Whichever it is, the output columns are `left ++ right` and the output
//! order is the probe stream's, each probe row's matches in build arrival
//! order — so a join building on the right emits exactly the sequence a
//! nested-loops join over the same inputs does, and passes its left
//! input's sort order on.
//!
//! A finished build side is immutable, so the workers of a parallel join
//! share one table behind an `Arc` ([`SharedBuild`]): it is built once, by
//! whoever needs it first, and every worker probes its own morsels against
//! it. A serial join is the one-worker case.

use super::{side_by_side, Side};
use crate::op::{drain_columns, BoxOp, Latch, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::value::exact_int;
use pyro_common::{
    CellRef, ColumnData, ColumnVec, ColumnarBatch, KeySpec, NullBitmap, PyroError, Result, Schema,
    Value,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Inner hash join of `left ⋈ right`, building on the input named at
/// construction and probing with the other.
pub struct HashJoin {
    build: Arc<SharedBuild>,
    /// The streaming input.
    probe_input: BoxOp,
    probe_key: KeySpec,
    /// Which join input the table rows are: decides the column order of a
    /// joined row.
    side: Side,
    schema: Schema,
    failed: Latch,
    /// Set by a `Limit` above: one productive probe row per pull.
    demand_driven: bool,
    batch: usize,
    /// The probe batch currently being walked: `(batch, selection, cursor)`.
    probe_pos: Option<(ColumnarBatch, Vec<u32>, usize)>,
}

/// The build side of a hash join: drained and built exactly once — by
/// [`SharedBuild::build`], or by whichever join over it is pulled first,
/// while any others wait; after that every join probes the same immutable
/// table. (A [`crate::Gather`] calls `build` itself, before it has workers,
/// so in a compiled pipeline nobody waits.)
pub struct SharedBuild {
    schema: Schema,
    key: KeySpec,
    /// The build input until the builder takes it.
    input: Mutex<Option<BoxOp>>,
    built: OnceLock<Result<Arc<VectorTable>>>,
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
    fn get(&self) -> Result<Arc<VectorTable>> {
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
                VectorTable::build(&mut input, self.key.cols()).map(Arc::new)
            })
            .clone()
    }
}

/// A chained hash table over the concatenated build side, all in flat
/// vectors: `first[bucket]` heads a chain threaded through `next[row]`.
/// Rows are inserted in *reverse* arrival order so walking a chain yields
/// ascending build-arrival order.
struct VectorTable {
    /// The build rows, dense, in arrival order.
    rows: ColumnarBatch,
    /// Per key column: `None` for an INT column, which keys by value, else
    /// the dictionary its values are coded by.
    dicts: Vec<Option<HashMap<Value, i64>>>,
    /// Flattened key words, row-major: `keys[row * k .. row * k + k]`.
    keys: Vec<i64>,
    k: usize,
    first: Vec<u32>,
    next: Vec<u32>,
    mask: usize,
}

const NIL: u32 = u32::MAX;

/// Multiply-xorshift hash over `k` flattened key words.
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
    /// Drains `input` batch-at-a-time into columns, and chains every row
    /// whose key words are all present.
    fn build(input: &mut BoxOp, key_cols: &[usize]) -> Result<VectorTable> {
        let rows = drain_columns(input)?;
        let dicts: Vec<_> = key_cols
            .iter()
            .map(|&c| {
                let col = rows.column(c);
                if matches!(col.data(), ColumnData::Int(_)) {
                    return None;
                }
                let mut dict = HashMap::new();
                for i in (0..col.len()).filter(|&i| !col.is_null(i)) {
                    let code = dict.len() as i64;
                    dict.entry(col.value_at(i)).or_insert(code);
                }
                Some(dict)
            })
            .collect();
        let (n, k) = (rows.num_rows(), key_cols.len());
        let mut keys = vec![0i64; n * k];
        // A row with a NULL key word never matches and stays out of the
        // chains entirely.
        let mut valid = vec![true; n];
        for (j, (&c, dict)) in key_cols.iter().zip(&dicts).enumerate() {
            let (words, nulls) = key_words(rows.column(c), dict.as_ref());
            for i in 0..n {
                keys[i * k + j] = words[i];
                valid[i] &= !nulls.get(i);
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
        Ok(VectorTable {
            rows,
            dicts,
            keys,
            k,
            first,
            next,
            mask: cap - 1,
        })
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

/// A key column as key words and their NULL bits. Without a dictionary an
/// INT column is read as it is, and any other cell becomes the INT
/// [`exact_int`] says it equals; with one, every cell becomes its code. A
/// cell without a word (a NULL; with no dictionary a string, a fraction,
/// −0.0, NaN or a DOUBLE past ±2^63; with one a value the build side never
/// held) is marked NULL, since it can match no build key.
fn key_words<'a>(
    col: &'a ColumnVec,
    dict: Option<&HashMap<Value, i64>>,
) -> (Cow<'a, [i64]>, Cow<'a, NullBitmap>) {
    if let (None, ColumnData::Int(v)) = (dict, col.data()) {
        return (Cow::Borrowed(v), Cow::Borrowed(col.nulls()));
    }
    let mut nulls = NullBitmap::new();
    let words = (0..col.len())
        .map(|i| {
            let word = match (dict, col.cell(i)) {
                (_, CellRef::Null) => None,
                (Some(dict), _) => dict.get(&col.value_at(i)).copied(),
                (None, CellRef::Int(x)) => Some(x),
                (None, CellRef::Double(d)) => exact_int(d),
                (None, CellRef::Str(_)) => None,
            };
            nulls.push(word.is_none());
            word.unwrap_or(0)
        })
        .collect();
    (Cow::Owned(words), Cow::Owned(nulls))
}

impl HashJoin {
    /// Builds an inner hash join of `left ⋈ right` on the positional keys,
    /// with the table built on the `build` input.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_key: KeySpec,
        right_key: KeySpec,
        build: Side,
    ) -> Self {
        let (input, build_key, probe, probe_key) = match build {
            Side::Left => (left, left_key, right, right_key),
            Side::Right => (right, right_key, left, left_key),
        };
        HashJoin::with_shared_build(SharedBuild::new(input, build_key), probe, probe_key, build)
    }

    /// A join probing `probe` against a build side it may share with other
    /// joins (the workers of one parallel join); `side` says which of the
    /// join's inputs that build side is.
    pub fn with_shared_build(
        build: Arc<SharedBuild>,
        probe: BoxOp,
        probe_key: KeySpec,
        side: Side,
    ) -> Self {
        assert_eq!(build.key.len(), probe_key.len());
        HashJoin {
            schema: match side {
                Side::Left => build.schema.join(probe.schema()),
                Side::Right => probe.schema().join(&build.schema),
            },
            build,
            probe_input: probe,
            probe_key,
            side,
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
            probe_pos: None,
        }
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
            .zip(&table.dicts)
            .map(|(&c, dict)| key_words(batch.column(c), dict.as_ref()))
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
        match self.side {
            Side::Left => side_by_side(&table.rows, build_idx, probe, probe_idx),
            Side::Right => side_by_side(probe, probe_idx, &table.rows, build_idx),
        }
    }

    /// Probes column-at-a-time: key words are extracted per probe batch,
    /// the flat chains walked, and the output gathered.
    fn probe(&mut self, table: &VectorTable) -> Result<Option<ColumnarBatch>> {
        let mut build_idx: Vec<u32> = Vec::new();
        let mut probe_idx: Vec<u32> = Vec::new();
        loop {
            if let Some((pb, sel, cursor)) = self.probe_pos.take() {
                let new_cursor = Self::probe_kernel(
                    table,
                    &pb,
                    &sel,
                    cursor,
                    self.probe_key.cols(),
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
            match self.probe_input.next_batch()? {
                Some(pb) => {
                    let sel = pb.sel_vec();
                    self.probe_pos = Some((pb, sel, 0));
                }
                None => return Ok(None),
            }
        }
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Builds (or waits for) the table on the first pull, then probes.
    /// Emission order: probe stream order, matches per probe row in build
    /// arrival order.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        let pulled = self.build.get().and_then(|table| self.probe(&table));
        self.failed.record(pulled)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{JoinKind, NestedLoopsJoin};
    use crate::op::{collect, exact, in_every_layout, ValuesOp};
    use pyro_common::Tuple;

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    fn join(l: &[(i64, i64)], r: &[(i64, i64)]) -> Vec<Tuple> {
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(l));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(r));
        let op = HashJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            Side::Left,
        );
        collect(Box::new(op)).unwrap()
    }

    #[test]
    fn inner_matches_merge_join_semantics() {
        let out = join(
            &[(1, 10), (2, 20), (4, 40)],
            &[(2, 200), (4, 400), (9, 900)],
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn null_build_keys_dont_match() {
        let null_key = |v| vec![Tuple::new(vec![Value::Null, Value::Int(v)])];
        for build in [Side::Left, Side::Right] {
            let op = HashJoin::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), null_key(1))),
                Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), null_key(2))),
                KeySpec::new(vec![0]),
                KeySpec::new(vec![0]),
                build,
            );
            assert!(collect(Box::new(op)).unwrap().is_empty(), "{build:?}");
        }
    }

    #[test]
    fn duplicate_keys_cross() {
        let out = join(&[(1, 1), (1, 2)], &[(1, 3), (1, 4)]);
        assert_eq!(out.len(), 4);
    }

    /// A join input: its schema and rows.
    type Input = (Schema, Vec<Tuple>);

    /// `n` rows of `key(i)`'s cells followed by the id `base + i`. Column
    /// types are not checked anywhere on the way, so every input is named
    /// with an INT schema.
    fn keyed(n: i64, base: i64, key: &dyn Fn(i64) -> Vec<Value>) -> Input {
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                let mut cells = key(i);
                cells.push(Value::Int(base + i));
                Tuple::new(cells)
            })
            .collect();
        let names: Vec<String> = (0..rows[0].arity())
            .map(|c| format!("c{base}_{c}"))
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        (Schema::ints(&names), rows)
    }

    /// Runs `left ⋈ right` on the key columns `keys` (the same positions
    /// on both sides), building on `build`, at batch sizes 1, 7 and 1024
    /// with each input fed in every layout, and holds every run to a
    /// nested-loops join over the same rows, row for row: building on the
    /// right is left-major nested loops, building on the left is nested
    /// loops over `right ⋈ left` with the columns put back. Returns the
    /// nested-loops rows.
    fn assert_matches_nested_loops(
        left: &Input,
        right: &Input,
        keys: &[usize],
        build: Side,
    ) -> Vec<Tuple> {
        let key = || KeySpec::new(keys.to_vec());
        let values = |(schema, rows): &Input| -> BoxOp {
            Box::new(ValuesOp::new(schema.clone(), rows.clone()))
        };
        let nested_loops = |l, r| {
            collect(Box::new(NestedLoopsJoin::new(
                l,
                r,
                key(),
                key(),
                JoinKind::Inner,
            )))
        };
        let expect = match build {
            Side::Right => nested_loops(values(left), values(right)).unwrap(),
            Side::Left => {
                let split = right.0.len();
                let swapped = nested_loops(values(right), values(left)).unwrap();
                let back =
                    |t: &Tuple| Tuple::new([&t.values()[split..], &t.values()[..split]].concat());
                swapped.iter().map(back).collect()
            }
        };
        for batch in [1usize, 7, 1024] {
            for (l, r) in (0..3).flat_map(|l| (0..3).map(move |r| (l, r))) {
                let [lhs, rhs] = [(left, l), (right, r)]
                    .map(|((schema, rows), i)| in_every_layout(schema, rows).into_iter().nth(i));
                let mut op = HashJoin::new(lhs.unwrap(), rhs.unwrap(), key(), key(), build);
                op.set_batch_size(batch);
                assert_eq!(
                    exact(&expect),
                    exact(&collect(Box::new(op)).unwrap()),
                    "build {build:?} left {l} right {r} batch {batch}"
                );
            }
        }
        expect
    }

    /// One table for every key type: INT, DOUBLE (with ±0.0 and NaN), STR,
    /// INT against DOUBLE past 2^53 in both directions, a mixed column
    /// against INT and against itself, and a two-column key mixing an INT
    /// with a dictionary column — with NULL keys, duplicate keys and
    /// unmatched keys on both sides, building on either side.
    #[test]
    fn columnar_pull_matches_row_pull() {
        const BIG: i64 = 1 << 53;
        let null_every = |m: i64, i: i64, v: Value| if i % m == 3 { Value::Null } else { v };
        let pick = |pool: &[Value], i: i64| pool[(i * 5 % pool.len() as i64) as usize].clone();
        let doubles = [-0.0, 0.0, f64::NAN, 1.5, 2.0, -3.0, 4.0].map(Value::Double);
        let big_ints = [BIG, BIG + 1, i64::MAX, i64::MIN, -BIG - 1, 3, 0].map(Value::Int);
        let big_doubles = [
            BIG as f64,
            (BIG + 2) as f64,
            9_223_372_036_854_775_808.0,  // 2^63: no INT equals it
            -9_223_372_036_854_775_808.0, // i64::MIN exactly
            3.0,
            3.5,
            -0.0,
            0.0,
            f64::NAN,
        ]
        .map(Value::Double);
        let mixed = [
            Value::Int(1),
            Value::Double(1.0),
            Value::Str("1".into()),
            Value::Double(1.5),
            Value::Int(2),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Str("k".into()),
            Value::Int(0),
        ];
        let int = |m: i64| move |i: i64| vec![null_every(7, i, Value::Int(i * 5 % m))];
        let from = |pool: &[Value]| {
            let pool = pool.to_vec();
            move |i: i64| vec![null_every(11, i, pick(&pool, i))]
        };
        let str_key = |i: i64| vec![null_every(9, i, Value::Str(format!("k{}", i % 9)))];
        let two = |d: bool| {
            move |i: i64| {
                let first = match d {
                    true => Value::Double((i % 4) as f64),
                    false => Value::Int(i % 5),
                };
                vec![null_every(13, i, first), Value::Str(format!("s{}", i % 3))]
            }
        };
        type Key<'a> = Box<dyn Fn(i64) -> Vec<Value> + 'a>;
        let cases: Vec<(&str, Key, Key, Vec<usize>)> = vec![
            ("int", Box::new(int(11)), Box::new(int(13)), vec![0]),
            (
                "double",
                Box::new(from(&doubles)),
                Box::new(from(&doubles)),
                vec![0],
            ),
            ("str", Box::new(str_key), Box::new(str_key), vec![0]),
            (
                "int ⋈ double",
                Box::new(from(&big_ints)),
                Box::new(from(&big_doubles)),
                vec![0],
            ),
            (
                "double ⋈ int",
                Box::new(from(&big_doubles)),
                Box::new(from(&big_ints)),
                vec![0],
            ),
            (
                "int ⋈ mixed",
                Box::new(int(3)),
                Box::new(from(&mixed)),
                vec![0],
            ),
            (
                "mixed ⋈ mixed",
                Box::new(from(&mixed)),
                Box::new(from(&mixed)),
                vec![0],
            ),
            (
                "two columns",
                Box::new(two(false)),
                Box::new(two(true)),
                vec![0, 1],
            ),
        ];
        for (what, l, r, keys) in &cases {
            let (left, right) = (keyed(40, 0, l), keyed(30, 1000, r));
            for build in [Side::Left, Side::Right] {
                let out = assert_matches_nested_loops(&left, &right, keys, build);
                assert!(out.len() > 10, "test premise: {what} keys match");
            }
        }
    }

    /// An INT key equals the DOUBLE holding the same integer, as under a
    /// merge join (`Value::cmp`): on either build side, against a DOUBLE or
    /// a mixed probe column.
    #[test]
    fn int_and_double_keys_match_numerically() {
        let ints = keyed(60, 0, &|i| match i % 13 {
            0 => vec![Value::Null],
            _ => vec![Value::Int(i % 9 - 2)],
        });
        let doubles = keyed(50, 100, &|i| match i % 11 {
            0 => vec![Value::Null],
            1 => vec![Value::Double(-0.0)],
            2 => vec![Value::Double(f64::NAN)],
            _ => vec![Value::Double((i % 12 - 3) as f64 / 2.0)],
        });
        // Every fifth key an INT: the column is mixed.
        let mixed = keyed(50, 100, &|i| match (i % 5, doubles.1[i as usize].get(0)) {
            (0, Value::Double(d)) => vec![Value::Int(*d as i64)],
            (_, v) => vec![v.clone()],
        });
        for right in [doubles.clone(), mixed] {
            let mut expect: Vec<Tuple> = ints
                .1
                .iter()
                .flat_map(|l| right.1.iter().map(move |r| (l, r)))
                .filter(|(l, r)| !l.get(0).is_null() && l.get(0).cmp(r.get(0)).is_eq())
                .map(|(l, r)| Tuple::new([l.values(), r.values()].concat()))
                .collect();
            expect.sort();
            assert!(expect.len() > 20);
            for build in [Side::Left, Side::Right] {
                let mut out = assert_matches_nested_loops(&ints, &right, &[0], build);
                out.sort();
                assert_eq!(exact(&out), exact(&expect), "build {build:?}");
            }
        }
    }

    /// Distinct INT keys past ±2^53 share an `f64` image but never match
    /// each other: only equal INTs do, as under a merge join.
    #[test]
    fn int_keys_past_two_to_the_53_match_exactly() {
        const BIG: i64 = 1 << 53;
        let keys = [BIG, BIG + 1, i64::MAX - 1, i64::MAX, -BIG - 1, i64::MIN];
        let side = |base: i64| keyed(6, base, &|i| vec![Value::Int(keys[i as usize])]);
        let (left, right) = (side(0), side(100));
        let expect: Vec<Tuple> = left
            .1
            .iter()
            .zip(&right.1)
            .map(|(l, r)| Tuple::new([l.values(), r.values()].concat()))
            .collect();
        for build in [Side::Left, Side::Right] {
            let out = assert_matches_nested_loops(&left, &right, &[0], build);
            assert_eq!(out, expect, "build {build:?}");
        }
    }

    /// String build keys go through the same table as INT keys (keyed by
    /// their cells' words) and must match nested loops exactly, NULL keys
    /// included, fed in every layout.
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
        let (left, right) = (
            (schema("a", "b"), left_rows),
            (schema("c", "d"), right_rows),
        );
        for build in [Side::Left, Side::Right] {
            let out = assert_matches_nested_loops(&left, &right, &[0], build);
            assert!(!out.is_empty(), "build {build:?}");
        }
    }

    /// Int build keys never match probe cells no INT equals — strings,
    /// fractions, −0.0, NaN — on either build side.
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
        let left = (Schema::ints(&["a", "b"]), rows(&[(0, 0), (1, 10), (2, 20)]));
        let right = (Schema::ints(&["c", "d"]), right_rows);
        for build in [Side::Left, Side::Right] {
            let out = assert_matches_nested_loops(&left, &right, &[0], build);
            assert_eq!(out.len(), 1, "build {build:?}");
            assert_eq!(out[0].get(0), &Value::Int(2), "build {build:?}");
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
    /// others wait; all of them probe that one table, whatever layout the
    /// build side arrived in.
    #[test]
    fn shared_build_serves_concurrent_joins_from_one_drain() {
        let schema = Schema::ints(&["a", "b"]);
        let table = collect(build_rows()).unwrap();
        for build in in_every_layout(&schema, &table) {
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
        let faulty = |panic: bool| -> BoxOp { Box::new(FaultyOp::new(build_rows(), 2, panic)) };
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
