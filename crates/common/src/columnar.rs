//! Columnar (structure-of-arrays) batch layout for the vectorized engine.
//!
//! A [`ColumnarBatch`] holds one [`ColumnVec`] per output column instead of a
//! `Vec<Tuple>` of boxed rows. Each column stores its cells in a typed,
//! fixed-width vector (`Vec<i64>` / `Vec<f64>` / an offset-indexed string
//! arena) plus a [`NullBitmap`], falling back to a `Vec<Value>` (`Mixed`)
//! representation only when a column genuinely holds more than one value
//! type. Batches carry an optional *selection vector* — a sorted list of
//! physical row indices that survive upstream filters — so filters refine
//! selections instead of materializing rows.
//!
//! Rows materialize back into [`Tuple`]s only at pipeline breakers (sorts,
//! aggregates, merge joins) via [`ColumnarBatch::to_rows`]; the
//! converters are the seam that keeps the strict row/batch counter-parity
//! contract intact, because none of the columnar kernels charge metrics.

use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// A growable bitmap marking NULL cells; bit `i` set means row `i` is NULL.
///
/// Backed by `u64` words so null checks in kernel loops are a shift and a
/// mask. The bitmap tracks its own logical length independently of the word
/// vector, which matters exactly at word boundaries (lengths 63/64/65).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    set_bits: usize,
}

impl NullBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap of `len` bits, all set (every row NULL).
    pub fn all_null(len: usize) -> Self {
        let mut b = Self::new();
        for _ in 0..len {
            b.push(true);
        }
        b
    }

    /// Appends one bit; `true` marks the new row as NULL.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.set_bits += 1;
        }
        self.len += 1;
    }

    /// Returns whether row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when at least one row is NULL.
    #[inline]
    pub fn any(&self) -> bool {
        self.set_bits > 0
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.set_bits
    }
}

/// An offset-indexed string arena: all cell bytes in one buffer, with
/// `offsets[i]..offsets[i+1]` delimiting cell `i`.
///
/// NULL cells occupy an empty range so offsets stay dense. Byte-wise
/// comparison of two cells equals `str` ordering (Rust's `str` `Ord` is
/// lexicographic over UTF-8 bytes), so kernels compare raw byte slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrArena {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

impl Default for StrArena {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }
}

impl StrArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one string cell.
    pub fn push(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Appends one cell from raw UTF-8 bytes (caller guarantees validity;
    /// the page decoder has already validated them).
    pub fn push_bytes(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
        let end = u32::try_from(self.bytes.len()).expect("string arena exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// Returns the raw bytes of cell `i` (hot-loop comparisons).
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        let a = self.offsets[i] as usize;
        let b = self.offsets[i + 1] as usize;
        &self.bytes[a..b]
    }

    /// Returns cell `i` as `&str` (materialization path).
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        std::str::from_utf8(self.bytes_at(i)).expect("arena cells are pushed from valid UTF-8")
    }

    /// Number of cells in the arena.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` when the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Typed cell storage for one column.
///
/// `Int`/`Double`/`Str` are the fixed-width fast paths (NULL cells hold a
/// placeholder and are masked by the column's [`NullBitmap`]); `Mixed` is the
/// escape hatch for columns that mix value types, storing plain [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All non-NULL cells are `Value::Int`.
    Int(Vec<i64>),
    /// All non-NULL cells are `Value::Double` (bit patterns preserved).
    Double(Vec<f64>),
    /// All non-NULL cells are `Value::Str`, stored in an arena.
    Str(StrArena),
    /// Heterogeneous column; cells stored as rows would store them.
    Mixed(Vec<Value>),
}

/// A borrowed view of one cell, mirroring [`Value`] without allocating.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (bit pattern preserved).
    Double(f64),
    /// String slice borrowed from the arena or a `Value`.
    Str(&'a str),
}

impl<'a> CellRef<'a> {
    /// Materializes the cell into an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Int(v) => Value::Int(v),
            CellRef::Double(v) => Value::Double(v),
            CellRef::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// Borrows a cell view from a [`Value`].
    pub fn from_value(v: &'a Value) -> Self {
        match v {
            Value::Null => CellRef::Null,
            Value::Int(i) => CellRef::Int(*i),
            Value::Double(d) => CellRef::Double(*d),
            Value::Str(s) => CellRef::Str(s.as_str()),
        }
    }

    /// Returns `true` for [`CellRef::Null`].
    pub fn is_null(self) -> bool {
        matches!(self, CellRef::Null)
    }

    fn type_rank(self) -> u8 {
        match self {
            CellRef::Int(_) | CellRef::Double(_) => 0,
            CellRef::Str(_) => 1,
            CellRef::Null => 2,
        }
    }

    /// Total order identical to [`Value`]'s `Ord`: mixed numerics compare
    /// numerically, strings byte-wise, NULLs last.
    pub fn order(self, other: CellRef<'_>) -> std::cmp::Ordering {
        match (self, other) {
            (CellRef::Int(a), CellRef::Int(b)) => a.cmp(&b),
            (CellRef::Double(a), CellRef::Double(b)) => a.total_cmp(&b),
            (CellRef::Str(a), CellRef::Str(b)) => a.cmp(b),
            (CellRef::Int(a), CellRef::Double(b)) => (a as f64).total_cmp(&b),
            (CellRef::Double(a), CellRef::Int(b)) => a.total_cmp(&(b as f64)),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

/// One column of a [`ColumnarBatch`]: typed cell storage plus a null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    data: ColumnData,
    nulls: NullBitmap,
}

impl ColumnVec {
    /// Builds a column from storage and a bitmap of equal length.
    pub fn new(data: ColumnData, nulls: NullBitmap) -> Self {
        let c = Self { data, nulls };
        debug_assert_eq!(c.len(), c.nulls.len());
        c
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(a) => a.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Returns `true` when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed cell storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// Borrows cell `i` without allocating.
    #[inline]
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        if self.nulls.get(i) {
            return CellRef::Null;
        }
        match &self.data {
            ColumnData::Int(v) => CellRef::Int(v[i]),
            ColumnData::Double(v) => CellRef::Double(v[i]),
            ColumnData::Str(a) => CellRef::Str(a.get(i)),
            ColumnData::Mixed(v) => CellRef::from_value(&v[i]),
        }
    }

    /// Materializes cell `i` into an owned [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }
}

/// Incremental builder for one [`ColumnVec`].
///
/// Starts untyped, adopts the representation of the first non-NULL value
/// pushed, and demotes itself to the `Mixed` representation if a later value
/// has a different type (rebuilding already-pushed cells exactly).
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    rep: BuilderRep,
    nulls: NullBitmap,
    len: usize,
}

#[derive(Debug, Default)]
enum BuilderRep {
    /// Only NULLs pushed so far (or nothing).
    #[default]
    Untyped,
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(StrArena),
    Mixed(Vec<Value>),
}

impl ColumnBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a NULL cell.
    pub fn push_null(&mut self) {
        match &mut self.rep {
            BuilderRep::Untyped => {}
            BuilderRep::Int(v) => v.push(0),
            BuilderRep::Double(v) => v.push(0.0),
            BuilderRep::Str(a) => a.push(""),
            BuilderRep::Mixed(v) => v.push(Value::Null),
        }
        self.nulls.push(true);
        self.len += 1;
    }

    /// Appends an integer cell.
    pub fn push_int(&mut self, x: i64) {
        match &mut self.rep {
            BuilderRep::Untyped => {
                let mut v = vec![0i64; self.len];
                v.push(x);
                self.rep = BuilderRep::Int(v);
            }
            BuilderRep::Int(v) => v.push(x),
            BuilderRep::Mixed(v) => v.push(Value::Int(x)),
            _ => {
                self.demote();
                self.push_int(x);
                return;
            }
        }
        self.nulls.push(false);
        self.len += 1;
    }

    /// Appends a double cell (bit pattern preserved).
    pub fn push_double(&mut self, x: f64) {
        match &mut self.rep {
            BuilderRep::Untyped => {
                let mut v = vec![0.0f64; self.len];
                v.push(x);
                self.rep = BuilderRep::Double(v);
            }
            BuilderRep::Double(v) => v.push(x),
            BuilderRep::Mixed(v) => v.push(Value::Double(x)),
            _ => {
                self.demote();
                self.push_double(x);
                return;
            }
        }
        self.nulls.push(false);
        self.len += 1;
    }

    /// Appends a string cell from raw UTF-8 bytes (already validated).
    pub fn push_str_bytes(&mut self, b: &[u8]) {
        match &mut self.rep {
            BuilderRep::Untyped => {
                let mut a = StrArena::new();
                for _ in 0..self.len {
                    a.push("");
                }
                a.push_bytes(b);
                self.rep = BuilderRep::Str(a);
            }
            BuilderRep::Str(a) => a.push_bytes(b),
            BuilderRep::Mixed(v) => v.push(Value::Str(
                std::str::from_utf8(b).expect("validated UTF-8").to_string(),
            )),
            _ => {
                self.demote();
                self.push_str_bytes(b);
                return;
            }
        }
        self.nulls.push(false);
        self.len += 1;
    }

    /// Appends a string cell.
    pub fn push_str(&mut self, s: &str) {
        self.push_str_bytes(s.as_bytes());
    }

    /// Appends a cell from a [`Value`].
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int(x) => self.push_int(*x),
            Value::Double(x) => self.push_double(*x),
            Value::Str(s) => self.push_str(s),
        }
    }

    /// Appends a borrowed cell view.
    pub fn push_cell(&mut self, c: CellRef<'_>) {
        match c {
            CellRef::Null => self.push_null(),
            CellRef::Int(x) => self.push_int(x),
            CellRef::Double(x) => self.push_double(x),
            CellRef::Str(s) => self.push_str(s),
        }
    }

    /// Appends the rows of `col` selected by `sel` (all rows when `None`),
    /// using bulk typed copies whenever the representations line up.
    pub fn append_column(&mut self, col: &ColumnVec, sel: Option<&[u32]>) {
        if let Some(sel) = sel {
            for &i in sel {
                self.push_cell(col.cell(i as usize));
            }
            return;
        }
        let n = col.len();
        // Bulk fast path: matching (or adoptable) representation and no
        // NULLs on either side lets us memcpy the typed storage.
        if !col.nulls.any() {
            match (&mut self.rep, &col.data) {
                (BuilderRep::Int(dst), ColumnData::Int(src)) => {
                    dst.extend_from_slice(src);
                    self.bulk_valid(n);
                    return;
                }
                (BuilderRep::Double(dst), ColumnData::Double(src)) => {
                    dst.extend_from_slice(src);
                    self.bulk_valid(n);
                    return;
                }
                (BuilderRep::Untyped, ColumnData::Int(src)) if self.len == 0 => {
                    self.rep = BuilderRep::Int(src.clone());
                    self.bulk_valid(n);
                    return;
                }
                (BuilderRep::Untyped, ColumnData::Double(src)) if self.len == 0 => {
                    self.rep = BuilderRep::Double(src.clone());
                    self.bulk_valid(n);
                    return;
                }
                (BuilderRep::Untyped, ColumnData::Str(src)) if self.len == 0 => {
                    self.rep = BuilderRep::Str(src.clone());
                    self.bulk_valid(n);
                    return;
                }
                _ => {}
            }
        }
        for i in 0..n {
            self.push_cell(col.cell(i));
        }
    }

    fn bulk_valid(&mut self, n: usize) {
        for _ in 0..n {
            self.nulls.push(false);
        }
        self.len += n;
    }

    /// Rebuilds the current cells as `Mixed` after a type conflict.
    fn demote(&mut self) {
        let mut vals = Vec::with_capacity(self.len + 1);
        match &self.rep {
            BuilderRep::Untyped => vals.extend((0..self.len).map(|_| Value::Null)),
            BuilderRep::Int(v) => {
                for (i, x) in v.iter().enumerate() {
                    vals.push(if self.nulls.get(i) {
                        Value::Null
                    } else {
                        Value::Int(*x)
                    });
                }
            }
            BuilderRep::Double(v) => {
                for (i, x) in v.iter().enumerate() {
                    vals.push(if self.nulls.get(i) {
                        Value::Null
                    } else {
                        Value::Double(*x)
                    });
                }
            }
            BuilderRep::Str(a) => {
                for i in 0..a.len() {
                    vals.push(if self.nulls.get(i) {
                        Value::Null
                    } else {
                        Value::Str(a.get(i).to_string())
                    });
                }
            }
            BuilderRep::Mixed(_) => unreachable!("demote from Mixed"),
        }
        self.rep = BuilderRep::Mixed(vals);
    }

    /// Finishes the builder into an immutable column. An all-NULL (or
    /// empty) column finishes with integer storage — the bitmap masks
    /// every placeholder.
    pub fn finish(self) -> ColumnVec {
        let data = match self.rep {
            BuilderRep::Untyped => ColumnData::Int(vec![0; self.len]),
            BuilderRep::Int(v) => ColumnData::Int(v),
            BuilderRep::Double(v) => ColumnData::Double(v),
            BuilderRep::Str(a) => ColumnData::Str(a),
            BuilderRep::Mixed(v) => ColumnData::Mixed(v),
        };
        ColumnVec::new(data, self.nulls)
    }
}

/// A batch of rows in columnar layout, with an optional selection vector.
///
/// `sel` (when present) lists the physical row indices — strictly
/// ascending — that are logically part of the batch; filters refine it
/// without touching column storage. Cells at unselected indices are real
/// decoded values that simply no longer participate. `to_rows` and every
/// consumer iterate selected rows in ascending index order, which is what
/// keeps row/batch emission order identical.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    columns: Vec<Arc<ColumnVec>>,
    rows: usize,
    sel: Option<Vec<u32>>,
}

impl ColumnarBatch {
    /// Builds a batch from finished columns (all of physical length `rows`).
    pub fn from_columns(columns: Vec<Arc<ColumnVec>>, rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Self {
            columns,
            rows,
            sel: None,
        }
    }

    /// Builds a batch by finishing one builder per column.
    pub fn from_builders(builders: Vec<ColumnBuilder>) -> Self {
        let rows = builders.first().map_or(0, ColumnBuilder::len);
        let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
        Self::from_columns(columns, rows)
    }

    /// Converts row-oriented tuples into a columnar batch (the seam shim
    /// used by operators without a native columnar path).
    pub fn from_rows(rows: &[Tuple]) -> Self {
        let arity = rows.first().map_or(0, Tuple::arity);
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        for t in rows {
            debug_assert_eq!(t.arity(), arity);
            for (c, v) in t.values().iter().enumerate() {
                builders[c].push_value(v);
            }
        }
        let mut batch = Self::from_builders(builders);
        batch.rows = rows.len();
        batch
    }

    /// Materializes the selected rows back into tuples, in ascending
    /// physical-row order.
    pub fn to_rows(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        match &self.sel {
            Some(sel) => {
                for &i in sel {
                    out.push(self.row_at(i as usize));
                }
            }
            None => {
                for i in 0..self.rows {
                    out.push(self.row_at(i));
                }
            }
        }
        out
    }

    /// Materializes one physical row.
    pub fn row_at(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    /// Number of *selected* (logical) rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    /// Returns `true` when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical rows in column storage.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> &Arc<ColumnVec> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// The selection vector, if any (`None` means all rows selected).
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Materializes the selection as an owned index vector (identity when
    /// no selection is present).
    pub fn sel_vec(&self) -> Vec<u32> {
        match &self.sel {
            Some(sel) => sel.clone(),
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Replaces the selection vector (indices must be ascending and within
    /// the physical row count).
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.rows));
        self.sel = Some(sel);
    }

    /// Replaces this batch's columns, keeping the physical row count and
    /// selection (the Project kernel's column-shuffle path).
    pub fn with_columns(&self, columns: Vec<Arc<ColumnVec>>) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == self.rows));
        Self {
            columns,
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rows: Vec<Tuple>) {
        let batch = ColumnarBatch::from_rows(&rows);
        assert_eq!(batch.len(), rows.len());
        let back = batch.to_rows();
        assert_eq!(rows, back);
    }

    #[test]
    fn round_trip_all_value_types() {
        round_trip(vec![
            Tuple::new(vec![
                Value::Int(42),
                Value::Double(1.5),
                Value::Str("hello".into()),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(-7),
                Value::Double(-0.0),
                Value::Str(String::new()),
                Value::Int(9),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Str("mixed".into()),
            ]),
        ]);
    }

    #[test]
    fn round_trip_nan_bit_patterns() {
        // Two distinct NaN payloads plus negative zero: equality on Double
        // is bit-pattern based, so the round trip must preserve bits.
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let negative = f64::from_bits(0xfff8_0000_0000_0002);
        let rows = vec![
            Tuple::new(vec![Value::Double(quiet)]),
            Tuple::new(vec![Value::Double(negative)]),
            Tuple::new(vec![Value::Double(-0.0)]),
            Tuple::new(vec![Value::Double(f64::INFINITY)]),
        ];
        let batch = ColumnarBatch::from_rows(&rows);
        let back = batch.to_rows();
        for (a, b) in rows.iter().zip(&back) {
            let (Value::Double(x), Value::Double(y)) = (a.get(0), b.get(0)) else {
                panic!("expected doubles");
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn round_trip_empty_strings_and_nulls_distinct() {
        // Empty string and NULL must not collapse into each other even
        // though both occupy an empty arena range.
        round_trip(vec![
            Tuple::new(vec![Value::Str(String::new())]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Str("x".into())]),
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Str(String::new())]),
        ]);
    }

    #[test]
    fn null_bitmap_word_boundaries() {
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            let mut b = NullBitmap::new();
            for i in 0..n {
                b.push(i % 3 == 0);
            }
            assert_eq!(b.len(), n);
            for i in 0..n {
                assert_eq!(b.get(i), i % 3 == 0, "bit {i} of {n}");
            }
            assert_eq!(b.count(), n.div_ceil(3));
            assert!(b.any());
            // Round-trip a whole column at the same lengths: NULL at every
            // third row, Int elsewhere.
            let rows: Vec<Tuple> = (0..n)
                .map(|i| {
                    Tuple::new(vec![if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    }])
                })
                .collect();
            round_trip(rows);
        }
    }

    #[test]
    fn builder_demotes_to_mixed_on_type_conflict() {
        let mut b = ColumnBuilder::new();
        b.push_null();
        b.push_int(5);
        b.push_double(2.5);
        b.push_str("s");
        let col = b.finish();
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        assert_eq!(col.value_at(0), Value::Null);
        assert_eq!(col.value_at(1), Value::Int(5));
        assert_eq!(col.value_at(2), Value::Double(2.5));
        assert_eq!(col.value_at(3), Value::Str("s".into()));
    }

    #[test]
    fn all_null_column_finishes_typed_and_masked() {
        let mut b = ColumnBuilder::new();
        for _ in 0..5 {
            b.push_null();
        }
        let col = b.finish();
        assert_eq!(col.len(), 5);
        for i in 0..5 {
            assert!(col.is_null(i));
            assert_eq!(col.value_at(i), Value::Null);
        }
    }

    #[test]
    fn selection_vector_drives_to_rows() {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("r{i}"))]))
            .collect();
        let mut batch = ColumnarBatch::from_rows(&rows);
        batch.set_sel(vec![1, 4, 9]);
        assert_eq!(batch.len(), 3);
        assert_eq!(
            batch.to_rows(),
            vec![rows[1].clone(), rows[4].clone(), rows[9].clone()]
        );
    }

    #[test]
    fn append_column_bulk_and_selected() {
        let rows: Vec<Tuple> = (0..100).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let mut b = ColumnBuilder::new();
        b.append_column(batch.column(0), None);
        b.append_column(batch.column(0), Some(&[0, 50, 99]));
        let col = b.finish();
        assert_eq!(col.len(), 103);
        assert_eq!(col.value_at(100), Value::Int(0));
        assert_eq!(col.value_at(101), Value::Int(50));
        assert_eq!(col.value_at(102), Value::Int(99));
    }

    #[test]
    fn cell_order_matches_value_ord() {
        let vals = [
            Value::Null,
            Value::Int(-3),
            Value::Int(2),
            Value::Double(2.0),
            Value::Double(f64::NAN),
            Value::Str(String::new()),
            Value::Str("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    CellRef::from_value(a).order(CellRef::from_value(b)),
                    a.cmp(b),
                    "order mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }
}
