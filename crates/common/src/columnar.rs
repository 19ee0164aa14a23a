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
//! Sorts, merge joins and sort-based grouping run on this layout too: they
//! compare rows in place ([`ColumnVec::compare`], with an order-preserving
//! 8-byte [`CellRef::norm_prefix`] in front of it), budget memory with
//! [`ColumnarBatch::row_byte_sizes`] and emit by [`ColumnarBatch::gather`].
//! Rows materialize back into [`Tuple`]s once, where a drain hands them
//! out, via [`ColumnarBatch::append_rows`].

use crate::tuple::{KeySpec, Tuple};
use crate::value::{cmp_int_double, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Row index that [`ColumnBuilder::append_gather`] reads as "no row here":
/// it appends a NULL cell (outer-join padding).
pub const NULL_ROW: u32 = u32::MAX;

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
        b.extend(len, true);
        b
    }

    /// Appends one bit; `true` marks the new row as NULL.
    #[inline]
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

    /// Appends `n` bits all equal to `is_null`, a word at a time.
    pub fn extend(&mut self, n: usize, is_null: bool) {
        let (start, end) = (self.len, self.len + n);
        self.words.resize(end.div_ceil(64), 0);
        if is_null {
            let mut i = start;
            while i < end {
                let (at, span) = (i % 64, (64 - i % 64).min(end - i));
                self.words[i / 64] |= (u64::MAX >> (64 - span)) << at;
                i += span;
            }
            self.set_bits += n;
        }
        self.len = end;
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
    #[inline]
    pub fn push_bytes(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
        let end = u32::try_from(self.bytes.len()).expect("string arena exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// Appends `n` empty cells: one offset fill, no byte copied.
    pub fn extend_empty(&mut self, n: usize) {
        let end = *self.offsets.last().expect("offsets start at 0");
        self.offsets.resize(self.offsets.len() + n, end);
    }

    /// Appends cells `start..end` of `other`: one byte copy plus rebased
    /// offsets.
    pub fn extend_range(&mut self, other: &StrArena, start: usize, end: usize) {
        let (lo, hi) = (other.offsets[start] as usize, other.offsets[end] as usize);
        let before = self.bytes.len();
        u32::try_from(before + (hi - lo)).expect("string arena exceeds u32 offsets");
        self.bytes.extend_from_slice(&other.bytes[lo..hi]);
        self.offsets.extend(
            other.offsets[start + 1..=end]
                .iter()
                .map(|&o| (before + (o as usize - lo)) as u32),
        );
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
    /// exactly ([`crate::value::cmp_int_double`]), strings byte-wise, NULLs
    /// last. Its `Equal` is `Value`'s `==`.
    pub fn order(self, other: CellRef<'_>) -> std::cmp::Ordering {
        match (self, other) {
            (CellRef::Int(a), CellRef::Int(b)) => a.cmp(&b),
            (CellRef::Double(a), CellRef::Double(b)) => a.total_cmp(&b),
            (CellRef::Str(a), CellRef::Str(b)) => a.cmp(b),
            (CellRef::Int(a), CellRef::Double(b)) => cmp_int_double(a, b),
            (CellRef::Double(a), CellRef::Int(b)) => cmp_int_double(b, a).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    /// Order-preserving 8-byte normalized key: for any two cells,
    /// `a.norm_prefix() < b.norm_prefix()` implies `a.order(b) == Less`, so
    /// a sort compares the prefixes inline and falls through to
    /// [`ColumnVec::compare`] only on a tie.
    ///
    /// One scale serves every type, which is what lets a heterogeneous
    /// column (or a column whose batches differ in representation) share it:
    /// numerics take the lower half — the sign-flipped total-order bits of
    /// the value's `f64` image — strings the upper half as their first eight
    /// bytes big-endian, NULL the maximum (NULLS LAST). Rounding an INT to
    /// its nearest `f64` never reverses an order, it only makes ties, and so
    /// does the low bit each half gives up: integers beyond ±2^52 (against
    /// each other or a DOUBLE) and strings agreeing on 63 bits fall through
    /// to the exact compare.
    #[inline]
    pub fn norm_prefix(self) -> u64 {
        match self {
            CellRef::Null => u64::MAX,
            CellRef::Int(v) => numeric_prefix(v as f64),
            CellRef::Double(d) => numeric_prefix(d),
            CellRef::Str(s) => str_prefix(s.as_bytes()),
        }
    }
}

/// Lower half of the normalized-key scale: `f64::total_cmp` order as an
/// ascending unsigned integer, shifted under the string half.
#[inline]
fn numeric_prefix(d: f64) -> u64 {
    let bits = d.to_bits();
    let flipped = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
    flipped >> 1
}

/// Upper half of the normalized-key scale: the first eight bytes,
/// zero-padded, big-endian.
#[inline]
fn str_prefix(b: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = b.len().min(8);
    head[..n].copy_from_slice(&b[..n]);
    (1 << 63) | (u64::from_be_bytes(head) >> 1)
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

    /// Orders cell `i` against cell `j` of `other` exactly as
    /// [`CellRef::order`] (and so [`Value`]'s `Ord`) would, comparing typed
    /// storage in place: no `CellRef`, no UTF-8 check.
    #[inline]
    pub fn compare(&self, i: usize, other: &ColumnVec, j: usize) -> Ordering {
        match (self.nulls.get(i), other.nulls.get(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            (false, false) => {}
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Double(a), ColumnData::Double(b)) => a[i].total_cmp(&b[j]),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.bytes_at(i).cmp(b.bytes_at(j)),
            _ => self.cell(i).order(other.cell(j)),
        }
    }

    /// Writes [`CellRef::norm_prefix`] of every cell to
    /// `out[row * stride + at]`, one typed pass. Returns whether the
    /// prefixes are *exact* for this column: equal prefixes then mean equal
    /// cells, and a tie needs no typed compare. That holds for an `Int`
    /// column within ±2^52 (its `f64` image loses nothing) and for a `Str`
    /// column of at most seven bytes a cell, none ending in a NUL (the
    /// zero padding then hides nothing).
    fn write_norm_prefixes(&self, out: &mut [u64], stride: usize, at: usize) -> bool {
        let slots = out.iter_mut().skip(at).step_by(stride);
        let nulls = &self.nulls;
        let mut exact = true;
        match &self.data {
            ColumnData::Int(v) => {
                for (i, (slot, &x)) in slots.zip(v).enumerate() {
                    exact &= x.unsigned_abs() >> 52 == 0;
                    *slot = match nulls.any() && nulls.get(i) {
                        true => u64::MAX,
                        false => numeric_prefix(x as f64),
                    };
                }
            }
            ColumnData::Str(a) => {
                for (i, slot) in slots.enumerate() {
                    let b = a.bytes_at(i);
                    exact &= b.len() < 8 && b.last() != Some(&0);
                    *slot = match nulls.any() && nulls.get(i) {
                        true => u64::MAX,
                        false => str_prefix(b),
                    };
                }
            }
            ColumnData::Double(_) | ColumnData::Mixed(_) => {
                exact = false;
                for (i, slot) in slots.enumerate() {
                    *slot = self.cell(i).norm_prefix();
                }
            }
        }
        exact
    }

    /// The first row in `from..limit` whose cell is not equal to cell
    /// `first` — `limit` when there is none: where the run of equal cells
    /// that row `first` belongs to ends. Equal means [`ColumnVec::compare`]
    /// says `Equal`, which is `Value`'s `==`.
    pub fn run_end(&self, first: usize, from: usize, limit: usize) -> usize {
        let found = match &self.data {
            ColumnData::Int(v) if !self.nulls.any() => {
                let x = v[first];
                v[from..limit].iter().position(|&y| y != x)
            }
            ColumnData::Str(a) if !self.nulls.any() => {
                let x = a.bytes_at(first);
                (from..limit).position(|i| a.bytes_at(i) != x)
            }
            _ => (from..limit).position(|i| self.compare(first, self, i) != Ordering::Equal),
        };
        found.map_or(limit, |at| from + at)
    }

    /// Adds every cell's [`Value::byte_size`] to its row's slot in `sizes`,
    /// one typed pass.
    fn add_byte_sizes(&self, sizes: &mut [u32]) {
        let nulls = &self.nulls;
        match &self.data {
            ColumnData::Int(_) | ColumnData::Double(_) if !nulls.any() => {
                sizes.iter_mut().for_each(|s| *s += 9);
            }
            ColumnData::Int(_) | ColumnData::Double(_) => {
                for (i, s) in sizes.iter_mut().enumerate() {
                    *s += if nulls.get(i) { 1 } else { 9 };
                }
            }
            ColumnData::Str(a) => {
                for (i, s) in sizes.iter_mut().enumerate() {
                    *s += if nulls.get(i) {
                        1
                    } else {
                        5 + a.bytes_at(i).len() as u32
                    };
                }
            }
            ColumnData::Mixed(v) => {
                for (s, x) in sizes.iter_mut().zip(v) {
                    *s += x.byte_size() as u32;
                }
            }
        }
    }
}

/// One column resolved for boxing rows: its typed storage when it has no
/// NULLs, the per-cell path otherwise.
enum CellView<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
    Cells(&'a ColumnVec),
}

impl<'a> CellView<'a> {
    fn of(col: &'a ColumnVec) -> Self {
        match &col.data {
            ColumnData::Int(v) if !col.nulls.any() => CellView::Int(v),
            ColumnData::Double(v) if !col.nulls.any() => CellView::Double(v),
            _ => CellView::Cells(col),
        }
    }

    #[inline]
    fn value(&self, i: usize) -> Value {
        match self {
            CellView::Int(v) => Value::Int(v[i]),
            CellView::Double(v) => Value::Double(v[i]),
            CellView::Cells(c) => c.value_at(i),
        }
    }
}

/// The normalized keys of a batch's rows under a [`KeySpec`]: one
/// [`CellRef::norm_prefix`] per key column per physical row, row-major, so
/// that comparing two rows walks two short dense arrays and touches column
/// storage only where a prefix tie is not already decisive.
///
/// The comparison charges what [`KeySpec::compare_counting`] charges for
/// the same two rows boxed — `first differing key column + 1`, all columns
/// when equal — because it walks the columns in the same order and stops at
/// the same one.
#[derive(Debug, Default)]
pub struct NormKeys {
    width: usize,
    prefixes: Vec<u64>,
    /// Per key column: prefix equality is cell equality (see
    /// `ColumnVec::write_norm_prefixes`).
    exact: Vec<bool>,
}

impl NormKeys {
    /// Normalizes every physical row of `batch` under `key`.
    pub fn new(batch: &ColumnarBatch, key: &KeySpec) -> NormKeys {
        let width = key.len();
        let mut prefixes = vec![0u64; batch.num_rows() * width];
        let exact = key
            .cols()
            .iter()
            .enumerate()
            .map(|(at, &c)| {
                batch
                    .column(c)
                    .write_norm_prefixes(&mut prefixes, width, at)
            })
            .collect();
        NormKeys {
            width,
            prefixes,
            exact,
        }
    }

    /// Row `row`'s prefix of the first key column (0 under an empty key):
    /// what a sort entry carries inline.
    #[inline]
    pub fn first(&self, row: usize) -> u64 {
        match self.width {
            0 => 0,
            w => self.prefixes[row * w],
        }
    }

    /// Whether every key column's prefixes are exact: two rows whose
    /// prefixes all tie are then equal, and [`NormKeys::compare_exact`]
    /// orders them without reaching into column storage.
    pub fn is_exact(&self) -> bool {
        self.exact.iter().all(|&e| e)
    }

    /// [`NormKeys::compare`] of row `i` against row `j` of `other`, for two
    /// batches that are both [`NormKeys::is_exact`]: the same ordering and
    /// the same charge, read off the prefixes alone.
    #[inline]
    pub fn compare_exact(&self, i: usize, other: &NormKeys, j: usize) -> (Ordering, u64) {
        let w = self.width;
        let (pa, pb) = (
            &self.prefixes[i * w..(i + 1) * w],
            &other.prefixes[j * w..(j + 1) * w],
        );
        for (n, (x, y)) in (1..).zip(pa.iter().zip(pb)) {
            if x != y {
                return (x.cmp(y), n);
            }
        }
        (Ordering::Equal, w as u64)
    }

    /// Orders row `i` of `a` against row `j` of `b` under `key` — `self`
    /// being `a`'s keys and `other` `b`'s — returning the ordering and the
    /// scalar comparisons to charge.
    #[inline]
    pub fn compare(
        &self,
        a: &ColumnarBatch,
        i: usize,
        other: &NormKeys,
        b: &ColumnarBatch,
        j: usize,
        key: &KeySpec,
    ) -> (Ordering, u64) {
        let w = self.width;
        let (pa, pb) = (
            &self.prefixes[i * w..(i + 1) * w],
            &other.prefixes[j * w..(j + 1) * w],
        );
        let mut n = 0;
        for (c, (x, y)) in pa.iter().zip(pb).enumerate() {
            n += 1;
            if x != y {
                return (x.cmp(y), n);
            }
            if !(self.exact[c] && other.exact[c]) {
                let col = key.cols()[c];
                match a.column(col).compare(i, b.column(col), j) {
                    Ordering::Equal => {}
                    non_eq => return (non_eq, n),
                }
            }
        }
        (Ordering::Equal, n)
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
    #[inline]
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
    #[inline]
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
    #[inline]
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
    #[inline]
    pub fn push_str_bytes(&mut self, b: &[u8]) {
        match &mut self.rep {
            BuilderRep::Untyped => {
                let mut a = StrArena::new();
                a.extend_empty(self.len);
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
        match sel {
            Some(sel) => self.append_gather(col, sel),
            None => self.append_range(col, 0, col.len()),
        }
    }

    /// Appends `n` NULL cells: one placeholder fill and one bitmap fill.
    pub fn push_nulls(&mut self, n: usize) {
        match &mut self.rep {
            BuilderRep::Untyped => {}
            BuilderRep::Int(v) => v.resize(v.len() + n, 0),
            BuilderRep::Double(v) => v.resize(v.len() + n, 0.0),
            BuilderRep::Str(a) => a.extend_empty(n),
            BuilderRep::Mixed(v) => v.resize(v.len() + n, Value::Null),
        }
        self.nulls.extend(n, true);
        self.len += n;
    }

    /// Appends integer cells, in order, as [`ColumnBuilder::push_int`] on
    /// each would: one typed extend while the builder holds integers (or
    /// only NULLs so far), cell by cell otherwise.
    pub fn extend_ints(&mut self, xs: impl ExactSizeIterator<Item = i64>) {
        if xs.len() > 0 && matches!(self.rep, BuilderRep::Untyped) {
            self.rep = BuilderRep::Int(vec![0; self.len]);
        }
        let BuilderRep::Int(v) = &mut self.rep else {
            return xs.for_each(|x| self.push_int(x));
        };
        let before = v.len();
        v.extend(xs);
        let n = v.len() - before;
        self.extend_present(n);
    }

    /// [`ColumnBuilder::extend_ints`] for double cells (bit patterns
    /// preserved).
    pub fn extend_doubles(&mut self, xs: impl ExactSizeIterator<Item = f64>) {
        if xs.len() > 0 && matches!(self.rep, BuilderRep::Untyped) {
            self.rep = BuilderRep::Double(vec![0.0; self.len]);
        }
        let BuilderRep::Double(v) = &mut self.rep else {
            return xs.for_each(|x| self.push_double(x));
        };
        let before = v.len();
        v.extend(xs);
        let n = v.len() - before;
        self.extend_present(n);
    }

    /// Accounts for `n` non-NULL cells just appended to the typed storage.
    fn extend_present(&mut self, n: usize) {
        self.nulls.extend(n, false);
        self.len += n;
    }

    /// Appends cell `i` of `col`, copying typed storage directly when the
    /// representations line up.
    #[inline]
    pub fn push_from(&mut self, col: &ColumnVec, i: usize) {
        if col.nulls.get(i) {
            return self.push_null();
        }
        match (&mut self.rep, &col.data) {
            (BuilderRep::Int(dst), ColumnData::Int(src)) => dst.push(src[i]),
            (BuilderRep::Double(dst), ColumnData::Double(src)) => dst.push(src[i]),
            (BuilderRep::Str(dst), ColumnData::Str(src)) => dst.push_bytes(src.bytes_at(i)),
            _ => return self.push_cell(col.cell(i)),
        }
        self.nulls.push(false);
        self.len += 1;
    }

    /// While only NULLs (or nothing) have been pushed, adopts `data`'s
    /// representation so typed appends can copy storage directly.
    fn adopt(&mut self, data: &ColumnData) {
        if matches!(self.rep, BuilderRep::Untyped) {
            self.rep = match data {
                ColumnData::Int(_) => BuilderRep::Int(vec![0; self.len]),
                ColumnData::Double(_) => BuilderRep::Double(vec![0.0; self.len]),
                ColumnData::Str(_) => {
                    let mut a = StrArena::new();
                    a.extend_empty(self.len);
                    BuilderRep::Str(a)
                }
                ColumnData::Mixed(_) => BuilderRep::Mixed(vec![Value::Null; self.len]),
            };
        }
    }

    /// Appends rows `start..end` of `col`: a slice copy of the typed storage
    /// when the representations line up, cell by cell otherwise.
    pub fn append_range(&mut self, col: &ColumnVec, start: usize, end: usize) {
        let n = end - start;
        self.adopt(&col.data);
        match (&mut self.rep, &col.data) {
            (BuilderRep::Int(dst), ColumnData::Int(src)) => {
                dst.extend_from_slice(&src[start..end]);
            }
            (BuilderRep::Double(dst), ColumnData::Double(src)) => {
                dst.extend_from_slice(&src[start..end]);
            }
            (BuilderRep::Str(dst), ColumnData::Str(src)) => dst.extend_range(src, start, end),
            _ => {
                for i in start..end {
                    self.push_cell(col.cell(i));
                }
                return;
            }
        }
        if col.nulls.any() {
            for i in start..end {
                self.nulls.push(col.nulls.get(i));
            }
        } else {
            self.nulls.extend(n, false);
        }
        self.len += n;
    }

    /// Appends the rows of `col` at `idx`, in `idx` order (any order,
    /// repeats allowed); an index of [`NULL_ROW`] appends a NULL cell — the
    /// padding side of an outer join. With no NULL in sight and the
    /// representations lined up it is one typed dispatch, then a tight
    /// loop; otherwise cell by cell.
    pub fn append_gather(&mut self, col: &ColumnVec, idx: &[u32]) {
        self.adopt(&col.data);
        let plain = !col.nulls.any() && !idx.contains(&NULL_ROW);
        match (&mut self.rep, &col.data) {
            (BuilderRep::Int(dst), ColumnData::Int(src)) if plain => {
                dst.extend(idx.iter().map(|&i| src[i as usize]));
            }
            (BuilderRep::Double(dst), ColumnData::Double(src)) if plain => {
                dst.extend(idx.iter().map(|&i| src[i as usize]));
            }
            (BuilderRep::Str(dst), ColumnData::Str(src)) if plain => {
                for &i in idx {
                    dst.push_bytes(src.bytes_at(i as usize));
                }
            }
            _ => {
                for &i in idx {
                    match i {
                        NULL_ROW => self.push_null(),
                        i => self.push_from(col, i as usize),
                    }
                }
                return;
            }
        }
        self.nulls.extend(idx.len(), false);
        self.len += idx.len();
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

    /// Converts row-oriented tuples into a columnar batch (how in-memory
    /// rows enter a plan).
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
        let mut out = Vec::new();
        self.append_rows(&mut out);
        out
    }

    /// [`ColumnarBatch::to_rows`], appended to `out`: each column's type
    /// and NULLs are looked at once per batch, not once per cell.
    pub fn append_rows(&self, out: &mut Vec<Tuple>) {
        let views: Vec<CellView<'_>> = self.columns.iter().map(|c| CellView::of(c)).collect();
        let row = |i: usize| Tuple::new(views.iter().map(|v| v.value(i)).collect());
        out.reserve(self.len());
        match &self.sel {
            Some(sel) => out.extend(sel.iter().map(|&i| row(i as usize))),
            None => out.extend((0..self.rows).map(row)),
        }
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

    /// A dense batch holding the physical rows at `idx`, in `idx` order —
    /// how sorts and joins emit. [`NULL_ROW`] entries become all-NULL rows.
    pub fn gather(&self, idx: &[u32]) -> ColumnarBatch {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut b = ColumnBuilder::new();
                b.append_gather(c, idx);
                Arc::new(b.finish())
            })
            .collect();
        Self::from_columns(columns, idx.len())
    }

    /// The same rows without a selection vector: the batch itself when it
    /// has none, a gathered copy of the selected rows otherwise.
    pub fn into_dense(self) -> ColumnarBatch {
        match &self.sel {
            None => self,
            Some(sel) => self.gather(sel),
        }
    }

    /// A dense batch of this batch's physical rows `from..` followed by the
    /// selected rows of `next` — how a streaming consumer carries the rows
    /// of a still-open group over to its next input batch, so a group never
    /// straddles two batches.
    pub fn carry_into(&self, from: usize, next: &ColumnarBatch) -> ColumnarBatch {
        debug_assert_eq!(self.arity(), next.arity());
        let rows = self.rows - from + next.len();
        let columns = self
            .columns
            .iter()
            .zip(&next.columns)
            .map(|(a, b)| {
                let mut out = ColumnBuilder::new();
                out.append_range(a, from, self.rows);
                out.append_column(b, next.sel());
                Arc::new(out.finish())
            })
            .collect();
        Self::from_columns(columns, rows)
    }

    /// [`Tuple::byte_size`] of every physical row, computed column at a
    /// time — what a sort's memory budget is charged in.
    pub fn row_byte_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![16u32; self.rows];
        for c in &self.columns {
            c.add_byte_sizes(&mut sizes);
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(rows: Vec<Tuple>) {
        let batch = ColumnarBatch::from_rows(&rows);
        assert_eq!(batch.len(), rows.len());
        let back = batch.to_rows();
        // Debug text names each cell's variant: `==` takes `Int(9)` for
        // `Double(9.0)`.
        assert_eq!(format!("{rows:?}"), format!("{back:?}"));
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

    /// `extend` appends exactly what as many `push`es append — bits, length
    /// and count — from any starting offset, across word boundaries.
    #[test]
    fn null_bitmap_extend_matches_pushes() {
        for start in [0usize, 1, 63, 64, 65] {
            for n in [0usize, 63, 64, 65, 130] {
                for is_null in [false, true] {
                    let (mut bulk, mut one) = (NullBitmap::new(), NullBitmap::new());
                    for i in 0..start {
                        bulk.push(i % 2 == 0);
                        one.push(i % 2 == 0);
                    }
                    bulk.extend(n, is_null);
                    (0..n).for_each(|_| one.push(is_null));
                    assert_eq!(bulk, one, "start {start}, {n} x {is_null}");
                    assert_eq!(bulk.len(), start + n);
                    assert_eq!(
                        bulk.count(),
                        start.div_ceil(2) + if is_null { n } else { 0 }
                    );
                    for i in [63, 64, 65, 127, 128, 129] {
                        if i < bulk.len() {
                            let expect = if i < start { i % 2 == 0 } else { is_null };
                            assert_eq!(bulk.get(i), expect, "bit {i}");
                        }
                    }
                }
            }
        }
        assert_eq!(NullBitmap::all_null(65).count(), 65);
        assert!(!NullBitmap::all_null(0).any());
    }

    #[test]
    fn str_arena_extend_empty_appends_empty_cells() {
        for n in [0usize, 63, 64, 65, 130] {
            let (mut bulk, mut one) = (StrArena::new(), StrArena::new());
            bulk.push("ab");
            one.push("ab");
            bulk.extend_empty(n);
            (0..n).for_each(|_| one.push(""));
            bulk.push("c");
            one.push("c");
            assert_eq!(bulk, one);
            assert_eq!(bulk.len(), n + 2);
            assert_eq!(bulk.get(n + 1), "c");
        }
    }

    /// Builders that have seen nothing, only NULLs, and each
    /// representation, plus one of each that turned Mixed.
    fn builders_in_every_state() -> Vec<ColumnBuilder> {
        let seeds: [&[Value]; 7] = [
            &[],
            &[Value::Null, Value::Null],
            &[Value::Int(1), Value::Null],
            &[Value::Double(-0.0)],
            &[Value::Str("abcdefghij".into()), Value::Null],
            &[Value::Int(1), Value::Str(String::new())],
            &[Value::Str("x".into()), Value::Double(2.5)],
        ];
        seeds
            .iter()
            .map(|vals| {
                let mut b = ColumnBuilder::new();
                vals.iter().for_each(|v| b.push_value(v));
                b
            })
            .collect()
    }

    fn rep(col: &ColumnVec) -> &'static str {
        match col.data() {
            ColumnData::Int(_) => "int",
            ColumnData::Double(_) => "double",
            ColumnData::Str(_) => "str",
            ColumnData::Mixed(_) => "mixed",
        }
    }

    /// Representation, cells (doubles by their bits) and null bits of a
    /// column.
    fn picture(col: &ColumnVec) -> String {
        let cells: Vec<String> = (0..col.len())
            .map(|i| match col.cell(i) {
                CellRef::Double(d) => format!("Double({:#x})", d.to_bits()),
                c => format!("{c:?}"),
            })
            .collect();
        format!("{} {cells:?} {:?}", rep(col), col.nulls())
    }

    /// Each bulk append leaves a builder — whatever it already holds — as
    /// the same cells pushed one at a time would.
    #[test]
    fn bulk_appends_match_cell_pushes_in_every_builder_state() {
        let ints = [3i64, -1, i64::MIN];
        let doubles = [f64::from_bits(0xfff8_0000_0000_0007), -0.0, f64::INFINITY];
        for what in ["ints", "doubles", "nulls"] {
            for n in [0, 1, 3] {
                let pairs = builders_in_every_state()
                    .into_iter()
                    .zip(builders_in_every_state());
                for (state, (mut bulk, mut one)) in pairs.enumerate() {
                    match what {
                        "ints" => {
                            bulk.extend_ints(ints[..n].iter().copied());
                            ints[..n].iter().for_each(|&x| one.push_int(x));
                        }
                        "doubles" => {
                            bulk.extend_doubles(doubles[..n].iter().copied());
                            doubles[..n].iter().for_each(|&x| one.push_double(x));
                        }
                        _ => {
                            bulk.push_nulls(n);
                            (0..n).for_each(|_| one.push_null());
                        }
                    }
                    // A later value must find the same representation too.
                    bulk.push_double(0.5);
                    one.push_double(0.5);
                    assert_eq!(
                        picture(&bulk.finish()),
                        picture(&one.finish()),
                        "{what} x {n} in state {state}"
                    );
                }
            }
        }
    }

    /// `to_rows` (and `append_rows` after rows already there) box exactly
    /// `row_at` of each selected row — every representation, with and
    /// without NULLs, with and without a selection — bit for bit.
    #[test]
    fn to_rows_equals_row_at_for_every_column_kind() {
        let n = 70i64;
        let columns = |with_nulls: bool| -> Vec<Vec<Value>> {
            let null_or = |i: i64, v: Value| match with_nulls && i % 9 == 4 {
                true => Value::Null,
                false => v,
            };
            vec![
                (0..n)
                    .map(|i| null_or(i, Value::Int(i * 1_000_003)))
                    .collect(),
                (0..n)
                    .map(|i| {
                        null_or(
                            i,
                            Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | i as u64)),
                        )
                    })
                    .collect(),
                (0..n)
                    .map(|i| null_or(i, Value::Double(-(i as f64) * 0.0)))
                    .collect(),
                (0..n)
                    .map(|i| null_or(i, Value::Str("é".repeat(i as usize % 11))))
                    .collect(),
                (0..n)
                    .map(|i| match i % 3 {
                        0 => null_or(i, Value::Int(i)),
                        1 => Value::Str(format!("m{i}")),
                        _ => Value::Double(i as f64 + 0.5),
                    })
                    .collect(),
                (0..n).map(|_| Value::Null).collect(),
            ]
        };
        let bits = |rows: &[Tuple]| -> Vec<String> {
            rows.iter()
                .flat_map(|t| t.values())
                .map(|v| match v {
                    Value::Double(d) => format!("Double({:#x})", d.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        };
        for with_nulls in [false, true] {
            let cols = columns(with_nulls);
            let rows: Vec<Tuple> = (0..n as usize)
                .map(|i| Tuple::new(cols.iter().map(|c| c[i].clone()).collect()))
                .collect();
            let mut batch = ColumnarBatch::from_rows(&rows);
            let reps: Vec<&str> = batch.columns().iter().map(|c| rep(c)).collect();
            assert_eq!(reps, ["int", "double", "double", "str", "mixed", "int"]);
            for sel in [None, Some(vec![0u32, 4, 5, 63, 64, 69]), Some(vec![])] {
                if let Some(sel) = &sel {
                    batch.set_sel(sel.clone());
                }
                let idx: Vec<usize> = match &sel {
                    Some(sel) => sel.iter().map(|&i| i as usize).collect(),
                    None => (0..n as usize).collect(),
                };
                let expect: Vec<Tuple> = idx.iter().map(|&i| batch.row_at(i)).collect();
                assert_eq!(
                    bits(&batch.to_rows()),
                    bits(&expect),
                    "nulls {with_nulls}, sel {sel:?}"
                );
                let mut out = vec![rows[1].clone()];
                batch.append_rows(&mut out);
                assert_eq!(bits(&out[1..]), bits(&expect));
                assert_eq!(bits(&out[..1]), bits(&rows[1..2]));
            }
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

    /// Every kind of cell, including the pairs an 8-byte prefix cannot
    /// tell apart: both zeros, NaNs of both signs, integers past 2^53, the
    /// empty string against NULL, strings agreeing on 8+ bytes or differing
    /// only by a trailing NUL.
    fn every_kind_of_value() -> Vec<Value> {
        let mut vals = vec![Value::Null];
        for i in [i64::MIN, -7, -1, 0, 1, 2, 1 << 53, (1 << 53) + 1, i64::MAX] {
            vals.push(Value::Int(i));
        }
        for d in [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.0,
            2.5,
            9007199254740992.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            vals.push(Value::Double(d));
        }
        for s in [
            "",
            "\0",
            "a",
            "ab",
            "ab\0",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefgi",
            "\u{10ffff}\u{10ffff}",
        ] {
            vals.push(Value::Str(s.into()));
        }
        vals
    }

    fn one_column(vals: &[Value]) -> ColumnarBatch {
        let rows: Vec<Tuple> = vals.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        ColumnarBatch::from_rows(&rows)
    }

    #[test]
    fn norm_prefix_never_contradicts_value_order() {
        let vals = every_kind_of_value();
        for a in &vals {
            for b in &vals {
                let (pa, pb) = (
                    CellRef::from_value(a).norm_prefix(),
                    CellRef::from_value(b).norm_prefix(),
                );
                if pa != pb {
                    assert_eq!(pa.cmp(&pb), a.cmp(b), "prefixes of {a:?} and {b:?}");
                }
            }
        }
    }

    /// The normalized key — prefix first, typed compare on a tie unless the
    /// column's prefixes are exact — orders every pair of values exactly as
    /// `Value::cmp`, whether the two sit in one heterogeneous column or in
    /// two batches of different representations, and charges one
    /// comparison for the one key column.
    #[test]
    fn normalized_key_orders_every_pair_as_value_cmp() {
        let key = KeySpec::new(vec![0]);
        let vals = every_kind_of_value();
        let is = |f: fn(&Value) -> bool| -> Vec<Value> {
            let mut some: Vec<Value> = vals.iter().filter(|v| f(v)).cloned().collect();
            some.push(Value::Null);
            some
        };
        let groups = [
            vals.clone(),
            is(|v| matches!(v, Value::Int(_))),
            is(|v| matches!(v, Value::Int(i) if i.unsigned_abs() < 100)),
            is(|v| matches!(v, Value::Double(_))),
            is(|v| matches!(v, Value::Str(_))),
            is(|v| matches!(v, Value::Str(s) if s.len() < 8 && !s.ends_with('\0'))),
        ];
        let keyed: Vec<(ColumnarBatch, NormKeys)> = groups
            .iter()
            .map(|g| {
                let batch = one_column(g);
                let norms = NormKeys::new(&batch, &key);
                (batch, norms)
            })
            .collect();
        // Small integers and short strings are exact; nothing else is.
        let exact: Vec<bool> = keyed.iter().map(|(_, n)| n.exact[0]).collect();
        assert_eq!(exact, [false, false, true, false, false, true]);
        for (ga, (ba, na)) in groups.iter().zip(&keyed) {
            for (gb, (bb, nb)) in groups.iter().zip(&keyed) {
                for (i, a) in ga.iter().enumerate() {
                    for (j, b) in gb.iter().enumerate() {
                        assert_eq!(
                            na.compare(ba, i, nb, bb, j, &key),
                            (a.cmp(b), 1),
                            "{a:?} vs {b:?}"
                        );
                        assert_eq!(ba.column(0).compare(i, bb.column(0), j), a.cmp(b));
                        assert_eq!(na.first(i), CellRef::from_value(a).norm_prefix());
                    }
                }
            }
        }
    }

    #[test]
    fn multi_column_normalized_compare_counts_like_compare_counting() {
        let rows: Vec<Tuple> = [(1, "x", 2.0), (1, "x", 3.0), (1, "y", 0.0), (2, "a", 0.0)]
            .iter()
            .map(|&(a, b, c)| {
                Tuple::new(vec![Value::Int(a), Value::Str(b.into()), Value::Double(c)])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let key = KeySpec::new(vec![0, 1, 2]);
        let norms = NormKeys::new(&batch, &key);
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                let expect = key.compare_counting(a, b);
                assert_eq!(norms.compare(&batch, i, &norms, &batch, j, &key), expect);
                assert_eq!(key.compare_columnar(&batch, i, &batch, j), expect);
            }
        }
        // No key columns: every pair ties for free.
        let none = KeySpec::default();
        let norms = NormKeys::new(&batch, &none);
        assert_eq!(norms.first(2), 0);
        assert_eq!(
            norms.compare(&batch, 0, &norms, &batch, 3, &none),
            (Ordering::Equal, 0)
        );
    }

    /// `group_end` must find the boundary, and charge for it, exactly as
    /// testing row after row against the group's first row would.
    #[test]
    fn group_end_matches_row_by_row_testing() {
        let rows: Vec<Tuple> = (0..200i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i / 90),
                    if i % 40 == 39 {
                        Value::Null
                    } else {
                        Value::Str(format!("s{}", i / 7))
                    },
                    Value::Double(if i == 100 { f64::NAN } else { (i / 3) as f64 }),
                ])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        for cols in [vec![0], vec![0, 1], vec![1, 0], vec![0, 1, 2], vec![]] {
            let key = KeySpec::new(cols);
            for first in [0usize, 5, 89, 100, 199] {
                for limit in [first + 1, 150.max(first + 1), 200] {
                    let mut cost = 0;
                    let mut end = limit;
                    for (i, row) in rows.iter().enumerate().take(limit).skip(first + 1) {
                        let differs = key
                            .cols()
                            .iter()
                            .position(|&c| rows[first].get(c).cmp(row.get(c)) != Ordering::Equal);
                        cost += differs.map_or(key.len(), |at| at + 1) as u64;
                        if differs.is_some() {
                            end = i;
                            break;
                        }
                    }
                    assert_eq!(
                        key.group_end(&batch, first, first + 1, limit),
                        (end, cost),
                        "{key:?} first={first} limit={limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_byte_sizes_match_tuple_byte_size() {
        let vals = every_kind_of_value();
        let rows: Vec<Tuple> = (0..vals.len())
            .map(|i| {
                Tuple::new(vec![
                    vals[i].clone(),
                    Value::Int(i as i64),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Str("x".repeat(i))
                    },
                ])
            })
            .collect();
        let sizes = ColumnarBatch::from_rows(&rows).row_byte_sizes();
        let expect: Vec<u32> = rows.iter().map(|t| t.byte_size() as u32).collect();
        assert_eq!(sizes, expect);
    }

    #[test]
    fn gather_range_and_carry_build_the_rows_asked_for() {
        let vals = every_kind_of_value();
        let rows: Vec<Tuple> = (0..vals.len())
            .map(|i| {
                Tuple::new(vec![
                    vals[i].clone(),
                    Value::Int(i as i64),
                    Value::Str(format!("r{i}")),
                ])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let show = |b: &ColumnarBatch| format!("{:?}", b.to_rows());
        // Gather: any order, repeats, and NULL_ROW padding.
        let idx = [5u32, 0, NULL_ROW, 5, 29];
        let expect: Vec<Tuple> = idx
            .iter()
            .map(|&i| match i {
                NULL_ROW => Tuple::new(vec![Value::Null; 3]),
                i => rows[i as usize].clone(),
            })
            .collect();
        assert_eq!(show(&batch.gather(&idx)), format!("{expect:?}"));
        // Carry: the tail of one batch in front of the selected rows of the
        // next, as one dense batch.
        let mut next = ColumnarBatch::from_rows(&rows[..10]);
        next.set_sel(vec![1, 4, 9]);
        let carried = batch.carry_into(27, &next);
        let mut expect = rows[27..].to_vec();
        expect.extend([rows[1].clone(), rows[4].clone(), rows[9].clone()]);
        assert!(carried.sel().is_none());
        assert_eq!(show(&carried), format!("{expect:?}"));
        assert_eq!(
            show(&next.clone().into_dense()),
            format!("{:?}", &expect[3..])
        );
        // A typed range appended after NULLs only: the builder adopts the
        // type and back-fills placeholders.
        let ints = ColumnarBatch::from_rows(&rows);
        let mut b = ColumnBuilder::new();
        b.push_nulls(2);
        b.append_range(ints.column(1), 3, 6);
        b.push_from(ints.column(1), 7);
        let col = b.finish();
        assert!(matches!(col.data(), ColumnData::Int(_)));
        let got: Vec<Value> = (0..col.len()).map(|i| col.value_at(i)).collect();
        let int = Value::Int;
        assert_eq!(
            got,
            [Value::Null, Value::Null, int(3), int(4), int(5), int(7)]
        );
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
