//! Byte-level tuple encoding into fixed-size pages.
//!
//! Layout: `[u16 tuple_count] [tuple]*` where each tuple is
//! `[u16 value_count] [value]*` and each value is a 1-byte tag followed by
//! its payload (`Int`/`Double`: 8 bytes LE; `Str`: u16 length + bytes).
//! Simple, compact, and deliberately *real* — the sort experiments must pay
//! genuine serialization CPU, like the systems the paper measured.

use pyro_common::{
    ColumnBuilder, ColumnData, ColumnVec, DataType, PyroError, Result, Tuple, Value,
};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

/// Encoded size of one tuple, including its count header.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Double(_) => 9,
            Value::Str(s) => 3 + s.len(),
        })
        .sum::<usize>()
}

fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for v in tuple.values() {
        encode_value(v, out);
    }
}

#[inline]
fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => encode_str(s.as_bytes(), out),
    }
}

#[inline]
fn encode_str(s: &[u8], out: &mut Vec<u8>) {
    out.push(TAG_STR);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s);
}

/// Encodes physical row `row` of `cols` byte for byte as [`encode_tuple`]
/// encodes the same row boxed, reading typed storage in place.
fn encode_row(cols: &[Arc<ColumnVec>], row: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for c in cols {
        if c.is_null(row) {
            out.push(TAG_NULL);
            continue;
        }
        match c.data() {
            ColumnData::Int(v) => {
                out.push(TAG_INT);
                out.extend_from_slice(&v[row].to_le_bytes());
            }
            ColumnData::Double(v) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&v[row].to_le_bytes());
            }
            ColumnData::Str(a) => encode_str(a.bytes_at(row), out),
        }
    }
}

/// Accumulates tuples into a page-sized byte buffer.
#[derive(Debug)]
pub struct PageBuilder {
    capacity: usize,
    buf: Vec<u8>,
    count: u16,
}

impl PageBuilder {
    /// A builder for pages of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity);
        buf.extend_from_slice(&0u16.to_le_bytes());
        PageBuilder {
            capacity,
            buf,
            count: 0,
        }
    }

    /// Tries to append; returns `false` (leaving the page unchanged) when
    /// the tuple does not fit. Errors only if the tuple cannot fit even in
    /// an *empty* page.
    pub fn try_push(&mut self, tuple: &Tuple) -> Result<bool> {
        let need = encoded_len(tuple);
        if 2 + need > self.capacity {
            return Err(PyroError::Storage(format!(
                "tuple of {need} encoded bytes exceeds page capacity {}",
                self.capacity
            )));
        }
        if self.buf.len() + need > self.capacity {
            return Ok(false);
        }
        encode_tuple(tuple, &mut self.buf);
        self.count += 1;
        self.buf[0..2].copy_from_slice(&self.count.to_le_bytes());
        Ok(true)
    }

    /// [`PageBuilder::try_push`] for physical row `row` of `cols` — same
    /// bytes, same page boundaries, same error, no boxed tuple. Returns the
    /// row's encoded length, or `None` when it does not fit this page.
    pub fn try_push_row(&mut self, cols: &[Arc<ColumnVec>], row: usize) -> Result<Option<usize>> {
        // Encode first, keep it only if it fits: one pass over the cells.
        let start = self.buf.len();
        encode_row(cols, row, &mut self.buf);
        let need = self.buf.len() - start;
        if self.buf.len() > self.capacity {
            self.buf.truncate(start);
            if 2 + need > self.capacity {
                return Err(PyroError::Storage(format!(
                    "tuple of {need} encoded bytes exceeds page capacity {}",
                    self.capacity
                )));
            }
            return Ok(None);
        }
        self.count += 1;
        self.buf[0..2].copy_from_slice(&self.count.to_le_bytes());
        Ok(Some(need))
    }

    /// Number of tuples currently in the page.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True iff no tuples have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the page, returning its bytes and resetting the builder.
    pub fn take(&mut self) -> Vec<u8> {
        let mut fresh = Vec::with_capacity(self.capacity);
        fresh.extend_from_slice(&0u16.to_le_bytes());
        self.count = 0;
        std::mem::replace(&mut self.buf, fresh)
    }
}

/// Decodes all tuples from a page produced by [`PageBuilder`].
pub fn decode_page(data: &[u8]) -> Result<Vec<Tuple>> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let arity = read_u16(data, &mut pos)? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = *data
                .get(pos)
                .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
            pos += 1;
            let v = match tag {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(i64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_DOUBLE => Value::Double(f64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_STR => {
                    let len = read_u16(data, &mut pos)? as usize;
                    let bytes = data
                        .get(pos..pos + len)
                        .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
                    pos += len;
                    Value::Str(
                        std::str::from_utf8(bytes)
                            .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?
                            .to_string(),
                    )
                }
                other => {
                    return Err(PyroError::Storage(format!("unknown value tag {other}")));
                }
            };
            values.push(v);
        }
        out.push(Tuple::new(values));
    }
    Ok(out)
}

/// Decodes a page straight into per-column [`ColumnBuilder`]s — the
/// columnar scan path skips `Tuple` boxing entirely: integer and double
/// payloads land in typed vectors, string bytes go into the arena after
/// one UTF-8 validation.
///
/// A page of fixed-width rows is decoded a column at a time (see
/// `decode_fixed_width`); any other page cell by cell. Both leave the
/// builders in the same state and fail on the same pages.
///
/// Every tuple on the page must have arity `builders.len()`, and every
/// cell must be NULL or of its builder's type: a cell tagged with another
/// type is a [`PyroError::Storage`] naming the column, never a re-typed
/// column. Returns the number of rows decoded.
pub fn decode_page_into_builders(data: &[u8], builders: &mut [ColumnBuilder]) -> Result<usize> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    if decode_fixed_width(&data[pos..], count, builders) {
        return Ok(count);
    }
    for _ in 0..count {
        let arity = read_u16(data, &mut pos)? as usize;
        if arity != builders.len() {
            return Err(PyroError::Storage(format!(
                "page tuple arity {arity} does not match column count {}",
                builders.len()
            )));
        }
        for (c, b) in builders.iter_mut().enumerate() {
            let tag = *data
                .get(pos)
                .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
            pos += 1;
            match (tag, b.data_type()) {
                (TAG_NULL, _) => b.push_null(),
                (TAG_INT, DataType::Int) => {
                    b.push_int(i64::from_le_bytes(read_arr(data, &mut pos)?))
                }
                (TAG_DOUBLE, DataType::Double) => {
                    b.push_double(f64::from_le_bytes(read_arr(data, &mut pos)?))
                }
                (TAG_STR, DataType::Str) => {
                    let len = read_u16(data, &mut pos)? as usize;
                    let bytes = data
                        .get(pos..pos + len)
                        .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
                    pos += len;
                    std::str::from_utf8(bytes)
                        .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?;
                    b.push_str_bytes(bytes);
                }
                (TAG_INT | TAG_DOUBLE | TAG_STR, ty) => {
                    let found = [DataType::Int, DataType::Double, DataType::Str][tag as usize - 1];
                    return Err(PyroError::Storage(format!(
                        "column {c} is {ty} but holds a cell tagged {found}"
                    )));
                }
                (other, _) => {
                    return Err(PyroError::Storage(format!("unknown value tag {other}")));
                }
            }
        }
    }
    Ok(count)
}

/// The column-at-a-time half of [`decode_page_into_builders`], for `count`
/// rows starting at the front of `rows`, over INT and DOUBLE builders.
///
/// When every cell of a row is tagged INT or DOUBLE, the row is
/// `2 + 9·k` bytes long, so row `r` starts at `r·(2 + 9·k)`. One pass
/// checks exactly what the cell-by-cell decoder would read at those
/// offsets — the rows fit the bytes, every arity is `k`, and every cell
/// carries its builder's tag — and then each column appends its payloads
/// in one typed extend. Returns `false`, having touched no builder, when
/// any check fails.
fn decode_fixed_width(rows: &[u8], count: usize, builders: &mut [ColumnBuilder]) -> bool {
    let k = builders.len();
    let stride = 2 + 9 * k;
    let (Ok(arity), Some(rows)) = (
        u16::try_from(k),
        count.checked_mul(stride).and_then(|n| rows.get(..n)),
    ) else {
        return false;
    };
    let Some(first) = rows.get(..stride) else {
        return true; // no rows
    };
    let tag = |row: &[u8], c: usize| row[2 + 9 * c];
    let typed = |(c, b): (usize, &ColumnBuilder)| match b.data_type() {
        DataType::Int => tag(first, c) == TAG_INT,
        DataType::Double => tag(first, c) == TAG_DOUBLE,
        DataType::Str => false,
    };
    let fixed = builders.iter().enumerate().all(typed)
        && rows.chunks_exact(stride).all(|row| {
            row[..2] == arity.to_le_bytes() && (0..k).all(|c| tag(row, c) == tag(first, c))
        });
    if !fixed {
        return false;
    }
    for (c, b) in builders.iter_mut().enumerate() {
        let at = 3 + 9 * c;
        let payloads = rows
            .chunks_exact(stride)
            .map(|row| <[u8; 8]>::try_from(&row[at..at + 8]).expect("an 8-byte payload"));
        match b.data_type() {
            DataType::Int => b.extend_ints(payloads.map(i64::from_le_bytes)),
            _ => b.extend_doubles(payloads.map(f64::from_le_bytes)),
        }
    }
    true
}

fn read_u16(data: &[u8], pos: &mut usize) -> Result<u16> {
    let bytes: [u8; 2] = data
        .get(*pos..*pos + 2)
        .ok_or_else(|| PyroError::Storage("truncated page: short u16".into()))?
        .try_into()
        .expect("slice of length 2");
    *pos += 2;
    Ok(u16::from_le_bytes(bytes))
}

fn read_arr<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let bytes: [u8; N] = data
        .get(*pos..*pos + N)
        .ok_or_else(|| PyroError::Storage("truncated page: short payload".into()))?
        .try_into()
        .expect("slice of length N");
    *pos += N;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_common::{CellRef, Column, ColumnarBatch, Schema};

    fn t(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }

    #[test]
    fn roundtrip_mixed_types() {
        let mut b = PageBuilder::new(256);
        let rows = vec![
            t(vec![Value::Int(42), Value::Str("abc".into()), Value::Null]),
            t(vec![
                Value::Double(2.5),
                Value::Int(-1),
                Value::Str("".into()),
            ]),
        ];
        for r in &rows {
            assert!(b.try_push(r).unwrap());
        }
        let decoded = decode_page(&b.take()).unwrap();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn page_fills_and_rejects() {
        let mut b = PageBuilder::new(64);
        let row = t(vec![Value::Int(7), Value::Int(8)]); // 2 + 18 = 20 bytes
        assert!(b.try_push(&row).unwrap()); // 2 + 20 = 22
        assert!(b.try_push(&row).unwrap()); // 42
        assert!(b.try_push(&row).unwrap()); // 62
        assert!(!b.try_push(&row).unwrap()); // would be 82 > 64
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn oversized_tuple_errors() {
        let mut b = PageBuilder::new(64);
        let big = t(vec![Value::Str("x".repeat(100))]);
        assert!(b.try_push(&big).is_err());
    }

    #[test]
    fn take_resets_builder() {
        let mut b = PageBuilder::new(128);
        b.try_push(&t(vec![Value::Int(1)])).unwrap();
        let p1 = b.take();
        assert!(b.is_empty());
        b.try_push(&t(vec![Value::Int(2)])).unwrap();
        let p2 = b.take();
        assert_eq!(decode_page(&p1).unwrap()[0], t(vec![Value::Int(1)]));
        assert_eq!(decode_page(&p2).unwrap()[0], t(vec![Value::Int(2)]));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_page(&[5]).is_err());
        // count says 1 tuple but no data follows
        assert!(decode_page(&1u16.to_le_bytes()).is_err());
        // unknown tag
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(99);
        assert!(decode_page(&bytes).is_err());
    }

    #[test]
    fn encoded_len_matches_actual() {
        let row = t(vec![Value::Int(1), Value::Str("hello".into()), Value::Null]);
        let mut b = PageBuilder::new(4096);
        b.try_push(&row).unwrap();
        assert_eq!(b.take().len(), 2 + encoded_len(&row));
    }

    #[test]
    fn empty_page_decodes_empty() {
        let mut b = PageBuilder::new(64);
        assert_eq!(decode_page(&b.take()).unwrap(), Vec::<Tuple>::new());
    }

    /// A 64-bit linear congruential generator: deterministic test data
    /// with no dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A double the decoder must carry bit for bit: both zeros, both
    /// infinities, NaNs of either sign with random payloads, ordinary
    /// values.
    fn double(r: &mut Lcg) -> f64 {
        match r.below(6) {
            0 => -0.0,
            1 => [f64::INFINITY, f64::NEG_INFINITY][r.below(2) as usize],
            2 => f64::from_bits(0x7ff8_0000_0000_0000 | r.below(2) << 63 | r.below(1 << 40)),
            _ => (r.next() as f64 - 1e9) / 7.0,
        }
    }

    /// The empty string, or one longer than a normalized prefix's eight
    /// bytes (sometimes with multi-byte characters).
    fn string(r: &mut Lcg) -> Value {
        let len = match r.below(3) {
            0 => 0,
            _ => 9 + r.below(12),
        };
        let s: String = (0..len)
            .map(|_| match r.below(8) {
                0 => 'é',
                _ => (b'a' + r.below(26) as u8) as char,
            })
            .collect();
        Value::Str(s)
    }

    /// One cell of a column of type `ty`: NULL one time in four when
    /// `nulls` is set.
    fn cell(r: &mut Lcg, ty: DataType, nulls: bool) -> Value {
        if nulls && r.below(4) == 0 {
            return Value::Null;
        }
        match ty {
            DataType::Int if r.below(2) == 0 => Value::Int(r.below(100) as i64),
            DataType::Int => Value::Int(r.next() as i64 - (1 << 47)),
            DataType::Double => Value::Double(double(r)),
            DataType::Str => string(r),
        }
    }

    fn schema(types: &[DataType]) -> Schema {
        let cols = types.iter().enumerate();
        Schema::new(
            cols.map(|(i, &ty)| Column::new(format!("c{i}"), ty))
                .collect(),
        )
    }

    /// A column's representation and every cell, doubles by their bits.
    fn picture(col: &ColumnVec) -> (DataType, Vec<String>) {
        let cells = (0..col.len())
            .map(|i| match col.cell(i) {
                CellRef::Null => "null".to_string(),
                CellRef::Int(x) => format!("int {x}"),
                CellRef::Double(d) => format!("double {:#x}", d.to_bits()),
                CellRef::Str(s) => format!("str {s:?}"),
            })
            .collect();
        (col.data_type(), cells)
    }

    /// Decoding a page into builders leaves them exactly as pushing the
    /// page's decoded tuples one value at a time does — on random pages of
    /// fixed-width and variable-width rows, into builders already holding
    /// cells — and takes the column-at-a-time path on exactly the pages
    /// whose cells are all INT or DOUBLE.
    #[test]
    fn builder_decode_equals_row_decode_on_random_pages() {
        let mut r = Lcg(0x5eed);
        let mut fixed_pages = 0;
        for case in 0..300 {
            let k = 1 + r.below(4) as usize;
            let types: Vec<DataType> = (0..k)
                .map(|_| [DataType::Int, DataType::Double, DataType::Str][r.below(3) as usize])
                .collect();
            let schema = schema(&types);
            // Cells already in the builders: nothing, or a row or two.
            let seeded: Vec<Tuple> = (0..r.below(3))
                .map(|_| t(types.iter().map(|&ty| cell(&mut r, ty, true)).collect()))
                .collect();
            let mut builders = ColumnBuilder::for_schema(&schema);
            for row in &seeded {
                for (b, v) in builders.iter_mut().zip(row.values()) {
                    b.push_value(v).unwrap();
                }
            }
            let mut all = seeded.clone();
            for _ in 0..1 + r.below(3) {
                let nulls = r.below(2) == 0;
                let mut page = PageBuilder::new(128 + r.below(400) as usize);
                let mut rows = Vec::new();
                loop {
                    let row = t(types.iter().map(|&ty| cell(&mut r, ty, nulls)).collect());
                    if !page.try_push(&row).unwrap() {
                        break;
                    }
                    rows.push(row);
                }
                let bytes = page.take();
                let fixed_width = rows.iter().all(|row| {
                    row.values()
                        .iter()
                        .all(|v| matches!(v, Value::Int(_) | Value::Double(_)))
                });
                let mut fresh = ColumnBuilder::for_schema(&schema);
                assert_eq!(
                    decode_fixed_width(&bytes[2..], rows.len(), &mut fresh),
                    fixed_width,
                    "case {case}: {rows:?}"
                );
                fixed_pages += usize::from(fixed_width);
                assert_eq!(
                    decode_page_into_builders(&bytes, &mut builders).unwrap(),
                    rows.len()
                );
                all.extend(decode_page(&bytes).unwrap());
            }
            let got = ColumnarBatch::from_builders(builders);
            let expect = ColumnarBatch::from_rows(&schema, &all).unwrap();
            assert_eq!(got.num_rows(), all.len());
            for (c, (g, e)) in got.columns().iter().zip(expect.columns()).enumerate() {
                assert_eq!(picture(g), picture(e), "case {case}, column {c}");
                assert_eq!(g.nulls(), e.nulls(), "case {case}, column {c}");
            }
        }
        assert!(fixed_pages > 100, "only {fixed_pages} fixed-width pages");
    }

    /// An all-INT/DOUBLE page goes column at a time; one NULL, or builders
    /// of other types, send it cell by cell without the fast path touching
    /// a builder.
    #[test]
    fn fixed_width_path_is_taken_and_refuses_untouched() {
        use DataType::{Double, Int};
        let mut page = PageBuilder::new(4096);
        let rows: Vec<Tuple> = (0..100)
            .map(|i| t(vec![Value::Int(i), Value::Double(i as f64 / 4.0)]))
            .collect();
        for row in &rows {
            assert!(page.try_push(row).unwrap());
        }
        let bytes = page.take();
        let mut builders = ColumnBuilder::for_schema(&schema(&[Int, Double]));
        assert!(decode_fixed_width(&bytes[2..], 100, &mut builders));
        let got = ColumnarBatch::from_builders(builders);
        assert!(matches!(got.column(0).data(), ColumnData::Int(v) if v.len() == 100));
        assert!(matches!(got.column(1).data(), ColumnData::Double(_)));
        assert_eq!(got.to_rows(), rows);
        let mut builders = ColumnBuilder::for_schema(&schema(&[Double, Double]));
        assert!(!decode_fixed_width(&bytes[2..], 100, &mut builders));
        assert!(builders.iter().all(ColumnBuilder::is_empty));

        assert!(page.try_push(&t(vec![Value::Int(7), Value::Null])).unwrap());
        let bytes = page.take();
        let mut builders = ColumnBuilder::for_schema(&schema(&[Int, Double]));
        assert!(!decode_fixed_width(&bytes[2..], 1, &mut builders));
        assert!(builders.iter().all(ColumnBuilder::is_empty));
        // No columns at all: every row is its two-byte arity.
        let mut page = PageBuilder::new(64);
        assert!(page.try_push(&t(vec![])).unwrap());
        assert_eq!(decode_page_into_builders(&page.take(), &mut []).unwrap(), 1);
    }

    /// A cell tagged with a type that is not its column's is a storage
    /// error naming the column, on the column-at-a-time path's pages and
    /// on the cell-by-cell path's alike.
    #[test]
    fn a_cell_of_another_type_is_a_storage_error() {
        use DataType::{Double, Int, Str};
        let page_of = |rows: &[Tuple]| {
            let mut page = PageBuilder::new(4096);
            rows.iter()
                .for_each(|row| assert!(page.try_push(row).unwrap()));
            page.take()
        };
        let ints = page_of(&[t(vec![Value::Int(1), Value::Int(2)])]);
        let strs = page_of(&[
            t(vec![Value::Int(1), Value::Null]),
            t(vec![Value::Null, Value::Str("x".into())]),
        ]);
        for (bytes, types, says) in [
            (
                &ints,
                [Int, Double],
                "column 1 is DOUBLE but holds a cell tagged INT",
            ),
            (
                &ints,
                [Str, Int],
                "column 0 is VARCHAR but holds a cell tagged INT",
            ),
            (
                &strs,
                [Int, Int],
                "column 1 is INT but holds a cell tagged VARCHAR",
            ),
        ] {
            let mut builders = ColumnBuilder::for_schema(&schema(&types));
            assert_eq!(
                decode_page_into_builders(bytes, &mut builders),
                Err(PyroError::Storage(says.into()))
            );
        }
    }

    /// Malformed pages of fixed-width rows — each one a page the
    /// column-at-a-time path must refuse — fail with the cell-by-cell
    /// decoder's typed error.
    #[test]
    fn malformed_pages_are_storage_errors() {
        let mut page = PageBuilder::new(4096);
        for i in 0..10 {
            assert!(page
                .try_push(&t(vec![Value::Int(i), Value::Int(-i)]))
                .unwrap());
        }
        let good = page.take();
        let stride = 2 + 9 * 2;
        let last = 2 + 9 * stride;
        let mut more_rows = good.clone();
        more_rows[..2].copy_from_slice(&11u16.to_le_bytes());
        let mut wrong_arity = good.clone();
        wrong_arity[last..last + 2].copy_from_slice(&3u16.to_le_bytes());
        let mut unknown_tag = good.clone();
        unknown_tag[2 + 5 * stride + 2] = 9;
        let truncated = good[..good.len() - 3].to_vec();
        for (what, bytes) in [
            ("count larger than the bytes", more_rows),
            ("wrong arity in the last row", wrong_arity),
            ("unknown tag in a middle row", unknown_tag),
            ("payload truncated in the last cell", truncated),
        ] {
            let mut builders = ColumnBuilder::for_schema(&Schema::ints(&["a", "b"]));
            assert!(
                matches!(
                    decode_page_into_builders(&bytes, &mut builders),
                    Err(PyroError::Storage(_))
                ),
                "{what}"
            );
            assert!(
                matches!(decode_page(&bytes), Err(PyroError::Storage(_))),
                "{what}"
            );
        }
        let mut builders = ColumnBuilder::for_schema(&Schema::ints(&["a", "b"]));
        assert_eq!(decode_page_into_builders(&good, &mut builders).unwrap(), 10);
    }
}
