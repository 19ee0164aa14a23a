//! Byte-level tuple encoding into fixed-size pages.
//!
//! Layout: `[u16 tuple_count] [tuple]*` where each tuple is
//! `[u16 value_count] [value]*` and each value is a 1-byte tag followed by
//! its payload (`Int`/`Double`: 8 bytes LE; `Str`: u16 length + bytes).
//! Simple, compact, and deliberately *real* — the sort experiments must pay
//! genuine serialization CPU, like the systems the paper measured.

use pyro_common::{ColumnBuilder, ColumnData, ColumnVec, PyroError, Result, Tuple, Value};
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
            ColumnData::Mixed(v) => encode_value(&v[row], out),
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
    let mut out = Vec::new();
    decode_page_into(data, &mut out)?;
    Ok(out)
}

/// Decodes a page, appending the tuples to `out` — the batch-at-a-time
/// scan path decodes straight into its output buffer with no intermediate
/// page vector.
pub fn decode_page_into(data: &[u8], out: &mut Vec<Tuple>) -> Result<()> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    out.reserve(count);
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
    Ok(())
}

/// Decodes a page straight into per-column [`ColumnBuilder`]s — the
/// columnar scan path skips `Tuple` boxing entirely: integer and double
/// payloads land in typed vectors, string bytes go into the arena after
/// one UTF-8 validation.
///
/// Every tuple on the page must have arity `builders.len()`; returns the
/// number of rows decoded.
pub fn decode_page_into_builders(data: &[u8], builders: &mut [ColumnBuilder]) -> Result<usize> {
    let mut pos = 0usize;
    let count = read_u16(data, &mut pos)? as usize;
    for _ in 0..count {
        let arity = read_u16(data, &mut pos)? as usize;
        if arity != builders.len() {
            return Err(PyroError::Storage(format!(
                "page tuple arity {arity} does not match column count {}",
                builders.len()
            )));
        }
        for b in builders.iter_mut() {
            let tag = *data
                .get(pos)
                .ok_or_else(|| PyroError::Storage("truncated page: missing tag".into()))?;
            pos += 1;
            match tag {
                TAG_NULL => b.push_null(),
                TAG_INT => b.push_int(i64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_DOUBLE => b.push_double(f64::from_le_bytes(read_arr(data, &mut pos)?)),
                TAG_STR => {
                    let len = read_u16(data, &mut pos)? as usize;
                    let bytes = data
                        .get(pos..pos + len)
                        .ok_or_else(|| PyroError::Storage("truncated page: short string".into()))?;
                    pos += len;
                    std::str::from_utf8(bytes)
                        .map_err(|e| PyroError::Storage(format!("bad utf8: {e}")))?;
                    b.push_str_bytes(bytes);
                }
                other => {
                    return Err(PyroError::Storage(format!("unknown value tag {other}")));
                }
            }
        }
    }
    Ok(count)
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
}
