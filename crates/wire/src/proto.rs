//! Typed messages on top of the [frame](crate::frame) layer.
//!
//! ## Opcode table
//!
//! | opcode | direction | message | payload layout |
//! |-------:|-----------|-----------|----------------|
//! | `0x01` | C → S | `HELLO` | `magic: u32`, `version: u16` |
//! | `0x02` | C → S | `QUERY` | `sql: str` |
//! | `0x03` | C → S | `PREPARE` | `sql: str` |
//! | `0x04` | C → S | `EXECUTE` | `stmt_id: u32`, `nparams: u16`, `nparams × value` |
//! | `0x05` | C → S | `CLOSE` | `stmt_id: u32` |
//! | `0x06` | C → S | `BYE` | *(empty)* |
//! | `0x81` | S → C | `WELCOME` | `version: u16`, `server: str` |
//! | `0x82` | S → C | `SCHEMA` | `ncols: u16`, `ncols × (name: str, ty: u8)` |
//! | `0x83` | S → C | `ROWS` | `nrows: u32`, `nrows × ncols × value` |
//! | `0x84` | S → C | `DONE` | `rows: u64`, `elapsed_us: u64`, `cache: u8` |
//! | `0x85` | S → C | `ERROR` | `code: u16`, `detail: str` |
//! | `0x86` | S → C | `PREPARED` | `stmt_id: u32`, `param_count: u16` |
//! | `0x87` | S → C | `CLOSED` | `stmt_id: u32` |
//!
//! Primitive encodings (all little-endian): `str` is `u32` length + UTF-8
//! bytes; `value` is a tag byte (`0` NULL, `1` Int + `i64`, `2` Double +
//! `f64` bits, `3` Str + `str`) — doubles travel as raw bits, so rows
//! round-trip **bit-identically**; `ty` is `0` Int / `1` Double / `2` Str;
//! `cache` in `DONE` is `0` no-cache / `1` plan-cache miss / `2` hit.
//!
//! A query response is `SCHEMA`, zero or more `ROWS`, then exactly one
//! `DONE` — or an `ERROR` at any point, which terminates the response
//! (rows already delivered are valid but the result is truncated).

use pyro_common::{
    CellRef, Column, ColumnarBatch, DataType, PyroError, Result, Schema, Tuple, Value,
};

/// Handshake magic: `"PYRO"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PYRO");

/// Protocol version spoken by this build. The handshake rejects a client
/// whose version differs — bump on any incompatible layout change.
pub const VERSION: u16 = 1;

/// Frame opcodes (see the [module docs](self) for payload layouts).
pub mod op {
    /// Client hello: magic + version.
    pub const HELLO: u8 = 0x01;
    /// One-shot SQL query.
    pub const QUERY: u8 = 0x02;
    /// Prepare a (possibly `?`-parameterized) statement.
    pub const PREPARE: u8 = 0x03;
    /// Execute a prepared statement with bound values.
    pub const EXECUTE: u8 = 0x04;
    /// Close a prepared statement.
    pub const CLOSE: u8 = 0x05;
    /// Orderly goodbye; the server closes the connection.
    pub const BYE: u8 = 0x06;
    /// Server handshake reply.
    pub const WELCOME: u8 = 0x81;
    /// Result schema, first frame of every successful response.
    pub const SCHEMA: u8 = 0x82;
    /// One batch of result rows.
    pub const ROWS: u8 = 0x83;
    /// Successful end of a response.
    pub const DONE: u8 = 0x84;
    /// Typed failure: stable error code + detail.
    pub const ERROR: u8 = 0x85;
    /// Reply to `PREPARE`.
    pub const PREPARED: u8 = 0x86;
    /// Reply to `CLOSE`.
    pub const CLOSED: u8 = 0x87;
}

/// `DONE` cache flag: the session runs without a plan cache.
pub const CACHE_OFF: u8 = 0;
/// `DONE` cache flag: planning ran (plan-cache miss).
pub const CACHE_MISS: u8 = 1;
/// `DONE` cache flag: planning was skipped (plan-cache hit).
pub const CACHE_HIT: u8 = 2;

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

/// Appends a `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `n` as the `u16` count a frame carries for `what`; a typed
/// [`PyroError::Wire`] past `u16::MAX`, where a cast would wrap and the
/// peer would read a different count.
pub(crate) fn wire_count(n: usize, what: &str) -> Result<u16> {
    u16::try_from(n).map_err(|_| {
        PyroError::Wire(format!(
            "{n} {what} do not fit the protocol's count of at most {}",
            u16::MAX
        ))
    })
}

/// Appends a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    put_cell(buf, CellRef::from_value(v));
}

/// Appends one tagged cell, read in place from a column or a [`Value`].
fn put_cell(buf: &mut Vec<u8>, c: CellRef<'_>) {
    match c {
        CellRef::Null => buf.push(0),
        CellRef::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        CellRef::Double(d) => {
            buf.push(2);
            buf.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        CellRef::Str(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
    }
}

// ---------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------

/// A checked cursor over one frame payload; every getter is a typed
/// [`PyroError::Wire`] on truncation, and [`Reader::finish`] rejects
/// trailing garbage.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(PyroError::Wire(format!(
                "truncated payload: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// The next `N` bytes, by value.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// Reads one length-prefixed UTF-8 string, borrowed from the buffer.
    fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| PyroError::Wire(format!("invalid UTF-8 in string field: {e}")))
    }

    /// Reads one tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(i64::from_le_bytes(self.take_array()?))),
            2 => Ok(Value::Double(f64::from_le_bytes(self.take_array()?))),
            3 => Ok(Value::Str(self.str()?)),
            tag => Err(PyroError::Wire(format!("unknown value tag {tag}"))),
        }
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PyroError::Wire(format!(
                "{} trailing bytes after message payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Message encoders / decoders
// ---------------------------------------------------------------------

/// Encodes `HELLO`.
pub fn enc_hello() -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    put_u32(&mut b, MAGIC);
    put_u16(&mut b, VERSION);
    b
}

/// Decodes `HELLO`, checking magic (version is returned for the caller to
/// judge).
pub fn dec_hello(payload: &[u8]) -> Result<u16> {
    let mut r = Reader::new(payload);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(PyroError::Wire(format!(
            "bad handshake magic {magic:#010x} (expected {MAGIC:#010x})"
        )));
    }
    let version = r.u16()?;
    r.finish()?;
    Ok(version)
}

/// Encodes `WELCOME`.
pub fn enc_welcome(server: &str) -> Vec<u8> {
    let mut b = Vec::new();
    put_u16(&mut b, VERSION);
    put_str(&mut b, server);
    b
}

/// Decodes `WELCOME` into `(version, server banner)`.
pub fn dec_welcome(payload: &[u8]) -> Result<(u16, String)> {
    let mut r = Reader::new(payload);
    let version = r.u16()?;
    let server = r.str()?;
    r.finish()?;
    Ok((version, server))
}

/// Encodes `QUERY` / `PREPARE` (both carry one SQL string).
pub fn enc_sql(sql: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + sql.len());
    put_str(&mut b, sql);
    b
}

/// Decodes `QUERY` / `PREPARE`.
pub fn dec_sql(payload: &[u8]) -> Result<String> {
    let mut r = Reader::new(payload);
    let sql = r.str()?;
    r.finish()?;
    Ok(sql)
}

/// Encodes `EXECUTE`; an error past `u16::MAX` parameters.
pub fn enc_execute(stmt_id: u32, params: &[Value]) -> Result<Vec<u8>> {
    let mut b = Vec::new();
    put_u32(&mut b, stmt_id);
    put_u16(&mut b, wire_count(params.len(), "parameters")?);
    for p in params {
        put_value(&mut b, p);
    }
    Ok(b)
}

/// Decodes `EXECUTE` into `(stmt_id, bound values)`.
pub fn dec_execute(payload: &[u8]) -> Result<(u32, Vec<Value>)> {
    let mut r = Reader::new(payload);
    let stmt_id = r.u32()?;
    let n = r.u16()? as usize;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(r.value()?);
    }
    r.finish()?;
    Ok((stmt_id, params))
}

/// Encodes `CLOSE` / `CLOSED` (one statement id).
pub fn enc_stmt_id(stmt_id: u32) -> Vec<u8> {
    stmt_id.to_le_bytes().to_vec()
}

/// Decodes `CLOSE` / `CLOSED`.
pub fn dec_stmt_id(payload: &[u8]) -> Result<u32> {
    let mut r = Reader::new(payload);
    let id = r.u32()?;
    r.finish()?;
    Ok(id)
}

/// Encodes `PREPARED`.
pub fn enc_prepared(stmt_id: u32, param_count: u16) -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    put_u32(&mut b, stmt_id);
    put_u16(&mut b, param_count);
    b
}

/// Decodes `PREPARED` into `(stmt_id, param_count)`.
pub fn dec_prepared(payload: &[u8]) -> Result<(u32, u16)> {
    let mut r = Reader::new(payload);
    let id = r.u32()?;
    let n = r.u16()?;
    r.finish()?;
    Ok((id, n))
}

/// Encodes `SCHEMA`; an error past `u16::MAX` columns.
pub fn enc_schema(schema: &Schema) -> Result<Vec<u8>> {
    let mut b = Vec::new();
    put_u16(&mut b, wire_count(schema.len(), "columns")?);
    for col in schema.columns() {
        put_str(&mut b, &col.name);
        b.push(type_tag(col.ty));
    }
    Ok(b)
}

/// Decodes `SCHEMA`.
pub fn dec_schema(payload: &[u8]) -> Result<Schema> {
    let mut r = Reader::new(payload);
    let n = r.u16()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str_ref()?;
        let ty = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Double,
            2 => DataType::Str,
            tag => return Err(PyroError::Wire(format!("unknown column type tag {tag}"))),
        };
        cols.push(Column::new(name, ty));
    }
    r.finish()?;
    Ok(Schema::new(cols))
}

/// Encodes one `ROWS` batch from columns: the batch's selected rows, in
/// order, each row's cells read in place (row-major values; the column
/// count travels in the preceding `SCHEMA` frame). What the server sends:
/// no result row is boxed to be encoded.
pub fn enc_batch(batch: &ColumnarBatch) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, batch.len() as u32);
    let mut row = |i: usize| {
        for col in batch.columns() {
            put_cell(&mut b, col.cell(i));
        }
    };
    match batch.sel() {
        Some(sel) => sel.iter().for_each(|&i| row(i as usize)),
        None => (0..batch.num_rows()).for_each(row),
    }
    b
}

/// Encodes one `ROWS` batch from rows already boxed (a client's, a
/// test's): the bytes [`enc_batch`] writes for a batch holding these rows.
pub fn enc_rows(rows: &[Tuple]) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, rows.len() as u32);
    for row in rows {
        for v in row.values() {
            put_value(&mut b, v);
        }
    }
    b
}

/// Decodes a `ROWS` batch of `ncols`-wide tuples.
pub fn dec_rows(payload: &[u8], ncols: usize) -> Result<Vec<Tuple>> {
    let mut r = Reader::new(payload);
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut vals = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            vals.push(r.value()?);
        }
        rows.push(Tuple::new(vals));
    }
    r.finish()?;
    Ok(rows)
}

/// Encodes `DONE`.
pub fn enc_done(rows: u64, elapsed_us: u64, cache: u8) -> Vec<u8> {
    let mut b = Vec::with_capacity(17);
    put_u64(&mut b, rows);
    put_u64(&mut b, elapsed_us);
    b.push(cache);
    b
}

/// Decodes `DONE` into `(rows, elapsed_us, cache flag)`.
pub fn dec_done(payload: &[u8]) -> Result<(u64, u64, u8)> {
    let mut r = Reader::new(payload);
    let rows = r.u64()?;
    let us = r.u64()?;
    let cache = r.u8()?;
    r.finish()?;
    Ok((rows, us, cache))
}

/// Encodes `ERROR` from any [`PyroError`]: stable code + detail payload.
pub fn enc_error(e: &PyroError) -> Vec<u8> {
    let mut b = Vec::new();
    put_u16(&mut b, e.code());
    put_str(&mut b, &e.detail());
    b
}

/// Decodes `ERROR` back into the typed [`PyroError`] the server produced.
pub fn dec_error(payload: &[u8]) -> Result<PyroError> {
    let mut r = Reader::new(payload);
    let code = r.u16()?;
    let detail = r.str()?;
    r.finish()?;
    Ok(PyroError::from_code(code, &detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trip_and_magic_check() {
        assert_eq!(dec_hello(&enc_hello()).unwrap(), VERSION);
        let mut bad = enc_hello();
        bad[0] ^= 0xff;
        assert!(dec_hello(&bad).is_err());
    }

    #[test]
    fn schema_and_rows_round_trip_bit_identically() {
        let schema = Schema::new(vec![
            Column::new("t.a", DataType::Int),
            Column::new("t.b", DataType::Double),
            Column::new("t.c", DataType::Str),
        ]);
        assert_eq!(dec_schema(&enc_schema(&schema).unwrap()).unwrap(), schema);
        let rows = vec![
            Tuple::new(vec![
                Value::Int(i64::MIN),
                Value::Double(-0.0),
                Value::Str("héllo\u{1f}".into()),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Double(f64::NAN),
                Value::Str(String::new()),
            ]),
        ];
        let decoded = dec_rows(&enc_rows(&rows), 3).unwrap();
        // Compare the encodings, which capture each cell's type and exact
        // bits: `Value`'s `==` would take `Int(2)` for `Double(2.0)`.
        assert_eq!(enc_rows(&decoded), enc_rows(&rows));
    }

    /// A row-at-a-time encoder that shares no code with the two under
    /// test: a count, then every row's values, tagged.
    fn reference_enc_rows(rows: &[Tuple]) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, rows.len() as u32);
        for row in rows {
            for v in row.values() {
                match v {
                    Value::Null => b.push(0),
                    Value::Int(i) => {
                        b.push(1);
                        b.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Double(d) => {
                        b.push(2);
                        b.extend_from_slice(&d.to_bits().to_le_bytes());
                    }
                    Value::Str(s) => {
                        b.push(3);
                        b.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        b.extend_from_slice(s.as_bytes());
                    }
                }
            }
        }
        b
    }

    /// Rows whose columns are INT with NULLs, DOUBLE, STR, and a DOUBLE
    /// column that is NULL for its first rows, over the edge cells.
    fn edge_rows() -> Vec<Tuple> {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let doubles = [-0.0, 0.0, nan, f64::INFINITY, f64::MIN_POSITIVE, 2.0];
        let strs = [
            "",
            "\0\t\n\r\u{1b}[0m",
            "héllo\u{1f}",
            "a much longer string",
        ];
        (0..24_i64)
            .map(|i| {
                let int = match i % 5 {
                    0 => Value::Null,
                    1 => Value::Int(i64::MIN),
                    2 => Value::Int(i64::MAX),
                    _ => Value::Int(-i),
                };
                Tuple::new(vec![
                    int,
                    Value::Double(doubles[i as usize % doubles.len()]),
                    Value::Str(strs[i as usize % strs.len()].into()),
                    match i < 9 {
                        true => Value::Null,
                        false => Value::Double(doubles[i as usize % 4]),
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn rows_frames_from_columns_match_the_row_encoder_byte_for_byte() {
        let rows = edge_rows();
        let expect = reference_enc_rows(&rows);
        let schema = Schema::new(
            [
                ("a", DataType::Int),
                ("b", DataType::Double),
                ("c", DataType::Str),
                ("d", DataType::Double),
            ]
            .map(|(name, ty)| Column::new(name, ty))
            .to_vec(),
        );
        let batch = |rows: &[Tuple]| ColumnarBatch::from_rows(&schema, rows).unwrap();
        let dense = batch(&rows);
        assert_eq!(enc_batch(&dense), expect);
        assert_eq!(enc_rows(&rows), expect);
        assert_eq!(enc_rows(&[]), reference_enc_rows(&[]));

        // Each row behind a decoy, selected past it: only the selected rows
        // are written, in order.
        let mut padded = Vec::new();
        for t in &rows {
            let decoy = t.values().iter().map(|v| match v {
                Value::Int(i) => Value::Int(i.wrapping_add(7)),
                Value::Double(d) => Value::Double(d + 1.5),
                Value::Str(s) => Value::Str(format!("{s}~")),
                Value::Null => Value::Null,
            });
            padded.push(Tuple::new(decoy.collect()));
            padded.push(t.clone());
        }
        let mut selected = batch(&padded);
        selected.set_sel((1..padded.len() as u32).step_by(2).collect());
        assert_eq!(enc_batch(&selected), expect);
        let mut none = batch(&padded);
        none.set_sel(Vec::new());
        assert_eq!(enc_batch(&none), reference_enc_rows(&[]));
        let mut some = batch(&padded);
        some.set_sel(vec![0, 5, 6, 47]);
        let picked: Vec<Tuple> = [0, 5, 6, 47].map(|i| padded[i].clone()).to_vec();
        assert_eq!(enc_batch(&some), reference_enc_rows(&picked));

        // And the client reads back the same cells, bit for bit.
        let decoded = dec_rows(&enc_batch(&selected), 4).unwrap();
        assert_eq!(reference_enc_rows(&decoded), expect);
    }

    #[test]
    fn execute_round_trip() {
        let params = vec![Value::Int(7), Value::Null, Value::Str("x".into())];
        let (id, out) = dec_execute(&enc_execute(42, &params).unwrap()).unwrap();
        assert_eq!(id, 42);
        assert_eq!(out, params);
    }

    #[test]
    fn error_frame_round_trips_typed_variants() {
        for e in [
            PyroError::ServerOverloaded("1 running, 0 queued".into()),
            PyroError::BudgetExceeded("row budget 10".into()),
            PyroError::UnknownTable("nope".into()),
        ] {
            assert_eq!(dec_error(&enc_error(&e)).unwrap(), e);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut p = enc_sql("SELECT 1");
        p.push(0xee);
        assert!(dec_sql(&p).is_err());
    }

    /// A count of `u16::MAX` travels; one more is a typed error, never a
    /// count that wraps to 0.
    #[test]
    fn counts_past_u16_max_are_refused_not_wrapped() {
        let max = usize::from(u16::MAX);
        let params = vec![Value::Null; max];
        let (_, out) = dec_execute(&enc_execute(3, &params).unwrap()).unwrap();
        assert_eq!(out.len(), max);
        let over = vec![Value::Null; max + 1];
        assert!(matches!(enc_execute(3, &over), Err(PyroError::Wire(_))));

        let schema = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            Schema::ints(&names.iter().map(String::as_str).collect::<Vec<_>>())
        };
        let wide = schema(max);
        assert_eq!(dec_schema(&enc_schema(&wide).unwrap()).unwrap(), wide);
        assert!(matches!(
            enc_schema(&schema(max + 1)),
            Err(PyroError::Wire(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let p = enc_execute(1, &[Value::Int(5)]).unwrap();
        for cut in 0..p.len() {
            assert!(dec_execute(&p[..cut]).is_err(), "cut at {cut} accepted");
        }
    }
}
