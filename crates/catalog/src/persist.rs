//! Catalog persistence: serializing every table's metadata — schema,
//! clustering, statistics, indexes, and the page lists of its heap and
//! entry files — so a cold process can reopen a data directory and find
//! its tables again.
//!
//! # Layout
//!
//! The catalog serializes to one **blob** (format below), chunked into
//! content pages of at most one block each. A fixed **root page** (page 0
//! of the data file, [`CATALOG_ROOT_PAGE`]) lists the content pages:
//!
//! ```text
//! root:  [magic "PYRC"][version u32][blob_len u64][n u32][content page ids u64…]
//! blob:  [generation u64][n_tables u32] then per table:
//!        name, schema (cols: name + type tag), clustering attrs,
//!        heap file parts (pages, tuple_count, byte_count),
//!        stats (row_count, avg_tuple_bytes, per-column distincts),
//!        indexes (name, key attrs, included attrs, entry-file parts)
//! ```
//!
//! Strings are `[len u32][utf8]`; integers little-endian; `f64` as IEEE
//! bits. Data pages are **not** rewritten — the blob stores page *ids*,
//! and [`TupleFile::from_parts`] reassembles handles over the existing
//! pages. Decoding is defensive end to end: any truncation or garbage
//! yields a typed [`PyroError::Recovery`], never a panic, because this
//! code runs on whatever a crash left behind.

use crate::catalog::TableHandle;
use crate::stats::{ColumnStats, TableStats};
use crate::table::{IndexMeta, TableMeta};
use pyro_common::{Column, DataType, PyroError, Result, Schema};
use pyro_ordering::SortOrder;
use pyro_storage::{PageId, StoreRef, TupleFile};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The well-known page holding the catalog root. Reserved by the first
/// durable open; never reallocated.
pub const CATALOG_ROOT_PAGE: PageId = 0;

const MAGIC: &[u8; 4] = b"PYRC";
const VERSION: u32 = 1;

// ---------------------------------------------------------------- encode

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_strs(buf: &mut Vec<u8>, strs: &[String]) {
    put_u32(buf, strs.len() as u32);
    for s in strs {
        put_str(buf, s);
    }
}

fn put_file(buf: &mut Vec<u8>, file: &TupleFile) {
    put_u32(buf, file.pages().len() as u32);
    for p in file.pages() {
        put_u64(buf, *p);
    }
    put_u64(buf, file.tuple_count());
    put_u64(buf, file.byte_count());
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
    }
}

/// Serializes the full catalog state into one blob.
pub fn encode_catalog(tables: &BTreeMap<String, Arc<TableHandle>>, generation: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, generation);
    put_u32(&mut buf, tables.len() as u32);
    for handle in tables.values() {
        let meta = &handle.meta;
        put_str(&mut buf, &meta.name);
        put_u32(&mut buf, meta.schema.columns().len() as u32);
        for col in meta.schema.columns() {
            put_str(&mut buf, &col.name);
            buf.push(type_tag(col.ty));
        }
        put_strs(&mut buf, meta.clustering.attrs());
        put_file(&mut buf, &handle.heap);
        put_u64(&mut buf, meta.stats.row_count);
        put_u64(&mut buf, meta.stats.avg_tuple_bytes.to_bits());
        put_u32(&mut buf, meta.stats.columns.len() as u32);
        for (name, col) in &meta.stats.columns {
            put_str(&mut buf, name);
            put_u64(&mut buf, col.distinct);
        }
        put_u32(&mut buf, meta.indexes.len() as u32);
        for idx in &meta.indexes {
            put_str(&mut buf, &idx.name);
            put_strs(&mut buf, idx.key.attrs());
            put_strs(&mut buf, &idx.included);
            let file = handle
                .index_files
                .get(&idx.name)
                .expect("index meta without entry file");
            put_file(&mut buf, file);
        }
    }
    buf
}

/// Builds the root-page image pointing at `content_pages` holding a
/// `blob_len`-byte blob.
pub fn encode_root(blob_len: u64, content_pages: &[PageId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + 8 * content_pages.len());
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u64(&mut buf, blob_len);
    put_u32(&mut buf, content_pages.len() as u32);
    for p in content_pages {
        put_u64(&mut buf, *p);
    }
    buf
}

// ---------------------------------------------------------------- decode

/// Cursor over a blob with typed-error reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn bad(&self, what: &str) -> PyroError {
        PyroError::Recovery(format!(
            "catalog blob truncated or corrupt: {what} at offset {}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(self.bad(what));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.bad(what))
    }

    fn strs(&mut self, what: &str) -> Result<Vec<String>> {
        let n = self.u32(what)? as usize;
        (0..n).map(|_| self.str(what)).collect()
    }

    fn file(&mut self, store: &StoreRef, what: &str) -> Result<TupleFile> {
        let n = self.u32(what)? as usize;
        let pages = (0..n).map(|_| self.u64(what)).collect::<Result<Vec<_>>>()?;
        let tuple_count = self.u64(what)?;
        let byte_count = self.u64(what)?;
        Ok(TupleFile::from_parts(store, pages, tuple_count, byte_count))
    }
}

/// Parses a root-page image: returns `(blob_len, content_pages)`.
pub fn decode_root(image: &[u8]) -> Result<(u64, Vec<PageId>)> {
    let mut r = Reader::new(image);
    if r.take(4, "root magic")? != MAGIC {
        return Err(PyroError::Recovery("catalog root has bad magic".into()));
    }
    let version = r.u32("root version")?;
    if version != VERSION {
        return Err(PyroError::Recovery(format!(
            "unsupported catalog version {version}"
        )));
    }
    let blob_len = r.u64("blob length")?;
    let n = r.u32("content page count")? as usize;
    let pages = (0..n)
        .map(|_| r.u64("content page id"))
        .collect::<Result<Vec<_>>>()?;
    Ok((blob_len, pages))
}

/// Deserializes the catalog blob, rebuilding table handles whose files
/// read through `store`. Returns `(tables, generation)`.
pub fn decode_catalog(
    blob: &[u8],
    store: &StoreRef,
) -> Result<(BTreeMap<String, Arc<TableHandle>>, u64)> {
    let mut r = Reader::new(blob);
    let generation = r.u64("generation")?;
    let n_tables = r.u32("table count")? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..n_tables {
        let name = r.str("table name")?;
        let n_cols = r.u32("column count")? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col_name = r.str("column name")?;
            let ty = match r.u8("column type")? {
                0 => DataType::Int,
                1 => DataType::Double,
                2 => DataType::Str,
                t => {
                    return Err(PyroError::Recovery(format!(
                        "unknown column type tag {t} in table {name}"
                    )))
                }
            };
            columns.push(Column::new(col_name, ty));
        }
        let schema = Schema::new(columns);
        let clustering = SortOrder::new(r.strs("clustering")?);
        let heap = r.file(store, "heap file")?;
        let row_count = r.u64("row count")?;
        let avg_tuple_bytes = f64::from_bits(r.u64("avg tuple bytes")?);
        let n_stat_cols = r.u32("stat column count")? as usize;
        let mut stat_cols = BTreeMap::new();
        for _ in 0..n_stat_cols {
            let col = r.str("stat column name")?;
            let distinct = r.u64("distinct count")?;
            stat_cols.insert(col, ColumnStats { distinct });
        }
        let stats = TableStats {
            row_count,
            avg_tuple_bytes,
            columns: stat_cols,
        };
        let n_indexes = r.u32("index count")? as usize;
        let mut indexes = Vec::with_capacity(n_indexes);
        let mut index_files = BTreeMap::new();
        for _ in 0..n_indexes {
            let idx_name = r.str("index name")?;
            let key = SortOrder::new(r.strs("index key")?);
            let included = r.strs("included columns")?;
            let file = r.file(store, "index entry file")?;
            index_files.insert(idx_name.clone(), file);
            indexes.push(IndexMeta {
                name: idx_name,
                key,
                included,
            });
        }
        let meta = TableMeta {
            name: name.clone(),
            schema,
            clustering,
            indexes,
            stats,
        };
        tables.insert(
            name,
            Arc::new(TableHandle {
                meta,
                heap,
                index_files,
            }),
        );
    }
    Ok((tables, generation))
}

/// Every data page a catalog state references: the root, the content
/// pages, and all heap / index-entry pages. This is the `live` set handed
/// to [`reclaim_except`](pyro_storage::PageDevice::reclaim_except) after
/// recovery.
pub fn live_pages(
    tables: &BTreeMap<String, Arc<TableHandle>>,
    content_pages: &[PageId],
) -> Vec<PageId> {
    let mut live = vec![CATALOG_ROOT_PAGE];
    live.extend_from_slice(content_pages);
    for handle in tables.values() {
        live.extend_from_slice(handle.heap.pages());
        for file in handle.index_files.values() {
            live.extend_from_slice(file.pages());
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use pyro_common::{Tuple, Value};
    use pyro_storage::{PageStore, SimDevice};

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::on_store(PageStore::bypass(SimDevice::with_block_size(256)));
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Double),
            Column::new("s", DataType::Str),
        ]);
        let rows: Vec<Tuple> = (0..50)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Double(i as f64 * 0.5),
                    Value::Str(format!("row{i}")),
                ])
            })
            .collect();
        cat.register_table("t", schema, SortOrder::new(["k"]), &rows)
            .unwrap();
        cat.create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
            .unwrap();
        cat
    }

    #[test]
    fn blob_roundtrip_preserves_everything() {
        let cat = sample_catalog();
        let src = cat.table("t").unwrap();
        let blob = encode_catalog(cat.tables(), cat.generation());
        let (tables, generation) = decode_catalog(&blob, cat.store()).unwrap();
        assert_eq!(generation, cat.generation());
        let back = tables.get("t").expect("table survives");
        assert_eq!(back.meta.name, "t");
        assert_eq!(back.meta.schema.names(), src.meta.schema.names());
        assert_eq!(back.meta.clustering.attrs(), src.meta.clustering.attrs());
        assert_eq!(back.meta.stats.row_count, 50);
        assert_eq!(back.meta.stats.columns, src.meta.stats.columns);
        assert_eq!(back.meta.stats.columns.len(), 3);
        assert_eq!(
            back.meta.stats.avg_tuple_bytes.to_bits(),
            src.meta.stats.avg_tuple_bytes.to_bits()
        );
        assert_eq!(back.heap.pages(), src.heap.pages());
        assert_eq!(back.heap.tuple_count(), src.heap.tuple_count());
        assert_eq!(back.heap.byte_count(), src.heap.byte_count());
        assert_eq!(back.meta.indexes.len(), 1);
        let idx = &back.meta.indexes[0];
        assert_eq!(idx.name, "t_v");
        assert_eq!(idx.key.attrs(), ["v".to_string()]);
        assert_eq!(idx.included, vec!["k".to_string()]);
        assert_eq!(
            back.index_files.get("t_v").unwrap().pages(),
            src.index_files.get("t_v").unwrap().pages()
        );
        // The rebuilt handle actually scans the same bytes.
        let rows: Vec<Tuple> = back.heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[7].get(0), &Value::Int(7));
    }

    #[test]
    fn root_roundtrip() {
        let root = encode_root(12345, &[4, 9, 2]);
        let (len, pages) = decode_root(&root).unwrap();
        assert_eq!(len, 12345);
        assert_eq!(pages, vec![4, 9, 2]);
    }

    #[test]
    fn truncated_blob_is_typed_error() {
        let cat = sample_catalog();
        let blob = encode_catalog(cat.tables(), cat.generation());
        for cut in [0, 5, blob.len() / 2, blob.len() - 1] {
            match decode_catalog(&blob[..cut], cat.store()) {
                Err(PyroError::Recovery(_)) => {}
                other => panic!("cut at {cut}: expected Recovery error, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_root_is_typed_error() {
        assert!(matches!(
            decode_root(b"XXXX\0\0\0\0"),
            Err(PyroError::Recovery(_))
        ));
        assert!(matches!(decode_root(b"PY"), Err(PyroError::Recovery(_))));
    }

    #[test]
    fn live_pages_cover_all_files() {
        let cat = sample_catalog();
        let live = live_pages(cat.tables(), &[]);
        let t = cat.table("t").unwrap();
        for p in t.heap.pages() {
            assert!(live.contains(p));
        }
        for p in t.index_files.get("t_v").unwrap().pages() {
            assert!(live.contains(p));
        }
        assert!(live.contains(&CATALOG_ROOT_PAGE));
    }
}
