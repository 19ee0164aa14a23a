//! The catalog: metadata plus owned storage handles.

use crate::persist;
use crate::stats::TableStats;
use crate::table::{IndexMeta, TableMeta};
use pyro_common::{
    ColumnBuilder, ColumnarBatch, DataType, KeySpec, NormKeys, PyroError, Result, Schema, Tuple,
    Value,
};
use pyro_ordering::SortOrder;
use pyro_storage::{
    write_file, DeviceRef, PageId, PageStore, SimDevice, StoreRef, TupleFile, TupleFileWriter,
};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered table: metadata, its heap file (in clustering order) and
/// one entry file per secondary index.
#[derive(Debug)]
pub struct TableHandle {
    /// Metadata and statistics.
    pub meta: TableMeta,
    /// The base heap file, physically ordered by `meta.clustering`.
    pub heap: TupleFile,
    /// Index entry files, keyed by index name, each sorted by its key and
    /// containing `key + included` columns only.
    pub index_files: BTreeMap<String, TupleFile>,
}

/// The catalog owns the page store (device + optional buffer pool) and
/// every registered table.
#[derive(Debug)]
pub struct Catalog {
    store: StoreRef,
    tables: BTreeMap<String, Arc<TableHandle>>,
    /// Sort memory budget in blocks — the `M` of the cost model. Defaults
    /// to 100 blocks.
    sort_memory_blocks: u64,
    /// Bumped by every schema mutation (table registration, index
    /// creation). Plan caches key on it, so a cached plan can never
    /// outlive the catalog state it was optimized against.
    generation: u64,
    /// Content pages of the currently-committed catalog blob (durable
    /// stores only; empty otherwise). Replaced — and the old ones freed —
    /// after every committed mutation.
    catalog_pages: Vec<PageId>,
}

impl Catalog {
    /// Creates a catalog over a fresh default device (4 KB blocks), with
    /// no buffer pool (every page read/write hits the device).
    pub fn new() -> Self {
        Catalog::on_device(SimDevice::new())
    }

    /// Creates a catalog over an existing device (no buffer pool).
    pub fn on_device(device: DeviceRef) -> Self {
        Catalog::on_store(PageStore::bypass(device))
    }

    /// Creates a catalog over a fresh default device fronted by a
    /// `pages`-frame buffer pool. Every table heap, index entry file and
    /// sort spill run of this catalog shares the one pool.
    pub fn with_buffer_pool(pages: usize) -> Self {
        Catalog::on_store(PageStore::cached(SimDevice::new(), pages))
    }

    /// Creates a catalog over an existing page store. The store must be
    /// fixed before any table is registered — files capture the store they
    /// were written through.
    pub fn on_store(store: StoreRef) -> Self {
        Catalog {
            store,
            tables: BTreeMap::new(),
            sort_memory_blocks: 100,
            generation: 0,
            catalog_pages: Vec::new(),
        }
    }

    /// Opens a catalog over a durable store whose device may already hold
    /// data: an existing catalog root (page
    /// [`persist::CATALOG_ROOT_PAGE`]) is decoded and every table handle
    /// rebuilt over its persisted pages; a fresh device gets an empty
    /// root reserved and written. WAL replay must have run *before* this
    /// (the session open path does), so the root and content pages read
    /// here are the last committed state. Finishes by reclaiming every
    /// device page the rebuilt catalog does not reference — pages
    /// orphaned by an uncommitted mutation return to the free list.
    pub fn open_durable(store: StoreRef) -> Result<Self> {
        if store.live_pages() == 0 {
            // Fresh (or created-then-crashed-before-first-root) device:
            // reserve the root page and commit an empty catalog.
            let root = store.alloc_page();
            if root != persist::CATALOG_ROOT_PAGE {
                return Err(PyroError::Recovery(format!(
                    "fresh device allocated page {root} for the catalog root, \
                     expected {}",
                    persist::CATALOG_ROOT_PAGE
                )));
            }
            let image = persist::encode_root(0, &[]);
            store.write_page(root, &image)?;
            store.checkpoint()?;
            return Ok(Catalog::on_store(store));
        }
        let root_image = store.read_page(persist::CATALOG_ROOT_PAGE)?;
        let (blob_len, content_pages) = persist::decode_root(&root_image)?;
        if blob_len == 0 && content_pages.is_empty() {
            // The empty root a fresh open commits: no tables yet.
            store.device().reclaim_except(&[persist::CATALOG_ROOT_PAGE]);
            return Ok(Catalog::on_store(store));
        }
        let mut blob = Vec::with_capacity(blob_len as usize);
        for page in &content_pages {
            blob.extend_from_slice(&store.read_page(*page)?);
        }
        if (blob.len() as u64) < blob_len {
            return Err(PyroError::Recovery(format!(
                "catalog blob short: root claims {blob_len} bytes, content \
                 pages hold {}",
                blob.len()
            )));
        }
        blob.truncate(blob_len as usize);
        let (tables, generation) = persist::decode_catalog(&blob, &store)?;
        let live = persist::live_pages(&tables, &content_pages);
        store.device().reclaim_except(&live);
        Ok(Catalog {
            store,
            tables,
            sort_memory_blocks: 100,
            generation,
            catalog_pages: content_pages,
        })
    }

    /// The schema-mutation counter: incremented by [`Catalog::register_table`]
    /// and [`Catalog::create_index`]. Two reads returning the same value
    /// bracket a window in which no table or index changed, which is what
    /// makes it a sound plan-cache key component.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The backing device (exact cold-I/O counters).
    pub fn device(&self) -> &DeviceRef {
        self.store.device()
    }

    /// The page store every file of this catalog reads and writes through.
    pub fn store(&self) -> &StoreRef {
        &self.store
    }

    /// Sort memory budget in blocks (`M`).
    pub fn sort_memory_blocks(&self) -> u64 {
        self.sort_memory_blocks
    }

    /// Sets the sort memory budget in blocks.
    pub fn set_sort_memory_blocks(&mut self, m: u64) {
        self.sort_memory_blocks = m.max(3); // need ≥3 for external merge
    }

    /// Registers a table. `rows` must fit `schema` (one value per column,
    /// each NULL or of its column's type) and already be sorted by
    /// `clustering` (generators produce them that way); a row that breaks
    /// either is a typed [`PyroError::InvalidRow`] and nothing is written.
    ///
    /// On a durable store the whole mutation — heap pages, serialized
    /// catalog, root — is WAL-logged and committed atomically: a crash at
    /// any point either replays the complete table or none of it.
    pub fn register_table(
        &mut self,
        name: &str,
        schema: Schema,
        clustering: SortOrder,
        rows: &[Tuple],
    ) -> Result<Arc<TableHandle>> {
        if self.tables.contains_key(name) {
            return Err(PyroError::Plan(format!("table {name} already registered")));
        }
        check_load(name, &schema, &clustering, rows)?;
        let stats = TableStats::compute(&schema, rows);
        let mark = self.store.begin_mutation();
        match self.try_register(name, schema, clustering, stats, rows) {
            Ok(handle) => Ok(handle),
            Err(e) => {
                let _ = self.store.abort_mutation(mark);
                Err(e)
            }
        }
    }

    fn try_register(
        &mut self,
        name: &str,
        schema: Schema,
        clustering: SortOrder,
        stats: TableStats,
        rows: &[Tuple],
    ) -> Result<Arc<TableHandle>> {
        let heap = write_file(&self.store, rows)?;
        // Bulk loads write through, never warm: flush the load's dirty
        // pages and drop them — those pages only, whatever else the pool
        // holds stays — so a later "cold run" measurement is actually
        // cold. Total device writes match the bypass path.
        self.store.flush_and_drop(heap.pages())?;
        let meta = TableMeta {
            name: name.to_string(),
            schema,
            clustering,
            indexes: Vec::new(),
            stats,
        };
        let handle = Arc::new(TableHandle {
            meta,
            heap,
            index_files: BTreeMap::new(),
        });
        self.tables.insert(name.to_string(), handle.clone());
        self.generation += 1;
        if let Err(e) = self.commit_persisted() {
            // Roll the in-memory state back so catalog and disk agree;
            // the caller rewinds the WAL.
            self.tables.remove(name);
            self.generation -= 1;
            for p in handle.heap.pages().to_vec() {
                self.store.free_page(p);
            }
            return Err(e);
        }
        Ok(handle)
    }

    /// Builds a secondary index with included columns over an existing
    /// table, materializing its sorted entry file. Durable stores commit
    /// the mutation (entry pages + catalog + root) atomically, like
    /// [`Catalog::register_table`].
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        key: SortOrder,
        included: &[&str],
    ) -> Result<()> {
        let handle = self
            .tables
            .get(table)
            .ok_or_else(|| PyroError::UnknownTable(table.to_string()))?
            .clone();
        // Reject duplicates instead of pushing a second same-named
        // `IndexMeta`: the old behaviour overwrote the `index_files` entry,
        // orphaning the replaced entry file's pages in the store forever
        // and leaving the optimizer two indistinguishable candidates.
        if handle.meta.index(index_name).is_some() || handle.index_files.contains_key(index_name) {
            return Err(PyroError::DuplicateIndex {
                table: table.to_string(),
                index: index_name.to_string(),
            });
        }
        let idx = IndexMeta {
            name: index_name.to_string(),
            key: key.clone(),
            included: included.iter().map(|s| s.to_string()).collect(),
        };
        // Materialize entries the way the executor sorts: decode the heap
        // into columns, order a row permutation stably by the key's
        // normalized keys (which agree with `KeySpec::compare`), and write
        // the entry columns in that order. Key columns are the first |key|
        // entry columns.
        let positions: Vec<usize> = idx
            .entry_columns()
            .iter()
            .map(|c| handle.meta.schema.index_of(c))
            .collect::<Result<_>>()?;
        let mut builders: Vec<ColumnBuilder> = (0..handle.meta.schema.len())
            .map(|_| ColumnBuilder::new())
            .collect();
        handle.heap.scan().fill_columns(&mut builders, usize::MAX)?;
        let heap = ColumnarBatch::from_builders(builders);
        let entries = ColumnarBatch::from_columns(
            positions.iter().map(|&p| heap.column(p).clone()).collect(),
            heap.num_rows(),
        );
        // Only the entry columns live through the sort.
        drop(heap);
        let spec = KeySpec::new((0..key.len()).collect());
        let norm = NormKeys::new(&entries, &spec);
        let rows = u32::try_from(entries.num_rows()).map_err(|_| {
            PyroError::Storage(format!(
                "{table} has more rows than an index build can sort"
            ))
        })?;
        let mut order: Vec<u32> = (0..rows).collect();
        order.sort_by(|&i, &j| {
            norm.compare(&entries, i as usize, &norm, &entries, j as usize, &spec)
                .0
        });

        let mark = self.store.begin_mutation();
        match self.try_create_index(table, handle, idx, &entries, &order) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = self.store.abort_mutation(mark);
                Err(e)
            }
        }
    }

    fn try_create_index(
        &mut self,
        table: &str,
        handle: Arc<TableHandle>,
        idx: IndexMeta,
        entries: &ColumnarBatch,
        order: &[u32],
    ) -> Result<()> {
        let index_name = idx.name.clone();
        let mut writer = TupleFileWriter::new(&self.store);
        for &row in order {
            writer.append_row(entries.columns(), row as usize)?;
        }
        let file = writer.finish()?;
        self.store.flush_and_drop(file.pages())?;

        // Re-insert an updated handle (Arc is immutable; rebuild).
        let mut meta = handle.meta.clone();
        meta.indexes.push(idx);
        let mut index_files = handle.index_files.clone();
        let entry_pages = file.pages().to_vec();
        index_files.insert(index_name.clone(), file);
        let new_handle = Arc::new(TableHandle {
            meta,
            heap: handle.heap.clone(),
            index_files,
        });
        self.tables.insert(table.to_string(), new_handle);
        self.generation += 1;
        if let Err(e) = self.commit_persisted() {
            self.tables.insert(table.to_string(), handle);
            self.generation -= 1;
            for p in entry_pages {
                self.store.free_page(p);
            }
            return Err(e);
        }
        Ok(())
    }

    /// Serializes the catalog, writes the content pages (WAL-logged —
    /// the window is open), and commits via the root page. Frees the
    /// previous committed state's content pages only *after* the commit
    /// is durable: freeing earlier could let this very mutation recycle
    /// and overwrite a page the still-current root references. No-op on
    /// non-durable stores — the in-memory engine stays byte- and
    /// counter-identical.
    fn commit_persisted(&mut self) -> Result<()> {
        if !self.store.is_durable() {
            return Ok(());
        }
        let blob = persist::encode_catalog(&self.tables, self.generation);
        let block = self.store.block_size();
        let mut pages = Vec::new();
        let mut err = None;
        for chunk in blob.chunks(block) {
            let id = self.store.alloc_page();
            pages.push(id);
            if let Err(e) = self.store.write_page(id, chunk) {
                err = Some(e);
                break;
            }
        }
        if err.is_none() {
            let root = persist::encode_root(blob.len() as u64, &pages);
            if let Err(e) = self
                .store
                .commit_mutation(persist::CATALOG_ROOT_PAGE, &root)
            {
                err = Some(e);
            }
        }
        if let Some(e) = err {
            for p in pages {
                self.store.free_page(p);
            }
            return Err(e);
        }
        let old = std::mem::replace(&mut self.catalog_pages, pages);
        for p in old {
            self.store.free_page(p);
        }
        Ok(())
    }

    /// Flushes the buffer pool, fsyncs the data file and starts a new WAL
    /// cycle (see [`pyro_storage::PageStore::checkpoint`]). The graceful-
    /// shutdown path calls this so a clean exit leaves nothing to replay.
    pub fn checkpoint(&self) -> Result<()> {
        self.store.checkpoint()
    }

    /// Whether this catalog commits through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// All registered tables, keyed by name (persistence reads this).
    pub fn tables(&self) -> &BTreeMap<String, Arc<TableHandle>> {
        &self.tables
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<TableHandle>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| PyroError::UnknownTable(name.to_string()))
    }

    /// All registered table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }
}

/// Holds every row of a load to its table: `schema.len()` values, each
/// NULL or of its column's type, and no row ordered before the one ahead
/// of it under `clustering`. One pass; nothing is allocated per row.
fn check_load(name: &str, schema: &Schema, clustering: &SortOrder, rows: &[Tuple]) -> Result<()> {
    let key = clustering
        .attrs()
        .iter()
        .map(|a| schema.index_of(a))
        .collect::<Result<Vec<usize>>>()?;
    let columns = schema.columns();
    let invalid = |row: usize, column: &str, problem: String| PyroError::InvalidRow {
        table: name.to_string(),
        row: row as u64,
        column: column.to_string(),
        problem,
    };
    let mut prev: Option<&Tuple> = None;
    for (r, tuple) in rows.iter().enumerate() {
        let values = tuple.values();
        if values.len() != columns.len() {
            let column = columns.get(values.len()).map_or("(none)", |c| &*c.name);
            return Err(invalid(
                r,
                column,
                format!("{} values for {} columns", values.len(), columns.len()),
            ));
        }
        for (v, c) in values.iter().zip(columns) {
            let fits = matches!(
                (v, c.ty),
                (Value::Null, _)
                    | (Value::Int(_), DataType::Int)
                    | (Value::Double(_), DataType::Double)
                    | (Value::Str(_), DataType::Str)
            );
            if !fits {
                return Err(invalid(
                    r,
                    &c.name,
                    format!("{v:?} is not of type {}", c.ty),
                ));
            }
        }
        if let Some(prev) = prev {
            for &k in &key {
                match prev.get(k).cmp(tuple.get(k)) {
                    Ordering::Less => break,
                    Ordering::Equal => {}
                    Ordering::Greater => {
                        return Err(invalid(
                            r,
                            &columns[k].name,
                            format!("out of clustering order {clustering}"),
                        ));
                    }
                }
            }
        }
        prev = Some(tuple);
    }
    Ok(())
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_common::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
    }

    fn rows() -> Vec<Tuple> {
        (0..10)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(100 - i)]))
            .collect()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register_table("t", schema(), SortOrder::new(["k"]), &rows())
            .unwrap();
        let h = cat.table("t").unwrap();
        assert_eq!(h.meta.stats.row_count, 10);
        assert_eq!(h.heap.tuple_count(), 10);
        assert!(cat.table("missing").is_err());
        assert_eq!(cat.table_names(), vec!["t"]);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut cat = Catalog::new();
        cat.register_table("t", schema(), SortOrder::empty(), &rows())
            .unwrap();
        assert!(cat
            .register_table("t", schema(), SortOrder::empty(), &rows())
            .is_err());
    }

    /// Registers `rows` into `t(k, v)` clustered on `k`; expects a typed
    /// rejection at `row`/`column` and an untouched catalog and device.
    fn assert_rejected(rows: &[Tuple], row: u64, column: &str, problem: &str) {
        let mut cat = Catalog::new();
        let err = cat
            .register_table("t", schema(), SortOrder::new(["k"]), rows)
            .unwrap_err();
        match &err {
            PyroError::InvalidRow {
                table,
                row: r,
                column: c,
                problem: p,
            } => {
                assert_eq!(
                    (table.as_str(), *r, c.as_str()),
                    ("t", row, column),
                    "{err}"
                );
                assert!(p.contains(problem), "{err}");
            }
            other => panic!("expected InvalidRow, got {other:?}"),
        }
        assert!(cat.table("t").is_err());
        assert_eq!(cat.generation(), 0);
        assert_eq!(cat.device().live_pages(), 0);
    }

    #[test]
    fn load_out_of_clustering_order_rejected() {
        let mut r = rows();
        r.swap(3, 4);
        assert_rejected(&r, 4, "k", "clustering order");
        // Ties on the clustering key are in order; a second key column is
        // only compared on a tie.
        let mut cat = Catalog::new();
        let tied: Vec<Tuple> = (0..6)
            .map(|i| Tuple::new(vec![Value::Int(i / 3), Value::Int(i % 3)]))
            .collect();
        cat.register_table("t", schema(), SortOrder::new(["k", "v"]), &tied)
            .unwrap();
        let mut broken = tied.clone();
        broken.swap(1, 2);
        let err = cat
            .register_table("u", schema(), SortOrder::new(["k", "v"]), &broken)
            .unwrap_err();
        assert!(
            matches!(&err, PyroError::InvalidRow { row: 2, column, .. } if column == "v"),
            "{err}"
        );
        // An unordered heap takes rows in any order.
        cat.register_table("w", schema(), SortOrder::empty(), &broken)
            .unwrap();
    }

    #[test]
    fn load_with_wrong_arity_rejected() {
        let mut r = rows();
        r[5] = Tuple::new(vec![Value::Int(5)]);
        assert_rejected(&r, 5, "v", "1 values for 2 columns");
        let mut r = rows();
        r[0] = Tuple::new(vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_rejected(&r, 0, "(none)", "3 values for 2 columns");
    }

    #[test]
    fn load_with_wrong_type_rejected() {
        let mut r = rows();
        r[2] = Tuple::new(vec![Value::Int(2), Value::Str("x".into())]);
        assert_rejected(&r, 2, "v", "is not of type INT");
        let mut r = rows();
        r[7] = Tuple::new(vec![Value::Int(7), Value::Double(1.0)]);
        assert_rejected(&r, 7, "v", "Double(1.0)");
        // NULL fits any column, the clustering column included.
        let mut cat = Catalog::new();
        let mut r = rows();
        r[3] = Tuple::new(vec![Value::Int(3), Value::Null]);
        r[9] = Tuple::new(vec![Value::Null, Value::Null]);
        cat.register_table("t", schema(), SortOrder::new(["k"]), &r)
            .unwrap();
    }

    #[test]
    fn index_entries_sorted_by_key() {
        let mut cat = Catalog::new();
        cat.register_table("t", schema(), SortOrder::new(["k"]), &rows())
            .unwrap();
        // index on v (descending data) with k included
        cat.create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
            .unwrap();
        let h = cat.table("t").unwrap();
        let idx_file = h.index_files.get("t_v").unwrap();
        let entries: Vec<Tuple> = idx_file.scan().map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 10);
        assert!(entries.windows(2).all(|w| w[0].get(0) <= w[1].get(0)));
        // entry layout: (v, k)
        assert_eq!(entries[0].arity(), 2);
        let meta = &h.meta;
        assert!(meta.index("t_v").is_some());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        // Regression: a second index under the same name used to be pushed
        // into `meta.indexes` and silently replace the entry file, leaking
        // the old file's pages.
        let mut cat = Catalog::new();
        cat.register_table("t", schema(), SortOrder::new(["k"]), &rows())
            .unwrap();
        cat.create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
            .unwrap();
        let pages_before = cat.device().live_pages();
        let err = cat
            .create_index("t", "t_v", SortOrder::new(["k"]), &["v"])
            .unwrap_err();
        assert_eq!(
            err,
            PyroError::DuplicateIndex {
                table: "t".into(),
                index: "t_v".into()
            }
        );
        // The rejected attempt must not have grown the store, and the
        // original index must be intact (one meta entry, one entry file).
        assert_eq!(cat.device().live_pages(), pages_before);
        let h = cat.table("t").unwrap();
        assert_eq!(h.meta.indexes.len(), 1);
        assert_eq!(h.index_files.len(), 1);
        // A different name on the same table is still fine.
        cat.create_index("t", "t_v2", SortOrder::new(["v"]), &["k"])
            .unwrap();
    }

    #[test]
    fn generation_counts_schema_mutations() {
        let mut cat = Catalog::new();
        assert_eq!(cat.generation(), 0);
        cat.register_table("t", schema(), SortOrder::new(["k"]), &rows())
            .unwrap();
        assert_eq!(cat.generation(), 1);
        cat.create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
            .unwrap();
        assert_eq!(cat.generation(), 2);
        // Failed mutations don't bump.
        assert!(cat
            .create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
            .is_err());
        assert!(cat
            .register_table("t", schema(), SortOrder::empty(), &rows())
            .is_err());
        assert_eq!(cat.generation(), 2);
    }

    #[test]
    fn index_on_missing_table_fails() {
        let mut cat = Catalog::new();
        assert!(cat
            .create_index("nope", "i", SortOrder::new(["k"]), &[])
            .is_err());
    }

    #[test]
    fn durable_catalog_survives_reopen() {
        use pyro_storage::{FileDevice, Wal};
        let dir = std::env::temp_dir().join(format!("pyro-cat-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.pyro");
        let wal_path = dir.join("wal.pyro");
        let open_store = |pool: usize| -> StoreRef {
            let dev = if data.exists() {
                FileDevice::open(&data).unwrap()
            } else {
                FileDevice::create_with_block_size(&data, 256).unwrap()
            };
            let wal = Arc::new(Wal::open_or_create(&wal_path).unwrap());
            wal.recover(&dev).unwrap();
            PageStore::durable(dev.as_device(), wal, pool, u64::MAX)
        };
        {
            let mut cat = Catalog::open_durable(open_store(8)).unwrap();
            cat.register_table("t", schema(), SortOrder::new(["k"]), &rows())
                .unwrap();
            cat.create_index("t", "t_v", SortOrder::new(["v"]), &["k"])
                .unwrap();
            // Dropped without a checkpoint: the root may still be dirty in
            // the pool, so the reopen below only works if WAL replay does.
        }
        let cat = Catalog::open_durable(open_store(8)).unwrap();
        assert_eq!(cat.generation(), 2, "generation survives reopen");
        let h = cat.table("t").unwrap();
        assert_eq!(h.meta.stats.row_count, 10);
        let got: Vec<Tuple> = h.heap.scan().map(|r| r.unwrap()).collect();
        assert_eq!(got, rows(), "heap rows bit-identical after reopen");
        let idx: Vec<Tuple> = h
            .index_files
            .get("t_v")
            .expect("index survives reopen")
            .scan()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(idx.len(), 10);
        assert!(idx.windows(2).all(|w| w[0].get(0) <= w[1].get(0)));
    }

    #[test]
    fn sort_memory_floor() {
        let mut cat = Catalog::new();
        cat.set_sort_memory_blocks(1);
        assert_eq!(cat.sort_memory_blocks(), 3);
        cat.set_sort_memory_blocks(50);
        assert_eq!(cat.sort_memory_blocks(), 50);
    }
}
