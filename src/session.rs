//! The engine's front door: one object that owns the catalog and runs the
//! whole parse → lower → optimize → compile → execute pipeline.
//!
//! ```
//! use pyro::{Session, SortOrder, common::Schema};
//!
//! let mut session = Session::new();
//! session
//!     .register_csv(
//!         "events",
//!         Schema::ints(&["k", "v"]),
//!         SortOrder::new(["k"]),
//!         "0,10\n0,3\n1,7\n",
//!     )
//!     .unwrap();
//! let result = session.sql("SELECT k, v FROM events ORDER BY k, v").unwrap();
//! assert_eq!(result.len(), 3);
//! assert!(result.cost() > 0.0);
//! ```

use crate::result::{PlanCacheInfo, QueryResult};
use pyro_catalog::Catalog;
use pyro_common::{ColumnarBatch, DataType, PyroError, Result, Schema, Tuple, Value};
use pyro_core::cache::{CachedStatement, PlanCache, PlanCacheStats, PlanKey};
use pyro_core::{CompileOptions, EnumStrategy, OptimizedPlan, Optimizer, Strategy};
use pyro_exec::{BoxOp, MetricsRef, Pipeline, DEFAULT_BATCH_SIZE};
use pyro_ordering::SortOrder;
use pyro_storage::{FileDevice, PageStore, Wal};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Default WAL size at which a commit triggers a checkpoint (1 MiB).
pub const DEFAULT_WAL_CHECKPOINT_BYTES: u64 = 1 << 20;

/// Every knob a live [`Session`] reads when it plans and runs a query — one
/// value the builder fills, the session holds, the plan-cache key hashes
/// whole (so a knob added here can never be forgotten there) and the
/// executor's [`CompileOptions`] are derived from. What each field means is
/// documented on the [`SessionBuilder`] method of the same name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionConfig {
    /// Interesting-order strategy.
    pub strategy: Strategy,
    /// Inner-join region size above which the region is re-shaped.
    pub join_enum_threshold: usize,
    /// Whether hash join / hash aggregate alternatives are considered.
    pub hash_operators: bool,
    /// Execution batch size in rows (floor 1).
    pub batch_size: usize,
    /// Execution worker threads (floor 1).
    pub workers: usize,
    /// RNG seed for data generators driven through the session. Fixed at
    /// build time; the only field without a setter.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            strategy: Strategy::pyro_o(),
            join_enum_threshold: pyro_core::joingraph::DEFAULT_JOIN_ENUM_THRESHOLD,
            hash_operators: true,
            batch_size: DEFAULT_BATCH_SIZE,
            workers: 1,
            seed: pyro_datagen::SEED,
        }
    }
}

/// Configures and builds a [`Session`].
///
/// Defaults match the paper's full machinery: the `PYRO-O` strategy,
/// hash-join/aggregate alternatives enabled, a 100-block sort memory budget,
/// 1024-row execution batches, single-threaded execution, no buffer pool
/// (every page access is charged as cold device I/O), no plan cache (every
/// query is planned from scratch), and cost constants derived from the
/// backing device.
///
/// ```
/// use pyro::{Session, Strategy};
///
/// let session = Session::builder()
///     .strategy(Strategy::pyro_e())
///     .hash_operators(false)
///     .sort_memory_blocks(50)
///     .buffer_pool_pages(256)
///     .workers(2)
///     .build();
/// assert_eq!(session.strategy(), Strategy::pyro_e());
/// assert_eq!(session.buffer_pool_pages(), Some(256));
/// ```
#[derive(Debug, Default)]
pub struct SessionBuilder {
    config: SessionConfig,
    // What `open` builds the catalog, pool and plan cache from; the
    // session reports these from the objects themselves.
    sort_memory_blocks: Option<u64>,
    buffer_pool_pages: usize,
    plan_cache_entries: usize,
    data_dir: Option<PathBuf>,
    wal_checkpoint_bytes: Option<u64>,
}

impl SessionBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Sets the interesting-order strategy (default: [`Strategy::pyro_o`]).
    pub fn strategy(mut self, strategy: Strategy) -> SessionBuilder {
        self.config.strategy = strategy;
        self
    }

    /// Sets the strategy by paper name (`"pyro"`, `"pyro-p"`, `"pyro-e"`,
    /// `"pyro-o"`, `"pyro-o-"`); for CLI flags and config files.
    pub fn strategy_name(self, name: &str) -> Result<SessionBuilder> {
        Ok(self.strategy(Strategy::from_name(name)?))
    }

    /// Inner-join region size (leaf inputs) above which the region is
    /// re-shaped with the cardinality-free heuristic before the one
    /// memoized search, instead of planning the given join shape (default:
    /// [`pyro_core::joingraph::DEFAULT_JOIN_ENUM_THRESHOLD`]; `2` re-shapes
    /// every region of three or more inputs, `usize::MAX` never re-shapes).
    /// Orthogonal to [`SessionBuilder::strategy`].
    pub fn join_enum_threshold(mut self, threshold: usize) -> SessionBuilder {
        self.config.join_enum_threshold = threshold;
        self
    }

    /// Enables or disables hash join / hash aggregate alternatives
    /// (default: enabled). The paper's figures use `false` — its prototype
    /// explored the sort-based plan space only.
    pub fn hash_operators(mut self, enable: bool) -> SessionBuilder {
        self.config.hash_operators = enable;
        self
    }

    /// Sets the sort memory budget `M` in blocks (default: 100; floor 3).
    pub fn sort_memory_blocks(mut self, blocks: u64) -> SessionBuilder {
        self.sort_memory_blocks = Some(blocks);
        self
    }

    /// Sets the execution batch size in rows (default: 1024; floor 1) —
    /// how many tuples each operator hands its parent per `next_batch`
    /// call. Counter totals are batch-size invariant; only CPU efficiency
    /// changes. `1` degenerates to tuple-at-a-time pull.
    pub fn batch_size(mut self, rows: usize) -> SessionBuilder {
        self.config.batch_size = rows.max(1);
        self
    }

    /// Sets the number of execution worker threads (default: 1; floor 1).
    /// `1` is today's serial engine, bit-identical to every previous
    /// release; more workers enable morsel-driven parallelism for
    /// parallel-safe plan subtrees. The row sequence and all `ExecMetrics`
    /// counters are worker-count invariant; only wall-clock changes.
    pub fn workers(mut self, workers: usize) -> SessionBuilder {
        self.config.workers = workers.max(1);
        self
    }

    /// Sets the RNG seed handed to data generators that ask the session for
    /// one (default: [`pyro_datagen::SEED`]), so two sessions built with
    /// the same seed — in one process or in two — populate identical tables.
    pub fn seed(mut self, seed: u64) -> SessionBuilder {
        self.config.seed = seed;
        self
    }

    /// Puts a `pages`-frame buffer pool (CLOCK page cache with write-back;
    /// see [`pyro_storage::BufferPool`]) in front of the session's device.
    /// Default — and `pages = 0` — is **bypass**: no pool, every page
    /// access charged as cold device I/O, all execution counters
    /// bit-identical to earlier releases. With a bounded pool, repeated
    /// page reads (join rescans, warm re-runs, sort-run merges) are served
    /// from memory: device counters then measure cold I/O only, and
    /// `ExecMetrics::cache_hits`/`cache_misses` report the per-query
    /// hot/cold split. The pool must be chosen at build time — registered
    /// tables capture the I/O path they were written through.
    pub fn buffer_pool_pages(mut self, pages: usize) -> SessionBuilder {
        self.buffer_pool_pages = pages;
        self
    }

    /// Caches up to `entries` optimized plans, keyed by normalized SQL +
    /// a fingerprint of every plan-affecting knob + the catalog's schema
    /// generation (see [`pyro_core::cache::PlanCache`]). Default — and
    /// `entries = 0` — is **off**: every query re-runs the full
    /// parse → lower → optimize pipeline, bit-identical to earlier
    /// releases. With a bounded cache, a repeated query shape skips
    /// planning entirely and reuses the optimized plan; any knob flip or
    /// `register_table`/`register_csv`/`create_index` call changes the key,
    /// so a stale plan is never served.
    pub fn plan_cache_entries(mut self, entries: usize) -> SessionBuilder {
        self.plan_cache_entries = entries;
        self
    }

    /// Makes the session **durable**: pages live in `dir/data.pyro`
    /// behind a write-ahead log (`dir/wal.pyro`), catalog mutations
    /// commit atomically, and reopening the same directory — after a
    /// clean exit *or* a crash — recovers every committed table. The
    /// directory is created if missing. Without this knob (the default)
    /// the session is purely in-memory and bit-identical to earlier
    /// releases. Durable opens can fail (corruption, I/O); prefer
    /// [`SessionBuilder::open`] to see the typed error instead of
    /// [`SessionBuilder::build`]'s panic.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.data_dir = Some(dir.into());
        self
    }

    /// WAL size (bytes) above which a commit checkpoints — flushing the
    /// pool, fsyncing the data file and starting a new log cycle over the
    /// old one's bytes, truncating the file only past twice this (default
    /// [`DEFAULT_WAL_CHECKPOINT_BYTES`]). Raise it to make crash-recovery
    /// replay carry more of the state (tests do); lower it to bound
    /// recovery time. Ignored without [`SessionBuilder::data_dir`].
    pub fn wal_checkpoint_bytes(mut self, bytes: u64) -> SessionBuilder {
        self.wal_checkpoint_bytes = Some(bytes);
        self
    }

    /// Builds the session over a fresh simulated device, or — with
    /// [`SessionBuilder::data_dir`] — panics on a durable-open failure.
    /// Durable callers who want the typed error use
    /// [`SessionBuilder::open`].
    pub fn build(self) -> Session {
        self.open()
            .expect("durable session open failed; use SessionBuilder::open for the typed error")
    }

    /// Builds the session, surfacing durable-open failures (bad magic,
    /// checksum mismatches, unreadable catalog) as typed errors. For
    /// in-memory sessions (no [`SessionBuilder::data_dir`]) this is
    /// infallible and identical to [`SessionBuilder::build`].
    pub fn open(self) -> Result<Session> {
        let mut catalog = match &self.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| PyroError::Io(format!("create {}: {e}", dir.display())))?;
                let data_path = dir.join("data.pyro");
                let device = if data_path.exists() {
                    FileDevice::open(&data_path)?
                } else {
                    FileDevice::create(&data_path)?
                };
                let wal = Arc::new(Wal::open_or_create(dir.join("wal.pyro"))?);
                // Replay whatever the last process committed but never
                // wrote back; torn tails are discarded here.
                wal.recover(&device)?;
                let store = PageStore::durable(
                    device.as_device(),
                    wal,
                    self.buffer_pool_pages,
                    self.wal_checkpoint_bytes
                        .unwrap_or(DEFAULT_WAL_CHECKPOINT_BYTES),
                );
                Catalog::open_durable(store)?
            }
            None => match self.buffer_pool_pages {
                0 => Catalog::new(),
                pages => Catalog::with_buffer_pool(pages),
            },
        };
        if let Some(m) = self.sort_memory_blocks {
            catalog.set_sort_memory_blocks(m);
        }
        Ok(Session {
            catalog,
            config: self.config,
            plan_cache: (self.plan_cache_entries > 0)
                .then(|| PlanCache::new(self.plan_cache_entries)),
        })
    }
}

/// A query session: a catalog plus the optimizer and executor
/// configuration, behind a one-shot [`Session::sql`]. Execution is
/// single-threaded by default and morsel-parallel when
/// [`SessionBuilder::workers`] is raised.
///
/// ```
/// use pyro::{Session, SortOrder, common::Schema};
///
/// let mut session = Session::new();
/// session
///     .register_csv(
///         "events",
///         Schema::ints(&["k", "v"]),
///         SortOrder::new(["k"]),
///         "0,10\n0,3\n1,7\n",
///     )
///     .unwrap();
/// let result = session.sql("SELECT k, v FROM events ORDER BY k, v").unwrap();
/// assert_eq!(result.len(), 3);
/// assert_eq!(
///     result.metrics().run_io(),
///     0,
///     "partial sort over the clustering: zero spill I/O"
/// );
/// println!("{}", session.explain("SELECT k FROM events").unwrap());
/// ```
///
/// Every in-repo consumer — examples, integration tests, figure
/// reproductions — goes through this type; the layer-by-layer API
/// (`pyro_sql::plan`, [`Optimizer`], [`OptimizedPlan::execute`]) remains
/// public for surgical use but is no longer required plumbing.
#[derive(Debug)]
pub struct Session {
    catalog: Catalog,
    config: SessionConfig,
    plan_cache: Option<PlanCache>,
}

// The whole query path ([`Session::sql`], [`Session::prepare`],
// [`Prepared::execute`], [`Session::explain`]) takes `&self`, so N client
// threads can serve queries concurrently over one catalog, buffer pool and
// plan cache through an `Arc<Session>`. This compile-time assertion is the
// contract: it breaks the build if a future field loses `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl Session {
    /// A session with default configuration (PYRO-O, hash operators on).
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Registers a table from in-memory rows (must fit `schema` and already
    /// be sorted by `clustering`, or the load is a typed
    /// [`PyroError::InvalidRow`]); delegates to [`Catalog::register_table`].
    pub fn register_table(
        &mut self,
        name: &str,
        schema: Schema,
        clustering: SortOrder,
        rows: &[Tuple],
    ) -> Result<()> {
        self.catalog
            .register_table(name, schema, clustering, rows)?;
        Ok(())
    }

    /// Registers a table from CSV text (no header row). Fields are coerced
    /// to the schema's column types; rows are sorted by `clustering` before
    /// registration, so any row order is accepted.
    pub fn register_csv(
        &mut self,
        name: &str,
        schema: Schema,
        clustering: SortOrder,
        csv: &str,
    ) -> Result<()> {
        let mut rows = pyro_datagen::csv::parse_csv(&schema, csv, false)?;
        if !clustering.is_empty() {
            let key = pyro_common::KeySpec::new(
                clustering
                    .attrs()
                    .iter()
                    .map(|a| schema.index_of(a))
                    .collect::<Result<Vec<_>>>()?,
            );
            rows.sort_by(|a, b| key.compare(a, b));
        }
        self.register_table(name, schema, clustering, &rows)
    }

    /// Builds a covering secondary index; delegates to
    /// [`Catalog::create_index`].
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        key: SortOrder,
        included: &[&str],
    ) -> Result<()> {
        self.catalog.create_index(table, index_name, key, included)
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    /// The owned catalog (schemas, statistics, device counters).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Flushes the buffer pool, fsyncs the data file and starts a new WAL
    /// cycle. A no-op for in-memory sessions. Graceful shutdown calls
    /// this so a subsequent open replays nothing.
    pub fn checkpoint(&self) -> Result<()> {
        self.catalog.checkpoint()
    }

    /// Whether this session persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.catalog.is_durable()
    }

    /// Mutable catalog access, e.g. for `pyro_datagen`'s workload loaders.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Every query-time knob at its current value.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session's current strategy.
    pub fn strategy(&self) -> Strategy {
        self.config.strategy
    }

    /// Switches the interesting-order strategy for subsequent queries.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.config.strategy = strategy;
    }

    /// Switches the strategy by paper name.
    pub fn set_strategy_name(&mut self, name: &str) -> Result<()> {
        self.config.strategy = Strategy::from_name(name)?;
        Ok(())
    }

    /// Always [`EnumStrategy::Memo`], the only enumerator; kept only for the
    /// benchmark harness, and deleted by its next interface change
    /// (ROADMAP 20(b)).
    pub fn enum_strategy(&self) -> EnumStrategy {
        EnumStrategy::Memo
    }

    /// The current join-enumeration threshold; see
    /// [`SessionBuilder::join_enum_threshold`].
    pub fn join_enum_threshold(&self) -> usize {
        self.config.join_enum_threshold
    }

    /// Sets the join-enumeration threshold for subsequent queries.
    pub fn set_join_enum_threshold(&mut self, threshold: usize) {
        self.config.join_enum_threshold = threshold;
    }

    /// Enables or disables hash operator alternatives for subsequent
    /// queries.
    pub fn set_hash_operators(&mut self, enable: bool) {
        self.config.hash_operators = enable;
    }

    /// Plan-cache capacity in entries; `0` means the session plans every
    /// query from scratch (the default).
    pub fn plan_cache_entries(&self) -> usize {
        self.plan_cache.as_ref().map_or(0, PlanCache::capacity)
    }

    /// Plan-cache counters (hits, misses, evictions, occupancy), or `None`
    /// when the cache is off. The same snapshot rides on every
    /// [`QueryResult`] as [`QueryResult::plan_cache`].
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.plan_cache.as_ref().map(PlanCache::stats)
    }

    /// Whether hash operator alternatives are currently enabled.
    pub fn hash_operators(&self) -> bool {
        self.config.hash_operators
    }

    /// Sets the sort memory budget `M` in blocks.
    pub fn set_sort_memory_blocks(&mut self, blocks: u64) {
        self.catalog.set_sort_memory_blocks(blocks);
    }

    /// The execution batch size in rows.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size
    }

    /// Sets the execution batch size for subsequent queries (floor 1).
    pub fn set_batch_size(&mut self, rows: usize) {
        self.config.batch_size = rows.max(1);
    }

    /// The number of execution worker threads.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Sets the worker-thread count for subsequent queries (floor 1; `1` is
    /// the serial engine).
    pub fn set_workers(&mut self, workers: usize) {
        self.config.workers = workers.max(1);
    }

    /// Always `true`: scans always decode to columns. Kept only for the
    /// benchmark harness, and deleted by its next interface change
    /// (ROADMAP 20(b)).
    pub fn columnar(&self) -> bool {
        true
    }

    /// The RNG seed for data generators driven through this session.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Buffer-pool capacity in pages, or `None` when the session bypasses
    /// the pool (the default).
    pub fn buffer_pool_pages(&self) -> Option<usize> {
        self.catalog.store().pool_pages()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Runs a SQL query end to end and returns the typed result. Execution
    /// is batch-at-a-time at the session's configured batch size, across
    /// the session's configured worker threads. Queries containing `?`
    /// placeholders are a typed error here — prepare them with
    /// [`Session::prepare`] and bind values via [`Prepared::execute`].
    pub fn sql(&self, sql: &str) -> Result<QueryResult> {
        let (stmt, hit) = self.placeholder_free_statement(sql)?;
        self.run_statement(&stmt.plan, &[], hit)
    }

    /// Optimizes a SQL query and returns the costed physical plan text
    /// without executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(crate::result::render_plan(&self.plan(sql)?))
    }

    /// Optimizes a SQL query into an [`OptimizedPlan`] — the escape hatch
    /// for plan surgery and repeated execution; everyday callers want
    /// [`Session::sql`]. Served from the plan cache when one is configured.
    pub fn plan(&self, sql: &str) -> Result<OptimizedPlan> {
        Ok(self.statement(sql)?.0.plan.clone())
    }

    /// Optimizes a SQL statement once — `?` placeholders stay symbolic —
    /// and returns a [`Prepared`] handle that executes it with bound
    /// parameter values. With a plan cache configured, preparing the same
    /// statement again (or having run it via [`Session::sql`]) is a cache
    /// hit.
    ///
    /// ```
    /// use pyro::{Session, SortOrder, common::{Schema, Value}};
    ///
    /// let mut session = Session::new();
    /// session
    ///     .register_csv("t", Schema::ints(&["a", "b"]), SortOrder::new(["a"]), "1,10\n2,20\n")
    ///     .unwrap();
    /// let stmt = session.prepare("SELECT a, b FROM t WHERE a = ? ORDER BY a").unwrap();
    /// assert_eq!(stmt.param_count(), 1);
    /// let hit = stmt.execute(&[Value::Int(2)]).unwrap();
    /// assert_eq!(hit.len(), 1);
    /// let miss = stmt.execute(&[Value::Int(99)]).unwrap();
    /// assert!(miss.is_empty());
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Prepared<&Session>> {
        let (stmt, cache_hit) = self.statement(sql)?;
        Ok(Prepared {
            session: self,
            stmt,
            cache_hit,
        })
    }

    /// [`Session::prepare`] for sessions shared behind an [`Arc`] — the
    /// returned [`SharedPrepared`] co-owns the session, so it has no
    /// borrow lifetime and can live in long-lived registries (e.g. a wire
    /// server's per-connection prepared-statement table) or move across
    /// threads. It executes exactly as the borrowed handle does.
    ///
    /// ```
    /// use pyro::{Session, SortOrder, common::{Schema, Value}};
    /// use std::sync::Arc;
    ///
    /// let mut session = Session::new();
    /// session
    ///     .register_csv("t", Schema::ints(&["a", "b"]), SortOrder::new(["a"]), "1,10\n2,20\n")
    ///     .unwrap();
    /// let session = Arc::new(session);
    /// let stmt = session.prepare_shared("SELECT a, b FROM t WHERE a = ?").unwrap();
    /// drop(session); // the statement keeps the session alive
    /// assert_eq!(stmt.execute(&[Value::Int(2)]).unwrap().len(), 1);
    /// ```
    pub fn prepare_shared(self: &Arc<Self>, sql: &str) -> Result<SharedPrepared> {
        let (stmt, cache_hit) = self.statement(sql)?;
        Ok(Prepared {
            session: Arc::clone(self),
            stmt,
            cache_hit,
        })
    }

    /// Runs a SQL query and returns a [`QueryStream`] that yields result
    /// rows **incrementally**, batch by batch, instead of materializing
    /// them all — the serving hook: a network front end can forward each
    /// batch as it is produced, enforce row/byte budgets mid-query, and
    /// cancel by dropping the stream. Queries with `?` placeholders are a
    /// typed error here, exactly as in [`Session::sql`].
    ///
    /// ```
    /// use pyro::{Session, SortOrder, common::Schema};
    ///
    /// let mut session = Session::new();
    /// session
    ///     .register_csv("t", Schema::ints(&["a"]), SortOrder::new(["a"]), "1\n2\n3\n")
    ///     .unwrap();
    /// let mut stream = session.sql_stream("SELECT a FROM t ORDER BY a").unwrap();
    /// let mut n = 0;
    /// while let Some(batch) = stream.next_batch().unwrap() {
    ///     n += batch.len();
    /// }
    /// assert_eq!(n, 3);
    /// ```
    pub fn sql_stream(&self, sql: &str) -> Result<QueryStream> {
        let (stmt, hit) = self.placeholder_free_statement(sql)?;
        self.stream_statement(&stmt.plan, &[], hit)
    }

    /// [`Session::statement`] for the entry points that bind nothing: a
    /// statement with `?` placeholders is a typed error.
    fn placeholder_free_statement(
        &self,
        sql: &str,
    ) -> Result<(Arc<CachedStatement>, Option<bool>)> {
        let (stmt, hit) = self.statement(sql)?;
        match stmt.param_types.len() {
            0 => Ok((stmt, hit)),
            n => Err(PyroError::ParamBinding(format!(
                "query has {n} unbound ?-placeholder(s); use Session::prepare \
                 and Prepared::execute to bind values"
            ))),
        }
    }

    /// Resolves a statement to its optimized plan + placeholder facts,
    /// through the plan cache when one is configured, and whether that was
    /// a hit (`None` without a cache). Statements are shared (`Arc`), not
    /// cloned: a cache hit costs one reference bump.
    fn statement(&self, sql: &str) -> Result<(Arc<CachedStatement>, Option<bool>)> {
        let Some(cache) = &self.plan_cache else {
            return Ok((Arc::new(self.optimize_statement(sql)?), None));
        };
        let key = PlanKey {
            sql: pyro_sql::normalize(sql)?,
            fingerprint: self.knob_fingerprint(),
            generation: self.catalog.generation(),
        };
        if let Some(stmt) = cache.lookup(&key) {
            return Ok((stmt, Some(true)));
        }
        let stmt = Arc::new(self.optimize_statement(sql)?);
        cache.insert(key, Arc::clone(&stmt));
        Ok((stmt, Some(false)))
    }

    /// The plan-cache report for a query whose statement lookup had hit
    /// flag `hit`, with the cache's counters as they stand now.
    fn cache_info(&self, hit: Option<bool>) -> Option<PlanCacheInfo> {
        let stats = self.plan_cache_stats()?;
        hit.map(|hit| PlanCacheInfo { hit, stats })
    }

    /// The uncached parse → lower → optimize pipeline.
    fn optimize_statement(&self, sql: &str) -> Result<CachedStatement> {
        let (logical, params) = pyro_sql::plan_with_params(sql, &self.catalog)?;
        let config = &self.config;
        let optimizer = Optimizer::new(&self.catalog)
            .with_strategy(config.strategy)
            .with_hash(config.hash_operators)
            .with_join_enum_threshold(config.join_enum_threshold);
        Ok(CachedStatement {
            plan: optimizer.optimize(&logical)?,
            param_types: params.types,
        })
    }

    /// Compiles a plan with `params` bound, as the session's knobs say.
    fn compile(&self, plan: &OptimizedPlan, params: &[Value]) -> Result<Pipeline> {
        let options = CompileOptions {
            batch_size: self.config.batch_size,
            workers: self.config.workers,
            params,
        };
        plan.compile(&self.catalog, &options)
    }

    /// Compiles and drains a plan with `params` bound, packaging the typed
    /// result.
    fn run_statement(
        &self,
        plan: &OptimizedPlan,
        params: &[Value],
        hit: Option<bool>,
    ) -> Result<QueryResult> {
        let cache = self.cache_info(hit);
        let start = Instant::now();
        let pipeline = self.compile(plan, params)?;
        let schema = pipeline.schema().clone();
        let out = pipeline.run()?;
        Ok(QueryResult {
            rows: out.rows,
            schema,
            metrics: out.metrics,
            plan: plan.clone(),
            elapsed: start.elapsed(),
            plan_cache: cache,
        })
    }

    /// Compiles a plan with `params` bound into an incremental
    /// [`QueryStream`] instead of draining it (the [`Session::sql_stream`]
    /// / [`Prepared::execute_stream`] backend).
    fn stream_statement(
        &self,
        plan: &OptimizedPlan,
        params: &[Value],
        hit: Option<bool>,
    ) -> Result<QueryStream> {
        let cache = self.cache_info(hit);
        let pipeline = self.compile(plan, params)?;
        let schema = pipeline.schema().clone();
        let (op, metrics) = pipeline.into_parts();
        Ok(QueryStream {
            op,
            schema,
            metrics,
            plan: plan.clone(),
            plan_cache: cache,
            finished: false,
        })
    }

    /// Hashes everything that can change what plan the optimizer produces
    /// or how it is compiled: the whole [`SessionConfig`], plus the two
    /// facts the catalog owns — the sort memory budget and the buffer-pool
    /// capacity. Part of the plan-cache key, so changing any of them can
    /// never serve a stale plan.
    fn knob_fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.config.hash(&mut h);
        self.catalog.sort_memory_blocks().hash(&mut h);
        self.catalog.store().pool_pages().unwrap_or(0).hash(&mut h);
        h.finish()
    }
}

/// A statement optimized once, executable many times with different bound
/// parameter values — created by [`Session::prepare`], which borrows the
/// session (`Prepared<&Session>`), or by [`Session::prepare_shared`], which
/// co-owns it ([`SharedPrepared`]: no borrow lifetime, `Send + Sync`, so one
/// can be stored per connection in a wire server or shared across worker
/// threads). Each [`Prepared::execute`] call re-compiles the *same*
/// optimized plan with the bindings substituted for its `?` placeholders,
/// so execution matches the equivalent literal SQL exactly while the
/// planning cost is paid once.
#[derive(Debug, Clone)]
pub struct Prepared<S: Deref<Target = Session>> {
    session: S,
    stmt: Arc<CachedStatement>,
    /// Whether preparing this statement hit the session's plan cache
    /// (`None` when the cache is off).
    cache_hit: Option<bool>,
}

/// A prepared statement that co-owns its session; see [`Prepared`].
pub type SharedPrepared = Prepared<Arc<Session>>;

impl<S: Deref<Target = Session>> Prepared<S> {
    /// Number of `?` placeholders to bind.
    pub fn param_count(&self) -> usize {
        self.stmt.param_types.len()
    }

    /// Expected type per placeholder, where the statement pins one (the
    /// placeholder is compared against a base column of that type).
    pub fn param_types(&self) -> &[Option<DataType>] {
        &self.stmt.param_types
    }

    /// The statement's optimized plan (placeholders still symbolic).
    pub fn plan(&self) -> &OptimizedPlan {
        &self.stmt.plan
    }

    /// The costed plan text, as [`Session::explain`] renders it.
    pub fn explain(&self) -> String {
        crate::result::render_plan(&self.stmt.plan)
    }

    /// Whether preparing this statement was a plan-cache hit (`None` when
    /// the session runs without a plan cache).
    pub fn cache_hit(&self) -> Option<bool> {
        self.cache_hit
    }

    /// Executes with `params` bound positionally to the `?` placeholders,
    /// materializing the whole result. The binding is validated first: the
    /// count must match [`Prepared::param_count`], and a non-NULL value must
    /// agree with the expected type where the statement pins one
    /// ([`Prepared::param_types`]) — with the same laxness literal SQL has:
    /// `Int` and `Double` are one numeric family (the engine compares mixed
    /// numerics numerically, so `WHERE x = 2` matches a `Double` column
    /// exactly like `WHERE x = 2.0`), while a string where a number is
    /// expected (or vice versa) is a typed error. NULL binds anywhere —
    /// comparisons with it are not-true, exactly as a literal NULL would
    /// behave.
    pub fn execute(&self, params: &[Value]) -> Result<QueryResult> {
        self.check(params)?;
        self.session
            .run_statement(&self.stmt.plan, params, self.cache_hit)
    }

    /// Executes with `params` bound, yielding rows incrementally as a
    /// [`QueryStream`] — the serving path: forward batches as produced,
    /// enforce budgets mid-query, cancel by dropping the stream. A bad
    /// binding fails here, before any batch, exactly as in
    /// [`Prepared::execute`].
    pub fn execute_stream(&self, params: &[Value]) -> Result<QueryStream> {
        self.check(params)?;
        self.session
            .stream_statement(&self.stmt.plan, params, self.cache_hit)
    }

    /// Validates positional bindings as [`Prepared::execute`] documents.
    fn check(&self, params: &[Value]) -> Result<()> {
        let param_types = &self.stmt.param_types;
        if params.len() != param_types.len() {
            return Err(PyroError::ParamBinding(format!(
                "statement takes {} parameter(s), {} bound",
                param_types.len(),
                params.len()
            )));
        }
        let numeric = |ty: DataType| matches!(ty, DataType::Int | DataType::Double);
        for (i, (value, expected)) in params.iter().zip(param_types).enumerate() {
            if let (Some(actual), Some(expected)) = (value.data_type(), expected) {
                let compatible = actual == *expected || (numeric(actual) && numeric(*expected));
                if !compatible {
                    return Err(PyroError::ParamBinding(format!(
                        "placeholder ?{} expects {expected}, got {actual} ({value})",
                        i + 1
                    )));
                }
            }
        }
        Ok(())
    }
}

/// An executing query whose rows are pulled **incrementally** — created by
/// [`Session::sql_stream`] or [`Prepared::execute_stream`] (borrowed or
/// shared). Each
/// [`QueryStream::next_batch`] call advances the compiled operator tree by
/// at most one batch (the session's `batch_size`), so a consumer can
/// forward results as they are produced, stop early when a budget is
/// exhausted, or cancel outright by dropping the stream — pipeline
/// resources (sort spills, exchange workers) are released on drop.
pub struct QueryStream {
    op: BoxOp,
    schema: Schema,
    metrics: MetricsRef,
    plan: OptimizedPlan,
    plan_cache: Option<PlanCacheInfo>,
    finished: bool,
}

impl std::fmt::Debug for QueryStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryStream")
            .field("schema", &self.schema)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl QueryStream {
    /// Output schema (qualified column names).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The optimized plan being executed.
    pub fn plan(&self) -> &OptimizedPlan {
        &self.plan
    }

    /// Plan-cache interaction for this query — `Some` iff the session runs
    /// with a plan cache.
    pub fn plan_cache(&self) -> Option<&PlanCacheInfo> {
        self.plan_cache.as_ref()
    }

    /// Execution counters accumulated so far; the handle keeps counting
    /// while batches are pulled.
    pub fn metrics(&self) -> &MetricsRef {
        &self.metrics
    }

    /// Pulls the next batch the plan root hands over, as columns — its
    /// rows are the selected ones ([`ColumnarBatch::len`],
    /// [`ColumnarBatch::to_rows`]) — or `None` once the query is done.
    /// After `None` (or an error) the stream stays exhausted.
    pub fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.finished {
            return Ok(None);
        }
        let pulled = self.op.next_batch();
        self.finished = !matches!(pulled, Ok(Some(_)));
        pulled
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}
