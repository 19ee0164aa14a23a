//! Fault-injection suite: injected disk faults and on-disk corruption must
//! surface as *typed* errors (`ChecksumMismatch`, `Io`, `Recovery`) — never
//! a panic, never silently wrong data.
//!
//! Session-level cases corrupt the files on disk between open and reopen;
//! device-level cases drive a [`FaultDevice`] under a durable catalog to
//! hit the failure mid-commit.

use pyro::catalog::Catalog;
use pyro::storage::{
    FaultDevice, FaultPlan, FileDevice, PageStore, Wal, FILE_HEADER_LEN, SLOT_HEADER_LEN,
    WAL_HEADER_LEN,
};
use pyro::{PyroError, SessionBuilder, SortOrder};
use pyro_common::{Schema, Tuple, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::{exact, recover_dir};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

fn rows(n: i64, salt: i64) -> Vec<Tuple> {
    (0..n)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int((k * 37 + salt) % 101)]))
        .collect()
}

fn flip_byte(path: &Path, offset: u64) {
    let mut bytes = std::fs::read(path).expect("read file to corrupt");
    assert!(
        (offset as usize) < bytes.len(),
        "flip offset {offset} out of range ({} bytes)",
        bytes.len()
    );
    bytes[offset as usize] ^= 0xFF;
    std::fs::write(path, bytes).expect("write corrupted file");
}

/// Registers one committed, checkpointed table so `data.pyro` holds real
/// page images, then returns the dir.
fn seeded_dir(name: &str) -> PathBuf {
    let dir = fresh_dir(name);
    let mut session = SessionBuilder::new()
        .data_dir(&dir)
        .buffer_pool_pages(8)
        .open()
        .expect("open");
    session
        .register_table(
            "t0",
            Schema::ints(&["k", "v"]),
            SortOrder::new(["k"]),
            &rows(500, 0),
        )
        .expect("register");
    session.checkpoint().expect("checkpoint");
    dir
}

#[test]
fn data_page_bit_flip_yields_typed_checksum_mismatch() {
    let dir = seeded_dir("fault_root_flip");
    // Page 0 is the catalog root; flip a payload byte in its slot.
    let offset = FILE_HEADER_LEN + SLOT_HEADER_LEN as u64 + 5;
    flip_byte(&dir.join("data.pyro"), offset);
    match SessionBuilder::new().data_dir(&dir).open() {
        Err(PyroError::ChecksumMismatch { page, .. }) => assert_eq!(page, 0),
        other => panic!("expected ChecksumMismatch on page 0, got {other:?}"),
    }
}

#[test]
fn any_page_corruption_is_a_typed_error_never_a_panic() {
    let dir = seeded_dir("fault_any_page_flip");
    let data = dir.join("data.pyro");
    let len = std::fs::metadata(&data).expect("stat").len();
    let block = 4096u64; // FileDevice default block size
    let slot = SLOT_HEADER_LEN as u64 + block;
    let npages = (len - FILE_HEADER_LEN) / slot;
    assert!(npages > 1, "expected multiple pages, got {npages}");
    // Corrupt every page in turn (fresh copy each time): whichever layer
    // reads it — open-time catalog decode or query-time heap scan — must
    // answer with a typed error.
    let pristine = std::fs::read(&data).expect("snapshot data file");
    for page in 0..npages {
        std::fs::write(&data, &pristine).expect("restore data file");
        flip_byte(
            &data,
            FILE_HEADER_LEN + page * slot + SLOT_HEADER_LEN as u64 + 7,
        );
        match SessionBuilder::new().data_dir(&dir).open() {
            Err(e) => {
                // Open-time detection: must be a typed storage error.
                let code = e.code();
                assert!(
                    matches!(
                        e,
                        PyroError::ChecksumMismatch { .. }
                            | PyroError::Io(_)
                            | PyroError::Recovery(_)
                            | PyroError::Storage(_)
                    ),
                    "page {page}: untyped open error {e:?} (code {code})"
                );
            }
            Ok(session) => {
                // Open survived (the page is heap data): the scan must fail
                // typed, with the checksum pinpointing the page.
                match session.sql("SELECT k, v FROM t0 ORDER BY k") {
                    Err(PyroError::ChecksumMismatch { page: p, .. }) => assert_eq!(p, page),
                    Err(e) => panic!("page {page}: expected ChecksumMismatch, got {e:?}"),
                    Ok(_) => panic!("page {page}: corruption read back as valid data"),
                }
            }
        }
    }
}

#[test]
fn wal_bit_flip_recovers_to_committed_prefix() {
    let dir = fresh_dir("fault_wal_flip");
    let wal_path = dir.join("wal.pyro");
    let t0 = rows(400, 0);
    let t1 = rows(400, 7);
    let len_after_t0;
    {
        // Big pool + infinite checkpoint threshold: nothing reaches
        // data.pyro, the WAL carries both commits.
        let mut session = SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(64)
            .wal_checkpoint_bytes(u64::MAX)
            .open()
            .expect("open");
        session
            .register_table("t0", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &t0)
            .expect("register t0");
        len_after_t0 = std::fs::metadata(&wal_path).expect("wal").len();
        session
            .register_table("t1", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &t1)
            .expect("register t1");
    }
    // Flip a byte inside t1's first WAL record: replay must stop there —
    // a torn tail — and recover exactly the t0 prefix.
    flip_byte(&wal_path, len_after_t0 + 40);
    let session = SessionBuilder::new()
        .data_dir(&dir)
        .open()
        .expect("reopen with torn WAL tail");
    let got = session.sql("SELECT k, v FROM t0 ORDER BY k").expect("t0");
    assert_eq!(exact(got.rows()), exact(&t0));
    assert!(
        !session.catalog().tables().contains_key("t1"),
        "t1's commit sits past the torn tail and must not resurface"
    );
    // Recovery started a new log cycle: nothing of the poisoned tail is
    // live any more.
    let wal = session.catalog().store().wal().expect("durable");
    assert_eq!(wal.size(), WAL_HEADER_LEN);
    drop(session);
    let replay = recover_dir(&dir);
    assert_eq!((replay.pages_replayed, replay.commits), (0, 0));
}

/// The durable open sequence over an injected-fault device.
fn open_faulted_catalog(dir: &Path, plan: FaultPlan) -> (Catalog, Arc<FaultDevice>) {
    std::fs::create_dir_all(dir).expect("mkdir");
    let data = dir.join("data.pyro");
    let device = if data.exists() {
        FileDevice::open(&data).expect("open device")
    } else {
        FileDevice::create(&data).expect("create device")
    };
    let wal = Arc::new(Wal::open_or_create(dir.join("wal.pyro")).expect("wal"));
    wal.recover(&device).expect("recover");
    let faulted = FaultDevice::wrap(device, plan);
    let store = PageStore::durable(faulted.as_device(), wal, 0, u64::MAX);
    let catalog = Catalog::open_durable(store).expect("open catalog");
    (catalog, faulted)
}

#[test]
fn failed_write_mid_commit_rolls_back_and_reopens_clean() {
    let dir = fresh_dir("fault_fail_write");
    let t0 = rows(300, 0);
    {
        let (mut catalog, _dev) = open_faulted_catalog(&dir, FaultPlan::none());
        catalog
            .register_table("t0", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &t0)
            .expect("register t0");
    }
    {
        // The next registration dies partway through its page writes.
        let (mut catalog, _dev) =
            open_faulted_catalog(&dir, FaultPlan::none().fail_after_writes(3));
        let err = catalog
            .register_table(
                "t1",
                Schema::ints(&["k", "v"]),
                SortOrder::new(["k"]),
                &rows(300, 7),
            )
            .expect_err("injected write failure must surface");
        assert!(
            matches!(err, PyroError::Io(ref m) if m.contains("injected fault")),
            "expected the injected Io error, got {err:?}"
        );
        // In-memory state rolled back: t1 gone, t0 and the catalog usable.
        assert!(!catalog.tables().contains_key("t1"));
        assert!(catalog.tables().contains_key("t0"));
    }
    // And nothing half-written leaks into a reopen.
    let session = SessionBuilder::new().data_dir(&dir).open().expect("reopen");
    assert_eq!(session.catalog().tables().len(), 1);
    let got = session.sql("SELECT k, v FROM t0 ORDER BY k").expect("t0");
    assert_eq!(exact(got.rows()), exact(&t0));
}

#[test]
fn torn_write_is_detected_on_read_back() {
    let dir = fresh_dir("fault_torn_write");
    let (mut catalog, dev) = open_faulted_catalog(&dir, FaultPlan::none().torn_at_write(2));
    // The torn write lies (reports success), so registration appears to
    // work or fails typed on read-back — either way, reading the damaged
    // page must yield ChecksumMismatch, not garbage rows.
    let _ = catalog.register_table(
        "t0",
        Schema::ints(&["k", "v"]),
        SortOrder::new(["k"]),
        &rows(300, 0),
    );
    let device = dev.as_device();
    let mut saw_mismatch = false;
    for page in 0..device.live_pages().max(8) as u64 {
        match device.read_page(page) {
            Err(PyroError::ChecksumMismatch { .. }) => saw_mismatch = true,
            Err(PyroError::Storage(_)) | Ok(_) => {}
            Err(e) => panic!("unexpected error reading page {page}: {e:?}"),
        }
    }
    assert!(saw_mismatch, "the torn page never tripped its checksum");
}

#[test]
fn short_read_is_a_typed_io_error() {
    let dir = fresh_dir("fault_short_read");
    let t0 = rows(300, 0);
    {
        let (mut catalog, _dev) = open_faulted_catalog(&dir, FaultPlan::none());
        catalog
            .register_table("t0", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &t0)
            .expect("register t0");
        catalog.checkpoint().expect("checkpoint");
    }
    let heap_page = {
        let (catalog, _dev) = open_faulted_catalog(&dir, FaultPlan::none());
        catalog.tables()["t0"].heap.pages()[0]
    };
    let (_catalog, dev) = open_faulted_catalog(&dir, FaultPlan::none().short_read_on(heap_page));
    let err = dev
        .as_device()
        .read_page(heap_page)
        .expect_err("short read must not pass validation");
    assert!(
        matches!(err, PyroError::Io(ref m) if m.contains("short read")),
        "expected a typed short-read Io error, got {err:?}"
    );
}

// ---------------------------------------------------------------------
// Operators over a dying spill device, or a dying input: the failure must
// be a typed error on the pull that hits it AND on every pull after it —
// at every batch size — never a panic ("build called once") and never a
// clean end of stream over half-consumed data. An input that fails once
// and then recovers must not let an operator carry on as if nothing had
// been lost.
// ---------------------------------------------------------------------

use pyro::exec::agg::{AggExpr, AggFunc, GroupAggregate, HashAggregate};
use pyro::exec::join::{HashJoin, JoinKind, MergeJoin, NestedLoopsJoin, Side};
use pyro::exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro::exec::{BoxOp, ExecMetrics, Expr, Operator, ValuesOp};
use pyro_common::{ColumnarBatch, KeySpec};

/// Hands its child's rows on one per pull, as one-row column batches,
/// until `rows` have gone, then fails: on every later pull, or — `once` —
/// on that pull only.
struct DyingInput {
    child: BoxOp,
    buffered: std::vec::IntoIter<Tuple>,
    rows: usize,
    once: bool,
}

impl Operator for DyingInput {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> pyro::Result<Option<ColumnarBatch>> {
        if self.rows == 0 {
            if self.once {
                self.rows = usize::MAX;
            }
            return Err(PyroError::Exec("input died".into()));
        }
        self.rows -= 1;
        while self.buffered.len() == 0 {
            let Some(batch) = self.child.next_batch()? else {
                break;
            };
            self.buffered = batch.to_rows().into_iter();
        }
        Ok(self.buffered.next().map(|t| ColumnarBatch::from_rows(&[t])))
    }
}

/// Pulls `op` until it fails, then twice more: the same error each time.
fn assert_failure_is_latched(what: &str, mut op: BoxOp, batch: usize, expect: &str) {
    op.set_batch_size(batch);
    let first = loop {
        match op.next_batch() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{what} at batch {batch}: clean end of stream over a fault"),
            Err(e) => break e,
        }
    };
    assert!(
        format!("{first:?}").contains(expect),
        "{what} at batch {batch}: expected {expect}, got {first:?}"
    );
    for _ in 0..2 {
        assert_eq!(
            op.next_batch().expect_err("a failed operator stays failed"),
            first,
            "{what} at batch {batch}: a later pull must repeat the error"
        );
    }
}

#[test]
fn a_sort_that_failed_stays_failed_on_every_pull_path() {
    // 600 rows of ~34 budget bytes against 3 blocks of 256: the sorts
    // below spill from the start. Column 0 is one value throughout — one
    // oversized partial-sort segment, one group, one join key — column 1
    // descends.
    let data: Vec<Tuple> = (0..600)
        .map(|i| Tuple::new(vec![Value::Int(1), Value::Int(600 - i)]))
        .collect();
    let source = |data: &[Tuple]| -> BoxOp {
        Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), data.to_vec()))
    };
    let key = KeySpec::new(vec![0, 1]);
    let budget = SortBudget::new(3, 256);
    for batch in [1, 1024] {
        // The spill device dies on its third page write.
        let dying_device = |name: &str| {
            let dir = fresh_dir(&format!("fault_sort_{name}_{batch}"));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let file = FileDevice::create_with_block_size(dir.join("spill.pyro"), 256)
                .expect("create device");
            FaultDevice::wrap(file, FaultPlan::none().fail_after_writes(2)).as_device()
        };
        let srs = StandardReplacementSort::new(
            source(&data),
            key.clone(),
            dying_device("srs"),
            budget,
            ExecMetrics::new(),
        );
        assert_failure_is_latched("SRS run write", Box::new(srs), batch, "injected fault");
        let mrs = PartialSort::new(
            source(&data),
            key.clone(),
            1,
            dying_device("mrs"),
            budget,
            ExecMetrics::new(),
        );
        assert_failure_is_latched("MRS mid-spill", Box::new(mrs), batch, "injected fault");

        // The input dies after 100 rows — for good, or once — over a
        // healthy device.
        for once in [false, true] {
            let dying = || -> BoxOp {
                Box::new(DyingInput {
                    child: source(&data),
                    buffered: Vec::new().into_iter(),
                    rows: 100,
                    once,
                })
            };
            let device = || pyro::storage::SimDevice::with_block_size(256);
            let m = ExecMetrics::new;
            let count = || vec![AggExpr::new(AggFunc::Count, Expr::col(1), "n")];
            let k0 = || KeySpec::new(vec![0]);
            let other =
                || -> BoxOp { Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), data.clone())) };
            let ops: Vec<(&str, BoxOp)> = vec![
                (
                    "SRS input",
                    Box::new(StandardReplacementSort::new(
                        dying(),
                        key.clone(),
                        device(),
                        budget,
                        m(),
                    )),
                ),
                (
                    "MRS input",
                    Box::new(PartialSort::new(
                        dying(),
                        key.clone(),
                        1,
                        device(),
                        budget,
                        m(),
                    )),
                ),
                (
                    "nested loops inner",
                    Box::new(NestedLoopsJoin::new(
                        other(),
                        dying(),
                        k0(),
                        k0(),
                        JoinKind::Inner,
                    )),
                ),
                (
                    "hash join build",
                    Box::new(HashJoin::new(dying(), other(), k0(), k0(), Side::Left)),
                ),
                (
                    "merge join",
                    Box::new(MergeJoin::new(
                        dying(),
                        other(),
                        k0(),
                        k0(),
                        JoinKind::Inner,
                        m(),
                    )),
                ),
                (
                    "hash aggregate",
                    Box::new(HashAggregate::new(dying(), vec![0], count())),
                ),
                (
                    "group aggregate",
                    Box::new(GroupAggregate::new(dying(), vec![0], count())),
                ),
                (
                    "group aggregate without aggregates",
                    Box::new(GroupAggregate::new(dying(), vec![0, 1], vec![])),
                ),
                (
                    "hash aggregate without aggregates",
                    Box::new(HashAggregate::new(dying(), vec![0, 1], vec![])),
                ),
            ];
            for (what, op) in ops {
                let what = format!(
                    "{what} (input dies {})",
                    if once { "once" } else { "for good" }
                );
                assert_failure_is_latched(&what, op, batch, "input died");
            }
        }
    }
}
