//! `Catalog::create_index` must write the very pages the row-at-a-time
//! build wrote: scan the heap, project each row to the entry columns, sort
//! the projections stably with `KeySpec::compare`, write them in order.
//! That reference is kept here, and every index built below is held to it
//! page by page, byte by byte.

use pyro_catalog::{Catalog, IndexMeta};
use pyro_common::{Column, DataType, KeySpec, Schema, Tuple, Value};
use pyro_ordering::SortOrder;
use pyro_storage::{write_file, FileDevice, PageStore, SimDevice, StoreRef, TupleFile, Wal};
use std::sync::Arc;

/// The row-at-a-time index build.
fn reference_build(cat: &Catalog, table: &str, idx: &IndexMeta) -> TupleFile {
    let handle = cat.table(table).unwrap();
    let positions: Vec<usize> = idx
        .entry_columns()
        .iter()
        .map(|c| handle.meta.schema.index_of(c).unwrap())
        .collect();
    let mut entries: Vec<Tuple> = handle
        .heap
        .scan()
        .map(|r| r.unwrap().project(&positions))
        .collect();
    let spec = KeySpec::new((0..idx.key.len()).collect());
    entries.sort_by(|a, b| spec.compare(a, b));
    write_file(cat.store(), &entries).unwrap()
}

fn pages(file: &TupleFile) -> Vec<Vec<u8>> {
    file.pages()
        .iter()
        .map(|&p| file.store().read_page(p).unwrap().to_vec())
        .collect()
}

/// Builds `key + included` over `table` and holds the entry file to the
/// reference: same page count, same bytes on every page, same counts.
/// Returns the entries for further checks.
fn assert_build_matches_reference(
    cat: &mut Catalog,
    table: &str,
    key: &[&str],
    included: &[&str],
) -> Vec<Tuple> {
    let name = format!("{table}_{}", key.join("_"));
    cat.create_index(table, &name, SortOrder::new(key.iter().copied()), included)
        .unwrap();
    let handle = cat.table(table).unwrap();
    let built = handle.index_files.get(&name).unwrap();
    let reference = reference_build(cat, table, handle.meta.index(&name).unwrap());
    assert_eq!(built.tuple_count(), reference.tuple_count(), "{name}");
    assert_eq!(built.byte_count(), reference.byte_count(), "{name}");
    let (got, want) = (pages(built), pages(&reference));
    assert_eq!(got.len(), want.len(), "{name}: page count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(g == w, "{name}: page {i} of {} differs", want.len());
    }
    built.scan().map(|r| r.unwrap()).collect()
}

/// SplitMix64: deterministic rows without a dependency.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schema(cols: &[(&str, DataType)]) -> Schema {
    Schema::new(cols.iter().map(|&(n, t)| Column::new(n, t)).collect())
}

#[test]
fn null_and_duplicate_keys_keep_heap_order() {
    // Few distinct keys and a NULL every fifth row: long runs of equal
    // keys whose entries must stay in heap order (the row id shows it).
    let mut r = Mix(1);
    let rows: Vec<Tuple> = (0..400)
        .map(|i| {
            let k = match r.below(5) {
                0 => Value::Null,
                _ => Value::Int(r.below(4) as i64 - 2),
            };
            Tuple::new(vec![Value::Int(i), k, Value::Int(r.below(3) as i64)])
        })
        .collect();
    let mut cat = Catalog::on_device(SimDevice::with_block_size(256));
    let s = schema(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("v", DataType::Int),
    ]);
    cat.register_table("t", s, SortOrder::new(["id"]), &rows)
        .unwrap();
    let entries = assert_build_matches_reference(&mut cat, "t", &["k"], &["id"]);
    assert!(entries.last().unwrap().get(0).is_null(), "NULLs sort last");
    assert!(entries
        .windows(2)
        .all(|w| w[0].get(0) != w[1].get(0) || w[0].get(1) < w[1].get(1)));
    assert_build_matches_reference(&mut cat, "t", &["v", "k"], &[]);
}

#[test]
fn strings_sharing_a_long_prefix() {
    // Most keys agree on their first 14 bytes, so their normalized
    // prefixes tie and the typed compare decides; one key is a prefix of
    // the rest, and a few are short.
    let mut r = Mix(2);
    let rows: Vec<Tuple> = (0..300)
        .map(|i| {
            let s = match r.below(6) {
                0 => Value::Null,
                1 => Value::Str("shared-prefi".into()),
                2 => Value::Str(format!("ab{}", r.below(3))),
                _ => Value::Str(format!("shared-prefix-{}", r.below(40))),
            };
            Tuple::new(vec![Value::Int(i), s])
        })
        .collect();
    let mut cat = Catalog::on_device(SimDevice::with_block_size(512));
    let s = schema(&[("id", DataType::Int), ("s", DataType::Str)]);
    cat.register_table("t", s, SortOrder::empty(), &rows)
        .unwrap();
    assert_build_matches_reference(&mut cat, "t", &["s"], &["id"]);
}

#[test]
fn doubles_with_signed_zeros_and_nans() {
    let specials = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -1.5,
        f64::MIN_POSITIVE,
    ];
    let mut r = Mix(3);
    let rows: Vec<Tuple> = (0..300)
        .map(|i| {
            let d = match r.below(10) {
                0 => Value::Null,
                n => Value::Double(specials[(n - 1 + r.below(2)) as usize % specials.len()]),
            };
            Tuple::new(vec![Value::Int(i), d])
        })
        .collect();
    let mut cat = Catalog::on_device(SimDevice::with_block_size(512));
    let s = schema(&[("id", DataType::Int), ("d", DataType::Double)]);
    cat.register_table("t", s, SortOrder::new(["id"]), &rows)
        .unwrap();
    assert_build_matches_reference(&mut cat, "t", &["d"], &["id"]);
}

#[test]
fn two_column_key_with_included_columns_on_small_pages() {
    // 128-byte pages: a handful of entries a page, so the entry file spans
    // many pages and every page boundary must fall where the boxed build
    // put it.
    let mut r = Mix(4);
    let rows: Vec<Tuple> = (0..600)
        .map(|i| {
            let b = match r.below(9) {
                0 => Value::Null,
                _ => Value::Int(r.below(7) as i64),
            };
            Tuple::new(vec![
                Value::Int(i),
                Value::Str(format!("g{}", r.below(5))),
                b,
                Value::Double(r.below(100) as f64 / 4.0),
                Value::Str("x".repeat(r.below(12) as usize)),
            ])
        })
        .collect();
    let mut cat = Catalog::on_device(SimDevice::with_block_size(128));
    let s = schema(&[
        ("id", DataType::Int),
        ("a", DataType::Str),
        ("b", DataType::Int),
        ("c", DataType::Double),
        ("pad", DataType::Str),
    ]);
    cat.register_table("t", s, SortOrder::new(["id"]), &rows)
        .unwrap();
    let entries = assert_build_matches_reference(&mut cat, "t", &["a", "b"], &["pad", "c", "b"]);
    assert_eq!(entries.len(), 600);
    assert_eq!(
        entries[0].arity(),
        4,
        "b is a key column, not included twice"
    );
    let file = &cat.table("t").unwrap().index_files["t_a_b"];
    assert!(file.block_count() > 50, "{} pages", file.block_count());
    // An empty table builds an empty index.
    let s = schema(&[("id", DataType::Int), ("a", DataType::Str)]);
    cat.register_table("e", s, SortOrder::empty(), &[]).unwrap();
    assert!(assert_build_matches_reference(&mut cat, "e", &["a"], &["id"]).is_empty());
}

#[test]
fn durable_reopen_reads_the_built_entries() {
    let dir = std::env::temp_dir().join(format!("pyro-index-build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (data, wal_path) = (dir.join("data.pyro"), dir.join("wal.pyro"));
    let open_store = || -> StoreRef {
        let dev = if data.exists() {
            FileDevice::open(&data).unwrap()
        } else {
            FileDevice::create_with_block_size(&data, 256).unwrap()
        };
        let wal = Arc::new(Wal::open_or_create(&wal_path).unwrap());
        wal.recover(&dev).unwrap();
        PageStore::durable(dev.as_device(), wal, 8, u64::MAX)
    };
    let mut r = Mix(5);
    let rows: Vec<Tuple> = (0..500)
        .map(|i| {
            let v = match r.below(8) {
                0 => Value::Null,
                _ => Value::Str(format!("value-{:03}", r.below(60))),
            };
            Tuple::new(vec![Value::Int(i), v])
        })
        .collect();
    let built = {
        let mut cat = Catalog::open_durable(open_store()).unwrap();
        let s = schema(&[("k", DataType::Int), ("v", DataType::Str)]);
        cat.register_table("t", s, SortOrder::new(["k"]), &rows)
            .unwrap();
        assert_build_matches_reference(&mut cat, "t", &["v"], &["k"])
        // Dropped without a checkpoint: the reopen replays the WAL.
    };
    let cat = Catalog::open_durable(open_store()).unwrap();
    let reopened: Vec<Tuple> = cat.table("t").unwrap().index_files["t_v"]
        .scan()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(reopened, built);
    let _ = std::fs::remove_dir_all(&dir);
}
