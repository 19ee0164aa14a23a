//! # pyro-datagen
//!
//! Deterministic workload generators for every dataset the paper's
//! evaluation (§6) uses, scaled by a row-count parameter so experiments run
//! on a laptop while preserving the properties the results depend on:
//! relative table sizes, clustering orders, covering indices, and
//! distinct-value counts (which drive partial-sort segment sizes).
//!
//! | module | paper workload |
//! |---|---|
//! | [`tpch`] | TPC-H subset: `lineitem`, `partsupp` (Experiments A1, A4, B1) |
//! | [`consolidation`] | `catalog1`/`catalog2`/`rating` of Example 1 (Figs 1–2) |
//! | [`rtables`] | The `R`/`R0..R7` tables of Experiments A2–A3 |
//! | [`qtables`] | `R1..R3` of Query 4 (B2), `TRAN` of Query 5, `BASKET`/`ANALYTICS` of Query 6 (B3) |

use pyro_common::{Column, DataType, Schema, Tuple, Value};

pub mod csv;
pub mod rng;

pub use rng::StdRng;

/// Fixed seed so every run of every experiment sees identical data.
pub const SEED: u64 = 0x5EED_0DE5;

/// Convenience: RNG seeded with the fixed default [`SEED`].
pub fn rng() -> StdRng {
    rng_with(SEED)
}

/// RNG with an explicit seed — the hook `SessionBuilder::seed` threads
/// through the `*_with_seed` loader variants so any two sessions, in one
/// binary or in two, can generate identical tables from one seed.
pub fn rng_with(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Sorts rows by the named columns of `schema` (generator-side clustering).
pub fn sort_rows_by(schema: &Schema, rows: &mut [Tuple], cols: &[&str]) {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| schema.index_of(c).expect("generator column"))
        .collect();
    rows.sort_by(|a, b| {
        for &i in &idx {
            match a.get(i).cmp(b.get(i)) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    });
}

pub mod tpch {
    //! TPC-H subset: `lineitem` and `partsupp`, with the secondary covering
    //! indices the paper's experiments build.

    use super::*;
    use pyro_catalog::Catalog;
    use pyro_common::Result;
    use pyro_ordering::SortOrder;

    /// Scale parameters. `scaled(f)` mirrors TPC-H's row-count ratios
    /// (lineitem : partsupp ≈ 7.5 : 1).
    #[derive(Debug, Clone, Copy)]
    pub struct TpchConfig {
        /// Rows in `lineitem`.
        pub lineitems: usize,
        /// Number of parts (partsupp has 4 suppliers per part).
        pub parts: usize,
        /// Number of suppliers.
        pub suppliers: usize,
    }

    impl TpchConfig {
        /// Roughly TPC-H SF-scaled row counts (SF 1.0 = 6 M lineitems —
        /// use small fractions for tests).
        pub fn scaled(sf: f64) -> TpchConfig {
            TpchConfig {
                lineitems: ((6_000_000.0 * sf) as usize).max(100),
                parts: ((200_000.0 * sf) as usize).max(20),
                suppliers: ((10_000.0 * sf) as usize).max(5),
            }
        }
    }

    /// The supplier of partsupp entry `(part, i)` — TPC-H's formula shape.
    fn supplier_of(part: usize, i: usize, suppliers: usize) -> i64 {
        ((part + i * (suppliers / 4 + 1)) % suppliers) as i64
    }

    /// Loads `lineitem` + `partsupp` and builds the experiments' covering
    /// indices:
    /// * `partsupp` clustered on its primary key `(ps_partkey, ps_suppkey)`;
    ///   covering secondary index on `ps_suppkey` (incl. partkey, availqty).
    /// * `lineitem` clustered on `l_orderkey`; covering secondary index on
    ///   `l_suppkey` (incl. partkey, quantity, linestatus).
    pub fn load(cat: &mut Catalog, cfg: TpchConfig) -> Result<()> {
        load_with_seed(cat, cfg, super::SEED)
    }

    /// [`load`] with an explicit RNG seed.
    pub fn load_with_seed(cat: &mut Catalog, cfg: TpchConfig, seed: u64) -> Result<()> {
        let mut r = rng_with(seed);

        // partsupp: 4 suppliers per part, sorted by (partkey, suppkey).
        let ps_schema = Schema::new(vec![
            Column::new("ps_partkey", DataType::Int),
            Column::new("ps_suppkey", DataType::Int),
            Column::new("ps_availqty", DataType::Int),
        ]);
        let mut ps_rows = Vec::with_capacity(cfg.parts * 4);
        for p in 0..cfg.parts {
            let mut supps: Vec<i64> = (0..4).map(|i| supplier_of(p, i, cfg.suppliers)).collect();
            supps.sort_unstable();
            supps.dedup();
            for s in supps {
                ps_rows.push(Tuple::new(vec![
                    Value::Int(p as i64),
                    Value::Int(s),
                    Value::Int(r.gen_range(0..10_000)),
                ]));
            }
        }
        sort_rows_by(&ps_schema, &mut ps_rows, &["ps_partkey", "ps_suppkey"]);
        cat.register_table(
            "partsupp",
            ps_schema,
            SortOrder::new(["ps_partkey", "ps_suppkey"]),
            &ps_rows,
        )?;
        cat.create_index(
            "partsupp",
            "ps_suppkey_cov",
            SortOrder::new(["ps_suppkey"]),
            &["ps_partkey", "ps_availqty"],
        )?;

        // lineitem: clustered on orderkey; (partkey, suppkey) drawn from
        // partsupp pairs so joins have matches.
        let li_schema = Schema::new(vec![
            Column::new("l_orderkey", DataType::Int),
            Column::new("l_partkey", DataType::Int),
            Column::new("l_suppkey", DataType::Int),
            Column::new("l_quantity", DataType::Int),
            Column::new("l_linestatus", DataType::Str),
        ]);
        let mut li_rows = Vec::with_capacity(cfg.lineitems);
        for k in 0..cfg.lineitems {
            let p = r.gen_range(0..cfg.parts);
            let s = supplier_of(p, r.gen_range(0..4), cfg.suppliers);
            li_rows.push(Tuple::new(vec![
                Value::Int((k / 4) as i64), // ~4 lines per order
                Value::Int(p as i64),
                Value::Int(s),
                Value::Int(r.gen_range(1..=50)),
                Value::Str(if r.gen_bool(0.54) { "O" } else { "F" }.into()),
            ]));
        }
        sort_rows_by(&li_schema, &mut li_rows, &["l_orderkey"]);
        cat.register_table(
            "lineitem",
            li_schema,
            SortOrder::new(["l_orderkey"]),
            &li_rows,
        )?;
        cat.create_index(
            "lineitem",
            "l_suppkey_cov",
            SortOrder::new(["l_suppkey"]),
            &["l_partkey", "l_quantity", "l_linestatus"],
        )?;
        Ok(())
    }
}

pub mod consolidation {
    //! Example 1's data-consolidation workload: two car catalogs and a
    //! rating table.

    use super::*;
    use pyro_catalog::Catalog;
    use pyro_common::Result;
    use pyro_ordering::SortOrder;

    /// Loads `catalog1` (clustered on `year`), `catalog2` (clustered on
    /// `make`) and `rating` (clustered on `make`, with a covering secondary
    /// index on `make` including `year` and `rating`).
    ///
    /// The two catalogs describe the *same* cars (that is what
    /// consolidation means), so they share one base record set — the
    /// four-attribute join produces output comparable to the input sizes,
    /// as the paper's Figs. 1–2 edge annotations show (2 M ⋈ 2 M → 160 K).
    ///
    /// `catalog_rows` scales the 2 M-row catalogs; `rating` keeps the
    /// paper's 1:1000 size ratio (2 K rows at 2 M).
    pub fn load(cat: &mut Catalog, catalog_rows: usize) -> Result<()> {
        load_with_seed(cat, catalog_rows, super::SEED)
    }

    /// [`load`] with an explicit RNG seed.
    pub fn load_with_seed(cat: &mut Catalog, catalog_rows: usize, seed: u64) -> Result<()> {
        let mut r = rng_with(seed);
        let makes = 100i64;
        let years = 30i64;
        let cities = 200i64;
        let colors = 16i64;

        // Shared base records: ~92% of cars appear in both catalogs; the
        // rest are per-catalog noise so the join is not a pure identity.
        let base: Vec<[i64; 4]> = (0..catalog_rows)
            .map(|_| {
                [
                    r.gen_range(0..makes),
                    r.gen_range(0..years),
                    r.gen_range(0..cities),
                    r.gen_range(0..colors),
                ]
            })
            .collect();
        let fresh = |r: &mut StdRng, row: &[i64; 4]| -> [i64; 4] {
            if r.gen_bool(0.92) {
                *row
            } else {
                [
                    r.gen_range(0..makes),
                    r.gen_range(0..years),
                    r.gen_range(0..cities),
                    r.gen_range(0..colors),
                ]
            }
        };

        let c1_schema = Schema::new(vec![
            Column::new("make", DataType::Int),
            Column::new("year", DataType::Int),
            Column::new("city", DataType::Int),
            Column::new("color", DataType::Int),
            Column::new("sellreason", DataType::Str),
        ]);
        let mut c1_rows: Vec<Tuple> = base
            .iter()
            .map(|b| {
                let v = fresh(&mut r, b);
                Tuple::new(vec![
                    Value::Int(v[0]),
                    Value::Int(v[1]),
                    Value::Int(v[2]),
                    Value::Int(v[3]),
                    Value::Str(format!("reason-{}", r.gen_range(0..50))),
                ])
            })
            .collect();
        sort_rows_by(&c1_schema, &mut c1_rows, &["year"]);
        cat.register_table("catalog1", c1_schema, SortOrder::new(["year"]), &c1_rows)?;

        let c2_schema = Schema::new(vec![
            Column::new("make", DataType::Int),
            Column::new("year", DataType::Int),
            Column::new("city", DataType::Int),
            Column::new("color", DataType::Int),
            Column::new("breakdowns", DataType::Int),
        ]);
        let mut c2_rows: Vec<Tuple> = base
            .iter()
            .map(|b| {
                let v = fresh(&mut r, b);
                Tuple::new(vec![
                    Value::Int(v[0]),
                    Value::Int(v[1]),
                    Value::Int(v[2]),
                    Value::Int(v[3]),
                    Value::Int(r.gen_range(0..20)),
                ])
            })
            .collect();
        sort_rows_by(&c2_schema, &mut c2_rows, &["make"]);
        cat.register_table("catalog2", c2_schema, SortOrder::new(["make"]), &c2_rows)?;

        let rt_schema = Schema::new(vec![
            Column::new("make", DataType::Int),
            Column::new("year", DataType::Int),
            Column::new("rating", DataType::Int),
        ]);
        let rt_count = (catalog_rows / 1000).max(10);
        let mut rt_rows: Vec<Tuple> = (0..rt_count)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int(r.gen_range(0..makes)),
                    Value::Int(r.gen_range(0..years)),
                    Value::Int(r.gen_range(0..100)),
                ])
            })
            .collect();
        sort_rows_by(&rt_schema, &mut rt_rows, &["make"]);
        cat.register_table("rating", rt_schema, SortOrder::new(["make"]), &rt_rows)?;
        cat.create_index(
            "rating",
            "rating_make_cov",
            SortOrder::new(["make"]),
            &["year", "rating"],
        )?;
        Ok(())
    }
}

pub mod rtables {
    //! The synthetic `R(c1, c2, c3)` tables of Experiments A2 and A3:
    //! clustered on `c1` with a controlled number of rows per `c1` value
    //! (the partial-sort segment size).

    use super::*;
    use pyro_catalog::Catalog;
    use pyro_common::Result;
    use pyro_ordering::SortOrder;

    /// Generates `rows` tuples with exactly `rows / segments` tuples per
    /// distinct `c1` value, clustered on `c1`; `c2`, `c3` random. `pad`
    /// bytes of filler let A3 control the on-disk segment size.
    pub fn generate(rows: usize, segments: usize, pad: usize) -> (Schema, Vec<Tuple>) {
        generate_with_seed(rows, segments, pad, super::SEED)
    }

    /// [`generate`] with an explicit RNG seed.
    pub fn generate_with_seed(
        rows: usize,
        segments: usize,
        pad: usize,
        seed: u64,
    ) -> (Schema, Vec<Tuple>) {
        let mut r = rng_with(seed);
        let per_segment = (rows / segments.max(1)).max(1);
        let schema = Schema::new(vec![
            Column::new("c1", DataType::Int),
            Column::new("c2", DataType::Int),
            Column::new("c3", DataType::Str),
        ]);
        let filler: String = "x".repeat(pad);
        let data: Vec<Tuple> = (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int((i / per_segment) as i64),
                    Value::Int(r.gen_range(0..1_000_000)),
                    Value::Str(filler.clone()),
                ])
            })
            .collect();
        (schema, data)
    }

    /// Registers a generated table (already clustered on c1 by
    /// construction).
    pub fn load(
        cat: &mut Catalog,
        name: &str,
        rows: usize,
        segments: usize,
        pad: usize,
    ) -> Result<()> {
        let (schema, data) = generate(rows, segments, pad);
        cat.register_table(name, schema, SortOrder::new(["c1"]), &data)?;
        Ok(())
    }
}

pub mod qtables {
    //! Tables for Queries 4, 5 and 6 of the evaluation.

    use super::*;
    use pyro_catalog::Catalog;
    use pyro_common::Result;
    use pyro_ordering::SortOrder;

    /// Query 4 (Experiment B2): `R1`, `R2`, `R3` — identical five-column
    /// tables, no indexes, populated with `rows` records each.
    pub fn load_q4(cat: &mut Catalog, rows: usize) -> Result<()> {
        load_q4_with_seed(cat, rows, super::SEED)
    }

    /// [`load_q4`] with an explicit RNG seed.
    pub fn load_q4_with_seed(cat: &mut Catalog, rows: usize, seed: u64) -> Result<()> {
        let mut r = rng_with(seed);
        let schema = Schema::new(
            (1..=5)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        for name in ["r1", "r2", "r3"] {
            let data: Vec<Tuple> = (0..rows)
                .map(|_| {
                    Tuple::new(
                        (0..5)
                            .map(|c| Value::Int(r.gen_range(0..(50 << c))))
                            .collect(),
                    )
                })
                .collect();
            cat.register_table(name, schema.clone(), SortOrder::empty(), &data)?;
        }
        Ok(())
    }

    /// Query 5 (Experiment B3): the `TRAN` trading table, clustered on
    /// `(userid, basketid)` so a *prefix* of the five-attribute join is
    /// favorable — the situation where arbitrary secondary orders hurt.
    pub fn load_tran(cat: &mut Catalog, rows: usize) -> Result<()> {
        load_tran_with_seed(cat, rows, super::SEED)
    }

    /// [`load_tran`] with an explicit RNG seed.
    pub fn load_tran_with_seed(cat: &mut Catalog, rows: usize, seed: u64) -> Result<()> {
        let mut r = rng_with(seed);
        let schema = Schema::new(vec![
            Column::new("userid", DataType::Int),
            Column::new("basketid", DataType::Int),
            Column::new("parentorderid", DataType::Int),
            Column::new("waveid", DataType::Int),
            Column::new("childorderid", DataType::Int),
            Column::new("trantype", DataType::Str),
            Column::new("quantity", DataType::Int),
            Column::new("price", DataType::Int),
        ]);
        let mut data: Vec<Tuple> = (0..rows)
            .map(|i| {
                // Each logical order appears twice: once 'New', once
                // 'Executed' — so the self-join has matches.
                let o = (i / 2) as i64;
                Tuple::new(vec![
                    Value::Int(o % 50),
                    Value::Int(o % 200),
                    Value::Int(o),
                    Value::Int(o % 20),
                    Value::Int(o % 500),
                    Value::Str(if i % 2 == 0 { "New" } else { "Executed" }.into()),
                    Value::Int(r.gen_range(1..100)),
                    Value::Int(r.gen_range(1..1000)),
                ])
            })
            .collect();
        sort_rows_by(&schema, &mut data, &["userid", "basketid"]);
        cat.register_table(
            "tran",
            schema,
            SortOrder::new(["userid", "basketid"]),
            &data,
        )?;
        Ok(())
    }

    /// Query 6 (Experiment B3): `BASKET` and `ANALYTICS`, joined on three
    /// attributes; `basket` is clustered on a 2-attribute prefix,
    /// `analytics` on a single attribute.
    pub fn load_basket_analytics(cat: &mut Catalog, rows: usize) -> Result<()> {
        load_basket_analytics_with_seed(cat, rows, super::SEED)
    }

    /// [`load_basket_analytics`] with an explicit RNG seed.
    pub fn load_basket_analytics_with_seed(
        cat: &mut Catalog,
        rows: usize,
        seed: u64,
    ) -> Result<()> {
        let mut r = rng_with(seed);
        let mk_schema = |extra: &str| {
            Schema::new(vec![
                Column::new("prodtype", DataType::Int),
                Column::new("symbol", DataType::Int),
                Column::new("exchange", DataType::Int),
                Column::new(extra, DataType::Int),
            ])
        };
        let gen_rows = |r: &mut StdRng| -> Vec<Tuple> {
            (0..rows)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Int(r.gen_range(0..10)),
                        Value::Int(r.gen_range(0..2000)),
                        Value::Int(r.gen_range(0..8)),
                        Value::Int(r.gen_range(0..1_000_000)),
                    ])
                })
                .collect()
        };
        let b_schema = mk_schema("qty");
        let mut b_rows = gen_rows(&mut r);
        sort_rows_by(&b_schema, &mut b_rows, &["prodtype", "symbol"]);
        cat.register_table(
            "basket",
            b_schema,
            SortOrder::new(["prodtype", "symbol"]),
            &b_rows,
        )?;
        let a_schema = mk_schema("beta");
        let mut a_rows = gen_rows(&mut r);
        sort_rows_by(&a_schema, &mut a_rows, &["prodtype"]);
        cat.register_table("analytics", a_schema, SortOrder::new(["prodtype"]), &a_rows)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_catalog::Catalog;

    #[test]
    fn tpch_loads_with_indices() {
        let mut cat = Catalog::new();
        tpch::load(&mut cat, tpch::TpchConfig::scaled(0.001)).unwrap();
        let li = cat.table("lineitem").unwrap();
        assert!(li.meta.stats.row_count >= 100);
        assert!(li.meta.index("l_suppkey_cov").is_some());
        let ps = cat.table("partsupp").unwrap();
        assert!(ps.index_files.contains_key("ps_suppkey_cov"));
        // join keys overlap: every lineitem (p, s) exists in partsupp
        assert!(ps.meta.stats.distinct("ps_partkey") >= 20);
    }

    #[test]
    fn consolidation_tables_ratio() {
        let mut cat = Catalog::new();
        consolidation::load(&mut cat, 5000).unwrap();
        let c1 = cat.table("catalog1").unwrap();
        let rt = cat.table("rating").unwrap();
        assert_eq!(c1.meta.stats.row_count, 5000);
        assert_eq!(
            rt.meta.stats.row_count, 10,
            "1:1000 ratio with a floor of 10"
        );
        assert_eq!(c1.meta.clustering.attrs(), ["year"]);
    }

    #[test]
    fn rtables_segment_structure() {
        let (_, rows) = rtables::generate(1000, 10, 0);
        // exactly 100 rows per c1 value, c1 non-decreasing
        assert_eq!(rows.len(), 1000);
        let firsts: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert!(firsts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(firsts.iter().filter(|&&v| v == 0).count(), 100);
        assert_eq!(*firsts.last().unwrap(), 9);
    }

    #[test]
    fn q4_three_identical_tables() {
        let mut cat = Catalog::new();
        qtables::load_q4(&mut cat, 100).unwrap();
        for t in ["r1", "r2", "r3"] {
            assert_eq!(cat.table(t).unwrap().meta.stats.row_count, 100);
        }
    }

    #[test]
    fn tran_has_new_and_executed() {
        let mut cat = Catalog::new();
        qtables::load_tran(&mut cat, 200).unwrap();
        let t = cat.table("tran").unwrap();
        assert_eq!(t.meta.stats.row_count, 200);
        assert_eq!(t.meta.stats.distinct("trantype"), 2);
    }

    #[test]
    fn determinism() {
        let (_, a) = rtables::generate(100, 4, 0);
        let (_, b) = rtables::generate(100, 4, 0);
        assert_eq!(a, b, "same seed, same data");
    }

    #[test]
    fn explicit_seed_is_reproducible_and_distinct() {
        let (_, a) = rtables::generate_with_seed(100, 4, 0, 1);
        let (_, b) = rtables::generate_with_seed(100, 4, 0, 1);
        assert_eq!(a, b, "same explicit seed, same data");
        let (_, c) = rtables::generate_with_seed(100, 4, 0, 2);
        assert_ne!(a, c, "different seed, different data");
        let (_, d) = rtables::generate(100, 4, 0);
        let (_, e) = rtables::generate_with_seed(100, 4, 0, SEED);
        assert_eq!(d, e, "default loader == explicit default seed");
    }
}
