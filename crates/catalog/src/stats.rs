//! Statistics: the `N`, `B`, `D` of the paper's cost model (§3.2).

use pyro_common::hash::WordSet;
use pyro_common::{DataType, Schema, Tuple, Value};
use std::collections::BTreeMap;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values observed.
    pub distinct: u64,
}

/// Per-table statistics, computed exactly at load time (the engine is a
/// research vehicle; no sampling needed at these scales).
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// `N(R)`: number of rows.
    pub row_count: u64,
    /// Average encoded tuple size in bytes.
    pub avg_tuple_bytes: f64,
    /// Per-column stats, keyed by bare column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

/// One column's distinct values seen so far. Both sets hold 8-byte keys
/// and start empty, so they allocate what one `HashSet<&Value>` per column
/// did, at the same points of the load.
enum Distinct<'r> {
    /// An INT column: its payloads, and whether a NULL was seen.
    Int { payloads: WordSet<i64>, null: bool },
    /// A DOUBLE or STR column, counted under `Value`'s `Eq` and `Hash`.
    Values(WordSet<&'r Value>),
}

impl TableStats {
    /// Computes exact stats from data. Every row must fit `schema` (one
    /// value per column, each NULL or of its column's type), as
    /// `Catalog::register_table` checks before it calls this.
    pub fn compute(schema: &Schema, rows: &[Tuple]) -> TableStats {
        let mut sets: Vec<Distinct> = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                DataType::Int => Distinct::Int {
                    payloads: WordSet::default(),
                    null: false,
                },
                DataType::Double | DataType::Str => Distinct::Values(WordSet::default()),
            })
            .collect();
        let mut bytes = 0u64;
        for row in rows {
            bytes += row.byte_size() as u64;
            for (v, set) in row.values().iter().zip(&mut sets) {
                match set {
                    Distinct::Int { payloads, null } => match v {
                        Value::Int(i) => {
                            payloads.insert(*i);
                        }
                        Value::Null => *null = true,
                        _ => panic!("{v:?} in an INT column: rows are checked at load"),
                    },
                    Distinct::Values(values) => {
                        values.insert(v);
                    }
                }
            }
        }
        let columns = schema
            .columns()
            .iter()
            .zip(&sets)
            .map(|(c, set)| {
                let distinct = match set {
                    Distinct::Int { payloads, null } => payloads.len() + usize::from(*null),
                    Distinct::Values(values) => values.len(),
                };
                (
                    c.name.to_string(),
                    ColumnStats {
                        distinct: distinct as u64,
                    },
                )
            })
            .collect();
        TableStats {
            row_count: rows.len() as u64,
            avg_tuple_bytes: if rows.is_empty() {
                0.0
            } else {
                bytes as f64 / rows.len() as f64
            },
            columns,
        }
    }

    /// `D(R, {a})` for a single column; defaults to `row_count` (unique)
    /// when the column is unknown — the conservative choice for sort-segment
    /// estimation.
    pub fn distinct(&self, column: &str) -> u64 {
        self.columns
            .get(column)
            .map(|c| c.distinct)
            .unwrap_or(self.row_count)
            .max(1)
    }

    /// `D(R, s)` for an attribute set under the paper's uniform-independence
    /// assumption: `min(N, Π distinct(a))`, saturating.
    pub fn distinct_of_set<'a>(&self, columns: impl IntoIterator<Item = &'a str>) -> u64 {
        let mut prod: u128 = 1;
        let mut any = false;
        for c in columns {
            any = true;
            prod = prod.saturating_mul(self.distinct(c) as u128);
            if prod >= self.row_count as u128 {
                return self.row_count.max(1);
            }
        }
        if !any {
            return 1; // D(e, ∅) = one segment: the whole input
        }
        (prod as u64).min(self.row_count).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_common::Column;
    use std::collections::HashSet;

    /// The counter `compute` replaced, kept as its reference: every value
    /// boxed as `&Value` under std's SipHash, NULL counted as a value.
    fn compute_reference(column_names: &[String], rows: &[Tuple]) -> TableStats {
        let mut sets: Vec<HashSet<&Value>> = column_names.iter().map(|_| HashSet::new()).collect();
        let mut bytes = 0u64;
        for row in rows {
            bytes += row.byte_size() as u64;
            for (i, v) in row.values().iter().enumerate() {
                if i < sets.len() {
                    sets[i].insert(v);
                }
            }
        }
        let columns = column_names
            .iter()
            .zip(&sets)
            .map(|(n, s)| {
                (
                    n.clone(),
                    ColumnStats {
                        distinct: s.len() as u64,
                    },
                )
            })
            .collect();
        TableStats {
            row_count: rows.len() as u64,
            avg_tuple_bytes: if rows.is_empty() {
                0.0
            } else {
                bytes as f64 / rows.len() as f64
            },
            columns,
        }
    }

    fn assert_matches_reference(schema: &Schema, rows: &[Tuple]) {
        let got = TableStats::compute(schema, rows);
        let want = compute_reference(&schema.names(), rows);
        assert_eq!(got.row_count, want.row_count);
        assert_eq!(
            got.avg_tuple_bytes.to_bits(),
            want.avg_tuple_bytes.to_bits()
        );
        assert_eq!(got.columns, want.columns, "{} rows", rows.len());
    }

    /// SplitMix64: a seeded stream of draws for the generated tables.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn int_value(d: &mut Draws, r: i64) -> Value {
        let k = d.below(64) as i64;
        match d.below(8) {
            0 => Value::Null,
            1 => Value::Int(if k % 2 == 0 { i64::MIN } else { i64::MAX }),
            2 => Value::Int(r),
            3 => Value::Int(k << 20),
            4 => Value::Int(k << 52),
            5 => Value::Int(-k),
            _ => Value::Int(d.next() as i64 >> 50),
        }
    }

    fn double_value(d: &mut Draws) -> Value {
        let k = d.below(32);
        Value::Double(match d.below(8) {
            0 => return Value::Null,
            1 => -0.0,
            2 => 0.0,
            // Quiet and signalling NaNs, either sign, a few payloads.
            3 => f64::from_bits(0x7ff0_0000_0000_0001 | (k << 40) | ((k & 1) << 63)),
            4 => k as f64,
            5 => -(k as f64),
            6 => k as f64 + 0.5,
            _ => (1u64 << 53) as f64 + (2 * k) as f64,
        })
    }

    fn str_value(d: &mut Draws) -> Value {
        let k = d.below(16);
        Value::Str(match d.below(7) {
            0 => return Value::Null,
            1 => String::new(),
            2 => format!("prefix__{k}"),
            3 => "prefix__".to_string(),
            4 => "\0".repeat(k as usize % 9),
            5 => format!("a\0{k}\0"),
            _ => format!("{k}"),
        })
    }

    /// INT, DOUBLE and STR columns over their edge values, plus one
    /// all-NULL column of each type.
    fn generated(seed: u64, n: usize) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(vec![
            Column::new("s", DataType::Str),
            Column::new("i", DataType::Int),
            Column::new("d", DataType::Double),
            Column::new("i_null", DataType::Int),
            Column::new("d_null", DataType::Double),
            Column::new("s_null", DataType::Str),
            Column::new("i2", DataType::Int),
        ]);
        let mut d = Draws(seed);
        let rows = (0..n as i64)
            .map(|r| {
                Tuple::new(vec![
                    str_value(&mut d),
                    int_value(&mut d, r),
                    double_value(&mut d),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    int_value(&mut d, r),
                ])
            })
            .collect();
        (schema, rows)
    }

    #[test]
    fn compute_matches_the_reference_counter() {
        for (seed, n) in [(1, 0), (2, 1), (3, 7), (4, 300), (5, 5_000), (6, 20_000)] {
            let (schema, rows) = generated(seed, n);
            assert_matches_reference(&schema, &rows);
        }
        // Wide distinct INT keys: sequential, and strided into the high bits.
        let schema = ints(&["seq", "k20", "k52"]);
        let rows: Vec<Tuple> = (0..10_000i64)
            .map(|k| {
                Tuple::new(vec![
                    Value::Int(k),
                    Value::Int(k << 20),
                    Value::Int(k << 52),
                ])
            })
            .collect();
        assert_matches_reference(&schema, &rows);
    }

    fn ints(names: &[&str]) -> Schema {
        names
            .iter()
            .map(|&n| Column::new(n, DataType::Int))
            .collect()
    }

    fn rows() -> Vec<Tuple> {
        // a: 2 distinct, b: 4 distinct
        (0..4)
            .map(|i| Tuple::new(vec![Value::Int(i % 2), Value::Int(i)]))
            .collect()
    }

    #[test]
    fn compute_counts_distincts() {
        let s = TableStats::compute(&ints(&["a", "b"]), &rows());
        assert_eq!(s.row_count, 4);
        assert_eq!(s.distinct("a"), 2);
        assert_eq!(s.distinct("b"), 4);
        assert!(s.avg_tuple_bytes > 0.0);
    }

    #[test]
    fn unknown_column_defaults_to_row_count() {
        let s = TableStats::compute(&ints(&["a"]), &rows());
        assert_eq!(s.distinct("zzz"), 4);
    }

    #[test]
    fn set_distinct_caps_at_row_count() {
        let s = TableStats::compute(&ints(&["a", "b"]), &rows());
        // 2 * 4 = 8 > N = 4 → capped
        assert_eq!(s.distinct_of_set(["a", "b"]), 4);
        assert_eq!(s.distinct_of_set(["a"]), 2);
    }

    #[test]
    fn empty_set_is_one_segment() {
        let s = TableStats::compute(&ints(&["a"]), &rows());
        assert_eq!(s.distinct_of_set([]), 1);
    }

    #[test]
    fn empty_table() {
        let s = TableStats::compute(&ints(&["a"]), &[]);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.avg_tuple_bytes, 0.0);
        assert_eq!(s.distinct("a"), 1, "floor at 1 to avoid divide-by-zero");
    }
}
