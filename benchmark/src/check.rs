//! Answer checking that does not trust the engine under test: an
//! order-insensitive digest of a result, a sortedness check with the
//! harness's own value ordering, and the digests committed for the default
//! seed.

use pyro_common::{Tuple, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Row count plus an order-insensitive checksum (the wrapping sum of
/// per-row hashes), so two results agree iff they hold the same multiset
/// of rows — up to a 2⁻⁶⁴ collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub checksum: u64,
}

impl Digest {
    pub fn of(rows: &[Tuple]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add(row.values());
        }
        d
    }

    pub fn add(&mut self, values: &[Value]) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row_hash(values));
    }
}

/// A multiply-xorshift hash over a tagged encoding of the row, eight bytes
/// at a time. Written out here (not `DefaultHasher`) because the digests
/// are committed to the repository and must not move with the standard
/// library; word-wise because a `scan_join` round checks 375k rows and the
/// check must not cost more than the queries.
fn row_hash(values: &[Value]) -> u64 {
    fn eat(h: u64, word: u64) -> u64 {
        let z = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 29)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h = match v {
            Value::Null => eat(h, 0),
            Value::Int(i) => eat(eat(h, 1), *i as u64),
            Value::Double(d) => eat(eat(h, 2), d.to_bits()),
            Value::Str(s) => {
                let mut h = eat(eat(h, 3), s.len() as u64);
                for chunk in s.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    h = eat(h, u64::from_le_bytes(word));
                }
                h
            }
        };
    }
    // SplitMix64 finalizer: the per-row hashes are summed, so every bit
    // of each must depend on every bit of the row.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The harness's own total order on values: numbers numerically, then
/// strings, then NULL (NULLS LAST) — what `ORDER BY` promises.
fn value_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Int(_) | Value::Double(_) => 0,
            Value::Str(_) => 1,
            Value::Null => 2,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(x), Value::Double(y)) => (*x as f64).total_cmp(y),
        (Value::Double(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Whether `rows` ascend on the columns `key` (lexicographically).
pub fn is_sorted(rows: &[Tuple], key: &[usize]) -> bool {
    rows.windows(2).all(|w| {
        for &c in key {
            match value_cmp(w[0].get(c), w[1].get(c)) {
                Ordering::Less => return true,
                Ordering::Greater => return false,
                Ordering::Equal => {}
            }
        }
        true
    })
}

/// Collects what went wrong in a run. Every answer check goes through
/// [`Checker::record`]; a failed one counts in the run's `failed`.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the detail file and stderr.
    pub messages: Vec<String>,
}

impl Checker {
    /// Counts one op; `problem` is `None` when its answer was right.
    pub fn record(&mut self, problem: Option<String>) -> bool {
        self.attempted += 1;
        match problem {
            None => true,
            Some(msg) => {
                self.fail(msg);
                false
            }
        }
    }

    /// A failure outside any op (set-up verification, reopen check).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            eprintln!("check failed: {msg}");
            self.messages.push(msg);
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// Checks one result against its expectation: digest, and — when the
/// statement has an ORDER BY — that the rows ascend on `order_key`.
pub fn verify(
    what: &str,
    rows: &[Tuple],
    expected: Digest,
    order_key: Option<&[usize]>,
) -> Option<String> {
    let got = Digest::of(rows);
    if got != expected {
        return Some(format!(
            "{what}: digest ({}, {:016x}) != expected ({}, {:016x})",
            got.rows, got.checksum, expected.rows, expected.checksum
        ));
    }
    match order_key {
        Some(key) if !is_sorted(rows, key) => Some(format!("{what}: rows not in ORDER BY order")),
        _ => None,
    }
}

/// The digests committed for [`crate::DEFAULT_SEED`], one
/// `<workload> <statement> <rows> <checksum-hex>` per line. They guard the
/// workloads themselves: a `pyro-datagen` change that alters the data
/// fails here instead of silently shifting every number.
const EXPECTED: &str = include_str!("../expected/digests.txt");

pub fn committed(workload: &str) -> BTreeMap<String, Digest> {
    parse_expected(EXPECTED, workload)
}

fn parse_expected(text: &str, workload: &str) -> BTreeMap<String, Digest> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, stmt, rows, sum) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (w == workload).then_some(())?;
            Some((
                stmt.to_string(),
                Digest {
                    rows: rows.parse().ok()?,
                    checksum: u64::from_str_radix(sum, 16).ok()?,
                },
            ))
        })
        .collect()
}

pub fn render_expected(workload: &str, digests: &BTreeMap<String, Digest>) -> String {
    digests
        .iter()
        .map(|(stmt, d)| format!("{workload} {stmt} {} {:016x}\n", d.rows, d.checksum))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = [t(&[1, 2]), t(&[3, 4]), t(&[3, 4])];
        let b = [t(&[3, 4]), t(&[1, 2]), t(&[3, 4])];
        assert_eq!(Digest::of(&a), Digest::of(&b));
        assert_ne!(Digest::of(&a), Digest::of(&a[..2]));
        assert_ne!(Digest::of(&[t(&[1, 2])]), Digest::of(&[t(&[2, 1])]));
        // Type tags keep Int(1) apart from Double(1.0) and "1".
        let one = |v: Value| Digest::of(&[Tuple::new(vec![v])]);
        assert_ne!(one(Value::Int(1)), one(Value::Double(1.0)));
        assert_ne!(one(Value::Int(1)), one(Value::Str("1".into())));
    }

    #[test]
    fn sortedness_is_lexicographic_with_nulls_last() {
        let rows = [t(&[1, 9]), t(&[2, 1]), t(&[2, 1]), t(&[2, 5])];
        assert!(is_sorted(&rows, &[0, 1]));
        assert!(!is_sorted(&rows, &[1]));
        let with_null = [
            Tuple::new(vec![Value::Int(5)]),
            Tuple::new(vec![Value::Str("a".into())]),
            Tuple::new(vec![Value::Null]),
        ];
        assert!(is_sorted(&with_null, &[0]));
    }

    #[test]
    fn verify_reports_digest_then_order() {
        let rows = [t(&[2]), t(&[1])];
        let d = Digest::of(&rows);
        assert_eq!(verify("q", &rows, d, None), None);
        assert!(verify("q", &rows, d, Some(&[0]))
            .unwrap()
            .contains("ORDER BY"));
        assert!(verify("q", &rows[..1], d, None).unwrap().contains("digest"));
    }

    #[test]
    fn expected_file_round_trips() {
        let mut m = BTreeMap::new();
        m.insert(
            "q3".to_string(),
            Digest {
                rows: 87,
                checksum: 0xdead_beef,
            },
        );
        let text = format!("# comment\nother q3 1 1\n{}", render_expected("w", &m));
        assert_eq!(parse_expected(&text, "w"), m);
    }
}
