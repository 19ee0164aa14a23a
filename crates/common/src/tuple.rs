//! Row representation and key extraction.

use crate::columnar::ColumnarBatch;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A row: a boxed slice of values positionally matching a
/// [`crate::Schema`].
///
/// `Default` is the empty (zero-arity) tuple and allocates nothing. The
/// sorts never hold tuples (they order 16-byte entries over column
/// vectors), but a `Tuple` is the same 16 bytes, which is why a sort of
/// boxed rows makes the comparisons they do.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into_boxed_slice(),
        }
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate in-memory size in bytes; drives sort-memory budgeting so
    /// the replacement-selection heap respects the paper's `M` blocks.
    pub fn byte_size(&self) -> usize {
        // Box<[Value]> header + per-value payloads.
        16 + self.values.iter().map(Value::byte_size).sum::<usize>()
    }

    /// Projects to the columns at `indices` (cloning values).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let mut v = Vec::with_capacity(indices.len());
        v.extend(indices.iter().map(|&i| self.values[i].clone()));
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A lexicographic comparison key: an ordered list of column positions.
///
/// The paper ignores ASC/DESC ("our techniques are applicable independent of
/// the sort direction"), and so do we — `KeySpec` always compares ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeySpec {
    cols: Vec<usize>,
}

impl KeySpec {
    /// Builds a key over the given column positions.
    pub fn new(cols: Vec<usize>) -> Self {
        KeySpec { cols }
    }

    /// The column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of key columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True iff the key is empty (every tuple compares equal).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Lexicographic comparison of two tuples under this key.
    ///
    /// Returns the ordering *and* does exactly as many [`Value`] comparisons
    /// as needed; callers that track comparison counts should use
    /// [`KeySpec::compare_counting`].
    pub fn compare(&self, a: &Tuple, b: &Tuple) -> Ordering {
        for &c in &self.cols {
            match a.get(c).cmp(b.get(c)) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }

    /// Like [`KeySpec::compare`] but also reports how many scalar
    /// comparisons were performed — the statistic Experiment A1/A3 plots.
    pub fn compare_counting(&self, a: &Tuple, b: &Tuple) -> (Ordering, u64) {
        let mut n = 0;
        for &c in &self.cols {
            n += 1;
            match a.get(c).cmp(b.get(c)) {
                Ordering::Equal => continue,
                non_eq => return (non_eq, n),
            }
        }
        (Ordering::Equal, n)
    }

    /// [`KeySpec::compare_counting`] over columnar rows: physical row `i` of
    /// `a` against physical row `j` of `b`, same ordering and same count.
    pub fn compare_columnar(
        &self,
        a: &ColumnarBatch,
        i: usize,
        b: &ColumnarBatch,
        j: usize,
    ) -> (Ordering, u64) {
        let mut n = 0;
        for &c in &self.cols {
            n += 1;
            match a.column(c).compare(i, b.column(c), j) {
                Ordering::Equal => continue,
                non_eq => return (non_eq, n),
            }
        }
        (Ordering::Equal, n)
    }

    /// Where the group that physical row `first` of `batch` opens ends:
    /// the first row in `from..limit` that differs from it on some key
    /// column (`limit` when none does), found one typed column pass at a
    /// time. Rows differ when their cells do not compare `Equal`, that is,
    /// when they are not `==` as [`Value`]s.
    ///
    /// Also returns the comparisons that testing rows `from..=end` against
    /// row `first` one by one, left to right, stopping at each row's first
    /// differing column, would have made: every row before `end` agrees on
    /// all columns, and row `end` (if there is one) on the columns before
    /// the last one that cut the group short.
    pub fn group_end(
        &self,
        batch: &ColumnarBatch,
        first: usize,
        mut from: usize,
        limit: usize,
    ) -> (usize, u64) {
        // Look ahead in growing windows: a leading key column with long runs
        // must not be scanned to the end of its run for every short group.
        let mut window = 16;
        let mut cost = 0;
        loop {
            let stop = limit.min(from + window);
            let mut end = stop;
            let mut boundary_cost = 0;
            for (at, &c) in self.cols.iter().enumerate() {
                let e = batch.column(c).run_end(first, from, end);
                if e < end {
                    end = e;
                    boundary_cost = at as u64 + 1;
                }
            }
            cost += (end - from) as u64 * self.cols.len() as u64 + boundary_cost;
            if end < stop || stop == limit {
                return (end, cost);
            }
            from = stop;
            window *= 4;
        }
    }

    /// Splits the key at `k`: `(prefix, suffix)` — used by the partial-sort
    /// operator which knows the first `k` columns are already sorted.
    pub fn split_at(&self, k: usize) -> (KeySpec, KeySpec) {
        let (p, s) = self.cols.split_at(k.min(self.cols.len()));
        (KeySpec::new(p.to_vec()), KeySpec::new(s.to_vec()))
    }

    /// True iff a run of tuples sorted by `self` is also sorted by `other`
    /// (i.e. `other` is a prefix of `self`).
    pub fn satisfies(&self, other: &KeySpec) -> bool {
        other.cols.len() <= self.cols.len() && self.cols[..other.cols.len()] == other.cols[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn key_compare_lexicographic() {
        let k = KeySpec::new(vec![0, 1]);
        assert_eq!(k.compare(&t(&[1, 2]), &t(&[1, 3])), Ordering::Less);
        assert_eq!(k.compare(&t(&[2, 0]), &t(&[1, 9])), Ordering::Greater);
        assert_eq!(k.compare(&t(&[1, 2]), &t(&[1, 2])), Ordering::Equal);
    }

    #[test]
    fn key_compare_respects_column_order() {
        let k = KeySpec::new(vec![1, 0]);
        // compares col1 first
        assert_eq!(k.compare(&t(&[9, 1]), &t(&[0, 2])), Ordering::Less);
    }

    #[test]
    fn counting_stops_early() {
        let k = KeySpec::new(vec![0, 1, 2]);
        let (_, n) = k.compare_counting(&t(&[1, 0, 0]), &t(&[2, 0, 0]));
        assert_eq!(n, 1);
        let (_, n) = k.compare_counting(&t(&[1, 1, 1]), &t(&[1, 1, 1]));
        assert_eq!(n, 3);
    }

    #[test]
    fn split_and_satisfies() {
        let k = KeySpec::new(vec![3, 1, 2]);
        let (p, s) = k.split_at(1);
        assert_eq!(p.cols(), &[3]);
        assert_eq!(s.cols(), &[1, 2]);
        assert!(k.satisfies(&p));
        assert!(!p.satisfies(&k));
        assert!(k.satisfies(&KeySpec::default()));
    }

    #[test]
    fn tuple_ops() {
        let a = t(&[1, 2]);
        assert_eq!(a.project(&[1]), t(&[2]));
        assert_eq!(a.arity(), 2);
    }

    #[test]
    fn byte_size_grows_with_content() {
        assert!(t(&[1, 2, 3]).byte_size() > t(&[1]).byte_size());
    }
}
