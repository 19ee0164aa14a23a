//! What the columnar sorts actually sort: 16-byte entries.
//!
//! An [`Entry`] is the normalized prefix of a row's first key column
//! ([`pyro_common::CellRef::norm_prefix`]) plus the row's address. Most
//! comparisons are decided by the inline prefix — one `u64` compare, no
//! pointer chased. A tie walks the two rows' [`NormKeys`] — the same prefix
//! for every key column, in one dense array per batch — and reaches into
//! column storage only for a column whose prefixes tie without being
//! decisive (long strings, doubles, huge integers).
//!
//! **Exact keys never leave the prefixes.** When every key column of a
//! batch is exact ([`NormKeys::is_exact`]: INTs within ±2^52, strings of at
//! most seven bytes with no trailing NUL), a prefix tie means the cells are
//! equal. A comparison between two such batches is then decided by the
//! prefixes alone ([`Keyed::compare_rows`]); with a one-column key the
//! inline prefix is the whole key, so the segment sort compares nothing
//! else. It reaches the same outcome and charges the same count, so the
//! sequence and the totals below hold for it unchanged.
//!
//! **Why the counters are a boxed sort's.** A comparison is charged
//! `n = first differing key column + 1` (all `k` columns when the keys are
//! equal) — the number [`KeySpec::compare_counting`] reports for the same
//! two rows boxed: a prefix that differs means column 0 differs, so `n = 1`;
//! on a tie the walk goes through the columns from 0 and counts as it
//! goes. The *sequence* of comparisons is a boxed-tuple sort's too:
//! `slice::sort_by` is deterministic in the slice length and the comparison
//! outcomes, and it picks its strategy (small-sort width, scratch size) from
//! the element's size and `Freeze`-ness — a 16-byte `Entry` and a 16-byte
//! `Tuple` (`Box<[Value]>`) take the same one. `tests/plan_golden.rs` pins
//! the totals the paper's statements charge.

use crate::metrics::MetricsRef;
use pyro_common::{ColumnarBatch, KeySpec, NormKeys};
use std::cmp::Ordering;
use std::ops::Range;

/// A batch whose rows are being ordered, with their normalized keys.
pub(crate) struct Keyed {
    pub(crate) batch: ColumnarBatch,
    pub(crate) norms: NormKeys,
    /// Every key column's prefixes are exact ([`NormKeys::is_exact`]).
    pub(crate) exact: bool,
}

impl Keyed {
    /// Normalizes every row of the dense `batch` under `key`.
    pub(crate) fn new(batch: ColumnarBatch, key: &KeySpec) -> Keyed {
        let norms = NormKeys::new(&batch, key);
        let exact = norms.is_exact();
        Keyed {
            batch,
            norms,
            exact,
        }
    }

    /// Orders physical row `i` against row `j` of `other` under `key`,
    /// on the prefixes alone when both batches are exact.
    #[inline]
    pub(crate) fn compare_rows(
        &self,
        i: usize,
        other: &Keyed,
        j: usize,
        key: &KeySpec,
    ) -> (Ordering, u64) {
        match self.exact && other.exact {
            true => self.norms.compare_exact(i, &other.norms, j),
            false => self
                .norms
                .compare(&self.batch, i, &other.norms, &other.batch, j, key),
        }
    }

    /// The entry for physical row `row`, filed under `src`.
    pub(crate) fn entry(&self, src: u32, row: usize) -> Entry {
        Entry {
            prefix: self.norms.first(row),
            src,
            row: row as u32,
        }
    }
}

/// A row to be ordered: the normalized prefix of its first key column, the
/// batch it lives in (`src`, an index the owner resolves) and its physical
/// row there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) prefix: u64,
    pub(crate) src: u32,
    pub(crate) row: u32,
}

impl Entry {
    /// Orders two entries under `key`, returning the ordering and the
    /// number of scalar comparisons to charge (see the module doc). `a`
    /// and `b` are the batches the entries live in.
    #[inline]
    pub(crate) fn compare(
        &self,
        a: &Keyed,
        other: &Entry,
        b: &Keyed,
        key: &KeySpec,
    ) -> (Ordering, u64) {
        if self.prefix != other.prefix {
            return (self.prefix.cmp(&other.prefix), 1);
        }
        a.compare_rows(self.row as usize, b, other.row as usize, key)
    }
}

/// Sorts physical rows `rows` of `keyed` by `key` and appends their row
/// ids, in sorted order, to `out`; comparisons are charged once. `scratch`
/// is the entry buffer, reused across calls: a partial sort closes
/// thousands of few-row segments.
///
/// An exact batch never leaves the prefix arrays ([`Keyed::compare_rows`]);
/// with one key column the inline prefix is the whole key, and the sort
/// compares nothing else.
pub(crate) fn sort_rows_into(
    keyed: &Keyed,
    key: &KeySpec,
    rows: Range<usize>,
    metrics: &MetricsRef,
    scratch: &mut Vec<Entry>,
    out: &mut Vec<u32>,
) {
    scratch.clear();
    scratch.extend(rows.map(|r| keyed.entry(0, r)));
    let mut acc: u64 = 0;
    if keyed.exact && key.len() == 1 {
        scratch.sort_by(|a, b| {
            acc += 1;
            a.prefix.cmp(&b.prefix)
        });
    } else {
        scratch.sort_by(|a, b| {
            let (ord, n) = a.compare(keyed, b, keyed, key);
            acc += n;
            ord
        });
    }
    metrics.add_comparisons(acc);
    out.extend(scratch.iter().map(|e| e.row));
}

/// The batches a replacement-selection heap's entries point into, each
/// with the number of heap entries still pointing at it; a batch is dropped
/// when that count reaches zero.
#[derive(Default)]
pub(crate) struct Sources {
    slots: Vec<Option<(Keyed, usize)>>,
    free: Vec<u32>,
    /// Physical rows held across all live slots.
    rows: usize,
}

impl Sources {
    /// Files `keyed` with `live` entries already pointing at it.
    pub(crate) fn add(&mut self, keyed: Keyed, live: usize) -> u32 {
        self.rows += keyed.batch.num_rows();
        let slot = Some((keyed, live));
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    pub(crate) fn get(&self, src: u32) -> &Keyed {
        &self.slots[src as usize]
            .as_ref()
            .expect("an entry points at a live source")
            .0
    }

    /// Physical rows held, live or not.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// One more entry points at `src`.
    pub(crate) fn retain(&mut self, src: u32) {
        self.slots[src as usize]
            .as_mut()
            .expect("retained source is live")
            .1 += 1;
    }

    /// One entry fewer points at `src`; the batch goes when none does,
    /// unless it is `keep` (the batch input is still being read from).
    pub(crate) fn release(&mut self, src: u32, keep: Option<u32>) {
        let slot = &mut self.slots[src as usize];
        let (_, live) = slot.as_mut().expect("released source is live");
        *live -= 1;
        if *live == 0 && keep != Some(src) {
            self.drop_slot(src);
        }
    }

    /// Drops `src` if no entry points at it (input moved past it).
    pub(crate) fn drop_if_dead(&mut self, src: u32) {
        if matches!(&self.slots[src as usize], Some((_, 0))) {
            self.drop_slot(src);
        }
    }

    fn drop_slot(&mut self, src: u32) {
        if let Some((keyed, _)) = self.slots[src as usize].take() {
            self.rows -= keyed.batch.num_rows();
            self.free.push(src);
        }
    }

    /// Drops every batch (after the entries were rewritten to point
    /// elsewhere).
    pub(crate) fn clear(&mut self) {
        *self = Sources::default();
    }

    /// Orders two entries living in this table. A differing inline prefix
    /// decides before either batch is looked up.
    #[inline]
    pub(crate) fn compare(&self, key: &KeySpec, a: &Entry, b: &Entry) -> (Ordering, u64) {
        if a.prefix != b.prefix {
            return (a.prefix.cmp(&b.prefix), 1);
        }
        let (ka, kb) = (self.get(a.src), self.get(b.src));
        ka.compare_rows(a.row as usize, kb, b.row as usize, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use pyro_common::{Column, DataType, Schema, Tuple, Value};

    /// xorshift64*: a fixed, dependency-free stream of test data.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// What one column of a generated batch holds. The first three leave
    /// the column exact unless a cell strays; a DOUBLE column never is.
    #[derive(Clone, Copy)]
    enum Kind {
        /// Small integers (many ties); a stray is at or just past ±2^52,
        /// where exactness ends and neighbours share a prefix.
        Int,
        /// Strings of 0–7 bytes over `{NUL, a, b}`; a stray is 8–9 bytes
        /// (two differ only in the bit the prefix drops) or ends in a NUL.
        Str,
        /// Only NULLs.
        Null,
        /// Doubles, integral or not.
        Double,
    }

    impl Kind {
        /// The column's type (an INT column of NULLs for `Null`).
        fn ty(self) -> DataType {
            match self {
                Kind::Int | Kind::Null => DataType::Int,
                Kind::Str => DataType::Str,
                Kind::Double => DataType::Double,
            }
        }
    }

    const EDGE: i64 = 1 << 52;

    fn pick(rng: &mut Rng, from: &[&'static str]) -> &'static str {
        from[rng.below(from.len() as u64) as usize]
    }

    fn cell(rng: &mut Rng, kind: Kind, stray: bool) -> Value {
        if rng.below(8) == 0 {
            return Value::Null;
        }
        match kind {
            Kind::Int if stray => {
                let edge = [EDGE - 1, EDGE, EDGE + 1][rng.below(3) as usize];
                Value::Int(if rng.below(2) == 0 { edge } else { -edge })
            }
            Kind::Int => Value::Int(rng.below(7) as i64 - 3),
            Kind::Str if stray => {
                let hazards = ["abababab", "abababac", "ababababa", "\0", "a\0", "ab\0"];
                Value::Str(pick(rng, &hazards).into())
            }
            Kind::Str => {
                let len = rng.below(8);
                let mut s: String = (0..len).map(|_| pick(rng, &["\0", "a", "b"])).collect();
                if s.ends_with('\0') {
                    s.pop();
                    s.push('a');
                }
                Value::Str(s)
            }
            Kind::Null => Value::Null,
            Kind::Double => Value::Double((rng.below(13) as f64 - 6.0) / 2.0),
        }
    }

    /// `rows` rows over `kinds`. In one batch in four, a third of the
    /// cells stray, which costs their columns their exactness.
    fn batch(rng: &mut Rng, kinds: &[Kind], rows: usize) -> Keyed {
        let strays = rng.below(4) == 0;
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| {
                let vals = kinds.iter().map(|&kind| {
                    let stray = strays && rng.below(3) == 0;
                    cell(rng, kind, stray)
                });
                Tuple::new(vals.collect())
            })
            .collect();
        let key = KeySpec::new((0..kinds.len()).collect());
        let cols = kinds.iter().enumerate();
        let schema = Schema::new(
            cols.map(|(i, k)| Column::new(format!("c{i}"), k.ty()))
                .collect(),
        );
        Keyed::new(ColumnarBatch::from_rows(&schema, &tuples).unwrap(), &key)
    }

    fn kinds(rng: &mut Rng, width: usize) -> Vec<Kind> {
        let all = [
            Kind::Int,
            Kind::Str,
            Kind::Int,
            Kind::Str,
            Kind::Null,
            Kind::Double,
        ];
        (0..width).map(|_| all[rng.below(6) as usize]).collect()
    }

    /// Wherever two batches both claim exactness, the prefix-only compare
    /// gives the general compare's ordering and charge — and both give a
    /// boxed compare's, as does the heap's compare over a source table that
    /// batches come into and leave. The batches mix small and edge INTs,
    /// NULLs, short, long and NUL-ended strings and doubles, and a column
    /// may be INT in one batch and DOUBLE in the other.
    #[test]
    fn exact_compare_is_the_general_compare() {
        let mut rng = Rng(0x5EED_0FC0_DE00);
        let (mut exact_pairs, mut inexact_pairs) = (0, 0);
        let mut srcs = Sources::default();
        for _ in 0..400 {
            let width = 1 + rng.below(3) as usize;
            let key = KeySpec::new((0..width).collect());
            let ka = kinds(&mut rng, width);
            let mut kb = ka.clone();
            if rng.below(3) == 0 {
                let c = rng.below(width as u64) as usize;
                kb[c] = match ka[c] {
                    Kind::Double => Kind::Int,
                    _ => Kind::Double,
                };
            }
            let (a, b) = (batch(&mut rng, &ka, 12), batch(&mut rng, &kb, 12));
            let (ra, rb) = (a.batch.to_rows(), b.batch.to_rows());
            let both = a.exact && b.exact;
            for (i, x) in ra.iter().enumerate() {
                for (j, y) in rb.iter().enumerate() {
                    let general = a.norms.compare(&a.batch, i, &b.norms, &b.batch, j, &key);
                    assert_eq!(general, key.compare_counting(x, y));
                    assert_eq!(a.compare_rows(i, &b, j, &key), general);
                    if both {
                        let exact = a.norms.compare_exact(i, &b.norms, j);
                        assert_eq!(exact, general, "{x:?} vs {y:?}");
                    }
                }
            }
            match both {
                true => exact_pairs += 1,
                false => inexact_pairs += 1,
            }
            let (sa, sb) = (srcs.add(a, 1), srcs.add(b, 1));
            for (i, x) in ra.iter().enumerate() {
                for (j, y) in rb.iter().enumerate() {
                    let (ea, eb) = (srcs.get(sa).entry(sa, i), srcs.get(sb).entry(sb, j));
                    let got = srcs.compare(&key, &ea, &eb);
                    assert_eq!(got, key.compare_counting(x, y), "{x:?} vs {y:?}");
                }
            }
            srcs.release(sa, None);
            srcs.release(sb, None);
        }
        assert!(exact_pairs > 50, "{exact_pairs} exact pairs");
        assert!(inexact_pairs > 50, "{inexact_pairs} inexact pairs");
    }

    /// `sort_rows_into` leaves the rows in the order, and charges the
    /// comparisons, of `slice::sort_by` with `compare_counting` over the
    /// same rows boxed — exact batch or not, one key column or several.
    #[test]
    fn sort_rows_into_is_a_boxed_sort() {
        assert_eq!(size_of::<Entry>(), size_of::<Tuple>());
        let mut rng = Rng(0xB0_08ED);
        let (mut scratch, mut exact) = (Vec::new(), 0);
        for round in 0..300 {
            let width = 1 + rng.below(3) as usize;
            let key = KeySpec::new((0..width).collect());
            let rows = 1 + rng.below(90) as usize;
            let kinds = kinds(&mut rng, width);
            let keyed = batch(&mut rng, &kinds, rows);
            let start = rng.below(rows as u64) as usize;
            let end = start + rng.below((rows - start) as u64 + 1) as usize;
            let metrics = ExecMetrics::new();
            let mut out = Vec::new();
            sort_rows_into(&keyed, &key, start..end, &metrics, &mut scratch, &mut out);

            let mut boxed: Vec<Tuple> = keyed.batch.to_rows()[start..end].to_vec();
            let mut charged = 0;
            boxed.sort_by(|x, y| {
                let (ord, n) = key.compare_counting(x, y);
                charged += n;
                ord
            });
            let all = keyed.batch.to_rows();
            let got: Vec<Tuple> = out.iter().map(|&r| all[r as usize].clone()).collect();
            assert_eq!(
                crate::op::exact(&got),
                crate::op::exact(&boxed),
                "round {round}"
            );
            // A stable sort: equal keys keep their input order.
            let mut ids: Vec<u32> = (start as u32..end as u32).collect();
            ids.sort_by(|&x, &y| key.compare(&all[x as usize], &all[y as usize]));
            assert_eq!(out, ids, "round {round}");
            assert_eq!(metrics.comparisons(), charged, "round {round}");
            exact += usize::from(keyed.exact);
        }
        assert!(exact > 50, "{exact} exact batches");
    }
}
