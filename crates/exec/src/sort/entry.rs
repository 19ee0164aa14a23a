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
}

impl Keyed {
    /// Normalizes every row of the dense `batch` under `key`.
    pub(crate) fn new(batch: ColumnarBatch, key: &KeySpec) -> Keyed {
        let norms = NormKeys::new(&batch, key);
        Keyed { batch, norms }
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
        let (i, j) = (self.row as usize, other.row as usize);
        a.norms.compare(&a.batch, i, &b.norms, &b.batch, j, key)
    }
}

/// Sorts physical rows `rows` of `keyed` by `key` and appends their row
/// ids, in sorted order, to `out`; comparisons are charged once. `scratch`
/// is the entry buffer, reused across calls: a partial sort closes
/// thousands of few-row segments.
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
    scratch.sort_by(|a, b| {
        let (ord, n) = a.compare(keyed, b, keyed, key);
        acc += n;
        ord
    });
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
        a.compare(self.get(a.src), b, self.get(b.src), key)
    }
}
