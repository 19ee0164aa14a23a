//! The replacement-selection heap.
//!
//! A manual binary min-heap over `(run_number, item)` ordered first by run
//! number, then by sort key — so the entries of the *current* run always
//! surface before entries held back for the next run, which is exactly what
//! replacement selection needs. A manual implementation (rather than
//! `BinaryHeap`) lets every key comparison be counted. Comparisons
//! accumulate in a local counter per `push`/`pop` and the caller charges
//! the pipeline metrics in batches, keeping the shared `Cell` out of the
//! sift loops.
//!
//! The heap is generic over what it holds — the sorts keep 16-byte
//! `(normalized key prefix, row id)` entries in it — and takes the key
//! comparison as a closure. The sift sequence depends only on the
//! comparison outcomes, so it makes the comparisons a heap of boxed tuples
//! would, in the same order.

use crate::metrics::MetricsRef;
use std::cmp::Ordering;

/// Min-heap of `(run, item)` used by SRS.
pub(crate) struct RsHeap<T> {
    data: Vec<(u32, T)>,
    metrics: MetricsRef,
    /// Comparisons performed but not yet charged to `metrics`.
    uncharged: u64,
}

impl<T> RsHeap<T> {
    pub(crate) fn new(metrics: MetricsRef) -> Self {
        RsHeap {
            data: Vec::new(),
            metrics,
            uncharged: 0,
        }
    }

    /// Flushes locally accumulated comparison counts to the shared metrics.
    pub(crate) fn flush_comparisons(&mut self) {
        self.metrics.add_comparisons(self.uncharged);
        self.uncharged = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Every held item, in heap order — for rewriting what the items point
    /// at without touching their keys.
    pub(crate) fn items_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.data.iter_mut().map(|(_, item)| item)
    }

    /// `cmp` orders two items by sort key and reports how many scalar
    /// comparisons that took.
    fn less(&mut self, i: usize, j: usize, cmp: &impl Fn(&T, &T) -> (Ordering, u64)) -> bool {
        let (a, b) = (&self.data[i], &self.data[j]);
        match a.0.cmp(&b.0) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                let (ord, n) = cmp(&a.1, &b.1);
                self.uncharged += n;
                ord == Ordering::Less
            }
        }
    }

    pub(crate) fn push(&mut self, run: u32, item: T, cmp: &impl Fn(&T, &T) -> (Ordering, u64)) {
        self.data.push((run, item));
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent, cmp) {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// The run number of the minimum entry.
    pub(crate) fn peek_run(&self) -> Option<u32> {
        self.data.first().map(|(r, _)| *r)
    }

    pub(crate) fn pop(&mut self, cmp: &impl Fn(&T, &T) -> (Ordering, u64)) -> Option<(u32, T)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let out = self.data.pop().expect("non-empty");
        // sift down
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.data.len() && self.less(l, smallest, cmp) {
                smallest = l;
            }
            if r < self.data.len() && self.less(r, smallest, cmp) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.data.swap(i, smallest);
            i = smallest;
        }
        Some(out)
    }
}

impl<T> Drop for RsHeap<T> {
    fn drop(&mut self) {
        // Never lose counted comparisons, even on early teardown.
        self.flush_comparisons();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use pyro_common::{KeySpec, Tuple, Value};

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn by_col0(a: &Tuple, b: &Tuple) -> (Ordering, u64) {
        KeySpec::new(vec![0]).compare_counting(a, b)
    }

    #[test]
    fn pops_in_run_then_key_order() {
        let m = ExecMetrics::new();
        let mut h = RsHeap::new(m.clone());
        h.push(1, t(1), &by_col0); // next run, smallest key
        h.push(0, t(9), &by_col0); // current run, larger key
        h.push(0, t(5), &by_col0);
        assert_eq!(h.peek_run(), Some(0));
        assert_eq!(h.pop(&by_col0).unwrap(), (0, t(5)));
        assert_eq!(h.pop(&by_col0).unwrap(), (0, t(9)));
        assert_eq!(h.pop(&by_col0).unwrap(), (1, t(1)));
        assert!(h.pop(&by_col0).is_none());
        h.flush_comparisons();
        assert!(m.comparisons() > 0);
    }

    #[test]
    fn drop_flushes_uncharged_comparisons() {
        let m = ExecMetrics::new();
        {
            let mut h = RsHeap::new(m.clone());
            for v in [5i64, 3, 8, 1] {
                h.push(0, t(v), &by_col0);
            }
            assert_eq!(m.comparisons(), 0, "charged only on flush/drop");
        }
        assert!(m.comparisons() > 0, "drop flushed the local counter");
    }

    #[test]
    fn random_order_drains_sorted() {
        let m = ExecMetrics::new();
        let mut h = RsHeap::new(m);
        for v in [5i64, 3, 8, 1, 9, 2, 7] {
            h.push(0, t(v), &by_col0);
        }
        assert_eq!(h.len(), 7);
        let mut out = Vec::new();
        while let Some((_, tu)) = h.pop(&by_col0) {
            out.push(tu.get(0).as_int().unwrap());
        }
        assert_eq!(out, vec![1, 2, 3, 5, 7, 8, 9]);
        assert_eq!(h.len(), 0);
    }
}
