//! The cost model (§3.2).
//!
//! Costs are expressed in block-I/O units; CPU work is translated into the
//! same units via small configurable factors ("CPU cost is appropriately
//! translated into I/O cost units", §3). The two formulas at the heart of
//! the paper:
//!
//! ```text
//! coe(e, ε, o)  = cpu_cost(e, o)                    if B(e) ≤ M
//!               = B(e)·(2·⌈log_{M−1}(B(e)/M)⌉ + 1)  otherwise
//!
//! coe(e, o1, o2) = D(e, attrs(os)) · coe(e', ε, or)
//!                  where os = o2 ∧ o1, or = o2 − os,
//!                        N(e') = N(e)/D, B(e') = B(e)/D
//! ```
//!
//! The second is what makes *partial* sort enforcement cheap: each of the
//! `D` partial-sort segments is costed independently — usually in-memory.

use crate::ids::{AttrId, IdOrder};
use crate::stats::NodeStats;

/// Enumeration accounting for one optimization run: how much of the plan
/// space the search actually touched. Totals are deterministic functions
/// of the logical plan, the strategy and the knob settings — never of
/// wall-clock or cost constants — so equal-knob runs report equal stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Memo groups solved: distinct `(node, rep-normalized order)` goals.
    pub groups: u64,
    /// Physical candidates enumerated across all solved goals.
    pub candidates: u64,
}

/// Tunable constants of the cost model. Equality and hashing go by bit
/// pattern ([`CostParams::to_bits`]), so the two agree and a set of
/// constants can be part of a plan-cache key.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Block size in bytes (paper: 4 KB).
    pub block_size: usize,
    /// Sort memory in blocks — the `M` of the formulas (paper: 10 000
    /// blocks = 40 MB; scaled deployments use less).
    pub sort_mem_blocks: f64,
    /// I/O-units per scalar key comparison.
    pub cmp_io: f64,
    /// I/O-units per tuple passed through an operator. Sorted grouping
    /// (`GROUP BY`, and `DISTINCT`, a grouping with no aggregates) costs
    /// this per input row and no `cmp_io`: grouping charges no comparisons,
    /// in the model as in the executor.
    pub tuple_io: f64,
    /// I/O-units per tuple hashed (build or probe).
    pub hash_io: f64,
    /// Buffer-pool capacity in pages; `0` means the executor bypasses the
    /// pool (the default), in which case the model charges every block
    /// access as cold I/O — exactly the pre-pool formulas.
    pub buffer_pool_pages: f64,
    /// Cost of re-reading a pool-resident block, as a fraction of a cold
    /// device read. Applied to the *read* half of external-sort run I/O
    /// when the run set fits in the pool (runs are written and immediately
    /// re-read, the pattern a buffer pool absorbs best).
    pub cached_read_discount: f64,
}

impl CostParams {
    /// Every constant as its bit pattern.
    pub fn to_bits(&self) -> [u64; 7] {
        [
            self.block_size as u64,
            self.sort_mem_blocks.to_bits(),
            self.cmp_io.to_bits(),
            self.tuple_io.to_bits(),
            self.hash_io.to_bits(),
            self.buffer_pool_pages.to_bits(),
            self.cached_read_discount.to_bits(),
        ]
    }
}

impl PartialEq for CostParams {
    fn eq(&self, other: &CostParams) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl Eq for CostParams {}

impl std::hash::Hash for CostParams {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_bits().hash(state);
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            block_size: 4096,
            sort_mem_blocks: 100.0,
            cmp_io: 1e-5,
            tuple_io: 5e-6,
            // Hashing a key + bucket traversal costs several comparisons'
            // worth of CPU per tuple.
            hash_io: 5e-5,
            buffer_pool_pages: 0.0,
            cached_read_discount: 0.25,
        }
    }
}

impl CostParams {
    /// CPU cost of sorting `n` tuples: `n·log2(n)` comparisons in I/O units.
    pub fn cpu_sort(&self, rows: f64) -> f64 {
        let n = rows.max(2.0);
        self.cmp_io * n * n.log2()
    }

    /// Cost multiplier for re-reading `blocks` spill blocks: `1` when the
    /// executor bypasses the pool or the run set outgrows it, the
    /// configured discount when a bounded pool can hold the whole run set
    /// (each run page is then re-read from a resident frame).
    pub fn run_read_factor(&self, blocks: f64) -> f64 {
        if self.buffer_pool_pages > 0.0 && blocks <= self.buffer_pool_pages {
            self.cached_read_discount
        } else {
            1.0
        }
    }

    /// `coe(e, ε, o)`: full-sort enforcement cost for an input of `rows`
    /// tuples in `blocks` blocks.
    ///
    /// The external branch is the paper's `B(e)·(2·passes + 1)` — `passes`
    /// write+read round trips over the runs plus the final merge read.
    /// With a bounded buffer pool ([`CostParams::buffer_pool_pages`] > 0)
    /// that can hold the runs, the read halves are discounted by
    /// [`CostParams::cached_read_discount`]; with the default bypass the
    /// factor is 1 and the formula is bit-identical to the paper's.
    pub fn coe_full(&self, rows: f64, blocks: f64) -> f64 {
        let m = self.sort_mem_blocks;
        if blocks <= m {
            self.cpu_sort(rows)
        } else {
            let passes = ((blocks / m).log2() / (m - 1.0).log2()).ceil().max(1.0);
            let r = self.run_read_factor(blocks);
            blocks * ((1.0 + r) * passes + r)
        }
    }

    /// `coe(e, o1, o2)` where the common prefix has already been factored
    /// out by the caller into `segments = D(e, attrs(o2 ∧ o1))`; `rest_len`
    /// is `|o2 − os|`. Returns 0 when nothing remains to sort.
    pub fn coe_partial(&self, stats: &NodeStats, segments: f64, rest_len: usize) -> f64 {
        if rest_len == 0 {
            return 0.0;
        }
        let d = segments.max(1.0);
        let seg_rows = (stats.rows / d).max(1.0);
        let seg_blocks = (stats.blocks(self.block_size) / d).max(1.0);
        d * self.coe_full(seg_rows, seg_blocks)
    }

    /// Enforcement cost from a known order `have` to target `need`, with
    /// prefix matching decided by the caller-provided equivalence test.
    /// Returns `(cost, matched_prefix_len)`.
    pub fn coe_order(
        &self,
        stats: &NodeStats,
        have: &IdOrder,
        need: &IdOrder,
        same: impl Fn(AttrId, AttrId) -> bool,
    ) -> (f64, usize) {
        let k = have
            .attrs()
            .iter()
            .zip(need.attrs())
            .take_while(|(&h, &n)| same(h, n))
            .count();
        let segments = stats.distinct_of(need.attrs()[..k].iter().copied());
        (self.coe_partial(stats, segments, need.len() - k), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats with the given distinct estimates for attributes `0..n`.
    fn stats(rows: f64, avg_bytes: f64, distinct: &[f64]) -> NodeStats {
        NodeStats {
            rows,
            avg_bytes,
            distinct: distinct.iter().map(|&d| Some(d)).chain([None]).collect(),
        }
    }

    fn o(attrs: &[u32]) -> IdOrder {
        IdOrder::new(attrs.iter().map(|&a| AttrId(a)))
    }

    #[test]
    fn in_memory_sorts_are_cpu_only() {
        let p = CostParams::default();
        // 100 blocks budget, tiny input
        let c = p.coe_full(1000.0, 10.0);
        assert!(
            c < 1.0,
            "in-memory sort should cost well under one I/O: {c}"
        );
    }

    #[test]
    fn bounded_pool_discounts_run_reads() {
        let cold = CostParams::default();
        let pooled = CostParams {
            buffer_pool_pages: 2000.0,
            cached_read_discount: 0.25,
            ..CostParams::default()
        };
        let (rows, blocks) = (100_000.0, 1000.0);
        // One merge pass. Cold: B·3. Pooled (runs fit): write pass full,
        // both reads at a quarter of a cold read → B·(1 + 0.25 + 0.25).
        assert_eq!(cold.coe_full(rows, blocks), blocks * 3.0);
        assert_eq!(pooled.coe_full(rows, blocks), blocks * 1.5);
        // Runs outgrow the pool → no discount.
        let small_pool = CostParams {
            buffer_pool_pages: 10.0,
            ..pooled
        };
        assert_eq!(small_pool.coe_full(rows, blocks), blocks * 3.0);
        // In-memory sorts are CPU-only either way.
        assert_eq!(pooled.coe_full(1000.0, 10.0), cold.coe_full(1000.0, 10.0));
    }

    #[test]
    fn external_sort_charges_passes() {
        let p = CostParams::default();
        let b = 1000.0; // 10× memory
        let c = p.coe_full(100_000.0, b);
        assert_eq!(c, b * 3.0, "one merge pass: read+write runs + final read");
        // much larger input → more passes
        let c2 = p.coe_full(10_000_000.0, 1_000_000.0);
        assert!(c2 > c);
    }

    #[test]
    fn partial_sort_much_cheaper_than_full() {
        let p = CostParams::default();
        let s = stats(2_000_000.0, 100.0, &[1000.0]);
        let b = s.blocks(4096);
        assert!(b > p.sort_mem_blocks);
        let full = p.coe_full(s.rows, b);
        // 1000 segments of ~49 blocks each fit in the 100-block budget →
        // every segment sorts in memory, so the partial sort is CPU-only.
        let partial = p.coe_partial(&s, 1000.0, 3);
        assert!(
            partial < full / 10.0,
            "partial {partial} should beat full {full} decisively"
        );
    }

    #[test]
    fn partial_sort_converges_to_full_when_segments_outgrow_memory() {
        // Figure 9's right edge: one giant segment = plain external sort.
        let p = CostParams::default();
        let s = stats(2_000_000.0, 100.0, &[1.0]);
        let full = p.coe_full(s.rows, s.blocks(4096));
        let partial = p.coe_partial(&s, 1.0, 3);
        assert!((partial - full).abs() < 1e-9);
    }

    #[test]
    fn coe_order_matches_prefix_under_equivalence() {
        let p = CostParams::default();
        let s = stats(10_000.0, 50.0, &[50.0, 200.0]);
        let have = o(&[0]);
        let need = o(&[0, 1]);
        let (cost, k) = p.coe_order(&s, &have, &need, |x, y| x == y);
        assert_eq!(k, 1);
        assert!(cost > 0.0);
        // exact match → zero
        let (cost, k) = p.coe_order(&s, &need, &need, |x, y| x == y);
        assert_eq!((cost, k), (0.0, 2));
        // no overlap → full sort cost with D(∅)=1 segment
        let (cost_none, k) = p.coe_order(&s, &o(&[2]), &need, |x, y| x == y);
        assert_eq!(k, 0);
        let full = p.coe_full(s.rows, s.blocks(4096));
        assert!((cost_none - full).abs() < 1e-9);
    }

    #[test]
    fn coe_order_uses_equivalence() {
        let p = CostParams::default();
        let s = stats(1000.0, 50.0, &[100.0, 100.0]);
        let have = o(&[0]);
        let need = o(&[1]);
        let (cost, k) = p.coe_order(&s, &have, &need, |_, _| true);
        assert_eq!((cost, k), (0.0, 1));
    }

    #[test]
    fn empty_need_is_free() {
        let p = CostParams::default();
        let s = stats(1000.0, 50.0, &[]);
        let (cost, _) = p.coe_order(&s, &IdOrder::empty(), &IdOrder::empty(), |x, y| x == y);
        assert_eq!(cost, 0.0);
    }
}
