//! External sorting: standard replacement selection (SRS) and the paper's
//! modified replacement selection (MRS, [`PartialSort`]).
//!
//! Both operators share the spill-run machinery in the `runs` module: runs are
//! [`pyro_storage::TupleFile`]s whose page writes/reads are charged to the
//! pipeline's [`crate::ExecMetrics`] as *run I/O* — the quantity the paper's
//! Experiments A1–A4 measure.
//!
//! Each operator has two implementations. Tuple-at-a-time `next` sorts boxed
//! tuples with [`pyro_common::KeySpec::compare_counting`]; it is the oracle.
//! `next_batch` takes its input as columns and never boxes a row: it sorts 16-byte `(normalized key prefix, row id)`
//! entries (the `entry` module says why that reproduces the oracle's
//! counters number for number), spills rows encoded straight from column
//! vectors, and emits by gather.

mod entry;
mod heap;
mod mrs;
mod runs;
mod srs;

pub use mrs::PartialSort;
pub use runs::{ColumnarMergeStream, InMemorySortStream, MergeStream};
pub use srs::StandardReplacementSort;

use crate::metrics::MetricsRef;
use pyro_common::{KeySpec, Tuple};

/// Memory budget for a sort, expressed like the paper: `M` blocks.
#[derive(Debug, Clone, Copy)]
pub struct SortBudget {
    /// Number of memory blocks available.
    pub blocks: u64,
    /// Block size in bytes.
    pub block_size: usize,
}

impl SortBudget {
    /// Budget of `blocks` blocks of `block_size` bytes.
    pub fn new(blocks: u64, block_size: usize) -> Self {
        SortBudget {
            blocks: blocks.max(3),
            block_size,
        }
    }

    /// Total bytes available for buffered tuples.
    pub fn bytes(&self) -> usize {
        (self.blocks as usize).saturating_mul(self.block_size)
    }

    /// Merge fan-in (`M − 1` input buffers, one output buffer).
    pub fn fan_in(&self) -> usize {
        (self.blocks as usize - 1).max(2)
    }
}

/// Sorts a buffer by `key`. Scalar comparisons accumulate in a local
/// counter and are charged to the metrics **once per call** — the counter
/// total is identical to per-comparison charging, without a shared-`Cell`
/// bump inside the sort's inner loop.
pub(crate) fn sort_buffer(buf: &mut [Tuple], key: &KeySpec, metrics: &MetricsRef) {
    let mut acc: u64 = 0;
    buf.sort_by(|a, b| {
        let (ord, n) = key.compare_counting(a, b);
        acc += n;
        ord
    });
    metrics.add_comparisons(acc);
}
