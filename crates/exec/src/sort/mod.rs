//! External sorting: standard replacement selection (SRS) and the paper's
//! modified replacement selection (MRS, [`PartialSort`]).
//!
//! Both operators share the spill-run machinery in the `runs` module: runs are
//! [`pyro_storage::TupleFile`]s whose page writes/reads are charged to the
//! pipeline's [`crate::ExecMetrics`] as *run I/O* — the quantity the paper's
//! Experiments A1–A4 measure.
//!
//! Both take their input as columns and never box a row: they sort 16-byte
//! `(normalized key prefix, row id)` entries (the `entry` module says why
//! that charges exactly the comparisons a sort of boxed tuples by
//! [`pyro_common::KeySpec::compare_counting`] would), spill rows encoded
//! straight from column vectors, and emit by gather.

mod entry;
mod heap;
mod mrs;
mod runs;
mod srs;

pub use mrs::PartialSort;
pub use runs::ColumnarMergeStream;
pub use srs::StandardReplacementSort;

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
