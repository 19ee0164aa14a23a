//! Join operators: sort-merge (inner / left / full outer), hash, and block
//! nested loops.

mod hash;
mod merge;
mod nl;

pub use hash::{HashJoin, SharedBuild};
pub use merge::MergeJoin;
pub use nl::NestedLoopsJoin;

use pyro_common::ColumnarBatch;

/// Join type. The paper's Query 4 requires FULL OUTER; the rest are inner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Matching pairs only.
    Inner,
    /// All left rows; unmatched padded with NULLs on the right.
    LeftOuter,
    /// All rows from both sides; unmatched padded with NULLs.
    FullOuter,
}

/// One of a join's two inputs — for a [`HashJoin`], the one its table is
/// built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left (first-written) input.
    Left,
    /// The right input.
    Right,
}

/// Output rows `li` of `left` beside rows `ri` of `right`, laid out
/// `left ++ right` and gathered column at a time ([`pyro_common::NULL_ROW`]
/// pads a side).
fn side_by_side(
    left: &ColumnarBatch,
    li: &[u32],
    right: &ColumnarBatch,
    ri: &[u32],
) -> ColumnarBatch {
    let (left, right) = (left.gather(li), right.gather(ri));
    let columns = left.columns().iter().chain(right.columns()).cloned();
    ColumnarBatch::from_columns(columns.collect(), li.len())
}
