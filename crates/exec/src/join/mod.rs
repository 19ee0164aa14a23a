//! Join operators: sort-merge (inner / left / full outer), hash, and block
//! nested loops.

mod hash;
mod merge;
mod nl;

pub use hash::{HashJoin, SharedBuild};
pub use merge::MergeJoin;
pub use nl::NestedLoopsJoin;

use pyro_common::Value;

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

/// The INT a DOUBLE join key equals, if any: the one whose `f64` image is
/// the double bit for bit — equal under `Value::cmp`, as a merge join
/// matches. Never for a fraction, −0.0, NaN or an infinity. Past ±2^53
/// several INTs share one image; this is the one the cast lands on.
pub(crate) fn int_of_double(d: f64) -> Option<i64> {
    let x = d as i64;
    ((x as f64).to_bits() == d.to_bits()).then_some(x)
}

/// Rewrites a join key cell into the form hashing and `==` match on: an
/// integral DOUBLE becomes its INT, so `2 = 2.0` holds. An INT stays as it
/// is, so INTs past ±2^53 that share an `f64` image stay apart.
pub(crate) fn numeric_key(v: &mut Value) {
    if let Value::Double(d) = *v {
        if let Some(x) = int_of_double(d) {
            *v = Value::Int(x);
        }
    }
}
