//! # pyro-exec
//!
//! A Volcano-style (pull-based) execution engine that exchanges rows
//! **batch-at-a-time** — every operator implements one pull,
//! [`Operator::next_batch`], which hands over a
//! [`pyro_common::ColumnarBatch`] of column vectors (see `op.rs` for the
//! batch contract; counter totals are identical at every batch size, with
//! batch size 1 as the reference) — built to make the paper's §3 claims
//! observable:
//!
//! * [`sort::StandardReplacementSort`] (SRS) — classical replacement
//!   selection with run spilling and multi-pass merging; falls back to a
//!   pure in-memory sort when the input fits in the budget.
//! * [`sort::PartialSort`] (MRS) — the paper's modified replacement
//!   selection: given that the input is already sorted on a *prefix* of the
//!   requested key, it sorts each partial-sort segment independently,
//!   producing tuples early, comparing only suffix columns, and doing **zero
//!   run I/O** whenever a segment fits in memory.
//!
//! Joins ([`join`]), grouping ([`agg`], which is also duplicate
//! elimination) and the relational plumbing ([`scan`], [`filter`],
//! [`project`], [`limit`]) complete the operator set needed by every query
//! in the paper's evaluation. All operators share an [`ExecMetrics`] counter block so
//! experiments can report comparisons and run I/O exactly.

#![deny(missing_docs)]

pub mod agg;
pub mod exchange;
pub mod expr;
pub mod filter;
pub mod join;
pub mod limit;
pub mod metrics;
pub mod op;
pub mod project;
pub mod scan;
pub mod sort;
pub mod vector;

pub use exchange::{FragmentFn, Gather};
pub use expr::{CmpOp, Expr};
pub use metrics::{ExecMetrics, MetricsRef};
pub use op::{collect, BoxOp, Operator, Pipeline, Rows, ValuesOp, DEFAULT_BATCH_SIZE};
pub use scan::{FileScan, Morsel, MorselSource, MORSEL_PAGES};
pub use vector::{eval_column, VecPredicate};
