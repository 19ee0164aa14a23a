//! # pyro-common
//!
//! Shared foundation types for the PYRO order-optimization engine — the Rust
//! reproduction of *"Reducing Order Enforcement Cost in Complex Query Plans"*
//! (Guravannavar, Sudarshan, Diwan, Sobhan Babu; ICDE 2007).
//!
//! This crate deliberately contains no I/O and no policy: just the value
//! model ([`Value`]), row model ([`Tuple`]), schema model ([`Schema`]), the
//! error type ([`PyroError`]) and the hasher ([`hash`]) every other crate
//! builds on.

#![deny(missing_docs)]

pub mod columnar;
pub mod error;
pub mod hash;
pub mod schema;
pub mod tuple;
pub mod value;

pub use columnar::{
    CellRef, ColumnBuilder, ColumnData, ColumnVec, ColumnarBatch, NormKeys, NullBitmap, NULL_ROW,
};
pub use error::{PyroError, Result};
pub use schema::{Column, DataType, Schema};
pub use tuple::{KeySpec, Tuple};
pub use value::Value;
