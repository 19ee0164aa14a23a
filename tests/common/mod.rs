//! Shared by the integration suites:
//! - [`exact`], the one way a test claims that two runs returned the same
//!   rows;
//! - an in-memory source that hands its rows on in a chosen batch layout,
//!   so every operator can be fed `Rows`, `Cols`, and a stream that changes
//!   layout from one batch to the next.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use pyro::common::{Result, Schema, Tuple, Value};
use pyro::exec::{Batch, Operator, ValuesOp};

/// Rows compared cell for cell by variant and payload, doubles by their
/// bits (so `-0.0` differs from `0.0` and a NaN equals itself). `Value`'s
/// `==` is the engine's equality, which takes `Int(2)` for `Double(2.0)`:
/// too loose for a claim that two runs returned identical rows.
#[derive(Debug)]
pub struct Exact<'a>(&'a [Tuple]);

/// `rows`, to be compared with [`Exact`]'s strict equality:
/// `assert_eq!(exact(a.rows()), exact(b.rows()))`.
pub fn exact(rows: &[Tuple]) -> Exact<'_> {
    Exact(rows)
}

impl PartialEq for Exact<'_> {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        };
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(a, b)| {
                a.arity() == b.arity() && a.values().iter().zip(b.values()).all(|(x, y)| same(x, y))
            })
    }
}

/// The layout a [`Source`] emits its batches in.
#[derive(Clone, Copy, Debug)]
pub enum Layout {
    Rows,
    Cols,
    /// `Rows`, `Cols`, `Rows`, ... batch by batch.
    Alternating,
}

pub const LAYOUTS: [Layout; 3] = [Layout::Rows, Layout::Cols, Layout::Alternating];

/// A [`ValuesOp`] whose batches come out as `layout` says.
pub struct Source {
    rows: ValuesOp,
    layout: Layout,
    pulls: usize,
}

impl Source {
    /// `rows` handed on `batch` at a time.
    pub fn new(schema: Schema, rows: Vec<Tuple>, batch: usize, layout: Layout) -> Source {
        let mut rows = ValuesOp::new(schema, rows);
        rows.set_batch_size(batch);
        Source {
            rows,
            layout,
            pulls: 0,
        }
    }
}

impl Operator for Source {
    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let cols = match self.layout {
            Layout::Rows => false,
            Layout::Cols => true,
            Layout::Alternating => self.pulls % 2 == 1,
        };
        self.pulls += 1;
        Ok(self.rows.next_batch()?.map(|b| match cols {
            true => Batch::Cols(b.into_cols()),
            false => Batch::Rows(b.into_rows()),
        }))
    }

    fn batch_size(&self) -> usize {
        self.rows.batch_size()
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.rows.set_batch_size(rows);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}
