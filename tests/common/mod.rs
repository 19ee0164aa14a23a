//! Shared by the integration suites:
//! - [`exact`], the one way a test claims that two runs returned the same
//!   rows;
//! - an in-memory source that hands its rows on in a chosen batch layout,
//!   so every operator can be fed dense batches, batches whose rows sit
//!   between decoys behind a selection vector, and a stream that changes
//!   layout from one batch to the next;
//! - [`recover_dir`], which recovers a durable session's directory as the
//!   next open would.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use pyro::common::{ColumnarBatch, Result, Schema, Tuple, Value};
use pyro::exec::{Operator, ValuesOp};

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
    /// Every physical row of a batch is one of its rows.
    Dense,
    /// A decoy row in front of every row, hidden by the selection vector:
    /// an operator that reads past `sel` sees rows that are not there.
    Selected,
    /// `Dense`, `Selected`, `Dense`, ... batch by batch.
    Alternating,
}

pub const LAYOUTS: [Layout; 3] = [Layout::Dense, Layout::Selected, Layout::Alternating];

/// A row unlike `t` in every non-NULL cell, of the same cell types.
fn decoy(t: &Tuple) -> Tuple {
    let cell = |v: &Value| match v {
        Value::Int(i) => Value::Int(i.wrapping_add(1_000_003)),
        Value::Double(d) => Value::Double(d + 0.5),
        Value::Str(s) => Value::Str(format!("{s}~")),
        Value::Null => Value::Null,
    };
    Tuple::new(t.values().iter().map(cell).collect())
}

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

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let selected = match self.layout {
            Layout::Dense => false,
            Layout::Selected => true,
            Layout::Alternating => self.pulls % 2 == 1,
        };
        self.pulls += 1;
        let Some(batch) = self.rows.next_batch()? else {
            return Ok(None);
        };
        if !selected {
            return Ok(Some(batch));
        }
        let mut rows = Vec::new();
        for t in batch.to_rows() {
            rows.push(decoy(&t));
            rows.push(t);
        }
        let mut out = ColumnarBatch::from_rows(&rows);
        out.set_sel((1..rows.len() as u32).step_by(2).collect());
        Ok(Some(out))
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.rows.set_batch_size(rows);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

/// Recovers the WAL of the durable data directory `dir` into its data file,
/// as the next open would, and returns what replayed. The session that
/// wrote `dir` must be closed. A log with no live record replays nothing,
/// whatever the file's length: a checkpoint recycles it in place.
pub fn recover_dir(dir: &std::path::Path) -> pyro::storage::WalReplay {
    use pyro::storage::{FileDevice, Wal};
    let device = FileDevice::open(dir.join("data.pyro")).expect("open data file");
    let wal = Wal::open_or_create(dir.join("wal.pyro")).expect("open wal");
    wal.recover(&device).expect("recover")
}
