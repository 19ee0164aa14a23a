//! Shared by the parity suites: an in-memory source that hands its rows on
//! in a chosen batch layout, so every operator can be fed `Rows`, `Cols`,
//! and a stream that changes layout from one batch to the next.

use pyro::common::{Result, Schema, Tuple};
use pyro::exec::{Batch, Operator, ValuesOp};

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
