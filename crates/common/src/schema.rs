//! Relation schemas.
//!
//! Columns carry *qualified* names (`"lineitem.l_suppkey"` or plain
//! `"l_suppkey"`). The optimizer reasons about sort orders as sequences of
//! these names, so [`Schema::index_of`] accepts both the exact name and an
//! unambiguous suffix match — mirroring how SQL resolves `partkey` against
//! `ps_partkey` vs `l_partkey` only when unambiguous.
//!
//! Names and schemas are shared, not copied: cloning a schema copies one
//! pointer, and deriving one from another (a join's concatenation, a
//! projection) copies pointers to the same names.

use crate::error::{PyroError, Result};
use std::fmt;
use std::sync::Arc;

/// Scalar column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A named, typed column of a relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Qualified column name; unique within a [`Schema`]. Shared by every
    /// schema derived from the one that named it.
    pub name: Arc<str>,
    /// Column type.
    pub ty: DataType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<Arc<str>>, ty: DataType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns describing one relation or operator output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Builds a schema from columns; names must be unique.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema::shared(columns.into())
    }

    fn shared(columns: Arc<[Column]>) -> Self {
        debug_assert!(
            {
                let mut names: Vec<&str> = columns.iter().map(|c| &*c.name).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate column names in schema"
        );
        Schema { columns }
    }

    /// Shorthand: builds a schema of all-`Int` columns (used by many tests).
    pub fn ints(names: &[&str]) -> Self {
        Schema::new(
            names
                .iter()
                .map(|n| Column::new(*n, DataType::Int))
                .collect(),
        )
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolves a column name to its position.
    ///
    /// Exact qualified match wins; otherwise an unambiguous suffix match on
    /// the part after the last `.` is accepted (`"make"` resolves
    /// `"catalog1.make"` when no other column ends in `.make`).
    pub fn index_of(&self, name: &str) -> Result<usize> {
        match self.find(name) {
            (Some(i), None) => Ok(i),
            (None, _) => Err(PyroError::UnknownColumn(name.to_string())),
            (Some(_), Some(_)) => Err(PyroError::AmbiguousColumn(name.to_string())),
        }
    }

    /// The exact match of `name`, else its first two suffix matches.
    fn find(&self, name: &str) -> (Option<usize>, Option<usize>) {
        if let Some(i) = self.columns.iter().position(|c| &*c.name == name) {
            return (Some(i), None);
        }
        let mut matches = (0..self.columns.len())
            .filter(|&i| self.columns[i].name.rsplit('.').next() == Some(name));
        (matches.next(), matches.next())
    }

    /// Resolves many names at once.
    pub fn indices_of(&self, names: &[impl AsRef<str>]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.index_of(n.as_ref())).collect()
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// True iff a column with this name (or unambiguous suffix) exists.
    pub fn contains(&self, name: &str) -> bool {
        matches!(self.find(name), (Some(_), None))
    }

    /// Concatenates two schemas (join output). Names must stay unique.
    pub fn join(&self, other: &Schema) -> Schema {
        self.columns
            .iter()
            .chain(other.columns.iter())
            .cloned()
            .collect()
    }

    /// Schema of a projection keeping `indices` in the given order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        indices.iter().map(|&i| self.columns[i].clone()).collect()
    }

    /// Prefixes every column name with `qualifier.` (used when scanning a
    /// table under an alias). Already-qualified names are re-qualified on the
    /// bare part.
    pub fn qualify(&self, qualifier: &str) -> Schema {
        let mut name = String::new();
        self.columns
            .iter()
            .map(|c| {
                let bare = c.name.rsplit('.').next().unwrap_or(&c.name);
                name.clear();
                name.extend([qualifier, ".", bare]);
                Column::new(name.as_str(), c.ty)
            })
            .collect()
    }

    /// All column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.to_string()).collect()
    }
}

/// Collects columns straight into a shared schema; names must be unique.
impl FromIterator<Column> for Schema {
    fn from_iter<I: IntoIterator<Item = Column>>(columns: I) -> Self {
        Schema::shared(columns.into_iter().collect())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("lineitem.l_suppkey", DataType::Int),
            Column::new("lineitem.l_partkey", DataType::Int),
            Column::new("lineitem.l_quantity", DataType::Double),
        ])
    }

    #[test]
    fn exact_lookup() {
        assert_eq!(sample().index_of("lineitem.l_partkey").unwrap(), 1);
    }

    #[test]
    fn suffix_lookup() {
        assert_eq!(sample().index_of("l_quantity").unwrap(), 2);
    }

    #[test]
    fn unknown_column_errors() {
        assert!(matches!(
            sample().index_of("nope"),
            Err(PyroError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_suffix_errors() {
        let s = Schema::new(vec![
            Column::new("a.k", DataType::Int),
            Column::new("b.k", DataType::Int),
        ]);
        assert!(matches!(
            s.index_of("k"),
            Err(PyroError::AmbiguousColumn(_))
        ));
        // exact qualified lookups still work
        assert_eq!(s.index_of("a.k").unwrap(), 0);
    }

    #[test]
    fn join_concatenates() {
        let l = Schema::ints(&["a", "b"]);
        let r = Schema::ints(&["c"]);
        let j = l.join(&r);
        assert_eq!(j.len(), 3);
        assert_eq!(j.index_of("c").unwrap(), 2);
    }

    #[test]
    fn project_reorders() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), vec!["lineitem.l_quantity", "lineitem.l_suppkey"]);
    }

    #[test]
    fn qualify_rewrites_prefix() {
        let s = sample().qualify("t1");
        assert_eq!(s.index_of("t1.l_suppkey").unwrap(), 0);
    }

    #[test]
    fn indices_of_bulk() {
        let s = sample();
        assert_eq!(
            s.indices_of(&["l_partkey", "l_suppkey"]).unwrap(),
            vec![1, 0]
        );
    }
}
