//! The scalar value model.
//!
//! PYRO is a sort-order research engine, so the one non-negotiable property
//! of [`Value`] is a *total* order: external sorting, merge joins and
//! replacement selection all rely on `Ord`. `Null` sorts **last** (like
//! PostgreSQL's default for ascending order — and required so a merge full
//! outer join can emit NULL-padded rows at the end of the stream without
//! breaking its output-order guarantee), doubles are compared by
//! `total_cmp`, and comparisons between a number, a string and NULL fall
//! back to a fixed type rank so a heterogeneous heap can never panic.
//!
//! Numeric order and equality are written once, here: [`cmp_int_double`]
//! orders an INT against a DOUBLE exactly, and [`exact_int`] is the INT a
//! DOUBLE equals. `Value`'s `Ord`, `Eq` and `Hash`, the columnar
//! comparisons and the hash join's key words all derive from these two, so
//! every operator that sorts, merges, groups or hashes calls the same
//! values equal.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed scalar stored in a [`crate::Tuple`].
///
/// Equality is the order's: `a == b` exactly when `a.cmp(b)` is `Equal`,
/// and equal values hash alike, which is what lets hash tables group and
/// match values as the sort-based operators do. Two doubles are equal when
/// their bits are (so `-0.0 != 0.0` and a NaN equals itself); an INT equals
/// the DOUBLE holding exactly its value (`Int(2) == Double(2.0)`, but not
/// `Int(2^53 + 1) == Double(2^53)`); strings and NULL equal only their own
/// kind. A test that must tell `Int(2)` from `Double(2.0)` compares
/// variants.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts after every non-null value (NULLS LAST).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float, totally ordered via `f64::total_cmp`.
    Double(f64),
    /// Variable-length UTF-8 string.
    Str(String),
}

impl Value {
    /// Type rank used to order values of different types
    /// (Int/Double < Str < Null).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) | Value::Double(_) => 0,
            Value::Str(_) => 1,
            Value::Null => 2,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, widening integers, if numeric.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The [`crate::DataType`] this value inhabits, or `None` for SQL NULL
    /// (which inhabits every type).
    pub fn data_type(&self) -> Option<crate::DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(crate::DataType::Int),
            Value::Double(_) => Some(crate::DataType::Double),
            Value::Str(_) => Some(crate::DataType::Str),
        }
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// In-memory footprint estimate in bytes, used for sort-memory budgeting.
    ///
    /// The numbers are deliberately simple (tag + payload) — the paper's cost
    /// model works in average tuple sizes, not exact allocator bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Double(_) => 9,
            Value::Str(s) => 1 + 4 + s.len(),
        }
    }

    /// Arithmetic addition with SQL NULL propagation; numeric types widen to
    /// `Double` when mixed.
    pub fn add(&self, other: &Value) -> Value {
        Value::numeric_binop(self, other, |a, b| a + b, |a, b| a.wrapping_add(b))
    }

    /// Arithmetic subtraction with NULL propagation.
    pub fn sub(&self, other: &Value) -> Value {
        Value::numeric_binop(self, other, |a, b| a - b, |a, b| a.wrapping_sub(b))
    }

    /// Arithmetic multiplication with NULL propagation.
    pub fn mul(&self, other: &Value) -> Value {
        Value::numeric_binop(self, other, |a, b| a * b, |a, b| a.wrapping_mul(b))
    }

    fn numeric_binop(
        a: &Value,
        b: &Value,
        f_f: impl Fn(f64, f64) -> f64,
        f_i: impl Fn(i64, i64) -> i64,
    ) -> Value {
        match (a, b) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(x), Value::Int(y)) => Value::Int(f_i(*x, *y)),
            _ => match (a.as_double(), b.as_double()) {
                (Some(x), Some(y)) => Value::Double(f_f(x, y)),
                _ => Value::Null,
            },
        }
    }
}

/// 2^63: the first DOUBLE above every INT.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// Orders an INT against a DOUBLE exactly, with no rounding of either: the
/// order `Value` gives `Int(i)` and `Double(d)`. A −0.0 sits just below
/// INT 0 (and above every negative DOUBLE), as `f64::total_cmp` puts it
/// below 0.0; the infinities lie beyond every INT, and a NaN beyond the
/// infinity of its sign, as `total_cmp` puts them.
#[inline]
pub fn cmp_int_double(i: i64, d: f64) -> Ordering {
    if !(-TWO_63..TWO_63).contains(&d) {
        // NaN, ±∞ and every DOUBLE past the INT range: its sign decides.
        return match d.is_sign_negative() {
            true => Ordering::Greater,
            false => Ordering::Less,
        };
    }
    // `d` truncated is an integral DOUBLE inside the INT range, so the cast
    // is exact; on a tie the DOUBLE's fraction (or the sign of −0.0)
    // decides, against the tie's own image, which has no fraction.
    let whole = d.trunc() as i64;
    let image = whole as f64;
    i.cmp(&whole).then_with(|| image.total_cmp(&d))
}

/// The INT a DOUBLE equals, if one does: `Some(i)` exactly when
/// [`cmp_int_double`]`(i, d)` is `Equal`. Never for a fraction, −0.0, NaN,
/// an infinity, or a DOUBLE at or past ±2^63.
#[inline]
pub fn exact_int(d: f64) -> Option<i64> {
    let i = d as i64;
    cmp_int_double(i, d).is_eq().then_some(i)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(i), Value::Double(d)) | (Value::Double(d), Value::Int(i)) => {
                cmp_int_double(*i, *d).is_eq()
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Double(b)) => cmp_int_double(*a, *b),
            (Double(a), Int(b)) => cmp_int_double(*b, *a).reverse(),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            // A DOUBLE equal to an INT hashes as that INT; any other by its
            // bits, as `==` compares doubles.
            Value::Double(v) => match exact_int(*v) {
                Some(i) => Value::Int(i).hash(state),
                None => {
                    2u8.hash(state);
                    v.to_bits().hash(state);
                }
            },
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_last() {
        assert!(Value::Null > Value::Int(i64::MAX));
        assert!(Value::Null > Value::Str("zzz".into()));
        assert!(Value::Null > Value::Double(f64::INFINITY));
        assert_eq!(Value::Null.cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(5).cmp(&Value::Int(5)), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int(1) < Value::Double(1.5));
        assert!(Value::Double(0.5) < Value::Int(1));
        const BIG: i64 = 1 << 53;
        let big = Value::Double(BIG as f64);
        assert_eq!(Value::Int(BIG), big);
        assert!(Value::Int(BIG + 1) > big && Value::Int(BIG + 1) != big);
        assert!(Value::Int(i64::MAX) < Value::Double(9_223_372_036_854_775_808.0));
        assert_eq!(exact_int(9_223_372_036_854_775_808.0), None);
        assert_eq!(exact_int(-9_223_372_036_854_775_808.0), Some(i64::MIN));
        assert_eq!(exact_int(-0.0), None);
        assert!(Value::Int(-1) < Value::Double(-0.0) && Value::Double(-0.0) < Value::Int(0));
        assert_eq!(exact_int(f64::NAN), None);
        assert!(Value::Double(-f64::NAN) < Value::Int(i64::MIN));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::Str("abc".into()) < Value::Str("abd".into()));
    }

    #[test]
    fn numbers_sort_before_strings() {
        assert!(Value::Int(999) < Value::Str("0".into()));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Double(f64::INFINITY) < nan);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(Value::Int(2).mul(&Value::Int(3)), Value::Int(6));
        assert_eq!(Value::Int(2).add(&Value::Double(0.5)), Value::Double(2.5));
        assert_eq!(Value::Null.mul(&Value::Int(3)), Value::Null);
        assert_eq!(Value::Int(7).sub(&Value::Int(2)), Value::Int(5));
    }

    #[test]
    fn byte_size_accounts_for_strings() {
        assert_eq!(Value::Str("abcd".into()).byte_size(), 1 + 4 + 4);
        assert_eq!(Value::Int(0).byte_size(), 9);
        assert_eq!(Value::Null.byte_size(), 1);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(Value::Int(3).as_double(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
    }
}
