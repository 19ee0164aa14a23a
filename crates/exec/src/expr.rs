//! Scalar expressions and predicates.
//!
//! Deliberately small: column references, literals, arithmetic (the paper's
//! Query 5 computes `Quantity * Price`), and comparisons with SQL NULL
//! semantics (any comparison involving NULL is not-true).

use pyro_common::{CellRef, Value};
#[cfg(test)]
use pyro_common::{Result, Tuple};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    pub(crate) fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column at position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// `a + b`
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`
    Mul(Box<Expr>, Box<Expr>),
    /// Comparison producing `Int(1)`, `Int(0)` or `Null`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND with SQL three-valued collapse to (1, 0, Null).
    And(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Column reference helper.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Multiplication helper.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic on Expr values
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// Conjunction of many terms (`true` literal when empty).
    pub fn and_all(terms: Vec<Expr>) -> Expr {
        terms
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .unwrap_or(Expr::Lit(Value::Int(1)))
    }

    /// Evaluates against a tuple, a row at a time: the reference the
    /// column kernels of [`crate::vector`] are tested against.
    #[cfg(test)]
    pub(crate) fn eval(&self, t: &Tuple) -> Result<Value> {
        Ok(match self {
            Expr::Col(i) => t.get(*i).clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Add(a, b) => a.eval(t)?.add(&b.eval(t)?),
            Expr::Sub(a, b) => a.eval(t)?.sub(&b.eval(t)?),
            Expr::Mul(a, b) => a.eval(t)?.mul(&b.eval(t)?),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(t)?, b.eval(t)?);
                if va.is_null() || vb.is_null() {
                    Value::Null
                } else {
                    Value::Int(op.test(va.cmp(&vb)) as i64)
                }
            }
            Expr::And(a, b) => {
                let va = a.eval(t)?;
                let vb = b.eval(t)?;
                match (
                    truth(CellRef::from_value(&va)),
                    truth(CellRef::from_value(&vb)),
                ) {
                    (Some(false), _) | (_, Some(false)) => Value::Int(0),
                    (Some(true), Some(true)) => Value::Int(1),
                    _ => Value::Null,
                }
            }
        })
    }

    /// Evaluates as a predicate: true iff the result is a non-null non-zero.
    #[cfg(test)]
    pub(crate) fn eval_bool(&self, t: &Tuple) -> Result<bool> {
        Ok(truth(CellRef::from_value(&self.eval(t)?)) == Some(true))
    }
}

/// A cell as a truth value: NULL is unknown, a number is true unless zero,
/// a string unless empty.
pub(crate) fn truth(c: CellRef<'_>) -> Option<bool> {
    match c {
        CellRef::Null => None,
        CellRef::Int(i) => Some(i != 0),
        CellRef::Double(d) => Some(d != 0.0),
        CellRef::Str(s) => Some(!s.is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::exact;

    fn row() -> Tuple {
        Tuple::new(vec![Value::Int(3), Value::Double(2.0), Value::Null])
    }

    #[test]
    fn arithmetic() {
        let e = Expr::mul(Expr::col(0), Expr::col(1));
        assert_eq!(exact(&e.eval(&row()).unwrap()), exact(&Value::Double(6.0)));
        let e = Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::lit(1i64)));
        assert_eq!(exact(&e.eval(&row()).unwrap()), exact(&Value::Int(4)));
        let e = Expr::Sub(Box::new(Expr::col(0)), Box::new(Expr::lit(1i64)));
        assert_eq!(exact(&e.eval(&row()).unwrap()), exact(&Value::Int(2)));
    }

    #[test]
    fn comparisons_with_null() {
        let e = Expr::cmp(CmpOp::Eq, Expr::col(2), Expr::lit(0i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_bool(&row()).unwrap());
        let e = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(2i64));
        assert!(e.eval_bool(&row()).unwrap());
        let e = Expr::cmp(CmpOp::Le, Expr::col(0), Expr::lit(2i64));
        assert!(!e.eval_bool(&row()).unwrap());
    }

    #[test]
    fn all_cmp_ops() {
        let t = row();
        let one = |op| {
            Expr::cmp(op, Expr::col(0), Expr::lit(3i64))
                .eval_bool(&t)
                .unwrap()
        };
        assert!(one(CmpOp::Eq));
        assert!(!one(CmpOp::Ne));
        assert!(one(CmpOp::Le));
        assert!(one(CmpOp::Ge));
        assert!(!one(CmpOp::Lt));
        assert!(!one(CmpOp::Gt));
    }

    #[test]
    fn and_semantics() {
        let t = row();
        let tru = Expr::lit(1i64);
        let fls = Expr::lit(0i64);
        let nul = Expr::Lit(Value::Null);
        assert_eq!(
            Expr::And(Box::new(tru.clone()), Box::new(fls.clone()))
                .eval(&t)
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            Expr::And(Box::new(fls), Box::new(nul.clone()))
                .eval(&t)
                .unwrap(),
            Value::Int(0),
            "false AND null = false"
        );
        assert_eq!(
            Expr::And(Box::new(tru), Box::new(nul)).eval(&t).unwrap(),
            Value::Null,
            "true AND null = null"
        );
    }

    #[test]
    fn and_all_empty_is_true() {
        assert!(Expr::and_all(vec![]).eval_bool(&row()).unwrap());
    }
}
