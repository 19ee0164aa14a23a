//! Scalar expressions and predicates.
//!
//! Deliberately small: column references, literals, arithmetic (the paper's
//! Query 5 computes `Quantity * Price`), and comparisons with SQL NULL
//! semantics (any comparison involving NULL is not-true).

use pyro_common::{Result, Tuple, Value};
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

    /// Evaluates against a tuple.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
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
                match (truthiness(&va), truthiness(&vb)) {
                    (Some(false), _) | (_, Some(false)) => Value::Int(0),
                    (Some(true), Some(true)) => Value::Int(1),
                    _ => Value::Null,
                }
            }
        })
    }

    /// Evaluates as a predicate: true iff the result is a non-null non-zero.
    pub fn eval_bool(&self, t: &Tuple) -> Result<bool> {
        Ok(truthiness(&self.eval(t)?) == Some(true))
    }

    /// Batch predicate: keeps exactly the rows `eval_bool` accepts,
    /// compacting `batch` in place. Compilable predicates (see
    /// [`Expr::compile_predicate`]) run as a closure with no per-row tree
    /// walk; anything else falls back to row-wise `eval_bool`.
    pub fn retain_passing(&self, batch: &mut Vec<Tuple>) -> Result<()> {
        if let Some(pred) = self.compile_predicate() {
            batch.retain(|t| pred(t));
            return Ok(());
        }
        let mut keep = Vec::with_capacity(batch.len());
        for t in batch.iter() {
            keep.push(self.eval_bool(t)?);
        }
        let mut flags = keep.into_iter();
        batch.retain(|_| flags.next().expect("one flag per row"));
        Ok(())
    }

    /// Pre-compiles comparisons and conjunctions over columns and literals
    /// — the shape every pushed-down filter in this engine has — into a
    /// closure that borrows operand values instead of cloning them and
    /// cannot error. NULL semantics match `eval_bool` exactly: a comparison
    /// with a NULL operand is not-true, and `false AND NULL` is false.
    /// Returns `None` for predicates needing the full interpreter.
    pub fn compile_predicate(&self) -> Option<CompiledPredicate> {
        Some(match self {
            Expr::Cmp(op, a, b) => {
                let op = *op;
                match (&**a, &**b) {
                    (Expr::Col(i), Expr::Lit(v)) => {
                        if v.is_null() {
                            return Some(Box::new(|_| false));
                        }
                        let (i, v) = (*i, v.clone());
                        Box::new(move |t: &Tuple| {
                            let x = t.get(i);
                            !x.is_null() && op.test(x.cmp(&v))
                        })
                    }
                    (Expr::Lit(v), Expr::Col(i)) => {
                        if v.is_null() {
                            return Some(Box::new(|_| false));
                        }
                        let (i, v) = (*i, v.clone());
                        Box::new(move |t: &Tuple| {
                            let x = t.get(i);
                            !x.is_null() && op.test(v.cmp(x))
                        })
                    }
                    (Expr::Col(i), Expr::Col(j)) => {
                        let (i, j) = (*i, *j);
                        Box::new(move |t: &Tuple| {
                            let (x, y) = (t.get(i), t.get(j));
                            !x.is_null() && !y.is_null() && op.test(x.cmp(y))
                        })
                    }
                    (Expr::Lit(v), Expr::Lit(w)) => {
                        let k = !v.is_null() && !w.is_null() && op.test(v.cmp(w));
                        Box::new(move |_| k)
                    }
                    _ => return None,
                }
            }
            Expr::And(a, b) => {
                let (fa, fb) = (a.compile_predicate()?, b.compile_predicate()?);
                Box::new(move |t: &Tuple| fa(t) && fb(t))
            }
            Expr::Lit(v) => {
                let k = truthiness(v) == Some(true);
                Box::new(move |_| k)
            }
            _ => return None,
        })
    }
}

/// A predicate pre-compiled to a branch-lean closure; see
/// [`Expr::compile_predicate`].
pub type CompiledPredicate = Box<dyn Fn(&Tuple) -> bool>;

fn truthiness(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Double(d) => Some(*d != 0.0),
        Value::Str(s) => Some(!s.is_empty()),
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

    #[test]
    fn retain_passing_matches_eval_bool() {
        let rows: Vec<Tuple> = (-3..4)
            .map(|i| {
                Tuple::new(vec![
                    if i == 0 { Value::Null } else { Value::Int(i) },
                    Value::Int(i * i),
                ])
            })
            .collect();
        // Borrowable shape (Cmp/And over Col/Lit) and a fallback shape
        // (arithmetic inside the comparison) must both agree with the
        // row-wise interpreter.
        let preds = [
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(0i64)),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(1i64))),
                Box::new(Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::lit(2i64))),
            ),
            Expr::cmp(
                CmpOp::Lt,
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))),
                Expr::lit(5i64),
            ),
        ];
        for p in preds {
            let expect: Vec<Tuple> = rows
                .iter()
                .filter(|t| p.eval_bool(t).unwrap())
                .cloned()
                .collect();
            let mut batch = rows.clone();
            p.retain_passing(&mut batch).unwrap();
            assert_eq!(batch, expect, "predicate {p:?}");
        }
    }
}
