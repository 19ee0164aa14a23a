//! Vectorized expression kernels over [`ColumnarBatch`]es — the only
//! evaluators Filter, Project and the sort aggregate run.
//!
//! Two entry points, both total:
//!
//! * [`VecPredicate`] compiles a filter predicate into per-column loops
//!   that *refine a selection vector* — no row is materialized. Each
//!   conjunct of the shape every pushed-down filter has (a comparison over
//!   columns and literals) gets a typed loop that clones no `Value`; any
//!   other conjunct is evaluated by [`eval_column`] and keeps the rows where
//!   it is true. Semantics are bit-identical to `Expr::eval_bool`: a
//!   comparison with a NULL operand is not-true, and mixed-type comparisons
//!   follow [`Value`]'s total order (an INT against a DOUBLE exactly, by
//!   [`cmp_int_double`]; any numeric sorts before any string, NULLs last).
//! * [`eval_column`] evaluates any expression column-at-a-time, returning a
//!   shared column (`Expr::Col` is a refcount bump) or a freshly computed
//!   one, cell for cell what `Expr::eval` returns on the row.

use crate::expr::{truth, CmpOp, Expr};
use pyro_common::columnar::StrArena;
use pyro_common::value::cmp_int_double;
use pyro_common::{
    CellRef, ColumnBuilder, ColumnData, ColumnVec, ColumnarBatch, NullBitmap, Value,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// One conjunct of a compiled vectorized predicate.
enum Term {
    /// `col <op> lit` (`lit <op> col` is compiled to this with the
    /// mirrored operator).
    ColLit { col: usize, op: CmpOp, lit: Value },
    /// `col <op> col`.
    ColCol { a: usize, b: usize, op: CmpOp },
    /// A constant conjunct (`Lit` truthiness, NULL literals, lit-lit).
    Const(bool),
    /// Any other conjunct, kept where its [`eval_column`] cell is true.
    Eval(Expr),
}

/// A filter predicate compiled to selection-vector refinement loops.
pub struct VecPredicate {
    terms: Vec<Term>,
}

impl VecPredicate {
    /// Compiles `expr`, one term per conjunct.
    pub fn compile(expr: &Expr) -> VecPredicate {
        let mut terms = Vec::new();
        collect_terms(expr, &mut terms);
        VecPredicate { terms }
    }

    /// The selected rows of `batch` (ascending physical row indices) that
    /// every conjunct accepts. The first term reads the batch's rows
    /// directly; later terms compact its output in place.
    pub fn refine(&self, batch: &ColumnarBatch) -> Vec<u32> {
        let mut sel = Sel::Batch(batch);
        for term in &self.terms {
            if sel.is_empty() {
                break;
            }
            match term {
                Term::Const(true) => {}
                Term::Const(false) => return Vec::new(),
                Term::ColLit { col, op, lit } => {
                    refine_col_lit(batch.column(*col), *op, lit, &mut sel)
                }
                Term::ColCol { a, b, op } => {
                    refine_col_col(batch.column(*a), batch.column(*b), *op, &mut sel)
                }
                Term::Eval(expr) => {
                    let col = eval_column(expr, batch);
                    sel.keep(|i| truth(col.cell(i)) == Some(true));
                }
            }
        }
        match sel {
            Sel::Batch(batch) => batch.sel_vec(),
            Sel::Kept(rows) => rows,
        }
    }
}

/// The rows still in play while a predicate's terms run: the batch's own
/// selection until a term has kept some of them, that term's output after.
enum Sel<'a> {
    Batch(&'a ColumnarBatch),
    Kept(Vec<u32>),
}

impl Sel<'_> {
    fn is_empty(&self) -> bool {
        match self {
            Sel::Batch(batch) => batch.is_empty(),
            Sel::Kept(rows) => rows.is_empty(),
        }
    }

    /// Keeps the rows `pass` accepts, in order. Every row is tested and
    /// written, and the write position advances only past a passing one,
    /// so the loop does not branch on the outcome.
    #[inline]
    fn keep(&mut self, pass: impl Fn(usize) -> bool) {
        match self {
            Sel::Kept(rows) => {
                let mut n = 0;
                for j in 0..rows.len() {
                    let i = rows[j];
                    rows[n] = i;
                    n += pass(i as usize) as usize;
                }
                rows.truncate(n);
            }
            Sel::Batch(batch) => {
                let mut rows = vec![0u32; batch.len()];
                let mut n = 0;
                let mut put = |i: u32| {
                    rows[n] = i;
                    n += pass(i as usize) as usize;
                };
                match batch.sel() {
                    Some(sel) => sel.iter().for_each(|&i| put(i)),
                    None => (0..batch.num_rows() as u32).for_each(put),
                }
                rows.truncate(n);
                *self = Sel::Kept(rows);
            }
        }
    }
}

fn collect_terms(expr: &Expr, out: &mut Vec<Term>) {
    let term = match expr {
        Expr::And(a, b) => {
            collect_terms(a, out);
            return collect_terms(b, out);
        }
        Expr::Cmp(op, a, b) => match (&**a, &**b) {
            (Expr::Col(_), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(_)) if v.is_null() => {
                Term::Const(false)
            }
            (Expr::Col(i), Expr::Lit(v)) => Term::ColLit {
                col: *i,
                op: *op,
                lit: v.clone(),
            },
            (Expr::Lit(v), Expr::Col(i)) => Term::ColLit {
                col: *i,
                op: mirrored(*op),
                lit: v.clone(),
            },
            (Expr::Col(i), Expr::Col(j)) => Term::ColCol {
                a: *i,
                b: *j,
                op: *op,
            },
            (Expr::Lit(v), Expr::Lit(w)) => {
                Term::Const(!v.is_null() && !w.is_null() && op.test(v.cmp(w)))
            }
            _ => Term::Eval(expr.clone()),
        },
        Expr::Lit(v) => Term::Const(truth(CellRef::from_value(v)) == Some(true)),
        _ => Term::Eval(expr.clone()),
    };
    out.push(term);
}

/// The operator that tests `b <op> a` as `a <op> b` tests it.
fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Keeps the rows where `present` holds and the row's ordering against
/// the other operand, `cmp(row)`, satisfies `op`. One loop per operator:
/// no row matches on it.
#[inline]
fn keep_op(
    sel: &mut Sel<'_>,
    op: CmpOp,
    present: impl Fn(usize) -> bool,
    cmp: impl Fn(usize) -> Ordering,
) {
    match op {
        CmpOp::Eq => sel.keep(|i| present(i) & cmp(i).is_eq()),
        CmpOp::Ne => sel.keep(|i| present(i) & cmp(i).is_ne()),
        CmpOp::Lt => sel.keep(|i| present(i) & cmp(i).is_lt()),
        CmpOp::Le => sel.keep(|i| present(i) & cmp(i).is_le()),
        CmpOp::Gt => sel.keep(|i| present(i) & cmp(i).is_gt()),
        CmpOp::Ge => sel.keep(|i| present(i) & cmp(i).is_ge()),
    }
}

/// [`keep_op`] for a comparison over typed columns, whose NULL cells hold
/// a placeholder and never pass: the null bits are tested per row only
/// when one of `nulls` has a NULL.
#[inline]
fn keep_cmp(sel: &mut Sel<'_>, op: CmpOp, nulls: &[&NullBitmap], cmp: impl Fn(usize) -> Ordering) {
    if nulls.iter().any(|n| n.any()) {
        keep_op(sel, op, |i| nulls.iter().all(|n| !n.get(i)), cmp);
    } else {
        keep_op(sel, op, |_| true, cmp);
    }
}

/// Keeps the rows where `col <op> lit` holds (NULL cells never pass): one
/// dispatch on the cell type, the literal type, the operator and whether
/// the column has NULLs, then one tight loop.
fn refine_col_lit(col: &ColumnVec, op: CmpOp, lit: &Value, sel: &mut Sel<'_>) {
    let nulls = [col.nulls()];
    match (col.data(), lit) {
        (ColumnData::Int(v), &Value::Int(k)) => keep_cmp(sel, op, &nulls, |i| v[i].cmp(&k)),
        (ColumnData::Int(v), &Value::Double(d)) => {
            keep_cmp(sel, op, &nulls, |i| cmp_int_double(v[i], d))
        }
        (ColumnData::Double(v), &Value::Int(k)) => {
            keep_cmp(sel, op, &nulls, |i| cmp_int_double(k, v[i]).reverse())
        }
        (ColumnData::Double(v), &Value::Double(d)) => {
            keep_cmp(sel, op, &nulls, |i| v[i].total_cmp(&d))
        }
        (ColumnData::Str(a), Value::Str(s)) => {
            let s = s.as_bytes();
            keep_cmp(sel, op, &nulls, |i| a.bytes_at(i).cmp(s))
        }
        // Cross-type rank comparisons are constant per `Value`'s total
        // order: any numeric < any string.
        (ColumnData::Int(_) | ColumnData::Double(_), Value::Str(_)) => {
            keep_cmp(sel, op, &nulls, |_| Ordering::Less)
        }
        (ColumnData::Str(_), Value::Int(_) | Value::Double(_)) => {
            keep_cmp(sel, op, &nulls, |_| Ordering::Greater)
        }
        (ColumnData::Mixed(vals), lit) => {
            keep_op(sel, op, |i| !vals[i].is_null(), |i| vals[i].cmp(lit))
        }
        // A NULL literal was already folded to `Const(false)`.
        (_, Value::Null) => sel.keep(|_| false),
    }
}

/// Keeps the rows where `a <op> b` holds (a NULL on either side never
/// passes), dispatching once as [`refine_col_lit`] does.
fn refine_col_col(a: &ColumnVec, b: &ColumnVec, op: CmpOp, sel: &mut Sel<'_>) {
    let nulls = [a.nulls(), b.nulls()];
    match (a.data(), b.data()) {
        (ColumnData::Int(x), ColumnData::Int(y)) => keep_cmp(sel, op, &nulls, |i| x[i].cmp(&y[i])),
        (ColumnData::Double(x), ColumnData::Double(y)) => {
            keep_cmp(sel, op, &nulls, |i| x[i].total_cmp(&y[i]))
        }
        (ColumnData::Int(x), ColumnData::Double(y)) => {
            keep_cmp(sel, op, &nulls, |i| cmp_int_double(x[i], y[i]))
        }
        (ColumnData::Double(x), ColumnData::Int(y)) => {
            keep_cmp(sel, op, &nulls, |i| cmp_int_double(y[i], x[i]).reverse())
        }
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            keep_cmp(sel, op, &nulls, |i| x.bytes_at(i).cmp(y.bytes_at(i)))
        }
        _ => keep_cmp(sel, op, &nulls, |i| a.cell(i).order(b.cell(i))),
    }
}

/// Evaluates an expression over a batch, column-at-a-time, over every
/// *physical* row (values at unselected indices are real decoded cells, so
/// computing them is safe and keeps the loops branch-free).
///
/// `Col` shares the input column; `Lit` materializes a constant column;
/// `Add`/`Sub`/`Mul` have the semantics of [`Value::add`] and friends: NULL
/// propagates, `Int × Int` wraps, mixed numerics widen to `Double`, strings
/// yield NULL. `Cmp` and `And` yield the INT 1/0/NULL column `Expr::eval`
/// defines, comparing cells by [`CellRef::order`].
pub fn eval_column(expr: &Expr, batch: &ColumnarBatch) -> Arc<ColumnVec> {
    let n = batch.num_rows();
    match expr {
        Expr::Col(i) => Arc::clone(batch.column(*i)),
        Expr::Lit(v) => Arc::new(const_column(v, n)),
        Expr::Add(a, b) => numeric_kernel(a, b, batch, |x, y| x + y, i64::wrapping_add),
        Expr::Sub(a, b) => numeric_kernel(a, b, batch, |x, y| x - y, i64::wrapping_sub),
        Expr::Mul(a, b) => numeric_kernel(a, b, batch, |x, y| x * y, i64::wrapping_mul),
        Expr::Cmp(op, a, b) => {
            let (a, b) = (eval_column(a, batch), eval_column(b, batch));
            int_column(n, |i| match (a.cell(i), b.cell(i)) {
                (CellRef::Null, _) | (_, CellRef::Null) => None,
                (x, y) => Some(op.test(x.order(y)) as i64),
            })
        }
        Expr::And(a, b) => {
            let (a, b) = (eval_column(a, batch), eval_column(b, batch));
            int_column(n, |i| match (truth(a.cell(i)), truth(b.cell(i))) {
                (Some(false), _) | (_, Some(false)) => Some(0),
                (Some(true), Some(true)) => Some(1),
                _ => None,
            })
        }
    }
}

/// An INT column of `n` cells, `cell(i)` at row `i` (`None` is NULL).
fn int_column(n: usize, cell: impl Fn(usize) -> Option<i64>) -> Arc<ColumnVec> {
    let mut nulls = NullBitmap::new();
    let data = (0..n)
        .map(|i| {
            let c = cell(i);
            nulls.push(c.is_none());
            c.unwrap_or(0)
        })
        .collect();
    Arc::new(ColumnVec::new(ColumnData::Int(data), nulls))
}

/// A column holding `v` at every row.
fn const_column(v: &Value, n: usize) -> ColumnVec {
    let data = match v {
        Value::Null => {
            return ColumnVec::new(ColumnData::Int(vec![0; n]), NullBitmap::all_null(n));
        }
        Value::Int(k) => ColumnData::Int(vec![*k; n]),
        Value::Double(d) => ColumnData::Double(vec![*d; n]),
        Value::Str(s) => {
            let mut a = StrArena::new();
            (0..n).for_each(|_| a.push(s));
            ColumnData::Str(a)
        }
    };
    let mut nulls = NullBitmap::new();
    nulls.extend(n, false);
    ColumnVec::new(data, nulls)
}

/// `a <op> b` over two evaluated columns with `numeric_binop` semantics.
fn numeric_kernel(
    a: &Expr,
    b: &Expr,
    batch: &ColumnarBatch,
    f_f: impl Fn(f64, f64) -> f64,
    f_i: impl Fn(i64, i64) -> i64,
) -> Arc<ColumnVec> {
    let a = eval_column(a, batch);
    let b = eval_column(b, batch);
    let n = batch.num_rows();
    let (an, bn) = (a.nulls(), b.nulls());
    let col = match (a.data(), b.data()) {
        (ColumnData::Int(x), ColumnData::Int(y)) => {
            let mut nulls = NullBitmap::new();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                nulls.push(an.get(i) || bn.get(i));
                out.push(f_i(x[i], y[i]));
            }
            ColumnVec::new(ColumnData::Int(out), nulls)
        }
        (
            ColumnData::Int(_) | ColumnData::Double(_),
            ColumnData::Int(_) | ColumnData::Double(_),
        ) => {
            let (x, y) = (as_f64_view(a.data()), as_f64_view(b.data()));
            let mut nulls = NullBitmap::new();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                nulls.push(an.get(i) || bn.get(i));
                out.push(f_f(x.get(i), y.get(i)));
            }
            ColumnVec::new(ColumnData::Double(out), nulls)
        }
        // Strings or mixed columns: defer to `Value` arithmetic cell-wise,
        // so the result (including Str -> NULL) matches `Expr::eval` bit
        // for bit.
        _ => {
            let mut builder = ColumnBuilder::new();
            for i in 0..n {
                let (va, vb) = (a.value_at(i), b.value_at(i));
                builder.push_value(&apply_value(&va, &vb, &f_f, &f_i));
            }
            builder.finish()
        }
    };
    Arc::new(col)
}

/// Borrow-cheap f64 view over an Int or Double column (kernel-internal).
enum F64View<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
}

impl F64View<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            F64View::Int(v) => v[i] as f64,
            F64View::Double(v) => v[i],
        }
    }
}

fn as_f64_view(data: &ColumnData) -> F64View<'_> {
    match data {
        ColumnData::Int(v) => F64View::Int(v),
        ColumnData::Double(v) => F64View::Double(v),
        _ => unreachable!("numeric view over non-numeric column"),
    }
}

fn apply_value(
    a: &Value,
    b: &Value,
    f_f: &impl Fn(f64, f64) -> f64,
    f_i: &impl Fn(i64, i64) -> i64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_common::Tuple;

    /// Rows mixing every type in column 0, Ints in column 1, a second Int
    /// column with NULL holes in column 2.
    fn test_batch() -> (Vec<Tuple>, ColumnarBatch) {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| {
                let c0 = match i % 5 {
                    0 => Value::Int(i),
                    1 => Value::Double(i as f64 / 2.0),
                    2 => Value::Str(format!("s{i}")),
                    3 => Value::Null,
                    _ => Value::Int(-i),
                };
                let c2 = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 11)
                };
                rows_row(c0, i, c2)
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        (rows, batch)
    }

    fn rows_row(c0: Value, i: i64, c2: Value) -> Tuple {
        Tuple::new(vec![c0, Value::Int(i), c2])
    }

    /// `refine` keeps exactly the selected rows of `batch` — the physical
    /// rows of `rows` — that `eval_bool` accepts.
    fn check_parity(expr: &Expr, rows: &[Tuple], batch: &ColumnarBatch) {
        let pred = VecPredicate::compile(expr);
        let expect: Vec<u32> = batch
            .sel_vec()
            .into_iter()
            .filter(|&i| expr.eval_bool(&rows[i as usize]).unwrap())
            .collect();
        assert_eq!(
            pred.refine(batch),
            expect,
            "selection diverged for {expr:?}"
        );
    }

    #[test]
    fn predicate_matches_row_interpreter() {
        let (rows, batch) = test_batch();
        let exprs = [
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(10i64)),
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(7i64)),
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(Value::Double(3.0))),
            Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::lit(Value::Str("s2".into()))),
            Expr::cmp(CmpOp::Gt, Expr::lit(20i64), Expr::col(1)),
            Expr::cmp(CmpOp::Le, Expr::col(2), Expr::col(1)),
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Lit(Value::Null)),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(5i64))),
                Box::new(Expr::cmp(CmpOp::Ne, Expr::col(2), Expr::lit(3i64))),
            ),
            Expr::Lit(Value::Int(1)),
            Expr::Lit(Value::Int(0)),
            Expr::cmp(CmpOp::Lt, Expr::lit(1i64), Expr::lit(2i64)),
        ];
        for e in &exprs {
            check_parity(e, &rows, &batch);
        }
    }

    /// Every (column type, literal type, operator, operand order), with
    /// and without NULLs in the column, every column pair, and
    /// conjunctions, on a batch with and without a selection vector.
    #[test]
    fn refine_matches_eval_bool_for_every_type_op_and_order() {
        let rows: Vec<Tuple> = (0..90i64)
            .map(|i| {
                let null_or = |v: Value| if i % 7 == 3 { Value::Null } else { v };
                let d = match i % 6 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f64::NAN,
                    _ => i as f64 / 4.0,
                };
                let s = Value::Str(format!("s{}", i % 13));
                let mixed = match i % 4 {
                    0 => Value::Int(i % 10),
                    1 => Value::Double(d),
                    2 => s.clone(),
                    _ => Value::Null,
                };
                let int = Value::Int(i % 10);
                Tuple::new(vec![
                    int.clone(),
                    null_or(int),
                    Value::Double(d),
                    null_or(Value::Double(d)),
                    s.clone(),
                    null_or(s),
                    mixed,
                ])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let reps: Vec<(&str, bool)> = batch
            .columns()
            .iter()
            .map(|c| {
                let rep = match c.data() {
                    ColumnData::Int(_) => "int",
                    ColumnData::Double(_) => "double",
                    ColumnData::Str(_) => "str",
                    ColumnData::Mixed(_) => "mixed",
                };
                (rep, c.nulls().any())
            })
            .collect();
        assert_eq!(
            reps,
            [
                ("int", false),
                ("int", true),
                ("double", false),
                ("double", true),
                ("str", false),
                ("str", true),
                ("mixed", true)
            ]
        );
        let lits = [
            Value::Int(3),
            Value::Int(-1),
            Value::Double(2.5),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Str("s3".into()),
            Value::Str(String::new()),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut exprs = Vec::new();
        for op in ops {
            for c in 0..7 {
                for lit in &lits {
                    exprs.push(Expr::cmp(op, Expr::col(c), Expr::lit(lit.clone())));
                    exprs.push(Expr::cmp(op, Expr::lit(lit.clone()), Expr::col(c)));
                }
                for d in 0..7 {
                    exprs.push(Expr::cmp(op, Expr::col(c), Expr::col(d)));
                }
            }
        }
        exprs.push(Expr::and_all(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(2i64)),
            Expr::cmp(CmpOp::Ne, Expr::lit(Value::Str("s4".into())), Expr::col(5)),
            Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::col(0)),
        ]));
        exprs.push(Expr::and_all(vec![
            Expr::Lit(Value::Int(1)),
            Expr::cmp(CmpOp::Le, Expr::col(6), Expr::lit(Value::Double(5.0))),
        ]));
        let mut selected = batch.clone();
        selected.set_sel((0..90).filter(|i| i % 3 != 1).collect());
        for e in &exprs {
            check_parity(e, &rows, &batch);
            check_parity(e, &rows, &selected);
        }
    }

    /// Conjuncts outside the column/literal comparison shapes are
    /// evaluated whole by `eval_column`, alone or beside typed terms.
    #[test]
    fn any_other_conjunct_is_evaluated_whole() {
        let (rows, batch) = test_batch();
        let mut selected = batch.clone();
        selected.set_sel((0..40).filter(|i| i % 3 != 1).collect());
        let sum = Expr::Add(Box::new(Expr::col(1)), Box::new(Expr::col(2)));
        let exprs = [
            Expr::cmp(CmpOp::Lt, sum.clone(), Expr::lit(15i64)),
            Expr::cmp(CmpOp::Ge, Expr::lit(Value::Double(9.5)), sum.clone()),
            Expr::col(2),
            Expr::col(0),
            sum.clone(),
            Expr::cmp(
                CmpOp::Eq,
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(1)),
                Expr::lit(0i64),
            ),
            Expr::and_all(vec![
                Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(4i64)),
                Expr::cmp(
                    CmpOp::Ne,
                    Expr::mul(Expr::col(0), Expr::col(2)),
                    Expr::lit(0i64),
                ),
                Expr::col(2),
            ]),
        ];
        for e in &exprs {
            check_parity(e, &rows, &batch);
            check_parity(e, &rows, &selected);
        }
    }

    #[test]
    fn eval_column_matches_row_eval() {
        let (rows, batch) = test_batch();
        let exprs = [
            Expr::col(1),
            Expr::lit(5i64),
            Expr::Lit(Value::Null),
            Expr::Lit(Value::Str("k".into())),
            Expr::Add(Box::new(Expr::col(1)), Box::new(Expr::col(2))),
            Expr::Sub(Box::new(Expr::col(1)), Box::new(Expr::lit(3i64))),
            Expr::mul(Expr::col(0), Expr::col(1)),
            Expr::mul(Expr::col(1), Expr::lit(Value::Double(0.5))),
            Expr::cmp(CmpOp::Le, Expr::col(0), Expr::col(2)),
            Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::Lit(Value::Str("s7".into()))),
            Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::Lit(Value::Null)),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::col(2))),
                Box::new(Expr::col(0)),
            ),
            Expr::And(Box::new(Expr::col(2)), Box::new(Expr::lit(0i64))),
        ];
        for e in &exprs {
            let col = eval_column(e, &batch);
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(
                    crate::op::exact(&col.value_at(i)),
                    crate::op::exact(&e.eval(t).unwrap()),
                    "row {i} of {e:?}"
                );
            }
        }
    }
}
