//! Equality-prefix extraction for page-bounded ("seek") scans.
//!
//! A filter directly above a scan of a sorted file can be compiled over a
//! binary-searched page range when its predicate pins, by equality against
//! constants, a prefix of the file's sort order
//! ([`pyro_exec::scan::eq_key_page_range`]). The filter always stays in the
//! plan as the residual, so extraction here only has to be *sound* — never
//! claim an equality that isn't one — not complete: a missed conjunct
//! merely scans more pages.
//!
//! The optimizer uses [`pinned_columns`] and [`eq_prefix_len`] to discount
//! access paths the predicate can seek on (parameter values are unknown at
//! planning time but are known to be *some* constant); the compiler uses
//! [`eq_prefix_values`] with the bound parameters to compute the actual
//! search key.

use crate::logical::NExpr;
use pyro_common::Value;
use pyro_exec::CmpOp;
use pyro_ordering::SortOrder;

/// Collects `col = constant` conjuncts from a top-level AND tree.
fn eq_conjuncts<'a>(pred: &'a NExpr, out: &mut Vec<(&'a str, &'a NExpr)>) {
    match pred {
        NExpr::And(terms) => {
            for t in terms {
                eq_conjuncts(t, out);
            }
        }
        NExpr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (NExpr::Col(c), v @ (NExpr::Lit(_) | NExpr::Param(_)))
            | (v @ (NExpr::Lit(_) | NExpr::Param(_)), NExpr::Col(c)) => out.push((c, v)),
            _ => {}
        },
        _ => {}
    }
}

/// The columns the predicate pins by equality to a literal or parameter.
pub(crate) fn pinned_columns(pred: &NExpr) -> Vec<&str> {
    let mut eqs = Vec::new();
    eq_conjuncts(pred, &mut eqs);
    eqs.into_iter().map(|(c, _)| c).collect()
}

/// Number of leading attributes of `order` among the `pinned` columns.
pub(crate) fn eq_prefix_len<A: PartialEq>(pinned: &[A], order: &[A]) -> usize {
    order.iter().take_while(|a| pinned.contains(a)).count()
}

/// The pinned constants for the longest equality prefix of `order`, with
/// parameters resolved against `params`. A NULL "equality" ends the prefix:
/// `col = NULL` matches nothing under SQL semantics while NULL *sorts* like
/// a value, so seeking on it would follow the wrong semantics. An unbound
/// parameter ends it too — compilation will reject the plan anyway, with a
/// better error than anything this function could produce.
pub(crate) fn eq_prefix_values(pred: &NExpr, order: &SortOrder, params: &[Value]) -> Vec<Value> {
    let mut eqs = Vec::new();
    eq_conjuncts(pred, &mut eqs);
    let mut key = Vec::new();
    for a in order.attrs() {
        let v = match eqs.iter().find(|(c, _)| *c == a.as_str()) {
            Some((_, NExpr::Lit(v))) => v.clone(),
            Some((_, NExpr::Param(i))) => match params.get(*i) {
                Some(v) => v.clone(),
                None => break,
            },
            _ => break,
        };
        if v.is_null() {
            break;
        }
        key.push(v);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> SortOrder {
        SortOrder::new(["t.a", "t.b", "t.c"])
    }

    fn eq_prefix(pred: &NExpr) -> usize {
        let pinned: Vec<String> = pinned_columns(pred).into_iter().map(String::from).collect();
        eq_prefix_len(&pinned, order().attrs())
    }

    #[test]
    fn literal_prefix_both_operand_orders() {
        let p = NExpr::And(vec![
            NExpr::Cmp(
                CmpOp::Eq,
                Box::new(NExpr::Lit(Value::Int(2))),
                Box::new(NExpr::Col("t.b".into())),
            ),
            NExpr::col_eq_lit("t.a", 1i64),
        ]);
        assert_eq!(eq_prefix(&p), 2);
        assert_eq!(
            eq_prefix_values(&p, &order(), &[]),
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn gap_in_the_prefix_stops_it() {
        // a and c pinned, b free: only the 1-attr prefix seeks.
        let p = NExpr::And(vec![
            NExpr::col_eq_lit("t.a", 1i64),
            NExpr::col_eq_lit("t.c", 3i64),
        ]);
        assert_eq!(eq_prefix(&p), 1);
        assert_eq!(eq_prefix_values(&p, &order(), &[]), vec![Value::Int(1)]);
    }

    #[test]
    fn non_equality_and_col_col_terms_do_not_count() {
        let range = NExpr::Cmp(
            CmpOp::Le,
            Box::new(NExpr::Col("t.a".into())),
            Box::new(NExpr::Lit(Value::Int(5))),
        );
        assert_eq!(eq_prefix(&range), 0);
        let col_col = NExpr::Cmp(
            CmpOp::Eq,
            Box::new(NExpr::Col("t.a".into())),
            Box::new(NExpr::Col("t.b".into())),
        );
        assert_eq!(eq_prefix(&col_col), 0);
        assert!(eq_prefix_values(&col_col, &order(), &[]).is_empty());
    }

    #[test]
    fn params_count_at_plan_time_and_bind_at_compile_time() {
        let p = NExpr::And(vec![
            NExpr::col_eq_lit("t.a", 7i64),
            NExpr::Cmp(
                CmpOp::Eq,
                Box::new(NExpr::Col("t.b".into())),
                Box::new(NExpr::Param(0)),
            ),
        ]);
        assert_eq!(eq_prefix(&p), 2);
        assert_eq!(
            eq_prefix_values(&p, &order(), &[Value::Int(9)]),
            vec![Value::Int(7), Value::Int(9)]
        );
        // Unbound: the prefix stops before the parameter.
        assert_eq!(eq_prefix_values(&p, &order(), &[]), vec![Value::Int(7)]);
        // NULL binding: `b = NULL` matches nothing; never seek on it.
        assert_eq!(
            eq_prefix_values(&p, &order(), &[Value::Null]),
            vec![Value::Int(7)]
        );
    }
}
