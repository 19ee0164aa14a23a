//! AST → logical plan lowering.
//!
//! Joins are built left-deep in `FROM` order (the paper's fixed-join-shape
//! setting); comma-joined tables take their equality pairs from `WHERE`,
//! explicit `FULL OUTER JOIN`s from their `ON` clauses. Single-table filters
//! are pushed below the joins. All column references are fully qualified
//! against the catalog so the optimizer's equivalence and favorable-order
//! machinery sees one consistent name space. Full qualification also
//! upholds the join-graph contract (`pyro_core::joingraph`): every
//! equi-join pair's columns resolve into exactly one leaf schema each, so
//! the optimizer's region extraction can attribute edges and — above the
//! session's `join_enum_threshold` — reorder the left-deep tree this
//! lowering produced.

use crate::ast::{Query, SelectItem, SqlExpr, TableRef};
use pyro_catalog::{Catalog, TableHandle};
use pyro_common::{DataType, PyroError, Result};
use pyro_core::{AggSpec, JoinPair, LogicalPlan, NExpr, NodeId, ProjItem};
use pyro_exec::agg::AggFunc;
use pyro_exec::join::JoinKind;
use pyro_exec::CmpOp;
use pyro_ordering::SortOrder;
use std::cell::RefCell;
use std::sync::Arc;

/// What the lowerer learned about a statement's `?` placeholders: one slot
/// per parameter, in placeholder order. A slot holds the [`DataType`] the
/// query's use of that placeholder implies (it is compared against a base
/// column of that type), or `None` when the usage does not pin a type —
/// execution then accepts any value there.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamInfo {
    /// Expected type per placeholder, indexed by placeholder number.
    pub types: Vec<Option<DataType>>,
}

impl ParamInfo {
    /// Number of `?` placeholders in the statement.
    pub fn count(&self) -> usize {
        self.types.len()
    }
}

/// Lowers a parsed query against a catalog.
pub fn lower(q: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    Ok(lower_with_params(q, catalog)?.0)
}

/// Lowers a parsed query, also returning what was learned about its `?`
/// placeholders (count and expected types) for prepared-statement binding.
pub fn lower_with_params(q: &Query, catalog: &Catalog) -> Result<(LogicalPlan, ParamInfo)> {
    let mut lowerer = Lowerer::new(catalog)?;
    let plan = lowerer.lower(q)?;
    Ok((
        plan,
        ParamInfo {
            types: lowerer.param_types.into_inner(),
        },
    ))
}

/// Parses and lowers in one step — the frontend's front door, so callers
/// never juggle the intermediate [`Query`] AST.
pub fn plan(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    lower(&crate::parse_query(sql)?, catalog)
}

/// Parses and lowers in one step, returning the placeholder facts alongside
/// the plan — what `Session::prepare` builds on.
pub fn plan_with_params(sql: &str, catalog: &Catalog) -> Result<(LogicalPlan, ParamInfo)> {
    lower_with_params(&crate::parse_query(sql)?, catalog)
}

struct Lowerer<'a, 'q> {
    catalog: &'a Catalog,
    /// The FROM tables in `FROM` order: each alias with its table, whose
    /// schema holds the bare column names and their declared types.
    scopes: Vec<(&'q str, Arc<TableHandle>)>,
    /// Expected type per `?` placeholder, grown as placeholders are seen.
    /// `RefCell` because inference happens inside the `&self` expression
    /// walk.
    param_types: RefCell<Vec<Option<DataType>>>,
}

impl<'a, 'q> Lowerer<'a, 'q> {
    fn new(catalog: &'a Catalog) -> Result<Self> {
        Ok(Lowerer {
            catalog,
            scopes: Vec::new(),
            param_types: RefCell::new(Vec::new()),
        })
    }

    /// The position in `FROM` of the table aliased `alias`.
    fn scope_of(&self, alias: &str) -> Option<usize> {
        self.scopes.iter().position(|(a, _)| *a == alias)
    }

    /// The declared type of bare column `bare` of the table aliased `alias`.
    fn column_type(&self, alias: &str, bare: &str) -> Option<DataType> {
        let (_, table) = &self.scopes[self.scope_of(alias)?];
        let columns = table.meta.schema.columns();
        columns.iter().find(|c| &*c.name == bare).map(|c| c.ty)
    }

    /// Ensures the parameter table covers placeholder `i`.
    fn note_param(&self, i: usize) {
        let mut types = self.param_types.borrow_mut();
        if types.len() <= i {
            types.resize(i + 1, None);
        }
    }

    /// If `a` is a placeholder compared against base column `b`, records the
    /// column's type as the placeholder's expected type (first use wins; a
    /// later conflicting use leaves the earlier, stricter expectation).
    fn infer_param_type(&self, a: &NExpr, b: &NExpr) {
        if let (NExpr::Param(i), NExpr::Col(c)) = (a, b) {
            let ty = c
                .split_once('.')
                .and_then(|(alias, bare)| self.column_type(alias, bare));
            if let Some(ty) = ty {
                let mut types = self.param_types.borrow_mut();
                if types[*i].is_none() {
                    types[*i] = Some(ty);
                }
            }
        }
    }

    /// Qualifies a possibly-bare column name against the aliases in scope.
    fn qualify(&self, name: &str) -> Result<String> {
        if let Some((alias, bare)) = name.split_once('.') {
            if self.column_type(alias, bare).is_some() {
                return Ok(name.to_string());
            }
            return Err(PyroError::UnknownColumn(name.to_string()));
        }
        let mut hits = self.scopes.iter().filter(|(_, table)| {
            let columns = table.meta.schema.columns();
            columns.iter().any(|c| &*c.name == name)
        });
        match (hits.next(), hits.next()) {
            (Some((alias, _)), None) => Ok(format!("{alias}.{name}")),
            (None, _) => Err(PyroError::UnknownColumn(name.to_string())),
            (Some(_), Some(_)) => Err(PyroError::AmbiguousColumn(name.to_string())),
        }
    }

    /// The alias part of a column name [`Self::qualify`] returned.
    fn alias_of(qualified: &str) -> Result<&str> {
        qualified
            .split_once('.')
            .map(|(alias, _)| alias)
            .ok_or_else(|| PyroError::Plan(format!("column {qualified} has no table qualifier")))
    }

    /// True iff the qualified column belongs to `alias`.
    fn belongs_to(col: &str, alias: &str) -> bool {
        col.split_once('.').is_some_and(|(a, _)| a == alias)
    }

    fn lower(&mut self, q: &'q Query) -> Result<LogicalPlan> {
        if q.from.is_empty() {
            return Err(PyroError::Sql("FROM clause required".into()));
        }
        // Placeholders are predicate-side only: a `?` in the SELECT list
        // (or an aggregate argument) would shape the *result schema*, whose
        // column types must be fixed at prepare time while a placeholder's
        // type is only known at bind time.
        for item in &q.select {
            if matches!(item, SelectItem::Expr(e, _) if e.has_param()) {
                return Err(PyroError::Unsupported(
                    "? placeholder in the SELECT list (a parameter cannot shape the \
                     result schema; bind parameters in WHERE / HAVING / ON predicates)"
                        .into(),
                ));
            }
        }
        // Register scopes up front so WHERE names can be qualified. An
        // alias names one table: a second use would make `alias.col`
        // ambiguous.
        for t in &q.from {
            if self.scope_of(&t.alias).is_some() {
                return Err(PyroError::Sql(format!(
                    "table alias {} is used twice in FROM; give each table its own alias",
                    t.alias
                )));
            }
            self.scopes.push((&t.alias, self.catalog.table(&t.table)?));
        }

        // Split WHERE into join pairs (col = col across tables),
        // single-table filters, and residual conditions.
        // Below a full outer join a filter would drop rows before they are
        // padded; above it, it sees the padded rows, as WHERE must.
        let full_outer = q.from.iter().any(|t| t.full_outer_on.is_some());
        let mut join_equalities: Vec<(String, String)> = Vec::new();
        // Single-table filters per FROM position.
        let mut table_filters: Vec<Vec<NExpr>> = vec![Vec::new(); q.from.len()];
        let mut residual: Vec<NExpr> = Vec::new();
        for conj in &q.where_conjuncts {
            match conj {
                SqlExpr::Cmp(CmpOp::Eq, a, b) => {
                    if let (SqlExpr::Col(ca), SqlExpr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                        let (qa, qb) = (self.qualify(ca)?, self.qualify(cb)?);
                        if Self::alias_of(&qa)? != Self::alias_of(&qb)? {
                            join_equalities.push((qa, qb));
                            continue;
                        }
                    }
                    self.classify_filter(conj, full_outer, &mut table_filters, &mut residual)?;
                }
                _ => self.classify_filter(conj, full_outer, &mut table_filters, &mut residual)?,
            }
        }

        // Build scans with pushed-down filters, then join left-deep.
        let mut plan = LogicalPlan::new();
        let mut current: Option<NodeId> = None;
        for ((i, t), filters) in q.from.iter().enumerate().zip(table_filters) {
            let mut node = plan.scan_as(&t.table, &t.alias);
            if !filters.is_empty() {
                node = plan.filter(node, NExpr::And(filters));
            }
            current = Some(match current {
                None => node,
                Some(left) => {
                    // The tables before this one are the scopes before it.
                    let (kind, pairs) =
                        self.join_spec(t, &self.scopes[..i], &mut join_equalities)?;
                    if pairs.is_empty() {
                        return Err(PyroError::Sql(format!(
                            "no join condition links table {} to the preceding tables",
                            t.alias
                        )));
                    }
                    plan.join_kind(left, node, kind, pairs)
                }
            });
        }
        let mut node =
            current.ok_or_else(|| PyroError::Plan("FROM clause lowered to no table".into()))?;
        if !join_equalities.is_empty() {
            return Err(PyroError::Sql(format!(
                "unplaced join equalities: {join_equalities:?}"
            )));
        }
        if !residual.is_empty() {
            node = plan.filter(node, NExpr::And(residual));
        }

        // Aggregation.
        let select_has_agg = q
            .select
            .iter()
            .any(|s| matches!(s, SelectItem::Expr(e, _) if e.has_agg()));
        let mut agg_specs: Vec<AggSpec> = Vec::new();
        let mut select_items: Vec<ProjItem> = Vec::new();
        if !q.group_by.is_empty() || select_has_agg {
            // Collect aggregates from SELECT and HAVING.
            for (i, item) in q.select.iter().enumerate() {
                match item {
                    SelectItem::Star => {
                        return Err(PyroError::Sql(
                            "SELECT * cannot be combined with GROUP BY".into(),
                        ))
                    }
                    SelectItem::Expr(e, alias) => {
                        let lowered = self.lower_scalar(e, &mut agg_specs, alias.as_deref())?;
                        // Pass-through columns keep their qualified names so
                        // sort orders survive the projection; aggregates use
                        // their (possibly synthesized) output name.
                        let name = match (&lowered, alias) {
                            (_, Some(a)) => a.clone(),
                            (NExpr::Col(c), None) => c.clone(),
                            (_, None) => format!("expr{i}"),
                        };
                        select_items.push(ProjItem {
                            expr: lowered,
                            name,
                        });
                    }
                }
            }
            let group_cols: Vec<String> = q
                .group_by
                .iter()
                .map(|g| self.qualify(g))
                .collect::<Result<_>>()?;
            let mut having_expr = None;
            if let Some(h) = &q.having {
                having_expr = Some(self.lower_scalar(h, &mut agg_specs, None)?);
            }
            node = plan.aggregate(node, group_cols, agg_specs);
            if let Some(h) = having_expr {
                node = plan.filter(node, h);
            }
            node = plan.project(node, unique_names(select_items)?);
        } else {
            // Plain projection (or SELECT *).
            let star = q.select.iter().any(|s| matches!(s, SelectItem::Star));
            if !star {
                for (i, item) in q.select.iter().enumerate() {
                    if let SelectItem::Expr(e, alias) = item {
                        let mut no_aggs = Vec::new();
                        let lowered = self.lower_scalar(e, &mut no_aggs, None)?;
                        if !no_aggs.is_empty() {
                            return Err(PyroError::Sql(
                                "aggregate without GROUP BY not supported".into(),
                            ));
                        }
                        // Preserve qualified names for pass-through columns
                        // so sort orders survive the projection.
                        let name = match (&lowered, alias) {
                            (_, Some(a)) => a.clone(),
                            (NExpr::Col(c), None) => c.clone(),
                            (_, None) => format!("expr{i}"),
                        };
                        select_items.push(ProjItem {
                            expr: lowered,
                            name,
                        });
                    }
                }
                node = plan.project(node, unique_names(select_items)?);
            }
        }

        // DISTINCT is a grouping on every output column, in output order,
        // with no aggregates: one order consumer, planned like GROUP BY.
        if q.distinct {
            let schemas = plan.schemas(|table, alias| {
                Ok(self.catalog.table(table)?.meta.schema.qualify(alias))
            })?;
            node = plan.aggregate(node, schemas[node].names(), Vec::new());
        }

        // ORDER BY.
        if !q.order_by.is_empty() {
            let attrs: Vec<String> = q
                .order_by
                .iter()
                .map(|c| {
                    // agg/select aliases take precedence over base columns
                    self.qualify(c).or_else(|_| Ok(c.clone()))
                })
                .collect::<Result<_>>()?;
            node = plan.order_by(node, SortOrder::new(attrs));
        }
        if let Some(k) = q.limit {
            node = plan.limit(node, k);
        }
        plan.set_root(node);
        Ok(plan)
    }

    fn classify_filter(
        &self,
        conj: &SqlExpr,
        full_outer: bool,
        table_filters: &mut [Vec<NExpr>],
        residual: &mut Vec<NExpr>,
    ) -> Result<()> {
        let mut aggs = Vec::new();
        let lowered = self.lower_scalar(conj, &mut aggs, None)?;
        if !aggs.is_empty() {
            return Err(PyroError::Sql("aggregate in WHERE".into()));
        }
        let mut cols = Vec::new();
        lowered.columns(&mut cols);
        let mut aliases: Vec<&str> = cols.iter().filter_map(|c| c.split('.').next()).collect();
        aliases.sort_unstable();
        aliases.dedup();
        match aliases.as_slice() {
            [one] if !full_outer => match self.scope_of(one) {
                Some(at) => table_filters[at].push(lowered),
                None => residual.push(lowered),
            },
            _ => residual.push(lowered),
        }
        Ok(())
    }

    /// Lowers a scalar expression; aggregate calls are pulled out into
    /// `agg_specs` and replaced by column references to their outputs.
    fn lower_scalar(
        &self,
        e: &SqlExpr,
        agg_specs: &mut Vec<AggSpec>,
        preferred_name: Option<&str>,
    ) -> Result<NExpr> {
        Ok(match e {
            SqlExpr::Col(c) => match self.qualify(c) {
                Ok(q) => NExpr::Col(q),
                // HAVING/ORDER BY may reference a SELECT aggregate alias.
                Err(e) if agg_specs.iter().any(|a| &a.name == c) => {
                    let _ = e;
                    NExpr::Col(c.clone())
                }
                Err(e) => return Err(e),
            },
            SqlExpr::Lit(v) => NExpr::Lit(v.clone()),
            SqlExpr::Param(i) => {
                self.note_param(*i);
                NExpr::Param(*i)
            }
            SqlExpr::CountStar => {
                self.register_agg(AggFunc::Count, NExpr::lit(1i64), agg_specs, preferred_name)
            }
            SqlExpr::Agg(f, arg) => {
                let mut inner_aggs = Vec::new();
                let arg = self.lower_scalar(arg, &mut inner_aggs, None)?;
                if !inner_aggs.is_empty() {
                    return Err(PyroError::Sql("nested aggregates".into()));
                }
                self.register_agg(*f, arg, agg_specs, preferred_name)
            }
            SqlExpr::Cmp(op, a, b) => {
                let la = self.lower_scalar(a, agg_specs, None)?;
                let lb = self.lower_scalar(b, agg_specs, None)?;
                // `col <op> ?` (either way round) pins the placeholder's
                // expected type to the column's declared type.
                self.infer_param_type(&la, &lb);
                self.infer_param_type(&lb, &la);
                NExpr::Cmp(*op, Box::new(la), Box::new(lb))
            }
            SqlExpr::And(terms) => NExpr::And(
                terms
                    .iter()
                    .map(|t| self.lower_scalar(t, agg_specs, None))
                    .collect::<Result<_>>()?,
            ),
            SqlExpr::Mul(a, b) => NExpr::Mul(
                Box::new(self.lower_scalar(a, agg_specs, None)?),
                Box::new(self.lower_scalar(b, agg_specs, None)?),
            ),
            SqlExpr::Add(a, b) => NExpr::Add(
                Box::new(self.lower_scalar(a, agg_specs, None)?),
                Box::new(self.lower_scalar(b, agg_specs, None)?),
            ),
            SqlExpr::Sub(a, b) => NExpr::Sub(
                Box::new(self.lower_scalar(a, agg_specs, None)?),
                Box::new(self.lower_scalar(b, agg_specs, None)?),
            ),
        })
    }

    fn register_agg(
        &self,
        func: AggFunc,
        arg: NExpr,
        agg_specs: &mut Vec<AggSpec>,
        preferred_name: Option<&str>,
    ) -> NExpr {
        // Reuse a structurally identical aggregate (HAVING referencing the
        // same sum as SELECT).
        if let Some(existing) = agg_specs.iter().find(|a| a.func == func && a.arg == arg) {
            return NExpr::Col(existing.name.clone());
        }
        let name = preferred_name
            .map(str::to_string)
            .unwrap_or_else(|| format!("agg{}", agg_specs.len()));
        agg_specs.push(AggSpec {
            func,
            arg,
            name: name.clone(),
        });
        NExpr::Col(name)
    }

    /// Consumes the join condition linking `t` to the tables in scope
    /// `left`.
    fn join_spec(
        &self,
        t: &TableRef,
        left: &[(&str, Arc<TableHandle>)],
        pool: &mut Vec<(String, String)>,
    ) -> Result<(JoinKind, Vec<JoinPair>)> {
        let mut pairs = Vec::new();
        if let Some(on) = &t.full_outer_on {
            for conj in flatten(on) {
                let SqlExpr::Cmp(CmpOp::Eq, a, b) = conj else {
                    return Err(PyroError::Sql(
                        "ON clause must be equality conjuncts".into(),
                    ));
                };
                let (SqlExpr::Col(ca), SqlExpr::Col(cb)) = (a.as_ref(), b.as_ref()) else {
                    return Err(PyroError::Sql("ON clause must compare columns".into()));
                };
                let (qa, qb) = (self.qualify(ca)?, self.qualify(cb)?);
                // Normalize sides: left column first.
                if Self::belongs_to(&qa, &t.alias) {
                    pairs.push(JoinPair::new(qb, qa));
                } else {
                    pairs.push(JoinPair::new(qa, qb));
                }
            }
            // A column named twice makes two of the join's columns equal
            // to each other, which a full outer join's padded rows are not.
            let mut named: Vec<&str> = pairs.iter().flat_map(|p| [&*p.left, &*p.right]).collect();
            named.sort_unstable();
            if let Some(w) = named.windows(2).find(|w| w[0] == w[1]) {
                return Err(PyroError::Unsupported(format!(
                    "{} appears twice in a FULL OUTER JOIN's ON clause",
                    w[0]
                )));
            }
            return Ok((JoinKind::FullOuter, pairs));
        }
        // Comma join: take matching equalities from the WHERE pool.
        pool.retain(|(qa, qb)| {
            let a_new = Self::belongs_to(qa, &t.alias);
            let b_new = Self::belongs_to(qb, &t.alias);
            let a_old = left.iter().any(|(al, _)| Self::belongs_to(qa, al));
            let b_old = left.iter().any(|(al, _)| Self::belongs_to(qb, al));
            if a_old && b_new {
                pairs.push(JoinPair::new(qa.clone(), qb.clone()));
                false
            } else if b_old && a_new {
                pairs.push(JoinPair::new(qb.clone(), qa.clone()));
                false
            } else {
                true
            }
        });
        Ok((JoinKind::Inner, pairs))
    }
}

/// The SELECT list, if no two of its columns share a name.
fn unique_names(items: Vec<ProjItem>) -> Result<Vec<ProjItem>> {
    for (i, item) in items.iter().enumerate() {
        if items[..i].iter().any(|earlier| earlier.name == item.name) {
            return Err(PyroError::Sql(format!(
                "{} appears twice in the SELECT list; give one an alias",
                item.name
            )));
        }
    }
    Ok(items)
}

fn flatten(e: &SqlExpr) -> Vec<&SqlExpr> {
    match e {
        SqlExpr::And(terms) => terms.iter().flat_map(flatten).collect(),
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use pyro_common::{Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i % 3)]))
            .collect();
        cat.register_table(
            "t1",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["a"]),
            &rows,
        )
        .unwrap();
        cat.register_table(
            "t2",
            Schema::ints(&["a", "d", "e"]),
            SortOrder::new(["a"]),
            &rows,
        )
        .unwrap();
        for name in ["t", "u"] {
            cat.register_table(
                name,
                Schema::ints(&["a", "b", "c"]),
                SortOrder::new(["a"]),
                &rows,
            )
            .unwrap();
        }
        cat
    }

    #[test]
    fn lowers_simple_select() {
        let cat = catalog();
        let q = parse_query("SELECT a, b FROM t1 ORDER BY a").unwrap();
        let plan = lower(&q, &cat).unwrap();
        assert!(plan.len() >= 3); // scan, project, sort
    }

    #[test]
    fn lowers_join_from_where() {
        let cat = catalog();
        let q = parse_query("SELECT * FROM t1, t2 WHERE t1.a = t2.a AND b > 3").unwrap();
        let plan = lower(&q, &cat).unwrap();
        // scan t1, filter (b>3 pushed), scan t2, join
        let mut has_join = false;
        for id in 0..plan.len() {
            if matches!(plan.node(id), pyro_core::logical::LogicalOp::Join { pairs, .. } if pairs.len() == 1)
            {
                has_join = true;
            }
        }
        assert!(has_join);
    }

    #[test]
    fn lowers_aggregate_with_having() {
        let cat = catalog();
        let q = parse_query(
            "SELECT b, sum(a) AS total FROM t1 GROUP BY b HAVING sum(a) > 100 ORDER BY b",
        )
        .unwrap();
        let plan = lower(&q, &cat).unwrap();
        // HAVING's sum(a) reuses SELECT's aggregate.
        let mut agg_count = 0;
        for id in 0..plan.len() {
            if let pyro_core::logical::LogicalOp::Aggregate { aggs, .. } = plan.node(id) {
                agg_count = aggs.len();
            }
        }
        assert_eq!(agg_count, 1, "HAVING must reuse the SELECT aggregate");
    }

    /// `SELECT DISTINCT` is the same statement without it, grouped on its
    /// output columns in output order under one aggregate with no
    /// aggregates.
    #[test]
    fn distinct_lowers_to_a_grouping_on_the_output_columns() {
        use pyro_core::logical::LogicalOp;
        let cat = catalog();
        for (sql, group) in [
            (
                "SELECT DISTINCT t2.a, b FROM t1, t2 WHERE t1.a = t2.a",
                vec!["t2.a", "t1.b"],
            ),
            (
                "SELECT DISTINCT * FROM t1, t2 WHERE t1.a = t2.a",
                vec!["t1.a", "t1.b", "t1.c", "t2.a", "t2.d", "t2.e"],
            ),
        ] {
            let plan = lower(&parse_query(sql).unwrap(), &cat).unwrap();
            let plain = sql.replace("DISTINCT ", "");
            let plain = lower(&parse_query(&plain).unwrap(), &cat).unwrap();
            assert_eq!(plan.len(), plain.len() + 1, "{sql}: one new node");
            let LogicalOp::Aggregate {
                input,
                group_by,
                aggs,
            } = plan.node(plan.root())
            else {
                panic!("{sql}: the root is not an aggregate");
            };
            assert_eq!(*input, plain.root(), "{sql}");
            assert_eq!(group_by, &group, "{sql}");
            assert!(aggs.is_empty(), "{sql}");
        }
    }

    #[test]
    fn missing_join_condition_rejected() {
        let cat = catalog();
        let q = parse_query("SELECT * FROM t1, t2").unwrap();
        assert!(lower(&q, &cat).is_err());
    }

    #[test]
    fn duplicate_alias_is_a_typed_error_naming_it() {
        // Regression: the second table used to overwrite the first in the
        // scope map, and the statement failed later with "no join
        // condition links table x to the preceding tables".
        let cat = catalog();
        for (sql, alias) in [
            ("SELECT * FROM t x, u x WHERE x.a = x.a", "x"),
            ("SELECT * FROM t, t WHERE a = a", "t"),
        ] {
            let err = lower(&parse_query(sql).unwrap(), &cat).unwrap_err();
            assert!(
                matches!(&err, PyroError::Sql(m)
                    if m.contains(&format!("table alias {alias} is used twice"))),
                "{sql}: {err}"
            );
        }
    }

    #[test]
    fn unknown_column_rejected() {
        let cat = catalog();
        let q = parse_query("SELECT zz FROM t1").unwrap();
        assert!(lower(&q, &cat).is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        let cat = catalog();
        let q = parse_query("SELECT a FROM t1, t2 WHERE t1.a = t2.a").unwrap();
        assert!(matches!(
            lower(&q, &cat),
            Err(PyroError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn full_outer_join_lowering() {
        let cat = catalog();
        let q = parse_query("SELECT * FROM t1 FULL OUTER JOIN t2 ON (t1.a = t2.a AND t1.b = t2.d)")
            .unwrap();
        let plan = lower(&q, &cat).unwrap();
        let mut found = false;
        for id in 0..plan.len() {
            if let pyro_core::logical::LogicalOp::Join { kind, pairs, .. } = plan.node(id) {
                assert_eq!(*kind, JoinKind::FullOuter);
                assert_eq!(pairs.len(), 2);
                assert!(pairs.iter().all(|p| p.left.starts_with("t1.")));
                found = true;
            }
        }
        assert!(found);
    }

    /// Shapes with no sound plan yet are typed errors, not panics or
    /// wrong answers.
    #[test]
    fn unsupported_shapes_are_typed_errors() {
        let cat = catalog();
        let err = |sql: &str| lower(&parse_query(sql).unwrap(), &cat).unwrap_err();
        assert!(matches!(err("SELECT b, b FROM t1"), PyroError::Sql(m) if m.contains("twice")));
        assert!(matches!(
            err("SELECT * FROM t1 FULL OUTER JOIN t2 ON (t1.a = t2.a AND t1.b = t2.a)"),
            PyroError::Unsupported(m) if m.contains("t2.a")
        ));
    }

    /// Under a full outer join every WHERE filter stays above the join,
    /// where it sees the padded rows.
    #[test]
    fn filters_stay_above_a_full_outer_join() {
        let cat = catalog();
        let q = parse_query("SELECT * FROM t1 FULL OUTER JOIN t2 ON (t1.a = t2.a) WHERE t1.b = 3")
            .unwrap();
        let plan = lower(&q, &cat).unwrap();
        let root = plan.root();
        assert!(matches!(
            plan.node(root),
            pyro_core::logical::LogicalOp::Filter { .. }
        ));
    }
}
