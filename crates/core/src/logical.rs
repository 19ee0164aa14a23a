//! Logical query plans.
//!
//! The paper optimizes *sort-order choices over a fixed join shape* (join
//! order selection is orthogonal), so logical plans here are simple trees
//! built once and stored in an arena. Columns are identified by qualified
//! names (`"t1.c4"`); schemas are derived bottom-up.

use pyro_common::{Column, DataType, PyroError, Result, Schema, Value};
use pyro_exec::agg::AggFunc;
use pyro_exec::join::JoinKind;
use pyro_exec::CmpOp;
use pyro_ordering::SortOrder;

/// Index of a node in the [`LogicalPlan`] arena.
pub type NodeId = usize;

/// A named scalar expression (logical level; compiled to positional
/// `pyro_exec::Expr` at plan compile time).
#[derive(Debug, Clone, PartialEq)]
pub enum NExpr {
    /// Qualified column reference.
    Col(String),
    /// Literal.
    Lit(Value),
    /// A prepared-statement parameter placeholder (0-based). Optimized
    /// symbolically — selectivity estimation treats it like an unknown
    /// literal — and substituted with a bound [`Value`] at plan compile
    /// time, so one optimized plan serves every binding.
    Param(usize),
    /// Comparison.
    Cmp(CmpOp, Box<NExpr>, Box<NExpr>),
    /// Conjunction.
    And(Vec<NExpr>),
    /// Arithmetic.
    Mul(Box<NExpr>, Box<NExpr>),
    /// Arithmetic.
    Add(Box<NExpr>, Box<NExpr>),
    /// Arithmetic.
    Sub(Box<NExpr>, Box<NExpr>),
}

impl NExpr {
    /// Column helper.
    pub fn col(name: impl Into<String>) -> NExpr {
        NExpr::Col(name.into())
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> NExpr {
        NExpr::Lit(v.into())
    }

    /// Equality of a column and a literal — the common filter.
    pub fn col_eq_lit(name: impl Into<String>, v: impl Into<Value>) -> NExpr {
        NExpr::Cmp(
            CmpOp::Eq,
            Box::new(NExpr::col(name)),
            Box::new(NExpr::lit(v)),
        )
    }

    /// All column names referenced.
    pub fn columns<'e>(&'e self, out: &mut Vec<&'e str>) {
        match self {
            NExpr::Col(c) => out.push(c),
            NExpr::Lit(_) | NExpr::Param(_) => {}
            NExpr::Cmp(_, a, b) | NExpr::Mul(a, b) | NExpr::Add(a, b) | NExpr::Sub(a, b) => {
                a.columns(out);
                b.columns(out);
            }
            NExpr::And(terms) => {
                for t in terms {
                    t.columns(out);
                }
            }
        }
    }

    /// Result type estimate (for projection schemas).
    pub fn data_type(&self, input: &Schema) -> DataType {
        match self {
            NExpr::Col(c) => input
                .index_of(c)
                .map(|i| input.column(i).ty)
                .unwrap_or(DataType::Int),
            NExpr::Lit(Value::Double(_)) => DataType::Double,
            NExpr::Lit(Value::Str(_)) => DataType::Str,
            NExpr::Lit(_) => DataType::Int,
            // A parameter's type is only known at bind time; Int is the
            // neutral estimate. The SQL frontend confines placeholders to
            // predicates (WHERE/HAVING/ON), which never define an output
            // schema, so this estimate cannot mistype a result column.
            NExpr::Param(_) => DataType::Int,
            NExpr::Cmp(..) => DataType::Int,
            NExpr::And(_) => DataType::Int,
            NExpr::Mul(a, b) | NExpr::Add(a, b) | NExpr::Sub(a, b) => {
                if a.data_type(input) == DataType::Double || b.data_type(input) == DataType::Double
                {
                    DataType::Double
                } else {
                    DataType::Int
                }
            }
        }
    }
}

/// One equality `left = right` of a join predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPair {
    /// Qualified column of the left input.
    pub left: String,
    /// Qualified column of the right input.
    pub right: String,
}

impl JoinPair {
    /// Convenience constructor.
    pub fn new(left: impl Into<String>, right: impl Into<String>) -> Self {
        JoinPair {
            left: left.into(),
            right: right.into(),
        }
    }
}

/// One aggregate in a group-by.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// Argument.
    pub arg: NExpr,
    /// Output column name.
    pub name: String,
}

/// One projection item.
#[derive(Debug, Clone)]
pub struct ProjItem {
    /// Expression.
    pub expr: NExpr,
    /// Output name (same as column name for plain columns to preserve
    /// order information through the projection).
    pub name: String,
}

impl ProjItem {
    /// Pass-through column projection.
    pub fn col(name: impl Into<String>) -> Self {
        let name = name.into();
        ProjItem {
            expr: NExpr::Col(name.clone()),
            name,
        }
    }

    /// Computed column.
    pub fn expr(expr: NExpr, name: impl Into<String>) -> Self {
        ProjItem {
            expr,
            name: name.into(),
        }
    }
}

/// A logical operator node.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Base-table access under an alias; columns exposed as `alias.col`.
    Scan {
        /// Catalog table name.
        table: String,
        /// Alias qualifying output column names.
        alias: String,
    },
    /// Selection.
    Filter {
        /// Input node.
        input: NodeId,
        /// Predicate.
        predicate: NExpr,
    },
    /// Projection (possibly computing new columns).
    Project {
        /// Input node.
        input: NodeId,
        /// Output items.
        items: Vec<ProjItem>,
    },
    /// Equi-join.
    Join {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
        /// Join type.
        kind: JoinKind,
        /// Equality pairs.
        pairs: Vec<JoinPair>,
    },
    /// Grouping + aggregation. `SELECT DISTINCT` is a grouping on every
    /// output column with no aggregates: like merge join, a sort-based
    /// implementation accepts *any* permutation of the grouping columns as
    /// its input order (paper §1).
    Aggregate {
        /// Input node.
        input: NodeId,
        /// Grouping columns (qualified names).
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// ORDER BY: requires `order` on its input, output order = `order`.
    Sort {
        /// Input node.
        input: NodeId,
        /// Required output order.
        order: SortOrder,
    },
    /// LIMIT/Top-K: order-preserving early termination.
    Limit {
        /// Input node.
        input: NodeId,
        /// Maximum rows to emit.
        k: u64,
    },
}

/// Arena of logical nodes; the last-added node is the root by default.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    nodes: Vec<LogicalOp>,
    root: Option<NodeId>,
}

impl LogicalPlan {
    /// Empty plan.
    pub fn new() -> Self {
        LogicalPlan::default()
    }

    fn push(&mut self, op: LogicalOp) -> NodeId {
        self.nodes.push(op);
        let id = self.nodes.len() - 1;
        self.root = Some(id);
        id
    }

    /// Adds a scan of `table` aliased as itself.
    pub fn scan(&mut self, table: &str) -> NodeId {
        self.scan_as(table, table)
    }

    /// Adds a scan of `table` under `alias`.
    pub fn scan_as(&mut self, table: &str, alias: &str) -> NodeId {
        self.push(LogicalOp::Scan {
            table: table.into(),
            alias: alias.into(),
        })
    }

    /// Adds a filter.
    pub fn filter(&mut self, input: NodeId, predicate: NExpr) -> NodeId {
        self.push(LogicalOp::Filter { input, predicate })
    }

    /// Adds a projection.
    pub fn project(&mut self, input: NodeId, items: Vec<ProjItem>) -> NodeId {
        self.push(LogicalOp::Project { input, items })
    }

    /// Adds an inner equi-join.
    pub fn join(&mut self, left: NodeId, right: NodeId, pairs: Vec<JoinPair>) -> NodeId {
        self.join_kind(left, right, JoinKind::Inner, pairs)
    }

    /// Adds an equi-join of the given kind.
    pub fn join_kind(
        &mut self,
        left: NodeId,
        right: NodeId,
        kind: JoinKind,
        pairs: Vec<JoinPair>,
    ) -> NodeId {
        self.push(LogicalOp::Join {
            left,
            right,
            kind,
            pairs,
        })
    }

    /// Adds an aggregate.
    pub fn aggregate(
        &mut self,
        input: NodeId,
        group_by: Vec<impl Into<String>>,
        aggs: Vec<AggSpec>,
    ) -> NodeId {
        self.push(LogicalOp::Aggregate {
            input,
            group_by: group_by.into_iter().map(Into::into).collect(),
            aggs,
        })
    }

    /// Adds an ORDER BY.
    pub fn order_by(&mut self, input: NodeId, order: SortOrder) -> NodeId {
        self.push(LogicalOp::Sort { input, order })
    }

    /// Adds a LIMIT.
    pub fn limit(&mut self, input: NodeId, k: u64) -> NodeId {
        self.push(LogicalOp::Limit { input, k })
    }

    /// Sets the root explicitly (defaults to the last added node).
    pub fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root.expect("empty logical plan")
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &LogicalOp {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Children of a node (0–2).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        match &self.nodes[id] {
            LogicalOp::Scan { .. } => vec![],
            LogicalOp::Filter { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::Sort { input, .. }
            | LogicalOp::Limit { input, .. } => vec![*input],
            LogicalOp::Join { left, right, .. } => vec![*left, *right],
        }
    }

    /// Every node's output schema, in one bottom-up pass over the arena
    /// (a node is added after its inputs), given a resolver for base
    /// tables.
    pub fn schemas(
        &self,
        table_schema: impl Fn(&str, &str) -> Result<Schema>,
    ) -> Result<Vec<Schema>> {
        let mut out: Vec<Schema> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let input = |i: &NodeId| {
                out.get(*i)
                    .ok_or_else(|| plan_err(format!("node {id} reads node {i}, added after it")))
            };
            let schema = match node {
                LogicalOp::Scan { table, alias } => table_schema(table, alias)?,
                LogicalOp::Filter { input: i, .. }
                | LogicalOp::Sort { input: i, .. }
                | LogicalOp::Limit { input: i, .. } => input(i)?.clone(),
                LogicalOp::Project { input: i, items } => project_schema(items, input(i)?),
                LogicalOp::Join { left, right, .. } => input(left)?.join(input(right)?),
                LogicalOp::Aggregate {
                    input: i,
                    group_by,
                    aggs,
                } => {
                    let inner = input(i)?;
                    let mut cols = Vec::new();
                    for g in group_by {
                        cols.push(inner.column(inner.index_of(g)?).clone());
                    }
                    for a in aggs {
                        let ty = match a.func {
                            AggFunc::Count => DataType::Int,
                            AggFunc::Avg => DataType::Double,
                            _ => a.arg.data_type(inner),
                        };
                        cols.push(Column::new(a.name.as_str(), ty));
                    }
                    Schema::new(cols)
                }
            };
            out.push(schema);
        }
        Ok(out)
    }

    /// Collects every column name an expression of the query names
    /// (predicates, join pairs, projections, grouping, aggregates, orders).
    /// Together with the root's output columns — which `SELECT *` names
    /// nowhere — this decides which indices *cover the query* for each
    /// table.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for node in &self.nodes {
            match node {
                LogicalOp::Scan { .. } => {}
                LogicalOp::Filter { predicate, .. } => predicate.columns(&mut out),
                LogicalOp::Project { items, .. } => {
                    for it in items {
                        it.expr.columns(&mut out);
                    }
                }
                LogicalOp::Join { pairs, .. } => {
                    for p in pairs {
                        out.push(&p.left);
                        out.push(&p.right);
                    }
                }
                LogicalOp::Aggregate { group_by, aggs, .. } => {
                    out.extend(group_by.iter().map(String::as_str));
                    for a in aggs {
                        a.arg.columns(&mut out);
                    }
                }
                LogicalOp::Sort { order, .. } => {
                    out.extend(order.attrs().iter().map(String::as_str));
                }
                LogicalOp::Limit { .. } => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The output schema of projecting `items` from `input`.
pub(crate) fn project_schema(items: &[ProjItem], input: &Schema) -> Schema {
    items
        .iter()
        .map(|it| Column::new(it.name.as_str(), it.expr.data_type(input)))
        .collect()
}

/// Errors a malformed plan produces at optimization time.
pub fn plan_err(msg: impl Into<String>) -> PyroError {
    PyroError::Plan(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_plan() -> LogicalPlan {
        let mut p = LogicalPlan::new();
        let l = p.scan_as("t", "a");
        let r = p.scan_as("t", "b");
        let j = p.join(l, r, vec![JoinPair::new("a.x", "b.x")]);
        p.order_by(j, SortOrder::new(["a.x"]));
        p
    }

    fn resolver(_t: &str, alias: &str) -> Result<Schema> {
        Ok(Schema::ints(&["x", "y"]).qualify(alias))
    }

    #[test]
    fn arena_structure() {
        let p = two_table_plan();
        assert_eq!(p.len(), 4);
        assert_eq!(p.root(), 3);
        assert_eq!(p.children(2), vec![0, 1]);
        assert_eq!(p.children(3), vec![2]);
        assert!(p.children(0).is_empty());
    }

    #[test]
    fn schema_propagation() {
        let p = two_table_plan();
        let s = &p.schemas(resolver).unwrap()[p.root()];
        assert_eq!(s.len(), 4);
        assert!(s.contains("a.x"));
        assert!(s.contains("b.y"));
    }

    #[test]
    fn referenced_columns_collects_all() {
        let p = two_table_plan();
        let cols = p.referenced_columns();
        assert_eq!(cols, vec!["a.x", "b.x"]);
    }

    #[test]
    fn project_schema_types() {
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.project(
            s,
            vec![
                ProjItem::col("t.x"),
                ProjItem::expr(
                    NExpr::Mul(Box::new(NExpr::col("t.x")), Box::new(NExpr::lit(2.5))),
                    "scaled",
                ),
            ],
        );
        let schema = &p.schemas(resolver).unwrap()[p.root()];
        assert_eq!(schema.column(0).ty, DataType::Int);
        assert_eq!(schema.column(1).ty, DataType::Double);
        assert_eq!(&*schema.column(1).name, "scaled");
    }

    #[test]
    fn nexpr_columns() {
        let e = NExpr::And(vec![
            NExpr::col_eq_lit("a.x", 1i64),
            NExpr::Cmp(
                CmpOp::Gt,
                Box::new(NExpr::col("b.y")),
                Box::new(NExpr::col("a.x")),
            ),
        ]);
        let mut cols = Vec::new();
        e.columns(&mut cols);
        cols.sort();
        cols.dedup();
        assert_eq!(cols, vec!["a.x", "b.y"]);
    }

    #[test]
    fn aggregate_schema() {
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.aggregate(
            s,
            vec!["t.x"],
            vec![AggSpec {
                func: AggFunc::Avg,
                arg: NExpr::col("t.y"),
                name: "m".into(),
            }],
        );
        let schema = &p.schemas(resolver).unwrap()[p.root()];
        assert_eq!(schema.names(), vec!["t.x", "m"]);
        assert_eq!(schema.column(1).ty, DataType::Double);
    }
}
