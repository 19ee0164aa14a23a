//! Recursive-descent parser.

use crate::ast::{Query, SelectItem, SqlExpr, TableRef};
use crate::lexer::{tokenize, Token};
use pyro_common::{PyroError, Result, Value};
use pyro_exec::agg::AggFunc;
use pyro_exec::CmpOp;

/// Parses one SELECT query.
pub fn parse_query(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> PyroError {
        PyroError::Sql(format!(
            "{msg} (at token {} = {:?})",
            self.pos,
            self.tokens.get(self.pos)
        ))
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {}", kw.to_uppercase())))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.to_string();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    /// Possibly-qualified column name.
    fn column_name(&mut self) -> Result<String> {
        let qualified = match self.tokens.get(self.pos..self.pos + 3) {
            Some([Token::Ident(first), Token::Symbol("."), Token::Ident(second)]) => {
                Some([first.as_ref(), ".", second.as_ref()].concat())
            }
            _ => None,
        };
        match qualified {
            Some(name) => {
                self.pos += 3;
                Ok(name)
            }
            None => {
                let name = self.ident()?;
                if self.eat_symbol(".") {
                    return Err(self.err("expected identifier"));
                }
                Ok(name)
            }
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut select = Vec::new();
        loop {
            if self.eat_symbol("*") {
                select.push(SelectItem::Star);
            } else {
                let e = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                select.push(SelectItem::Expr(e, alias));
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        from.push(self.table_ref(None)?);
        loop {
            if self.eat_symbol(",") {
                from.push(self.table_ref(None)?);
            } else if self.peek_kw("full") {
                self.expect_kw("full")?;
                self.expect_kw("outer")?;
                self.expect_kw("join")?;
                let mut t = self.table_ref(None)?;
                self.expect_kw("on")?;
                // Parenthesized ON conditions are handled by `comparison`.
                let cond = self.condition()?;
                t.full_outer_on = Some(cond);
                from.push(t);
            } else {
                break;
            }
        }
        let where_conjuncts = if self.eat_kw("where") {
            flatten_and(self.condition()?)
        } else {
            Vec::new()
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.column_name()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.condition()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                order_by.push(self.column_name()?);
                // Explicit ASC is the default and accepted; DESC is a typed
                // error — the engine implements the paper's ascending-only
                // order machinery, and silently returning ascending rows
                // for a DESC query would be silently wrong results.
                self.eat_kw("asc");
                if self.peek_kw("desc") {
                    return Err(PyroError::Unsupported(
                        "ORDER BY ... DESC (only ascending orders are implemented; \
                         drop DESC or sort client-side)"
                            .into(),
                    ));
                }
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.peek() {
                Some(&Token::Int(v)) if v >= 0 => {
                    self.pos += 1;
                    Some(v as u64)
                }
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            select,
            from,
            where_conjuncts,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self, on: Option<SqlExpr>) -> Result<TableRef> {
        let table = self.ident()?;
        // Optional alias: a bare identifier that is not a clause keyword.
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if ![
                    "where", "group", "having", "order", "full", "on", "join", "inner", "left",
                    "as", "limit",
                ]
                .contains(&s.as_ref()) =>
            {
                self.ident()?
            }
            _ => table.clone(),
        };
        Ok(TableRef {
            table,
            alias,
            full_outer_on: on,
        })
    }

    /// Boolean condition: conjunction of comparisons.
    fn condition(&mut self) -> Result<SqlExpr> {
        let mut terms = vec![self.comparison()?];
        while self.eat_kw("and") {
            terms.push(self.comparison()?);
        }
        Ok(match <[SqlExpr; 1]>::try_from(terms) {
            Ok([one]) => one,
            Err(terms) => SqlExpr::And(terms),
        })
    }

    fn comparison(&mut self) -> Result<SqlExpr> {
        // allow parenthesized sub-conjunctions
        if self.eat_symbol("(") {
            let inner = self.condition()?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        let left = self.expr()?;
        let op = if self.eat_symbol("=") {
            CmpOp::Eq
        } else if self.eat_symbol("<>") {
            CmpOp::Ne
        } else if self.eat_symbol("<=") {
            CmpOp::Le
        } else if self.eat_symbol(">=") {
            CmpOp::Ge
        } else if self.eat_symbol("<") {
            CmpOp::Lt
        } else if self.eat_symbol(">") {
            CmpOp::Gt
        } else {
            return Err(self.err("expected comparison operator"));
        };
        let right = self.expr()?;
        Ok(SqlExpr::Cmp(op, Box::new(left), Box::new(right)))
    }

    /// Arithmetic expression: term (('+' | '-') term)*.
    fn expr(&mut self) -> Result<SqlExpr> {
        let mut e = self.term()?;
        loop {
            if self.eat_symbol("+") {
                e = SqlExpr::Add(Box::new(e), Box::new(self.term()?));
            } else if self.eat_symbol("-") {
                e = SqlExpr::Sub(Box::new(e), Box::new(self.term()?));
            } else {
                return Ok(e);
            }
        }
    }

    /// term: factor ('*' factor)*.
    fn term(&mut self) -> Result<SqlExpr> {
        let mut e = self.factor()?;
        while self.eat_symbol("*") {
            e = SqlExpr::Mul(Box::new(e), Box::new(self.factor()?));
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<SqlExpr> {
        let e = match self.peek() {
            Some(&Token::Int(v)) => SqlExpr::Lit(Value::Int(v)),
            Some(&Token::Float(v)) => SqlExpr::Lit(Value::Double(v)),
            Some(Token::Str(s)) => SqlExpr::Lit(Value::Str(s.to_string())),
            Some(&Token::Param(i)) => SqlExpr::Param(i),
            Some(Token::Symbol("(")) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_symbol(")")?;
                return Ok(e);
            }
            Some(Token::Ident(name)) => {
                // aggregate call?
                let func = match name.as_ref() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    "avg" => Some(AggFunc::Avg),
                    _ => None,
                };
                if let Some(f) = func {
                    if matches!(self.tokens.get(self.pos + 1), Some(Token::Symbol("("))) {
                        self.pos += 2;
                        if self.eat_symbol("*") {
                            self.expect_symbol(")")?;
                            return Ok(SqlExpr::CountStar);
                        }
                        let arg = self.expr()?;
                        self.expect_symbol(")")?;
                        return Ok(SqlExpr::Agg(f, Box::new(arg)));
                    }
                }
                return Ok(SqlExpr::Col(self.column_name()?));
            }
            _ => return Err(self.err("expected expression")),
        };
        self.pos += 1;
        Ok(e)
    }
}

fn flatten_and(e: SqlExpr) -> Vec<SqlExpr> {
    fn flatten_into(e: SqlExpr, out: &mut Vec<SqlExpr>) {
        match e {
            SqlExpr::And(terms) => terms.into_iter().for_each(|t| flatten_into(t, out)),
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    flatten_into(e, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_3() {
        let q = parse_query(
            "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
             FROM partsupp, lineitem \
             WHERE ps_suppkey=l_suppkey AND ps_partkey=l_partkey AND l_linestatus='O' \
             GROUP BY ps_availqty, ps_partkey, ps_suppkey \
             HAVING total > ps_availqty ORDER BY ps_partkey",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.where_conjuncts.len(), 3);
        assert_eq!(q.group_by.len(), 3);
        assert!(q.having.is_some());
        assert_eq!(q.order_by, vec!["ps_partkey"]);
    }

    #[test]
    fn parses_full_outer_join() {
        let q = parse_query(
            "SELECT * FROM r1 FULL OUTER JOIN r2 \
             ON (r1.c5=r2.c5 AND r1.c4=r2.c4) \
             FULL OUTER JOIN r3 ON (r3.c1=r1.c1)",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert!(q.from[1].full_outer_on.is_some());
        assert!(q.from[2].full_outer_on.is_some());
        assert_eq!(q.select, vec![SelectItem::Star]);
    }

    #[test]
    fn parses_arithmetic_and_aliases() {
        let q = parse_query(
            "SELECT t1.quantity * t1.price AS ordervalue, sum(t2.quantity * t2.price) AS ev \
             FROM tran t1, tran t2 WHERE t1.userid = t2.userid GROUP BY t1.userid",
        )
        .unwrap();
        assert_eq!(q.from[0].alias, "t1");
        assert_eq!(q.from[1].alias, "t2");
        match &q.select[0] {
            SelectItem::Expr(SqlExpr::Mul(..), Some(a)) => assert_eq!(a, "ordervalue"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn count_star() {
        let q = parse_query("SELECT count(*) FROM t GROUP BY g").unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Expr(SqlExpr::CountStar, None)
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT a FROM").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("SELECT a FROM t extra garbage here now").is_err());
    }

    #[test]
    fn order_by_desc_is_a_typed_error() {
        // Regression: DESC used to be silently ignored, returning ascending
        // rows for a descending query — silently wrong results.
        assert!(matches!(
            parse_query("SELECT a FROM t ORDER BY a DESC, b ASC"),
            Err(PyroError::Unsupported(m)) if m.contains("DESC")
        ));
        // Explicit ASC (the default direction) stays accepted.
        let q = parse_query("SELECT a FROM t ORDER BY a ASC, b ASC").unwrap();
        assert_eq!(q.order_by, vec!["a", "b"]);
    }

    #[test]
    fn parses_parameter_placeholders() {
        let q = parse_query("SELECT a FROM t WHERE a = ? AND b > ? ORDER BY a").unwrap();
        assert_eq!(
            q.where_conjuncts[0],
            SqlExpr::Cmp(
                CmpOp::Eq,
                Box::new(SqlExpr::Col("a".into())),
                Box::new(SqlExpr::Param(0))
            )
        );
        assert!(matches!(
            &q.where_conjuncts[1],
            SqlExpr::Cmp(CmpOp::Gt, _, b) if **b == SqlExpr::Param(1)
        ));
    }
}
