//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{Sym, Token};
use crate::{Result, SqlError};

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

/// The rest of a keyword-led expression form, after its keyword.
type KeywordForm<'a> = fn(&mut Parser<'a>) -> Result<ExprAst>;

/// Parse a full query from tokens.
pub fn parse_query(tokens: &[Token]) -> Result<Query> {
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.eat_sym(Sym::Semicolon);
    if p.pos != p.tokens.len() {
        return Err(SqlError::Parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
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
            Err(SqlError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn at_sym(&self, s: Sym) -> bool {
        matches!(self.peek(), Some(Token::Symbol(x)) if *x == s)
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.at_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: Sym) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // -- query structure -----------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                self.expect_kw("as")?;
                self.expect_sym(Sym::LParen)?;
                let q = self.query()?;
                self.expect_sym(Sym::RParen)?;
                ctes.push((name, q));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let select = self.select()?;
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push(OrderItem { expr, ascending });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if *n >= 0 => Some(*n as usize),
                other => {
                    return Err(SqlError::Parse(format!(
                        "expected limit count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            ctes,
            select,
            order_by,
            limit,
        })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        if self.eat_sym(Sym::Star) {
            // `select *` is only used inside EXISTS subqueries; represent it
            // as a constant (the binder ignores projection there).
            items.push(SelectItem {
                expr: ExprAst::Int(1),
                alias: None,
            });
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem { expr, alias });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            from.push(self.from_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    // Named after the grammar production, not a conversion.
    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<FromItem> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.at_kw("join") || self.at_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                AstJoinKind::Inner
            } else if self.at_kw("left") {
                self.eat_kw("left");
                self.eat_kw("outer");
                self.expect_kw("join")?;
                AstJoinKind::Left
            } else {
                break;
            };
            let relation = self.table_ref()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            joins.push(ExplicitJoin { relation, kind, on });
        }
        Ok(FromItem { base, joins })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let query = self.query()?;
            self.expect_sym(Sym::RParen)?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Derived {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        // An alias is a bare identifier that isn't a clause keyword.
        const CLAUSE_KWS: [&str; 14] = [
            "where", "group", "having", "order", "limit", "on", "join", "inner", "left", "right",
            "full", "as", "union", "cross",
        ];
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                Some(self.ident()?)
            }
            _ => {
                if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                }
            }
        };
        Ok(TableRef::Table { name, alias })
    }

    // -- expressions (precedence climbing) -----------------------------------

    fn expr(&mut self) -> Result<ExprAst> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<ExprAst> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = ExprAst::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<ExprAst> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = ExprAst::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<ExprAst> {
        if self.at_kw("not") && !self.peek_is_not_exists() {
            self.pos += 1;
            return Ok(ExprAst::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    /// `NOT EXISTS` is handled in `predicate` (primary), not as generic NOT.
    fn peek_is_not_exists(&self) -> bool {
        self.at_kw("not")
            && self
                .tokens
                .get(self.pos + 1)
                .map(|t| t.is_kw("exists"))
                .unwrap_or(false)
    }

    fn predicate(&mut self) -> Result<ExprAst> {
        let negated = self.peek_is_not_exists();
        if negated || self.at_kw("exists") {
            self.pos += 1 + usize::from(negated);
            self.expect_sym(Sym::LParen)?;
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(ExprAst::Exists {
                query: Box::new(q),
                negated,
            });
        }

        let left = self.additive()?;

        // Postfix predicate forms.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(ExprAst::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = {
            // `x NOT BETWEEN/LIKE/IN ...`
            if self.at_kw("not")
                && self
                    .tokens
                    .get(self.pos + 1)
                    .map(|t| t.is_kw("between") || t.is_kw("like") || t.is_kw("in"))
                    .unwrap_or(false)
            {
                self.pos += 1;
                true
            } else {
                false
            }
        };
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(ExprAst::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("like") {
            match self.next() {
                Some(Token::Str(p)) => {
                    return Ok(ExprAst::Like {
                        expr: Box::new(left),
                        pattern: p.clone(),
                        negated,
                    })
                }
                other => {
                    return Err(SqlError::Parse(format!(
                        "LIKE requires a string pattern, found {other:?}"
                    )))
                }
            }
        }
        if self.eat_kw("in") {
            return self.in_tail(left, negated);
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT".into()));
        }

        // Comparison operators.
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::NotEq)) => Some(BinOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::LtEq)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::GtEq)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(ExprAst::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    /// `left [NOT] IN` is parsed; the parenthesized subquery or list follows.
    fn in_tail(&mut self, left: ExprAst, negated: bool) -> Result<ExprAst> {
        self.expect_sym(Sym::LParen)?;
        if self.at_kw("select") || self.at_kw("with") {
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(ExprAst::InSubquery {
                expr: Box::new(left),
                query: Box::new(q),
                negated,
            });
        }
        let mut list = Vec::new();
        loop {
            list.push(self.expr()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(ExprAst::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    fn additive(&mut self) -> Result<ExprAst> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_sym(Sym::Plus) {
                BinOp::Add
            } else if self.eat_sym(Sym::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = ExprAst::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<ExprAst> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_sym(Sym::Star) {
                BinOp::Mul
            } else if self.eat_sym(Sym::Slash) {
                BinOp::Div
            } else if self.eat_sym(Sym::Percent) {
                BinOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = ExprAst::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<ExprAst> {
        if self.eat_sym(Sym::Minus) {
            return Ok(ExprAst::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<ExprAst> {
        let literal = match self.peek().cloned() {
            Some(Token::Ident(id)) => return self.ident_led(id),
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                return self.parenthesized();
            }
            Some(Token::Int(v)) => ExprAst::Int(v),
            Some(Token::Float(v)) => ExprAst::Float(v),
            Some(Token::Str(s)) => ExprAst::Str(s),
            other => return Err(SqlError::Parse(format!("unexpected token {other:?}"))),
        };
        self.pos += 1;
        Ok(literal)
    }

    /// After `(`: a scalar subquery or a parenthesized expression.
    fn parenthesized(&mut self) -> Result<ExprAst> {
        if self.at_kw("select") || self.at_kw("with") {
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(ExprAst::ScalarSubquery(Box::new(q)));
        }
        let e = self.expr()?;
        self.expect_sym(Sym::RParen)?;
        Ok(e)
    }

    /// An expression led by the identifier `id` (not yet consumed): a
    /// keyword form, an aggregate call, or a (possibly qualified) column.
    fn ident_led(&mut self, id: String) -> Result<ExprAst> {
        let keyword_forms: [(&str, KeywordForm<'a>); 6] = [
            ("date", Self::date_literal),
            ("interval", Self::interval),
            ("case", Self::case),
            ("extract", Self::extract_year),
            ("substring", Self::substring),
            ("substr", Self::substring),
        ];
        if let Some((_, form)) = keyword_forms
            .iter()
            .find(|(kw, _)| id.eq_ignore_ascii_case(kw))
        {
            self.pos += 1;
            return form(self);
        }
        let agg = match id.to_ascii_lowercase().as_str() {
            "count" => Some(AstAggFunc::Count),
            "sum" => Some(AstAggFunc::Sum),
            "min" => Some(AstAggFunc::Min),
            "max" => Some(AstAggFunc::Max),
            "avg" => Some(AstAggFunc::Avg),
            _ => None,
        };
        if let Some(func) = agg {
            if self.tokens.get(self.pos + 1) == Some(&Token::Symbol(Sym::LParen)) {
                self.pos += 2;
                return self.aggregate_call(func);
            }
        }
        self.pos += 1;
        let mut parts = vec![id];
        while self.eat_sym(Sym::Dot) {
            parts.push(self.ident()?);
        }
        Ok(ExprAst::Ident(parts))
    }

    /// After `DATE`: its string literal.
    fn date_literal(&mut self) -> Result<ExprAst> {
        match self.next() {
            Some(Token::Str(s)) => Ok(ExprAst::Date(s.clone())),
            other => Err(SqlError::Parse(format!(
                "DATE requires a string literal, found {other:?}"
            ))),
        }
    }

    /// After `INTERVAL`: a quoted count and a unit.
    fn interval(&mut self) -> Result<ExprAst> {
        let value = match self.next() {
            Some(Token::Str(s)) => s
                .trim()
                .parse::<i64>()
                .map_err(|e| SqlError::Parse(format!("bad interval value: {e}")))?,
            other => {
                return Err(SqlError::Parse(format!(
                    "INTERVAL requires a quoted count, found {other:?}"
                )))
            }
        };
        let unit_word = self.ident()?.to_ascii_lowercase();
        let unit = match unit_word.trim_end_matches('s') {
            "day" => IntervalUnit::Day,
            "month" => IntervalUnit::Month,
            "year" => IntervalUnit::Year,
            other => {
                return Err(SqlError::Parse(format!(
                    "unsupported interval unit {other}"
                )))
            }
        };
        Ok(ExprAst::Interval { value, unit })
    }

    /// After `CASE`: `WHEN … THEN …` branches, an optional `ELSE`, `END`.
    fn case(&mut self) -> Result<ExprAst> {
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        let otherwise = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(ExprAst::Case {
            branches,
            otherwise,
        })
    }

    /// After `EXTRACT`: `(YEAR FROM expr)`.
    fn extract_year(&mut self) -> Result<ExprAst> {
        self.expect_sym(Sym::LParen)?;
        self.expect_kw("year")?;
        self.expect_kw("from")?;
        let e = self.expr()?;
        self.expect_sym(Sym::RParen)?;
        Ok(ExprAst::ExtractYear(Box::new(e)))
    }

    /// After `SUBSTRING`: `(expr FROM a FOR b)` or `(expr, a, b)`.
    fn substring(&mut self) -> Result<ExprAst> {
        self.expect_sym(Sym::LParen)?;
        let e = self.expr()?;
        let (start, len) = if self.eat_kw("from") {
            let s = self.int_literal()?;
            self.expect_kw("for")?;
            let l = self.int_literal()?;
            (s, l)
        } else {
            self.expect_sym(Sym::Comma)?;
            let s = self.int_literal()?;
            self.expect_sym(Sym::Comma)?;
            let l = self.int_literal()?;
            (s, l)
        };
        self.expect_sym(Sym::RParen)?;
        Ok(ExprAst::Substring {
            expr: Box::new(e),
            start: start as usize,
            len: len as usize,
        })
    }

    /// After `func(`: `*`, or an optionally `DISTINCT` argument, then `)`.
    fn aggregate_call(&mut self, func: AstAggFunc) -> Result<ExprAst> {
        if self.eat_sym(Sym::Star) {
            self.expect_sym(Sym::RParen)?;
            return Ok(ExprAst::Agg {
                func,
                arg: None,
                distinct: false,
            });
        }
        let distinct = self.eat_kw("distinct");
        let arg = self.expr()?;
        self.expect_sym(Sym::RParen)?;
        Ok(ExprAst::Agg {
            func,
            arg: Some(Box::new(arg)),
            distinct,
        })
    }

    fn int_literal(&mut self) -> Result<i64> {
        match self.next() {
            Some(Token::Int(v)) => Ok(*v),
            other => Err(SqlError::Parse(format!(
                "expected integer, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(sql: &str) -> Query {
        parse_query(&tokenize(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_select() {
        let q = parse("select a, b as bee from t where a > 1 order by bee desc limit 5");
        assert_eq!(q.select.items.len(), 2);
        assert_eq!(q.select.items[1].alias.as_deref(), Some("bee"));
        assert!(q.select.where_clause.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].ascending);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = parse(
            "select g, sum(v), count(*), count(distinct v), avg(v) from t group by g having sum(v) > 10",
        );
        assert_eq!(q.select.group_by.len(), 1);
        assert!(q.select.having.is_some());
        assert!(matches!(
            q.select.items[3].expr,
            ExprAst::Agg {
                func: AstAggFunc::Count,
                distinct: true,
                ..
            }
        ));
    }

    #[test]
    fn comma_joins_and_aliases() {
        let q = parse("select x from nation n1, nation n2, region where n1.a = n2.a");
        assert_eq!(q.select.from.len(), 3);
        assert_eq!(q.select.from[0].base.binding_name(), "n1");
        assert_eq!(q.select.from[2].base.binding_name(), "region");
    }

    #[test]
    fn explicit_left_join() {
        let q = parse(
            "select c from customer left outer join orders on c_custkey = o_custkey and o_comment not like '%x%'",
        );
        let joins = &q.select.from[0].joins;
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].kind, AstJoinKind::Left);
    }

    #[test]
    fn date_interval_between() {
        let q = parse(
            "select x from t where d >= date '1994-01-01' and d < date '1994-01-01' + interval '1' year and v between 0.05 and 0.07",
        );
        let w = q.select.where_clause.unwrap();
        // Just check it parsed into a conjunction of three predicates.
        let mut count = 0;
        fn conjuncts(e: &ExprAst, n: &mut usize) {
            if let ExprAst::Binary {
                op: BinOp::And,
                left,
                right,
            } = e
            {
                conjuncts(left, n);
                conjuncts(right, n);
            } else {
                *n += 1;
            }
        }
        conjuncts(&w, &mut count);
        assert_eq!(count, 3);
    }

    #[test]
    fn subqueries() {
        let q = parse(
            "select x from t where exists (select * from u where u.k = t.k) and y in (select z from v) and p > (select avg(p) from t)",
        );
        let w = q.select.where_clause.unwrap();
        let rendered = format!("{w:?}");
        assert!(rendered.contains("Exists"));
        assert!(rendered.contains("InSubquery"));
        assert!(rendered.contains("ScalarSubquery"));
    }

    #[test]
    fn not_exists_and_not_in() {
        let q = parse(
            "select x from t where not exists (select * from u) and c not in ('a', 'b') and s not like 'x%'",
        );
        let rendered = format!("{:?}", q.select.where_clause.unwrap());
        assert!(rendered.contains("Exists { query"));
        assert!(rendered.contains("negated: true"));
    }

    #[test]
    fn case_extract_substring() {
        let q = parse(
            "select case when a = 1 then x else y end, extract(year from d), substring(p from 1 for 2), substr(p, 3, 4) from t",
        );
        assert_eq!(q.select.items.len(), 4);
        assert!(matches!(q.select.items[1].expr, ExprAst::ExtractYear(_)));
        assert!(matches!(
            q.select.items[2].expr,
            ExprAst::Substring {
                start: 1,
                len: 2,
                ..
            }
        ));
    }

    #[test]
    fn ctes_and_derived_tables() {
        let q = parse(
            "with rev as (select k, sum(v) as total from t group by k) select * from (select k from rev) sub",
        );
        assert_eq!(q.ctes.len(), 1);
        assert!(matches!(q.select.from[0].base, TableRef::Derived { .. }));
    }

    #[test]
    fn parenthesized_or_in_where() {
        let q = parse("select x from t where (a = 1 or b = 2) and c = 3");
        assert!(q.select.where_clause.is_some());
    }

    #[test]
    fn trailing_tokens_rejected() {
        let toks = tokenize("select x from t garbage trailing").unwrap();
        // `garbage` parses as alias of t, `trailing` is left over.
        assert!(parse_query(&toks).is_err());
    }
}
