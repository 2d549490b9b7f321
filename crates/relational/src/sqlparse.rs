//! A SQL parser for the executor's supported fragment.
//!
//! The paper's analysts submit SparkSQL text; this module parses the
//! fragment the engine executes into a [`LogicalPlan`]:
//!
//! ```sql
//! SELECT COUNT(*) | SUM(expr) | key, COUNT(*) | key, SUM(expr)
//! FROM table
//! [JOIN table ON col = col]...
//! [WHERE expr]
//! [GROUP BY key]
//! ```
//!
//! with expressions over columns, numeric/string/boolean literals,
//! comparisons (`= <> < <= > >=`), `AND`/`OR`/`NOT`, arithmetic
//! (`+ - * %`) and `IN (...)` lists. Keywords are case-insensitive.
//!
//! # Example
//!
//! ```
//! use upa_relational::sqlparse::parse_sql;
//! use upa_relational::LogicalPlan;
//! let plan = parse_sql(
//!     "SELECT COUNT(*) FROM orders \
//!      JOIN lineitem ON orders.orderkey = lineitem.orderkey \
//!      WHERE orders.orderdate < 100",
//! )
//! .unwrap();
//! assert!(matches!(plan, LogicalPlan::Aggregate { .. }));
//! ```

use crate::expr::Expr;
use crate::plan::LogicalPlan;
use crate::value::Value;

/// A SQL parse error with position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SQL parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(&'static str),
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    tokens: Vec<(Token, usize)>,
}

impl<'a> Lexer<'a> {
    fn tokenize(input: &'a str) -> Result<Vec<(Token, usize)>, ParseError> {
        let mut lx = Lexer {
            input,
            pos: 0,
            tokens: Vec::new(),
        };
        lx.run()?;
        Ok(lx.tokens)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn run(&mut self) -> Result<(), ParseError> {
        while self.pos < self.input.len() {
            let c = self.rest().chars().next().expect("pos < len");
            if c.is_whitespace() {
                self.pos += c.len_utf8();
                continue;
            }
            let start = self.pos;
            if c.is_ascii_alphabetic() || c == '_' {
                let end = self
                    .rest()
                    .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_' || ch == '.'))
                    .map(|o| self.pos + o)
                    .unwrap_or(self.input.len());
                let word = self.input[self.pos..end].to_string();
                self.pos = end;
                self.tokens.push((Token::Ident(word), start));
            } else if c.is_ascii_digit() {
                let end = self
                    .rest()
                    .find(|ch: char| !(ch.is_ascii_digit() || ch == '.'))
                    .map(|o| self.pos + o)
                    .unwrap_or(self.input.len());
                let text = &self.input[self.pos..end];
                self.pos = end;
                let token = if text.contains('.') {
                    Token::Float(
                        text.parse()
                            .map_err(|_| self.error(format!("bad number '{text}'")))?,
                    )
                } else {
                    Token::Int(
                        text.parse()
                            .map_err(|_| self.error(format!("bad number '{text}'")))?,
                    )
                };
                self.tokens.push((token, start));
            } else if c == '\'' {
                let body_start = self.pos + 1;
                let rel = self.input[body_start..]
                    .find('\'')
                    .ok_or_else(|| self.error("unterminated string literal"))?;
                let text = self.input[body_start..body_start + rel].to_string();
                self.pos = body_start + rel + 1;
                self.tokens.push((Token::Str(text), start));
            } else {
                let two = &self.rest()[..self.rest().len().min(2)];
                let sym: &'static str = match two {
                    "<=" => "<=",
                    ">=" => ">=",
                    "<>" => "<>",
                    "!=" => "<>",
                    _ => match c {
                        '(' => "(",
                        ')' => ")",
                        ',' => ",",
                        '*' => "*",
                        '=' => "=",
                        '<' => "<",
                        '>' => ">",
                        '+' => "+",
                        '-' => "-",
                        '%' => "%",
                        other => return Err(self.error(format!("unexpected character '{other}'"))),
                    },
                };
                self.pos += sym.len();
                self.tokens.push((Token::Symbol(sym), start));
            }
        }
        Ok(())
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self
                .tokens
                .get(self.pos)
                .map(|(_, p)| *p)
                .unwrap_or(self.input_len),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a case-insensitive keyword.
    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kw}")))
        }
    }

    fn symbol(&mut self, sym: &str) -> bool {
        if let Some(Token::Symbol(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.symbol(sym) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected '{sym}'")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(w)) => Ok(w),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error_here("expected an identifier"))
            }
        }
    }

    fn query(&mut self) -> Result<LogicalPlan, ParseError> {
        self.expect_keyword("SELECT")?;
        // Optional grouping column before the aggregate:
        // `SELECT key, COUNT(*) … GROUP BY key`.
        let group_col = if matches!(self.peek(), Some(Token::Ident(w))
            if !w.eq_ignore_ascii_case("COUNT") && !w.eq_ignore_ascii_case("SUM"))
        {
            let col = self.ident()?;
            if matches!(self.peek(), Some(Token::Symbol("("))) {
                // `AVG(x)` etc. — an unsupported aggregate, not a group key.
                return Err(self.error_here("expected COUNT(*) or SUM(expr)"));
            }
            self.expect_symbol(",")?;
            Some(col)
        } else {
            None
        };
        // Aggregate head.
        let sum_expr = if self.keyword("COUNT") {
            self.expect_symbol("(")?;
            self.expect_symbol("*")?;
            self.expect_symbol(")")?;
            None
        } else if self.keyword("SUM") {
            self.expect_symbol("(")?;
            let e = self.expr()?;
            self.expect_symbol(")")?;
            Some(e)
        } else {
            return Err(self.error_here("expected COUNT(*) or SUM(expr)"));
        };

        self.expect_keyword("FROM")?;
        let mut plan = LogicalPlan::scan(self.ident()?);
        while self.keyword("JOIN") {
            let table = self.ident()?;
            self.expect_keyword("ON")?;
            let left_key = self.ident()?;
            self.expect_symbol("=")?;
            let right_key = self.ident()?;
            plan = plan.join(LogicalPlan::scan(table), left_key, right_key);
        }
        if self.keyword("WHERE") {
            let predicate = self.expr()?;
            plan = plan.filter(predicate);
        }
        let group_by = if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            Some(self.ident()?)
        } else {
            None
        };
        if self.pos != self.tokens.len() {
            return Err(self.error_here("trailing input after query"));
        }
        let agg = match sum_expr {
            Some(e) => crate::plan::Aggregate::Sum(e),
            None => crate::plan::Aggregate::CountStar,
        };
        match (group_col, group_by) {
            (None, None) => Ok(LogicalPlan::Aggregate {
                input: Box::new(plan),
                agg,
            }),
            (Some(sel), Some(key)) => {
                if sel != key {
                    return Err(self.error_here(format!(
                        "selected column '{sel}' must match GROUP BY column '{key}'"
                    )));
                }
                Ok(plan.group_by(key, agg))
            }
            (Some(_), None) => Err(self.error_here("selected a column without GROUP BY")),
            (None, Some(_)) => Err(self.error_here("GROUP BY requires the key in the SELECT list")),
        }
    }

    // Precedence climbing: OR < AND < NOT < cmp/IN < add < mul.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.keyword("OR") {
            left = left.or(self.and_expr()?);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.keyword("AND") {
            left = left.and(self.not_expr()?);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.keyword("NOT") {
            Ok(self.not_expr()?.not())
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let left = self.add_expr()?;
        if self.keyword("IN") {
            self.expect_symbol("(")?;
            let mut values = vec![self.literal()?];
            while self.symbol(",") {
                values.push(self.literal()?);
            }
            self.expect_symbol(")")?;
            return Ok(left.in_list(values));
        }
        for (sym, build) in [
            ("<=", Expr::le as fn(Expr, Expr) -> Expr),
            (">=", Expr::ge),
            ("<>", Expr::ne),
            ("=", Expr::eq),
            ("<", Expr::lt),
            (">", Expr::gt),
        ] {
            if self.symbol(sym) {
                let right = self.add_expr()?;
                return Ok(build(left, right));
            }
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            if self.symbol("+") {
                left = left.add(self.mul_expr()?);
            } else if self.symbol("-") {
                left = left.sub(self.mul_expr()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        loop {
            if self.symbol("*") {
                left = left.mul(self.unary_expr()?);
            } else if self.symbol("%") {
                left = left.modulo(self.unary_expr()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.symbol("(") {
            let e = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        match self.peek() {
            Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                Ok(Expr::lit(self.literal()?))
            }
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => {
                self.pos += 1;
                Ok(Expr::lit(Value::Bool(true)))
            }
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => {
                self.pos += 1;
                Ok(Expr::lit(Value::Bool(false)))
            }
            Some(Token::Ident(_)) => Ok(Expr::col(self.ident()?)),
            _ => Err(self.error_here("expected an expression")),
        }
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(s)) => Ok(Value::str(s)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(w)) if w.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error_here("expected a literal"))
            }
        }
    }
}

/// Parses one SQL statement into a [`LogicalPlan`].
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte position for malformed input or
/// constructs outside the supported fragment.
pub fn parse_sql(sql: &str) -> Result<LogicalPlan, ParseError> {
    let tokens = Lexer::tokenize(sql)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        input_len: sql.len(),
    };
    parser.query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Catalog;
    use crate::value::{Relation, Row, Schema};
    use dataflow::Context;

    #[test]
    fn parses_plain_count() {
        let plan = parse_sql("SELECT COUNT(*) FROM lineitem").unwrap();
        assert_eq!(plan, LogicalPlan::scan("lineitem").count());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let a = parse_sql("select count(*) from t where x > 1").unwrap();
        let b = parse_sql("SELECT COUNT(*) FROM t WHERE x > 1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parses_join_and_where() {
        let plan = parse_sql(
            "SELECT COUNT(*) FROM orders \
             JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             WHERE orders.orderdate >= 730 AND orders.orderdate < 820",
        )
        .unwrap();
        let LogicalPlan::Aggregate { input, .. } = plan else {
            panic!("expected a COUNT root, got {plan:?}");
        };
        let LogicalPlan::Filter { input, .. } = *input else {
            panic!("expected the WHERE filter, got {input:?}");
        };
        assert!(matches!(*input, LogicalPlan::Join { .. }), "{input:?}");
    }

    #[test]
    fn parses_sum_with_arithmetic() {
        let plan =
            parse_sql("SELECT SUM(extendedprice * discount) FROM lineitem WHERE quantity < 24.0")
                .unwrap();
        match plan {
            LogicalPlan::Aggregate { .. } => {}
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn parses_in_list_not_and_precedence() {
        let plan = parse_sql(
            "SELECT COUNT(*) FROM part WHERE size IN (1, 4, 9) AND NOT brand = 12 OR typ % 5 <> 0",
        )
        .unwrap();
        // OR binds loosest: (IN AND NOT =) OR (<>).
        match plan {
            LogicalPlan::Aggregate { input, .. } => match *input {
                LogicalPlan::Filter { predicate, .. } => match predicate {
                    Expr::Or(_, _) => {}
                    other => panic!("expected OR at top, got {other:?}"),
                },
                other => panic!("expected filter, got {other:?}"),
            },
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn reports_errors_with_position() {
        for (sql, needle) in [
            ("", "expected SELECT"),
            ("SELECT AVG(x) FROM t", "COUNT(*) or SUM"),
            ("SELECT COUNT(*) FROM", "identifier"),
            ("SELECT COUNT(*) FROM t WHERE", "expression"),
            ("SELECT COUNT(*) FROM t extra", "trailing"),
            ("SELECT COUNT(*) FROM t WHERE x = 'oops", "unterminated"),
            ("SELECT COUNT(*) FROM t WHERE x ~ 1", "unexpected character"),
        ] {
            let err = parse_sql(sql).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{sql}: expected '{needle}' in '{}'",
                err.message
            );
        }
    }

    #[test]
    fn parsed_plans_execute() {
        let ctx = Context::with_threads(2);
        let mut catalog = Catalog::new();
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Float((i % 10) as f64)])
            .collect();
        catalog.register(Relation::from_rows(
            &ctx,
            Schema::new("t", &["k", "v"]),
            rows,
            2,
        ));
        let count = parse_sql("SELECT COUNT(*) FROM t WHERE t.v >= 5.0").unwrap();
        assert_eq!(catalog.execute(&count).unwrap().as_scalar().unwrap(), 50.0);
        let sum = parse_sql("SELECT SUM(v * 2.0) FROM t WHERE k < 10").unwrap();
        assert_eq!(
            catalog.execute(&sum).unwrap().as_scalar().unwrap(),
            (0..10).map(|i| (i % 10) as f64 * 2.0).sum::<f64>()
        );
        let joined = parse_sql("SELECT COUNT(*) FROM t JOIN t ON t.k = t.k").unwrap();
        assert_eq!(
            catalog.execute(&joined).unwrap().as_scalar().unwrap(),
            100.0
        );
    }

    #[test]
    fn string_literals_compare() {
        let ctx = Context::with_threads(1);
        let mut catalog = Catalog::new();
        catalog.register(Relation::from_rows(
            &ctx,
            Schema::new("t", &["name"]),
            vec![vec![Value::str("alice")], vec![Value::str("bob")]],
            1,
        ));
        let plan = parse_sql("SELECT COUNT(*) FROM t WHERE name = 'alice'").unwrap();
        assert_eq!(catalog.execute(&plan).unwrap().as_scalar().unwrap(), 1.0);
    }

    #[test]
    fn parses_group_by() {
        let plan = parse_sql("SELECT grp, COUNT(*) FROM t WHERE v > 1 GROUP BY grp").unwrap();
        match plan {
            LogicalPlan::GroupBy { key, .. } => assert_eq!(key, "grp"),
            other => panic!("expected group-by, got {other:?}"),
        }
        let sum = parse_sql("SELECT grp, SUM(v) FROM t GROUP BY grp").unwrap();
        assert!(matches!(sum, LogicalPlan::GroupBy { .. }));
    }

    #[test]
    fn group_by_shape_errors() {
        assert!(parse_sql("SELECT grp, COUNT(*) FROM t")
            .unwrap_err()
            .message
            .contains("without GROUP BY"));
        assert!(parse_sql("SELECT COUNT(*) FROM t GROUP BY grp")
            .unwrap_err()
            .message
            .contains("requires the key"));
        assert!(parse_sql("SELECT a, COUNT(*) FROM t GROUP BY b")
            .unwrap_err()
            .message
            .contains("must match"));
    }

    #[test]
    fn group_by_executes() {
        let ctx = Context::with_threads(2);
        let mut catalog = Catalog::new();
        let rows: Vec<Row> = (0..90)
            .map(|i| vec![Value::Int(i % 3), Value::Float(i as f64)])
            .collect();
        catalog.register(Relation::from_rows(
            &ctx,
            Schema::new("t", &["grp", "v"]),
            rows,
            2,
        ));
        let plan = parse_sql("SELECT grp, COUNT(*) FROM t GROUP BY grp").unwrap();
        let out = catalog.execute(&plan).unwrap();
        let rel = out.as_rows().unwrap();
        assert_eq!(rel.len(), 3);
        for row in rel.data().collect() {
            assert_eq!(row[1], Value::Float(30.0));
        }
    }
}
