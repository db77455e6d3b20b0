//! SQL tokenizer.
//!
//! Tokens borrow from the SQL text: an identifier is a slice of it, and a
//! string literal is one too unless it contains a `''` escape, which is the
//! only case that copies.

use crate::{Result, SqlError};
use std::borrow::Cow;

/// A SQL token over the text it was lexed from. Keywords are lexed as
/// `Ident` and matched case-insensitively by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (original case preserved).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Dot,
}

impl Token<'_> {
    /// True if this token is the keyword `kw` (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = sql[i..].chars().next() {
        let next = sql.as_bytes().get(i + 1).copied();
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            // A line comment runs to the newline, which is whitespace.
            '-' if next == Some(b'-') => i = sql[i..].find('\n').map_or(sql.len(), |n| i + n),
            '\'' => out.push(string_literal(sql, &mut i)?),
            c if c.is_ascii_digit() => out.push(number(sql, &mut i)?),
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                i += ascii_run(&sql[i..], |b| b.is_ascii_alphanumeric() || b == b'_');
                out.push(Token::Ident(&sql[start..i]));
            }
            _ => {
                let (sym, advance) = match (c, next) {
                    ('<', Some(b'=')) => (Sym::LtEq, 2),
                    ('<', Some(b'>')) => (Sym::NotEq, 2),
                    ('>', Some(b'=')) => (Sym::GtEq, 2),
                    ('!', Some(b'=')) => (Sym::NotEq, 2),
                    ('(', _) => (Sym::LParen, 1),
                    (')', _) => (Sym::RParen, 1),
                    (',', _) => (Sym::Comma, 1),
                    (';', _) => (Sym::Semicolon, 1),
                    ('*', _) => (Sym::Star, 1),
                    ('+', _) => (Sym::Plus, 1),
                    ('-', _) => (Sym::Minus, 1),
                    ('/', _) => (Sym::Slash, 1),
                    ('%', _) => (Sym::Percent, 1),
                    ('=', _) => (Sym::Eq, 1),
                    ('<', _) => (Sym::Lt, 1),
                    ('>', _) => (Sym::Gt, 1),
                    ('.', _) => (Sym::Dot, 1),
                    _ => return Err(SqlError::Lex(format!("unexpected character {c:?}"))),
                };
                out.push(Token::Symbol(sym));
                i += advance;
            }
        }
    }
    Ok(out)
}

/// Length of the prefix of `s` whose bytes all satisfy `keep` (an ASCII
/// class, so the prefix ends on a character boundary).
fn ascii_run(s: &str, keep: impl Fn(u8) -> bool) -> usize {
    s.bytes().position(|b| !keep(b)).unwrap_or(s.len())
}

/// The quoted string starting at `sql[*i]` (`''` is an escaped quote),
/// leaving `*i` past its closing quote. Borrowed unless it holds an escape.
fn string_literal<'a>(sql: &'a str, i: &mut usize) -> Result<Token<'a>> {
    let body = *i + 1;
    let (mut run, mut escaped) = (body, None::<String>);
    loop {
        let quote = match sql[run..].find('\'') {
            Some(q) => run + q,
            None => return Err(SqlError::Lex("unterminated string".into())),
        };
        if sql.as_bytes().get(quote + 1) == Some(&b'\'') {
            // Keep the run up to and including one of the two quotes.
            escaped
                .get_or_insert_with(String::new)
                .push_str(&sql[run..=quote]);
            run = quote + 2;
            continue;
        }
        *i = quote + 1;
        let text = match escaped {
            None => Cow::Borrowed(&sql[body..quote]),
            Some(mut s) => {
                s.push_str(&sql[run..quote]);
                Cow::Owned(s)
            }
        };
        return Ok(Token::Str(text));
    }
}

/// The integer or decimal starting at `sql[*i]`, leaving `*i` past it.
fn number<'a>(sql: &'a str, i: &mut usize) -> Result<Token<'a>> {
    let digits = |at: usize| at + ascii_run(&sql[at..], |b| b.is_ascii_digit());
    let start = *i;
    *i = digits(start);
    let bytes = sql.as_bytes();
    let is_float =
        bytes.get(*i) == Some(&b'.') && bytes.get(*i + 1).is_some_and(u8::is_ascii_digit);
    if is_float {
        *i = digits(*i + 1);
    }
    let text = &sql[start..*i];
    let bad =
        |kind: &str, e: &dyn std::fmt::Display| SqlError::Lex(format!("bad {kind} {text}: {e}"));
    if is_float {
        text.parse().map(Token::Float).map_err(|e| bad("float", &e))
    } else {
        text.parse().map(Token::Int).map_err(|e| bad("int", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_mixed_query() {
        let toks = tokenize(
            "select l_orderkey, sum(x) -- comment\nfrom t where d >= date '1994-01-01' and p <> 'it''s'",
        )
        .unwrap();
        assert!(toks.iter().any(|t| t.is_kw("SELECT")));
        assert!(toks.contains(&Token::Str("1994-01-01".into())));
        assert!(toks.contains(&Token::Str("it's".into())));
        assert!(toks.contains(&Token::Symbol(Sym::GtEq)));
        assert!(toks.contains(&Token::Symbol(Sym::NotEq)));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 0.05 100").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(0.05),
                Token::Int(100)
            ]
        );
    }

    #[test]
    fn dotted_identifiers_stay_separate_tokens() {
        let toks = tokenize("n1.n_name").unwrap();
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1], Token::Symbol(Sym::Dot));
    }

    fn str_token(s: &str) -> Token<'_> {
        Token::Str(s.into())
    }

    #[test]
    fn quote_escapes_at_start_middle_and_end() {
        let toks = tokenize("'''a' 'a''b' 'a''' '''' ''").unwrap();
        assert_eq!(
            toks,
            vec![
                str_token("'a"),
                str_token("a'b"),
                str_token("a'"),
                str_token("'"),
                str_token(""),
            ]
        );
        // Only a literal with an escape owns its text.
        let owned: Vec<bool> = (toks.iter())
            .map(|t| matches!(t, Token::Str(Cow::Owned(_))))
            .collect();
        assert_eq!(owned, [true, true, true, true, false]);
    }

    #[test]
    fn utf8_literal_is_borrowed_whole() {
        let toks = tokenize("x = 'crème brûlée ✓'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("x"),
                Token::Symbol(Sym::Eq),
                str_token("crème brûlée ✓")
            ]
        );
        assert!(matches!(toks[2], Token::Str(Cow::Borrowed(_))));
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        let toks = tokenize("a\u{a0}b\u{2003}1\u{3000}<=\u{85}c").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a"),
                Token::Ident("b"),
                Token::Int(1),
                Token::Symbol(Sym::LtEq),
                Token::Ident("c"),
            ]
        );
    }

    #[test]
    fn comment_at_end_of_input() {
        let toks = tokenize("select 1 -- trailing, no newline").unwrap();
        assert_eq!(toks, vec![Token::Ident("select"), Token::Int(1)]);
        assert_eq!(tokenize("x--").unwrap(), vec![Token::Ident("x")]);
    }

    #[test]
    fn integer_then_dot_then_identifier() {
        assert_eq!(
            tokenize("1.x 2.5e").unwrap(),
            vec![
                Token::Int(1),
                Token::Symbol(Sym::Dot),
                Token::Ident("x"),
                Token::Float(2.5),
                Token::Ident("e"),
            ]
        );
    }

    #[test]
    fn errors() {
        let lex = |m: &str| Err(SqlError::Lex(m.into()));
        assert_eq!(tokenize("'unterminated"), lex("unterminated string"));
        assert_eq!(tokenize("'it''s"), lex("unterminated string"));
        assert_eq!(tokenize("a # b"), lex("unexpected character '#'"));
        assert_eq!(tokenize("é"), lex("unexpected character 'é'"));
    }
}
