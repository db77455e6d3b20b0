//! SQL tokenizer.

use crate::{Result, SqlError};

/// A SQL token. Keywords are lexed as `Ident` and matched
/// case-insensitively by the parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original case preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
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

impl Token {
    /// True if this token is the keyword `kw` (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if chars.get(i + 1) == Some(&'-') => {
                // line comment
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '\'' => out.push(string_literal(&chars, &mut i)?),
            c if c.is_ascii_digit() => out.push(number(&chars, &mut i)?),
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
            }
            _ => {
                let (sym, advance) = match (c, chars.get(i + 1)) {
                    ('<', Some('=')) => (Sym::LtEq, 2),
                    ('<', Some('>')) => (Sym::NotEq, 2),
                    ('>', Some('=')) => (Sym::GtEq, 2),
                    ('!', Some('=')) => (Sym::NotEq, 2),
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

/// The quoted string starting at `chars[*i]` (`''` is an escaped quote),
/// leaving `*i` past its closing quote.
fn string_literal(chars: &[char], i: &mut usize) -> Result<Token> {
    let mut s = String::new();
    *i += 1;
    loop {
        match chars.get(*i) {
            Some('\'') if chars.get(*i + 1) == Some(&'\'') => {
                s.push('\'');
                *i += 2;
            }
            Some('\'') => {
                *i += 1;
                return Ok(Token::Str(s));
            }
            Some(&ch) => {
                s.push(ch);
                *i += 1;
            }
            None => return Err(SqlError::Lex("unterminated string".into())),
        }
    }
}

/// The integer or decimal starting at `chars[*i]`, leaving `*i` past it.
fn number(chars: &[char], i: &mut usize) -> Result<Token> {
    let digits = |i: &mut usize| {
        while chars.get(*i).is_some_and(char::is_ascii_digit) {
            *i += 1;
        }
    };
    let start = *i;
    digits(i);
    let is_float =
        chars.get(*i) == Some(&'.') && chars.get(*i + 1).is_some_and(char::is_ascii_digit);
    if is_float {
        *i += 1;
        digits(i);
    }
    let text: String = chars[start..*i].iter().collect();
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

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a # b").is_err());
    }
}
