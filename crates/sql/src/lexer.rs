//! SQL tokenizer.
//!
//! Tokens borrow the statement: a string literal is a slice of the text, a
//! symbol a `&'static str`, and an identifier allocates only when it has to
//! be lowercased. Tokenizing a statement therefore allocates its token
//! vector and one string per identifier written with capitals.

use pyro_common::{PyroError, Result};
use std::borrow::Cow;
use std::fmt::Write as _;

/// A lexical token, borrowing the SQL text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier, lowercased (SQL names are case-insensitive;
    /// the parser matches keywords against their lowercase spelling).
    Ident(Cow<'a, str>),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single quotes), without its quotes.
    Str(&'a str),
    /// Punctuation / operator.
    Symbol(&'static str),
    /// A `?` parameter placeholder, numbered 0-based in text order.
    Param(usize),
}

/// The operators, two-character spellings first; `!=` is read as `<>`.
const SYMBOLS: [(&str, &str); 15] = [
    ("<=", "<="),
    (">=", ">="),
    ("<>", "<>"),
    ("!=", "<>"),
    ("(", "("),
    (")", ")"),
    (",", ","),
    (".", "."),
    ("*", "*"),
    ("=", "="),
    ("<", "<"),
    (">", ">"),
    ("+", "+"),
    ("-", "-"),
    ("/", "/"),
];

/// An identifier in lowercase, borrowed from the text when it has no
/// uppercase letter.
fn lowercase_ident(word: &str) -> Cow<'_, str> {
    if !word.bytes().any(|b| b.is_ascii_uppercase()) {
        return Cow::Borrowed(word);
    }
    Cow::Owned(word.to_ascii_lowercase())
}

/// Tokenizes SQL text. Error offsets count characters, not bytes.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    // SQL averages more than four bytes per token, so this rarely grows.
    let mut out = Vec::with_capacity(input.len() / 4);
    let mut i = 0;
    let mut params = 0;
    while i < bytes.len() {
        // Identifiers, numbers and operators are ASCII; a multi-byte
        // character is whitespace or an error.
        let c = input[i..].chars().next().expect("i is on a char boundary");
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        let word_end = |from: usize, part: fn(u8) -> bool| {
            from + bytes[from..].iter().take_while(|&&b| part(b)).count()
        };
        if c.is_ascii_alphabetic() || c == '_' {
            let end = word_end(i, |b| b.is_ascii_alphanumeric() || b == b'_');
            out.push(Token::Ident(lowercase_ident(&input[i..end])));
            i = end;
            continue;
        }
        if c.is_ascii_digit() {
            let end = word_end(i, |b| b.is_ascii_digit() || b == b'.');
            let text = &input[i..end];
            out.push(if text.contains('.') {
                Token::Float(
                    text.parse()
                        .map_err(|e| PyroError::Sql(format!("bad float {text}: {e}")))?,
                )
            } else {
                Token::Int(
                    text.parse()
                        .map_err(|e| PyroError::Sql(format!("bad int {text}: {e}")))?,
                )
            });
            i = end;
            continue;
        }
        if c == '\'' {
            let Some(len) = input[i + 1..].find('\'') else {
                return Err(PyroError::Sql("unterminated string literal".into()));
            };
            out.push(Token::Str(&input[i + 1..i + 1 + len]));
            i += len + 2;
            continue;
        }
        if c == '?' {
            out.push(Token::Param(params));
            params += 1;
            i += 1;
            continue;
        }
        if let Some(&(text, symbol)) = SYMBOLS
            .iter()
            .find(|(text, _)| input[i..].starts_with(text))
        {
            out.push(Token::Symbol(symbol));
            i += text.len();
            continue;
        }
        return Err(PyroError::Sql(format!(
            "unexpected character {c:?} at offset {}",
            input[..i].chars().count()
        )));
    }
    Ok(out)
}

/// Renders SQL text in canonical token form — keywords and identifiers
/// lowercased, every token separated by exactly one space — so texts that
/// differ only in whitespace or keyword case map to the same string. This
/// is the plan cache's notion of query identity: syntactic, not semantic
/// (`a = 1` and `1 = a` stay distinct keys).
pub fn normalize(sql: &str) -> Result<String> {
    let mut out = String::with_capacity(sql.len());
    for (i, t) in tokenize(sql)?.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = match t {
            Token::Ident(s) => out.write_str(s),
            Token::Int(v) => write!(out, "{v}"),
            // `{:?}` keeps the fraction ("4.0"), so a float literal can
            // never collide with the integer of the same value.
            Token::Float(v) => write!(out, "{v:?}"),
            Token::Str(s) => write!(out, "'{s}'"),
            Token::Symbol(s) => out.write_str(s),
            Token::Param(_) => out.write_str("?"),
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let t = tokenize("SELECT a, b FROM t WHERE x = 'O' AND y >= 4.5").unwrap();
        assert_eq!(t[0], Token::Ident("select".into()));
        assert!(t.contains(&Token::Str("O")));
        assert!(t.contains(&Token::Symbol(">=")));
        assert!(t.contains(&Token::Float(4.5)));
    }

    #[test]
    fn qualified_names_split_on_dot() {
        let t = tokenize("t1.c4").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("t1".into()),
                Token::Symbol("."),
                Token::Ident("c4".into())
            ]
        );
    }

    #[test]
    fn not_equal_normalized() {
        let t = tokenize("a != b").unwrap();
        assert!(t.contains(&Token::Symbol("<>")));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn weird_chars_error() {
        assert!(tokenize("a ; b").is_err());
    }

    #[test]
    fn params_numbered_in_text_order() {
        let t = tokenize("a = ? AND b > ?").unwrap();
        assert_eq!(t[2], Token::Param(0));
        assert_eq!(t[6], Token::Param(1));
    }

    #[test]
    fn normalize_collapses_case_and_whitespace() {
        let a = normalize("SELECT  a FROM t WHERE x = ?  AND y = 'O'").unwrap();
        let b = normalize("select a from t where x=? and y='O'").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, "select a from t where x = ? and y = 'O'");
        // Float and int literals of the same value must stay distinct.
        assert_ne!(normalize("x = 4").unwrap(), normalize("x = 4.0").unwrap());
    }
}
