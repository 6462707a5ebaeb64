//! Tokens of the WOL concrete syntax.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Token {
    /// An identifier: a variable, class name, attribute label, or the prefix
    /// of a Skolem (`Mk_...`) or variant-injection (`ins_...`) term.
    Ident(String),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A real literal.
    Real(f64),
    /// The keyword `in` (class membership).
    KwIn,
    /// The keyword `member` (set membership).
    KwMember,
    /// The keyword `true`.
    KwTrue,
    /// The keyword `false`.
    KwFalse,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `=<` (less than or equal; `<=` is reserved for the clause arrow)
    Leq,
    /// `<=` — the clause arrow separating head from body.
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Str(s) => write!(f, "string literal {s:?}"),
            Token::Int(i) => write!(f, "integer literal {i}"),
            Token::Real(r) => write!(f, "real literal {r}"),
            Token::KwIn => write!(f, "`in`"),
            Token::KwMember => write!(f, "`member`"),
            Token::KwTrue => write!(f, "`true`"),
            Token::KwFalse => write!(f, "`false`"),
            Token::Comma => write!(f, "`,`"),
            Token::Semicolon => write!(f, "`;`"),
            Token::Dot => write!(f, "`.`"),
            Token::Colon => write!(f, "`:`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::Eq => write!(f, "`=`"),
            Token::Neq => write!(f, "`!=`"),
            Token::Lt => write!(f, "`<`"),
            Token::Leq => write!(f, "`=<`"),
            Token::Arrow => write!(f, "`<=`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with the byte offset where it starts.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset in the source text.
    pub offset: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_display() {
        assert_eq!(
            Token::Ident("CityE".into()).to_string(),
            "identifier `CityE`"
        );
        assert_eq!(Token::Arrow.to_string(), "`<=`");
        assert_eq!(Token::Leq.to_string(), "`=<`");
        assert_eq!(Token::Str("x".into()).to_string(), "string literal \"x\"");
        assert_eq!(Token::Eof.to_string(), "end of input");
    }
}
