//! Lexer for the WOL concrete syntax.
//!
//! The syntax is line-oriented only in that `//` comments run to the end of
//! the line; whitespace is otherwise insignificant. Identifiers may contain
//! ASCII letters, digits and underscores and must start with a letter or an
//! underscore.

use crate::error::LangError;
use crate::token::{Spanned, Token};
use crate::Result;

/// Tokenise the input, returning the tokens with their byte offsets.
/// A trailing [`Token::Eof`] is always appended.
pub(crate) fn lex(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        // Skip whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Skip `//` comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        match c {
            ',' => {
                tokens.push(Spanned {
                    token: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Spanned {
                    token: Token::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Spanned {
                    token: Token::Dot,
                    offset: start,
                });
                i += 1;
            }
            ':' => {
                tokens.push(Spanned {
                    token: Token::Colon,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Spanned {
                    token: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned {
                    token: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned {
                        token: Token::Neq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(LangError::Lex {
                        offset: start,
                        message: "expected `!=`".to_string(),
                    });
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'<') {
                    tokens.push(Spanned {
                        token: Token::Leq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Spanned {
                        token: Token::Eq,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned {
                        token: Token::Arrow,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Spanned {
                        token: Token::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '"' => {
                let mut out = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(LangError::Lex {
                                offset: start,
                                message: "unterminated string literal".to_string(),
                            })
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            // Simple escapes: \" \\ \n \t
                            match bytes.get(i + 1) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                other => {
                                    return Err(LangError::Lex {
                                        offset: i,
                                        message: format!("unsupported escape sequence: {other:?}"),
                                    })
                                }
                            }
                            i += 2;
                        }
                        Some(&b) => {
                            out.push(b as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Spanned {
                    token: Token::Str(out),
                    offset: start,
                });
            }
            c if c.is_ascii_digit()
                || (c == '-'
                    && bytes
                        .get(i + 1)
                        .map(|b| (*b as char).is_ascii_digit())
                        .unwrap_or(false)) =>
            {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                // A real literal: digits '.' digits (the '.' must be followed
                // by a digit, otherwise it is a projection dot).
                let is_real = j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && (bytes[j + 1] as char).is_ascii_digit();
                if is_real {
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                    let text = &input[i..j];
                    let value: f64 = text.parse().map_err(|_| LangError::Lex {
                        offset: start,
                        message: format!("invalid real literal `{text}`"),
                    })?;
                    tokens.push(Spanned {
                        token: Token::Real(value),
                        offset: start,
                    });
                } else {
                    let text = &input[i..j];
                    let value: i64 = text.parse().map_err(|_| LangError::Lex {
                        offset: start,
                        message: format!("invalid integer literal `{text}`"),
                    })?;
                    tokens.push(Spanned {
                        token: Token::Int(value),
                        offset: start,
                    });
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let cj = bytes[j] as char;
                    if cj.is_ascii_alphanumeric() || cj == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..j];
                let token = match text {
                    "in" => Token::KwIn,
                    "member" => Token::KwMember,
                    "true" | "True" => Token::KwTrue,
                    "false" | "False" => Token::KwFalse,
                    _ => Token::Ident(text.to_string()),
                };
                tokens.push(Spanned {
                    token,
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(LangError::Lex {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    tokens.push(Spanned {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Token> {
        lex(input).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lex_clause_t1_fragment() {
        let toks = kinds("X in CountryT, X.name = E.name <= E in CountryE;");
        assert_eq!(
            toks,
            vec![
                Token::Ident("X".into()),
                Token::KwIn,
                Token::Ident("CountryT".into()),
                Token::Comma,
                Token::Ident("X".into()),
                Token::Dot,
                Token::Ident("name".into()),
                Token::Eq,
                Token::Ident("E".into()),
                Token::Dot,
                Token::Ident("name".into()),
                Token::Arrow,
                Token::Ident("E".into()),
                Token::KwIn,
                Token::Ident("CountryE".into()),
                Token::Semicolon,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_literals() {
        assert_eq!(
            kinds(r#""US-Dollars" 42 -7 3.5 true False"#),
            vec![
                Token::Str("US-Dollars".into()),
                Token::Int(42),
                Token::Int(-7),
                Token::Real(3.5),
                Token::KwTrue,
                Token::KwFalse,
                Token::Eof
            ]
        );
    }

    #[test]
    fn projection_dot_vs_real() {
        // `X.1` style is not real syntax but `X.name` must not lex as a real.
        assert_eq!(
            kinds("X.population = 1.5"),
            vec![
                Token::Ident("X".into()),
                Token::Dot,
                Token::Ident("population".into()),
                Token::Eq,
                Token::Real(1.5),
                Token::Eof
            ]
        );
    }

    #[test]
    fn arrow_vs_comparisons() {
        assert_eq!(
            kinds("X < Y, X =< Y, X != Y <= Z = W"),
            vec![
                Token::Ident("X".into()),
                Token::Lt,
                Token::Ident("Y".into()),
                Token::Comma,
                Token::Ident("X".into()),
                Token::Leq,
                Token::Ident("Y".into()),
                Token::Comma,
                Token::Ident("X".into()),
                Token::Neq,
                Token::Ident("Y".into()),
                Token::Arrow,
                Token::Ident("Z".into()),
                Token::Eq,
                Token::Ident("W".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("X = Y // this is clause C1\n<= Y in StateA;");
        assert!(toks.contains(&Token::Arrow));
        assert_eq!(
            toks.iter().filter(|t| matches!(t, Token::Ident(_))).count(),
            4
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\\c\nd""#),
            vec![Token::Str("a\"b\\c\nd".into()), Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_fails() {
        assert!(matches!(lex(r#""abc"#), Err(LangError::Lex { .. })));
    }

    #[test]
    fn unexpected_character_fails() {
        assert!(matches!(lex("X @ Y"), Err(LangError::Lex { .. })));
        assert!(matches!(lex("X ! Y"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn skolem_and_variant_idents() {
        let toks = kinds("X = Mk_CountryT(N), Y.place = ins_euro_city(X)");
        assert!(toks.contains(&Token::Ident("Mk_CountryT".into())));
        assert!(toks.contains(&Token::Ident("ins_euro_city".into())));
    }

    #[test]
    fn offsets_recorded() {
        let spanned = lex("X = Y").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 2);
        assert_eq!(spanned[2].offset, 4);
    }
}
