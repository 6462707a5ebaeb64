//! Recursive-descent parser for the WOL concrete syntax.
//!
//! Grammar (informally):
//!
//! ```text
//! program  := clause* EOF
//! clause   := (LABEL ':')? atoms ('<=' atoms)? ';'
//! atoms    := atom (',' atom)*
//! atom     := term 'in' CLASS
//!           | term 'member' term
//!           | term ('=' | '!=' | '<' | '=<') term
//! term     := primary ('.' LABEL)*
//! primary  := 'Mk_' CLASS '(' skolem_args ')'
//!           | 'ins_' LABEL '(' term? ')'
//!           | IDENT                              -- a variable
//!           | STRING | INT | REAL | 'true' | 'false'
//!           | '(' LABEL '=' term (',' LABEL '=' term)* ')'   -- record term
//!           | '(' term ')'
//! skolem_args := /* empty */
//!              | term (',' term)*
//!              | LABEL '=' term (',' LABEL '=' term)*
//! ```
//!
//! Identifiers starting with `Mk_` and `ins_` are reserved for Skolem and
//! variant-injection terms respectively (the paper's `Mk^C` and `ins_a`).

use wol_model::ClassName;

use crate::ast::{Atom, Clause, SkolemArgs, Term};
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Spanned, Token};
use crate::Result;

/// Parse a whole program: a sequence of clauses terminated by `;`.
pub fn parse_program(input: &str) -> Result<Vec<Clause>> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut clauses = Vec::new();
    while !parser.at_eof() {
        clauses.push(parser.clause()?);
    }
    Ok(clauses)
}

/// Parse a single clause (the trailing `;` is optional).
pub fn parse_clause(input: &str) -> Result<Clause> {
    let tokens = lex(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let clause = parser.clause_allow_missing_semi()?;
    if !parser.at_eof() {
        return Err(parser.error("unexpected trailing input after clause"));
    }
    Ok(clause)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        if self.pos + 1 < self.tokens.len() {
            &self.tokens[self.pos + 1].token
        } else {
            &Token::Eof
        }
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn error(&self, message: impl Into<String>) -> LangError {
        LangError::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<()> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {}", self.peek())))
        }
    }

    fn clause(&mut self) -> Result<Clause> {
        let clause = self.clause_allow_missing_semi()?;
        self.expect(&Token::Semicolon, "`;` at end of clause")?;
        Ok(clause)
    }

    fn clause_allow_missing_semi(&mut self) -> Result<Clause> {
        // Optional clause label: IDENT ':'
        let label = match (self.peek(), self.peek2()) {
            (Token::Ident(l), Token::Colon) => {
                let l = l.clone();
                self.bump();
                self.bump(); // colon
                Some(l)
            }
            _ => None,
        };

        let head = self.atoms()?;
        let body = if matches!(self.peek(), Token::Arrow) {
            self.bump();
            // An empty body after the arrow is permitted (unconditional fact).
            if matches!(self.peek(), Token::Semicolon | Token::Eof) {
                Vec::new()
            } else {
                self.atoms()?
            }
        } else {
            Vec::new()
        };
        // Consume optional trailing semicolon handled by callers.
        let mut clause = Clause::new(head, body);
        clause.label = label;
        Ok(clause)
    }

    fn atoms(&mut self) -> Result<Vec<Atom>> {
        let mut out = vec![self.atom()?];
        while matches!(self.peek(), Token::Comma) {
            self.bump();
            out.push(self.atom()?);
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<Atom> {
        let left = self.term()?;
        match self.peek().clone() {
            Token::KwIn => {
                self.bump();
                let class = self.class_name()?;
                Ok(Atom::Member(left, class))
            }
            Token::KwMember => {
                self.bump();
                let right = self.term()?;
                Ok(Atom::InSet(left, right))
            }
            Token::Eq => {
                self.bump();
                let right = self.term()?;
                Ok(Atom::Eq(left, right))
            }
            Token::Neq => {
                self.bump();
                let right = self.term()?;
                Ok(Atom::Neq(left, right))
            }
            Token::Lt => {
                self.bump();
                let right = self.term()?;
                Ok(Atom::Lt(left, right))
            }
            Token::Leq => {
                self.bump();
                let right = self.term()?;
                Ok(Atom::Leq(left, right))
            }
            other => Err(self.error(format!(
                "expected `in`, `member`, `=`, `!=`, `<` or `=<` after term, found {other}"
            ))),
        }
    }

    fn class_name(&mut self) -> Result<ClassName> {
        match self.bump() {
            Token::Ident(s) => Ok(ClassName::new(s)),
            other => Err(self.error(format!("expected a class name, found {other}"))),
        }
    }

    fn term(&mut self) -> Result<Term> {
        let mut t = self.primary()?;
        while matches!(self.peek(), Token::Dot) {
            self.bump();
            match self.bump() {
                Token::Ident(label) => {
                    t = t.proj(label);
                }
                other => {
                    return Err(self.error(format!(
                        "expected an attribute label after `.`, found {other}"
                    )))
                }
            }
        }
        Ok(t)
    }

    fn primary(&mut self) -> Result<Term> {
        match self.peek().clone() {
            Token::Ident(name) => {
                // Skolem term?
                if let Some(class) = name.strip_prefix("Mk_") {
                    if matches!(self.peek2(), Token::LParen) {
                        self.bump(); // ident
                        self.bump(); // lparen
                        let args = self.skolem_args()?;
                        self.expect(&Token::RParen, "`)` after Skolem arguments")?;
                        return Ok(Term::Skolem(ClassName::new(class), args));
                    }
                }
                // Variant injection?
                if let Some(label) = name.strip_prefix("ins_") {
                    if matches!(self.peek2(), Token::LParen) {
                        self.bump(); // ident
                        self.bump(); // lparen
                        if matches!(self.peek(), Token::RParen) {
                            self.bump();
                            return Ok(Term::tag(label));
                        }
                        let payload = self.term()?;
                        self.expect(&Token::RParen, "`)` after variant payload")?;
                        return Ok(Term::variant(label, payload));
                    }
                }
                // Otherwise a plain variable.
                self.bump();
                Ok(Term::Var(name))
            }
            Token::Str(s) => {
                self.bump();
                Ok(Term::str(s))
            }
            Token::Int(i) => {
                self.bump();
                Ok(Term::int(i))
            }
            Token::Real(r) => {
                self.bump();
                Ok(Term::Const(wol_model::Value::real(r)))
            }
            Token::KwTrue => {
                self.bump();
                Ok(Term::bool(true))
            }
            Token::KwFalse => {
                self.bump();
                Ok(Term::bool(false))
            }
            Token::LParen => {
                self.bump();
                // Record term `(a = t, ...)` or a parenthesised term.
                if matches!(self.peek(), Token::Ident(_)) && matches!(self.peek2(), Token::Eq) {
                    let mut fields = Vec::new();
                    loop {
                        let label = match self.bump() {
                            Token::Ident(l) => l,
                            other => {
                                return Err(
                                    self.error(format!("expected a field label, found {other}"))
                                )
                            }
                        };
                        self.expect(&Token::Eq, "`=` in record field")?;
                        let value = self.term()?;
                        fields.push((label, value));
                        if matches!(self.peek(), Token::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(&Token::RParen, "`)` after record term")?;
                    Ok(Term::Record(fields))
                } else {
                    let inner = self.term()?;
                    self.expect(&Token::RParen, "`)` after parenthesised term")?;
                    Ok(inner)
                }
            }
            other => Err(self.error(format!("expected a term, found {other}"))),
        }
    }

    fn skolem_args(&mut self) -> Result<SkolemArgs> {
        if matches!(self.peek(), Token::RParen) {
            return Ok(SkolemArgs::Positional(Vec::new()));
        }
        // Named args if the first argument looks like `label = ...`.
        if matches!(self.peek(), Token::Ident(_)) && matches!(self.peek2(), Token::Eq) {
            let mut fields = Vec::new();
            loop {
                let label = match self.bump() {
                    Token::Ident(l) => l,
                    other => {
                        return Err(self.error(format!("expected an argument label, found {other}")))
                    }
                };
                self.expect(&Token::Eq, "`=` in named Skolem argument")?;
                let value = self.term()?;
                fields.push((label, value));
                if matches!(self.peek(), Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            Ok(SkolemArgs::Named(fields))
        } else {
            let mut args = vec![self.term()?];
            while matches!(self.peek(), Token::Comma) {
                self.bump();
                args.push(self.term()?);
            }
            Ok(SkolemArgs::Positional(args))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::Value;

    #[test]
    fn parse_clause_c1() {
        // Clause (C1): X.state = Y <= Y in StateA, X = Y.capital;
        let c = parse_clause("X.state = Y <= Y in StateA, X = Y.capital").unwrap();
        assert_eq!(c.head.len(), 1);
        assert_eq!(c.body.len(), 2);
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("X").proj("state"), Term::var("Y"))
        );
        assert_eq!(
            c.body[0],
            Atom::Member(Term::var("Y"), ClassName::new("StateA"))
        );
        assert_eq!(
            c.body[1],
            Atom::Eq(Term::var("X"), Term::var("Y").proj("capital"))
        );
    }

    #[test]
    fn parse_clause_t1() {
        let c = parse_clause(
            "X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE",
        )
        .unwrap();
        assert_eq!(c.head.len(), 4);
        assert_eq!(c.body.len(), 1);
    }

    #[test]
    fn parse_clause_t2_with_variant() {
        let c = parse_clause(
            "Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
             <= E in CityE, X in CountryT, X.name = E.country.name",
        )
        .unwrap();
        assert_eq!(
            c.head[2],
            Atom::Eq(
                Term::var("Y").proj("place"),
                Term::variant("euro_city", Term::var("X"))
            )
        );
        // E.country.name parses as a nested projection.
        assert_eq!(
            c.body[2],
            Atom::Eq(
                Term::var("X").proj("name"),
                Term::var("E").path("country.name")
            )
        );
    }

    #[test]
    fn parse_skolem_positional_and_named() {
        let c = parse_clause("Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name").unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("Y"), Term::skolem("CountryT", [Term::var("N")]))
        );

        let c = parse_clause(
            "X = Mk_CityT(name = N, country = C) <= X in CityT, N = X.name, C = X.country",
        )
        .unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(
                Term::var("X"),
                Term::skolem_named(
                    "CityT",
                    [("name", Term::var("N")), ("country", Term::var("C"))]
                )
            )
        );
    }

    #[test]
    fn parse_dataless_variant() {
        // Clause (T6): X in Male, X.name = N <= Y in Person, Y.name = N, Y.sex = ins_male();
        let c =
            parse_clause("X in Male, X.name = N <= Y in Person, Y.name = N, Y.sex = ins_male()")
                .unwrap();
        assert_eq!(
            c.body[2],
            Atom::Eq(Term::var("Y").proj("sex"), Term::tag("male"))
        );
    }

    #[test]
    fn parse_boolean_and_string_constants() {
        let c = parse_clause(
            "P.currency = \"US-Dollars\", P.language = \"English\" <= S in StateT, S.flag = true",
        )
        .unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("P").proj("currency"), Term::str("US-Dollars"))
        );
        assert_eq!(
            c.body[1],
            Atom::Eq(Term::var("S").proj("flag"), Term::bool(true))
        );
    }

    #[test]
    fn parse_constraint_without_body() {
        let c = parse_clause("X.name = \"default\"").unwrap();
        assert!(c.body.is_empty());
        assert_eq!(c.head.len(), 1);
    }

    #[test]
    fn parse_empty_body_after_arrow() {
        let c = parse_clause("X.name = \"default\" <= ").unwrap();
        assert!(c.body.is_empty());
    }

    #[test]
    fn parse_labelled_clauses_in_program() {
        let program = parse_program(
            "T1: X in CountryT, X.name = E.name <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n",
        )
        .unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program[0].label.as_deref(), Some("T1"));
        assert_eq!(program[1].label.as_deref(), Some("C3"));
    }

    #[test]
    fn parse_record_term() {
        let c = parse_clause(
            "X.key = (name = N, country_name = C) <= X in CityT, N = X.name, C = X.country.name",
        )
        .unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(
                Term::var("X").proj("key"),
                Term::record([("name", Term::var("N")), ("country_name", Term::var("C"))])
            )
        );
    }

    #[test]
    fn parse_parenthesised_term() {
        let c = parse_clause("X = (Y.capital) <= Y in StateA").unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("X"), Term::var("Y").proj("capital"))
        );
    }

    #[test]
    fn parse_comparisons_and_membership() {
        let c = parse_clause("X < Y.population, X =< Z, X != W, E member S <= X in CityA").unwrap();
        assert_eq!(c.head.len(), 4);
        assert!(matches!(c.head[0], Atom::Lt(_, _)));
        assert!(matches!(c.head[1], Atom::Leq(_, _)));
        assert!(matches!(c.head[2], Atom::Neq(_, _)));
        assert!(matches!(c.head[3], Atom::InSet(_, _)));
    }

    #[test]
    fn parse_real_and_int_constants() {
        let c = parse_clause("X.lat = 48.85, X.pop = 2000000 <= X in CityE").unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("X").proj("lat"), Term::Const(Value::real(48.85)))
        );
        assert_eq!(
            c.head[1],
            Atom::Eq(Term::var("X").proj("pop"), Term::int(2_000_000))
        );
    }

    #[test]
    fn missing_semicolon_in_program_fails() {
        assert!(parse_program("X = Y <= Y in StateA").is_err());
    }

    #[test]
    fn trailing_tokens_after_clause_fail() {
        assert!(parse_clause("X = Y <= Y in StateA; Z = W").is_err());
    }

    #[test]
    fn missing_operator_fails() {
        let err = parse_clause("X Y <= Z in C").unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }));
    }

    #[test]
    fn error_mentions_offset() {
        match parse_clause("X = ") {
            Err(LangError::Parse { offset, .. }) => assert!(offset >= 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_in_programs() {
        let program = parse_program(
            "// constraint from Figure 1\nC1: X.state = Y <= Y in StateA, X = Y.capital;\n",
        )
        .unwrap();
        assert_eq!(program.len(), 1);
        assert_eq!(program[0].label.as_deref(), Some("C1"));
    }

    #[test]
    fn skolem_without_parens_is_a_variable() {
        // `Mk_CountryT` not followed by `(` is just an identifier/variable.
        let c = parse_clause("X = Mk_CountryT <= X in CityT").unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(Term::var("X"), Term::var("Mk_CountryT"))
        );
    }

    #[test]
    fn empty_skolem_args() {
        let c = parse_clause("X = Mk_Singleton() <= Y in CountryE").unwrap();
        assert_eq!(
            c.head[0],
            Atom::Eq(
                Term::var("X"),
                Term::skolem("Singleton", Vec::<Term>::new())
            )
        );
    }
}
