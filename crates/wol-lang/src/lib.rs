//! # wol-lang
//!
//! The WOL language front end (Section 3 of the paper).
//!
//! A WOL *program* is a finite set of *clauses* `head <= body`, where head and
//! body are sets of *atoms*. Atoms state basic logical facts about *terms*:
//! class membership (`X in CityE`), equality (`X.name = E.name`), variant
//! injection (`Y.place = ins_euro_city(X)`), Skolem object creation
//! (`X = Mk_CountryT(N)`), comparisons, and set membership.
//!
//! This crate provides:
//!
//! * the abstract syntax ([`ast`]),
//! * a concrete textual syntax with a lexer ([`lexer`]) and parser ([`parser`]),
//! * a pretty printer ([`pretty`]) that renders clauses back in that syntax,
//! * the two well-formedness analyses the paper requires of clauses:
//!   **well-typedness** ([`typecheck`]) and **range-restriction** ([`range`]),
//! * program-level structure and classification of clauses into constraints and
//!   transformation clauses ([`program`]).
//!
//! The concrete syntax used throughout the workspace:
//!
//! ```text
//! // Clause (T1) of the paper:
//! X in CountryT, X.name = E.name, X.language = E.language,
//!     X.currency = E.currency
//!   <= E in CountryE;
//!
//! // Key constraint (C3):
//! Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;
//!
//! // Variant injection and Boolean constants:
//! Y.place = ins_euro_city(X) <= E in CityE, E.is_capital = true;
//! ```

// Malformed program text is a `LangError`, never a panic. `Program::with_text`
// is the one stated exception (see its `# Panics`); the lint holds the rest.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod range;
pub mod token;
pub mod typecheck;

pub use ast::{Atom, Clause, ClauseId, SkolemArgs, Term, Var};
pub use error::LangError;
pub use parser::{parse_clause, parse_program};
pub use pretty::{render_atom, render_clause, render_program, render_term};
pub use program::{ClauseKind, ClauseRole, Program, SchemaBinding};
pub use range::check_range_restricted;
pub use typecheck::{check_clause_types, TypeEnv};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LangError>;
