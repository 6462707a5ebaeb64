//! Transformation programs.
//!
//! "A transformation program consists of a finite set of transformation
//! clauses and constraints for some source and target database schemas"
//! (Section 3.2). A [`Program`] packages the clauses together with the source
//! schema(s), the target schema and their key specifications, classifies each
//! clause (source constraint, target constraint, or transformation clause),
//! and runs the well-formedness checks of `crate::typecheck` and
//! `crate::range` over every clause.

use std::collections::BTreeSet;

use wol_model::{ClassName, KeySpec, Schema};

use crate::ast::{Clause, ClauseId};
use crate::error::LangError;
use crate::parser::parse_program;
use crate::range::check_range_restricted;
use crate::typecheck::check_clause_types;
use crate::Result;

/// How the Morphase pipeline classifies a clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClauseRole {
    /// A constraint mentioning only source classes.
    SourceConstraint,
    /// A constraint mentioning only target classes (key constraints on the
    /// target play a central part in normalisation).
    TargetConstraint,
    /// A clause mentioning target classes in its head and (possibly) both
    /// source and target classes in its body: a transformation clause.
    Transformation,
}

/// A schema together with its (possibly empty) key specification.
#[derive(Clone, Debug, PartialEq)]
pub struct SchemaBinding {
    /// The schema.
    pub schema: Schema,
    /// Surrogate keys for (some of) the schema's classes.
    pub keys: KeySpec,
}

impl SchemaBinding {
    /// A binding with no keys.
    pub fn new(schema: Schema) -> Self {
        SchemaBinding {
            schema,
            keys: KeySpec::new(),
        }
    }

    /// A binding with keys.
    pub fn keyed(schema: Schema, keys: KeySpec) -> Self {
        SchemaBinding { schema, keys }
    }
}

/// A WOL transformation program: source schemas, a target schema, and clauses.
#[derive(Clone, Debug)]
pub struct Program {
    /// Human-readable name of the program.
    pub name: String,
    /// The source database schemas the program reads from.
    pub sources: Vec<SchemaBinding>,
    /// The target database schema the program populates.
    pub target: SchemaBinding,
    /// The clauses (constraints and transformation clauses).
    pub clauses: Vec<Clause>,
}

impl Program {
    /// Create an empty program.
    pub fn new(
        name: impl Into<String>,
        sources: Vec<SchemaBinding>,
        target: SchemaBinding,
    ) -> Self {
        Program {
            name: name.into(),
            sources,
            target,
            clauses: Vec::new(),
        }
    }

    /// Append a clause.
    pub fn add_clause(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// Append clauses parsed from program text in the concrete syntax.
    pub fn add_text(&mut self, text: &str) -> Result<()> {
        let clauses = parse_program(text)?;
        self.clauses.extend(clauses);
        Ok(())
    }

    /// Builder-style variant of [`add_text`](Self::add_text) for program
    /// text fixed at compile time; text from outside the program goes
    /// through the fallible [`add_text`](Self::add_text).
    ///
    /// # Panics
    ///
    /// If `text` does not parse.
    // The one stated panic of this crate: a parse failure here is a bug in
    // the program text written into the calling code, not bad input.
    #[allow(clippy::expect_used)]
    pub fn with_text(mut self, text: &str) -> Self {
        self.add_text(text).expect("program text must parse");
        self
    }

    /// All target class names.
    pub fn target_classes(&self) -> BTreeSet<ClassName> {
        self.target.schema.class_names().into_iter().collect()
    }

    /// The schemas visible to the program's clauses (sources then target).
    pub fn schemas(&self) -> Vec<&Schema> {
        let mut out: Vec<&Schema> = self.sources.iter().map(|b| &b.schema).collect();
        out.push(&self.target.schema);
        out
    }

    /// Classify a clause into source constraint / target constraint /
    /// transformation clause, based on which schemas its classes come from.
    ///
    /// The head of a transformation clause does not always mention a target
    /// class syntactically (the paper's clause (T3) has head `X.capital = Y`
    /// with both variables bound in the body), so classification also type
    /// checks the clause and looks at the classes of the head's variables.
    pub fn classify(&self, clause: &Clause) -> ClauseRole {
        let target_classes = self.target_classes();
        let mut head_targets = clause
            .head_classes()
            .iter()
            .any(|c| target_classes.contains(c));
        if !head_targets {
            if let Ok(env) = check_clause_types(clause, &self.schemas()) {
                let mut head_vars = std::collections::BTreeSet::new();
                for atom in &clause.head {
                    atom.variables(&mut head_vars);
                }
                head_targets = head_vars.iter().any(|v| {
                    matches!(env.get(v), Some(wol_model::Type::Class(c)) if target_classes.contains(c))
                });
            }
        }
        let mentions_source = clause
            .mentioned_classes()
            .iter()
            .any(|c| !target_classes.contains(c));
        let mentions_target = clause
            .mentioned_classes()
            .iter()
            .any(|c| target_classes.contains(c))
            || head_targets;
        if head_targets && mentions_source {
            ClauseRole::Transformation
        } else if mentions_target && !mentions_source {
            ClauseRole::TargetConstraint
        } else if mentions_source && !mentions_target {
            ClauseRole::SourceConstraint
        } else if head_targets {
            // Mentions only target classes but has a head over the target:
            // still a constraint on the target database.
            ClauseRole::TargetConstraint
        } else {
            ClauseRole::SourceConstraint
        }
    }

    /// The transformation clauses, with their identifiers.
    pub fn transformation_clauses(&self) -> Vec<(ClauseId, &Clause)> {
        self.enumerate()
            .filter(|(_, c)| self.classify(c) == ClauseRole::Transformation)
            .collect()
    }

    /// The source constraints, with their identifiers.
    pub fn source_constraints(&self) -> Vec<(ClauseId, &Clause)> {
        self.enumerate()
            .filter(|(_, c)| self.classify(c) == ClauseRole::SourceConstraint)
            .collect()
    }

    /// The target constraints, with their identifiers.
    pub fn target_constraints(&self) -> Vec<(ClauseId, &Clause)> {
        self.enumerate()
            .filter(|(_, c)| self.classify(c) == ClauseRole::TargetConstraint)
            .collect()
    }

    fn enumerate(&self) -> impl Iterator<Item = (ClauseId, &Clause)> {
        self.clauses.iter().enumerate().map(|(i, c)| {
            let id = match &c.label {
                Some(l) => ClauseId::labelled(i, l.clone()),
                None => ClauseId::new(i),
            };
            (id, c)
        })
    }

    /// Validate the program: schemas must be valid, every clause must be
    /// well-typed against the program's schemas and range-restricted, and
    /// every class mentioned must belong to some schema.
    pub fn validate(&self) -> Result<()> {
        for binding in self.sources.iter().chain(std::iter::once(&self.target)) {
            binding.schema.validate().map_err(LangError::from)?;
        }
        let schemas = self.schemas();
        let known: BTreeSet<ClassName> = schemas.iter().flat_map(|s| s.class_names()).collect();
        for (id, clause) in self.enumerate() {
            for class in clause.mentioned_classes() {
                if !known.contains(&class) {
                    return Err(LangError::Schema(format!(
                        "clause {} mentions class `{class}` which is not declared in any schema",
                        id.describe()
                    )));
                }
            }
            check_clause_types(clause, &schemas).map_err(|e| match e {
                LangError::Type { message, .. } => LangError::Type {
                    clause: id.describe(),
                    message,
                },
                other => other,
            })?;
            check_range_restricted(clause).map_err(|e| match e {
                LangError::RangeRestriction { unbound, .. } => LangError::RangeRestriction {
                    clause: id.describe(),
                    unbound,
                },
                other => other,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::{KeyExpr, Type};

    fn euro_schema() -> Schema {
        Schema::new("euro")
            .with_class(
                "CityE",
                Type::record([
                    ("name", Type::str()),
                    ("is_capital", Type::bool()),
                    ("country", Type::class("CountryE")),
                ]),
            )
            .with_class(
                "CountryE",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                ]),
            )
    }

    fn target_schema() -> Schema {
        Schema::new("target")
            .with_class(
                "CountryT",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                ]),
            )
            .with_class(
                "CityT",
                Type::record([("name", Type::str()), ("country", Type::class("CountryT"))]),
            )
    }

    fn sample_program() -> Program {
        Program::new(
            "euro_to_target",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::keyed(
                target_schema(),
                KeySpec::new().with_key("CountryT", KeyExpr::path("name")),
            ),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;\n\
             T2: Y in CityT, Y.name = E.name, Y.country = X <= E in CityE, X in CountryT, X.name = E.country.name;",
        )
    }

    #[test]
    fn classification_matches_paper_roles() {
        let p = sample_program();
        let roles: Vec<ClauseRole> = p.clauses.iter().map(|c| p.classify(c)).collect();
        assert_eq!(
            roles,
            vec![
                ClauseRole::Transformation,
                ClauseRole::TargetConstraint,
                ClauseRole::SourceConstraint,
                ClauseRole::Transformation,
            ]
        );
        assert_eq!(p.transformation_clauses().len(), 2);
        assert_eq!(p.source_constraints().len(), 1);
        assert_eq!(p.target_constraints().len(), 1);
    }

    #[test]
    fn program_validates() {
        assert!(sample_program().validate().is_ok());
    }

    #[test]
    fn validation_reports_unknown_class_with_clause_id() {
        let mut p = sample_program();
        p.add_text("X in Nowhere, X.name = E.name <= E in CountryE;")
            .unwrap();
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("Nowhere"));
    }

    #[test]
    fn validation_reports_ill_typed_clause() {
        let mut p = sample_program();
        p.add_text("bad: X in CountryT, X.name = E.is_capital <= E in CityE;")
            .unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, LangError::Type { .. }));
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn validation_reports_unrestricted_clause() {
        let mut p = sample_program();
        p.add_text("loose: X in CountryT, N != X.name <= E in CountryE;")
            .unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, LangError::RangeRestriction { .. }));
    }

    #[test]
    fn source_and_target_classes() {
        let p = sample_program();
        assert!(p.target_classes().contains(&ClassName::new("CountryT")));
        assert_eq!(p.schemas().len(), 2);
    }

    #[test]
    fn invalid_schema_rejected() {
        let bad = Schema::new("bad").with_class("A", Type::record([("x", Type::class("Missing"))]));
        let p = Program::new(
            "p",
            vec![SchemaBinding::new(bad)],
            SchemaBinding::new(target_schema()),
        );
        assert!(matches!(p.validate().unwrap_err(), LangError::Schema(_)));
    }
}
