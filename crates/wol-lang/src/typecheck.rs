//! Well-typedness of WOL clauses (Section 3.1).
//!
//! "A clause is said to be well-typed iff we can assign types to all the
//! variables in the clause in such a way that all the atoms of the clause make
//! sense." The checker infers a type environment for the clause's variables by
//! propagating type information between the two sides of each atom until a
//! fixpoint is reached, then verifies consistency. The paper's example of an
//! ill-typed clause — `X < Y.population` together with `X in CityA` — is
//! rejected because `X` would need to be both an integer and an object of
//! class `CityA`. Every round reads the schemas' types by reference: a
//! projection clones only the projected field's type, never the record it
//! projects from (normalisation re-checks every clause this way).

use std::collections::BTreeMap;

use wol_model::{BaseType, ClassName, Schema, Type, Value};

use crate::ast::{Atom, Clause, Term};
use crate::error::LangError;
use crate::Result;

/// A typing of the variables of a clause.
pub type TypeEnv = BTreeMap<String, Type>;

/// Look up a class's value type across several schemas (WOL clauses may span
/// one or more source databases plus the target database).
fn class_type<'a>(schemas: &'a [&Schema], class: &ClassName) -> Option<&'a Type> {
    schemas.iter().find_map(|s| s.class_type(class))
}

fn class_exists(schemas: &[&Schema], class: &ClassName) -> bool {
    schemas.iter().any(|s| s.has_class(class))
}

/// Are two inferred types compatible? `Optional` wrappers are transparent.
fn compatible(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::Optional(x), y) => compatible(x, y),
        (x, Type::Optional(y)) => compatible(x, y),
        (x, y) => x == y,
    }
}

fn type_of_const(value: &Value) -> Option<Type> {
    match value {
        Value::Bool(_) => Some(Type::Base(BaseType::Bool)),
        Value::Int(_) => Some(Type::Base(BaseType::Int)),
        Value::Real(_) => Some(Type::Base(BaseType::Real)),
        Value::Str(_) => Some(Type::Base(BaseType::Str)),
        Value::Unit => Some(Type::Unit),
        Value::Oid(oid) => Some(Type::Class(oid.class().clone())),
        _ => None,
    }
}

/// The state of the inference pass.
struct Checker<'a> {
    schemas: &'a [&'a Schema],
    env: TypeEnv,
    clause_id: String,
    changed: bool,
}

impl<'a> Checker<'a> {
    fn error(&self, message: impl Into<String>) -> LangError {
        LangError::Type {
            clause: self.clause_id.clone(),
            message: message.into(),
        }
    }

    fn bind(&mut self, var: &str, ty: &Type) -> Result<()> {
        match self.env.get(var) {
            Some(existing) => {
                if !compatible(existing, ty) {
                    return Err(self.error(format!(
                        "variable {var} would need both type {} and type {}",
                        wol_model::display::render_type(existing),
                        wol_model::display::render_type(ty)
                    )));
                }
                Ok(())
            }
            None => {
                self.env.insert(var.to_string(), ty.clone());
                self.changed = true;
                Ok(())
            }
        }
    }

    /// Try to infer the type of a term from the current environment.
    /// Returns `Ok(None)` when not enough is known yet.
    fn infer(&mut self, term: &Term) -> Result<Option<Type>> {
        match term {
            Term::Var(v) => Ok(self.env.get(v).cloned()),
            Term::Const(value) => Ok(type_of_const(value)),
            Term::Proj(base, label) => {
                let Some(base_ty) = self.infer(base)? else {
                    return Ok(None);
                };
                // Dereference class types to their value type (and unwrap
                // optional wrappers) before projecting; `Optional(Class(C))`
                // needs both steps. The walk borrows the schema's type: only
                // the projected field's type is cloned.
                let mut record_ty = &base_ty;
                loop {
                    record_ty = match record_ty {
                        Type::Class(c) => class_type(self.schemas, c)
                            .ok_or_else(|| self.error(format!("unknown class `{c}`")))?,
                        Type::Optional(inner) => inner,
                        _ => break,
                    };
                }
                match record_ty.field(label) {
                    Some(t) => Ok(Some(t.clone())),
                    None => Err(self.error(format!(
                        "type {} has no attribute `{label}`",
                        wol_model::display::render_type(record_ty)
                    ))),
                }
            }
            Term::Record(fields) => {
                let mut tys = Vec::new();
                for (l, t) in fields {
                    match self.infer(t)? {
                        Some(ty) => tys.push((l.to_string(), ty)),
                        None => return Ok(None),
                    }
                }
                Ok(Some(Type::Record(tys)))
            }
            // A bare variant term's type cannot be inferred without an
            // expected variant type; it is handled by `check_against`.
            Term::Variant(_, _) => Ok(None),
            Term::Skolem(class, args) => {
                if !class_exists(self.schemas, class) {
                    return Err(
                        self.error(format!("Skolem term refers to unknown class `{class}`"))
                    );
                }
                // Argument terms need no particular type, but inferring them
                // may bind variables through record/projection structure.
                for t in args.terms() {
                    let _ = self.infer(t)?;
                }
                Ok(Some(Type::Class(class.clone())))
            }
        }
    }

    /// Push an expected type onto a term, binding variables where possible and
    /// reporting a mismatch where the term's type is already known.
    fn check_against(&mut self, term: &Term, expected: &Type) -> Result<()> {
        // Unwrap optionals: a term equated with an optional field has the
        // field's inner type.
        if let Type::Optional(inner) = expected {
            return self.check_against(term, inner);
        }
        match term {
            Term::Var(v) => self.bind(v, expected),
            Term::Const(value) => match type_of_const(value) {
                Some(actual) if compatible(&actual, expected) => Ok(()),
                Some(actual) => Err(self.error(format!(
                    "constant {} has type {} but {} was expected",
                    wol_model::display::render_value(value),
                    wol_model::display::render_type(&actual),
                    wol_model::display::render_type(expected)
                ))),
                None => Ok(()),
            },
            Term::Proj(_, _) => {
                if let Some(actual) = self.infer(term)? {
                    if !compatible(&actual, expected) {
                        return Err(self.error(format!(
                            "term {} has type {} but {} was expected",
                            crate::pretty::render_term(term),
                            wol_model::display::render_type(&actual),
                            wol_model::display::render_type(expected)
                        )));
                    }
                }
                Ok(())
            }
            Term::Record(fields) => match expected {
                Type::Record(expected_fields) => {
                    for (label, sub) in fields {
                        match expected_fields.iter().find(|(l, _)| l == label) {
                            Some((_, sub_ty)) => self.check_against(sub, sub_ty)?,
                            None => {
                                return Err(self.error(format!(
                                "record term has field `{label}` not present in expected type {}",
                                wol_model::display::render_type(expected)
                            )))
                            }
                        }
                    }
                    Ok(())
                }
                _ => Err(self.error(format!(
                    "record term used where {} was expected",
                    wol_model::display::render_type(expected)
                ))),
            },
            Term::Variant(label, payload) => match expected {
                Type::Variant(alts) => match alts.iter().find(|(l, _)| l == label) {
                    Some((_, alt_ty)) => self.check_against(payload, alt_ty),
                    None => Err(self.error(format!(
                        "variant alternative `{label}` is not part of expected type {}",
                        wol_model::display::render_type(expected)
                    ))),
                },
                _ => Err(self.error(format!(
                    "variant term ins_{label}(..) used where {} was expected",
                    wol_model::display::render_type(expected)
                ))),
            },
            Term::Skolem(class, _) => {
                let actual = Type::Class(class.clone());
                if !compatible(&actual, expected) {
                    return Err(self.error(format!(
                        "Skolem term Mk_{class}(..) has type {class} but {} was expected",
                        wol_model::display::render_type(expected)
                    )));
                }
                Ok(())
            }
        }
    }

    fn numeric(&mut self, term: &Term) -> Result<()> {
        if let Some(ty) = self.infer(term)? {
            let ok = matches!(ty, Type::Base(BaseType::Int) | Type::Base(BaseType::Real))
                || matches!(&ty, Type::Optional(inner)
                    if matches!(**inner, Type::Base(BaseType::Int) | Type::Base(BaseType::Real)));
            if !ok {
                return Err(self.error(format!(
                    "term {} has type {} but a numeric type was expected",
                    crate::pretty::render_term(term),
                    wol_model::display::render_type(&ty)
                )));
            }
        }
        Ok(())
    }

    fn check_atom(&mut self, atom: &Atom) -> Result<()> {
        match atom {
            Atom::Member(t, class) => {
                if !class_exists(self.schemas, class) {
                    return Err(self.error(format!("membership in unknown class `{class}`")));
                }
                self.check_against(t, &Type::Class(class.clone()))
            }
            Atom::Eq(s, t) | Atom::Neq(s, t) => {
                let ls = self.infer(s)?;
                let lt = self.infer(t)?;
                match (ls, lt) {
                    (Some(a), Some(b)) => {
                        if !compatible(&a, &b) {
                            return Err(self.error(format!(
                                "equated terms have incompatible types {} and {}",
                                wol_model::display::render_type(&a),
                                wol_model::display::render_type(&b)
                            )));
                        }
                        // Still push, so record/variant sub-terms bind their variables.
                        self.check_against(s, &b)?;
                        self.check_against(t, &a)
                    }
                    (Some(a), None) => self.check_against(t, &a),
                    (None, Some(b)) => self.check_against(s, &b),
                    (None, None) => Ok(()),
                }
            }
            Atom::Lt(s, t) | Atom::Leq(s, t) => {
                self.numeric(s)?;
                self.numeric(t)?;
                // Propagate a type from one side to the other when possible.
                if let Some(ty) = self.infer(s)? {
                    self.check_against(t, &ty)?;
                } else if let Some(ty) = self.infer(t)? {
                    self.check_against(s, &ty)?;
                }
                Ok(())
            }
            Atom::InSet(elem, set) => {
                if let Some(set_ty) = self.infer(set)? {
                    match set_ty {
                        Type::Set(elem_ty) | Type::List(elem_ty) => {
                            self.check_against(elem, &elem_ty)
                        }
                        other => Err(self.error(format!(
                            "`member` used on a term of non-set type {}",
                            wol_model::display::render_type(&other)
                        ))),
                    }
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Check a clause for well-typedness against the given schemas, returning the
/// inferred type environment.
///
/// Schemas are searched in order; typically callers pass all source schemas
/// plus the target schema. Variables that cannot be assigned any type are
/// reported as errors (such clauses are also not range-restricted, but the
/// dedicated message here is more helpful).
pub fn check_clause_types(clause: &Clause, schemas: &[&Schema]) -> Result<TypeEnv> {
    let clause_id = clause
        .label
        .clone()
        .unwrap_or_else(|| "<unlabelled>".to_string());
    let mut checker = Checker {
        schemas,
        env: TypeEnv::new(),
        clause_id,
        changed: true,
    };
    // Iterate to a fixpoint: information can flow in either direction through
    // equality atoms, so a single pass is not enough.
    let mut rounds = 0usize;
    while checker.changed {
        checker.changed = false;
        for atom in clause.body.iter().chain(clause.head.iter()) {
            checker.check_atom(atom)?;
        }
        rounds += 1;
        if rounds > clause.len() + 2 {
            break;
        }
    }
    // Every variable must have received a type.
    for var in clause.variables() {
        if !checker.env.contains_key(&var) {
            return Err(LangError::Type {
                clause: checker.clause_id.clone(),
                message: format!("no type can be assigned to variable {var}"),
            });
        }
    }
    Ok(checker.env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_clause;

    /// Source schema of Figure 2 (European cities and countries).
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

    /// Source schema of Figure 1 (US cities and states), with a population
    /// attribute added for the paper's typing example.
    fn us_schema() -> Schema {
        Schema::new("us")
            .with_class(
                "CityA",
                Type::record([
                    ("name", Type::str()),
                    ("state", Type::class("StateA")),
                    ("population", Type::int()),
                ]),
            )
            .with_class(
                "StateA",
                Type::record([("name", Type::str()), ("capital", Type::class("CityA"))]),
            )
    }

    /// Target schema of Figure 3.
    fn target_schema() -> Schema {
        Schema::new("target")
            .with_class(
                "CityT",
                Type::record([
                    ("name", Type::str()),
                    (
                        "place",
                        Type::variant([
                            ("state", Type::class("StateT")),
                            ("euro_city", Type::class("CountryT")),
                        ]),
                    ),
                ]),
            )
            .with_class(
                "CountryT",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                    ("capital", Type::class("CityT")),
                ]),
            )
            .with_class(
                "StateT",
                Type::record([("name", Type::str()), ("capital", Type::class("CityT"))]),
            )
    }

    #[test]
    fn clause_c1_is_well_typed() {
        let us = us_schema();
        let clause = parse_clause("X.state = Y <= Y in StateA, X = Y.capital").unwrap();
        let env = check_clause_types(&clause, &[&us]).unwrap();
        assert_eq!(env["X"], Type::class("CityA"));
        assert_eq!(env["Y"], Type::class("StateA"));
    }

    #[test]
    fn clause_t1_is_well_typed() {
        let euro = euro_schema();
        let target = target_schema();
        let clause = parse_clause(
            "X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
             <= E in CountryE",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        assert_eq!(env["X"], Type::class("CountryT"));
        assert_eq!(env["E"], Type::class("CountryE"));
    }

    #[test]
    fn clause_t2_with_variant_is_well_typed() {
        let euro = euro_schema();
        let target = target_schema();
        let clause = parse_clause(
            "Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
             <= E in CityE, X in CountryT, X.name = E.country.name",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        assert_eq!(env["Y"], Type::class("CityT"));
        assert_eq!(env["X"], Type::class("CountryT"));
        assert_eq!(env["E"], Type::class("CityE"));
    }

    #[test]
    fn papers_ill_typed_example_rejected() {
        // "a clause containing the atom X < Y.population ... and an atom
        //  X in CityA would not be well-typed."
        let us = us_schema();
        let clause =
            parse_clause("Z = Y.name <= X in CityA, Y in StateA, X < Y.population").unwrap();
        // StateA has no population; use CityA's population but force X to be
        // both a city and an integer.
        let clause2 =
            parse_clause("Z = Y.name <= X in CityA, Y in CityA, X < Y.population").unwrap();
        assert!(check_clause_types(&clause, &[&us]).is_err());
        assert!(check_clause_types(&clause2, &[&us]).is_err());
    }

    #[test]
    fn projection_of_unknown_attribute_rejected() {
        let euro = euro_schema();
        let clause = parse_clause("N = E.population <= E in CityE").unwrap();
        let err = check_clause_types(&clause, &[&euro]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type error in clause <unlabelled>: type (name: str, is_capital: bool, \
             country: CountryE) has no attribute `population`"
        );
    }

    #[test]
    fn unknown_class_rejected() {
        let euro = euro_schema();
        let clause = parse_clause("X in Nowhere <= E in CityE, X = E.name").unwrap();
        assert!(check_clause_types(&clause, &[&euro]).is_err());
        // A projection through a class an attribute type names but no
        // schema declares.
        let schema =
            Schema::new("s").with_class("Stray", Type::record([("home", Type::class("Nowhere"))]));
        let clause = parse_clause("N = S.home.name <= S in Stray").unwrap();
        let err = check_clause_types(&clause, &[&schema]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type error in clause <unlabelled>: unknown class `Nowhere`"
        );
    }

    #[test]
    fn skolem_terms_have_class_type() {
        let euro = euro_schema();
        let target = target_schema();
        let clause = parse_clause("Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name").unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        assert_eq!(env["Y"], Type::class("CountryT"));
        assert_eq!(env["N"], Type::str());
    }

    #[test]
    fn skolem_of_unknown_class_rejected() {
        let euro = euro_schema();
        let clause = parse_clause("Y = Mk_Nowhere(N) <= E in CountryE, N = E.name").unwrap();
        assert!(check_clause_types(&clause, &[&euro]).is_err());
    }

    #[test]
    fn variant_label_must_exist() {
        let euro = euro_schema();
        let target = target_schema();
        let clause = parse_clause("Y.place = ins_planet(X) <= Y in CityT, X in CountryT").unwrap();
        let err = check_clause_types(&clause, &[&euro, &target]).unwrap_err();
        assert!(err.to_string().contains("ins_planet") || err.to_string().contains("planet"));
    }

    #[test]
    fn constants_are_checked() {
        let euro = euro_schema();
        let good = parse_clause("B = E.is_capital <= E in CityE, E.is_capital = true").unwrap();
        assert!(check_clause_types(&good, &[&euro]).is_ok());
        let bad = parse_clause("B = E.is_capital <= E in CityE, E.name = 42").unwrap();
        assert!(check_clause_types(&bad, &[&euro]).is_err());
    }

    #[test]
    fn untypeable_variable_reported() {
        let euro = euro_schema();
        let clause = parse_clause("X = Y <= E in CityE").unwrap();
        let err = check_clause_types(&clause, &[&euro]).unwrap_err();
        assert!(err.to_string().contains("no type can be assigned"));
    }

    #[test]
    fn boolean_comparison_in_body() {
        let euro = euro_schema();
        let clause = parse_clause(
            "X = Y <= X in CityE, Y in CityE, X.country = Y.country, \
             X.is_capital = true, Y.is_capital = true",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro]).unwrap();
        assert_eq!(env["X"], Type::class("CityE"));
        assert_eq!(env["Y"], Type::class("CityE"));
    }

    #[test]
    fn numeric_comparison_well_typed() {
        let us = us_schema();
        let clause =
            parse_clause("N = X.name <= X in CityA, Y in CityA, X.population < Y.population")
                .unwrap();
        assert!(check_clause_types(&clause, &[&us]).is_ok());
    }

    #[test]
    fn optional_fields_are_transparent() {
        let schema = Schema::new("s").with_class(
            "Marker",
            Type::record([
                ("name", Type::str()),
                ("position", Type::optional(Type::int())),
            ]),
        );
        let clause = parse_clause("P = M.position <= M in Marker, P = 3").unwrap();
        let env = check_clause_types(&clause, &[&schema]).unwrap();
        assert_eq!(env["M"], Type::class("Marker"));
    }

    #[test]
    fn projection_walks_through_an_optional_class_reference() {
        let schema = Schema::new("s").with_class(
            "Person",
            Type::record([
                ("name", Type::str()),
                ("spouse", Type::optional(Type::class("Person"))),
            ]),
        );
        let clause = parse_clause("N = P.spouse.name <= P in Person").unwrap();
        let env = check_clause_types(&clause, &[&schema]).unwrap();
        assert_eq!(env["P"], Type::class("Person"));
        assert_eq!(env["N"], Type::str());
        let clause = parse_clause("N = P.spouse.age <= P in Person").unwrap();
        let err = check_clause_types(&clause, &[&schema]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type error in clause <unlabelled>: type (name: str, spouse: Person?) has no \
             attribute `age`"
        );
    }

    #[test]
    fn every_field_of_a_48_field_record_is_inferred() {
        let fields = (0..48).map(|i| {
            let ty = if i % 2 == 0 { Type::int() } else { Type::str() };
            (format!("f{i}"), ty)
        });
        let schema = Schema::new("s").with_class("Wide", Type::record(fields));
        let body: Vec<String> = (0..48).map(|i| format!("V{i} = S.f{i}")).collect();
        let clause = parse_clause(&format!("X = S <= S in Wide, {}", body.join(", "))).unwrap();
        let env = check_clause_types(&clause, &[&schema]).unwrap();
        assert_eq!(env.len(), 50);
        assert_eq!(env["S"], Type::class("Wide"));
        assert_eq!(env["X"], Type::class("Wide"));
        for i in 0..48 {
            let want = if i % 2 == 0 { Type::int() } else { Type::str() };
            assert_eq!(env[&format!("V{i}")], want, "V{i}");
        }
    }

    #[test]
    fn record_term_fields_checked() {
        let target = target_schema();
        let clause = parse_clause(
            "X = Mk_CityT(name = N, country = C) <= X in CityT, N = X.name, C in CountryT",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&target]).unwrap();
        assert_eq!(env["N"], Type::str());
        assert_eq!(env["C"], Type::class("CountryT"));
    }
}
