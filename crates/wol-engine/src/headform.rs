//! Analysis of transformation-clause heads.
//!
//! A transformation clause's head describes (parts of) one or more objects of
//! target classes: their class membership, some of their attributes, and
//! possibly their identity via an explicit Skolem (`Mk_C`) equation. This
//! module extracts that structure once, for use by both the naive evaluator
//! ([`crate::semantics`]) and the normaliser ([`crate::normalize`](mod@crate::normalize)).

use std::collections::{BTreeMap, BTreeSet};

use wol_lang::ast::{Atom, Clause, SkolemArgs, Term, Var};
use wol_lang::TypeEnv;
use wol_model::{ClassName, Label, Type};

use crate::error::EngineError;
use crate::Result;

/// The head's description of a single target object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct HeadObject {
    /// The head variable denoting the object.
    pub var: Var,
    /// The target class the object belongs to.
    pub class: ClassName,
    /// `Some` if the head contains an explicit `var = Mk_C(args)` equation.
    pub explicit_key: Option<SkolemArgs>,
    /// Attribute assignments `var.attr = term` found in the head.
    pub attrs: BTreeMap<Label, Term>,
    /// Whether the head itself asserts `var in class` (a *creating*
    /// description); if false the object is identified by the body.
    pub member_in_head: bool,
}

/// The result of analysing a clause head.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct HeadAnalysis {
    /// Objects described by the head, in order of first appearance.
    pub objects: Vec<HeadObject>,
    /// Head atoms that do not describe target objects (rare in transformation
    /// clauses; they are treated as additional conditions to verify).
    pub residual: Vec<Atom>,
}

/// Is `ty` a class type belonging to the target?
fn target_class_of(ty: Option<&Type>, target_classes: &BTreeSet<ClassName>) -> Option<ClassName> {
    match ty {
        Some(Type::Class(c)) if target_classes.contains(c) => Some(c.clone()),
        _ => None,
    }
}

/// Analyse the head of a transformation clause.
///
/// `env` is the clause's inferred type environment (from
/// [`wol_lang::typecheck::check_clause_types`]) and `target_classes` the set of
/// classes belonging to the target schema.
pub(crate) fn analyze_head(
    clause: &Clause,
    env: &TypeEnv,
    target_classes: &BTreeSet<ClassName>,
) -> Result<HeadAnalysis> {
    let mut objects: Vec<HeadObject> = Vec::new();
    let mut residual = Vec::new();

    let mut ensure_object = |objects: &mut Vec<HeadObject>, var: &Var, class: ClassName| -> usize {
        if let Some(pos) = objects.iter().position(|o| &o.var == var) {
            pos
        } else {
            objects.push(HeadObject {
                var: *var,
                class,
                explicit_key: None,
                attrs: BTreeMap::new(),
                member_in_head: false,
            });
            objects.len() - 1
        }
    };

    for atom in &clause.head {
        match atom {
            Atom::Member(Term::Var(v), class) if target_classes.contains(class) => {
                let idx = ensure_object(&mut objects, v, class.clone());
                objects[idx].member_in_head = true;
            }
            Atom::Eq(lhs, rhs) => {
                // Try both orientations.
                if let Some(handled) = head_equation(
                    lhs,
                    rhs,
                    env,
                    target_classes,
                    &mut objects,
                    &mut ensure_object,
                )? {
                    if !handled {
                        residual.push(atom.clone());
                    }
                } else {
                    residual.push(atom.clone());
                }
            }
            other => residual.push(other.clone()),
        }
    }

    // Attach the body's membership classes to objects identified in the body
    // (their type is known from the environment even without a head member).
    for object in &mut objects {
        if object.class.as_str().is_empty() {
            if let Some(c) = target_class_of(env.get(&object.var), target_classes) {
                object.class = c;
            }
        }
    }
    Ok(HeadAnalysis { objects, residual })
}

/// Handle a head equation. Returns `Ok(Some(true))` if it contributed to an
/// object description, `Ok(Some(false))` if it should be kept as residual, and
/// `Ok(None)` if it does not concern target objects at all.
#[allow(clippy::too_many_arguments)]
fn head_equation(
    lhs: &Term,
    rhs: &Term,
    env: &TypeEnv,
    target_classes: &BTreeSet<ClassName>,
    objects: &mut Vec<HeadObject>,
    ensure_object: &mut impl FnMut(&mut Vec<HeadObject>, &Var, ClassName) -> usize,
) -> Result<Option<bool>> {
    for (a, b) in [(lhs, rhs), (rhs, lhs)] {
        // `O = Mk_C(args)` — explicit identity.
        if let (Term::Var(v), Term::Skolem(class, args)) = (a, b) {
            if target_classes.contains(class) {
                let idx = ensure_object(objects, v, class.clone());
                if objects[idx].explicit_key.is_some()
                    && objects[idx].explicit_key.as_ref() != Some(args)
                {
                    return Err(EngineError::Normalisation(format!(
                        "object {v} has two different explicit Skolem identities"
                    )));
                }
                objects[idx].explicit_key = Some(args.clone());
                return Ok(Some(true));
            }
        }
        // `O.attr = term` — attribute assignment (single-segment paths only).
        if let Term::Proj(base, attr) = a {
            if let Term::Var(v) = base.as_ref() {
                if let Some(class) = target_class_of(env.get(v), target_classes) {
                    let idx = ensure_object(objects, v, class);
                    if let Some(existing) = objects[idx].attrs.get(attr) {
                        if existing != b {
                            return Err(EngineError::Normalisation(format!(
                                "attribute {v}.{attr} is assigned two different terms in one head"
                            )));
                        }
                    }
                    objects[idx].attrs.insert(attr.clone(), b.clone());
                    return Ok(Some(true));
                }
            }
            // Nested projections on target objects (O.a.b = t) are outside the
            // supported normal-form fragment.
            if let Some((base_var, labels)) = a.as_var_path() {
                if labels.len() > 1 && target_class_of(env.get(base_var), target_classes).is_some()
                {
                    return Err(EngineError::Normalisation(format!(
                        "nested head projection {base_var}.{} is not supported; introduce an \
                         intermediate object variable instead",
                        labels
                            .iter()
                            .map(|l| l.as_str())
                            .collect::<Vec<_>>()
                            .join(".")
                    )));
                }
            }
        }
    }
    // An equation between two target object variables is an aliasing
    // constraint; keep it as residual (the caller decides how to treat it).
    if let (Term::Var(x), Term::Var(y)) = (lhs, rhs) {
        let tx = target_class_of(env.get(x), target_classes);
        let ty = target_class_of(env.get(y), target_classes);
        if tx.is_some() && ty.is_some() {
            return Ok(Some(false));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HeadAnalysis {
        /// The description of a particular object variable.
        fn object(&self, var: &str) -> Option<&HeadObject> {
            self.objects.iter().find(|o| o.var == var)
        }
    }
    use wol_lang::{check_clause_types, parse_clause};
    use wol_model::Schema;

    fn schemas() -> (Schema, Schema) {
        let euro = Schema::new("euro")
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
            );
        let target = Schema::new("target")
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
                    ("capital", Type::optional(Type::class("CityT"))),
                ]),
            )
            .with_class(
                "StateT",
                Type::record([("name", Type::str()), ("capital", Type::class("CityT"))]),
            );
        (euro, target)
    }

    fn target_set(target: &Schema) -> BTreeSet<ClassName> {
        target.class_names().into_iter().collect()
    }

    #[test]
    fn analyse_clause_t1() {
        let (euro, target) = schemas();
        let clause = parse_clause(
            "X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
             <= E in CountryE",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let analysis = analyze_head(&clause, &env, &target_set(&target)).unwrap();
        assert_eq!(analysis.objects.len(), 1);
        let obj = &analysis.objects[0];
        assert_eq!(obj.var, "X");
        assert_eq!(obj.class, ClassName::new("CountryT"));
        assert!(obj.member_in_head);
        assert!(obj.explicit_key.is_none());
        assert_eq!(obj.attrs.len(), 3);
        assert_eq!(obj.attrs["name"], Term::var("E").proj("name"));
        assert!(analysis.residual.is_empty());
    }

    #[test]
    fn analyse_clause_t2_variant_attribute() {
        let (euro, target) = schemas();
        let clause = parse_clause(
            "Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
             <= E in CityE, X in CountryT, X.name = E.country.name",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let analysis = analyze_head(&clause, &env, &target_set(&target)).unwrap();
        let obj = analysis.object("Y").unwrap();
        assert!(obj.member_in_head);
        assert_eq!(
            obj.attrs["place"],
            Term::variant("euro_city", Term::var("X"))
        );
        // X is a target object too, but the head does not describe it.
        assert!(analysis.object("X").is_none());
    }

    #[test]
    fn analyse_clause_t3_body_identified_object() {
        let (euro, target) = schemas();
        let clause = parse_clause(
            "X.capital = Y <= X in CountryT, Y in CityT, Y.place = ins_euro_city(X), \
             E in CityE, E.name = Y.name, E.is_capital = true",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let analysis = analyze_head(&clause, &env, &target_set(&target)).unwrap();
        let obj = analysis.object("X").unwrap();
        assert!(!obj.member_in_head);
        assert_eq!(obj.class, ClassName::new("CountryT"));
        assert_eq!(obj.attrs["capital"], Term::var("Y"));
    }

    #[test]
    fn analyse_explicit_skolem_identity() {
        let (euro, target) = schemas();
        let clause = parse_clause(
            "X = Mk_CountryT(N), X.language = L <= Y in CountryE, Y.name = N, Y.language = L",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let analysis = analyze_head(&clause, &env, &target_set(&target)).unwrap();
        let obj = analysis.object("X").unwrap();
        assert_eq!(
            obj.explicit_key,
            Some(SkolemArgs::Positional(vec![Term::var("N")]))
        );
        assert_eq!(obj.attrs["language"], Term::var("L"));
    }

    #[test]
    fn conflicting_attribute_assignment_rejected() {
        let (euro, target) = schemas();
        let clause =
            parse_clause("X in CountryT, X.name = E.name, X.name = E.currency <= E in CountryE")
                .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let err = analyze_head(&clause, &env, &target_set(&target)).unwrap_err();
        assert!(matches!(err, EngineError::Normalisation(_)));
    }

    #[test]
    fn nested_projection_rejected() {
        let (euro, target) = schemas();
        let clause = parse_clause(
            "X.capital.name = E.name <= X in CountryT, E in CityE, E.is_capital = true, \
             E.country.name = X.name",
        )
        .unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let err = analyze_head(&clause, &env, &target_set(&target)).unwrap_err();
        assert!(err.to_string().contains("nested head projection"));
    }

    #[test]
    fn residual_atoms_preserved() {
        let (euro, target) = schemas();
        // A head condition over source values only.
        let clause = parse_clause("E.name = \"Paris\" <= E in CityE").unwrap();
        let env = check_clause_types(&clause, &[&euro, &target]).unwrap();
        let analysis = analyze_head(&clause, &env, &target_set(&target)).unwrap();
        assert!(analysis.objects.is_empty());
        assert_eq!(analysis.residual.len(), 1);
    }
}
