//! Meta-data-driven constraint generation.
//!
//! "A large number of constraints, such as keys and other dependencies, can be
//! automatically generated from the meta-data associated with the source and
//! target databases ... Such constraints are time consuming and tedious to
//! program by hand." (Section 5, Figure 6.)
//!
//! Given a schema's [`KeySpec`], this module emits the corresponding WOL key
//! constraint clauses — the `X = Mk_C(...) <= X in C, ...` clauses the
//! normaliser consumes — and the merge-style key clauses
//! `X = Y <= X in C, Y in C, X.p = Y.p, ...` that the optimiser consumes for
//! source databases.

use wol_lang::ast::{Atom, Clause, SkolemArgs, Term, Var};
use wol_model::{KeyExpr, KeySpec, Schema};

/// Generate Skolem-style key constraint clauses (target side) from a key
/// specification. Only path- and record-of-path keys are expressible as WOL
/// clauses; other key expressions are skipped.
pub fn generate_key_clauses(schema: &Schema, keys: &KeySpec) -> Vec<Clause> {
    let mut out = Vec::new();
    for class in keys.classes() {
        if !schema.has_class(class) {
            continue;
        }
        let Some(key) = keys.key_of(class) else {
            continue;
        };
        let object = Term::var("X");
        let mut body = vec![Atom::Member(object.clone(), class.clone())];
        let args = match key {
            KeyExpr::Path(path) => {
                let var = Term::var("K0");
                body.push(Atom::Eq(var.clone(), project_path(&object, path)));
                SkolemArgs::Positional(vec![var])
            }
            KeyExpr::Record(fields) => {
                let mut named = Vec::new();
                for (i, (label, sub)) in fields.iter().enumerate() {
                    let KeyExpr::Path(path) = sub else { continue };
                    let var = Term::Var(Var::format(format_args!("K{i}")));
                    body.push(Atom::Eq(var.clone(), project_path(&object, path)));
                    named.push((label.clone(), var));
                }
                if named.is_empty() {
                    continue;
                }
                SkolemArgs::Named(named)
            }
            KeyExpr::Const(_) => continue,
        };
        let head = vec![Atom::Eq(object, Term::Skolem(class.clone(), args))];
        out.push(Clause::new(head, body).with_label(format!("key_{class}")));
    }
    out
}

/// Generate merge-style key clauses (source side): `X = Y <= X in C, Y in C,
/// X.p = Y.p, ...` for every keyed class of the schema.
pub fn generate_merge_key_clauses(schema: &Schema, keys: &KeySpec) -> Vec<Clause> {
    let mut out = Vec::new();
    for class in keys.classes() {
        if !schema.has_class(class) {
            continue;
        }
        let Some(key) = keys.key_of(class) else {
            continue;
        };
        let paths: Vec<&wol_model::Path> = match key {
            KeyExpr::Path(p) => vec![p],
            KeyExpr::Record(fields) => fields
                .iter()
                .filter_map(|(_, sub)| match sub {
                    KeyExpr::Path(p) => Some(p),
                    _ => None,
                })
                .collect(),
            KeyExpr::Const(_) => continue,
        };
        if paths.is_empty() {
            continue;
        }
        let x = Term::var("X");
        let y = Term::var("Y");
        let mut body = vec![
            Atom::Member(x.clone(), class.clone()),
            Atom::Member(y.clone(), class.clone()),
        ];
        for path in paths {
            body.push(Atom::Eq(project_path(&x, path), project_path(&y, path)));
        }
        let head = vec![Atom::Eq(x, y)];
        out.push(Clause::new(head, body).with_label(format!("mergekey_{class}")));
    }
    out
}

fn project_path(base: &Term, path: &wol_model::Path) -> Term {
    path.segments()
        .iter()
        .fold(base.clone(), |t, seg| t.proj(seg.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{classify_constraint, ConstraintClass};
    use wol_model::{ClassName, Type};

    fn target_schema() -> Schema {
        Schema::new("target")
            .with_class("CountryT", Type::record([("name", Type::str())]))
            .with_class(
                "CityT",
                Type::record([("name", Type::str()), ("country", Type::class("CountryT"))]),
            )
    }

    #[test]
    fn generates_skolem_key_clauses_recognised_by_the_engine() {
        let keys = KeySpec::new()
            .with_key("CountryT", KeyExpr::path("name"))
            .with_key(
                "CityT",
                KeyExpr::record([
                    ("name", KeyExpr::path("name")),
                    ("country", KeyExpr::path("country")),
                ]),
            );
        let clauses = generate_key_clauses(&target_schema(), &keys);
        assert_eq!(clauses.len(), 2);
        for clause in &clauses {
            match classify_constraint(clause) {
                ConstraintClass::SkolemKey(key) => {
                    assert!(
                        key.class == ClassName::new("CountryT")
                            || key.class == ClassName::new("CityT")
                    );
                }
                other => panic!("expected a Skolem key constraint, got {other:?}"),
            }
        }
        // Rendered clauses look like the paper's (C2)/(C3).
        let rendered = wol_lang::render_program(&clauses);
        assert!(rendered.contains("Mk_CountryT"));
        assert!(rendered.contains("Mk_CityT"));
    }

    #[test]
    fn generates_merge_key_clauses_recognised_by_the_engine() {
        let keys = KeySpec::new().with_key("CountryT", KeyExpr::path("name"));
        let clauses = generate_merge_key_clauses(&target_schema(), &keys);
        assert_eq!(clauses.len(), 1);
        match classify_constraint(&clauses[0]) {
            ConstraintClass::MergeKey { class, paths } => {
                assert_eq!(class, ClassName::new("CountryT"));
                assert_eq!(paths, vec![wol_model::Path::parse("name")]);
            }
            other => panic!("expected a merge key, got {other:?}"),
        }
    }

    #[test]
    fn unknown_classes_and_const_keys_skipped() {
        let keys = KeySpec::new()
            .with_key("Nowhere", KeyExpr::path("name"))
            .with_key("CountryT", KeyExpr::Const(wol_model::Value::int(1)));
        assert!(generate_key_clauses(&target_schema(), &keys).is_empty());
        assert!(generate_merge_key_clauses(&target_schema(), &keys).is_empty());
    }

    #[test]
    fn generated_clauses_are_well_formed() {
        let keys = KeySpec::new().with_key(
            "CityT",
            KeyExpr::record([
                ("name", KeyExpr::path("name")),
                ("country", KeyExpr::path("country")),
            ]),
        );
        let schema = target_schema();
        for clause in generate_key_clauses(&schema, &keys) {
            wol_lang::check_clause_types(&clause, &[&schema]).unwrap();
            wol_lang::check_range_restricted(&clause).unwrap();
        }
    }
}
