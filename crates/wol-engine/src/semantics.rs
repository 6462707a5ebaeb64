//! Naive (direct) evaluation of transformation programs.
//!
//! Section 5 opens: "Implementing a transformation directly using clauses such
//! as (T1), (T2) and (T3) would be inefficient: to infer the structure of a
//! single object we would have to apply multiple clauses ... Further, since
//! some of the transformation clauses involve target classes and objects in
//! their bodies, we would have to apply the clauses recursively."
//!
//! This module implements that direct strategy as stated: every pass applies
//! every transformation clause against the source databases *and* the target
//! as it stood at the start of the pass, and the loop stops at the first pass
//! that changes nothing — two passes for a non-recursive program, one more
//! per level of recursion. A program still changing the target after
//! [`MAX_PASSES`] passes is an error. It is the reference semantics the
//! normalised/compiled execution path is tested against; it runs on the
//! calling thread and matches bodies with the engine's one matcher
//! ([`crate::env::match_body`]).

use std::collections::BTreeMap;

use wol_lang::check_clause_types;
use wol_lang::program::Program;
use wol_model::{Instance, Label, Oid, Record, SkolemFactory, Value};

use crate::constraints::{extract_object_keys, ObjectKey};
use crate::env::{eval_skolem_key, eval_term, match_body, Bindings, Databases, MatchStats};
use crate::error::EngineError;
use crate::headform::analyze_head;
use crate::Result;

/// Passes the naive evaluation runs before it gives up on a fixpoint.
const MAX_PASSES: usize = 64;

/// Apply the program's transformation clauses directly, in full passes,
/// until a pass leaves the target unchanged. Returns the target and the
/// number of passes run, the quiet one included.
pub(crate) fn naive_fixpoint(
    program: &Program,
    sources: &[&Instance],
    target_name: &str,
) -> Result<(Instance, usize)> {
    let schemas = program.schemas();
    let target_classes = program.target_classes();
    let target_constraints: Vec<_> = program
        .target_constraints()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let keys = extract_object_keys(&target_constraints);

    // Analyse every transformation clause's head once.
    let mut clauses = Vec::new();
    for (_, clause) in program.transformation_clauses() {
        let env = check_clause_types(clause, &schemas)?;
        clauses.push((analyze_head(clause, &env, &target_classes)?, &clause.body));
    }

    let mut factory = SkolemFactory::new();
    let mut target = Instance::new(target_name);
    for pass in 1..=MAX_PASSES {
        let mut changed = false;
        // Each pass evaluates every clause against the target as it stood at
        // the *start* of the pass (the clause-at-a-time recursive application
        // the paper describes); updates become visible in the next pass.
        let snapshot = target.clone();
        let mut all: Vec<&Instance> = sources.to_vec();
        all.push(&snapshot);
        let dbs = Databases::new(&all);
        for (analysis, body) in &clauses {
            // Gather the updates with an immutable view of the target, then apply.
            let bindings = match_body(
                body,
                &dbs,
                &mut factory,
                Bindings::new(),
                &mut MatchStats::default(),
            )?;
            let mut updates: Vec<(Oid, Label, Value)> = Vec::new();
            let mut creations: Vec<Oid> = Vec::new();
            for binding in &bindings {
                for object in &analysis.objects {
                    let oid = identify_object(object, binding, &dbs, &keys, &mut factory)?;
                    let Some(oid) = oid else { continue };
                    if object.member_in_head {
                        creations.push(oid.clone());
                    }
                    for (label, term) in &object.attrs {
                        let value = eval_term(term, binding, &dbs, &mut factory)?;
                        updates.push((oid.clone(), label.clone(), value));
                    }
                }
            }
            for oid in creations {
                if !target.contains(&oid) {
                    target.insert(oid, Value::Record(Record::new()))?;
                    changed = true;
                }
            }
            for (oid, label, value) in updates {
                if !target.contains(&oid) {
                    target.insert(oid.clone(), Value::Record(Record::new()))?;
                    changed = true;
                }
                let Some(Value::Record(fields)) = target.value(&oid) else {
                    return Err(EngineError::Invalid(format!(
                        "target object {oid} does not hold a record value"
                    )));
                };
                let mut fields = fields.clone();
                match fields.get(&label) {
                    Some(previous) if previous == &value => {}
                    Some(previous) => {
                        return Err(EngineError::Invalid(format!(
                            "ambiguous transformation: {oid}.{label} receives both {} and {}",
                            wol_model::display::render_value(previous),
                            wol_model::display::render_value(&value)
                        )))
                    }
                    None => {
                        fields.insert(label, value);
                        target.update(&oid, Value::Record(fields))?;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return Ok((target, pass));
        }
    }
    Err(EngineError::Invalid(format!(
        "no fixpoint: pass {MAX_PASSES} of the naive evaluation still changed the target"
    )))
}

/// The target the program's clauses reach by direct application (see the
/// module docs).
pub fn naive_transform(
    program: &Program,
    sources: &[&Instance],
    target_name: &str,
) -> Result<Instance> {
    naive_fixpoint(program, sources, target_name).map(|(instance, _)| instance)
}

/// Determine the identity of a head object under a binding: a body-bound
/// object variable, an explicit Skolem key, or a key derived from the object's
/// key attributes. Returns `None` if the clause cannot determine the object
/// for this binding (incomplete description).
fn identify_object(
    object: &crate::headform::HeadObject,
    binding: &Bindings,
    dbs: &Databases<'_>,
    keys: &BTreeMap<wol_model::ClassName, ObjectKey>,
    factory: &mut SkolemFactory,
) -> Result<Option<Oid>> {
    // Bound by the body?
    if let Some(value) = binding.get(&object.var) {
        return match value {
            Value::Oid(oid) => Ok(Some(oid.clone())),
            other => Err(EngineError::Eval(format!(
                "head object variable {} is bound to a non-object value of kind `{}`",
                object.var,
                other.kind()
            ))),
        };
    }
    // Explicit Skolem identity?
    if let Some(args) = &object.explicit_key {
        let key = eval_skolem_key(args, binding, dbs, factory)?;
        return Ok(Some(factory.mk(&object.class, &key)?));
    }
    // Key derived from the class's key constraint and the head's attributes.
    if let Some(object_key) = keys.get(&object.class) {
        let mut parts = Vec::with_capacity(object_key.parts.len());
        for (label, path) in &object_key.parts {
            if path.len() != 1 {
                return Ok(None);
            }
            let attr = &path.segments()[0];
            let Some(term) = object.attrs.get(attr) else {
                return Ok(None);
            };
            parts.push((label.clone(), eval_term(term, binding, dbs, factory)?));
        }
        let key = Value::Record(parts.into_iter().collect());
        return Ok(Some(factory.mk(&object.class, &key)?));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::program::{Program, SchemaBinding};
    use wol_model::{ClassName, Schema, Type};

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
                "CityT",
                Type::record([
                    ("name", Type::str()),
                    (
                        "place",
                        Type::variant([("euro_city", Type::class("CountryT"))]),
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
    }

    fn cities_program() -> Program {
        Program::new(
            "euro_to_target",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
                 <= E in CountryE;\n\
             T2: Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
                 <= E in CityE, X in CountryT, X.name = E.country.name;\n\
             T3: X.capital = Y \
                 <= X in CountryT, Y in CityT, Y.place = ins_euro_city(X), \
                    E in CityE, E.name = Y.name, E.country.name = X.name, E.is_capital = true;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;",
        )
    }

    fn euro_instance() -> Instance {
        let mut inst = Instance::new("euro");
        let uk = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("United Kingdom")),
                ("language", Value::str("English")),
                ("currency", Value::str("sterling")),
            ]),
        );
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
                ("currency", Value::str("franc")),
            ]),
        );
        for (name, capital, country) in [
            ("London", true, &uk),
            ("Manchester", false, &uk),
            ("Paris", true, &fr),
        ] {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(name)),
                    ("is_capital", Value::bool(capital)),
                    ("country", Value::oid(country.clone())),
                ]),
            );
        }
        inst
    }

    #[test]
    fn naive_evaluation_reaches_the_paper_target() {
        let program = cities_program();
        let source = euro_instance();
        let (target, passes) = naive_fixpoint(&program, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 3);
        // T2 reads T1's output and T3 reads both, so the target fills in over
        // three passes; a fourth detects the fixpoint.
        assert_eq!(passes, 4);

        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let capital = target.value(france).unwrap().project("capital").cloned();
        let capital_oid = capital
            .and_then(|v| v.as_oid().cloned())
            .expect("France has a capital");
        assert_eq!(
            target.value(&capital_oid).unwrap().project("name"),
            Some(&Value::str("Paris"))
        );
    }

    #[test]
    fn clause_without_key_attributes_is_skipped_not_fatal() {
        // A clause that cannot determine its object's key contributes nothing.
        let program = Program::new(
            "p",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T: X in CountryT, X.language = L <= Y in CountryE, Y.language = L;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let source = euro_instance();
        let target = naive_transform(&program, &[&source][..], "t").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 0);
    }

    #[test]
    fn fixpoint_terminates_on_empty_sources() {
        let program = cities_program();
        let source = Instance::new("euro");
        let (target, passes) = naive_fixpoint(&program, &[&source][..], "t").unwrap();
        assert!(target.is_empty());
        assert_eq!(passes, 1);
    }

    #[test]
    fn a_non_recursive_program_takes_two_passes() {
        let program = Program::new(
            "countries",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
                 <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let (target, passes) = naive_fixpoint(&program, &[&euro_instance()][..], "t").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        assert_eq!(passes, 2, "one pass builds the target, one confirms it");
    }

    #[test]
    fn conflicting_updates_detected() {
        let program = Program::new(
            "conflict",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.currency = E.currency <= E in CountryE;\n\
             T2: X in CountryT, X.name = E.name, X.currency = \"euro\" <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let source = euro_instance();
        let err = naive_transform(&program, &[&source][..], "t").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    /// A clause that reads the target and mints a Skolem identity in its
    /// body names the very object another clause created.
    #[test]
    fn a_skolem_bearing_clause_that_reads_the_target_mints_the_created_capital() {
        let program = Program::new(
            "skolem_capital",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
                 <= E in CountryE;\n\
             T2: Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
                 <= E in CityE, X in CountryT, X.name = E.country.name;\n\
             T3: X.capital = Y \
                 <= X in CountryT, E in CityE, E.country.name = X.name, E.is_capital = true, \
                    Y = Mk_CityT(name = E.name, place = ins_euro_city(X));\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;",
        );
        let (target, passes) = naive_fixpoint(&program, &[&euro_instance()][..], "target").unwrap();
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let capital = target.value(france).unwrap().project("capital").unwrap();
        let capital = capital.as_oid().unwrap();
        assert_eq!(
            target.value(capital).unwrap().project("name"),
            Some(&Value::str("Paris")),
            "the minted capital is the city T2 created"
        );
        assert!(passes >= 3, "{passes} passes");
    }

    /// A linear recursion over a chain of `links` source links: `T2` extends
    /// every path by one link per pass, so the closure needs `links` passes
    /// to build and one to confirm.
    fn chain(links: usize) -> (Program, Instance) {
        let link = Type::record([("src", Type::str()), ("dst", Type::str())]);
        let program = Program::new(
            "chain",
            vec![SchemaBinding::new(
                Schema::new("links").with_class("LinkS", link.clone()),
            )],
            SchemaBinding::new(Schema::new("paths").with_class("PathT", link)),
        )
        .with_text(
            "T1: P in PathT, P.src = L.src, P.dst = L.dst <= L in LinkS;\n\
             T2: P in PathT, P.src = Q.src, P.dst = L.dst \
                 <= Q in PathT, L in LinkS, L.src = Q.dst;\n\
             K: P = Mk_PathT(src = S, dst = D) <= P in PathT, S = P.src, D = P.dst;",
        );
        let mut source = Instance::new("links");
        for i in 0..links {
            source.insert_fresh(
                &ClassName::new("LinkS"),
                Value::record([
                    ("src", Value::str(format!("n{i}"))),
                    ("dst", Value::str(format!("n{}", i + 1))),
                ]),
            );
        }
        (program, source)
    }

    /// Past the pass cap the evaluation fails instead of returning a target
    /// that is not a fixpoint.
    #[test]
    fn a_program_still_changing_at_the_pass_cap_is_an_error() {
        let (program, source) = chain(MAX_PASSES + 6);
        let err = naive_transform(&program, &[&source][..], "t").unwrap_err();
        assert!(err.to_string().contains("no fixpoint"), "{err}");
        // One link shorter than the cap builds the whole closure and
        // confirms it on the last pass.
        let links = MAX_PASSES - 1;
        let (program, source) = chain(links);
        let (target, passes) = naive_fixpoint(&program, &[&source][..], "t").unwrap();
        assert_eq!(
            target.extent_size(&ClassName::new("PathT")),
            links * (links + 1) / 2
        );
        assert_eq!(passes, MAX_PASSES);
    }
}
