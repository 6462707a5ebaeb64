//! The single-pass executor of normal-form programs: every clause body
//! through the engine's matcher, every head into the target by its Skolem
//! key. It is the reference the compiled pipeline replaced (Section 5: "A
//! transformation program in which all the transformation clauses are in
//! normal form can easily be implemented in a single pass"), and what the
//! tests use to run a normal form itself, apart from planning and CPL.

use wol_engine::{
    eval_skolem_key, eval_term, match_body, Bindings, Databases, MatchStats, NormalProgram, Result,
};
use wol_model::{Conflict, Instance, ModelError, Record, SkolemFactory, Value};

/// Execute a normal-form program against the source databases in a single
/// pass, producing the target instance. Objects are created and merged by
/// their Skolem keys; clashing attribute values are an error (the program
/// would not have a unique smallest transformation).
pub fn execute(
    normal: &NormalProgram,
    sources: &[&Instance],
    target_name: &str,
) -> Result<Instance> {
    let mut factory = SkolemFactory::new();
    let mut target = Instance::new(target_name);
    let dbs = Databases::new(sources);
    for clause in &normal.clauses {
        let bindings = match_body(
            &clause.body,
            &dbs,
            &mut factory,
            Bindings::new(),
            &mut MatchStats::default(),
        )?;
        for binding in bindings {
            let key_value = eval_skolem_key(&clause.key, &binding, &dbs, &mut factory)?;
            let oid = factory.mk(&clause.class, &key_value)?;
            let mut fields = Vec::with_capacity(clause.attrs.len());
            for (label, term) in &clause.attrs {
                fields.push((
                    label.clone(),
                    eval_term(term, &binding, &dbs, &mut factory)?,
                ));
            }
            let mut record: Record = fields.into_iter().collect();
            match target.value(&oid) {
                None => target.insert(oid, Value::Record(record))?,
                Some(existing) => {
                    record.merge(existing.as_record()).map_err(|label| {
                        ModelError::Conflict(Conflict {
                            oid: oid.clone(),
                            label,
                        })
                    })?;
                    target.update(&oid, Value::Record(record))?;
                }
            }
        }
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{naive_transform, normalize, NormalizeOptions};
    use wol_lang::program::{Program, SchemaBinding};
    use wol_model::{ClassName, Schema, Type};

    /// The European source schema of Figure 2.
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

    /// The integrated target schema of Figure 3 (restricted to the European
    /// side; the US side is exercised by the workloads crate).
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

    /// The paper's transformation clauses (T1)-(T3) and key constraints
    /// (C2)-(C3), in the crate's concrete syntax.
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
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;\n\
             C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;",
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
    fn execute_produces_figure_3_instance() {
        let program = cities_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let source = euro_instance();
        let target = execute(&normal, &[&source][..], "target").unwrap();

        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 3);

        // France's capital is Paris.
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .expect("France exists in the target");
        let france_value = target.value(france).unwrap();
        assert_eq!(france_value.project("currency"), Some(&Value::str("franc")));
        let capital = france_value
            .project("capital")
            .and_then(|v| v.as_oid())
            .expect("France has a capital");
        let capital_value = target.value(capital).unwrap();
        assert_eq!(capital_value.project("name"), Some(&Value::str("Paris")));

        // Manchester exists but is nobody's capital.
        let manchester = target
            .find_by_field(&ClassName::new("CityT"), "name", &Value::str("Manchester"))
            .expect("Manchester exists");
        assert!(target.value(manchester).unwrap().project("place").is_some());
    }

    #[test]
    fn split_clauses_t4_t5_merge_through_keys() {
        // Example 4.1: the CountryT description split over two clauses.
        let program = Program::new(
            "split",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T4: X = Mk_CountryT(N), X.name = N, X.language = L <= Y in CountryE, Y.name = N, Y.language = L;\n\
             T5: X = Mk_CountryT(N), X.name = N, X.currency = C <= Z in CountryE, Z.name = N, Z.currency = C;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        program.validate().unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        assert_eq!(normal.len(), 2);
        let source = euro_instance();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let value = target.value(france).unwrap();
        // Both halves of the description reached the same object.
        assert_eq!(value.project("language"), Some(&Value::str("French")));
        assert_eq!(value.project("currency"), Some(&Value::str("franc")));
    }

    #[test]
    fn source_constraint_optimisation_reduces_body_size() {
        // Example 4.1: with the CountryE name key, the merged T4/T5 body can
        // drop the self-join. We approximate by comparing the normal program
        // with and without source-constraint optimisation on a program whose
        // clause body contains the self-join explicitly.
        let program = Program::new(
            "selfjoin",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T: X in CountryT, X.name = N, X.language = L, X.currency = C \
                 <= Y in CountryE, Y.name = N, Y.language = L, Z in CountryE, Z.name = N, Z.currency = C;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;",
        );
        let with_opt = normalize(&program, &NormalizeOptions::default()).unwrap();
        let without_opt = normalize(
            &program,
            &NormalizeOptions {
                use_source_constraints: false,
                ..NormalizeOptions::default()
            },
        )
        .unwrap();
        assert!(with_opt.size() < without_opt.size());
        // Both still compute the same target.
        let source = euro_instance();
        let a = execute(&with_opt, &[&source][..], "t").unwrap();
        let b = execute(&without_opt, &[&source][..], "t").unwrap();
        assert_eq!(
            a.extent_size(&ClassName::new("CountryT")),
            b.extent_size(&ClassName::new("CountryT"))
        );
    }

    #[test]
    fn conflicting_attribute_values_detected_at_execution() {
        // Two clauses give the same country different currencies.
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
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let source = euro_instance();
        let err = execute(&normal, &[&source][..], "t").unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn naive_and_normalized_execution_agree() {
        let program = cities_program();
        let source = euro_instance();
        let naive = naive_transform(&program, &[&source][..], "target").unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let compiled = execute(&normal, &[&source][..], "target").unwrap();
        for class in ["CountryT", "CityT"] {
            assert_eq!(
                naive.extent_size(&ClassName::new(class)),
                compiled.extent_size(&ClassName::new(class)),
                "extent sizes differ for {class}"
            );
        }
        // Compare the multisets of country descriptions (names + currencies).
        let describe = |inst: &Instance| {
            let mut v: Vec<(Value, Value)> = inst
                .objects(&ClassName::new("CountryT"))
                .map(|(_, value)| {
                    (
                        value.project("name").cloned().unwrap(),
                        value.project("currency").cloned().unwrap(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(describe(&naive), describe(&compiled));
    }
}
