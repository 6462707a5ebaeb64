//! Tests that follow the paper's own examples clause by clause.

use wol_repro::morphase::Morphase;
use wol_repro::wol_engine::{
    check_constraint, classify_constraint, naive_transform, ConstraintClass, Databases,
};
use wol_repro::wol_lang::program::{Program, SchemaBinding};
use wol_repro::wol_lang::{
    check_clause_types, check_range_restricted, parse_clause, parse_program, render_clause, Atom,
};
use wol_repro::wol_model::{ClassName, Value};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};

/// Section 3.1: clause (C1) and the key clauses (C2), (C3) parse, type check
/// against the paper's schemas and are range-restricted.
#[test]
fn section_3_1_clauses_are_well_formed() {
    let w = CitiesWorkload::new();
    let schemas = [&w.us_schema, &w.euro_schema, &w.target_schema];
    let clauses = parse_program(
        "C1: X.state = Y <= Y in StateA, X = Y.capital;\n\
         C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
         C4: Y in CityE, Y.country = X, Y.is_capital = true <= X in CountryE;\n\
         C5: X = Y <= X in CityE, Y in CityE, X.country = Y.country, X.is_capital = true, Y.is_capital = true;",
    )
    .unwrap();
    for clause in &clauses {
        check_clause_types(clause, &schemas).unwrap_or_else(|e| panic!("{e}"));
        check_range_restricted(clause).unwrap();
        // Round-trip through the pretty printer.
        let reparsed = parse_clause(render_clause(clause).trim_end_matches(';')).unwrap();
        assert_eq!(clause, &reparsed);
    }
}

/// Section 3.1: the paper's examples of clauses that are *not* well formed.
#[test]
fn section_3_1_ill_formed_clauses_rejected() {
    let w = CitiesWorkload::new();
    let schemas = [&w.us_schema, &w.euro_schema, &w.target_schema];
    // Not range-restricted: "X.population < Y <= X in CityA".
    let unrestricted = parse_clause("X.population < Y <= X in CityA").unwrap();
    assert!(check_range_restricted(&unrestricted).is_err());
    // Not well-typed: X both an object of CityA and compared as an integer.
    let ill_typed = parse_clause("Z = Y.name <= X in CityA, Y in StateA, X < 3").unwrap();
    assert!(check_clause_types(&ill_typed, &schemas).is_err());
}

/// Section 3.1: constraints (C4)/(C5) — "each country has exactly one capital
/// city" — hold on well-formed instances and catch violations.
#[test]
fn constraints_c4_c5_detect_capital_anomalies() {
    let c4 = parse_clause("C4: Y in CityE, Y.country = X, Y.is_capital = true <= X in CountryE")
        .unwrap();
    let c5 = parse_clause(
        "C5: X = Y <= X in CityE, Y in CityE, X.country = Y.country, X.is_capital = true, Y.is_capital = true",
    )
    .unwrap();

    let good = generate_euro(4, 3, 1);
    let refs = [&good];
    let dbs = Databases::new(&refs);
    assert!(check_constraint(&c4, &dbs).unwrap().is_empty());
    assert!(check_constraint(&c5, &dbs).unwrap().is_empty());

    // Remove the capital flag from every city of one country: C4 is violated.
    let mut no_capital = generate_euro(2, 2, 1);
    let cities: Vec<_> = no_capital
        .objects(&ClassName::new("CityE"))
        .map(|(oid, _)| oid.clone())
        .collect();
    for city in cities {
        let mut value = no_capital.value(&city).unwrap().clone();
        if let Value::Record(ref mut fields) = value {
            fields.insert("is_capital".into(), Value::bool(false));
        }
        no_capital.update(&city, value).unwrap();
    }
    let refs = [&no_capital];
    let dbs = Databases::new(&refs);
    assert!(!check_constraint(&c4, &dbs).unwrap().is_empty());
}

/// Section 3.1: clause classification recognises key constraints (C2)/(C3),
/// source keys (C8) and existence constraints (C4).
#[test]
fn constraint_classification_matches_the_paper() {
    let c2 = parse_clause(
        "X = Mk_CityT(name = N, country = C) <= X in CityT, N = X.name, C = X.country",
    )
    .unwrap();
    let c3 = parse_clause("Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name").unwrap();
    let c8 = parse_clause("X = Y <= X in CountryE, Y in CountryE, X.name = Y.name").unwrap();
    let c4 =
        parse_clause("Y in CityE, Y.country = X, Y.is_capital = true <= X in CountryE").unwrap();
    assert!(matches!(
        classify_constraint(&c2),
        ConstraintClass::SkolemKey(_)
    ));
    assert!(matches!(
        classify_constraint(&c3),
        ConstraintClass::SkolemKey(_)
    ));
    assert!(matches!(
        classify_constraint(&c8),
        ConstraintClass::MergeKey { .. }
    ));
    assert!(matches!(
        classify_constraint(&c4),
        ConstraintClass::Existence { .. }
    ));
}

/// Section 2.2 / Example 2.3: surrogate keys identify countries by name and
/// cities by (name, country name).
#[test]
fn example_2_3_surrogate_keys() {
    let w = CitiesWorkload::new();
    let instance = generate_euro(3, 3, 5);
    w.euro_keys.check(&instance).unwrap();
    // Evaluate the city key of some city: it is a record of two strings.
    let city = instance
        .objects(&ClassName::new("CityE"))
        .map(|(oid, _)| oid.clone())
        .next()
        .unwrap();
    let key = w.euro_keys.eval(&city, &instance).unwrap();
    let record = key.as_record().unwrap();
    assert!(record.contains_key("name"));
    assert!(record.contains_key("country_name"));
    assert!(!key.contains_oid());
}

/// Section 4.1: constraints (C6)/(C7) style derivation — target constraints
/// and key clauses together determine derived objects without extra
/// transformation clauses (checked at the classification level: they are
/// target constraints, not transformation clauses).
#[test]
fn section_4_1_constraint_roles() {
    let w = CitiesWorkload::new();
    let program = w.euro_program();
    let roles: Vec<_> = program
        .clauses
        .iter()
        .map(|c| (c.label.clone().unwrap_or_default(), program.classify(c)))
        .collect();
    use wol_repro::wol_lang::program::ClauseRole;
    for (label, role) in roles {
        match label.as_str() {
            "T1" | "T2" | "T3" => assert_eq!(role, ClauseRole::Transformation, "{label}"),
            "C2" | "C3" => assert_eq!(role, ClauseRole::TargetConstraint, "{label}"),
            "C8" => assert_eq!(role, ClauseRole::SourceConstraint, "{label}"),
            other => panic!("unexpected clause label {other}"),
        }
    }
}

/// Example 4.1: (C8) makes `name` a key for `CountryE`, so §4.2's self-join
/// elimination merges the body's two `CountryE` variables — in the head too,
/// where `Z.currency` becomes `Y.currency`. The transform equals the
/// clause-by-clause reference semantics.
#[test]
fn example_4_1_self_join_elimination_renames_the_head() {
    let w = CitiesWorkload::new();
    let program = Program::new(
        "example_4_1",
        vec![SchemaBinding::keyed(
            w.euro_schema.clone(),
            w.euro_keys.clone(),
        )],
        SchemaBinding::keyed(w.target_schema.clone(), w.target_keys.clone()),
    )
    .with_text(
        "T: X in CountryT, X.name = Y.name, X.language = Y.language, X.currency = Z.currency \
            <= Y in CountryE, Z in CountryE, Y.name = Z.name;\n\
         C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
         C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;",
    );
    let source = generate_euro(6, 4, 7);
    let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
    let [clause] = &run.normal.clauses[..] else {
        panic!("one normal clause, got {}", run.normal.len());
    };
    let scans = clause.body.iter().filter(|a| matches!(a, Atom::Member(..)));
    assert_eq!(scans.count(), 1, "{}", clause.render());
    let reference = naive_transform(&program, &[&source][..], "target").unwrap();
    assert_eq!(run.target.extent_size(&ClassName::new("CountryT")), 6);
    if let Some(report) = run.target.deep_eq_report(&reference) {
        panic!("transform diverged from the reference semantics: {report}");
    }
}

/// Clause (T3) compares countries through `ins_euro_city(Mk_CountryT(..))`.
/// The comparison splits into a name equality, so (C8) merges T3's two
/// `CountryE` variables and its compiled plan scans `CountryE` once.
#[test]
fn t3_scans_country_e_once() {
    let w = CitiesWorkload::new();
    let source = generate_euro(6, 4, 7);
    let run = Morphase::new()
        .transform(&w.euro_program(), &[&source][..])
        .unwrap();
    let t3 = run
        .normal
        .clauses
        .iter()
        .position(|c| c.provenance.iter().any(|p| p.contains("T3")))
        .unwrap();
    let plan = &run.plans[t3];
    assert_eq!(plan.matches("Scan CountryE").count(), 1, "{plan}");
    let reference = naive_transform(&w.euro_program(), &[&source][..], "target").unwrap();
    if let Some(report) = run.target.deep_eq_report(&reference) {
        panic!("transform diverged from the reference semantics: {report}");
    }
}
