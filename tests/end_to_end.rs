//! Integration tests spanning all crates: sources built through the storage
//! adapters, transformed by Morphase, checked against the engine's reference
//! semantics, and validated against the target schemas and keys.

use wol_repro::morphase::{Morphase, PipelineOptions};
use wol_repro::storage::{csv, relational, Column, Table, TableSchema};
use wol_repro::wol_engine::naive_transform;
use wol_repro::wol_model::{validate, ClassName, Value};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::people::{generate_couples, PeopleWorkload};
use wol_repro::workloads::{variants, wide};

#[test]
fn cities_pipeline_matches_reference_semantics_and_schema() {
    let workload = CitiesWorkload::new();
    let program = workload.euro_program();
    let source = generate_euro(6, 4, 77);

    let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
    let naive = naive_transform(&program, &[&source][..], "target").unwrap();

    // Same extents as the reference (naive, multi-pass) semantics.
    for class in ["CountryT", "CityT"] {
        assert_eq!(
            run.target.extent_size(&ClassName::new(class)),
            naive.extent_size(&ClassName::new(class)),
            "extent mismatch for {class}"
        );
    }
    // The target conforms to the schema and its keys.
    validate::check_keyed_instance(&run.target, &workload.target_schema, &workload.target_keys)
        .unwrap();
    // Every country received its capital, and the capital's place points back
    // at the country (the paper's non-trivial mapping).
    for (oid, value) in run.target.objects(&ClassName::new("CountryT")) {
        let capital = value
            .project("capital")
            .and_then(|v| v.as_oid())
            .expect("every generated country has a capital");
        let capital_value = run.target.value(capital).unwrap();
        let place = capital_value.project("place").unwrap();
        assert_eq!(
            place.variant_payload("euro_city"),
            Some(&Value::Oid(oid.clone()))
        );
    }
}

#[test]
fn relational_source_feeds_the_pipeline() {
    // Load the European source from flat tables (the "Sybase" path).
    let mut countries = Table::new(TableSchema {
        name: "CountryE".to_string(),
        key_column: "name".to_string(),
        columns: vec![
            Column::str("name"),
            Column::str("language"),
            Column::str("currency"),
        ],
    });
    countries
        .push_row(vec![
            Value::str("France"),
            Value::str("French"),
            Value::str("franc"),
        ])
        .unwrap();
    countries
        .push_row(vec![
            Value::str("Italy"),
            Value::str("Italian"),
            Value::str("lira"),
        ])
        .unwrap();
    let mut cities = Table::new(TableSchema {
        name: "CityE".to_string(),
        key_column: "name".to_string(),
        columns: vec![
            Column::str("name"),
            Column::bool("is_capital"),
            Column::reference("country", "CountryE"),
        ],
    });
    for (name, capital, country) in [
        ("Paris", true, "France"),
        ("Lyon", false, "France"),
        ("Rome", true, "Italy"),
    ] {
        cities
            .push_row(vec![
                Value::str(name),
                Value::bool(capital),
                Value::str(country),
            ])
            .unwrap();
    }
    let source = relational::load_tables(&[countries, cities], "euro").unwrap();

    let workload = CitiesWorkload::new();
    let run = Morphase::new()
        .transform(&workload.euro_program(), &[&source][..])
        .unwrap();
    assert_eq!(run.target.extent_size(&ClassName::new("CountryT")), 2);
    assert_eq!(run.target.extent_size(&ClassName::new("CityT")), 3);

    // And the result can be dumped back out through the CSV adapter.
    let table = relational::dump_class(&run.target, &ClassName::new("CountryT"), "name").unwrap();
    let text = csv::to_csv(&table);
    assert!(text.contains("France"));
    assert!(text.contains("Italy"));
}

#[test]
fn genome_workload_round_trips_through_the_tree_store() {
    let params = GenomeParams {
        clones: 12,
        markers: 30,
        density: 0.5,
        seed: 4,
    };
    let source = genome::generate_source(&params);
    validate::check_instance(&source, &genome::source_schema()).unwrap();
    let run = Morphase::new()
        .transform(&genome::program(), &[&source][..])
        .unwrap();
    validate::check_instance(&run.target, &genome::target_schema()).unwrap();
    assert_eq!(run.target.extent_size(&ClassName::new("CloneD")), 12);
    assert_eq!(run.target.extent_size(&ClassName::new("MarkerD")), 30);
}

#[test]
fn people_schema_evolution_preserves_information_under_constraints() {
    let workload = PeopleWorkload::new();
    let program = workload.program();
    let source = generate_couples(5, 13);
    let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
    assert_eq!(run.target.extent_size(&ClassName::new("Marriage")), 5);
    validate::check_keyed_instance(&run.target, &workload.target_schema, &workload.target_keys)
        .unwrap();
}

#[test]
fn variant_family_agrees_with_the_datalog_baseline() {
    use wol_oracle::datalog::{evaluate, variant_baseline_program, variant_facts};
    let k = 4;
    let source = variants::generate_source(k, 40, 19);
    let target = naive_transform(&variants::wol_program(k), &[&source][..], "target").unwrap();
    let (db, _) = evaluate(
        &variant_baseline_program(k).program,
        &variant_facts(&source, k),
    );
    assert_eq!(target.extent_size(&ClassName::new("Obj")), db["obj"].len());
    // The WOL program is linear in k, the baseline exponential.
    assert_eq!(variants::wol_program(k).clauses.len(), 2 * k + 1);
    assert_eq!(variant_baseline_program(k).rule_count(), 1 << k);
}

#[test]
fn omitting_constraints_blows_up_but_preserves_semantics() {
    let n = 8;
    let k = 3;
    let source = wide::generate_source(n, 6, 3);
    let keyed = Morphase::new()
        .compile(&wide::partial_program(n, k, true))
        .unwrap();
    let unkeyed_options = PipelineOptions {
        use_target_keys: false,
        generate_metadata_constraints: false,
        ..PipelineOptions::default()
    };
    let unkeyed = Morphase::with_options(unkeyed_options)
        .compile(&wide::partial_program(n, k, false))
        .unwrap();
    assert_eq!(keyed.normal.len(), k);
    assert_eq!(unkeyed.normal.len(), (1 << k) - 1);

    // With keys, execution produces one object per source row with all fields.
    let run = Morphase::new()
        .transform(&wide::partial_program(n, k, true), &[&source][..])
        .unwrap();
    assert_eq!(run.target.extent_size(&ClassName::new("Tgt")), 6);
    for (_, value) in run.target.objects(&ClassName::new("Tgt")) {
        assert_eq!(value.as_record().unwrap().len(), n + 1);
    }
}

/// The run-time rule over clause bodies, as one table: a comparison reads a
/// bad value — a missing optional attribute, a dangling reference, an
/// uncomparable value — as false, under every operator and in either operand
/// order, wherever the body runs. The naive semantics and Morphase derive
/// equivalent targets, and a constraint with the same body neither errors nor
/// reports a violation.
#[test]
fn a_body_comparison_reads_a_bad_value_as_false_everywhere() {
    use wol_repro::wol_engine::{check_constraints, instances_equivalent, Databases};
    use wol_repro::wol_lang::parse_clause;
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Instance, Schema, Type};

    let person_s = ClassName::new("PersonS");
    let person = Type::record([
        ("name", Type::str()),
        ("age", Type::optional(Type::int())),
        ("friend", Type::optional(Type::class("PersonS"))),
    ]);
    let source_schema = Schema::new("src").with_class("PersonS", person);
    let target_schema =
        Schema::new("tgt").with_class("PersonT", Type::record([("name", Type::str())]));
    // Two well-formed persons, and one more that carries the bad value.
    let source_with = |bad: &str| -> Instance {
        let mut source = Instance::new("src");
        let ann = source.insert_fresh(
            &person_s,
            Value::record([("name", Value::str("ann")), ("age", Value::int(20))]),
        );
        let bob = Value::record([
            ("name", Value::str("bob")),
            ("age", Value::int(40)),
            ("friend", Value::oid(ann)),
        ]);
        source.insert_fresh(&person_s, bob);
        let cid = match bad {
            "missing" => Value::record([("name", Value::str("cid"))]),
            "uncomparable" => {
                Value::record([("name", Value::str("cid")), ("age", Value::str("x"))])
            }
            "dangling" => {
                let gone =
                    source.insert_fresh(&person_s, Value::record([("name", Value::str("x"))]));
                source.remove(&gone);
                Value::record([("name", Value::str("cid")), ("friend", Value::oid(gone))])
            }
            other => unreachable!("no bad value named {other}"),
        };
        source.insert_fresh(&person_s, cid);
        source
    };
    let comparisons = [
        "{t} = 20",
        "20 = {t}",
        "{t} != 99",
        "99 != {t}",
        "{t} < 30",
        "30 < {t}",
        "{t} =< 30",
        "30 =< {t}",
    ];
    for (bad, term) in [
        ("missing", "Y.age"),
        ("dangling", "Y.friend.age"),
        ("uncomparable", "Y.age"),
    ] {
        let source = source_with(bad);
        for comparison in comparisons {
            let comparison = comparison.replace("{t}", term);
            let case = format!("{comparison} over a {bad} value");
            let program = Program::new(
                "probe",
                vec![SchemaBinding::new(source_schema.clone())],
                SchemaBinding::new(target_schema.clone()),
            )
            .with_text(&format!(
                "T: X in PersonT, X.name = N <= Y in PersonS, N = Y.name, {comparison};\n\
                 K: X = Mk_PersonT(N) <= X in PersonT, N = X.name;"
            ));
            let naive = naive_transform(&program, &[&source][..], "tgt")
                .unwrap_or_else(|e| panic!("{case}: naive semantics failed: {e}"));
            let run = Morphase::new()
                .transform(&program, &[&source][..])
                .unwrap_or_else(|e| panic!("{case}: Morphase failed: {e}"));
            assert!(
                instances_equivalent(&naive, &run.target, 2),
                "{case}: the naive and Morphase targets diverge"
            );
            let constraint =
                parse_clause(&format!("C: Y in PersonS <= Y in PersonS, {comparison}")).unwrap();
            let dbs = Databases::new(&[&source]);
            let violations = check_constraints(&[&constraint], &dbs)
                .unwrap_or_else(|e| panic!("{case}: the constraint check failed: {e}"));
            assert!(violations.is_empty(), "{case}: {violations:?}");
        }
    }
}

/// The two `member` shapes the CPL translator cannot run yet (ROADMAP item
/// 14) are refused by name: each error names the clause and renders the
/// atom it rejects — the unnesting body atom as the clause's normal form
/// spells it (the clause's `c0_` names), the set-building head atom as
/// written. The naive semantics runs both.
#[test]
fn translator_rejections_name_the_clause_and_the_atom() {
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Instance, Schema, Type};

    let named_set = || Type::record([("name", Type::str()), ("aliases", Type::set(Type::str()))]);
    let source_schema = Schema::new("src").with_class("MarkerS", named_set());
    let target = Schema::new("tgt")
        .with_class("AliasT", Type::record([("name", Type::str())]))
        .with_class("MarkerT", named_set());
    let mut source = Instance::new("src");
    for (name, aliases) in [("m1", ["a", "b"]), ("m2", ["b", "c"])] {
        let aliases = Value::set(aliases.map(Value::str));
        let marker = Value::record([("name", Value::str(name)), ("aliases", aliases)]);
        source.insert_fresh(&ClassName::new("MarkerS"), marker);
    }
    let cases = [
        (
            "UN: X in AliasT, X.name = N <= S in MarkerS, N member S.aliases;\n\
             KA: X = Mk_AliasT(N) <= X in AliasT, N = X.name;",
            "UN",
            "c0_N member c0_S.aliases",
        ),
        (
            "SET: X in MarkerT, X.name = S.name, A member X.aliases \
                 <= S in MarkerS, A member S.aliases;\n\
             KM: X = Mk_MarkerT(N) <= X in MarkerT, N = X.name;",
            "SET",
            "A member X.aliases",
        ),
    ];
    for (text, label, atom) in cases {
        let program = Program::new(
            "member_shapes",
            vec![SchemaBinding::new(source_schema.clone())],
            SchemaBinding::new(target.clone()),
        )
        .with_text(text);
        naive_transform(&program, &[&source][..], "tgt").unwrap_or_else(|e| panic!("{label}: {e}"));
        let error = Morphase::new()
            .transform(&program, &[&source])
            .expect_err("the translator refuses a member atom")
            .to_string();
        assert!(
            error.contains(label) && error.contains(&format!("`{atom}`")),
            "{label}: {error}"
        );
    }
}
