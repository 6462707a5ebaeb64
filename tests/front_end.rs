//! The front end's output, pinned: the eleven `compile_suite` programs
//! (wolbench's compile workload — the paper's compile-time evaluation,
//! including the keyless exponential case) compiled through
//! `Morphase::compile`, with each program's normal-form clause count and
//! node count held exactly, and the plan of the largest keyless clause held
//! by its rendering; every normal clause and plan, as rendered, is held by
//! one hash. A change to the typechecker, normaliser, translator or planner
//! that is meant to be a pure speed-up must leave all of it alone.
//! Where the planner places `Map` bindings is held for every suite program,
//! and the federated program's estimates over a fixed instance exactly, with
//! the attribute indexes, histograms and columns that run and one skewed
//! run build. The planner's two ways in agree on every normal clause of the
//! suite and of every workload program: the parts the translator writes and
//! the raw plan it spells plan to equal queries.

mod compile_suite;
mod federated_source;

use compile_suite::SUITE;
use wol_repro::cpl::{self, Query, Statistics};
use wol_repro::morphase::{compile_program_with, Morphase, PlanMode};
use wol_repro::wol_engine::fold_witnesses;
use wol_repro::wol_engine::normalize::NormalProgram;
use wol_repro::wol_lang::program::Program;
use wol_repro::wol_model::{Fingerprint, Instance, Label, Schema, Type};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
use wol_repro::workloads::constrained::{self, ConstrainedParams};
use wol_repro::workloads::federated::{self, FederatedParams};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::people::{generate_couples, PeopleWorkload};
use wol_repro::workloads::skewed::{self, SkewedParams};
use wol_repro::workloads::{variants, wide};

#[test]
fn compile_suite_normal_forms_are_pinned() {
    let mut totals = (0, 0);
    for (name, build, want) in SUITE {
        let run = Morphase::new()
            .compile(&build())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = (run.normal.len(), run.normal.size());
        assert_eq!(got, want, "{name}: (normal clauses, normal-form nodes)");
        assert_eq!(run.plans.len(), got.0, "{name}: one plan per normal clause");
        totals = (totals.0 + got.0, totals.1 + got.1);
    }
    assert_eq!(totals, (371, 35_104));
}

/// Every normal clause and every plan of the suite, as rendered, folded into
/// one hash: the counts above do not see a reordered binding or a renamed
/// variable, this does.
#[test]
fn compile_suite_renderings_are_pinned() {
    let mut fp = Fingerprint::new();
    for (name, build, _) in SUITE {
        let run = Morphase::new()
            .compile(&build())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        fp.str(name);
        for clause in &run.normal.clauses {
            fp.str(&clause.render());
        }
        for plan in &run.plans {
            fp.str(plan);
        }
    }
    assert_eq!(fp.finish(), 0x694e_7532_1dd8_8f79);
}

/// The planner has two ways in, and they agree. Every normal clause of the
/// suite and of each workload program is planned from the parts the
/// translator writes (`PlanMode::PlannerWithStats`), and must equal, by
/// `==`, `cpl::optimize_with_stats` applied to the clause's
/// `PlanMode::Raw` translation after `fold_witnesses` (planning folds
/// witness scans first). Every clause is planned without statistics, and
/// each workload program's also over a source generated for it.
#[test]
fn planning_the_translators_parts_equals_planning_its_raw_plan() {
    let small_skew = SkewedParams {
        clones: 40,
        markers: 100,
        probes: 35,
        lanes: 120,
        bins: 20,
        zipf_exponent: 1.1,
        seed: 22,
    };
    let genome_params = GenomeParams {
        clones: 10,
        markers: 30,
        density: 0.6,
        seed: 22,
    };
    let (cities, people) = (CitiesWorkload::new(), PeopleWorkload::new());
    let mut programs: Vec<(String, Program, Option<Instance>)> = SUITE
        .iter()
        .map(|(name, build, _)| (name.to_string(), build(), None))
        .collect();
    let workloads = [
        (
            "genome",
            genome::program(),
            genome::generate_source(&genome_params),
        ),
        (
            "skewed",
            skewed::program(),
            skewed::generate_source(&small_skew),
        ),
        (
            "federated",
            federated::program(),
            federated_source::fully_ingested(&FederatedParams::scaled(1)),
        ),
        (
            "constrained",
            constrained::program(),
            constrained::generate_source(&ConstrainedParams::default()),
        ),
        (
            "variants",
            variants::wol_program(8),
            variants::generate_source(8, 40, 7),
        ),
        (
            "cities_euro",
            cities.euro_program(),
            generate_euro(4, 3, 17),
        ),
        ("cities_us", cities.us_program(), cities.small_us_instance()),
        ("people", people.program(), generate_couples(12, 5)),
    ];
    programs.extend(
        workloads
            .into_iter()
            .map(|(name, program, source)| (name.to_string(), program, Some(source))),
    );

    let mut planned_clauses = 0;
    for (name, program, source) in &programs {
        let normal = Morphase::new()
            .compile(program)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .normal;
        let folded = NormalProgram {
            clauses: (normal.clauses.iter())
                .map(|c| fold_witnesses(c).unwrap_or_else(|| c.clone()))
                .collect(),
            keys: normal.keys.clone(),
        };
        let raw = compile_program_with(&folded, PlanMode::Raw).expect("translates");
        let refs: Vec<&Instance> = source.iter().collect();
        let mut all_stats = vec![Statistics::empty()];
        all_stats.extend(source.is_some().then(|| Statistics::from_instances(&refs)));
        for stats in &all_stats {
            let planned = compile_program_with(&normal, PlanMode::PlannerWithStats(stats))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(planned.len(), raw.len(), "{name}: one query per clause");
            for (planned, raw) in planned.iter().zip(&raw) {
                let reference = Query {
                    plan: cpl::optimize_with_stats(raw.plan.clone(), stats),
                    ..raw.clone()
                };
                assert_eq!(
                    planned,
                    &reference,
                    "{name}: {}\nplanned from the parts:\n{}planned from the raw plan:\n{}",
                    planned.name,
                    planned.plan.render(),
                    reference.plan.render()
                );
                planned_clauses += 1;
            }
        }
    }
    // The suite's 371 clauses blind, and the workloads' 37 twice.
    assert_eq!(planned_clauses, 371 + 2 * 37, "clauses planned");
}

/// The keyless 8-partial program's one clause that combines all eight
/// partial descriptions scans `Wide` eight times. Planned without
/// statistics, it is a `Map` over a chain of seven one-key hash joins:
/// `c0_S ⋈ c1_S` innermost, then `c2_S` up to `c7_S`, each joined scan the
/// build side and the chain so far the probe side.
#[test]
fn the_eight_scan_keyless_clause_plans_as_a_chain_of_hash_joins() {
    let run = Morphase::new()
        .compile(&wide::partial_program(24, 8, false))
        .expect("compiles");
    let eight: Vec<&String> = run
        .plans
        .iter()
        .filter(|p| p.matches("Scan Wide").count() == 8)
        .collect();
    assert_eq!(
        eight.len(),
        1,
        "exactly one clause scans all eight partials"
    );
    let (map, joins) = eight[0].split_once('\n').expect("a Map over the joins");
    let bound: Vec<String> = (0..8)
        .flat_map(|k| {
            let first = 3 * k;
            std::iter::once(format!("c{k}_N"))
                .chain((first..first + 3).map(move |v| format!("c{k}_V{v}")))
        })
        .collect();
    assert_eq!(map, format!("Map [{}]", bound.join(", ")));
    assert_eq!(
        joins,
        "  HashJoin (1 key(s))
    Scan Wide as c7_S
    HashJoin (1 key(s))
      Scan Wide as c6_S
      HashJoin (1 key(s))
        Scan Wide as c5_S
        HashJoin (1 key(s))
          Scan Wide as c4_S
          HashJoin (1 key(s))
            Scan Wide as c3_S
            HashJoin (1 key(s))
              Scan Wide as c2_S
              HashJoin (1 key(s))
                Scan Wide as c0_S
                Scan Wide as c1_S
"
    );
}

/// A `Map` below a plan's root binds projections of the filtered scan it
/// sits on, so the scan's columnar tower reads them: in the rendering, the
/// line under it is that scan's `Filter`. Only the federated program's
/// scans carry filters and bindings at once; every other suite program
/// keeps its one `Map` at the root.
#[test]
fn bindings_sit_at_the_root_or_over_a_filtered_scan() {
    let mut below_root = 0;
    for (name, build, _) in SUITE {
        let run = Morphase::new()
            .compile(&build())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for plan in &run.plans {
            let lines: Vec<&str> = plan.lines().collect();
            for (i, line) in lines.iter().enumerate().skip(1) {
                let indent = line.len() - line.trim_start().len();
                if !line.trim_start().starts_with("Map [") {
                    continue;
                }
                assert_eq!(name, "federated", "a Map below the root:\n{plan}");
                assert_eq!(
                    lines.get(i + 1).map(|next| next.trim_start() == "Filter"
                        && next.len() - next.trim_start().len() == indent + 2),
                    Some(true),
                    "{name}: a Map below the root over no filter:\n{plan}"
                );
                below_root += 1;
            }
        }
    }
    // F2's two scans and F3's three bind below their joins.
    assert_eq!(below_root, 5);
}

/// The federated program's estimates over one fully ingested instance, as
/// the planner reports them per query and per join: a join key that reads a
/// variable its filtered scan binds is estimated as the projection it
/// stands for, so these are the figures planned with every binding above
/// the joins.
#[test]
fn federated_estimates_are_pinned() {
    let compiled = Morphase::new()
        .compile(&federated::program())
        .expect("compiles");
    assert_eq!(compiled.estimated_rows, [300, 9_000, 270_000]);

    let source = federated_source::fully_ingested(&FederatedParams::scaled(1));
    let run = Morphase::new()
        .transform(&federated::program(), &[&source])
        .expect("transforms");
    assert_eq!(run.estimated_rows, [30, 27, 540]);
    let joins: Vec<(&str, &str, u64, u64)> = run
        .join_stats
        .iter()
        .map(|j| (j.query.as_str(), j.kind.as_str(), j.estimated, j.actual))
        .collect();
    assert_eq!(
        joins,
        [
            ("F2 (#1)", "HashJoin", 27, 192),
            ("F3 (#2)", "HashJoin", 27, 192),
            ("F3 (#2)", "HashJoin", 540, 414),
        ]
    );
}

/// The `(class, attribute)` pairs of a source of `schema` holding an
/// attribute index, a histogram and a column, each as `Class.attr` (an
/// index on an attribute tuple joins them with `,`).
fn derived_structures(source: &Instance, schema: &Schema) -> [Vec<String>; 3] {
    let indexes = source
        .built_attr_indexes()
        .into_iter()
        .map(|(class, attrs)| {
            let attrs: Vec<&str> = attrs.iter().map(Label::as_str).collect();
            format!("{class}.{}", attrs.join(","))
        });
    let (mut histograms, mut columns) = (Vec::new(), Vec::new());
    for (class, ty) in schema.classes() {
        let Type::Record(fields) = ty else {
            panic!("{class} is not a record class");
        };
        for (attr, _) in fields {
            if source.has_attr_histogram(class, attr) {
                histograms.push(format!("{class}.{attr}"));
            }
            if source.has_attr_column(class, attr) {
                columns.push(format!("{class}.{attr}"));
            }
        }
    }
    [indexes.collect(), histograms, columns]
}

/// Ingest builds no index, histogram or column; one transform of the
/// federated program builds exactly those its plans read, lazily: the
/// planner reads histograms, and its plans hash-join filtered sides, so no
/// index is probed and none is built. An eager build creeping back into
/// ingest or planning, or a planner that starts reading another attribute,
/// shows here as a diff.
#[test]
fn federated_derived_structures_are_pinned() {
    let schema = federated::source_schema();
    let source = federated_source::fully_ingested(&FederatedParams::scaled(1));
    let nothing: [Vec<String>; 3] = Default::default();
    assert_eq!(
        derived_structures(&source, &schema),
        nothing,
        "built by ingest"
    );

    Morphase::new()
        .transform(&federated::program(), &[&source])
        .expect("transforms");
    let [indexes, mut histograms, columns] = derived_structures(&source, &schema);
    assert!(indexes.is_empty(), "indexes: {indexes:?}");
    histograms.sort();
    assert_eq!(
        histograms,
        [
            "AssayC.marker",
            "CloneR.name",
            "MarkerA.clone_name",
            "MarkerA.name",
        ],
        "histograms"
    );
    // Every attribute but `AssayC.batch`, in schema order.
    assert_eq!(
        columns,
        [
            "AssayC.sample",
            "AssayC.marker",
            "AssayC.tissue",
            "AssayC.level",
            "CloneR.name",
            "CloneR.length",
            "CloneR.lab",
            "MarkerA.name",
            "MarkerA.position",
            "MarkerA.clone_name",
        ],
        "columns"
    );
}

/// One transform of the skewed triangle builds the two indexes its plan
/// probes — the lane lookup and the root join's composite key on the
/// markers — and the histograms of the six joined attributes it was planned
/// with; planning builds no index.
#[test]
fn skewed_derived_structures_are_pinned() {
    let program = skewed::program();
    let source = skewed::generate_source(&SkewedParams::reduced());
    Morphase::new()
        .transform(&program, &[&source])
        .expect("transforms");
    let [indexes, mut histograms, _] = derived_structures(&source, &program.sources[0].schema);
    assert_eq!(indexes, ["LaneS.lane", "MarkerS.bin,clone_name"], "indexes");
    histograms.sort();
    assert_eq!(
        histograms,
        [
            "LaneS.bin",
            "LaneS.lane",
            "MarkerS.bin",
            "MarkerS.clone_name",
            "ProbeS.clone_name",
            "ProbeS.lane",
        ],
        "histograms"
    );
}
