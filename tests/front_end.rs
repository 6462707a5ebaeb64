//! The front end's output, pinned: the eleven `compile_suite` programs
//! (wolbench's compile workload — the paper's compile-time evaluation,
//! including the keyless exponential case) compiled through
//! `Morphase::compile`, with each program's normal-form clause count and
//! node count held exactly, and the plan of the largest keyless clause held
//! by its rendering. A change to the typechecker, normaliser, translator or
//! planner that is meant to be a pure speed-up must leave all of it alone.
//! Where the planner places `Map` bindings is held for every suite program,
//! and the federated program's estimates over a fixed instance exactly.

mod compile_suite;
mod federated_source;

use compile_suite::SUITE;
use wol_repro::morphase::Morphase;
use wol_repro::workloads::federated::{self, FederatedParams};
use wol_repro::workloads::wide;

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
