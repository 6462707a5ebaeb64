//! The front end's output, pinned: the eleven `compile_suite` programs
//! (wolbench's compile workload — the paper's compile-time evaluation,
//! including the keyless exponential case) compiled through
//! `Morphase::compile`, with each program's normal-form clause count and
//! node count held exactly, and the plan of the largest keyless clause held
//! by its rendering. A change to the typechecker, normaliser, translator or
//! planner that is meant to be a pure speed-up must leave all of it alone.

mod compile_suite;

use compile_suite::SUITE;
use wol_repro::morphase::Morphase;
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
