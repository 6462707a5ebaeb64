//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;

use wol_oracle::match_body_reference;
use wol_repro::cpl::{self, Expr, Plan};
use wol_repro::morphase::Morphase;
use wol_repro::wol_engine::{
    execute, instances_equivalent, match_body, naive_transform, normalize, Bindings, Databases,
    MatchStats, NormalizeOptions,
};
use wol_repro::wol_lang::ast::Atom;
use wol_repro::wol_lang::{parse_clause, render_clause};
use wol_repro::wol_model::{ClassName, Instance, SkolemFactory, Value};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
use wol_repro::workloads::skewed::{self, SkewedParams};
use wol_repro::workloads::{variants, wide};

/// Clause bodies (over the Cities schemas) that exercise scans, index probes,
/// filters, pattern equalities and inequality joins.
const MATCHER_BODIES: &[&str] = &[
    "Z = 1 <= X in CountryE",
    "Z = 1 <= X in CountryE, X.language = \"French\"",
    "Z = 1 <= X in CountryE, Y in CityE, Y.country = X, Y.is_capital = true",
    "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name",
    "Z = 1 <= X in CountryE, Y in CountryE, X != Y",
    "Z = 1 <= X in CountryE, Y in CountryE, X != Y, X.language = Y.language",
    "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name, \
             Y in CityE, Y.country = X, Y.is_capital = true",
];

/// Match `body` with both matchers against `dbs`, returning the sorted
/// binding multisets and the two stats blocks.
fn match_both(
    body: &[Atom],
    dbs: &Databases<'_>,
) -> (Vec<Bindings>, Vec<Bindings>, MatchStats, MatchStats) {
    let mut factory = SkolemFactory::new();
    let mut indexed_stats = MatchStats::default();
    let mut indexed = match_body(body, dbs, &mut factory, Bindings::new(), &mut indexed_stats)
        .expect("indexed matcher succeeds");
    let mut factory = SkolemFactory::new();
    let mut reference_stats = MatchStats::default();
    let mut reference = match_body_reference(
        body,
        dbs,
        &mut factory,
        Bindings::new(),
        &mut reference_stats,
    )
    .expect("reference matcher succeeds");
    indexed.sort();
    reference.sort();
    (indexed, reference, indexed_stats, reference_stats)
}

/// The tentpole regression: on a three-way join over a generated instance the
/// indexed matcher must do at least 5x less binding enumeration than the
/// naive generate-and-test matcher, while producing the identical multiset.
#[test]
fn indexed_matcher_reduces_bindings_considered_at_least_5x_on_three_way_join() {
    let source = generate_euro(30, 30, 7); // 30 countries, 900 cities
    let refs = [&source];
    let dbs = Databases::new(&refs[..]);
    let body = "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name, \
                        Y in CityE, Y.country = X, Y.is_capital = true";
    let body = parse_clause(body).expect("body parses").body;
    let (indexed, reference, indexed_stats, reference_stats) = match_both(&body, &dbs);
    assert_eq!(indexed, reference);
    assert_eq!(indexed.len(), 900); // every city joined to its country's capital
    assert!(indexed_stats.index_probes > 0);
    assert!(
        reference_stats.bindings_considered >= 5 * indexed_stats.bindings_considered,
        "expected a >=5x reduction, got reference={} indexed={}",
        reference_stats.bindings_considered,
        indexed_stats.bindings_considered
    );
}

/// A raw (unoptimised) chain-join plan over `k` scans alternating between
/// `CityE` and `CountryE`, listed in an arbitrary rotation of the scan order:
/// scans are cross-joined in that order, one join variable (`N`) is defined
/// by a `Map`, and every join edge and filter sits at the very top — the
/// worst shape the translator can hand the planner.
fn chain_join_raw_plan(k: usize, rotation: usize) -> Plan {
    let class_of = |i: usize| {
        if i.is_multiple_of(2) {
            "CityE"
        } else {
            "CountryE"
        }
    };
    let var_of = |i: usize| format!("V{i}");
    let mut plan: Option<Plan> = None;
    for step in 0..k {
        let i = (step + rotation) % k;
        let scan = Plan::scan(class_of(i), var_of(i));
        plan = Some(match plan {
            None => scan,
            Some(p) => p.cross(scan),
        });
    }
    let mut plan = plan.expect("at least two scans").map(vec![(
        "N".to_string(),
        Expr::var(var_of(0)).proj("country"),
    )]);
    plan = plan.filter(Expr::var(var_of(0)).proj("is_capital"));
    for i in 1..k {
        let edge = if i % 2 == 1 {
            if i == 1 {
                // This edge goes through the Map-defined variable: the
                // planner must inline the definition to see the equality.
                Expr::var("N").eq(Expr::var(var_of(1)))
            } else {
                Expr::var(var_of(i - 1))
                    .proj("country")
                    .eq(Expr::var(var_of(i)))
            }
        } else {
            Expr::var(var_of(i))
                .path("country.name")
                .eq(Expr::var(var_of(i - 1)).proj("name"))
        };
        plan = plan.filter(edge);
    }
    plan
}

/// A raw chain-join plan over the *skewed* schema: `k` scans cycling
/// MarkerS → ProbeS → LaneS in an arbitrary rotation, cross-joined, with one
/// join variable defined by a `Map` and every join edge left at the very
/// top. Edges join adjacent classes on their shared attribute (clone_name /
/// lane / bin), so the planner has real skew to estimate through.
fn skew_chain_raw_plan(k: usize, rotation: usize) -> Plan {
    let class_of = |i: usize| ["MarkerS", "ProbeS", "LaneS"][i % 3];
    let var_of = |i: usize| format!("V{i}");
    let mut plan: Option<Plan> = None;
    for step in 0..k {
        let i = (step + rotation) % k;
        let scan = Plan::scan(class_of(i), var_of(i));
        plan = Some(match plan {
            None => scan,
            Some(p) => p.cross(scan),
        });
    }
    // V0 is always a MarkerS scan; N goes through a Map definition so the
    // planner must inline it to see the first join edge.
    let mut plan = plan.expect("at least two scans").map(vec![(
        "N".to_string(),
        Expr::var(var_of(0)).proj("clone_name"),
    )]);
    plan = plan.filter(Expr::Leq(
        Box::new(Expr::var(var_of(0)).proj("bin")),
        Box::new(Expr::Const(wol_repro::wol_model::Value::int(64))),
    ));
    for i in 1..k {
        let (prev, this) = (var_of(i - 1), var_of(i));
        let edge = match (class_of(i - 1), class_of(i)) {
            ("MarkerS", "ProbeS") if i == 1 => {
                Expr::var("N").eq(Expr::var(this).proj("clone_name"))
            }
            ("MarkerS", "ProbeS") => Expr::var(prev)
                .proj("clone_name")
                .eq(Expr::var(this).proj("clone_name")),
            ("ProbeS", "LaneS") => Expr::var(prev)
                .proj("lane")
                .eq(Expr::var(this).proj("lane")),
            ("LaneS", "MarkerS") => Expr::var(prev).proj("bin").eq(Expr::var(this).proj("bin")),
            other => unreachable!("unexpected class pair {other:?}"),
        };
        plan = plan.filter(edge);
    }
    plan
}

/// Run a plan and return its sorted row multiset.
fn sorted_rows(plan: &Plan, refs: &[&wol_repro::wol_model::Instance]) -> Vec<cpl::Row> {
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(cpl::Parallelism::sequential());
    let mut stats = cpl::ExecStats::default();
    let mut rows = cpl::run_plan(plan, &mut ctx, &mut stats).expect("plan runs");
    rows.sort();
    rows
}

/// Wrap the planned chain join in a Skolem-heavy shape: a `Map` minting a
/// clone-group identity per row (duplicate keys across rows, hence across
/// worker chunks) and two insert actions — one keyed by the *duplicated*
/// clone name (partial inserts merging under the key, with a Skolem-valued
/// attribute functionally dependent on it) and one keyed per marker object
/// with a nested Skolem reference to the group: partitions mint the same
/// keys through factories of their own, which fold into the caller's.
fn skolem_heavy_query(plan: &Plan) -> cpl::Query {
    let mapped = plan.clone().map(vec![(
        "GRP".to_string(),
        Expr::Skolem(
            ClassName::new("GroupT"),
            Box::new(Expr::var("V0").proj("clone_name")),
        ),
    )]);
    cpl::Query {
        name: "skolem_soak".to_string(),
        plan: mapped,
        inserts: vec![
            cpl::InsertAction {
                class: ClassName::new("CloneT"),
                // Duplicate keys across rows and workers: every row of one
                // clone merges into one object.
                key: Expr::var("V0").proj("clone_name"),
                attrs: vec![
                    ("name".into(), Expr::var("V0").proj("clone_name")),
                    // Functionally dependent on the key, so merges agree.
                    ("group".into(), Expr::var("GRP")),
                ],
            },
            cpl::InsertAction {
                class: ClassName::new("MarkerT"),
                key: Expr::var("V0"),
                attrs: vec![
                    ("marker".into(), Expr::var("V0").proj("name")),
                    (
                        // A fresh Skolem per insert evaluation, interleaved
                        // with the key mints of both actions.
                        "entry".into(),
                        Expr::Skolem(
                            ClassName::new("EntryT"),
                            Box::new(Expr::var("V0").proj("name")),
                        ),
                    ),
                    ("group".into(), Expr::var("GRP")),
                ],
            },
        ],
    }
}

/// Run a Skolem-heavy query end to end at one thread count, with the
/// parallel threshold at one row, returning everything determinism is judged
/// on: the produced rows, the target instance, the merged [`ExecStats`] and
/// the Skolem memo the workers folded into the caller's factory.
fn run_skolem_query(
    query: &cpl::Query,
    refs: &[&Instance],
    threads: usize,
) -> (Vec<cpl::Row>, Instance, cpl::ExecStats, String) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let rows = cpl::run_plan(&query.plan, &mut ctx, &mut stats).expect("plan runs");
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let mut target = Instance::new("target");
    cpl::execute_query(query, &mut ctx, &mut target, &mut stats).expect("query executes");
    (rows, target, stats, format!("{:?}", ctx.factory))
}

/// Execute `plan` at the given thread count — both bare (for the row stream)
/// and as a full query whose Skolem-keyed insert actions build a target
/// instance from the rows (so merged partial inserts are part of what is
/// compared). The parallel threshold is lowered to
/// one row so even tiny generated instances exercise the partitioned paths.
fn run_query_with_threads(
    plan: &Plan,
    refs: &[&wol_repro::wol_model::Instance],
    threads: usize,
) -> (Vec<cpl::Row>, wol_repro::wol_model::Instance) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let rows = cpl::run_plan(plan, &mut ctx, &mut stats).expect("plan runs");

    let query = cpl::Query {
        name: "thread_matrix".to_string(),
        plan: plan.clone(),
        inserts: vec![cpl::InsertAction {
            class: ClassName::new("OutT"),
            // Keyed by the V0 marker object: join multiplicity makes partial
            // inserts merge, exactly like compiled normal-form clauses.
            key: Expr::var("V0"),
            attrs: vec![
                ("marker".into(), Expr::var("V0").proj("name")),
                ("clone".into(), Expr::var("V0").proj("clone_name")),
            ],
        }],
    };
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let mut target = wol_repro::wol_model::Instance::new("target");
    cpl::execute_query(&query, &mut ctx, &mut target, &mut stats).expect("query executes");
    (rows, target)
}

/// A scan→filter→project tower over the skewed `MarkerS` class — the plan
/// shape the columnar executor answers batch-at-a-time. Mixes an integer
/// range predicate, an optional dictionary-string equality and a negation,
/// and projects through a `Map` so late materialization is exercised.
fn marker_tower_plan(bin_cut: i64, with_str_eq: bool, negate: bool) -> Plan {
    let mut plan = Plan::scan("MarkerS", "M").filter(Expr::Leq(
        Box::new(Expr::var("M").proj("bin")),
        Box::new(Expr::Const(Value::int(bin_cut))),
    ));
    if with_str_eq {
        let eq = Expr::var("M")
            .proj("clone_name")
            .eq(Expr::Const(Value::str("clone0")));
        plan = plan.filter(if negate { Expr::Not(Box::new(eq)) } else { eq });
    }
    plan.map(vec![
        ("V0".to_string(), Expr::var("M")),
        ("NAME".to_string(), Expr::var("M").proj("name")),
        ("BIN".to_string(), Expr::var("M").proj("bin")),
    ])
}

/// Run `plan` bare and as an insert-action query with the columnar executor
/// forced on or off, returning the row stream, the built target and the
/// merged stats the differential is judged on.
fn run_with_columnar(
    plan: &Plan,
    refs: &[&Instance],
    threads: usize,
    columnar: bool,
) -> (Vec<cpl::Row>, Instance, cpl::ExecStats, cpl::ColumnarStats) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    ctx.set_columnar(columnar);
    let mut stats = cpl::ExecStats::default();
    let rows = cpl::run_plan(plan, &mut ctx, &mut stats).expect("plan runs");
    let columnar_stats = ctx.take_columnar_stats();
    let query = cpl::Query {
        name: "columnar_diff".to_string(),
        plan: plan.clone(),
        inserts: vec![cpl::InsertAction {
            class: ClassName::new("OutT"),
            key: Expr::var("V0"),
            attrs: vec![
                ("marker".into(), Expr::var("NAME")),
                ("bin".into(), Expr::var("BIN")),
            ],
        }],
    };
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    ctx.set_columnar(columnar);
    let mut stats = cpl::ExecStats::default();
    let mut target = Instance::new("target");
    cpl::execute_query(&query, &mut ctx, &mut target, &mut stats).expect("query executes");
    (rows, target, stats, columnar_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The columnar differential: on scan→filter→project towers over
    /// zipf-skewed instances, the batch-at-a-time columnar executor and the
    /// row-at-a-time executor produce the identical row stream (order
    /// included), the bit-identical target instance and equal merged
    /// `ExecStats`, at every thread count in {1, 2, 4, 8} and under both
    /// planner cost models. The columnar path must actually engage — a
    /// silently disqualified pipeline would make this test vacuous.
    #[test]
    fn columnar_execution_matches_row_major_across_the_thread_matrix(
        bin_cut in 0i64..6,
        with_str_eq in 0usize..2,
        negate in 0usize..2,
        clones in 1usize..5,
        markers in 2usize..11,
        probes in 1usize..7,
        seed in 0u64..500,
    ) {
        let params = SkewedParams {
            clones,
            markers,
            probes,
            lanes: 4,
            bins: 3,
            zipf_exponent: 1.3,
            seed,
        };
        let source = skewed::generate_source(&params);
        let refs = [&source];
        let tower = marker_tower_plan(bin_cut, with_str_eq == 1, negate == 1);
        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            let stats = cpl::Statistics::from_instances(&refs[..]).with_cost_model(cost_model);
            let planned = cpl::optimize_with_stats(tower.clone(), &stats);
            let (base_rows, base_target, base_stats, _) =
                run_with_columnar(&planned, &refs[..], 1, false);
            for threads in [1usize, 2, 4, 8] {
                let (rows, target, stats, columnar_stats) =
                    run_with_columnar(&planned, &refs[..], threads, true);
                prop_assert!(columnar_stats.pipelines > 0,
                    "the columnar path never engaged on:\n{}", planned.render());
                prop_assert_eq!(&rows, &base_rows);
                prop_assert_eq!(&target, &base_target);
                prop_assert_eq!(&stats, &base_stats);
                // The row path itself is thread-invariant too.
                let (rows, target, stats, _) =
                    run_with_columnar(&planned, &refs[..], threads, false);
                prop_assert_eq!(&rows, &base_rows);
                prop_assert_eq!(&target, &base_target);
                prop_assert_eq!(&stats, &base_stats);
            }
        }
    }
}

/// The kind-matrix fixture: `n` `KindS` objects whose attributes cover
/// every column layout — `i` Int, `r` Real (signed zeros and NaN included),
/// `b` Bool, `s` a dictionary string, `o` an Oid into `RefS`, `m` an
/// Int/Str mix and `n` a nested record (both boxed), and `p` (Int) and `q`
/// (Bool) optional, missing on some objects. `k` numbers the objects.
fn kind_matrix_source(g: &mut proptest::Gen, n: usize) -> Instance {
    let mut source = Instance::new("kinds");
    let refs: Vec<Value> = (0..3)
        .map(|i| {
            let oid = source.insert_fresh(
                &ClassName::new("RefS"),
                Value::record([("k", Value::int(i))]),
            );
            Value::oid(oid)
        })
        .collect();
    let reals = [-1.5, -0.0, 0.0, 2.0, 2.5, f64::NAN];
    for k in 0..n {
        let mut fields = vec![
            ("k", Value::int(k as i64)),
            ("i", Value::int(g.usize_in(0, 6) as i64 - 2)),
            ("r", Value::real(pick(g, &reals))),
            ("b", Value::Bool(one_in(g, 2))),
            // `s1` is always in the dictionary: object 0 holds it.
            (
                "s",
                Value::str(if k == 0 {
                    "s1"
                } else {
                    pick(g, &["s0", "s1", "s2"])
                }),
            ),
            ("o", refs[g.usize_in(0, refs.len())].clone()),
            (
                "m",
                if k % 2 == 0 {
                    Value::int(g.usize_in(0, 4) as i64)
                } else {
                    Value::str("m")
                },
            ),
            (
                "n",
                Value::record([("x", Value::int(g.usize_in(0, 2) as i64))]),
            ),
        ];
        if !one_in(g, 3) {
            fields.push(("p", Value::int(g.usize_in(0, 5) as i64)));
        }
        if !one_in(g, 3) {
            fields.push(("q", Value::Bool(one_in(g, 2))));
        }
        source.insert_fresh(&ClassName::new("KindS"), Value::record(fields));
    }
    source
}

/// The kind-matrix operands: the scanned identity, every attribute of
/// [`kind_matrix_source`], and a constant of every kind — an Int, a Real
/// equal to an Int, a Bool, a string in the dictionary and one that is not,
/// an Oid and a record. Each with the attribute it reads (`None` for the
/// identity and the constants).
fn kind_matrix_operands(source: &Instance) -> Vec<(Expr, Option<&'static str>)> {
    let first_ref = source
        .extent(&ClassName::new("RefS"))
        .next()
        .expect("RefS is populated")
        .clone();
    let mut operands = vec![(Expr::var("M"), None)];
    for attr in ["i", "r", "b", "s", "o", "m", "n", "p", "q"] {
        operands.push((Expr::var("M").proj(attr), Some(attr)));
    }
    for constant in [
        Value::int(2),
        Value::real(2.0),
        Value::Bool(true),
        Value::str("s1"),
        Value::str("zz"),
        Value::oid(first_ref),
        Value::record([("x", Value::int(1))]),
    ] {
        operands.push((Expr::Const(constant), None));
    }
    operands
}

/// Run `plan` on the row path or the columnar tower: the rows (or the
/// error), the merged stats, and whether the columnar tower ran.
fn run_kind_case(
    plan: &Plan,
    refs: &[&Instance],
    threads: usize,
    columnar: bool,
) -> (Result<Vec<cpl::Row>, cpl::CplError>, cpl::ExecStats, bool) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    ctx.set_columnar(columnar);
    let mut stats = cpl::ExecStats::default();
    let rows = cpl::run_plan(plan, &mut ctx, &mut stats);
    (rows, stats, ctx.columnar_stats().pipelines > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The kind-matrix differential: every comparison (`= != < =<`) over
    /// every pair of kind-matrix operands (constant against constant
    /// excepted), each plain, negated and conjoined behind a conjunct that
    /// errors on half the rows, and truth tests of Bool and non-Bool
    /// columns, run as a scan→filter→map tower. The row path and the
    /// columnar tower agree row for row — rows, errors and stats — at every
    /// thread count in {1, 2, 4, 8}, and every comparison engages the tower.
    /// Where one side is an attribute and the other a constant, the
    /// providers' `PushedFilter::matches` keeps exactly the objects the
    /// plain filter keeps.
    #[test]
    fn columnar_comparisons_match_the_row_path_over_the_kind_matrix(seed in 0u64..u64::MAX) {
        use wol_repro::storage::{PushOp, PushedFilter};

        let mut g = proptest::Gen::new(seed);
        let source = kind_matrix_source(&mut g, 40);
        let refs = [&source];
        let operands = kind_matrix_operands(&source);
        // Errors (an Int/Str mix compared with `<`) on the odd objects, true
        // on the even ones.
        let erring = Expr::Lt(
            Box::new(Expr::var("M").proj("m")),
            Box::new(Expr::Const(Value::int(100))),
        );
        // `Q` reads the optional `p`: the map drops the objects lacking it.
        let tower = |predicate: Expr| {
            Plan::scan("KindS", "M").filter(predicate).map(vec![
                ("K".to_string(), Expr::var("M").proj("k")),
                ("Q".to_string(), Expr::var("M").proj("p")),
            ])
        };
        let check = |plan: &Plan, must_engage: bool| -> Result<Vec<cpl::Row>, String> {
            let (base, base_stats, _) = run_kind_case(plan, &refs[..], 1, false);
            for threads in [1usize, 2, 4, 8] {
                let (rows, stats, engaged) = run_kind_case(plan, &refs[..], threads, true);
                prop_assert!(engaged || !must_engage,
                    "the columnar path never engaged on:\n{}\n{:?}", plan.render(), plan);
                prop_assert!(rows == base, "columnar at {} threads: {:?} != {:?}\n{:?}",
                    threads, rows, base, plan);
                if base.is_ok() {
                    prop_assert!(stats == base_stats, "columnar stats at {} threads: {:?}", threads, plan);
                }
                let (rows, _, _) = run_kind_case(plan, &refs[..], threads, false);
                prop_assert!(rows == base, "row path at {} threads: {:?}", threads, plan);
            }
            Ok(base.unwrap_or_default())
        };
        // Each comparison, with the pushed operator for `attr op const` and
        // for `const op attr`.
        type Build = fn(Box<Expr>, Box<Expr>) -> Expr;
        let ops: [(Build, PushOp, PushOp); 4] = [
            (Expr::Eq, PushOp::Eq, PushOp::Eq),
            (Expr::Neq, PushOp::Neq, PushOp::Neq),
            (Expr::Lt, PushOp::Lt, PushOp::Gt),
            (Expr::Leq, PushOp::Leq, PushOp::Geq),
        ];
        for (left, left_attr) in &operands {
            for (right, right_attr) in &operands {
                let constant = |e: &Expr| matches!(e, Expr::Const(_));
                if constant(left) && constant(right) {
                    continue;
                }
                for (build, op, flipped) in ops {
                    let cmp = build(Box::new(left.clone()), Box::new(right.clone()));
                    let kept = check(&tower(cmp.clone()), true)?;
                    check(&tower(Expr::Not(Box::new(cmp.clone()))), true)?;
                    check(&tower(Expr::and(vec![erring.clone(), cmp.clone()])), true)?;
                    // Attribute against constant: what a provider evaluates.
                    let pushed = match (left_attr, right_attr, left, right) {
                        (Some(attr), None, _, Expr::Const(value)) => Some((attr, op, value)),
                        (None, Some(attr), Expr::Const(value), _) => Some((attr, flipped, value)),
                        _ => None,
                    };
                    if let Some((attr, op, value)) = pushed {
                        let filter = PushedFilter {
                            attr: attr.to_string(),
                            op,
                            value: value.clone(),
                        };
                        let expected: Vec<Value> = source
                            .objects(&ClassName::new("KindS"))
                            .filter(|(_, record)| {
                                filter.matches(record.project(attr))
                                    && record.project("p").is_some()
                            })
                            .map(|(oid, _)| Value::oid(oid.clone()))
                            .collect();
                        let actual: Vec<Value> = kept.iter().map(|row| row["M"].clone()).collect();
                        prop_assert!(actual == expected, "pushed {:?}: {:?} != {:?}", filter, actual, expected);
                    }
                }
            }
        }
        // Truth tests: a Bool column (one with missing cells too) runs on the
        // tower; a non-Bool one is the row path's error on both sides.
        for (attr, engages) in [("b", true), ("q", true), ("i", false), ("s", false), ("n", false)] {
            let test = Expr::var("M").proj(attr);
            check(&tower(test.clone()), engages)?;
            check(&tower(Expr::Not(Box::new(test.clone()))), engages)?;
            check(&tower(Expr::and(vec![erring.clone(), test])), engages)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The join-graph planner (with live statistics) produces exactly the
    /// row multiset of the raw plan — the reference semantics — for every
    /// scan order of 2-5 scans over generated instances.
    #[test]
    fn planner_and_reference_preserve_raw_row_multisets(
        k in 2usize..6,
        rotation in 0usize..6,
        countries in 1usize..4,
        cities in 1usize..4,
        seed in 0u64..500,
    ) {
        let source = generate_euro(countries, cities, seed);
        let refs = [&source];
        let stats = cpl::Statistics::from_instances(&refs[..]);
        let raw = chain_join_raw_plan(k, rotation % k);
        let expected = sorted_rows(&raw, &refs[..]);
        let planned = cpl::optimize_with_stats(raw.clone(), &stats);
        prop_assert_eq!(&sorted_rows(&planned, &refs[..]), &expected);
        // The planner never leaves a product behind on this connected graph.
        let rendered = planned.render();
        prop_assert!(!rendered.contains("CrossJoin") && !rendered.contains("NestedLoopJoin"),
            "a product survived planning:\n{}", rendered);
    }

    /// The histogram-driven planner is differentially verified, not just
    /// benchmarked: over zipfian-skewed instances, for every scan order of
    /// 2-5 scans, planning with histogram statistics and planning with flat
    /// `1/ndv` statistics both produce exactly the raw plan's row multiset —
    /// and the planner leaves no product behind on these connected graphs
    /// under either cost model.
    #[test]
    fn histogram_and_flat_planners_preserve_raw_row_multisets_on_skew(
        k in 2usize..6,
        rotation in 0usize..6,
        clones in 1usize..5,
        markers in 2usize..11,
        probes in 1usize..7,
        seed in 0u64..500,
    ) {
        let params = SkewedParams {
            clones,
            markers,
            probes,
            lanes: 4,
            bins: 3,
            zipf_exponent: 1.3,
            seed,
        };
        let source = skewed::generate_source(&params);
        let refs = [&source];
        let raw = skew_chain_raw_plan(k, rotation % k);
        let expected = sorted_rows(&raw, &refs[..]);
        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            let stats = cpl::Statistics::from_instances(&refs[..]).with_cost_model(cost_model);
            let planned = cpl::optimize_with_stats(raw.clone(), &stats);
            prop_assert_eq!(&sorted_rows(&planned, &refs[..]), &expected);
            let rendered = planned.render();
            prop_assert!(!rendered.contains("CrossJoin") && !rendered.contains("NestedLoopJoin"),
                "a product survived planning under {:?}:\n{}", cost_model, rendered);
        }
    }

    /// The thread-matrix differential: over zipf-skewed E7-style instances,
    /// parallel execution at every thread count in {1, 2, 4, 8} produces the
    /// *identical row stream and target instance* as the sequential executor
    /// — for the cost-based plan under both cost models *and* for the raw plan
    /// itself (products, predicate-less nested loops and filters above them)
    /// — and the row multiset always equals the raw plan's. The row stream is
    /// compared directly, so parallel row order is exactly sequential.
    #[test]
    fn parallel_execution_is_deterministic_across_the_thread_matrix(
        k in 2usize..5,
        rotation in 0usize..6,
        clones in 1usize..5,
        markers in 2usize..11,
        probes in 1usize..7,
        seed in 0u64..500,
    ) {
        let params = SkewedParams {
            clones,
            markers,
            probes,
            lanes: 4,
            bins: 3,
            zipf_exponent: 1.3,
            seed,
        };
        let source = skewed::generate_source(&params);
        let refs = [&source];
        let raw = skew_chain_raw_plan(k, rotation % k);
        let raw_multiset = sorted_rows(&raw, &refs[..]);
        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            let stats = cpl::Statistics::from_instances(&refs[..]).with_cost_model(cost_model);
            let planned = cpl::optimize_with_stats(raw.clone(), &stats);
            for plan in [&planned, &raw] {
                let (base_rows, base_target) = run_query_with_threads(plan, &refs[..], 1);
                for threads in [2usize, 4, 8] {
                    let (rows, target) = run_query_with_threads(plan, &refs[..], threads);
                    // Divergence at any thread count under either cost model
                    // is a determinism bug.
                    prop_assert_eq!(&rows, &base_rows);
                    prop_assert_eq!(&target, &base_target);
                }
                let mut multiset = base_rows;
                multiset.sort();
                prop_assert_eq!(&multiset, &raw_multiset);
            }
        }
    }

    /// The Skolem-insertion determinism **soak**: the primary proof that
    /// partitioned Skolem-bearing operators and inserts are deterministic.
    /// Over zipf-skewed generated instances,
    /// a Skolem-heavy program — a Skolem-minting `Map` over the planned
    /// join, plus insert actions whose keys *duplicate across worker
    /// chunks* (merging partial inserts) and whose attributes mint further
    /// identities interleaved with the key mints — must produce the
    /// bit-identical row stream, bit-identical target instance (identities
    /// included) and equal merged `ExecStats` at every thread count in
    /// {1, 2, 4, 8}, under both cost models. Any divergence means partitions
    /// merged out of input order, or an identity depended on its context.
    #[test]
    fn skolem_insertion_soak_is_deterministic_across_the_thread_matrix(
        k in 2usize..5,
        rotation in 0usize..6,
        clones in 1usize..5,
        markers in 2usize..11,
        probes in 1usize..7,
        seed in 0u64..500,
    ) {
        let params = SkewedParams {
            clones,
            markers,
            probes,
            lanes: 4,
            bins: 3,
            zipf_exponent: 1.3,
            seed,
        };
        let source = skewed::generate_source(&params);
        let refs = [&source];
        let raw = skew_chain_raw_plan(k, rotation % k);
        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            let stats = cpl::Statistics::from_instances(&refs[..]).with_cost_model(cost_model);
            let planned = cpl::optimize_with_stats(raw.clone(), &stats);
            let query = skolem_heavy_query(&planned);
            let (base_rows, base_target, base_stats, base_memo) =
                run_skolem_query(&query, &refs[..], 1);
            // Sanity: the generated program really is Skolem-heavy, and its
            // duplicated keys really merge — one CloneT object per distinct
            // group identity, one MarkerT object per distinct driving row.
            prop_assert!(query.plan.expressions().iter().any(|e| e.contains_skolem()));
            let groups: std::collections::BTreeSet<_> =
                base_rows.iter().map(|r| r["GRP"].clone()).collect();
            let drivers: std::collections::BTreeSet<_> =
                base_rows.iter().map(|r| r["V0"].clone()).collect();
            prop_assert_eq!(
                base_target.extent_size(&ClassName::new("CloneT")),
                groups.len()
            );
            prop_assert_eq!(
                base_target.extent_size(&ClassName::new("MarkerT")),
                drivers.len()
            );
            for threads in [2usize, 4, 8] {
                // Divergence at any thread count under either cost model —
                // in the row stream, the target, or the stats — is a bug in
                // the partitioned executor.
                let (rows, target, stats, memo) = run_skolem_query(&query, &refs[..], threads);
                prop_assert_eq!(&rows, &base_rows);
                prop_assert_eq!(&target, &base_target);
                prop_assert_eq!(&stats, &base_stats);
                prop_assert_eq!(&memo, &base_memo);
            }
        }
    }

    /// The Skolem factory is a bijection between key values and identities:
    /// equal keys give equal identities, distinct keys give distinct ones.
    #[test]
    fn skolem_factory_is_injective(keys in proptest::collection::vec("[a-z]{1,8}", 1..20)) {
        let mut factory = SkolemFactory::new();
        let class = ClassName::new("CountryT");
        let mut assigned = std::collections::BTreeMap::new();
        for key in &keys {
            let oid = factory.mk(&class, &Value::str(key.clone())).unwrap();
            let again = factory.mk(&class, &Value::str(key.clone())).unwrap();
            prop_assert_eq!(&oid, &again);
            if let Some(previous) = assigned.insert(key.clone(), oid.clone()) {
                prop_assert_eq!(previous, oid);
            }
        }
        let distinct_keys: std::collections::BTreeSet<_> = keys.iter().collect();
        let distinct_oids: std::collections::BTreeSet<_> = assigned.values().collect();
        prop_assert_eq!(distinct_keys.len(), distinct_oids.len());
    }

    /// Pretty-printing and re-parsing a clause is the identity.
    #[test]
    fn clause_round_trip(
        attr in "[a-z]{1,6}",
        class in "[A-Z][a-z]{1,6}",
        constant in "[a-zA-Z]{1,8}",
    ) {
        let text = format!("X in {class}, X.{attr} = \"{constant}\" <= Y in {class}, X = Y");
        let clause = parse_clause(&text).unwrap();
        let reparsed = parse_clause(render_clause(&clause).trim_end_matches(';')).unwrap();
        prop_assert_eq!(clause, reparsed);
    }

    /// The cities transformation scales: extents of the target are determined
    /// by the source sizes, for any generated source.
    #[test]
    fn cities_target_extents_match_source(countries in 1usize..6, cities in 1usize..5, seed in 0u64..500) {
        let workload = CitiesWorkload::new();
        let program = workload.euro_program();
        let source = generate_euro(countries, cities, seed);
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        prop_assert_eq!(target.extent_size(&ClassName::new("CountryT")), countries);
        prop_assert_eq!(target.extent_size(&ClassName::new("CityT")), countries * cities);
    }

    /// Normalisation is deterministic and insensitive to re-running.
    #[test]
    fn normalization_is_a_function(k in 1usize..5) {
        let program = variants::wol_program(k);
        let a = normalize(&program, &NormalizeOptions::default()).unwrap();
        let b = normalize(&program, &NormalizeOptions::default()).unwrap();
        prop_assert_eq!(a.clauses, b.clauses);
    }

    /// Splitting the same wide-record transformation into a different number
    /// of partial clauses does not change the produced target (up to renaming
    /// of object identities).
    #[test]
    fn partial_clause_granularity_is_semantically_irrelevant(
        rows in 1usize..6,
        k in 1usize..5,
        seed in 0u64..100,
    ) {
        let n = 8;
        let source = wide::generate_source(n, rows, seed);
        let whole = normalize(&wide::normal_form_program(n), &NormalizeOptions::default()).unwrap();
        let split = normalize(&wide::partial_program(n, k, true), &NormalizeOptions::default()).unwrap();
        let a = execute(&whole, &[&source][..], "t").unwrap();
        let b = execute(&split, &[&source][..], "t").unwrap();
        prop_assert!(instances_equivalent(&a, &b, 2));
    }

    /// The indexed plan-based matcher returns exactly the same binding
    /// multiset as the naive reference matcher on generated instances — for
    /// a family of bodies covering scans, probes, filters and inequality
    /// joins over the source, and for every transformation-clause body of the
    /// cities program over the source *and* its naive target (the bodies
    /// that read target classes included) — and never enumerates more
    /// candidates doing it.
    #[test]
    fn indexed_matcher_equals_reference_on_generated_instances(
        countries in 1usize..8,
        cities in 1usize..8,
        seed in 0u64..1000,
    ) {
        let source = generate_euro(countries, cities, seed);
        let program = CitiesWorkload::new().euro_program();
        let target = naive_transform(&program, &[&source][..], "target").unwrap();
        let source_only = [&source];
        let with_target = [&source, &target];
        let bodies = MATCHER_BODIES
            .iter()
            .map(|text| (text.to_string(), parse_clause(text).unwrap().body, &source_only[..]))
            .chain(program.transformation_clauses().into_iter().map(|(_, clause)| {
                (render_clause(clause), clause.body.clone(), &with_target[..])
            }));
        for (name, body, instances) in bodies {
            let dbs = Databases::new(instances);
            let (indexed, reference, indexed_stats, reference_stats) = match_both(&body, &dbs);
            prop_assert!(indexed == reference, "matchers disagree on `{}`", name);
            prop_assert!(
                indexed_stats.bindings_considered <= reference_stats.bindings_considered,
                "indexed matcher considered more bindings on `{}`: {} > {}",
                name,
                indexed_stats.bindings_considered,
                reference_stats.bindings_considered
            );
        }
    }

    /// The Morphase/CPL execution path agrees with the engine's reference
    /// executor on the variant family.
    #[test]
    fn cpl_and_reference_execution_agree(k in 1usize..4, items in 1usize..12, seed in 0u64..100) {
        let program = variants::wol_program(k);
        let source = variants::generate_source(k, items, seed);
        let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let reference = execute(&normal, &[&source][..], "target").unwrap();
        prop_assert!(instances_equivalent(&run.target, &reference, 2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The maintenance differential: over generated genome sources and
    /// random mutation streams (inserts, position updates, duplicate Skolem
    /// keys, attribute updates on referenced clones, removals, renames), an
    /// incrementally maintained pipeline's target is bit-identical to a
    /// from-scratch re-run after every batch — and the final target and the
    /// cumulative `MaintainStats` are identical at every thread count in
    /// {1, 2, 4, 8} and the outcome counters under both planner cost models.
    #[test]
    fn incremental_maintenance_matches_from_scratch_reruns(
        clones in 2usize..8,
        markers in 4usize..16,
        density_tenths in 0usize..11,
        seed in 0u64..500,
        stream_seed in 0u64..500,
        batches in 1usize..7,
        ops in 1usize..5,
        mixed in 0usize..2,
    ) {
        use wol_repro::morphase::{MaterializedPipeline, PipelineOptions};
        use wol_repro::workloads::genome::{self, GenomeParams};
        use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

        let params = GenomeParams {
            clones,
            markers,
            density: density_tenths as f64 / 10.0,
            seed,
        };
        let program = genome::program();
        let source = genome::generate_source(&params);
        let weights = if mixed == 1 {
            TrafficWeights::mixed()
        } else {
            TrafficWeights::in_place()
        };
        let mut gen = TrafficGen::new(&source, stream_seed, weights);
        let stream: Vec<_> = (0..batches).map(|_| gen.next_batch(ops)).collect();

        // Canonical run: one thread, default cost model, oracle-checked
        // after every single batch.
        let mut canonical = MaterializedPipeline::new(
            &program,
            vec![source.clone()],
            PipelineOptions::default(),
        )
        .unwrap();
        for batch in &stream {
            canonical.apply_batch(batch).unwrap();
            let oracle = canonical.rerun_oracle().unwrap();
            if let Some(report) = canonical.target().deep_eq_report(&oracle.target) {
                prop_assert!(false, "maintained target diverged from the oracle: {}", report);
            }
        }
        let canonical_stats = canonical.stats().clone();

        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            for threads in [1usize, 2, 4, 8] {
                let options = PipelineOptions {
                    parallelism: cpl::Parallelism::new(threads),
                    cost_model,
                    ..PipelineOptions::default()
                };
                let mut pipeline =
                    MaterializedPipeline::new(&program, vec![source.clone()], options).unwrap();
                for batch in &stream {
                    pipeline.apply_batch(batch).unwrap();
                }
                if let Some(report) = pipeline.target().deep_eq_report(canonical.target()) {
                    prop_assert!(
                        false,
                        "target diverged at {} threads / {:?}: {}",
                        threads, cost_model, report
                    );
                }
                let stats = pipeline.stats();
                // Outcome counters are plan-shape independent.
                prop_assert_eq!(stats.batches, canonical_stats.batches);
                prop_assert_eq!(stats.inplace_batches, canonical_stats.inplace_batches);
                prop_assert_eq!(stats.rebuild_batches, canonical_stats.rebuild_batches);
                prop_assert_eq!(stats.rows_removed, canonical_stats.rows_removed);
                prop_assert_eq!(stats.rows_added, canonical_stats.rows_added);
                prop_assert_eq!(stats.objects_repaired, canonical_stats.objects_repaired);
                if cost_model == cpl::CostModel::default() {
                    // Within one cost model the full stats block — execution
                    // counters included — is thread-invariant.
                    prop_assert_eq!(stats, &canonical_stats);
                }
            }
        }
    }
}

/// Two partial clauses, over two source classes, that describe one target
/// object per name: `A` contributes `f0`, `f1`, `f2` and `B` contributes `f0`,
/// `f2`, `f3`. Rows under one name that give a shared field different values
/// conflict, inside one clause or across the two. Whichever clause applies
/// first, the other shares its least label `f0`, so a settle that dropped the
/// first clause's record for a conflicting object would miss the least
/// conflict.
const PARTIAL_CLAUSES: [(&str, [&str; 3]); 2] =
    [("A", ["f0", "f1", "f2"]), ("B", ["f0", "f2", "f3"])];

fn partial_conflict_program() -> wol_repro::wol_lang::program::Program {
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Schema, Type};
    let name = || ("name".to_string(), Type::str());
    let mut source = Schema::new("partial_src");
    let mut text = String::from("K: X = Mk_Tgt(N) <= X in Tgt, N = X.name;\n");
    for (class, labels) in PARTIAL_CLAUSES {
        let fields = labels.map(|f| (f.to_string(), Type::int()));
        source = source.with_class(class, Type::record([name()].into_iter().chain(fields)));
        let (mut head, mut body) = (String::new(), String::new());
        for (i, label) in labels.iter().enumerate() {
            head.push_str(&format!(", X.{label} = V{i}"));
            body.push_str(&format!(", S.{label} = V{i}"));
        }
        text.push_str(&format!(
            "P{class}: X in Tgt, X.name = N{head} <= S in {class}, S.name = N{body};\n"
        ));
    }
    let fields = ["f0", "f1", "f2", "f3"].map(|f| (f.to_string(), Type::optional(Type::int())));
    let target = Type::record([name()].into_iter().chain(fields));
    Program::new(
        "partial_conflicts",
        vec![SchemaBinding::new(source)],
        SchemaBinding::new(Schema::new("partial_tgt").with_class("Tgt", target)),
    )
    .with_text(&text)
}

/// Rows of both classes over a few names and small field domains, with one
/// cross-clause conflict planted on `f0` of `n0`.
fn partial_conflict_source(g: &mut proptest::Gen) -> Instance {
    let mut source = Instance::new("partial_src");
    let mut row = |class: &str, labels: [&str; 3], name: usize, values: [i64; 3]| {
        let fields = labels.into_iter().zip(values.map(Value::int));
        let name = ("name", Value::str(format!("n{name}")));
        source.insert_fresh(
            &ClassName::new(class),
            Value::record([name].into_iter().chain(fields)),
        );
    };
    let [(a, a_labels), (b, b_labels)] = PARTIAL_CLAUSES;
    row(a, a_labels, 0, [0, 0, 0]);
    row(b, b_labels, 0, [1, 0, 0]);
    for (class, labels) in PARTIAL_CLAUSES {
        for _ in 0..g.usize_in(0, 8) {
            let name = g.usize_in(0, 4);
            row(
                class,
                labels,
                name,
                [(); 3].map(|()| g.usize_in(0, 3) as i64),
            );
        }
    }
    source
}

/// The least conflicting `(object, attribute)` of [`partial_conflict_source`]
/// read off the rows alone: per name, a field any two rows give different
/// values.
fn least_partial_conflict(source: &Instance) -> (wol_repro::wol_model::Oid, String) {
    use std::collections::{BTreeMap, BTreeSet};
    use wol_repro::wol_model::Oid;
    let mut values: BTreeMap<(String, String), BTreeSet<Value>> = BTreeMap::new();
    for (class, labels) in PARTIAL_CLAUSES {
        for (_, record) in source.objects(&ClassName::new(class)) {
            let Some(Value::Str(name)) = record.project("name") else {
                panic!("every row has a name");
            };
            for label in labels {
                if let Some(value) = record.project(label) {
                    let key = (name.clone(), label.to_string());
                    values.entry(key).or_default().insert(value.clone());
                }
            }
        }
    }
    // A name's object is the one a run over that name's single row makes.
    let oid_of = |name: &str| -> Oid {
        let (class, labels) = PARTIAL_CLAUSES[0];
        let mut one = Instance::new("partial_src");
        let fields = labels.map(|label| (label, Value::int(0)));
        let row = [("name", Value::str(name))].into_iter().chain(fields);
        one.insert_fresh(&ClassName::new(class), Value::record(row));
        let run = Morphase::new()
            .transform(&partial_conflict_program(), &[&one][..])
            .expect("one row cannot conflict");
        let mut oids = run.target.extent(&ClassName::new("Tgt")).cloned();
        oids.next().expect("one object")
    };
    values
        .into_iter()
        .filter(|(_, seen)| seen.len() > 1)
        .map(|((name, label), _)| (oid_of(&name), label))
        .min()
        .expect("the planted conflict")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One conflict error everywhere: over sources whose two partial clauses
    /// disagree on several objects and labels, a fresh run fails with the
    /// error naming the least conflicting `(object, attribute)` of all the
    /// contributions, identical at 1, 2, 4 and 8 threads (partitions forced
    /// below the minimum) and equal to the error the maintainer's build
    /// reports.
    #[test]
    fn a_fresh_run_and_the_maintainer_name_the_same_least_conflict(seed in 0u64..u64::MAX) {
        use wol_repro::morphase::{MaterializedPipeline, MorphaseError, PipelineOptions};

        let mut g = proptest::Gen::new(seed);
        let program = partial_conflict_program();
        let queries = Morphase::new().compile(&program).map(|run| run.plans.len());
        prop_assert!(queries.is_ok_and(|n| n >= 2), "the clauses compile to several queries");
        let source = partial_conflict_source(&mut g);
        let (oid, label) = least_partial_conflict(&source);
        let expected = MorphaseError::Execution(format!(
            "object {oid} receives conflicting values for `{label}`"
        ));
        for threads in [1usize, 2, 4, 8] {
            let options = PipelineOptions {
                parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                ..PipelineOptions::default()
            };
            let fresh = Morphase::with_options(options)
                .transform(&program, &[&source][..])
                .map(|_| ())
                .unwrap_err();
            prop_assert!(fresh == expected, "fresh run, {} threads: {} (expected {})", threads, fresh, expected);
            let built = MaterializedPipeline::new(&program, vec![source.clone()], options)
                .map(|_| ())
                .unwrap_err();
            prop_assert!(built == expected, "maintainer build, {} threads: {}", threads, built);
        }
    }
}

/// §4.2's keyed merge keeps what it merged required. With `name` a key of
/// `Src`, clause `T`'s two scans merge, and `Y.name = Z.name` becomes
/// `Y.name = Y.name`: dropping that as trivially true let an object
/// without a name through. The reference semantics, and now the pipeline,
/// derive only the named object's `v`.
#[test]
fn the_keyed_merge_still_requires_the_merged_path_to_be_present() {
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Schema, Type};

    let source_schema = Schema::new("src").with_class(
        "Src",
        Type::record([("name", Type::optional(Type::str())), ("v", Type::int())]),
    );
    let target_schema = Schema::new("tgt").with_class("Tgt", Type::record([("v", Type::int())]));
    let program = Program::new(
        "definedness",
        vec![SchemaBinding::new(source_schema)],
        SchemaBinding::new(target_schema),
    )
    .with_text(
        "T: X in Tgt, X.v = V <= Y in Src, Z in Src, Y.name = Z.name, V = Y.v;\n\
         K: X = Mk_Tgt(V) <= X in Tgt, V = X.v;\n\
         C: X = Y <= X in Src, Y in Src, X.name = Y.name;",
    );
    let mut source = Instance::new("src");
    let src = ClassName::new("Src");
    source.insert_fresh(&src, Value::record([("v", Value::int(1))]));
    source.insert_fresh(
        &src,
        Value::record([("name", Value::str("a")), ("v", Value::int(2))]),
    );
    let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
    let [clause] = &run.normal.clauses[..] else {
        panic!("one normal clause, got {}", run.normal.len());
    };
    let scans = clause.body.iter().filter(|a| matches!(a, Atom::Member(..)));
    assert_eq!(
        scans.count(),
        1,
        "the key merges the scans: {}",
        clause.render()
    );
    let reference = naive_transform(&program, &[&source][..], "tgt").unwrap();
    let values = |target: &Instance| -> Vec<Value> {
        target
            .objects(&ClassName::new("Tgt"))
            .map(|(_, v)| v.clone())
            .collect()
    };
    assert_eq!(values(&reference), [Value::record([("v", Value::int(2))])]);
    assert_eq!(values(&run.target), values(&reference));
}

/// The genome program over a genome-shaped source whose objects may lack a
/// `name`.
fn genome_with_optional_names() -> wol_repro::wol_lang::program::Program {
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Schema, Type};
    use wol_repro::workloads::genome;

    let name = || ("name", Type::optional(Type::str()));
    let source = Schema::new("ace22")
        .with_class(
            "CloneS",
            Type::record([
                name(),
                ("length", Type::optional(Type::int())),
                ("lab", Type::optional(Type::str())),
            ]),
        )
        .with_class(
            "MarkerS",
            Type::record([
                name(),
                ("position", Type::optional(Type::int())),
                ("clone", Type::optional(Type::class("CloneS"))),
                ("aliases", Type::optional(Type::set(Type::str()))),
            ]),
        );
    Program::new(
        "genome_optional_names",
        vec![SchemaBinding::new(source)],
        SchemaBinding::new(genome::target_schema()),
    )
    .with_text(genome::program_text())
}

/// One optional attribute: absent once in three draws, else `agreed` (a
/// function of the object's name) or, when the source plants conflicts,
/// one of two values.
fn fold_attr(g: &mut proptest::Gen, conflicts: bool, agreed: i64) -> Option<i64> {
    match (one_in(g, 3), conflicts) {
        (true, _) => None,
        (false, false) => Some(agreed),
        (false, true) => Some(g.usize_in(0, 2) as i64),
    }
}

/// A record of the given fields, each present or absent.
fn fold_record(fields: Vec<(&str, Option<Value>)>) -> Value {
    Value::record(fields.into_iter().filter_map(|(l, v)| Some((l, v?))))
}

/// A `CloneS` or `MarkerS` object of [`witness_fold_source`]: a name drawn
/// from `names` (absent once in five), and optional attributes.
fn fold_object(
    g: &mut proptest::Gen,
    marker: bool,
    names: usize,
    conflicts: bool,
    clones: &[wol_repro::wol_model::Oid],
) -> Value {
    let name = g.usize_in(0, names);
    let named = (!one_in(g, 5)).then(|| Value::str(format!("n{name}")));
    let agreed = name as i64;
    if !marker {
        let lab = fold_attr(g, conflicts, agreed).map(|l| Value::str(format!("lab{l}")));
        return fold_record(vec![
            ("name", named),
            ("length", fold_attr(g, conflicts, agreed).map(Value::int)),
            ("lab", lab),
        ]);
    }
    let clone = match fold_attr(g, conflicts, agreed) {
        Some(i) if !clones.is_empty() => {
            Some(Value::Oid(clones[i as usize % clones.len()].clone()))
        }
        _ => None,
    };
    let aliases = fold_attr(g, conflicts, agreed).map(|a| {
        Value::Set(
            [Value::str(format!("a{a}")), Value::str("alias")]
                .into_iter()
                .collect(),
        )
    });
    fold_record(vec![
        ("name", named),
        ("position", fold_attr(g, conflicts, agreed).map(Value::int)),
        ("clone", clone),
        ("aliases", aliases),
    ])
}

/// A genome-shaped source over a few names: duplicate names, absent
/// optional attributes (`name` among them) and, when `conflicts`, objects
/// of one name that disagree on an attribute (`position` among them).
fn witness_fold_source(g: &mut proptest::Gen, conflicts: bool) -> Instance {
    let mut source = Instance::new("ace22");
    let names = g.usize_in(1, 5);
    let mut clones = Vec::new();
    for _ in 0..g.usize_in(0, 7) {
        let value = fold_object(g, false, names, conflicts, &[]);
        clones.push(source.insert_fresh(&ClassName::new("CloneS"), value));
    }
    for _ in 0..g.usize_in(0, 10) {
        let value = fold_object(g, true, names, conflicts, &clones);
        source.insert_fresh(&ClassName::new("MarkerS"), value);
    }
    source
}

/// One random batch against `source`: inserted objects, markers updated to
/// fresh values and markers removed.
fn witness_fold_batch(
    g: &mut proptest::Gen,
    source: &Instance,
    conflicts: bool,
) -> wol_repro::wol_model::MutationBatch {
    let clone_s = ClassName::new("CloneS");
    let marker_s = ClassName::new("MarkerS");
    let clones: Vec<_> = source.extent(&clone_s).cloned().collect();
    let markers: Vec<_> = source.extent(&marker_s).cloned().collect();
    let mut batch = wol_repro::wol_model::MutationBatch::new();
    let mut touched = std::collections::BTreeSet::new();
    for _ in 0..g.usize_in(1, 4) {
        let pick = g.usize_in(0, 4);
        if pick < 2 || markers.is_empty() {
            let marker = pick == 1;
            let value = fold_object(g, marker, 4, conflicts, &clones);
            batch = batch.insert(if marker { &marker_s } else { &clone_s }.clone(), value);
            continue;
        }
        let victim = markers[g.usize_in(0, markers.len())].clone();
        if !touched.insert(victim.clone()) {
            continue;
        }
        batch = if pick == 2 {
            batch.update(victim, fold_object(g, true, 4, conflicts, &clones))
        } else {
            batch.remove(victim)
        };
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planner's witness fold against the unfolded plans and the
    /// reference semantics. Over genome-shaped sources with duplicate names,
    /// absent attributes and conflicting same-name objects, the planned run
    /// (whose attribute clauses scan their class once), the raw plans (which
    /// keep every witness scan) and `naive_transform` give an equivalent
    /// target, or the two pipelines fail with the same least conflict where
    /// the reference fails too, at 1 and 8 threads. A maintained pipeline
    /// under random batches matches its oracle and a fresh run after every
    /// batch, or fails with the fresh run's error.
    #[test]
    fn folded_witness_scans_match_raw_plans_the_reference_and_the_maintainer(seed in 0u64..u64::MAX) {
        use wol_repro::morphase::{MaterializedPipeline, PipelineOptions};

        let mut g = proptest::Gen::new(seed);
        let conflicts = one_in(&mut g, 2);
        let program = genome_with_optional_names();
        let source = witness_fold_source(&mut g, conflicts);
        let reference = naive_transform(&program, &[&source][..], "chr22");
        for threads in [1usize, 8] {
            let planned = PipelineOptions {
                parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                ..PipelineOptions::default()
            };
            let raw = PipelineOptions { optimize_plans: false, ..planned };
            let folded = Morphase::with_options(planned).transform(&program, &[&source][..]);
            let unfolded = Morphase::with_options(raw).transform(&program, &[&source][..]);
            match (&folded, &unfolded, &reference) {
                (Ok(folded), Ok(unfolded), Ok(reference)) => {
                    let report = folded.target.deep_eq_report(&unfolded.target);
                    prop_assert!(report.is_none(), "{} threads: folded vs raw: {:?}", threads, report);
                    prop_assert!(
                        instances_equivalent(&folded.target, reference, 2),
                        "{} threads: folded run and reference diverge", threads
                    );
                }
                (Err(folded), Err(unfolded), Err(_)) => {
                    prop_assert!(folded == unfolded, "{} threads: {} vs {}", threads, folded, unfolded);
                }
                (folded, unfolded, reference) => prop_assert!(
                    false,
                    "{} threads: folded {:?}, raw {:?}, reference {:?}",
                    threads,
                    folded.as_ref().err(),
                    unfolded.as_ref().err(),
                    reference.as_ref().err()
                ),
            }
        }

        let options = PipelineOptions {
            parallelism: cpl::Parallelism::new(1 + 7 * g.usize_in(0, 2)).with_min_items(1),
            ..PipelineOptions::default()
        };
        let Ok(mut pipeline) = MaterializedPipeline::new(&program, vec![source], options) else {
            return Ok(());
        };
        for _ in 0..g.usize_in(1, 6) {
            let batch = witness_fold_batch(&mut g, pipeline.source(0).unwrap(), conflicts);
            let mut mutated = pipeline.source(0).unwrap().clone();
            mutated.apply_batch(&batch).unwrap();
            let fresh = Morphase::with_options(options).transform(&program, &[&mutated][..]);
            match (pipeline.apply_batch(&batch), fresh) {
                (Ok(_), Ok(fresh)) => {
                    let oracle = pipeline.rerun_oracle().unwrap();
                    let report = pipeline.target().deep_eq_report(&oracle.target);
                    prop_assert!(report.is_none(), "maintained vs oracle: {:?}", report);
                    let report = pipeline.target().deep_eq_report(&fresh.target);
                    prop_assert!(report.is_none(), "maintained vs fresh: {:?}", report);
                }
                (Err(maintained), Err(fresh)) => {
                    prop_assert!(maintained == fresh, "maintained {} vs fresh {}", maintained, fresh);
                    break;
                }
                (maintained, fresh) => prop_assert!(
                    false,
                    "maintained {:?} vs fresh {:?}",
                    maintained.err(),
                    fresh.err()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CSV adapter round-trip (E13 satellite): an arbitrary relational
    /// table — string cells with embedded commas, quotes, CR/LF and
    /// surrounding whitespace, numeric-looking strings, arbitrary integers
    /// and booleans — survives `to_csv` → `parse_csv` bit-identically,
    /// schema included. Because the writer quotes every string field, a
    /// string `"123"` must come back as a *string*, not an integer, and the
    /// all-rows type inference must re-derive exactly the original column
    /// types.
    #[test]
    fn csv_round_trip_preserves_arbitrary_tables(
        col_names in proptest::collection::vec("[a-z]{1,6}", 1..5),
        col_types in proptest::collection::vec(0usize..3, 4..5),
        nrows in 1usize..8,
        // Fixed-size 7x4 cell grids (the shim has no tuple strategies);
        // the first `nrows` x `col_names.len()` cells are used. Strings
        // draw from printable ASCII — commas, quotes and spaces included —
        // plus tab, newline and carriage return.
        strs in proptest::collection::vec("[ -~\t\n\r]{0,12}", 28..29),
        ints in proptest::collection::vec(i64::MIN..i64::MAX, 28..29),
        bools in proptest::collection::vec(0usize..2, 28..29),
    ) {
        use wol_repro::storage::csv::{parse_csv, to_csv};
        use wol_repro::storage::relational::{Column, Table, TableSchema};

        let columns: Vec<Column> = col_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                // Suffix with the index so names stay distinct.
                let name = format!("{name}_{i}");
                match col_types[i] {
                    0 => Column::str(name),
                    1 => Column::int(name),
                    _ => Column::bool(name),
                }
            })
            .collect();
        let mut table = Table::new(TableSchema {
            name: "RoundTrip".to_string(),
            key_column: columns[0].name.clone(),
            columns,
        });
        for r in 0..nrows {
            let row: Vec<Value> = (0..col_names.len())
                .map(|c| {
                    let cell = r * 4 + c;
                    match col_types[c] {
                        0 => Value::str(strs[cell].clone()),
                        1 => Value::Int(ints[cell]),
                        _ => Value::Bool(bools[cell] == 1),
                    }
                })
                .collect();
            table.push_row(row).expect("generated row matches the schema");
        }

        let text = to_csv(&table);
        let reparsed = parse_csv("RoundTrip", &text).expect("rendered CSV re-parses");
        prop_assert_eq!(&reparsed, &table);
    }
}

/// Column kinds of a generated CSV text.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CsvKind {
    Int,
    Bool,
    Str,
}

const CSV_KINDS: [CsvKind; 3] = [CsvKind::Int, CsvKind::Bool, CsvKind::Str];

/// Characters of quoted string fields: the separator, quotes and line breaks
/// the lexer must carry through, and one- to four-byte UTF-8.
const CSV_QUOTED: &[char] = &[
    'a', 'z', ' ', ',', '"', '\n', '\r', 'é', 'ß', '日', '🦀', '7',
];

/// Characters after the first of an unquoted string field (the first is a
/// letter, so the field never reads as an integer or a boolean).
const CSV_UNQUOTED: &[char] = &['a', 'q', ' ', 'é', '日', '🦀', '5', '-'];

fn pick<T: Copy>(g: &mut proptest::Gen, items: &[T]) -> T {
    items[g.usize_in(0, items.len())]
}

/// True once in `n` draws.
fn one_in(g: &mut proptest::Gen, n: usize) -> bool {
    g.usize_in(0, n) == 0
}

/// `field`, sometimes padded with the spaces an unquoted field is trimmed of.
fn csv_pad(g: &mut proptest::Gen, field: String) -> String {
    if one_in(g, 3) {
        format!(" {field}  ")
    } else {
        field
    }
}

/// A valid CSV text over 1–4 columns `c0, c1, …` of random kinds and 0–19
/// records: LF or CRLF endings, blank (and blank-looking) lines, padded
/// unquoted fields, quoted fields holding `,`, `""` and line breaks,
/// multi-byte text, and sometimes no final line break. Returns the text and
/// every string value it holds (constants for generated filters).
fn random_csv(g: &mut proptest::Gen) -> (String, Vec<String>) {
    let kinds: Vec<CsvKind> = (0..g.usize_in(1, 5)).map(|_| pick(g, &CSV_KINDS)).collect();
    let mut text = String::new();
    if one_in(g, 4) {
        text.push_str(pick(g, &["\n", " \r\n"]));
    }
    let header: Vec<String> = (0..kinds.len())
        .map(|i| match g.usize_in(0, 3) {
            0 => format!("\"c{i}\""),
            1 => format!(" c{i} "),
            _ => format!("c{i}"),
        })
        .collect();
    text.push_str(&header.join(","));
    let mut strings = Vec::new();
    let rows = g.usize_in(0, 20);
    for _ in 0..rows {
        text.push_str(pick(g, &["\n", "\r\n"]));
        if one_in(g, 4) {
            text.push_str(pick(g, &["\n", "\r\n", "  \n"]));
        }
        let fields: Vec<String> = kinds
            .iter()
            .map(|kind| match kind {
                CsvKind::Int => {
                    let i = if one_in(g, 8) {
                        pick(g, &[i64::MIN, i64::MAX])
                    } else {
                        g.usize_in(0, 41) as i64 - 20
                    };
                    csv_pad(g, i.to_string())
                }
                CsvKind::Bool => {
                    let b = pick(g, &["true", "false", "True", "False"]);
                    csv_pad(g, b.to_string())
                }
                CsvKind::Str if one_in(g, 3) => {
                    let mut s = pick(g, &['x', 'é', '日']).to_string();
                    for _ in 0..g.usize_in(0, 5) {
                        s.push(pick(g, CSV_UNQUOTED));
                    }
                    strings.push(s.trim().to_string());
                    csv_pad(g, s)
                }
                CsvKind::Str => {
                    let s: String = (0..g.usize_in(0, 6)).map(|_| pick(g, CSV_QUOTED)).collect();
                    strings.push(s.clone());
                    format!("\"{}\"", s.replace('"', "\"\""))
                }
            })
            .collect();
        text.push_str(&fields.join(","));
    }
    if !one_in(g, 3) {
        text.push_str(pick(g, &["\n", "\r\n"]));
    }
    (text, strings)
}

/// Byte-level damage to a valid corpus, one to three times: truncation, a bit
/// flip, or an inserted `"`, `\r`, `,`, `\n` or multi-byte character — at any
/// byte, so possibly inside another character (the lossy re-decode then
/// yields U+FFFD, itself three bytes).
fn mutate_csv(g: &mut proptest::Gen, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..g.usize_in(1, 4) {
        let at = g.usize_in(0, bytes.len() + 1);
        match g.usize_in(0, 4) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << g.usize_in(0, 8),
            2 => bytes.insert(at, pick(g, b"\"\r,\n")),
            _ => {
                let c = pick(g, &['é', '日', '🦀']);
                let mut buf = [0; 4];
                bytes.splice(at..at, c.encode_utf8(&mut buf).bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// 0–3 filters over `columns` — every `PushOp`, constants of the column's own
/// kind or another, string-column filters included — and a projection that
/// is absent or a random (possibly empty) subset.
fn random_pushdown(
    g: &mut proptest::Gen,
    columns: &[wol_repro::storage::Column],
    strings: &[String],
) -> wol_repro::storage::Pushdown {
    use wol_repro::storage::{ColumnType, PushOp, Pushdown, PushedFilter};
    let ops = [
        PushOp::Eq,
        PushOp::Neq,
        PushOp::Lt,
        PushOp::Leq,
        PushOp::Gt,
        PushOp::Geq,
    ];
    let filters = (0..g.usize_in(0, 4))
        .map(|_| {
            let column = &columns[g.usize_in(0, columns.len())];
            let kind = match column.ty {
                _ if one_in(g, 2) => pick(g, &CSV_KINDS),
                ColumnType::Int => CsvKind::Int,
                ColumnType::Bool => CsvKind::Bool,
                _ => CsvKind::Str,
            };
            let value = match kind {
                CsvKind::Int => Value::Int(g.usize_in(0, 41) as i64 - 20),
                CsvKind::Bool => Value::Bool(one_in(g, 2)),
                CsvKind::Str if !strings.is_empty() && one_in(g, 2) => {
                    Value::str(strings[g.usize_in(0, strings.len())].clone())
                }
                CsvKind::Str => Value::str(pick(g, &["", "m", "x", "日"])),
            };
            PushedFilter {
                attr: column.name.clone(),
                op: pick(g, &ops),
                value,
            }
        })
        .collect();
    let projection = if one_in(g, 3) {
        None
    } else {
        Some(
            columns
                .iter()
                .filter(|_| one_in(g, 2))
                .map(|c| c.name.clone())
                .collect(),
        )
    };
    Pushdown {
        filters,
        projection,
    }
}

/// Scan `text` through `CsvDirProvider` under a random pushdown and chunk
/// size, and hold it to the reference: `parse_csv_from`, then
/// `PushedFilter::matches` over the table rows. The two accept exactly the
/// same texts; on an accepted one the rows (order included), the chunk sizes,
/// the statistics and the `ScanSummary` are equal — `decoded` being the rows
/// that pass the filters on Int and Bool columns, the ones the provider
/// evaluates without lexing.
fn scan_agrees_with_reference(
    g: &mut proptest::Gen,
    text: &str,
    strings: &[String],
) -> Result<(), String> {
    use wol_repro::storage::csv::parse_csv_from;
    use wol_repro::storage::{ColumnType, CsvDirProvider, PushedFilter, ScanProvider, ScanSummary};

    let reference = parse_csv_from("T", "gen.csv", text);
    let provider =
        CsvDirProvider::from_texts(vec![("T".into(), "gen.csv".into(), text.to_string())]);
    let (table, provider) = match (reference, provider) {
        (Ok(table), Ok(provider)) => (table, provider),
        (Err(_), Err(_)) => return Ok(()),
        (reference, provider) => {
            return Err(format!(
                "validity differs: reference {:?}, provider {:?}",
                reference.err(),
                provider.err()
            ))
        }
    };
    let columns = &table.schema.columns;
    let pushdown = random_pushdown(g, columns, strings);
    let chunk_rows = g.usize_in(1, 8);

    let class = ClassName::new("T");
    let stats = provider.stats(&class).ok_or("no statistics")?;
    prop_assert_eq!(stats.rows, table.len());
    for (i, column) in columns.iter().enumerate() {
        let distinct: std::collections::BTreeSet<&Value> =
            table.rows.iter().map(|row| &row[i]).collect();
        prop_assert_eq!(stats.ndvs.get(&column.name).copied(), Some(distinct.len()));
    }

    let position = |f: &PushedFilter| columns.iter().position(|c| c.name == f.attr);
    let mut expected = Vec::new();
    let mut decoded = 0;
    for row in &table.rows {
        let passes = |f: &PushedFilter| f.matches(position(f).map(|i| &row[i]));
        let laned =
            |f: &&PushedFilter| position(f).is_some_and(|i| columns[i].ty != ColumnType::Str);
        if !pushdown.filters.iter().filter(laned).all(passes) {
            continue;
        }
        decoded += 1;
        if !pushdown.filters.iter().all(passes) {
            continue;
        }
        let kept = columns
            .iter()
            .zip(row)
            .filter(|(c, _)| {
                pushdown
                    .projection
                    .as_ref()
                    .is_none_or(|p| p.contains(&c.name))
            })
            .map(|(c, v)| (c.name.clone(), v.clone()));
        expected.push(Value::Record(kept.collect()));
    }

    let (mut rows, mut chunks) = (Vec::new(), Vec::new());
    let summary = provider
        .scan(&class, &pushdown, chunk_rows, &mut |chunk| {
            chunks.push(chunk.len());
            rows.extend(chunk);
            Ok(())
        })
        .map_err(|e| format!("scan failed: {e}"))?;
    prop_assert_eq!(&rows, &expected);
    let expected_chunks: Vec<usize> = expected.chunks(chunk_rows).map(<[Value]>::len).collect();
    prop_assert_eq!(chunks, expected_chunks);
    prop_assert_eq!(
        summary,
        ScanSummary {
            rows_in: table.len(),
            rows_out: expected.len(),
            decoded,
        }
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The CSV provider's scan — filters on Int / Bool columns evaluated from
    /// the lanes built at `open`, only the surviving records lexed (re-seated
    /// at their stored offsets), string-column filters on the lexed record —
    /// is the reference decoder plus `PushedFilter::matches`, row for row,
    /// chunk for chunk, counter for counter, over random texts and pushdowns.
    #[test]
    fn csv_scan_matches_the_reference_decoder(seed in 0u64..u64::MAX) {
        let mut g = proptest::Gen::new(seed);
        let (text, strings) = random_csv(&mut g);
        if let Err(e) = wol_repro::storage::csv::parse_csv_from("T", "gen.csv", &text) {
            prop_assert!(false, "generated text rejected: {}\n{:?}", e, text);
        }
        scan_agrees_with_reference(&mut g, &text, &strings)
            .map_err(|e| format!("{e}\ntext: {text:?}"))?;
    }

    /// Hostile input: byte-damaged corpora never panic the lexer (read to the
    /// end or the first error, then re-seated at stored and at arbitrary
    /// offsets — off character boundaries and past the end included), the
    /// reference decoder, `CsvDirProvider::from_texts` or a filtered scan;
    /// whatever both sides accept, they still agree on.
    #[test]
    fn damaged_csv_is_an_error_or_a_value_never_a_panic(seed in 0u64..u64::MAX) {
        use wol_repro::storage::csv::CsvReader;

        let mut g = proptest::Gen::new(seed);
        let (text, strings) = random_csv(&mut g);
        let text = mutate_csv(&mut g, &text);
        if let Ok(mut reader) = CsvReader::new("fuzz.csv", &text) {
            let mut starts = vec![reader.position()];
            while let Ok(Some(_)) = reader.next_record() {
                starts.push(reader.position());
            }
            for _ in 0..4 {
                let offset = if one_in(&mut g, 2) {
                    pick(&mut g, &starts)
                } else {
                    g.usize_in(0, text.len() + 3)
                };
                if reader.seek(offset).is_ok() {
                    let _ = reader.next_record();
                }
            }
        }
        scan_agrees_with_reference(&mut g, &text, &strings)
            .map_err(|e| format!("{e}\ntext: {text:?}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The federated pushdown differential (E13): over generated federated
    /// sources — relational clones, ACeDB-style markers, an assay CSV — the
    /// pipeline with planner pushdown produces the bit-identical target
    /// instance (identities included) and the same row/object
    /// counters as the pushdown-off full-ingest run, and within each mode
    /// the target and the merged `ExecStats` are invariant across every
    /// thread count in {1, 2, 4, 8}. The pushdown must actually engage —
    /// all three backend guards push — or the differential is vacuous.
    #[test]
    fn federated_pushdown_is_bit_identical_across_modes_and_threads(
        clones in 2usize..10,
        markers in 4usize..20,
        assays in 20usize..120,
        seed in 0u64..500,
    ) {
        use wol_repro::morphase::{MorphaseRun, PipelineOptions};
        use wol_repro::storage::ScanProvider;
        use wol_repro::workloads::federated::{self, FederatedParams};

        let params = FederatedParams { clones, markers, assays, seed };
        let (csv, ace, rel) = federated::providers(&params);
        let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
        let program = federated::program();
        let run = |pushdown: bool, threads: usize| -> MorphaseRun {
            Morphase::with_options(PipelineOptions {
                pushdown,
                parallelism: cpl::Parallelism::new(threads),
                ..PipelineOptions::default()
            })
            .transform_federated(&program, &providers)
            .expect("federated pipeline runs")
        };

        let base_on = run(true, 1);
        let base_off = run(false, 1);
        prop_assert!(
            base_on.exec.pushed_filters == 3,
            "all three guards must push, got {}",
            base_on.exec.pushed_filters
        );
        prop_assert!(base_on.exec.provider_rows_out <= base_on.exec.provider_rows_in);
        prop_assert_eq!(base_off.exec.pushed_filters, 0);
        prop_assert_eq!(
            base_off.exec.provider_rows_in,
            base_off.exec.provider_rows_out
        );
        // The cross-mode differential: bit-identical targets, identical
        // execution row/object counters.
        if let Some(diff) = base_on.target.deep_eq_report(&base_off.target) {
            prop_assert!(false, "pushdown changed the produced target: {}", diff);
        }
        prop_assert_eq!(base_on.exec.rows_output, base_off.exec.rows_output);
        prop_assert_eq!(base_on.exec.objects_written, base_off.exec.objects_written);

        // Within each mode, the thread matrix changes nothing.
        for threads in [2usize, 4, 8] {
            let on = run(true, threads);
            prop_assert!(on.target == base_on.target,
                "pushdown-on target diverged at {} threads", threads);
            prop_assert!(on.exec == base_on.exec,
                "pushdown-on ExecStats diverged at {} threads", threads);
            let off = run(false, threads);
            prop_assert!(off.target == base_off.target,
                "pushdown-off target diverged at {} threads", threads);
            prop_assert!(off.exec == base_off.exec,
                "pushdown-off ExecStats diverged at {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The constraint-checking differential (E12): over generated constrained
    /// sources and random mutation streams — optionally poisoned by a
    /// committed merge-key violation — the incremental batch checker's
    /// violation list is identical (set *and* order) to a full
    /// `check_constraints` rescan after every batch, its certificate replays
    /// cleanly through `recheck`, and both the violations and the *encoded
    /// certificate bytes* are identical at every thread count in {1, 2, 4, 8}
    /// under both planner cost models.
    #[test]
    fn incremental_constraint_checks_match_full_rescans(
        users in 3usize..12,
        profiles in 3usize..16,
        accounts in 2usize..10,
        seed in 0u64..500,
        stream_seed in 0u64..500,
        batches in 1usize..6,
        ops in 1usize..6,
        violate_at in 0usize..8,
    ) {
        use wol_repro::morphase::{
            BatchConstraintMode, MaterializedPipeline, PipelineOptions,
        };
        use wol_repro::wol_engine::{check_constraints, recheck};
        use wol_repro::wol_lang::Clause;
        use wol_repro::workloads::constrained::{self, ConstrainedParams};

        let params = ConstrainedParams { users, profiles, accounts, seed };
        let program = constrained::program();
        let source = constrained::generate_source(&params);
        let mut gen = constrained::ConstrainedGen::new(&source, stream_seed);
        let mut stream = Vec::new();
        for i in 0..batches {
            if i == violate_at {
                // Committed in Report mode: later batches run with S1 as a
                // suspect until the state is repaired (it never is here).
                stream.push(gen.violating_batch());
            }
            stream.push(gen.next_batch(ops));
        }

        // Canonical run: one thread, default cost model, Report mode. After
        // every batch the attached check must agree with a from-scratch
        // rescan of the post-batch source, and its certificate must replay.
        let canonical_options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Report,
            parallelism: cpl::Parallelism::new(1),
            ..PipelineOptions::default()
        };
        let mut canonical =
            MaterializedPipeline::new(&program, vec![source.clone()], canonical_options).unwrap();
        let mut checks = Vec::new();
        for batch in &stream {
            let report = canonical.apply_batch(batch).unwrap();
            let check = report.constraints.expect("report mode attaches a check");
            let clauses: Vec<&Clause> = canonical.constraints().iter().collect();
            let insts = [canonical.source(0).unwrap()];
            let dbs = Databases::new(&insts);
            let oracle = check_constraints(&clauses, &dbs).unwrap();
            prop_assert!(
                check.violations == oracle,
                "incremental violations diverge from the full rescan: {:?} vs {:?}",
                check.violations,
                oracle
            );
            let replay = recheck(&check.certificate, &clauses, &dbs).unwrap();
            prop_assert_eq!(replay.violations as u64, check.certificate.violation_count());
            checks.push(check);
        }
        let canonical_stats = canonical.stats().clone();

        for cost_model in [cpl::CostModel::Histogram, cpl::CostModel::FlatNdv] {
            for threads in [1usize, 2, 4, 8] {
                let options = PipelineOptions {
                    batch_constraints: BatchConstraintMode::Report,
                    parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                    cost_model,
                    ..PipelineOptions::default()
                };
                let mut pipeline =
                    MaterializedPipeline::new(&program, vec![source.clone()], options).unwrap();
                for (i, batch) in stream.iter().enumerate() {
                    let report = pipeline.apply_batch(batch).unwrap();
                    let check = report.constraints.expect("report mode attaches a check");
                    prop_assert!(
                        check.violations == checks[i].violations,
                        "violations diverged at {} threads / {:?}",
                        threads,
                        cost_model
                    );
                    prop_assert!(
                        check.certificate.encode() == checks[i].certificate.encode(),
                        "certificate bytes diverged at {} threads / {:?}",
                        threads,
                        cost_model
                    );
                }
                let stats = pipeline.stats();
                prop_assert_eq!(stats.constraints_checked, canonical_stats.constraints_checked);
                prop_assert_eq!(stats.constraints_skipped, canonical_stats.constraints_skipped);
                prop_assert_eq!(stats.constraint_objects, canonical_stats.constraint_objects);
                prop_assert_eq!(stats.constraint_probes, canonical_stats.constraint_probes);
                prop_assert_eq!(
                    stats.constraint_violations,
                    canonical_stats.constraint_violations
                );
                prop_assert_eq!(stats.rejected_batches, 0u64);
            }
        }
    }
}

/// One published version as a reader would see it, copied out value by value
/// at the moment it was taken: the declared classes and every object. Every
/// other read (extents, probes, columns) is a function of these.
struct VersionRecord {
    version: Instance,
    classes: Vec<ClassName>,
    objects: Vec<(wol_repro::wol_model::Oid, Value)>,
}

impl VersionRecord {
    fn take(version: Instance) -> VersionRecord {
        VersionRecord {
            classes: version.populated_classes(),
            objects: version
                .all_objects()
                .map(|(oid, value)| (oid.clone(), value.clone()))
                .collect(),
            version,
        }
    }

    /// The record attributes of each class, from its first recorded object.
    fn keys(&self) -> Vec<(ClassName, String)> {
        let mut keys = Vec::new();
        for class in &self.classes {
            let first = self.objects.iter().find(|(oid, _)| oid.class() == class);
            if let Some((_, Value::Record(fields))) = first {
                keys.extend(fields.keys().map(|attr| (class.clone(), attr.to_string())));
            }
        }
        keys
    }

    /// Hold `reader` — the recorded version itself, or a copy of it — to the
    /// record: extents, values, probes of `probe_values` (answered by a scan
    /// of the record) and columns.
    fn check(&self, reader: &Instance, probe_values: &[Value]) -> Result<(), String> {
        prop_assert_eq!(reader.populated_classes(), self.classes.clone());
        let all: Vec<_> = reader
            .all_objects()
            .map(|(oid, value)| (oid.clone(), value.clone()))
            .collect();
        prop_assert!(all == self.objects, "objects of a held version changed");
        for (class, attr) in self.keys() {
            let of_class = || self.objects.iter().filter(|(oid, _)| oid.class() == &class);
            let extent: Vec<_> = reader.extent(&class).cloned().collect();
            let expected: Vec<_> = of_class().map(|(oid, _)| oid.clone()).collect();
            prop_assert!(extent == expected, "extent of {} changed", class);
            let held = of_class().filter_map(|(_, value)| value.project(&attr).cloned());
            for probe in held.take(6).chain(probe_values.iter().cloned()) {
                let expected: Vec<_> = of_class()
                    .filter(|(_, value)| value.project(&attr) == Some(&probe))
                    .map(|(oid, _)| oid.clone())
                    .collect();
                prop_assert!(
                    reader.lookup_by_attr(&class, &attr, &probe) == expected,
                    "probe of {}.{} = {:?} changed",
                    class,
                    attr,
                    probe
                );
            }
            let column = reader.attr_column(&class, &attr);
            let dict = reader.dict_strings();
            let cells: Vec<_> = (0..column.rows())
                .map(|row| column.value_at(row, &dict))
                .collect();
            let expected: Vec<_> = of_class()
                .map(|(_, value)| value.project(&attr).cloned())
                .collect();
            prop_assert!(cells == expected, "column {}.{} changed", class, attr);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Snapshot isolation of the versioned `Instance`: a reader holding the
    /// version published after batch *n* reads bit-identical extents, values,
    /// `lookup_by_attr` answers and `attr_column`s after the writer has
    /// applied and published up to eight more batches — through the version's
    /// own (carried, writer-maintained) indexes and again through a cold
    /// clone of it that re-derives everything from the shared chunks. Lazy
    /// builds on a version never show up on the writer's target or on a
    /// sibling version. Runs under the pipeline's default parallelism, so the
    /// three CI thread-count passes each exercise it.
    #[test]
    fn held_snapshots_stay_bit_identical_while_the_writer_publishes(
        constrained_kind in 0usize..2,
        size in 1usize..4,
        seed in 0u64..500,
        stream_seed in 0u64..500,
        batches in 1usize..9,
        ops in 1usize..7,
    ) {
        use wol_repro::morphase::{MaterializedPipeline, PipelineOptions};
        use wol_repro::wol_model::MutationBatch;
        use wol_repro::workloads::constrained::{self, ConstrainedGen, ConstrainedParams};
        use wol_repro::workloads::genome::{self, GenomeParams};
        use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

        // Sources sized so the target classes span several store chunks.
        let (program, source) = if constrained_kind == 1 {
            let params = ConstrainedParams {
                users: 70 * size,
                profiles: 20,
                accounts: 20,
                seed,
            };
            (constrained::program(), constrained::generate_source(&params))
        } else {
            let params = GenomeParams { clones: 30 * size, markers: 60 * size, density: 0.5, seed };
            (genome::program(), genome::generate_source(&params))
        };
        let mut next_batch: Box<dyn FnMut() -> MutationBatch> = if constrained_kind == 1 {
            let mut gen = ConstrainedGen::new(&source, stream_seed);
            Box::new(move || gen.next_batch(ops))
        } else {
            let mut gen = TrafficGen::new(&source, stream_seed, TrafficWeights::mixed());
            Box::new(move || gen.next_batch(ops))
        };
        let mut pipeline =
            MaterializedPipeline::new(&program, vec![source.clone()], PipelineOptions::default())
                .unwrap();

        // A reader probes every attribute of the first version; the writer
        // adopts those indexes, so later versions carry them by reference
        // while the writer keeps maintaining its own copy.
        let first = VersionRecord::take(pipeline.target().snapshot());
        first.check(&first.version, &[])?;
        pipeline.target().adopt_attr_indexes(&first.version);
        let keys = first.keys();
        let mut held = vec![first];

        for _ in 0..batches {
            pipeline.apply_batch(&next_batch()).unwrap();
            let version = pipeline.target().snapshot();
            let sibling = pipeline.target().snapshot();
            let cold = pipeline.target().clone();
            prop_assert_eq!(cold.attr_index_count(), 0);
            // Builds on one version stay on that version.
            for (class, attr) in &keys {
                version.attr_histogram(class, attr);
                version.attr_column(class, attr);
                cold.attr_stats(class, attr);
                prop_assert!(!sibling.has_attr_histogram(class, attr));
                prop_assert!(!sibling.has_attr_column(class, attr));
                prop_assert!(!pipeline.target().has_attr_histogram(class, attr));
                prop_assert!(!pipeline.target().has_attr_column(class, attr));
            }
            prop_assert_eq!(sibling.built_attr_indexes(), pipeline.target().built_attr_indexes());
            held.push(VersionRecord::take(version));
        }

        // Values that only later versions know, plus one nobody has.
        let mut probe_values = vec![Value::str("\u{0}absent")];
        for (_, value) in pipeline.target().all_objects() {
            if let Value::Record(fields) = value {
                probe_values.extend(fields.values().take(1).cloned());
            }
            if probe_values.len() > 8 {
                break;
            }
        }
        for record in &held {
            record.check(&record.version, &probe_values)?;
            record.check(&record.version.clone(), &probe_values)?;
            record.check(&record.version.snapshot(), &probe_values)?;
        }
        // And the writer's own maintained indexes answer like a rebuild.
        let last = VersionRecord::take(pipeline.target().clone());
        last.check(pipeline.target(), &probe_values)?;
    }
}

// ---------------------------------------------------------------------------
// `Record` against the map it replaced.
// ---------------------------------------------------------------------------

/// The value representation a record had before [`Record`]: a `BTreeMap`
/// from label text, labels as `String`s. Kept as the reference model. Its
/// eleven variants match `Value`'s in the same order, so the derived order
/// and hash line up variant for variant.
///
/// [`Record`]: wol_repro::wol_model::Record
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum MapValue {
    Bool(bool),
    Int(i64),
    Real(wol_repro::wol_model::RealVal),
    Str(String),
    Oid(wol_repro::wol_model::Oid),
    Set(std::collections::BTreeSet<MapValue>),
    List(Vec<MapValue>),
    Record(std::collections::BTreeMap<String, MapValue>),
    Variant(String, Box<MapValue>),
    Unit,
    Absent,
}

/// Labels for generated records: ASCII that sorts around upper and lower
/// case, prefixes of one another, the empty label and multi-byte text.
const RECORD_LABELS: &[&str] = &[
    "", "a", "aa", "ab", "b", "A", "Z", "name", "näme", "é", "ß", "日本", "🦀", "a\u{0}",
];

/// A random reference value, records and sets nested up to `depth` deep.
fn random_map_value(g: &mut proptest::Gen, depth: usize) -> MapValue {
    let leaf = depth == 0 || one_in(g, 3);
    match g.usize_in(0, if leaf { 7 } else { 11 }) {
        0 => MapValue::Bool(one_in(g, 2)),
        1 => MapValue::Int(g.usize_in(0, 5) as i64 - 2),
        2 => MapValue::Real(wol_repro::wol_model::RealVal(g.usize_in(0, 3) as f64 / 2.0)),
        3 => MapValue::Str(pick(g, RECORD_LABELS).to_string()),
        4 => MapValue::Oid(wol_repro::wol_model::Oid::new(
            ClassName::new(pick(g, &["C", "D"])),
            g.usize_in(0, 3) as u64,
        )),
        5 => MapValue::Unit,
        6 => MapValue::Absent,
        7 => MapValue::Set(
            (0..g.usize_in(0, 4))
                .map(|_| random_map_value(g, depth - 1))
                .collect(),
        ),
        8 => MapValue::List(
            (0..g.usize_in(0, 3))
                .map(|_| random_map_value(g, depth - 1))
                .collect(),
        ),
        9 => MapValue::Variant(
            pick(g, RECORD_LABELS).to_string(),
            Box::new(random_map_value(g, depth - 1)),
        ),
        _ => MapValue::Record(random_map_fields(g, depth - 1)),
    }
}

/// 0–6 random fields (a repeated label keeps its last value, as map inserts do).
fn random_map_fields(
    g: &mut proptest::Gen,
    depth: usize,
) -> std::collections::BTreeMap<String, MapValue> {
    (0..g.usize_in(0, 7))
        .map(|_| {
            (
                pick(g, RECORD_LABELS).to_string(),
                random_map_value(g, depth),
            )
        })
        .collect()
}

/// A variation of `base` that shares some of its fields, some with the
/// same value and some with another, plus fields of its own.
fn vary_map_fields(
    g: &mut proptest::Gen,
    base: &std::collections::BTreeMap<String, MapValue>,
) -> std::collections::BTreeMap<String, MapValue> {
    let mut out = std::collections::BTreeMap::new();
    for (label, value) in base {
        match g.usize_in(0, 4) {
            0 => {}
            1 => {
                out.insert(label.clone(), random_map_value(g, 1));
            }
            _ => {
                out.insert(label.clone(), value.clone());
            }
        }
    }
    out.extend(random_map_fields(g, 1));
    out
}

/// `fields` in a random order.
fn shuffled<T>(g: &mut proptest::Gen, mut fields: Vec<T>) -> Vec<T> {
    for i in (1..fields.len()).rev() {
        fields.swap(i, g.usize_in(0, i + 1));
    }
    fields
}

/// The model value as a `Value`, every record built from its fields in a
/// random order: by `Value::record`, or by `Record::insert` one field at a
/// time onto an empty record.
fn build_value(g: &mut proptest::Gen, m: &MapValue) -> Value {
    use wol_repro::wol_model::Record;
    match m {
        MapValue::Bool(b) => Value::Bool(*b),
        MapValue::Int(i) => Value::Int(*i),
        MapValue::Real(r) => Value::Real(*r),
        MapValue::Str(s) => Value::Str(s.clone()),
        MapValue::Oid(o) => Value::Oid(o.clone()),
        MapValue::Set(items) => {
            let items: Vec<Value> = items.iter().map(|v| build_value(g, v)).collect();
            Value::set(shuffled(g, items))
        }
        MapValue::List(items) => Value::list(items.iter().map(|v| build_value(g, v))),
        MapValue::Record(fields) => {
            let fields: Vec<(&str, Value)> = fields
                .iter()
                .map(|(l, v)| (l.as_str(), build_value(g, v)))
                .collect();
            let fields = shuffled(g, fields);
            if one_in(g, 2) {
                Value::record(fields)
            } else {
                let mut record = Record::new();
                for (label, value) in fields {
                    record.insert(label.into(), value);
                }
                Value::Record(record)
            }
        }
        MapValue::Variant(l, v) => Value::variant(l.as_str(), build_value(g, v)),
        MapValue::Unit => Value::Unit,
        MapValue::Absent => Value::Absent,
    }
}

/// A `Value` read back into the model.
fn model_of(v: &Value) -> MapValue {
    match v {
        Value::Bool(b) => MapValue::Bool(*b),
        Value::Int(i) => MapValue::Int(*i),
        Value::Real(r) => MapValue::Real(*r),
        Value::Str(s) => MapValue::Str(s.clone()),
        Value::Oid(o) => MapValue::Oid(o.clone()),
        Value::Set(items) => MapValue::Set(items.iter().map(model_of).collect()),
        Value::List(items) => MapValue::List(items.iter().map(model_of).collect()),
        Value::Record(fields) => MapValue::Record(
            fields
                .iter()
                .map(|(l, v)| (l.to_string(), model_of(v)))
                .collect(),
        ),
        Value::Variant(l, v) => MapValue::Variant(l.to_string(), Box::new(model_of(v))),
        Value::Unit => MapValue::Unit,
        Value::Absent => MapValue::Absent,
    }
}

/// `DefaultHasher`'s hash of `value` (deterministic within a process).
fn default_hash(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The persistence codec's bytes for a model value, written from the
/// documented format (one frozen tag byte per variant, varint lengths,
/// fields in map order) with the codec's public primitives.
fn map_codec_bytes(out: &mut Vec<u8>, m: &MapValue) {
    use wol_repro::storage::persist::codec::{put_i64, put_oid, put_str, put_u64, put_varint};
    match m {
        MapValue::Unit => out.push(0x00),
        MapValue::Absent => out.push(0x01),
        MapValue::Bool(b) => out.push(if *b { 0x03 } else { 0x02 }),
        MapValue::Int(i) => {
            out.push(0x04);
            put_i64(out, *i);
        }
        MapValue::Real(r) => {
            out.push(0x05);
            put_u64(out, r.get().to_bits());
        }
        MapValue::Str(s) => {
            out.push(0x06);
            put_str(out, s);
        }
        MapValue::Oid(o) => {
            out.push(0x07);
            put_oid(out, o);
        }
        MapValue::Set(items) => {
            out.push(0x08);
            put_varint(out, items.len() as u64);
            items.iter().for_each(|v| map_codec_bytes(out, v));
        }
        MapValue::List(items) => {
            out.push(0x09);
            put_varint(out, items.len() as u64);
            items.iter().for_each(|v| map_codec_bytes(out, v));
        }
        MapValue::Record(fields) => {
            out.push(0x0A);
            put_varint(out, fields.len() as u64);
            for (label, v) in fields {
                put_str(out, label);
                map_codec_bytes(out, v);
            }
        }
        MapValue::Variant(label, v) => {
            out.push(0x0B);
            put_str(out, label);
            map_codec_bytes(out, v);
        }
    }
}

/// `Fingerprint`'s canonical walk over a model value, restated with its
/// public primitives: the codec's tags, little-endian `u64` payloads and
/// counts, length-prefixed text, fields in map order.
fn map_fingerprint(fp: &mut wol_repro::wol_model::Fingerprint, m: &MapValue) {
    let count = |fp: &mut wol_repro::wol_model::Fingerprint, n: usize| {
        fp.write(&(n as u64).to_le_bytes());
    };
    match m {
        MapValue::Unit => fp.write(&[0x00]),
        MapValue::Absent => fp.write(&[0x01]),
        MapValue::Bool(b) => fp.write(&[if *b { 0x03 } else { 0x02 }]),
        MapValue::Int(i) => {
            fp.write(&[0x04]);
            fp.write(&i.to_le_bytes());
        }
        MapValue::Real(r) => {
            fp.write(&[0x05]);
            fp.write(&r.get().to_bits().to_le_bytes());
        }
        MapValue::Str(s) => {
            fp.write(&[0x06]);
            fp.str(s);
        }
        MapValue::Oid(o) => {
            fp.write(&[0x07]);
            fp.str(o.class().as_str());
            fp.write(&o.id().to_le_bytes());
        }
        MapValue::Set(items) => {
            fp.write(&[0x08]);
            count(fp, items.len());
            items.iter().for_each(|v| map_fingerprint(fp, v));
        }
        MapValue::List(items) => {
            fp.write(&[0x09]);
            count(fp, items.len());
            items.iter().for_each(|v| map_fingerprint(fp, v));
        }
        MapValue::Record(fields) => {
            fp.write(&[0x0A]);
            count(fp, fields.len());
            for (label, v) in fields {
                fp.str(label);
                map_fingerprint(fp, v);
            }
        }
        MapValue::Variant(label, v) => {
            fp.write(&[0x0B]);
            fp.str(label);
            map_fingerprint(fp, v);
        }
    }
}

/// The reference `Record::merge` of two records: the map-insert loop it
/// used to be, failing at the first (least, in label order) disputed label.
fn map_merge(
    a: &std::collections::BTreeMap<String, MapValue>,
    b: &std::collections::BTreeMap<String, MapValue>,
) -> Result<std::collections::BTreeMap<String, MapValue>, String> {
    let mut merged = a.clone();
    for (label, value) in b {
        match merged.get(label) {
            Some(existing) if existing != value => return Err(label.clone()),
            Some(_) => {}
            None => {
                merged.insert(label.clone(), value.clone());
            }
        }
    }
    Ok(merged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Record` — sorted interned labels in one allocation — behaves as the
    /// `BTreeMap<String, Value>` it replaced, over random label sets (added
    /// in random order, nested, multi-byte): the same order, equality and
    /// hash between any two values; the same `project` and `merge` (union,
    /// or least disputed label); the same `Fingerprint` walk and codec
    /// bytes; and
    /// snapshots of instances built from either field order encode to the
    /// same bytes and decode back to the model.
    #[test]
    fn records_behave_as_the_maps_they_replaced(seed in 0u64..u64::MAX) {
        use wol_repro::storage::persist::codec::put_value;
        use wol_repro::storage::persist::snapshot::{decode_snapshot, encode_snapshot};
        use wol_repro::wol_model::{Fingerprint, SkolemState};

        let mut g = proptest::Gen::new(seed);
        let left_fields = random_map_fields(&mut g, 2);
        let right_fields = if one_in(&mut g, 4) {
            left_fields.clone()
        } else {
            vary_map_fields(&mut g, &left_fields)
        };
        let mut models = vec![
            MapValue::Record(left_fields.clone()),
            MapValue::Record(right_fields.clone()),
        ];
        models.extend((0..4).map(|_| random_map_value(&mut g, 3)));
        let values: Vec<Value> = models.iter().map(|m| build_value(&mut g, m)).collect();

        for (m, v) in models.iter().zip(&values) {
            prop_assert_eq!(&model_of(v), m);
            prop_assert_eq!(default_hash(v), default_hash(m));
            let mut bytes = Vec::new();
            put_value(&mut bytes, v);
            let mut expected = Vec::new();
            map_codec_bytes(&mut expected, m);
            prop_assert_eq!(bytes, expected);
            let (mut fp, mut expected_fp) = (Fingerprint::new(), Fingerprint::new());
            fp.value(v);
            map_fingerprint(&mut expected_fp, m);
            prop_assert_eq!(fp.finish(), expected_fp.finish());
            if let MapValue::Record(fields) = m {
                for label in RECORD_LABELS {
                    prop_assert_eq!(v.project(label).map(model_of), fields.get(*label).cloned());
                }
            }
        }
        for (ma, va) in models.iter().zip(&values) {
            for (mb, vb) in models.iter().zip(&values) {
                prop_assert_eq!(va.cmp(vb), ma.cmp(mb));
                prop_assert_eq!(va == vb, ma == mb);
            }
        }
        let (Some(left), Some(right)) = (values[0].as_record(), values[1].as_record()) else {
            panic!("the first two models are records");
        };
        let mut merged = left.clone();
        let settled = merged.merge([right]).map_err(|label| label.to_string());
        let merged = settled.map(|()| model_of(&Value::Record(merged)));
        let expected = map_merge(&left_fields, &right_fields).map(MapValue::Record);
        prop_assert_eq!(merged, expected);

        // Snapshots: the same models, built again in another field order.
        let snapshot = |values: &[Value]| {
            let mut instance = Instance::new("records");
            for value in values {
                instance.insert_fresh(&ClassName::new("R"), value.clone());
            }
            encode_snapshot(&instance, &SkolemState::default(), 0, None)
        };
        let again: Vec<Value> = models.iter().map(|m| build_value(&mut g, m)).collect();
        let bytes = snapshot(&values);
        prop_assert_eq!(&bytes, &snapshot(&again));
        let restored = decode_snapshot(&bytes, "<records>").map_err(|e| e.to_string())?;
        let decoded: Vec<MapValue> = restored
            .instance
            .objects(&ClassName::new("R"))
            .map(|(_, v)| model_of(v))
            .collect();
        prop_assert_eq!(decoded, models);
    }
}
