//! Property-based tests over the core invariants of the reproduction.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

use wol_oracle::match_body_reference;
use wol_repro::cpl::{self, Expr, Plan};
use wol_repro::morphase::Morphase;
use wol_repro::wol_engine::{
    instances_equivalent, match_body, naive_transform, normalize, Bindings, Databases, MatchStats,
    NormalizeOptions,
};
use wol_repro::wol_lang::ast::Atom;
use wol_repro::wol_lang::{parse_clause, parse_program, render_clause, Clause};
use wol_repro::wol_model::{ClassName, Instance, MutationBatch, Oid, SkolemFactory, Value};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
use wol_repro::workloads::skewed::{self, SkewedParams};
use wol_repro::workloads::{variants, wide};

/// Clause bodies (over the Cities schemas, cities carrying the extra
/// attributes of [`with_city_extras`]) that exercise scans, index probes,
/// filters, pattern equalities, set and variant destructuring, inequality
/// joins and a Skolem term, each with the variable (if any) bound to the
/// first country before matching starts.
const MATCHER_BODIES: &[(&str, Option<&str>)] = &[
    ("Z = 1 <= X in CountryE", None),
    ("Z = 1 <= X in CountryE, X.language = \"French\"", None),
    (
        "Z = 1 <= X in CountryE, Y in CityE, Y.country = X, Y.is_capital = true",
        None,
    ),
    (
        "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name",
        None,
    ),
    ("Z = 1 <= X in CountryE, Y in CountryE, X != Y", None),
    (
        "Z = 1 <= X in CountryE, Y in CountryE, X != Y, X.language = Y.language",
        None,
    ),
    (
        "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name, \
                 Y in CityE, Y.country = X, Y.is_capital = true",
        None,
    ),
    ("Z = 1 <= E in CityE", None),
    ("Z = 1 <= E in CityE, E.is_capital = true", None),
    ("Z = 1 <= E in CityE, F in CityE, F.name = E.twin", None),
    ("Z = 1 <= E in CityE, X = E.country", None),
    (
        "Z = 1 <= E in CityE, F in CityE, E.population < F.population",
        None,
    ),
    ("Z = 1 <= X in CountryE, E in CityE, X != E", None),
    ("Z = 1 <= E in CityE, T member E.tags", None),
    ("Z = 1 <= E in CityE, E.kind = ins_port(P)", None),
    (
        "Z = 1 <= E in CityE, E.population =< 60, 10 < E.population, E.population != 37",
        None,
    ),
    ("Z = 1 <= E in CityE, E.country = X", Some("X")),
    ("Z = 1 <= E in CityE, Y = Mk_CityT(E.name)", None),
];

/// `source` with one attribute of each kind the matcher bodies touch added
/// to every city: another city's name (`twin`), an int (`population`), a
/// set (`tags`) and a variant (`kind`).
fn with_city_extras(source: &Instance) -> Instance {
    let city = ClassName::new("CityE");
    let cities: Vec<Oid> = source.extent(&city).cloned().collect();
    let name = |oid: &Oid| source.value(oid).and_then(|v| v.project("name")).cloned();
    let mut out = source.clone();
    for (i, oid) in cities.iter().enumerate() {
        let Some(Value::Record(fields)) = source.value(oid) else {
            panic!("{oid} is not a record");
        };
        let mut fields = fields.clone();
        let twin = name(&cities[(i * 7 + 3) % cities.len()]).expect("cities are named");
        let kind = if i % 3 == 0 {
            Value::Variant("port".into(), Box::new(Value::int((i % 7) as i64)))
        } else {
            Value::tag("inland")
        };
        fields.insert("twin".into(), twin);
        fields.insert("population".into(), Value::int((i * 37 % 101) as i64));
        fields.insert(
            "tags".into(),
            Value::set((0..i % 4).map(|t| Value::int(t as i64))),
        );
        fields.insert("kind".into(), kind);
        out.update(oid, Value::Record(fields))
            .expect("the city is live");
    }
    out
}

/// Match `body` from `initial` with both matchers against `dbs`, returning
/// the sorted binding multisets and the two stats blocks.
fn match_both(
    body: &[Atom],
    dbs: &Databases<'_>,
    initial: Bindings,
) -> (Vec<Bindings>, Vec<Bindings>, MatchStats, MatchStats) {
    let mut factory = SkolemFactory::new();
    let mut indexed_stats = MatchStats::default();
    let mut indexed = match_body(body, dbs, &mut factory, initial.clone(), &mut indexed_stats)
        .expect("indexed matcher succeeds");
    let mut factory = SkolemFactory::new();
    let mut reference_stats = MatchStats::default();
    let mut reference =
        match_body_reference(body, dbs, &mut factory, initial, &mut reference_stats)
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
    let (indexed, reference, indexed_stats, reference_stats) =
        match_both(&body, &dbs, Bindings::new());
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
    let mut plan = plan
        .expect("at least two scans")
        .map(vec![("N".into(), Expr::var(var_of(0)).proj("country"))]);
    let capital = Expr::var(var_of(0)).proj("is_capital");
    plan = plan.filter(capital.eq(Expr::Const(Value::bool(true))));
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
    let mut plan = plan
        .expect("at least two scans")
        .map(vec![("N".into(), Expr::var(var_of(0)).proj("clone_name"))]);
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

/// A row with each slot under its plan layout's variable name.
type NamedRow = std::collections::BTreeMap<wol_repro::wol_model::Var, Value>;

/// `cpl::run_slots` with each row's slots named by the plan's layout: the
/// one place this suite names rows — the same rows in the same order, or the
/// same error.
fn named_rows(
    plan: &Plan,
    ctx: &mut cpl::expr::EvalCtx<'_>,
    stats: &mut cpl::ExecStats,
) -> Result<Vec<NamedRow>, cpl::CplError> {
    let names = cpl::layout(plan);
    let rows = cpl::run_slots(plan, ctx, stats)?;
    Ok(rows
        .into_iter()
        .map(|row| names.iter().copied().zip(row).collect())
        .collect())
}

/// Run a plan and return its sorted row multiset.
fn sorted_rows(plan: &Plan, refs: &[&wol_repro::wol_model::Instance]) -> Vec<NamedRow> {
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(cpl::Parallelism::sequential());
    let mut stats = cpl::ExecStats::default();
    let mut rows = named_rows(plan, &mut ctx, &mut stats).expect("plan runs");
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
        "GRP".into(),
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
) -> (Vec<NamedRow>, Instance, cpl::ExecStats, String) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let rows = named_rows(&query.plan, &mut ctx, &mut stats).expect("plan runs");
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
) -> (Vec<NamedRow>, wol_repro::wol_model::Instance) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    let mut stats = cpl::ExecStats::default();
    let rows = named_rows(plan, &mut ctx, &mut stats).expect("plan runs");

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

/// Cases of each cpl-level planner differential.
const PLANNER_CASES: u32 = 24;

/// The two plan shapes the cpl-level join differentials run: the
/// histogram-fed plan, and the statistics-blind one (`Statistics::empty()`:
/// every extent and selectivity a fixed default), which often joins in
/// another order.
fn histogram_and_blind_plans(raw: &Plan, refs: &[&Instance]) -> [Plan; 2] {
    let stats = cpl::Statistics::from_instances(refs);
    [&stats, &cpl::Statistics::empty()].map(|stats| cpl::optimize_with_stats(raw.clone(), stats))
}

/// Counts one differential's cases, and those whose two plan shapes render
/// differently; the last of `PLANNER_CASES` fails if none did, so a
/// differential cannot silently lose its second shape.
struct ShapeCount {
    cases: AtomicU32,
    differing: AtomicU32,
}

impl ShapeCount {
    const fn new() -> Self {
        ShapeCount {
            cases: AtomicU32::new(0),
            differing: AtomicU32::new(0),
        }
    }

    fn record(&self, first: &Plan, second: &Plan) -> Result<(), String> {
        let differs = u32::from(first.render() != second.render());
        let differing = self.differing.fetch_add(differs, Ordering::Relaxed) + differs;
        let cases = self.cases.fetch_add(1, Ordering::Relaxed) + 1;
        if cases == PLANNER_CASES && differing == 0 {
            return Err(format!(
                "no case of {cases} rendered its two plan shapes differently"
            ));
        }
        Ok(())
    }
}

/// A scan→filter→project tower over the skewed `MarkerS` class — the plan
/// shape the columnar executor answers batch-at-a-time. Mixes an integer
/// range predicate, an optional dictionary-string equality or inequality,
/// and projects through a `Map` so late materialization is exercised.
fn marker_tower_plan(bin_cut: i64, with_str_eq: bool, negate: bool) -> Plan {
    let mut plan = Plan::scan("MarkerS", "M").filter(Expr::Leq(
        Box::new(Expr::var("M").proj("bin")),
        Box::new(Expr::Const(Value::int(bin_cut))),
    ));
    if with_str_eq {
        let (name, clone0) = (
            Box::new(Expr::var("M").proj("clone_name")),
            Box::new(Expr::Const(Value::str("clone0"))),
        );
        plan = plan.filter(if negate {
            Expr::Neq(name, clone0)
        } else {
            Expr::Eq(name, clone0)
        });
    }
    plan.map(vec![
        ("V0".into(), Expr::var("M")),
        ("NAME".into(), Expr::var("M").proj("name")),
        ("BIN".into(), Expr::var("M").proj("bin")),
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
) -> (Vec<NamedRow>, Instance, cpl::ExecStats, cpl::ColumnarStats) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    ctx.set_columnar(columnar);
    let mut stats = cpl::ExecStats::default();
    let rows = named_rows(plan, &mut ctx, &mut stats).expect("plan runs");
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
    #![proptest_config(ProptestConfig::with_cases(PLANNER_CASES))]

    /// The columnar differential: on scan→filter→project towers over
    /// zipf-skewed instances, the batch-at-a-time columnar executor and the
    /// row-at-a-time executor produce the identical row stream (order
    /// included), the bit-identical target instance and equal merged
    /// `ExecStats`, at every thread count in {1, 2, 4, 8}, planned and raw.
    /// The columnar path must actually engage — a silently disqualified
    /// pipeline would make this test vacuous.
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
        // A lone scan has one join order, so the second shape is the raw
        // tower: its filters stacked as written.
        let stats = cpl::Statistics::from_instances(&refs[..]);
        let plans = [cpl::optimize_with_stats(tower.clone(), &stats), tower];
        static SHAPES: ShapeCount = ShapeCount::new();
        SHAPES.record(&plans[0], &plans[1])?;
        for planned in &plans {
            let (base_rows, base_target, base_stats, _) =
                run_with_columnar(planned, &refs[..], 1, false);
            for threads in [1usize, 2, 4, 8] {
                let (rows, target, stats, columnar_stats) =
                    run_with_columnar(planned, &refs[..], threads, true);
                prop_assert!(columnar_stats.pipelines > 0,
                    "the columnar path never engaged on:\n{}", planned.render());
                prop_assert_eq!(&rows, &base_rows);
                prop_assert_eq!(&target, &base_target);
                prop_assert_eq!(&stats, &base_stats);
                // The row path itself is thread-invariant too.
                let (rows, target, stats, _) =
                    run_with_columnar(planned, &refs[..], threads, false);
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
) -> (Result<Vec<NamedRow>, cpl::CplError>, cpl::ExecStats, bool) {
    let parallelism = cpl::Parallelism::new(threads).with_min_items(1);
    let mut ctx = cpl::expr::EvalCtx::new(refs).with_parallelism(parallelism);
    ctx.set_columnar(columnar);
    let mut stats = cpl::ExecStats::default();
    let rows = named_rows(plan, &mut ctx, &mut stats);
    (rows, stats, ctx.columnar_stats().pipelines > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The kind-matrix differential: every comparison (`= != < =<`) over
    /// every pair of kind-matrix operands (constant against constant
    /// excepted), each plain, as its complementary comparison (`!=` for `=`,
    /// `=` for `!=`, swapped `=<` / `<` for `<` / `=<`) and conjoined behind
    /// a conjunct that is an uncomparable pair, a bad value, on half the
    /// rows, and every column compared with `true` (a Bool column with
    /// missing cells among them), run as a scan→filter→map tower. The row
    /// path and the columnar tower agree row for row — rows, errors and
    /// stats — at every thread count in {1, 2, 4, 8}, and every comparison
    /// engages the tower.
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
        // An uncomparable pair (an Int/Str mix compared with `<`) on the odd
        // objects, true on the even ones.
        let erring = Expr::Lt(
            Box::new(Expr::var("M").proj("m")),
            Box::new(Expr::Const(Value::int(100))),
        );
        // `Q` reads the optional `p`: the map drops the objects lacking it.
        let tower = |predicate: Expr| {
            Plan::scan("KindS", "M").filter(predicate).map(vec![
                ("K".into(), Expr::var("M").proj("k")),
                ("Q".into(), Expr::var("M").proj("p")),
            ])
        };
        let check = |plan: &Plan, must_engage: bool| -> Result<Vec<NamedRow>, String> {
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
        // and its complement: the comparison true exactly where it is false
        // on a comparable pair.
        type Build = fn(Box<Expr>, Box<Expr>) -> Expr;
        let ops: [(Build, PushOp, PushOp, Build); 4] = [
            (Expr::Eq, PushOp::Eq, PushOp::Eq, Expr::Neq),
            (Expr::Neq, PushOp::Neq, PushOp::Neq, Expr::Eq),
            (Expr::Lt, PushOp::Lt, PushOp::Gt, |a, b| Expr::Leq(b, a)),
            (Expr::Leq, PushOp::Leq, PushOp::Geq, |a, b| Expr::Lt(b, a)),
        ];
        for (left, left_attr) in &operands {
            for (right, right_attr) in &operands {
                let constant = |e: &Expr| matches!(e, Expr::Const(_));
                if constant(left) && constant(right) {
                    continue;
                }
                for (build, op, flipped, complement) in ops {
                    let cmp = build(Box::new(left.clone()), Box::new(right.clone()));
                    let kept = check(&tower(cmp.clone()), true)?;
                    check(&tower(complement(Box::new(left.clone()), Box::new(right.clone()))), true)?;
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
        // Each column compared with `true`: a Bool column (one with missing
        // cells too) keeps its true cells, any other column nothing.
        for attr in ["b", "q", "i", "s", "n"] {
            let (column, truth) = (Box::new(Expr::var("M").proj(attr)), Box::new(Expr::Const(Value::Bool(true))));
            check(&tower(Expr::Eq(column.clone(), truth.clone())), true)?;
            check(&tower(Expr::Neq(column.clone(), truth.clone())), true)?;
            check(&tower(Expr::and(vec![erring.clone(), Expr::Eq(column, truth)])), true)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PLANNER_CASES))]

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
    /// 2-5 scans, planning with histogram statistics and planning blind
    /// (`Statistics::empty()`) both produce exactly the raw plan's row
    /// multiset — and the planner leaves no product behind on these
    /// connected graphs either way.
    #[test]
    fn histogram_and_statistics_blind_planners_preserve_raw_row_multisets_on_skew(
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
        let plans = histogram_and_blind_plans(&raw, &refs[..]);
        static SHAPES: ShapeCount = ShapeCount::new();
        SHAPES.record(&plans[0], &plans[1])?;
        for planned in &plans {
            prop_assert_eq!(&sorted_rows(planned, &refs[..]), &expected);
            let rendered = planned.render();
            prop_assert!(!rendered.contains("CrossJoin") && !rendered.contains("NestedLoopJoin"),
                "a product survived planning:\n{}", rendered);
        }
    }

    /// The thread-matrix differential: over zipf-skewed E7-style instances,
    /// parallel execution at every thread count in {1, 2, 4, 8} produces the
    /// *identical row stream and target instance* as the sequential executor
    /// — for the histogram-fed and the statistics-blind plan *and* for the
    /// raw plan itself (products, predicate-less nested loops and filters
    /// above them) — and the row multiset always equals the raw plan's. The
    /// row stream is compared directly, so parallel row order is exactly
    /// sequential.
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
        let [hist, blind] = histogram_and_blind_plans(&raw, &refs[..]);
        static SHAPES: ShapeCount = ShapeCount::new();
        SHAPES.record(&hist, &blind)?;
        for plan in [&hist, &blind, &raw] {
            let (base_rows, base_target) = run_query_with_threads(plan, &refs[..], 1);
            for threads in [2usize, 4, 8] {
                let (rows, target) = run_query_with_threads(plan, &refs[..], threads);
                // Divergence at any thread count under any plan shape is a
                // determinism bug.
                prop_assert_eq!(&rows, &base_rows);
                prop_assert_eq!(&target, &base_target);
            }
            let mut multiset = base_rows;
            multiset.sort();
            prop_assert_eq!(&multiset, &raw_multiset);
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
    /// {1, 2, 4, 8}, planned with and without statistics. Any divergence
    /// means partitions merged out of input order, or an identity depended
    /// on its context.
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
        let plans = histogram_and_blind_plans(&raw, &refs[..]);
        static SHAPES: ShapeCount = ShapeCount::new();
        SHAPES.record(&plans[0], &plans[1])?;
        for planned in &plans {
            let query = skolem_heavy_query(planned);
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
                // Divergence at any thread count under either plan shape —
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
        let target = Morphase::new().transform(&program, &[&source][..]).unwrap().target;
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
        let a = wol_oracle::execute(&whole, &[&source][..], "t").unwrap();
        let b = wol_oracle::execute(&split, &[&source][..], "t").unwrap();
        prop_assert!(instances_equivalent(&a, &b, 2));
    }

    /// The indexed plan-based matcher returns exactly the same binding
    /// multiset as the naive reference matcher on generated instances — for
    /// every body shape of [`MATCHER_BODIES`] over the source with its city
    /// extras, and for every transformation-clause body of the
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
        let extended = with_city_extras(&source);
        let first_country = source.extent(&ClassName::new("CountryE")).next().unwrap().clone();
        let source_only = [&extended];
        let with_target = [&source, &target];
        let bodies = MATCHER_BODIES
            .iter()
            .map(|(text, seed)| {
                let initial: Bindings = seed
                    .map(|var| (var.into(), Value::oid(first_country.clone())))
                    .into_iter()
                    .collect();
                (text.to_string(), parse_clause(text).unwrap().body, initial, &source_only[..])
            })
            .chain(program.transformation_clauses().into_iter().map(|(_, clause)| {
                (render_clause(clause), clause.body.clone(), Bindings::new(), &with_target[..])
            }));
        for (name, body, initial, instances) in bodies {
            let dbs = Databases::new(instances);
            let (indexed, reference, indexed_stats, reference_stats) =
                match_both(&body, &dbs, initial);
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

    /// The Morphase/CPL execution path agrees with the single-pass reference
    /// executor of the normal form on the variant family.
    #[test]
    fn cpl_and_reference_execution_agree(k in 1usize..4, items in 1usize..12, seed in 0u64..100) {
        let program = variants::wol_program(k);
        let source = variants::generate_source(k, items, seed);
        let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let reference = wol_oracle::execute(&normal, &[&source][..], "target").unwrap();
        prop_assert!(instances_equivalent(&run.target, &reference, 2));
    }
}

/// The raw translation's plans for `program`, the second plan shape of the
/// pipeline-level differentials (the raw plan reads no statistics).
fn raw_plans(program: &wol_repro::wol_lang::program::Program) -> Vec<String> {
    use wol_repro::morphase::{Morphase, PipelineOptions};
    let options = PipelineOptions {
        optimize_plans: false,
        ..PipelineOptions::default()
    };
    let run = Morphase::with_options(options).compile(program);
    run.expect("the program compiles").plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The maintenance differential: over generated genome sources and
    /// random mutation streams (inserts, position updates, duplicate Skolem
    /// keys, attribute updates on referenced clones, removals, renames), an
    /// incrementally maintained pipeline's target is bit-identical to a
    /// from-scratch re-run after every batch — and the final target and the
    /// cumulative `MaintainStats` are identical at every thread count in
    /// {1, 2, 4, 8}, and the outcome counters are the same whether the
    /// pipeline runs planned or raw plans.
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

        // Canonical run: planned, oracle-checked after every single batch.
        let mut canonical = MaterializedPipeline::new(
            &program,
            vec![source.clone()],
            PipelineOptions::default(),
        )
        .unwrap();
        let planned = canonical.rerun_oracle().unwrap().plans;
        prop_assert!(planned != raw_plans(&program), "the raw plans render as the planned ones");
        for batch in &stream {
            canonical.apply_batch(batch).unwrap();
            let oracle = canonical.rerun_oracle().unwrap();
            if let Some(report) = canonical.target().deep_eq_report(&oracle.target) {
                prop_assert!(false, "maintained target diverged from the oracle: {}", report);
            }
        }
        let canonical_stats = canonical.stats().clone();

        for optimize_plans in [true, false] {
            for threads in [1usize, 2, 4, 8] {
                let options = PipelineOptions {
                    parallelism: cpl::Parallelism::new(threads),
                    optimize_plans,
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
                        "target diverged at {} threads / optimized {}: {}",
                        threads, optimize_plans, report
                    );
                }
                let stats = pipeline.stats();
                // Outcome counters are plan-shape independent.
                prop_assert_eq!(stats.batches, canonical_stats.batches);
                prop_assert_eq!(stats.inplace_batches, canonical_stats.inplace_batches);
                prop_assert_eq!(stats.inplace_batches, stats.batches);
                prop_assert_eq!(stats.rows_removed, canonical_stats.rows_removed);
                prop_assert_eq!(stats.rows_added, canonical_stats.rows_added);
                prop_assert_eq!(stats.objects_repaired, canonical_stats.objects_repaired);
                if optimize_plans {
                    // Within one plan shape the full stats block — execution
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

/// `source`'s classes split across `parts` instances at random: each class's
/// objects, under their own identities, in one instance. The other
/// instances' generators have minted nothing, so an insert there of a class
/// held elsewhere would mint an identity that is already held.
fn split_classes(g: &mut proptest::Gen, source: &Instance, parts: usize) -> Vec<Instance> {
    let mut split: Vec<Instance> = (0..parts)
        .map(|_| Instance::new(source.schema_name()))
        .collect();
    for class in source.populated_classes() {
        let holder = &mut split[g.usize_in(0, parts)];
        for (oid, value) in source.objects(&class) {
            holder.insert(oid.clone(), value.clone()).unwrap();
        }
    }
    split
}

/// One random batch against source `s` of a split genome source set, and
/// whether the one-source-per-class rule refuses it (it inserts a class
/// another source holds). Ops: inserts of either class (fresh clone and
/// marker names, markers maybe referencing any live clone, verbatim
/// duplicates of a live marker), and updates of positions and lengths,
/// clone renames and marker removals on `s`'s own objects. No op conflicts:
/// a position is updated only on a marker whose name no other marker
/// carries, and no object is touched twice in one batch.
fn multi_source_batch(
    g: &mut proptest::Gen,
    sources: &[&Instance],
    s: usize,
    fresh: &mut usize,
) -> (MutationBatch, bool) {
    let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
    let live = |class: &ClassName| -> Vec<(Oid, Value)> {
        sources
            .iter()
            .flat_map(|src| src.objects(class))
            .map(|(oid, v)| (oid.clone(), v.clone()))
            .collect()
    };
    let (clones, markers) = (live(&clone_s), live(&marker_s));
    let own = |class: &ClassName| -> Vec<(Oid, Value)> {
        sources[s]
            .objects(class)
            .map(|(oid, v)| (oid.clone(), v.clone()))
            .collect()
    };
    let (own_clones, own_markers) = (own(&clone_s), own(&marker_s));
    let name_count = |name: Option<&Value>| {
        markers
            .iter()
            .filter(|(_, v)| v.project("name") == name)
            .count()
    };
    let mut touched: BTreeSet<Oid> = BTreeSet::new();
    let mut inserted: BTreeSet<ClassName> = BTreeSet::new();
    let mut batch = MutationBatch::new();
    for _ in 0..g.usize_in(1, 4) {
        *fresh += 1;
        match g.usize_in(0, 7) {
            0 => {
                let mut fields = vec![("name", Value::from(format!("new-clone-{fresh}")))];
                if one_in(g, 2) {
                    fields.push(("length", Value::int(g.usize_in(0, 1000) as i64)));
                }
                batch = batch.insert(clone_s.clone(), Value::record(fields));
                inserted.insert(clone_s.clone());
            }
            1 => {
                let mut fields = vec![("name", Value::from(format!("new-marker-{fresh}")))];
                if one_in(g, 2) {
                    fields.push(("position", Value::int(g.usize_in(0, 1000) as i64)));
                }
                if !clones.is_empty() && one_in(g, 2) {
                    let (clone, _) = &clones[g.usize_in(0, clones.len())];
                    fields.push(("clone", Value::Oid(clone.clone())));
                }
                batch = batch.insert(marker_s.clone(), Value::record(fields));
                inserted.insert(marker_s.clone());
            }
            2 if !markers.is_empty() => {
                let (oid, value) = &markers[g.usize_in(0, markers.len())];
                if touched.insert(oid.clone()) {
                    batch = batch.insert(marker_s.clone(), value.clone());
                    inserted.insert(marker_s.clone());
                }
            }
            3 if !own_markers.is_empty() => {
                let (oid, value) = &own_markers[g.usize_in(0, own_markers.len())];
                if name_count(value.project("name")) == 1 && touched.insert(oid.clone()) {
                    let mut value = value.clone();
                    if let Value::Record(fields) = &mut value {
                        fields.insert("position".into(), Value::int(*fresh as i64));
                    }
                    batch = batch.update(oid.clone(), value);
                }
            }
            4 | 5 if !own_clones.is_empty() => {
                let (oid, value) = &own_clones[g.usize_in(0, own_clones.len())];
                if touched.insert(oid.clone()) {
                    let mut value = value.clone();
                    if let Value::Record(fields) = &mut value {
                        if one_in(g, 2) {
                            fields.insert("length".into(), Value::int(*fresh as i64));
                        } else {
                            fields.insert("name".into(), Value::from(format!("renamed-{fresh}")));
                        }
                    }
                    batch = batch.update(oid.clone(), value);
                }
            }
            6 if !own_markers.is_empty() => {
                let (oid, _) = &own_markers[g.usize_in(0, own_markers.len())];
                if touched.insert(oid.clone()) {
                    batch = batch.remove(oid.clone());
                }
            }
            _ => {}
        }
    }
    let refused = inserted.iter().any(|class| {
        (0..sources.len()).any(|other| other != s && sources[other].extent_size(class) > 0)
    });
    (batch, refused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each source class lives in one source. The genome source's classes
    /// are split across 2–3 instances at random, and a random batch stream
    /// runs against random source indices at 1 and 8 threads. The split
    /// build equals a fresh run over the unsplit source. A batch inserting
    /// a class another source holds is refused with a model error, leaving
    /// sources and target bit-identical and the pipeline healthy; every
    /// other batch repairs in place and equals `rerun_oracle()` and a fresh
    /// run over the current sources. Any other outcome — the internal
    /// collision error among them — fails the case.
    #[test]
    fn split_sources_refuse_overlap_and_maintain_in_place(seed in 0u64..u64::MAX) {
        use wol_repro::morphase::{BatchOutcome, MaterializedPipeline, MorphaseError, PipelineOptions};
        use wol_repro::workloads::genome::{self, GenomeParams};

        let mut g = proptest::Gen::new(seed);
        let params = GenomeParams {
            clones: g.usize_in(1, 7),
            markers: g.usize_in(1, 13),
            density: g.usize_in(0, 11) as f64 / 10.0,
            seed: g.next_u64() % 1000,
        };
        let program = genome::program();
        let whole = genome::generate_source(&params);
        let parts = g.usize_in(2, 4);
        let sources = split_classes(&mut g, &whole, parts);
        let stream_seed = g.next_u64();
        // The stream is drawn against the one-thread pipeline's state and
        // replayed at eight threads: (source index, batch, refused).
        let mut stream: Vec<(usize, MutationBatch, bool)> = Vec::new();
        for threads in [1usize, 8] {
            let options = PipelineOptions {
                parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                ..PipelineOptions::default()
            };
            let alone = Morphase::with_options(options).transform(&program, &[&whole][..]).unwrap();
            let mut pipeline =
                MaterializedPipeline::new(&program, sources.clone(), options).unwrap();
            let report = pipeline.target().deep_eq_report(&alone.target);
            prop_assert!(report.is_none(), "{} threads: split build vs one source: {:?}", threads, report);
            let mut g = proptest::Gen::new(stream_seed);
            let mut fresh_names = 0;
            for step in 0..g.usize_in(1, 9) {
                let current: Vec<Instance> =
                    (0..sources.len()).map(|i| pipeline.source(i).unwrap().clone()).collect();
                let refs: Vec<&Instance> = current.iter().collect();
                if threads == 1 {
                    let s = g.usize_in(0, sources.len());
                    let (batch, refused) = multi_source_batch(&mut g, &refs, s, &mut fresh_names);
                    stream.push((s, batch, refused));
                }
                let (s, batch, refused) = &stream[step];
                let before_target = pipeline.target().clone();
                let at = format!("{threads} threads, batch {step} into source {s}");
                match pipeline.apply_batch_to(*s, batch) {
                    Err(MorphaseError::Model(_)) if *refused => {
                        prop_assert!(!pipeline.is_poisoned(), "{}: refusal poisoned", at);
                        for (i, before) in current.iter().enumerate() {
                            prop_assert!(pipeline.source(i) == Some(before), "{}: source {} moved", at, i);
                        }
                        prop_assert!(pipeline.target() == &before_target, "{}: target moved", at);
                    }
                    Ok(report) if !*refused => {
                        prop_assert_eq!(report.outcome, BatchOutcome::InPlace);
                        let oracle = pipeline.rerun_oracle().unwrap();
                        let report = pipeline.target().deep_eq_report(&oracle.target);
                        prop_assert!(report.is_none(), "{}: maintained vs oracle: {:?}", at, report);
                        let now: Vec<&Instance> =
                            (0..sources.len()).map(|i| pipeline.source(i).unwrap()).collect();
                        let fresh = Morphase::with_options(options).transform(&program, &now).unwrap();
                        let report = pipeline.target().deep_eq_report(&fresh.target);
                        prop_assert!(report.is_none(), "{}: maintained vs fresh: {:?}", at, report);
                    }
                    outcome => prop_assert!(
                        false,
                        "{}: refused = {}, got {:?}",
                        at,
                        refused,
                        outcome.map(|report| report.outcome)
                    ),
                }
            }
            prop_assert_eq!(
                pipeline.stats().inplace_batches,
                stream.iter().filter(|(_, _, refused)| !refused).count() as u64
            );
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
    /// certificate bytes* are identical at every thread count in {1, 2, 4, 8},
    /// planned or raw.
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

        // Canonical run: one thread, planned, Report mode. After
        // every batch the attached check must agree with a from-scratch
        // rescan of the post-batch source, and its certificate must replay.
        let canonical_options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Report,
            parallelism: cpl::Parallelism::new(1),
            ..PipelineOptions::default()
        };
        let mut canonical =
            MaterializedPipeline::new(&program, vec![source.clone()], canonical_options).unwrap();
        let planned = canonical.rerun_oracle().unwrap().plans;
        prop_assert!(planned != raw_plans(&program), "the raw plans render as the planned ones");
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

        for optimize_plans in [true, false] {
            for threads in [1usize, 2, 4, 8] {
                let options = PipelineOptions {
                    batch_constraints: BatchConstraintMode::Report,
                    parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                    optimize_plans,
                    ..PipelineOptions::default()
                };
                let mut pipeline =
                    MaterializedPipeline::new(&program, vec![source.clone()], options).unwrap();
                for (i, batch) in stream.iter().enumerate() {
                    let report = pipeline.apply_batch(batch).unwrap();
                    let check = report.constraints.expect("report mode attaches a check");
                    prop_assert!(
                        check.violations == checks[i].violations,
                        "violations diverged at {} threads / optimized {}",
                        threads,
                        optimize_plans
                    );
                    prop_assert!(
                        check.certificate.encode() == checks[i].certificate.encode(),
                        "certificate bytes diverged at {} threads / optimized {}",
                        threads,
                        optimize_plans
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

/// Constraints over the registry source beside its own `S1`–`S3`: a
/// comparison (`G1`); a general constraint over two objects (`G2`); a
/// witness whose projection fails on a dangling reference, which makes the
/// binding a violation (`G3`); a body comparison that reads one, which is
/// false there (`G4`); a Skolem key that fails on one, and otherwise names one
/// key for several objects (`G5`); and a Skolem key that gives a user with
/// several profiles several key values (`G6`).
const REGISTRY_EXTRA_CONSTRAINTS: &str = "G1: U.tier < 99 <= U in UserS;\n\
    G2: P.nick = Q.nick <= P in ProfileS, Q in ProfileS, P.user = Q.user;\n\
    G3: P.user.tier < 5 <= P in ProfileS;\n\
    G4: U in UserS <= P in ProfileS, P.user.tier < 5;\n\
    G5: P = Mk_ProfileS(P.user.name) <= P in ProfileS;\n\
    G6: U = Mk_UserS(N) <= U in UserS, P in ProfileS, P.user = U, N = P.nick;";

/// Key constraints over the registry source whose full checks the attribute
/// index answers (`IX…`) or the matcher (`MX…`): two-attribute merge keys
/// with either variable scanned first (`IX1`, `IX4`), a named and a
/// positional two-attribute Skolem key (`IX2`, `IX3`); a merge key through
/// the `user` reference (`MX1`) and one whose sides meet in a shared
/// variable (`MX2`).
const REGISTRY_KEY_CONSTRAINTS: &str =
    "IX1: X = Y <= X in UserS, Y in UserS, X.tier = Y.tier, Y.email = X.email;\n\
    IX2: U = Mk_UserS(email = E, tier = T) <= U in UserS, E = U.email, T = U.tier;\n\
    IX3: A = Mk_AccountS(C, R) <= A in AccountS, R = A.region, C = A.code;\n\
    IX4: Y = X <= Y in ProfileS, X in ProfileS, X.nick = Y.nick, X.user = Y.user;\n\
    MX1: X = Y <= X in ProfileS, Y in ProfileS, X.user.email = Y.user.email;\n\
    MX2: X = Y <= X in UserS, Y in UserS, X.email = E, Y.email = E;";

/// The `index`-th object of `class` (modulo the extent), if any.
fn nth_object(instance: &Instance, class: &str, index: usize) -> Option<(Oid, Value)> {
    let class = ClassName::new(class);
    let size = instance.extent_size(&class);
    let oid = instance.extent(&class).nth(index % size.max(1))?.clone();
    let value = instance.value(&oid)?.clone();
    Some((oid, value))
}

/// `record` with `label` set to `value`.
fn with_field(record: Value, label: &str, value: Value) -> Value {
    let Value::Record(mut fields) = record else {
        panic!("objects are records");
    };
    fields.insert(label.into(), value);
    Value::Record(fields)
}

/// `record` without `label`.
fn without_field(record: Value, label: &str) -> Value {
    let Value::Record(fields) = record else {
        panic!("objects are records");
    };
    let kept = fields.iter().filter(|(l, _)| l.as_str() != label);
    Value::Record(kept.map(|(l, v)| (l.clone(), v.clone())).collect())
}

/// Insert into `source` copies of random objects of `class` changed by
/// `change` (given the copy's number): 0 to `most - 1` of them, and with
/// them — in one case in three — three copies of one object.
fn inject(
    g: &mut proptest::Gen,
    source: &mut Instance,
    class: &str,
    most: usize,
    change: impl Fn(usize, Value) -> Value,
) {
    let mut copies = Vec::new();
    for _ in 0..g.usize_in(0, most) {
        copies.push(nth_object(source, class, g.usize_in(0, 64)).unwrap().1);
    }
    if g.usize_in(0, 3) == 0 {
        let (_, value) = nth_object(source, class, g.usize_in(0, 64)).unwrap();
        copies.extend([value.clone(), value.clone(), value]);
    }
    for (i, value) in copies.into_iter().enumerate() {
        source.insert_fresh(&ClassName::new(class), change(i, value));
    }
}

/// A small registry source with injected violations: users sharing an
/// email (some of them in threes, some with another tier), profiles
/// referencing no user or copying another profile, and accounts sharing a
/// code; users and accounts lacking their key attribute or holding one of
/// another kind (an integer email or code, which may repeat); the registry
/// program's constraints, the extra and key ones above, and the key
/// constraints of its target, checked over the source and its target with
/// duplicated directory entries.
fn registry_constraint_case(g: &mut proptest::Gen) -> (Vec<Clause>, Vec<Instance>) {
    use wol_repro::morphase::metadata::generate_key_clauses;
    use wol_repro::workloads::constrained::{self, ConstrainedParams};

    let params = ConstrainedParams {
        users: g.usize_in(2, 10),
        profiles: g.usize_in(2, 14),
        accounts: g.usize_in(2, 8),
        seed: g.next_u64() % 1000,
    };
    let program = constrained::program();
    let mut source = constrained::generate_source(&params);
    let mut target = naive_transform(&program, &[&source][..], "target").unwrap();
    inject(g, &mut source, "UserS", 3, |i, user| {
        with_field(user, "name", Value::str(format!("twin {i}")))
    });
    inject(g, &mut source, "UserS", 2, |i, user| {
        with_field(user, "tier", Value::int(100 + i as i64))
    });
    inject(g, &mut source, "UserS", 3, |i, user| match i % 2 {
        0 => without_field(user, "email"),
        _ => with_field(user, "email", Value::int(i as i64 / 4)),
    });
    inject(g, &mut source, "ProfileS", 3, |_, profile| profile);
    for i in 0..g.usize_in(0, 3) {
        let ghost = Oid::new(ClassName::new("UserS"), 9_999_000 + i as u64);
        let orphan = Value::record([
            ("nick", Value::str(format!("orphan {i}"))),
            ("user", Value::Oid(ghost)),
        ]);
        source.insert_fresh(&ClassName::new("ProfileS"), orphan);
    }
    inject(g, &mut source, "AccountS", 3, |_, account| account);
    inject(g, &mut source, "AccountS", 3, |i, account| match i % 2 {
        0 => without_field(account, "code"),
        _ => with_field(account, "code", Value::int(i as i64 / 4)),
    });
    for _ in 0..g.usize_in(0, 2) {
        let (_, entry) = nth_object(&target, "UserD", g.usize_in(0, 64)).unwrap();
        target.insert_fresh(&ClassName::new("UserD"), entry);
    }
    let mut clauses: Vec<Clause> = program
        .source_constraints()
        .into_iter()
        .map(|(_, clause)| clause.clone())
        .collect();
    clauses.extend(parse_program(REGISTRY_EXTRA_CONSTRAINTS).unwrap());
    clauses.extend(parse_program(REGISTRY_KEY_CONSTRAINTS).unwrap());
    clauses.extend(generate_key_clauses(
        &program.target.schema,
        &program.target.keys,
    ));
    (clauses, vec![source, target])
}

/// A generated European source whose capitals are shuffled (a country with
/// none, or with two) and whose country names may repeat; the cities
/// constraint texts, the European program's constraints and the key and
/// merge-key constraints generated from its schemas, checked over the
/// source and its target with duplicated target objects. Half the cases are
/// the US instance of Figure 1 under (C1), with a capital moved to the
/// other state in half of those.
fn cities_constraint_case(g: &mut proptest::Gen) -> (Vec<Clause>, Vec<Instance>) {
    use wol_repro::morphase::metadata::{generate_key_clauses, generate_merge_key_clauses};

    let workload = CitiesWorkload::new();
    if g.usize_in(0, 2) == 0 {
        let mut us = workload.small_us_instance();
        if g.usize_in(0, 2) == 0 {
            let (harrisburg, value) = nth_object(&us, "CityA", 0).unwrap();
            let (georgia, _) = nth_object(&us, "StateA", 1).unwrap();
            let moved = with_field(value, "state", Value::Oid(georgia));
            us.update(&harrisburg, moved).unwrap();
        }
        let clauses = parse_program(CitiesWorkload::us_constraints_text()).unwrap();
        return (clauses, vec![us]);
    }
    let program = workload.euro_program();
    let mut source = generate_euro(g.usize_in(1, 5), g.usize_in(1, 4), g.next_u64() % 1000);
    let mut target = naive_transform(&program, &[&source][..], "target").unwrap();
    for _ in 0..g.usize_in(0, 3) {
        let (city, value) = nth_object(&source, "CityE", g.usize_in(0, 64)).unwrap();
        let flipped = !matches!(value.project("is_capital"), Some(Value::Bool(true)));
        source
            .update(&city, with_field(value, "is_capital", Value::bool(flipped)))
            .unwrap();
    }
    for _ in 0..g.usize_in(0, 2) {
        let (_, country) = nth_object(&source, "CountryE", g.usize_in(0, 64)).unwrap();
        source.insert_fresh(&ClassName::new("CountryE"), country);
    }
    for _ in 0..g.usize_in(0, 3) {
        let class = ["CountryT", "CityT"][g.usize_in(0, 2)];
        let (_, value) = nth_object(&target, class, g.usize_in(0, 64)).unwrap();
        target.insert_fresh(&ClassName::new(class), value);
    }
    let mut clauses = parse_program(CitiesWorkload::euro_constraints_text()).unwrap();
    clauses.extend(
        program
            .source_constraints()
            .into_iter()
            .map(|(_, c)| c.clone()),
    );
    clauses.extend(
        program
            .target_constraints()
            .into_iter()
            .map(|(_, c)| c.clone()),
    );
    for binding in &program.sources {
        clauses.extend(generate_merge_key_clauses(&binding.schema, &binding.keys));
    }
    clauses.extend(generate_key_clauses(
        &program.target.schema,
        &program.target.keys,
    ));
    (clauses, vec![source, target])
}

/// Check `clauses` over `instances` with the streaming check and with the
/// materialising reference, and hold them equal (see the test below).
/// Returns the violations, the number of clause errors the reference found
/// and the labels of the clauses whose full check the attribute index
/// answered.
fn compare_with_the_reference(
    clauses: &[Clause],
    instances: &[Instance],
) -> (Vec<wol_repro::wol_engine::Violation>, usize, Vec<String>) {
    use wol_oracle::check_constraint_reference;
    use wol_repro::wol_engine::{check_batch, check_constraints, CheckMode};
    use wol_repro::wol_model::{BatchDelta, Parallelism};

    let refs: Vec<&Instance> = instances.iter().collect();
    let dbs = Databases::new(&refs);
    let (mut checkable, mut expected, mut counts, mut errors) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for clause in clauses {
        let name = render_clause(clause);
        match (
            check_constraint_reference(clause, &dbs),
            check_constraints(&[clause], &dbs),
        ) {
            (Ok((found, checked)), Ok(streamed)) => {
                assert_eq!(streamed, found, "`{name}`");
                checkable.push(clause);
                expected.extend(found);
                counts.push(checked);
            }
            (Err(reference), Err(streamed)) => {
                assert_eq!(streamed.to_string(), reference.to_string(), "`{name}`");
                errors += 1;
            }
            (reference, streamed) => {
                panic!("`{name}`: streamed {streamed:?}, reference {reference:?}")
            }
        }
    }
    assert_eq!(check_constraints(&checkable, &dbs).unwrap(), expected);
    let suspects: BTreeSet<usize> = (0..checkable.len()).collect();
    let batch = check_batch(
        &checkable,
        &dbs,
        &BatchDelta::default(),
        Parallelism::sequential(),
        &suspects,
    )
    .unwrap();
    assert_eq!(batch.violations, expected);
    assert_eq!(batch.certificate.entries.len(), counts.len());
    for (entry, checked) in batch.certificate.entries.iter().zip(counts) {
        assert_eq!(
            (entry.mode, entry.checked),
            (CheckMode::Full, checked),
            "{}",
            entry.constraint
        );
    }
    let suspect: BTreeSet<usize> = [0].into_iter().collect();
    let mut answered = Vec::new();
    for clause in &checkable {
        let alone = check_batch(
            &[clause],
            &dbs,
            &BatchDelta::default(),
            Parallelism::sequential(),
            &suspect,
        )
        .unwrap();
        if alone.index_answered == 1 {
            answered.push(alone.certificate.entries[0].constraint.clone());
        }
    }
    assert_eq!(batch.index_answered, answered.len());
    (expected, errors, answered)
}

/// The streaming constraint check against the materialising reference
/// (`wol_oracle::check_constraint_reference`), over 24 generated registry
/// and cities cases with injected violations, the cities constraint texts
/// and generated key constraints: each clause checked alone gives the
/// reference's violation list exactly — order, `detail` and `oids` — or
/// fails with the reference's error text; the clauses that check, checked
/// together by `check_constraints` and by `check_batch` with every clause a
/// suspect (so each runs in full), give the concatenated lists; and each
/// certificate entry's `checked` is the reference's count of body bindings.
/// The cases reach clause errors and every kind of violation: a missing
/// witness, and a key naming two objects or an object with two keys. Key
/// constraints over plain attributes are answered from the attribute index
/// (`S1`, `S3`, every `IX…` in every case), the rest by the matcher (`MX…`
/// in none).
#[test]
fn streaming_constraint_checks_equal_the_materialising_reference() {
    let (mut violations, mut errors, mut answered) = (Vec::new(), 0, Vec::new());
    for seed in 0..24 {
        let mut g = proptest::Gen::new(seed);
        for (clauses, instances) in [
            registry_constraint_case(&mut g),
            cities_constraint_case(&mut g),
        ] {
            let (found, failed, by_index) = compare_with_the_reference(&clauses, &instances);
            violations.extend(found);
            errors += failed;
            answered.extend(by_index);
        }
    }
    let count = |label: &str| answered.iter().filter(|a| *a == label).count();
    for label in ["S1", "S3", "IX1", "IX2", "IX3", "IX4"] {
        assert_eq!(count(label), 24, "{label} answered by the index");
    }
    assert_eq!(count("MX1") + count("MX2"), 0, "MX… answered by the index");
    eprintln!(
        "[reference differential] {} full checks answered by the index",
        answered.len()
    );
    let kinds = [
        "no head witness for binding",
        "is associated with two distinct objects",
        "has two distinct key values",
    ];
    for kind in kinds {
        let seen = violations
            .iter()
            .filter(|v| v.detail.contains(kind))
            .count();
        eprintln!("[reference differential] {seen} violations: {kind}");
        assert!(seen > 0, "no case found a violation: {kind}");
    }
    eprintln!("[reference differential] {errors} clause errors");
    assert!(errors > 0);
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

    /// The record attributes of each class: every attribute one of its
    /// recorded objects carries, so optional ones count too.
    fn keys(&self) -> Vec<(ClassName, String)> {
        let mut keys = std::collections::BTreeSet::new();
        for (oid, value) in &self.objects {
            if let Value::Record(fields) = value {
                keys.extend(
                    fields
                        .keys()
                        .map(|attr| (oid.class().clone(), attr.to_string())),
                );
            }
        }
        keys.into_iter().collect()
    }

    /// Each class's attributes side by side, as `keys` lists them: the
    /// tuples probed through one composite index.
    fn pairs(&self) -> Vec<(ClassName, [String; 2])> {
        let keys = self.keys();
        let same_class = keys.windows(2).filter(|w| w[0].0 == w[1].0);
        same_class
            .map(|w| (w[0].0.clone(), [w[0].1.clone(), w[1].1.clone()]))
            .collect()
    }

    /// Hold `reader` — the recorded version itself, or a copy of it — to the
    /// record: extents, values, single and composite probes of held values and
    /// `probe_values` (answered by a scan of the record) and columns.
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
        for (class, attrs) in self.pairs() {
            let of_class = || self.objects.iter().filter(|(oid, _)| oid.class() == &class);
            let held = of_class().filter_map(|(_, value)| {
                Some([
                    value.project(&attrs[0])?.clone(),
                    value.project(&attrs[1])?.clone(),
                ])
            });
            let unheld = probe_values.iter().map(|v| [v.clone(), v.clone()]);
            for probe in held.take(6).chain(unheld) {
                let expected: Vec<_> = of_class()
                    .filter(|(_, value)| {
                        attrs
                            .iter()
                            .zip(&probe)
                            .all(|(a, v)| value.project(a) == Some(v))
                    })
                    .map(|(oid, _)| oid.clone())
                    .collect();
                let mut found = Vec::new();
                reader.lookup_by_attrs(&class, &attrs, &[&probe[0], &probe[1]], &mut found);
                prop_assert!(
                    found == expected,
                    "composite probe of {}.{:?} = {:?} changed",
                    class,
                    attrs,
                    probe
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Snapshot isolation of the versioned `Instance`: a reader holding the
    /// version published after batch *n* reads bit-identical extents, values,
    /// `lookup_by_attr` and composite `lookup_by_attrs` answers and
    /// `attr_column`s after the writer has
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

        // A reader probes every attribute and attribute pair of the first
        // version; the writer adopts those indexes, composite ones included,
        // so later versions carry them by reference while the writer keeps
        // maintaining its own copy through every insert, update and removal.
        let first = VersionRecord::take(pipeline.target().snapshot());
        first.check(&first.version, &[])?;
        pipeline.target().adopt_attr_indexes(&first.version);
        let built = pipeline.target().built_attr_indexes();
        prop_assert!(built.iter().any(|(_, attrs)| attrs.len() == 2));
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
                cold.lookup_by_attr(class, attr, &Value::str("\u{0}absent"));
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
