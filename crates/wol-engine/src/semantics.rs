//! Naive (direct) and semi-naive evaluation of transformation programs.
//!
//! Section 5 opens: "Implementing a transformation directly using clauses such
//! as (T1), (T2) and (T3) would be inefficient: to infer the structure of a
//! single object we would have to apply multiple clauses ... Further, since
//! some of the transformation clauses involve target classes and objects in
//! their bodies, we would have to apply the clauses recursively."
//!
//! This module implements that direct fixpoint strategy: clauses are applied
//! repeatedly against the source databases *and* the target built so far,
//! until a fixpoint is reached. It is the reference semantics the
//! normalised/compiled execution path is tested against.
//!
//! Clause bodies are matched with the engine's one matcher
//! ([`crate::env::match_body`]). One refinement over the textbook strategy is
//! available through [`NaiveOptions`] (on by default):
//!
//! * **semi-naive passes** — after the first full pass, clauses that read
//!   only source classes are never re-run (their matches cannot change), and
//!   clauses that read target classes are re-matched only against bindings
//!   that touch the previous pass's *delta* (the target objects created or
//!   updated in that pass). Because attribute values can also be reached
//!   through projection chains that the delta restriction does not see, a
//!   fixpoint is only declared after one unrestricted pass confirms that
//!   nothing changes.

use std::collections::{BTreeMap, BTreeSet};

use wol_lang::ast::{Atom, Term, Var};
use wol_lang::check_clause_types;
use wol_lang::program::Program;
use wol_model::{ClassName, Instance, Label, Oid, Parallelism, Record, SkolemFactory, Value};

use crate::constraints::{extract_object_keys, ObjectKey};
use crate::env::{
    eval_skolem_key, eval_term, fan_out, match_body, Bindings, Databases, MatchStats,
};
use crate::error::EngineError;
use crate::headform::{analyze_head, HeadAnalysis};
use crate::Result;

/// Options for the naive evaluator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NaiveOptions {
    /// Maximum number of passes over the clause set before giving up.
    pub max_passes: usize,
    /// Use semi-naive delta passes after the first full pass. Turning this
    /// off re-runs every clause unrestricted in every pass (the paper's
    /// "apply the clauses recursively" strategy).
    pub semi_naive: bool,
    /// Worker budget of the [`Databases`] view every pass matches against
    /// (body matching and the semi-naive delta seeds). Defaults to the
    /// environment ([`Parallelism::from_env`]: available cores, overridable
    /// via `WOL_THREADS`). The budget never changes the produced target —
    /// partitions mint through factories that fold into the clause-wide
    /// one, and delta matches are collected into an ordered set before
    /// updates apply.
    pub parallelism: Parallelism,
}

impl Default for NaiveOptions {
    fn default() -> Self {
        NaiveOptions {
            max_passes: 64,
            semi_naive: true,
            parallelism: Parallelism::from_env(),
        }
    }
}

/// Statistics about a naive evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct NaiveReport {
    /// Number of passes over the clause set until the fixpoint.
    pub passes: usize,
    /// Candidate bindings enumerated by body matching across all passes.
    pub bindings_considered: usize,
    /// Full extent enumerations performed by body matching.
    pub extents_scanned: usize,
    /// Attribute-index probes performed by body matching.
    pub index_probes: usize,
    /// Clause evaluations skipped entirely by the semi-naive strategy.
    pub clauses_skipped: usize,
}

/// A transformation clause, pre-analysed for the pass loop.
struct AnalysedClause {
    analysis: HeadAnalysis,
    body: Vec<Atom>,
    /// `Member(Var v, C)` body atoms over target classes: the hooks the
    /// semi-naive delta restriction attaches to.
    target_member_vars: Vec<(Var, ClassName)>,
    /// Whether the body mentions any target class at all.
    reads_target: bool,
}

/// Apply the program's transformation clauses directly, repeatedly, until the
/// target instance stops changing. Returns the target and run statistics.
pub(crate) fn naive_transform_with_report(
    program: &Program,
    sources: &[&Instance],
    target_name: &str,
    options: &NaiveOptions,
) -> Result<(Instance, NaiveReport)> {
    let schemas = program.schemas();
    let target_classes = program.target_classes();
    let target_constraints: Vec<_> = program
        .target_constraints()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let keys = extract_object_keys(&target_constraints);

    // Pre-analyse every transformation clause.
    let mut analysed: Vec<AnalysedClause> = Vec::new();
    for (_, clause) in program.transformation_clauses() {
        let env = check_clause_types(clause, &schemas)?;
        let analysis = analyze_head(clause, &env, &target_classes)?;
        let target_member_vars = clause
            .body
            .iter()
            .filter_map(|atom| match atom {
                Atom::Member(Term::Var(v), class) if target_classes.contains(class) => {
                    Some((v.clone(), class.clone()))
                }
                _ => None,
            })
            .collect();
        let reads_target = clause
            .body_classes()
            .iter()
            .any(|c| target_classes.contains(c));
        analysed.push(AnalysedClause {
            analysis,
            body: clause.body.clone(),
            target_member_vars,
            reads_target,
        });
    }

    let mut factory = SkolemFactory::new();
    let mut target = Instance::new(target_name);
    let mut report = NaiveReport::default();
    let mut stats = MatchStats::default();

    // The delta: target objects created or updated in the previous pass.
    let mut delta: BTreeSet<Oid> = BTreeSet::new();
    // Whether the next pass must run unrestricted (the first pass always
    // does; so does the certification pass after a delta pass goes quiet).
    let mut run_full = true;

    let mut pass = 0usize;
    while pass < options.max_passes {
        pass += 1;
        report.passes = pass;
        let full_pass = run_full || !options.semi_naive;
        let mut pass_delta: BTreeSet<Oid> = BTreeSet::new();
        // Each pass evaluates every clause against the target as it stood at
        // the *start* of the pass (the clause-at-a-time recursive application
        // the paper describes); updates become visible in the next pass.
        let snapshot = target.clone();
        let mut all: Vec<&Instance> = sources.to_vec();
        all.push(&snapshot);
        let dbs = Databases::new(&all).with_parallelism(options.parallelism);
        for clause in &analysed {
            // Gather the updates with an immutable view of the target, then apply.
            let updates = {
                let bindings: Vec<Bindings> = if !full_pass && !clause.reads_target {
                    // A source-only clause matches exactly what it matched in
                    // the first pass; its updates are already applied.
                    report.clauses_skipped += 1;
                    continue;
                } else if full_pass || clause.target_member_vars.is_empty() {
                    // A full pass — or a clause that reads the target, but
                    // not through a plain variable membership the delta
                    // restriction can attach to: an unrestricted match.
                    match_body(
                        &clause.body,
                        &dbs,
                        &mut factory,
                        Bindings::new(),
                        &mut stats,
                    )?
                } else {
                    // Semi-naive: only bindings in which at least one target
                    // membership variable is bound to a delta object can be
                    // new. Seed each target membership variable with each
                    // delta object of its class and take the union.
                    let mut seeds: Vec<(Var, Oid)> = Vec::new();
                    for (var, class) in &clause.target_member_vars {
                        for oid in delta.iter().filter(|oid| oid.class() == class) {
                            seeds.push((var.clone(), oid.clone()));
                        }
                    }
                    let collected =
                        match_delta_seeds(&clause.body, &dbs, &mut factory, &seeds, &mut stats)?;
                    collected.into_iter().collect()
                };
                let mut updates: Vec<(Oid, Label, Value)> = Vec::new();
                let mut creations: Vec<Oid> = Vec::new();
                for binding in &bindings {
                    for object in &clause.analysis.objects {
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
                (creations, updates)
            };
            let (creations, updates) = updates;
            for oid in creations {
                if !target.contains(&oid) {
                    target.insert(oid.clone(), Value::Record(Record::new()))?;
                    pass_delta.insert(oid);
                }
            }
            for (oid, label, value) in updates {
                if !target.contains(&oid) {
                    target.insert(oid.clone(), Value::Record(Record::new()))?;
                    pass_delta.insert(oid.clone());
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
                        fields.insert(label.clone(), value);
                        target.update(&oid, Value::Record(fields))?;
                        pass_delta.insert(oid.clone());
                    }
                }
            }
        }
        if pass_delta.is_empty() {
            if full_pass {
                // An unrestricted pass changed nothing: certified fixpoint.
                break;
            }
            // The delta pass went quiet, but delta restriction can miss
            // bindings reached through projection chains; certify with one
            // unrestricted pass.
            run_full = true;
            delta.clear();
        } else {
            run_full = false;
            delta = pass_delta;
        }
    }
    report.extents_scanned = stats.extents_scanned;
    report.index_probes = stats.index_probes;
    report.bindings_considered = stats.bindings_considered;
    Ok((target, report))
}

/// Match one clause body once per delta seed and take the union. The seeds
/// are independent queries, cut into chunks under the one partition rule
/// ([`fan_out`]); a chunk's Skolem factory folds into the clause-wide one.
/// The result is an ordered set, so the produced fixpoint is identical at
/// every budget.
fn match_delta_seeds(
    body: &[Atom],
    dbs: &Databases<'_>,
    factory: &mut SkolemFactory,
    seeds: &[(Var, Oid)],
    stats: &mut MatchStats,
) -> Result<BTreeSet<Bindings>> {
    let found = fan_out(seeds, dbs, factory, stats, |chunk, dbs, factory, stats| {
        let mut out = Vec::new();
        for (var, oid) in chunk {
            let initial = Bindings::from([(var.clone(), Value::Oid(oid.clone()))]);
            out.extend(match_body(body, dbs, factory, initial, stats)?);
        }
        Ok(out)
    })?;
    Ok(found.into_iter().collect())
}

/// Convenience wrapper returning only the target instance.
pub fn naive_transform(
    program: &Program,
    sources: &[&Instance],
    target_name: &str,
) -> Result<Instance> {
    naive_transform_with_report(program, sources, target_name, &NaiveOptions::default())
        .map(|(instance, _)| instance)
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
        let (target, report) = naive_transform_with_report(
            &program,
            &[&source][..],
            "target",
            &NaiveOptions::default(),
        )
        .unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 3);
        // Multiple passes were needed: T2 depends on T1's output and T3 on both
        // (plus a final pass that detects the fixpoint).
        assert!(
            report.passes >= 4,
            "expected several passes, got {}",
            report.passes
        );
        assert!(report.bindings_considered > 0);

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
        let (target, report) =
            naive_transform_with_report(&program, &[&source][..], "t", &NaiveOptions::default())
                .unwrap();
        assert!(target.is_empty());
        assert_eq!(report.passes, 1);
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

    #[test]
    fn semi_naive_and_full_fixpoint_agree() {
        let program = cities_program();
        let source = euro_instance();
        let semi = NaiveOptions::default();
        let full = NaiveOptions {
            semi_naive: false,
            ..NaiveOptions::default()
        };
        let (a, semi_report) =
            naive_transform_with_report(&program, &[&source][..], "target", &semi).unwrap();
        let (b, full_report) =
            naive_transform_with_report(&program, &[&source][..], "target", &full).unwrap();
        assert_eq!(a, b);
        // The semi-naive run skipped the source-only clause in later passes.
        // (On an instance this small the delta bookkeeping can outweigh the
        // saved matching; the asymptotic win is asserted by the regression
        // test over the generated workloads.)
        assert!(semi_report.clauses_skipped > 0);
        assert!(full_report.clauses_skipped == 0);
        assert!(semi_report.passes >= 4);
    }

    /// The parallel fixpoint (partitioned matching + parallel delta passes)
    /// produces the *identical* target instance — same identities, same
    /// values — and the same match statistics as the sequential fixpoint, at
    /// every thread count. The budgets lower the partition minimum so the
    /// five-object instance really splits.
    #[test]
    fn parallel_fixpoint_is_bit_identical_to_sequential() {
        let program = cities_program();
        let source = euro_instance();
        let sequential_options = NaiveOptions {
            parallelism: Parallelism::sequential(),
            ..NaiveOptions::default()
        };
        let (sequential, sequential_report) =
            naive_transform_with_report(&program, &[&source][..], "target", &sequential_options)
                .unwrap();
        for threads in [2, 4, 8] {
            let parallelism = Parallelism::new(threads).with_min_items(1);
            let cities = source.extent_size(&ClassName::new("CityE"));
            assert!(parallelism.partitions(cities) > 1, "CityE splits");
            let options = NaiveOptions {
                parallelism,
                ..NaiveOptions::default()
            };
            let (parallel, report) =
                naive_transform_with_report(&program, &[&source][..], "target", &options).unwrap();
            assert_eq!(parallel, sequential, "target diverged at {threads} threads");
            assert_eq!(
                report, sequential_report,
                "report diverged at {threads} threads"
            );
        }
    }

    /// A Skolem-bearing clause that reads the target is re-matched through
    /// the semi-naive delta seeds, which split like any other work: the
    /// chunks' factories fold into the clause-wide one, so the fixpoint and
    /// its report are identical at every budget.
    #[test]
    fn skolem_bearing_delta_seeds_partition_and_equal_the_sequential_fixpoint() {
        let program = Program::new(
            "skolem_seeds",
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
        let source = euro_instance();
        let run = |threads: usize| {
            let options = NaiveOptions {
                parallelism: Parallelism::new(threads).with_min_items(1),
                ..NaiveOptions::default()
            };
            naive_transform_with_report(&program, &[&source][..], "target", &options).unwrap()
        };
        let (expected, expected_report) = run(1);
        let france = expected
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let capital = expected.value(france).unwrap().project("capital").unwrap();
        let capital = capital.as_oid().unwrap();
        assert_eq!(
            expected.value(capital).unwrap().project("name"),
            Some(&Value::str("Paris")),
            "the minted capital is the city T2 created"
        );
        assert!(expected_report.passes >= 3, "{expected_report:?}");
        for threads in [2, 8] {
            let (target, report) = run(threads);
            assert_eq!(target, expected, "target diverged at {threads} threads");
            assert_eq!(
                report, expected_report,
                "report diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn max_passes_caps_runaway_programs() {
        let program = cities_program();
        let source = euro_instance();
        let options = NaiveOptions {
            max_passes: 1,
            ..NaiveOptions::default()
        };
        let (target, report) =
            naive_transform_with_report(&program, &[&source][..], "t", &options).unwrap();
        assert_eq!(report.passes, 1);
        // After a single pass the capital attribute cannot have been filled in.
        let france =
            target.find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"));
        if let Some(fr) = france {
            assert_eq!(target.value(fr).unwrap().project("capital"), None);
        }
    }
}
