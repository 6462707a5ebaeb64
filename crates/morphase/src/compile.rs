//! Translation of normal-form WOL clauses into CPL queries (Figure 6's
//! "Translator to CPL").
//!
//! Each [`NormalClause`] becomes one [`cpl::Query`]: its body's class
//! membership atoms become scans, equality atoms become either binding maps
//! (when they define a fresh variable) or filters, and the clause's key and
//! attribute terms become the query's insert action. The translator does
//! **not** order the joins itself — it emits the scans as a raw product (the
//! atom pool) and hands the result to the CPL join-graph planner
//! ([`cpl::optimize_with_stats`]), which reorders the scans by estimated
//! cardinality and selectivity — the role the paper assigns to the Kleisli
//! optimiser. [`PlanMode`] says whether the planner runs at all: the raw
//! translation is the baseline the regression tests measure against. There
//! is one way to plan; what a federated run pushes into its scan providers is
//! read off the finished plans afterwards ([`cpl::pushable_predicates`]), and
//! every pushed conjunct stays in its plan as a residual re-check. Where a
//! defining equation is bound is the planner's call too: the translator puts
//! every one in a single `Map`, and the planner moves those projecting one
//! attribute off a filtered scan into that scan's columnar tower, leaving the
//! rest at the root.
//!
//! Two scans of one source class merge under either of two sufficient
//! conditions ([`wol_engine::optimize`]). A source key merges them while
//! normalising (the paper's §4.2), so the normal form already reflects it.
//! Coverage merges them here, when a clause is planned: a *witness* scan,
//! whose every use is a projection equated with another scan's of its class,
//! adds nothing to the target under set semantics, and
//! [`fold_witnesses`] drops it before the plan is built. The normal form
//! therefore stays the paper's. [`PlanMode::Raw`] keeps every witness scan:
//! it is the baseline the planner is measured against, and `cpl`'s planner
//! is held to the row multisets of the plan it is handed, which the fold
//! precedes.

use std::collections::BTreeSet;

use cpl::plan::InsertAction;
use cpl::{Expr, Plan, Query, Statistics};
use wol_engine::normalize::{NormalClause, NormalProgram};
use wol_engine::optimize::fold_witnesses;
use wol_lang::ast::{Atom, SkolemArgs, Term};
use wol_model::Label;

use crate::error::MorphaseError;
use crate::Result;

/// How compiled plans are optimised.
#[derive(Clone, Copy, Debug)]
pub enum PlanMode<'a> {
    /// Leave the raw left-deep translation of the normal clause untouched,
    /// witness scans included (the baseline the regression tests measure
    /// against).
    Raw,
    /// Fold witness scans, then run the cost-based join-graph planner fed
    /// by extent/ndv statistics over the live source instances
    /// ([`Statistics::empty`] when no instances are at hand: every estimate
    /// then uses fixed defaults).
    PlannerWithStats(&'a Statistics<'a>),
}

/// Translate a WOL term over body variables into a CPL row expression.
pub fn translate_term(term: &Term) -> Expr {
    match term {
        Term::Var(v) => Expr::Var(v.clone()),
        Term::Const(value) => Expr::Const(value.clone()),
        Term::Proj(base, label) => Expr::Proj(Box::new(translate_term(base)), label.clone()),
        Term::Record(fields) => Expr::Record(
            fields
                .iter()
                .map(|(l, t)| (l.clone(), translate_term(t)))
                .collect(),
        ),
        Term::Variant(label, payload) => {
            Expr::Variant(label.clone(), Box::new(translate_term(payload)))
        }
        Term::Skolem(class, args) => Expr::Skolem(class.clone(), Box::new(translate_key(args))),
    }
}

/// Translate Skolem arguments into the key expression whose value identifies
/// the created object.
pub fn translate_key(args: &SkolemArgs) -> Expr {
    match args {
        SkolemArgs::Positional(ts) if ts.len() == 1 => translate_term(&ts[0]),
        SkolemArgs::Positional(ts) => Expr::Record(
            ts.iter()
                .enumerate()
                .map(|(i, t)| (Label::new(format!("_{i}")), translate_term(t)))
                .collect(),
        ),
        SkolemArgs::Named(fields) => Expr::Record(
            fields
                .iter()
                .map(|(l, t)| (l.clone(), translate_term(t)))
                .collect(),
        ),
    }
}

fn translate_atom_predicate(atom: &Atom) -> Result<Expr> {
    Ok(match atom {
        Atom::Eq(s, t) => Expr::Eq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Neq(s, t) => Expr::Neq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Lt(s, t) => Expr::Lt(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Leq(s, t) => Expr::Leq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Member(_, c) => {
            return Err(MorphaseError::Compilation(format!(
                "membership in `{c}` cannot appear as a filter predicate"
            )))
        }
        Atom::InSet(_, _) => {
            return Err(MorphaseError::Compilation(
                "`member` atoms are not supported by the CPL translator".to_string(),
            ))
        }
    })
}

/// Compile one normal clause into a CPL query.
pub fn compile_clause(clause: &NormalClause, mode: PlanMode<'_>) -> Result<Query> {
    match mode {
        PlanMode::Raw => translate_clause(clause),
        PlanMode::PlannerWithStats(stats) => {
            let folded = fold_witnesses(clause);
            let mut query = translate_clause(folded.as_ref().unwrap_or(clause))?;
            query.plan = cpl::optimize_with_stats(query.plan, stats);
            Ok(query)
        }
    }
}

/// Translate one normal clause into its raw (unoptimised) CPL query.
fn translate_clause(clause: &NormalClause) -> Result<Query> {
    // 1. Scans for every membership atom.
    let mut plan: Option<Plan> = None;
    let mut produced: BTreeSet<&str> = BTreeSet::new();
    let mut rest: Vec<&Atom> = Vec::new();
    for atom in &clause.body {
        match atom {
            Atom::Member(Term::Var(v), class) => {
                let scan = Plan::scan(class.clone(), v.clone());
                produced.insert(v);
                plan = Some(match plan {
                    None => scan,
                    Some(existing) => existing.cross(scan),
                });
            }
            Atom::Member(_, class) => {
                return Err(MorphaseError::Compilation(format!(
                    "membership of a non-variable term in `{class}` is not supported"
                )))
            }
            other => rest.push(other),
        }
    }
    let mut plan = plan.ok_or_else(|| {
        MorphaseError::Compilation(format!(
            "clause for `{}` has no source membership atoms",
            clause.class
        ))
    })?;

    // 2. Remaining atoms: binding maps (defining equations) or filters, in
    //    dependency order. Variables are checked by reference, building no
    //    set per atom or pass.
    let mut remaining: Vec<&Atom> = rest;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut deferred: Vec<&Atom> = Vec::new();
        for atom in remaining.drain(..) {
            // A defining equation `V = t` (or `t = V`) with V fresh and t computable.
            let defining = match atom {
                Atom::Eq(Term::Var(v), t)
                    if !produced.contains(v.as_str()) && covered(t, &produced) =>
                {
                    Some((v, t))
                }
                Atom::Eq(t, Term::Var(v))
                    if !produced.contains(v.as_str()) && covered(t, &produced) =>
                {
                    Some((v, t))
                }
                _ => None,
            };
            if let Some((var, term)) = defining {
                plan = plan.map(vec![(var.clone(), translate_term(term))]);
                produced.insert(var);
                progressed = true;
                continue;
            }
            // A filter whose variables are all available.
            if atom_terms(atom).all(|t| covered(t, &produced)) {
                plan = plan.filter(translate_atom_predicate(atom)?);
                progressed = true;
                continue;
            }
            deferred.push(atom);
        }
        if !progressed && !deferred.is_empty() {
            return Err(MorphaseError::Compilation(format!(
                "cannot order the body atoms of the clause for `{}`: {} atoms remain unplaced",
                clause.class,
                deferred.len()
            )));
        }
        remaining = deferred;
    }

    // 3. The insert action.
    let insert = InsertAction {
        class: clause.class.clone(),
        key: translate_key(&clause.key),
        attrs: clause
            .attrs
            .iter()
            .map(|(l, t)| (l.clone(), translate_term(t)))
            .collect(),
    };
    Ok(Query {
        name: clause.provenance.join("+"),
        plan,
        inserts: vec![insert],
    })
}

/// The terms an atom compares.
fn atom_terms(atom: &Atom) -> impl Iterator<Item = &Term> {
    let (s, t) = match atom {
        Atom::Member(t, _) => (t, None),
        Atom::Eq(s, t) | Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) | Atom::InSet(s, t) => {
            (s, Some(t))
        }
    };
    std::iter::once(s).chain(t)
}

/// Whether every variable of `term` is produced.
fn covered(term: &Term, produced: &BTreeSet<&str>) -> bool {
    match term {
        Term::Var(v) => produced.contains(v.as_str()),
        Term::Const(_) => true,
        Term::Proj(t, _) | Term::Variant(_, t) => covered(t, produced),
        Term::Record(fields) | Term::Skolem(_, SkolemArgs::Named(fields)) => {
            fields.iter().all(|(_, t)| covered(t, produced))
        }
        Term::Skolem(_, SkolemArgs::Positional(ts)) => ts.iter().all(|t| covered(t, produced)),
    }
}

/// Compile a whole normal-form program into CPL queries under the given
/// planning mode.
pub fn compile_program_with(normal: &NormalProgram, mode: PlanMode<'_>) -> Result<Vec<Query>> {
    normal
        .clauses
        .iter()
        .map(|c| compile_clause(c, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpl::exec::{execute_query, ExecStats};
    use cpl::expr::EvalCtx;
    use wol_engine::{normalize, NormalizeOptions};
    use wol_model::{ClassName, Instance, Value};
    use workloads::cities::{generate_euro, CitiesWorkload};

    #[test]
    fn cities_program_compiles_and_runs_through_cpl() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let stats = Statistics::empty();
        let queries = compile_program_with(&normal, PlanMode::PlannerWithStats(&stats)).unwrap();
        assert_eq!(queries.len(), normal.len());

        let source = generate_euro(4, 3, 17);
        let refs = [&source];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut target = Instance::new("target");
        for query in &queries {
            execute_query(query, &mut ctx, &mut target, &mut stats).unwrap();
        }
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 4);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 12);
        assert!(stats.rows_scanned > 0);

        // The CPL path agrees with the engine's reference executor.
        let reference = wol_engine::execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(
            reference.extent_size(&ClassName::new("CityT")),
            target.extent_size(&ClassName::new("CityT"))
        );
        for (_, value) in target.objects(&ClassName::new("CountryT")) {
            assert!(value.project("capital").is_some());
        }
    }

    #[test]
    fn optimised_plans_use_hash_joins_for_the_cities_join() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let stats = Statistics::empty();
        let optimised = compile_program_with(&normal, PlanMode::PlannerWithStats(&stats)).unwrap();
        let unoptimised = compile_program_with(&normal, PlanMode::Raw).unwrap();
        let rendered_opt: String = optimised.iter().map(|q| q.plan.render()).collect();
        let rendered_raw: String = unoptimised.iter().map(|q| q.plan.render()).collect();
        assert!(rendered_opt.contains("HashJoin"));
        assert!(!rendered_raw.contains("HashJoin"));
    }

    #[test]
    fn planner_with_stats_eliminates_cross_products_on_the_genome_program() {
        use workloads::genome::{self, GenomeParams};
        let program = genome::program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let source = genome::generate_source(&GenomeParams {
            clones: 10,
            markers: 30,
            density: 0.6,
            seed: 22,
        });
        let refs = [&source];
        let stats = cpl::Statistics::from_instances(&refs);
        let queries = compile_program_with(&normal, PlanMode::PlannerWithStats(&stats)).unwrap();
        let rendered: String = queries.iter().map(|q| q.plan.render()).collect();
        // Every join is recovered as a (possibly composite) hash join: no
        // products survive anywhere in the compiled program.
        assert!(rendered.contains("HashJoin"));
        assert!(!rendered.contains("CrossJoin"));
        assert!(!rendered.contains("NestedLoopJoin"));

        // And the planned program produces the same target as the engine's
        // reference executor.
        let mut ctx = EvalCtx::new(&refs);
        let mut exec_stats = ExecStats::default();
        let mut target = Instance::new("chr22");
        for query in &queries {
            execute_query(query, &mut ctx, &mut target, &mut exec_stats).unwrap();
        }
        let reference = wol_engine::execute(&normal, &[&source][..], "chr22").unwrap();
        assert!(exec_stats.index_probes > 0);
        for class in ["CloneD", "MarkerD"] {
            assert_eq!(
                reference.extent_size(&ClassName::new(class)),
                target.extent_size(&ClassName::new(class)),
                "extent mismatch for {class}"
            );
        }
    }

    /// Genome's attribute clauses unfold `X in CloneD, X.name = C.name` (or
    /// the `MarkerD` form) into a second scan that only re-reads the name.
    /// Planned, G2–G6 scan their class once and G7 joins its marker with the
    /// clone it references once; the raw translation keeps every witness.
    #[test]
    fn planning_folds_genome_witness_scans_and_the_raw_translation_keeps_them() {
        use workloads::genome;
        let normal = normalize(&genome::program(), &NormalizeOptions::default()).unwrap();
        let stats = Statistics::empty();
        let planned = compile_program_with(&normal, PlanMode::PlannerWithStats(&stats)).unwrap();
        let raw = compile_program_with(&normal, PlanMode::Raw).unwrap();
        let scans = |q: &Query| q.plan.render().matches("Scan ").count();
        let joins = |q: &Query| q.plan.render().matches("Join").count();
        for (query, raw) in planned.iter().zip(&raw) {
            // A query is named after its clause: `G2 (#1)`.
            let (planned_scans, raw_scans) = match query.name.split(' ').next().unwrap() {
                "G1" | "G4" => (1, 1),
                "G2" | "G3" | "G5" | "G6" => (1, 2),
                "G7" => (2, 3),
                other => panic!("unexpected query {other}"),
            };
            assert_eq!(scans(query), planned_scans, "{}", query.plan.render());
            assert_eq!(joins(query), planned_scans - 1, "{}", query.plan.render());
            assert_eq!(scans(raw), raw_scans, "{}", raw.plan.render());
        }
    }

    #[test]
    fn translate_key_styles() {
        let single = SkolemArgs::Positional(vec![Term::var("N")]);
        assert_eq!(translate_key(&single), Expr::Var("N".to_string()));
        let multi = SkolemArgs::Positional(vec![Term::var("A"), Term::var("B")]);
        assert!(matches!(translate_key(&multi), Expr::Record(fields) if fields.len() == 2));
        let named = SkolemArgs::Named(vec![("name".into(), Term::var("N"))]);
        assert!(matches!(translate_key(&named), Expr::Record(fields) if fields[0].0 == "name"));
    }

    #[test]
    fn translate_term_shapes() {
        let term = Term::variant("euro_city", Term::skolem("CountryT", [Term::var("N")]));
        let expr = translate_term(&term);
        match expr {
            Expr::Variant(label, payload) => {
                assert_eq!(label, "euro_city");
                assert!(matches!(*payload, Expr::Skolem(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            translate_term(&Term::Const(Value::int(3))),
            Expr::Const(Value::int(3))
        );
    }

    #[test]
    fn unsupported_member_atom_reported() {
        use std::collections::BTreeMap;
        let clause = NormalClause {
            class: ClassName::new("Tgt"),
            key: SkolemArgs::Positional(vec![Term::var("N")]),
            attrs: BTreeMap::new(),
            body: vec![
                Atom::InSet(Term::var("X"), Term::var("S")),
                Atom::Member(Term::var("S"), ClassName::new("Src")),
            ],
            creates: true,
            provenance: vec!["t".to_string()],
        };
        let err = compile_clause(&clause, PlanMode::Raw).unwrap_err();
        assert!(matches!(err, MorphaseError::Compilation(_)));
    }
}
