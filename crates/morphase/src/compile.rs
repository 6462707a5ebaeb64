//! Translation of normal-form WOL clauses into CPL queries (Figure 6's
//! "Translator to CPL").
//!
//! Each [`NormalClause`] becomes one [`cpl::Query`]. The translator hands
//! the CPL join-graph planner the clause's [`PlanParts`]: its class
//! membership atoms as scans, its defining equations (those that define a
//! fresh variable) as bindings and its other atoms as conjuncts, each in
//! dependency order. The clause's key and attribute terms become the
//! query's insert action. The planner ([`PlanParts::plan`]) orders the joins
//! by estimated cardinality and selectivity — the role the paper assigns to
//! the Kleisli optimiser — and places each binding: over the filtered scan
//! it projects one attribute off, in that scan's columnar tower, or in one
//! `Map` at the root. [`PlanMode::Raw`] writes the same parts out unplanned
//! ([`PlanParts::raw`]: a product of the scans under a `Map` or `Filter` per
//! binding or conjunct), the baseline the regression tests measure against.
//! What a federated run pushes into its scan providers is read off the
//! finished plans ([`cpl::pushable_predicates`]), and every pushed conjunct
//! stays in its plan as a residual re-check.
//!
//! Two scans of one source class merge under either of two sufficient
//! conditions ([`wol_engine::optimize`]). A source key merges them while
//! normalising (the paper's §4.2), so the normal form already reflects it.
//! Coverage merges them when a clause is planned: a *witness* scan, whose
//! every use is a projection equated with another scan's of its class, adds
//! nothing to the target under set semantics, and [`fold_witnesses`] drops
//! it before the parts are written. [`PlanMode::Raw`] keeps every witness
//! scan, and `cpl`'s planner is held to the row multisets of the raw plan
//! of the folded clause.

use std::collections::BTreeSet;

use cpl::InsertAction;
use cpl::{Expr, Plan, PlanParts, Query, Statistics};
use wol_engine::fold_witnesses;
use wol_engine::normalize::{NormalClause, NormalProgram};
use wol_lang::ast::{Atom, SkolemArgs, Term, Var};
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
pub(crate) fn translate_term(term: &Term) -> Expr {
    match term {
        Term::Var(v) => Expr::Var(*v),
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
pub(crate) fn translate_key(args: &SkolemArgs) -> Expr {
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

/// The translator's refusal of `atoms` in `clause`, naming the clauses the
/// normal clause derives from and each atom as its normal form spells it.
fn refused<'a>(
    clause: &NormalClause,
    why: &str,
    atoms: impl IntoIterator<Item = &'a Atom>,
) -> MorphaseError {
    let atoms: Vec<String> = atoms.into_iter().map(wol_lang::render_atom).collect();
    MorphaseError::Compilation(format!(
        "clause {}: {why}: `{}`",
        clause.provenance.join("+"),
        atoms.join("`, `")
    ))
}

fn translate_atom_predicate(clause: &NormalClause, atom: &Atom) -> Result<Expr> {
    Ok(match atom {
        Atom::Eq(s, t) => Expr::Eq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Neq(s, t) => Expr::Neq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Lt(s, t) => Expr::Lt(Box::new(translate_term(s)), Box::new(translate_term(t))),
        Atom::Leq(s, t) => Expr::Leq(Box::new(translate_term(s)), Box::new(translate_term(t))),
        // A `member` atom: every membership atom is a scan, or refused,
        // before any filter is placed.
        _ => {
            let why = "`member` atoms are not supported by the CPL translator";
            return Err(refused(clause, why, [atom]));
        }
    })
}

/// Compile one normal clause into a CPL query.
pub(crate) fn compile_clause(clause: &NormalClause, mode: PlanMode<'_>) -> Result<Query> {
    match mode {
        PlanMode::Raw => translate_clause(clause, PlanParts::raw),
        PlanMode::PlannerWithStats(stats) => {
            let folded = fold_witnesses(clause);
            translate_clause(folded.as_ref().unwrap_or(clause), |parts| parts.plan(stats))
        }
    }
}

/// Translate one normal clause into the planner's parts, and those into its
/// query's plan with `plan`.
fn translate_clause(clause: &NormalClause, plan: impl FnOnce(PlanParts) -> Plan) -> Result<Query> {
    // 1. Scans for every membership atom.
    let mut parts: Option<PlanParts> = None;
    let mut produced: BTreeSet<Var> = BTreeSet::new();
    let mut remaining: Vec<&Atom> = Vec::new();
    for atom in &clause.body {
        match atom {
            Atom::Member(Term::Var(v), class) => {
                produced.insert(*v);
                match &mut parts {
                    None => parts = Some(PlanParts::new(class.clone(), *v)),
                    Some(parts) => parts.scan(class.clone(), *v),
                }
            }
            Atom::Member(_, class) => {
                let why =
                    format!("membership of a non-variable term in `{class}` is not supported");
                return Err(refused(clause, &why, [atom]));
            }
            other => remaining.push(other),
        }
    }
    let Some(mut parts) = parts else {
        let why = "the body has no source membership atom to scan";
        return Err(refused(clause, why, &clause.body));
    };

    // 2. Remaining atoms: definitions (defining equations) or conjuncts, in
    //    dependency order. Variables are checked by reference, building no
    //    set per atom or pass.
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut deferred: Vec<&Atom> = Vec::new();
        for atom in remaining.drain(..) {
            // A defining equation `V = t` (or `t = V`) with V fresh and t computable.
            let defining = match atom {
                Atom::Eq(Term::Var(v), t) | Atom::Eq(t, Term::Var(v))
                    if !produced.contains(v) && covered(t, &produced) =>
                {
                    Some((*v, t))
                }
                _ => None,
            };
            if let Some((var, term)) = defining {
                parts.bind(var, translate_term(term));
                produced.insert(var);
                progressed = true;
                continue;
            }
            // A conjunct whose variables are all available.
            if atom_terms(atom).all(|t| covered(t, &produced)) {
                parts.filter(translate_atom_predicate(clause, atom)?);
                progressed = true;
                continue;
            }
            deferred.push(atom);
        }
        if !progressed && !deferred.is_empty() {
            let why = format!(
                "cannot order the body atoms of the clause for `{}`: {} atoms remain unplaced",
                clause.class,
                deferred.len()
            );
            return Err(refused(clause, &why, deferred));
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
        plan: plan(parts),
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
fn covered(term: &Term, produced: &BTreeSet<Var>) -> bool {
    match term {
        Term::Var(v) => produced.contains(v),
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

        // The CPL path agrees with the paper's reference semantics.
        let reference = wol_engine::naive_transform(&program, &[&source][..], "target").unwrap();
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

        // And the planned program produces the same target as the paper's
        // reference semantics.
        let mut ctx = EvalCtx::new(&refs);
        let mut exec_stats = ExecStats::default();
        let mut target = Instance::new("chr22");
        for query in &queries {
            execute_query(query, &mut ctx, &mut target, &mut exec_stats).unwrap();
        }
        let reference = wol_engine::naive_transform(&program, &[&source][..], "chr22").unwrap();
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
        assert_eq!(translate_key(&single), Expr::var("N"));
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

    /// Each refusal names the clause and renders the atom it rejects: a
    /// `member` atom over bound terms, a membership of a non-variable term,
    /// and an atom no variable order places.
    #[test]
    fn unsupported_member_atom_reported() {
        use std::collections::BTreeMap;
        let src = || ClassName::new("Src");
        let cases = [
            (
                Atom::InSet(Term::var("S").proj("a"), Term::var("S").proj("b")),
                "`member` atoms are not supported",
                "S.a member S.b",
            ),
            (
                Atom::Member(Term::var("S").proj("a"), src()),
                "membership of a non-variable term in `Src`",
                "S.a in Src",
            ),
            (
                Atom::InSet(Term::var("X"), Term::var("S")),
                "1 atoms remain unplaced",
                "X member S",
            ),
        ];
        for (atom, why, text) in cases {
            let clause = NormalClause {
                class: ClassName::new("Tgt"),
                key: SkolemArgs::Positional(vec![Term::var("S")]),
                attrs: BTreeMap::new(),
                body: vec![Atom::Member(Term::var("S"), src()), atom],
                creates: true,
                provenance: vec!["T7".to_string()],
            };
            let err = compile_clause(&clause, PlanMode::Raw).unwrap_err();
            let MorphaseError::Compilation(message) = err else {
                panic!("{text}: {err}");
            };
            assert!(message.starts_with("clause T7: "), "{message}");
            assert!(message.contains(why), "{message}");
            assert!(message.ends_with(&format!(": `{text}`")), "{message}");
        }
    }

    /// A clause whose body has no membership atom has nothing to scan: the
    /// refusal names the clause and renders the atoms it does have.
    #[test]
    fn a_clause_without_a_scan_is_refused_by_label() {
        let clause = NormalClause {
            class: ClassName::new("Tgt"),
            key: SkolemArgs::Positional(vec![Term::var("N")]),
            attrs: Default::default(),
            body: vec![Atom::Eq(Term::var("N"), Term::Const(Value::int(3)))],
            creates: true,
            provenance: vec!["T8".to_string(), "T9".to_string()],
        };
        for mode in [
            PlanMode::Raw,
            PlanMode::PlannerWithStats(&Statistics::empty()),
        ] {
            let err = compile_clause(&clause, mode).unwrap_err();
            assert_eq!(
                err.to_string(),
                MorphaseError::Compilation(
                    "clause T8+T9: the body has no source membership atom to scan: `N = 3`"
                        .to_string()
                )
                .to_string()
            );
        }
    }
}
