//! The federated pipeline path: backend scan providers as planner-visible
//! sources, with filter/projection pushdown and streaming ingest.
//!
//! A plain [`crate::Morphase::transform`] needs its sources fully
//! materialized before planning. [`transform_federated`] instead plans
//! *first*, against the per-class cardinality and distinct-value statistics
//! each [`storage::ScanProvider`] reports, then streams only the rows the
//! plan actually needs:
//!
//! 1. **Compile** with provider statistics
//!    ([`cpl::ExternalClassStats`]) — no rows have moved yet.
//! 2. **Split** each scan's single-variable conjunct pool into predicates
//!    the owning provider can evaluate at the source
//!    ([`cpl::PushdownCatalog`]) and residual ones, and compute a per-class
//!    projection from every attribute the compiled queries reference.
//! 3. **Ingest** each provider class chunk-at-a-time
//!    ([`storage::ingest_class`]), building attribute indexes and
//!    histograms alongside the stream.
//! 4. **Execute** the compiled queries against the ingested instance, via
//!    the same stage-5/6 driver as a plain run.
//!
//! ## Eligibility and bit-identity
//!
//! A class's predicates may be pushed only when **every scan of the class
//! across the whole compiled program reports the identical predicate set**
//! — the ingested extent is shared by every query, so a filter serving one
//! scan must not starve another. (Normalisation unfolds clause bodies into
//! their dependents, so a scan guard usually reappears verbatim at every
//! scan of its class, keeping the class eligible even when scanned many
//! times.)
//!
//! Both modes execute the **same plans**: a pushed conjunct stays in its
//! plan as a residual re-check that admits every row the provider already
//! filtered (see [`cpl::optimize_with_pushdown`]). With pushdown off
//! ([`crate::PipelineOptions::pushdown`] false) ingest
//! streams unfiltered and the very same filter does the trimming at run
//! time instead; because [`storage::PushedFilter::matches`] mirrors the
//! executor's comparison semantics, the surviving rows, their order, the
//! Skolem numbering, and hence the produced **target are bit-identical in
//! both modes** — only scan-volume counters (and ingest work) differ.
//! Projection is applied in *both* modes (it never changes the row set,
//! only trims unreferenced attributes), and is disabled wholesale for a
//! class whose objects are used whole by any expression.
//!
//! Source-constraint checking (`check_source_constraints`) disables
//! pushdown and projection entirely: constraints quantify over the full
//! unprojected extents, so they are checked against a complete ingest.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cpl::{Expr, Plan};
use storage::provider::{Pushdown, PushedFilter, ScanProvider, DEFAULT_CHUNK_ROWS};
use wol_lang::program::Program;
use wol_model::{ClassName, Instance};

use crate::pipeline::{compile_stages_ext, execute_pipeline, MorphaseRun, PipelineOptions};
use crate::{MorphaseError, Result};

/// Run the federated pipeline: compile against provider statistics, push
/// eligible filters/projections, stream-ingest, execute. See the module docs
/// for the contract; see [`crate::Morphase::transform_federated`] for the
/// public entry point.
pub(crate) fn transform_federated(
    options: PipelineOptions,
    program: &Program,
    providers: &[&dyn ScanProvider],
) -> Result<MorphaseRun> {
    // Which provider serves which class, plus the planner-facing statistics.
    let mut owner: BTreeMap<ClassName, usize> = BTreeMap::new();
    let mut external: Vec<cpl::ExternalClassStats> = Vec::new();
    for (index, provider) in providers.iter().enumerate() {
        for class in provider.classes() {
            if let Some(&other) = owner.get(&class) {
                return Err(MorphaseError::Compilation(format!(
                    "class `{class}` is served by both provider `{}` and provider `{}`",
                    providers[other].name(),
                    provider.name()
                )));
            }
            let stats = provider.stats(&class).ok_or_else(|| {
                MorphaseError::Compilation(format!(
                    "provider `{}` lists class `{class}` but reports no statistics for it",
                    provider.name()
                ))
            })?;
            owner.insert(class.clone(), index);
            external.push(cpl::ExternalClassStats {
                class: stats.class,
                rows: stats.rows,
                ndvs: stats.ndvs,
            });
        }
    }

    // Compile once, with every provider attribute in the catalog when
    // pushdown is on. The catalog does not change the produced plans — a
    // pushable conjunct stays in its plan as a residual re-check (see
    // `cpl::optimize_with_pushdown`) — it only *reports* which predicates
    // each scan could evaluate at the source, so these are exactly the plans
    // a pushdown-off run executes too.
    let pushdown_on =
        options.pushdown && options.optimize_plans && !options.check_source_constraints;
    let catalog = if pushdown_on {
        let mut catalog = cpl::PushdownCatalog::default();
        for stats in &external {
            for attr in stats.ndvs.keys() {
                catalog.allow(&stats.class, attr);
            }
        }
        Some(catalog)
    } else {
        None
    };
    let (compiled, pushed) =
        compile_stages_ext(options, program, &[], &external, catalog.as_ref())?;

    let mut scan_counts: BTreeMap<ClassName, usize> = BTreeMap::new();
    for query in &compiled.queries {
        count_scans(&query.plan, &mut scan_counts);
    }
    let projections = class_projections(&compiled.queries, &owner);

    // Restrict the reported predicates to the eligible classes (the module
    // docs' starvation condition: every scan of the class reported the same
    // set), then deduplicate — any one scan's predicates stand for the
    // class as a whole.
    let eligible = eligible_classes(&pushed, &scan_counts);
    let mut filters: BTreeMap<ClassName, Vec<PushedFilter>> = BTreeMap::new();
    for predicate in pushed.into_iter().flatten() {
        if !eligible.contains(&predicate.class) {
            continue;
        }
        let entry = filters.entry(predicate.class.clone()).or_default();
        let filter = PushedFilter {
            attr: predicate.attr,
            op: predicate.cmp,
            value: predicate.value,
        };
        if !entry.contains(&filter) {
            entry.push(filter);
        }
    }
    let pushed_filters: usize = filters.values().map(Vec::len).sum();

    // Ingest every provider class (in class order — deterministic), with its
    // pushed filters and projection.
    let start = Instant::now();
    let schema_name = program
        .sources
        .first()
        .map(|binding| binding.schema.name().to_string())
        .unwrap_or_else(|| "federated".to_string());
    let mut instance = Instance::new(schema_name);
    let mut rows_in = 0usize;
    let mut rows_out = 0usize;
    let use_projection = !options.check_source_constraints;
    for (class, &index) in &owner {
        let class_filters = filters.remove(class).unwrap_or_default();
        let pushdown = Pushdown {
            filters: class_filters,
            projection: if use_projection {
                projections.get(class).cloned().flatten()
            } else {
                None
            },
        };
        let stats = storage::ingest_class(
            &mut instance,
            providers[index],
            class,
            &pushdown,
            DEFAULT_CHUNK_ROWS,
        )
        .map_err(|e| MorphaseError::Execution(e.to_string()))?;
        rows_in += stats.rows_in;
        rows_out += stats.rows_out;
    }
    let ingest = start.elapsed();

    // Stage 1b ran against no instances at compile time; check the source
    // constraints against the (complete, unprojected) ingest instead.
    if options.check_source_constraints {
        let constraints: Vec<&wol_lang::Clause> = compiled
            .augmented
            .source_constraints()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let refs: Vec<&Instance> = vec![&instance];
        let dbs = wol_engine::Databases::new(&refs);
        wol_engine::enforce_constraints(&constraints, &dbs)
            .map_err(|e| MorphaseError::Verification(e.to_string()))?;
    }

    let mut run = execute_pipeline(options, compiled, &[&instance], true, None)?;
    run.timings.ingest = ingest;
    run.exec.pushed_filters = pushed_filters;
    run.exec.provider_rows_in = rows_in;
    run.exec.provider_rows_out = rows_out;
    Ok(run)
}

/// The classes whose every scan reported an identical pushable predicate
/// set. A scan is identified by `(query index, scan variable)` — variables
/// are unique within one compiled query but reused across queries. A class
/// scanned more times than it has reporting scans has a scan whose conjunct
/// pool lacked the predicates; filtering the shared extent would starve it,
/// so the class is ineligible.
fn eligible_classes(
    pushed: &[Vec<cpl::PushedPredicate>],
    scan_counts: &BTreeMap<ClassName, usize>,
) -> BTreeSet<ClassName> {
    type PredKey = (String, String, wol_model::Value);
    let mut per_scan: BTreeMap<ClassName, BTreeMap<(usize, String), BTreeSet<PredKey>>> =
        BTreeMap::new();
    for (query, predicates) in pushed.iter().enumerate() {
        for p in predicates {
            per_scan
                .entry(p.class.clone())
                .or_default()
                .entry((query, p.var.clone()))
                .or_default()
                .insert((p.attr.clone(), format!("{:?}", p.cmp), p.value.clone()));
        }
    }
    per_scan
        .into_iter()
        .filter(|(class, scans)| {
            scan_counts.get(class) == Some(&scans.len())
                && scans.values().collect::<BTreeSet<_>>().len() == 1
        })
        .map(|(class, _)| class)
        .collect()
}

/// Count `Scan` operators per class across a plan.
fn count_scans(plan: &Plan, counts: &mut BTreeMap<ClassName, usize>) {
    match plan {
        Plan::Scan { class, .. } => *counts.entry(class.clone()).or_default() += 1,
        Plan::Filter { input, .. } | Plan::Map { input, .. } | Plan::Distinct { input } => {
            count_scans(input, counts)
        }
        Plan::NestedLoopJoin { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::CrossJoin { left, right } => {
            count_scans(left, counts);
            count_scans(right, counts);
        }
    }
}

/// The per-class projection the ingest may apply: `Some(attrs)` when every
/// use of the class's objects is an attribute projection, `None` (keep
/// everything) when any expression uses an object whole — as a record value,
/// a Skolem key, an equality operand — or when the class is never scanned.
/// Computed over the pass-A plans, whose filters still reference the
/// pushable attributes, so the result is identical in both pushdown modes.
fn class_projections(
    queries: &[cpl::Query],
    owner: &BTreeMap<ClassName, usize>,
) -> BTreeMap<ClassName, Option<BTreeSet<String>>> {
    let mut needed: BTreeMap<ClassName, BTreeSet<String>> = BTreeMap::new();
    let mut whole: BTreeSet<ClassName> = BTreeSet::new();
    for query in queries {
        let mut var_class: BTreeMap<String, ClassName> = BTreeMap::new();
        collect_scan_vars(&query.plan, &mut var_class);
        let mut record = |expr: &Expr| {
            record_expr_attrs(expr, &var_class, &mut needed, &mut whole);
        };
        for expr in query.plan.expressions() {
            record(expr);
        }
        for insert in &query.inserts {
            record(&insert.key);
            for (_, expr) in &insert.attrs {
                record(expr);
            }
        }
    }
    owner
        .keys()
        .map(|class| {
            let projection = match needed.get(class) {
                Some(attrs) if !whole.contains(class) => Some(attrs.clone()),
                _ => None,
            };
            (class.clone(), projection)
        })
        .collect()
}

/// Map each scan variable to its class.
fn collect_scan_vars(plan: &Plan, out: &mut BTreeMap<String, ClassName>) {
    match plan {
        Plan::Scan { class, var } => {
            out.insert(var.clone(), class.clone());
        }
        Plan::Filter { input, .. } | Plan::Map { input, .. } | Plan::Distinct { input } => {
            collect_scan_vars(input, out)
        }
        Plan::NestedLoopJoin { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::CrossJoin { left, right } => {
            collect_scan_vars(left, out);
            collect_scan_vars(right, out);
        }
    }
}

/// Walk an expression recording, per scanned class, the attributes projected
/// off its row variables; a variable used in any non-projection position
/// marks its class as needing whole objects.
fn record_expr_attrs(
    expr: &Expr,
    var_class: &BTreeMap<String, ClassName>,
    needed: &mut BTreeMap<ClassName, BTreeSet<String>>,
    whole: &mut BTreeSet<ClassName>,
) {
    match expr {
        Expr::Proj(base, attr) => {
            if let Expr::Var(var) = base.as_ref() {
                if let Some(class) = var_class.get(var) {
                    needed
                        .entry(class.clone())
                        .or_default()
                        .insert(attr.clone());
                    return;
                }
            }
            record_expr_attrs(base, var_class, needed, whole);
        }
        Expr::Var(var) => {
            if let Some(class) = var_class.get(var) {
                whole.insert(class.clone());
            }
        }
        Expr::Const(_) => {}
        Expr::Record(fields) => {
            for (_, e) in fields {
                record_expr_attrs(e, var_class, needed, whole);
            }
        }
        Expr::Variant(_, payload) | Expr::Skolem(_, payload) | Expr::Not(payload) => {
            record_expr_attrs(payload, var_class, needed, whole);
        }
        Expr::Eq(a, b) | Expr::Neq(a, b) | Expr::Lt(a, b) | Expr::Leq(a, b) => {
            record_expr_attrs(a, var_class, needed, whole);
            record_expr_attrs(b, var_class, needed, whole);
        }
        Expr::And(exprs) => {
            for e in exprs {
                record_expr_attrs(e, var_class, needed, whole);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Morphase;
    use workloads::federated as fed;

    fn run(pushdown: bool, check_source: bool) -> MorphaseRun {
        let params = fed::FederatedParams {
            clones: 12,
            markers: 40,
            assays: 400,
            seed: 5,
        };
        let (csv, ace, rel) = fed::providers(&params);
        let options = PipelineOptions {
            pushdown,
            check_source_constraints: check_source,
            ..PipelineOptions::default()
        };
        Morphase::with_options(options)
            .transform_federated(&fed::program(), &[&csv, &ace, &rel])
            .unwrap()
    }

    #[test]
    fn federated_run_pushes_all_three_filters() {
        let run = run(true, false);
        assert_eq!(run.exec.pushed_filters, 3);
        assert!(
            run.exec.provider_rows_out < run.exec.provider_rows_in,
            "filters trim the stream ({} -> {})",
            run.exec.provider_rows_in,
            run.exec.provider_rows_out
        );
        for class in ["CloneW", "MarkerW", "AssayW"] {
            assert!(
                run.target.extent_size(&ClassName::new(class)) > 0,
                "`{class}` is populated"
            );
        }
    }

    #[test]
    fn pushdown_off_is_bit_identical() {
        let on = run(true, false);
        let off = run(false, false);
        assert_eq!(off.exec.pushed_filters, 0);
        assert_eq!(off.exec.provider_rows_in, off.exec.provider_rows_out);
        assert_eq!(on.exec.rows_output, off.exec.rows_output);
        assert_eq!(on.exec.objects_written, off.exec.objects_written);
        assert_eq!(on.target.deep_eq_report(&off.target), None);
    }

    #[test]
    fn source_constraint_checking_forces_full_ingest() {
        let run = run(true, true);
        assert_eq!(run.exec.pushed_filters, 0);
        assert_eq!(run.exec.provider_rows_in, run.exec.provider_rows_out);
    }

    #[test]
    fn duplicate_class_ownership_is_rejected() {
        let params = fed::FederatedParams {
            clones: 4,
            markers: 8,
            assays: 20,
            seed: 1,
        };
        let rel_a = storage::RelationalProvider::new(fed::generate_clone_tables(&params));
        let rel_b = storage::RelationalProvider::new(fed::generate_clone_tables(&params));
        let err = Morphase::new()
            .transform_federated(&fed::program(), &[&rel_a, &rel_b])
            .unwrap_err();
        assert!(matches!(err, MorphaseError::Compilation(_)));
        assert!(err.to_string().contains("CloneR"));
    }
}
