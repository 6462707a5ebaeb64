//! Source resolution for provider-backed runs: who serves which class, what
//! the planner may know before any row moves, and what each provider is asked
//! to filter and project while its rows are ingested.
//!
//! This module is *not* a pipeline driver. A federated run is the one pipeline
//! body ([`crate::pipeline`]) given scan providers as its row source; the body
//! calls in here twice:
//!
//! 1. `Federation::resolve` — before planning: build the class → provider
//!    ownership map and collect the per-class cardinality and distinct-value
//!    statistics each [`storage::ScanProvider`] reports
//!    ([`cpl::ExternalClassStats`]), so stage 4 plans against sources that
//!    have not been ingested yet.
//! 2. `Federation::ingest` — after planning: read the pushable predicates
//!    off the *finished* plans ([`cpl::pushable_predicates`]), keep those of
//!    eligible classes, compute a per-class projection from every attribute
//!    the normal clauses read ([`wol_engine::ReadSet`]), and stream each
//!    provider class chunk-at-a-time ([`storage::ingest_class`]) into one
//!    resident instance, building attribute indexes and histograms
//!    alongside the stream.
//!
//! Everything after that — source-constraint check, execution, verification —
//! is the body's, identical to a run over resident instances.
//!
//! ## Eligibility and bit-identity
//!
//! A class's predicates may be pushed only when **every scan of the class
//! across the whole compiled program carries the identical predicate set**
//! — the ingested extent is shared by every query, so a filter serving one
//! scan must not starve another. (Normalisation unfolds clause bodies into
//! their dependents, so a scan guard usually reappears verbatim at every
//! scan of its class, keeping the class eligible even when scanned many
//! times.)
//!
//! There is one way to plan, so both modes execute the **same plans**: a
//! pushed conjunct stays in its plan as a residual re-check that admits every
//! row the provider already filtered. With pushdown off
//! ([`crate::PipelineOptions::pushdown`] false) ingest
//! streams unfiltered and the very same filter does the trimming at run
//! time instead; because [`storage::PushedFilter::matches`] mirrors the
//! executor's comparison semantics, the surviving rows, their order, and
//! hence the produced **target are bit-identical in both modes** — only
//! scan-volume counters (and ingest work) differ.
//! Projection is applied in *both* modes (it never changes the row set,
//! only trims unreferenced attributes), and is disabled wholesale for a
//! class whose objects any clause uses whole. Raw
//! (`optimize_plans` off) plans are the unplanned baseline and push nothing.
//!
//! Source-constraint checking (`check_source_constraints`) disables
//! pushdown and projection entirely: constraints quantify over the full
//! unprojected extents, so they are checked against a complete ingest.

use std::collections::{BTreeMap, BTreeSet};

use cpl::exec::ExecStats;
use storage::provider::{Pushdown, PushedFilter, ScanProvider, DEFAULT_CHUNK_ROWS};
use wol_engine::{NormalProgram, ReadSet};
use wol_lang::program::Program;
use wol_model::{ClassName, Instance};

use crate::pipeline::PipelineOptions;
use crate::{MorphaseError, Result};

/// The resolved row source of a provider-backed run: which provider serves
/// which class, and the statistics the planner may consult before ingest.
pub(crate) struct Federation<'a> {
    providers: &'a [&'a dyn ScanProvider],
    /// Owning provider (index into `providers`) per served class.
    owner: BTreeMap<ClassName, usize>,
    /// Provider-reported statistics, one entry per served class.
    pub(crate) external: Vec<cpl::ExternalClassStats>,
}

impl<'a> Federation<'a> {
    /// Build the ownership map; a class served twice, or listed without
    /// statistics, is an error.
    pub(crate) fn resolve(providers: &'a [&'a dyn ScanProvider]) -> Result<Self> {
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
                external.push(stats);
            }
        }
        Ok(Federation {
            providers,
            owner,
            external,
        })
    }

    /// Stream every provider class (in class order — deterministic) into one
    /// resident instance, with the filters the planned `queries` let its
    /// provider evaluate and the projection the `normal` clauses they were
    /// compiled from allow. Returns the instance and the provider-side
    /// counters (`pushed_filters`, `provider_rows_in`, `provider_rows_out`;
    /// everything else zero).
    pub(crate) fn ingest(
        &self,
        options: PipelineOptions,
        program: &Program,
        normal: &NormalProgram,
        queries: &[cpl::Query],
    ) -> Result<(Instance, ExecStats)> {
        // Per class, the filter set of each of its scans across the whole
        // program (every provider attribute is in the catalog). A class is
        // eligible — the module docs' starvation condition — when all of its
        // scans carry the same non-empty set; any one scan's then stands for
        // the class as a whole.
        let mut filters: BTreeMap<ClassName, Vec<PushedFilter>> = BTreeMap::new();
        if options.pushdown && options.optimize_plans && !options.check_source_constraints {
            let mut catalog = cpl::PushdownCatalog::default();
            for stats in &self.external {
                for attr in stats.ndvs.keys() {
                    catalog.allow(&stats.class, attr);
                }
            }
            let mut per_scan: BTreeMap<&ClassName, Vec<Vec<PushedFilter>>> = BTreeMap::new();
            for query in queries {
                let pushed = cpl::pushable_predicates(&query.plan, &catalog);
                for (class, var) in query.plan.scans() {
                    let mut set: Vec<PushedFilter> = Vec::new();
                    for p in pushed.iter().filter(|p| p.var == var) {
                        let filter = PushedFilter {
                            attr: p.attr.clone(),
                            op: p.cmp,
                            value: p.value.clone(),
                        };
                        if !set.contains(&filter) {
                            set.push(filter);
                        }
                    }
                    per_scan.entry(class).or_default().push(set);
                }
            }
            for (class, mut sets) in per_scan {
                let first = sets.swap_remove(0);
                let same = |set: &Vec<PushedFilter>| {
                    set.len() == first.len() && set.iter().all(|f| first.contains(f))
                };
                if !first.is_empty() && sets.iter().all(same) {
                    filters.insert(class.clone(), first);
                }
            }
        }
        let mut stats = ExecStats {
            pushed_filters: filters.values().map(Vec::len).sum(),
            ..ExecStats::default()
        };

        let mut projections = if options.check_source_constraints {
            BTreeMap::new()
        } else {
            class_projections(normal)
        };
        let schema_name = program
            .sources
            .first()
            .map(|binding| binding.schema.name().to_string())
            .unwrap_or_else(|| "federated".to_string());
        let mut instance = Instance::new(schema_name);
        for (class, &index) in &self.owner {
            let pushdown = Pushdown {
                filters: filters.remove(class).unwrap_or_default(),
                projection: projections.remove(class).flatten(),
            };
            let ingested = storage::ingest_class(
                &mut instance,
                self.providers[index],
                class,
                &pushdown,
                DEFAULT_CHUNK_ROWS,
            )
            .map_err(|e| MorphaseError::Execution(e.to_string()))?;
            stats.provider_rows_in += ingested.rows_in;
            stats.provider_rows_out += ingested.rows_out;
        }
        Ok((instance, stats))
    }
}

/// The per-class projection the ingest may apply, read off each normal
/// clause's [`ReadSet`]: `Some(attrs)` for a class whose objects are only
/// ever projected, `None` (keep everything) for one any clause uses whole —
/// as a record value, a Skolem key, an equality operand. A class absent from
/// the map is never projected and is ingested whole too. The plans keep
/// every pushed conjunct as a residual filter, so the result is identical in
/// both pushdown modes.
pub(crate) fn class_projections(
    normal: &NormalProgram,
) -> BTreeMap<ClassName, Option<BTreeSet<String>>> {
    let mut projections: BTreeMap<ClassName, Option<BTreeSet<String>>> = BTreeMap::new();
    for read in normal.clauses.iter().map(ReadSet::of_normal) {
        for (class, attrs) in read.projected {
            let entry = projections.entry(class.clone());
            if let Some(needed) = entry.or_insert_with(|| Some(BTreeSet::new())) {
                needed.extend(attrs.into_iter().map(ToString::to_string));
            }
        }
        for class in read.whole {
            projections.insert(class.clone(), None);
        }
    }
    projections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Morphase, MorphaseRun};
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

    /// One verdict on every path: providers whose rows violate a source
    /// constraint are rejected with exactly the error a plain `transform`
    /// raises over the same rows fully ingested.
    #[test]
    fn violating_provider_rows_are_rejected_like_resident_ones() {
        let params = fed::FederatedParams {
            clones: 12,
            markers: 40,
            assays: 400,
            seed: 5,
        };
        let (csv, ace, rel) = fed::providers(&params);
        let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
        // Labs repeat across clones, so "a lab has one clone" is violated.
        let mut program = fed::program();
        program
            .add_text("SC: X = Y <= X in CloneR, Y in CloneR, X.lab = Y.lab;")
            .unwrap();
        let morphase = Morphase::with_options(PipelineOptions {
            check_source_constraints: true,
            ..PipelineOptions::default()
        });
        let federated = morphase
            .transform_federated(&program, &providers)
            .unwrap_err();
        assert!(matches!(federated, MorphaseError::Verification(_)));

        // The same rows, resident: every class ingested whole, in class order.
        let federation = Federation::resolve(&providers).unwrap();
        let mut resident = Instance::new("fedsrc");
        for (class, &index) in &federation.owner {
            storage::ingest_class(
                &mut resident,
                providers[index],
                class,
                &Pushdown::default(),
                DEFAULT_CHUNK_ROWS,
            )
            .unwrap();
        }
        let plain = morphase.transform(&program, &[&resident]).unwrap_err();
        assert_eq!(federated, plain);
        assert!(plain.to_string().contains("SC"), "{plain}");
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
