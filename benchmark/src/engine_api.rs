//! The **frozen surface**: every engine item `wolbench` touches is named in
//! this file and nowhere else. The rest of the harness reaches the engine only
//! through `crate::engine_api`, so an issue that renames, merges or removes
//! one of these entry points can see from one file that it needs a
//! `benchmark` issue first.
//!
//! The file has two parts: the re-exports (the surface itself) and
//! [`staged_transform`], which replays `Morphase::transform` through the same
//! public functions the pipeline composes so each stage can be timed from
//! outside.

use std::time::Instant;

use crate::trace::Tracer;

// --- wol-lang: program text to clauses ------------------------------------
pub use wol_lang::program::Program;
pub use wol_lang::Clause;

// --- wol-model: instances, caches, mutation batches ------------------------
pub use wol_model::validate::check_keyed_instance;
pub use wol_model::{
    ClassName, Instance, Job, MutationBatch, SkolemState, Type, Value, WorkerPool,
};

// --- wol-engine: snf, normalisation, constraints, the naive oracle ---------
pub use wol_engine::normalize::NormalizeOptions;
pub use wol_engine::snf::snf_stats;
pub use wol_engine::{
    check_batch, classify_constraint, enforce_constraints, normalize, program_to_snf, recheck,
    ConstraintClass, Databases,
};
// The naive multi-pass semantics: the oracle `cargo test` holds the load programs to.
#[cfg(test)]
pub use wol_engine::{instances_equivalent, naive_transform};

// --- cpl: statistics, planner estimates, executor ---------------------------
pub use cpl::exec::JoinActual;
pub use cpl::expr::EvalCtx;
pub use cpl::{
    apply_evaluated_query, estimate_join_outputs, estimate_rows, evaluate_query, execute_query,
    ColumnarStats, EvaluatedQuery, ExecStats, ExternalClassStats, JoinEstimate, Statistics,
};

// --- morphase: the pipeline, its stages, the standing service ---------------
pub use morphase::metadata::{generate_key_clauses, generate_merge_key_clauses};
pub use morphase::{
    compile_program_with, plan_schedule, BatchConstraintMode, BatchOutcome, DurableOptions,
    JoinStat, MaterializedPipeline, Morphase, MorphaseRun, PipelineOptions, PipelineService,
    PlanMode,
};

// --- storage: providers, ingest, snapshots, the journal ---------------------
pub use storage::persist::snapshot::{encode_snapshot, load_snapshot_file, save_snapshot_file};
pub use storage::provider::{
    ingest_class, PushOp, Pushdown, PushedFilter, ScanProvider, DEFAULT_CHUNK_ROWS,
};
pub use storage::{AceProvider, AceValue, CsvDirProvider, PipelineJournal, RelationalProvider};

// --- workloads: programs and seeded generators ------------------------------
pub use workloads::constrained::{self, ConstrainedGen, ConstrainedParams};
pub use workloads::federated::{self, FederatedParams};
pub use workloads::genome::{self, GenomeParams};
pub use workloads::skewed::{self, SkewedParams};
pub use workloads::traffic::{TrafficGen, TrafficWeights};
pub use workloads::{variants, wide};

/// Span names of the staged replay, one per pipeline stage. Also the keys the
/// per-layer `*_ms` metrics are read back under.
pub mod stage {
    pub const PARSE: &str = "wol-lang.parse";
    pub const METADATA: &str = "morphase.metadata";
    pub const VALIDATE: &str = "wol-lang.validate";
    pub const SNF: &str = "wol-engine.snf";
    pub const NORMALIZE: &str = "wol-engine.normalize";
    pub const STATS: &str = "cpl.optimizer.stats";
    pub const COMPILE: &str = "morphase.compile";
    pub const EXECUTE: &str = "cpl.exec.execute";
    pub const MODEL_VALIDATE: &str = "wol-model.validate";
    pub const VERIFY: &str = "wol-engine.constraints.verify";
    pub const INGEST: &str = "storage.provider.ingest";
    pub const GLUE: &str = "morphase.federate.glue";
    pub const TEARDOWN: &str = "morphase.teardown";
}

/// What a staged replay produced and counted.
pub struct StagedRun {
    pub target: Instance,
    /// Clauses of the augmented program (after meta-data generation).
    pub clauses: usize,
    pub snf_atoms: usize,
    pub normal_clauses: usize,
    pub normal_size: usize,
    pub exec: ExecStats,
    pub columnar: ColumnarStats,
    /// Largest `JoinStat::error_ratio` over the executed joins (1.0 = exact;
    /// 0 when the program has no join).
    pub est_error_max: f64,
}

/// `Morphase::transform` under `PipelineOptions::default()`, stage by stage,
/// with a span around each stage. It composes the same public functions in the
/// same order as `morphase::pipeline` (stages 0–6, including the overlapped
/// evaluation of multi-query schedule stages on the shared worker pool), so
/// its target is bit-identical to the direct call's and its wall time tracks
/// it — `trace.replay_vs_direct` reports how closely.
///
/// `plan_sources` and `external` feed the planner's statistics; `exec_sources`
/// is what the queries run against. A plain transform passes the same
/// instances for both and no external statistics; the federated replay plans
/// against provider statistics alone and executes against the ingested
/// instance, as `transform_federated` does. With `execute` false this is
/// `Morphase::compile`.
pub fn staged_transform(
    program: &Program,
    plan_sources: &[&Instance],
    external: &[ExternalClassStats],
    exec_sources: &[&Instance],
    execute: bool,
    tr: &mut Tracer,
) -> Result<StagedRun, String> {
    let options = PipelineOptions::default();
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{stage}: {e}");

    let open = tr.begin(stage::METADATA);
    let mut augmented = program.clone();
    for clause in generate_key_clauses(&augmented.target.schema, &augmented.target.keys) {
        augmented.add_clause(clause);
    }
    let bindings: Vec<_> = augmented
        .sources
        .iter()
        .map(|b| (b.schema.clone(), b.keys.clone()))
        .collect();
    for (schema, keys) in bindings {
        for clause in generate_merge_key_clauses(&schema, &keys) {
            augmented.add_clause(clause);
        }
    }
    tr.end(open);

    let open = tr.begin(stage::VALIDATE);
    augmented
        .validate()
        .map_err(|e| fail(stage::VALIDATE, &e))?;
    tr.end(open);

    let open = tr.begin(stage::SNF);
    let snf_clauses = program_to_snf(&augmented.clauses);
    let snf = snf_stats(&augmented.clauses, &snf_clauses);
    tr.end(open);

    let open = tr.begin(stage::NORMALIZE);
    let normalize_options = NormalizeOptions {
        use_target_keys: options.use_target_keys,
        use_source_constraints: options.use_source_constraints,
        ..NormalizeOptions::default()
    };
    let normal =
        normalize(&augmented, &normalize_options).map_err(|e| fail(stage::NORMALIZE, &e))?;
    tr.end(open);

    let open = tr.begin(stage::STATS);
    let stats = Statistics::from_instances(plan_sources)
        .with_external(external.to_vec())
        .with_cost_model(options.cost_model);
    tr.end(open);

    let open = tr.begin(stage::COMPILE);
    let queries = compile_program_with(&normal, PlanMode::PlannerWithStats(&stats))
        .map_err(|e| fail(stage::COMPILE, &e))?;
    // The pipeline renders plans and takes the planner's row and per-join
    // estimates inside its compile stage; so does the replay.
    let plans: Vec<String> = queries.iter().map(|q| q.plan.render()).collect();
    let estimated: Vec<u64> = queries
        .iter()
        .map(|q| estimate_rows(&q.plan, &stats).round() as u64)
        .collect();
    let join_estimates: Vec<Vec<JoinEstimate>> = queries
        .iter()
        .map(|q| estimate_join_outputs(&q.plan, &stats))
        .collect();
    std::hint::black_box((&plans, &estimated));
    tr.end(open);

    let mut exec = ExecStats::default();
    let mut columnar = ColumnarStats::default();
    let mut est_error_max = 0.0f64;
    let mut target = Instance::new(augmented.target.schema.name());
    if execute {
        let open = tr.begin(stage::EXECUTE);
        let mut record_joins = |qi: usize, actuals: &[JoinActual]| {
            for (est, act) in join_estimates[qi].iter().zip(actuals) {
                let stat = JoinStat {
                    query: String::new(),
                    kind: String::new(),
                    estimated: est.rows.round() as u64,
                    actual: act.rows as u64,
                };
                est_error_max = est_error_max.max(stat.error_ratio());
            }
        };
        let mut ctx = EvalCtx::new(exec_sources).with_parallelism(options.parallelism);
        ctx.enable_join_trace();
        let schedule = plan_schedule(&queries);
        let pool = WorkerPool::shared(options.parallelism);
        let overlap = options.parallelism.threads() > 1;
        for stage in &schedule.stages {
            if overlap && stage.len() > 1 {
                type Evaluated = (
                    cpl::Result<EvaluatedQuery>,
                    ExecStats,
                    Vec<ExecStats>,
                    ColumnarStats,
                    Vec<JoinActual>,
                    std::time::Duration,
                );
                let jobs: Vec<Job<'_, Evaluated>> = stage
                    .iter()
                    .map(|&qi| {
                        let query = &queries[qi];
                        Box::new(move || {
                            let eval_start = Instant::now();
                            let mut wctx = EvalCtx::claim_worker(exec_sources)
                                .with_parallelism(options.parallelism);
                            wctx.enable_join_trace();
                            let mut wstats = ExecStats::default();
                            let result = evaluate_query(query, &mut wctx, &mut wstats);
                            (
                                result,
                                wstats,
                                wctx.take_shard_stats(),
                                wctx.take_columnar_stats(),
                                wctx.take_join_trace(),
                                eval_start.elapsed(),
                            )
                        }) as Job<'_, Evaluated>
                    })
                    .collect();
                let outcomes = pool.scope(jobs);
                for (&qi, (result, wstats, shards, wcolumnar, actuals, _eval)) in
                    stage.iter().zip(outcomes)
                {
                    exec.absorb(wstats);
                    ctx.absorb_shard_stats(&shards);
                    columnar.absorb(&wcolumnar);
                    let evaluated = result.map_err(|e| fail(stage::EXECUTE, &e))?;
                    apply_evaluated_query(
                        &queries[qi],
                        evaluated,
                        &mut ctx,
                        &mut target,
                        &mut exec,
                    )
                    .map_err(|e| fail(stage::EXECUTE, &e))?;
                    record_joins(qi, &actuals);
                }
            } else {
                for &qi in stage {
                    execute_query(&queries[qi], &mut ctx, &mut target, &mut exec)
                        .map_err(|e| fail(stage::EXECUTE, &e))?;
                    let actuals = ctx.take_join_trace();
                    record_joins(qi, &actuals);
                }
            }
        }
        std::hint::black_box(ctx.take_shard_stats());
        columnar.absorb(&ctx.take_columnar_stats());
        tr.end(open);

        let open = tr.begin(stage::MODEL_VALIDATE);
        check_keyed_instance(&target, &augmented.target.schema, &augmented.target.keys)
            .map_err(|e| fail(stage::MODEL_VALIDATE, &e))?;
        tr.end(open);

        let open = tr.begin(stage::VERIFY);
        let target_constraints: Vec<&Clause> = augmented
            .target_constraints()
            .into_iter()
            .map(|(_, c)| c)
            .filter(|c| !matches!(classify_constraint(c), ConstraintClass::SkolemKey(_)))
            .collect();
        let refs = [&target];
        let dbs = Databases::new(&refs);
        enforce_constraints(&target_constraints, &dbs).map_err(|e| fail(stage::VERIFY, &e))?;
        tr.end(open);
    }

    let run = StagedRun {
        target,
        clauses: augmented.clauses.len(),
        snf_atoms: snf.atoms_after,
        normal_clauses: normal.len(),
        normal_size: normal.size(),
        exec,
        columnar,
        est_error_max,
    };
    // Freeing the stage outputs is part of the call being replayed (a
    // 255-clause normal form is not free to drop); give it a span of its own
    // instead of leaving it between spans.
    let open = tr.begin(stage::TEARDOWN);
    drop((
        queries,
        plans,
        join_estimates,
        stats,
        normal,
        snf_clauses,
        augmented,
    ));
    tr.end(open);
    Ok(run)
}

/// Every `(class, attribute)` pair a program's source schemas declare — what
/// the cold-build probes touch.
pub fn source_attributes(program: &Program) -> Vec<(ClassName, String)> {
    let mut out = Vec::new();
    for binding in &program.sources {
        for (class, ty) in binding.schema.classes() {
            if let Type::Record(fields) = ty {
                out.extend(fields.iter().map(|(attr, _)| (class.clone(), attr.clone())));
            }
        }
    }
    out
}
