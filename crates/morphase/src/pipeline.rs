//! The Morphase pipeline (Figure 6): one body, two halves (diagram in the
//! crate docs).
//!
//! * The **front half** depends on the *program alone* — meta-data clauses,
//!   validation, normal form (stages 0, 1 and 3; normalisation works from
//!   the clauses themselves, so stage 2's semi-normal form is not built).
//!   Exactly one function builds it, `Front::build`;
//!   [`crate::MaterializedPipeline`] retains it.
//! * The **back half** depends on the *data* — planning against
//!   [`cpl::Statistics`] (stage 4), ingest, the source-constraint check,
//!   execution (5), verification (6). Exactly one function sequences it,
//!   `run_pipeline`, choosing its steps from what it is given: where the
//!   rows come from (`Rows`) and whether a journal is attached.
//!
//! Every entry point is a single call into that body, so program errors are
//! reported before data errors on every path.
//!
//! Target identities are functions of their Skolem keys, and writes settle
//! per object over the set of contributions, so the body needs no ordering
//! discipline to keep either stable: queries evaluate concurrently, minting
//! through worker factories of their own. A durable run's journal is keyed
//! by a fingerprint that names this numbering, so a journal whose target
//! was numbered in mint order (an older build's) is reset, never resumed
//! into a mixed numbering.

use std::borrow::Cow;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cpl::exec::{apply_evaluated_query, evaluate_query, ExecStats};
use cpl::expr::EvalCtx;
use storage::persist::{FaultPolicy, PipelineJournal};
use storage::ScanProvider;
use wol_engine::normalize::{NormalProgram, NormalizeOptions};
use wol_lang::program::Program;
use wol_model::{Fingerprint, Instance, Job, SkolemFactory, WorkerPool};

use crate::compile::{compile_program_with, PlanMode};
use crate::federate::Federation;
use crate::metadata::{generate_key_clauses, generate_merge_key_clauses};
use crate::Result;

/// How a [`crate::MaterializedPipeline`] validates source constraints per
/// mutation batch (see `wol_engine::constraints::incremental`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchConstraintMode {
    /// No per-batch constraint checking (the default).
    #[default]
    Off,
    /// Check every batch incrementally and record violations in the batch
    /// report and stats, but commit the batch regardless. Constraints seen
    /// violated stay on full re-check until they come back clean.
    Report,
    /// Check every batch incrementally; a violating batch is reverted and
    /// rejected with the full violation list, leaving sources and target
    /// exactly as before the batch.
    Enforce,
}

/// Options controlling a Morphase run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Use target key constraints during normalisation (turning this off
    /// reproduces the "constraints omitted" configuration of Section 6).
    pub use_target_keys: bool,
    /// Use source constraints for clause simplification and pruning.
    pub use_source_constraints: bool,
    /// Auto-generate key constraint clauses from the schemas' key
    /// specifications (Figure 6's meta-data input).
    pub generate_metadata_constraints: bool,
    /// Run the CPL plan optimiser on compiled plans.
    pub optimize_plans: bool,
    /// Cardinality model the planner estimates with: histogram-backed (the
    /// default) or the flat `1/ndv` baseline. The flat model is kept
    /// selectable so skew regressions can be measured differentially (the E7
    /// tests and bench run both over identical sources).
    pub cost_model: cpl::CostModel,
    /// Check the program's source constraints against the source data before
    /// executing. The check runs once, at the point where the sources are
    /// resident — for provider-backed runs after a complete, unprojected
    /// ingest — and after the program itself has compiled: on every path
    /// program errors (validation, normalisation, translation) are reported
    /// before a source-constraint violation, and the violation text is the
    /// same whichever way the rows arrived.
    pub check_source_constraints: bool,
    /// Worker threads the executors may use (see `cpl`'s threading-model
    /// docs). Defaults to the environment ([`cpl::Parallelism::from_env`]):
    /// the machine's available cores, overridable via `WOL_THREADS`. Both
    /// levels share one persistent [`cpl::WorkerPool`]: a program's queries
    /// evaluate concurrently on it, and each query's own operators still run
    /// pool morsels inside its job (the pool bounds total concurrency).
    /// Parallel execution is deterministic — the produced target, and the
    /// conflict a failing program reports, are the same at every thread
    /// count, Skolem identities being functions of their keys.
    pub parallelism: cpl::Parallelism,
    /// Per-batch source-constraint validation mode for standing pipelines
    /// ([`crate::MaterializedPipeline`] / [`crate::PipelineService`]); the
    /// one-shot transform ignores it (use `check_source_constraints`).
    pub batch_constraints: BatchConstraintMode,
    /// Push eligible filters (and projections) into backend scan providers on
    /// federated runs ([`Morphase::transform_federated`]); non-federated runs
    /// ignore it. On by default; the produced target is bit-identical either
    /// way — pushdown only moves the same predicate evaluation from the
    /// executor into the ingest scan — so turning it off is the differential
    /// baseline.
    pub pushdown: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            use_target_keys: true,
            use_source_constraints: true,
            generate_metadata_constraints: true,
            optimize_plans: true,
            cost_model: cpl::CostModel::default(),
            check_source_constraints: false,
            parallelism: cpl::Parallelism::from_env(),
            batch_constraints: BatchConstraintMode::default(),
            pushdown: true,
        }
    }
}

/// Where (and how) a durable run journals its progress.
///
/// Durable runs keep the one durable store, a snapshot + write-ahead log
/// under `dir` (see `storage::persist::PipelineJournal`): each applied query
/// — for a standing pipeline, each applied source batch — becomes one
/// committed batch, so a run killed between queries resumes after the last
/// completed one instead of re-running the whole program. The journal is
/// keyed by a fingerprint of the compiled program; reusing the directory
/// with a different program resets it. Resuming assumes the *sources* are
/// unchanged since the crashed run — the fingerprint covers the program and
/// its compiled plans, not the source data.
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Directory holding the journal files (created if absent).
    pub dir: PathBuf,
    /// Fault policy installed on the journal's WAL sink — a crash-injection
    /// hook for tests; `None` in normal use.
    pub fault: Option<FaultPolicy>,
}

impl DurableOptions {
    /// Journal into `dir`, no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            fault: None,
        }
    }

    /// Install a fault policy on the journal's WAL sink.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// What a durable run recovered and journalled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// True when the run resumed work a previous (crashed) run completed.
    pub resumed: bool,
    /// Queries already durable when the run started.
    pub completed_before: u64,
    /// Queries skipped because the recovered target already held their
    /// effects.
    pub skipped: u64,
    /// Queries applied and journalled by this run.
    pub journaled: u64,
    /// True when existing journal files belonged to a different program and
    /// were discarded.
    pub reset: bool,
    /// True when recovery discarded a torn WAL tail (an interrupted batch).
    pub recovered_torn_tail: bool,
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Program validation (parsing is the caller's; this is type/range checks).
    pub validate: Duration,
    /// Meta-data constraint generation.
    pub metadata: Duration,
    /// Normalisation (unify/unfold, key resolution, optimisation).
    pub normalize: Duration,
    /// Translation to CPL.
    pub compile: Duration,
    /// Streaming ingest from backend scan providers (federated runs only;
    /// zero otherwise). Not part of [`StageTimings::compile_time`] — it is
    /// data movement, not compilation.
    pub ingest: Duration,
    /// CPL execution.
    pub execute: Duration,
    /// Target verification.
    pub verify: Duration,
}

impl StageTimings {
    /// Total compile-side time (everything before execution), the quantity the
    /// paper reports as "the time taken to compile and normalize".
    pub fn compile_time(&self) -> Duration {
        self.validate + self.metadata + self.normalize + self.compile
    }

    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.compile_time() + self.ingest + self.execute + self.verify
    }
}

/// Estimated vs actual output rows of one join operator in one compiled
/// query, paired up from the planner's post-order estimates
/// ([`cpl::estimate_join_outputs`]) and the executor's join trace. The error
/// ratio these carry is the direct measure of estimate quality the histogram
/// work targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinStat {
    /// Name of the query (normal clause) the join belongs to.
    pub query: String,
    /// Join operator kind (`HashJoin`, `NestedLoopJoin`, `CrossJoin`).
    pub kind: String,
    /// The planner's estimated output rows.
    pub estimated: u64,
    /// The rows the join actually produced.
    pub actual: u64,
}

impl JoinStat {
    /// How far off the estimate was, as a symmetric `>= 1` factor (both
    /// sides clamped to one row so empty joins stay finite).
    pub fn error_ratio(&self) -> f64 {
        let est = self.estimated.max(1) as f64;
        let act = self.actual.max(1) as f64;
        est.max(act) / est.min(act)
    }
}

/// One query's execution breakdown: whether its evaluation overlapped other
/// queries', and where its time went. The per-query timing view the report
/// pins.
#[derive(Clone, Debug)]
pub struct QueryStat {
    /// Name of the query (the originating clause label(s)).
    pub query: String,
    /// Whether the query's evaluation could run concurrently with other
    /// queries' (query-level parallelism: more than one thread and more than
    /// one query to evaluate).
    pub overlapped: bool,
    /// Rows the query's plan emitted.
    pub rows_output: u64,
    /// Wall-clock spent evaluating the query (plan + insert expressions).
    pub eval: Duration,
    /// Wall-clock spent settling the evaluated writes into the target.
    pub apply: Duration,
}

/// The result of a Morphase run.
#[derive(Clone, Debug)]
pub struct MorphaseRun {
    /// The produced target instance.
    pub target: Instance,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// The normal-form program (for inspection and size metrics).
    pub normal: NormalProgram,
    /// Number of clauses in the input program (after meta-data generation).
    pub input_clauses: usize,
    /// Number of auto-generated constraint clauses.
    pub generated_clauses: usize,
    /// CPL execution statistics.
    pub exec: ExecStats,
    /// Columnar-executor statistics merged across every query context:
    /// pipelines taken off the row-at-a-time path, batch rows they covered,
    /// and column chunks visited. All zero when the columnar path is
    /// disabled (`EvalCtx::set_columnar`) or no plan shape qualified.
    pub columnar: cpl::ColumnarStats,
    /// Rendered CPL plans, one per normal clause.
    pub plans: Vec<String>,
    /// The planner's estimated output rows, one per compiled query (from the
    /// same cardinality model the join ordering used). Compared against
    /// `exec.rows_output` in reports.
    pub estimated_rows: Vec<u64>,
    /// Estimated vs actual rows per executed join operator (empty for
    /// compile-only runs). Reports print these with their error ratios.
    pub join_stats: Vec<JoinStat>,
    /// The worker-thread budget execution ran with.
    pub threads: usize,
    /// Per-worker-slot execution statistics accumulated across every
    /// parallel operator (empty when nothing ran in parallel). Slot `i`
    /// holds what worker `i` did: its share of produced rows, index probes
    /// and probe-cache hits — the skew of work across shards.
    pub shard_stats: Vec<ExecStats>,
    /// Per-query execution breakdown in program order: overlap, rows and
    /// timings (empty for compile-only runs).
    pub query_stats: Vec<QueryStat>,
    /// Journal/recovery statistics of a durable run
    /// ([`Morphase::transform_durable`]); `None` otherwise.
    pub durability: Option<DurabilityStats>,
}

/// The Morphase system: a configured pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Morphase {
    /// Pipeline options.
    pub options: PipelineOptions,
}

impl Morphase {
    /// A Morphase instance with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A Morphase instance with the given options.
    pub fn with_options(options: PipelineOptions) -> Self {
        Morphase { options }
    }

    /// Compile a program (validation, meta-data, normalisation, CPL
    /// translation) without executing it. Returns the run with an empty
    /// target; useful for the compile-time experiments (E1, E2).
    pub fn compile(&self, program: &Program) -> Result<MorphaseRun> {
        self.run(program, Rows::None, None)
    }

    /// Run the full pipeline: compile the program and execute it against the
    /// given source instances.
    pub fn transform(&self, program: &Program, sources: &[&Instance]) -> Result<MorphaseRun> {
        self.run(program, Rows::Resident(sources), None)
    }

    /// Run the full pipeline *durably*: like
    /// [`transform`](Morphase::transform), but every applied query's target
    /// mutations and Skolem assignments are journalled to `durable.dir` as
    /// one committed batch. A run killed between queries — a crash, an
    /// injected fault — resumes from the journal on the next
    /// `transform_durable` call with the same program, skipping the queries
    /// already applied; the resumed target is bit-identical to an uncrashed
    /// run, and the recovered Skolem memo detects a collision against
    /// pre-crash identities as the uncrashed run would.
    pub fn transform_durable(
        &self,
        program: &Program,
        sources: &[&Instance],
        durable: &DurableOptions,
    ) -> Result<MorphaseRun> {
        self.run(program, Rows::Resident(sources), Some(durable))
    }

    /// Run the full pipeline against *federated* backend sources: plan with
    /// provider-reported statistics, push eligible filters and projections
    /// into the providers (when [`PipelineOptions::pushdown`] is on),
    /// stream-ingest the surviving rows, then execute. See
    /// [`crate::federate`] for the eligibility and bit-identity contract.
    pub fn transform_federated(
        &self,
        program: &Program,
        providers: &[&dyn ScanProvider],
    ) -> Result<MorphaseRun> {
        self.run(program, Rows::Providers(providers), None)
    }

    /// A one-shot run: build the front half, hand it to the body.
    fn run(
        &self,
        program: &Program,
        rows: Rows<'_>,
        durable: Option<&DurableOptions>,
    ) -> Result<MorphaseRun> {
        let front = Front::build(self.options, program)?;
        run_pipeline(self.options, Cow::Owned(front), rows, durable)
    }
}

/// The program-only front half of the pipeline (stages 0, 1 and 3):
/// everything that can be computed from the program and the options without
/// seeing a row.
/// One-shot runs build it and hand it over; the standing
/// [`crate::MaterializedPipeline`] builds it once and lends it to every
/// (re)build, so an unchanged program is never re-normalised.
#[derive(Clone, Debug)]
pub(crate) struct Front {
    /// The program with auto-generated key/merge constraint clauses added.
    pub augmented: Program,
    /// Number of auto-generated constraint clauses.
    pub generated: usize,
    /// The normal-form program.
    pub normal: NormalProgram,
    /// Front-half stage timings (everything from `compile` on still zero).
    pub timings: StageTimings,
}

impl Front {
    /// Stages 0, 1 and 3: meta-data constraint generation, validation,
    /// normalisation.
    pub(crate) fn build(options: PipelineOptions, program: &Program) -> Result<Front> {
        let mut timings = StageTimings::default();

        // Stage 0: meta-data constraint generation.
        let start = Instant::now();
        let mut augmented = program.clone();
        let mut generated = 0usize;
        if options.generate_metadata_constraints {
            let mut clauses = generate_key_clauses(&program.target.schema, &program.target.keys);
            for binding in &program.sources {
                clauses.extend(generate_merge_key_clauses(&binding.schema, &binding.keys));
            }
            generated = clauses.len();
            for clause in clauses {
                augmented.add_clause(clause);
            }
        }
        timings.metadata = start.elapsed();

        // Stage 1: validation.
        let start = Instant::now();
        augmented.validate()?;
        timings.validate = start.elapsed();

        // Stage 3: normalisation.
        let start = Instant::now();
        let normalize_options = NormalizeOptions {
            use_target_keys: options.use_target_keys,
            use_source_constraints: options.use_source_constraints,
            ..NormalizeOptions::default()
        };
        let normal = wol_engine::normalize(&augmented, &normalize_options)?;
        timings.normalize = start.elapsed();

        Ok(Front {
            augmented,
            generated,
            normal,
            timings,
        })
    }

    /// The augmented program's source constraints, in check order.
    pub(crate) fn source_constraints(&self) -> Vec<&wol_lang::Clause> {
        self.augmented
            .source_constraints()
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    }

    /// Enforce the source constraints against resident sources, when
    /// [`PipelineOptions::check_source_constraints`] asks for it (and there
    /// is anything to check them against).
    pub(crate) fn check_sources(
        &self,
        options: PipelineOptions,
        sources: &[&Instance],
    ) -> Result<()> {
        if options.check_source_constraints && !sources.is_empty() {
            let dbs = wol_engine::Databases::new(sources).with_parallelism(options.parallelism);
            wol_engine::enforce_constraints(&self.source_constraints(), &dbs)
                .map_err(|e| crate::MorphaseError::Verification(e.to_string()))?;
        }
        Ok(())
    }
}

/// Stage 4: translate the normal form to CPL and plan it. The planner is fed
/// extent, distinct-value and histogram statistics of the data actually being
/// transformed — including its skew, under the default histogram cost model.
pub(crate) fn plan_queries(
    options: PipelineOptions,
    normal: &NormalProgram,
    stats: &cpl::Statistics<'_>,
) -> Result<Vec<cpl::Query>> {
    let mode = if options.optimize_plans {
        PlanMode::PlannerWithStats(stats)
    } else {
        PlanMode::Raw
    };
    compile_program_with(normal, mode)
}

/// Where a run's rows come from — the one thing, besides an optional
/// journal, that distinguishes the pipeline's entry points.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Nowhere: plan against default statistics and execute nothing
    /// ([`Morphase::compile`]).
    None,
    /// Source instances already in memory.
    Resident(&'a [&'a Instance]),
    /// Backend scan providers: planned against their reported statistics,
    /// then stream-ingested with whatever the plans let them filter.
    Providers(&'a [&'a dyn ScanProvider]),
}

/// A durable run's journal and what it recovered and wrote.
struct Journalling {
    journal: PipelineJournal,
    stats: DurabilityStats,
}

/// The pipeline body: plan → ingest → source-constraint check → execute →
/// verify, over a front half built by [`Front::build`]. The only function
/// that sequences these steps; every entry point is a call into it.
pub(crate) fn run_pipeline(
    options: PipelineOptions,
    front: Cow<'_, Front>,
    rows: Rows<'_>,
    durable: Option<&DurableOptions>,
) -> Result<MorphaseRun> {
    let mut timings = front.timings;
    let (resident, federation): (&[&Instance], _) = match rows {
        Rows::None => (&[], None),
        Rows::Resident(sources) => (sources, None),
        Rows::Providers(providers) => (&[], Some(Federation::resolve(providers)?)),
    };

    // Stage 4: translation to CPL, planned against the resident instances
    // and whatever the providers report about rows not yet moved. Per-join
    // estimates are pure planner work over the compiled plans; computing
    // them here keeps the execute timing honest.
    let start = Instant::now();
    let external = federation.as_ref().map(|f| f.external.clone());
    let stats = cpl::Statistics::from_instances(resident)
        .with_external(external.unwrap_or_default())
        .with_cost_model(options.cost_model);
    let queries = plan_queries(options, &front.normal, &stats)?;
    let plans: Vec<String> = queries.iter().map(|q| q.plan.render()).collect();
    let (estimated_rows, join_estimates): (Vec<u64>, Vec<Vec<cpl::JoinEstimate>>) = queries
        .iter()
        .map(|q| {
            let estimate = cpl::estimate_plan(&q.plan, &stats);
            (estimate.rows.round() as u64, estimate.joins)
        })
        .unzip();
    drop(stats);
    timings.compile = start.elapsed();

    let mut exec = ExecStats::default();
    let mut columnar = cpl::ColumnarStats::default();
    let mut join_stats = Vec::new();
    let mut shard_stats = Vec::new();
    let mut query_stats = Vec::new();
    let mut journalling: Option<Journalling> = None;
    let mut target = Instance::new(front.augmented.target.schema.name());

    // Ingest: provider-backed rows become resident, filtered by what the
    // finished plans allow.
    let mut ingested = None;
    if let Some(federation) = &federation {
        let start = Instant::now();
        let (instance, provider_stats) = federation.ingest(options, &front.augmented, &queries)?;
        timings.ingest = start.elapsed();
        exec.absorb(provider_stats);
        ingested = Some(instance);
    }
    let ingested = ingested.as_ref();
    let sources = if ingested.is_some() {
        ingested.as_slice()
    } else {
        resident
    };

    front.check_sources(options, sources)?;

    if !matches!(rows, Rows::None) {
        // Stage 5: execution, with per-join actual row counts traced so the
        // run can report estimate-vs-actual error per join. No query reads
        // the target, so every live query evaluates as one job on the shared
        // pool, on a worker context minting through a factory of its own,
        // and the main context applies them in program order. Writes settle
        // per object over the set of contributions, so neither order can
        // change the target or the conflict reported.
        let start = Instant::now();
        let mut ctx = EvalCtx::new(sources).with_parallelism(options.parallelism);
        // Durable mode: open (or resume) the journal keyed by the compiled
        // program's fingerprint, restore the recovered target and Skolem
        // factory, and log further target mutations for per-query
        // journalling. Only this context mutates the target, folding each
        // query's factory into its own as it applies, so the journal is
        // sound at every thread count.
        if let Some(opts) = durable {
            let schema = front.augmented.target.schema.name();
            let fingerprint = program_fingerprint(schema, sources, &queries, &plans);
            let (journal, recovery) =
                PipelineJournal::open(&opts.dir, fingerprint, schema, opts.fault)?;
            target = recovery.instance;
            ctx.factory = SkolemFactory::from_state(recovery.skolem)?;
            target.begin_mutation_log();
            journalling = Some(Journalling {
                journal,
                stats: DurabilityStats {
                    resumed: recovery.completed > 0,
                    completed_before: recovery.completed,
                    reset: recovery.reset,
                    recovered_torn_tail: recovery.report.torn_tail.is_some(),
                    skipped: 0,
                    journaled: 0,
                },
            });
        }
        // Durable resume: the queries the journal completed are already in
        // the recovered target.
        let completed = journalling.as_ref().map_or(0, |j| j.stats.completed_before);
        let completed = usize::try_from(completed)
            .unwrap_or(usize::MAX)
            .min(queries.len());
        for query in &queries[..completed] {
            query_stats.push(QueryStat {
                query: query.name.clone(),
                overlapped: false,
                rows_output: 0,
                eval: Duration::ZERO,
                apply: Duration::ZERO,
            });
        }
        if let Some(j) = journalling.as_mut() {
            j.stats.skipped = completed as u64;
        }
        let live = &queries[completed..];

        // Each worker context keeps the full worker budget, so a big query
        // still runs operator-level morsels *inside* its job — the shared
        // pool bounds total concurrency either way — and its per-shard
        // breakdown rolls back into the main context's view.
        type Evaluated = (
            cpl::Result<cpl::EvaluatedQuery>,
            ExecStats,
            Vec<ExecStats>,
            cpl::ColumnarStats,
            Vec<cpl::exec::JoinActual>,
            Duration,
        );
        let jobs: Vec<Job<'_, Evaluated>> = live
            .iter()
            .map(|query| {
                Box::new(move || {
                    let eval_start = Instant::now();
                    let mut wctx =
                        EvalCtx::claim_worker(sources).with_parallelism(options.parallelism);
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
        let overlapped = options.parallelism.threads() > 1 && jobs.len() > 1;
        let evaluated = WorkerPool::shared(options.parallelism).scope(jobs);

        // Apply in program order. An evaluation error fails the run at once;
        // a conflict does not: later queries still apply, commits stop at
        // the first conflicting query, and the stage fails at its end with
        // the least conflict of the whole program — what the maintainer
        // reports for the same sources.
        let mut conflict: Option<wol_model::Conflict> = None;
        for (k, (query, outcome)) in (completed..).zip(live.iter().zip(evaluated)) {
            let (result, wstats, shards, wcolumnar, actuals, eval) = outcome;
            let rows_before = exec.rows_output;
            exec.absorb(wstats);
            ctx.absorb_shard_stats(&shards);
            columnar.absorb(&wcolumnar);
            let started = Instant::now();
            match apply_evaluated_query(query, result?, &mut ctx, &mut target, &mut exec) {
                Ok(()) => {}
                Err(cpl::CplError::Conflict(found)) => {
                    conflict = conflict.into_iter().chain([found]).min();
                }
                Err(e) => return Err(e.into()),
            }
            if let (Some(j), None) = (journalling.as_mut(), &conflict) {
                j.journal
                    .commit(k as u64, &mut target, Some(&ctx.factory))?;
                j.stats.journaled += 1;
            }
            join_stats.extend(
                join_estimates[k]
                    .iter()
                    .zip(&actuals)
                    .map(|(est, act)| JoinStat {
                        query: query.name.clone(),
                        kind: act.kind.to_string(),
                        estimated: est.rows.round() as u64,
                        actual: act.rows as u64,
                    }),
            );
            query_stats.push(QueryStat {
                query: query.name.clone(),
                overlapped,
                rows_output: (exec.rows_output - rows_before) as u64,
                eval,
                apply: started.elapsed(),
            });
        }
        if let Some(conflict) = conflict {
            return Err(cpl::CplError::Conflict(conflict).into());
        }
        // Durable epilogue: fold the WAL into a final snapshot so the
        // journal directory holds the full target compactly.
        if let Some(j) = journalling.as_mut() {
            target.end_mutation_log();
            j.journal.checkpoint(&target, Some(&ctx.factory))?;
        }
        shard_stats = ctx.take_shard_stats();
        columnar.absorb(&ctx.take_columnar_stats());
        timings.execute = start.elapsed();

        // Stage 6: verification.
        let start = Instant::now();
        verify_target_instance(options, &front.augmented, &target)?;
        timings.verify = start.elapsed();
    }

    let front = front.into_owned();
    Ok(MorphaseRun {
        target,
        timings,
        input_clauses: front.augmented.clauses.len(),
        generated_clauses: front.generated,
        normal: front.normal,
        exec,
        columnar,
        plans,
        estimated_rows,
        join_stats,
        threads: options.parallelism.threads(),
        shard_stats,
        query_stats,
        durability: journalling.map(|j| j.stats),
    })
}

/// Stage 6 of the pipeline: validate a produced target against the augmented
/// program's target schema, keys, and (non-Skolem-key) constraints. Shared by
/// [`run_pipeline`] and the standing [`crate::MaterializedPipeline`], which
/// re-verifies at full-build boundaries.
pub(crate) fn verify_target_instance(
    options: PipelineOptions,
    augmented: &Program,
    target: &Instance,
) -> Result<()> {
    wol_model::validate::check_keyed_instance(
        target,
        &augmented.target.schema,
        &augmented.target.keys,
    )
    .map_err(|e| crate::MorphaseError::Verification(e.to_string()))?;
    let target_constraints: Vec<&wol_lang::Clause> = augmented
        .target_constraints()
        .into_iter()
        .map(|(_, c)| c)
        .filter(|c| {
            // Skolem-style key constraints are enforced by construction;
            // checking them against the Skolem-created identities would
            // re-create them, so only the remaining constraints are checked.
            !matches!(
                wol_engine::classify_constraint(c),
                wol_engine::ConstraintClass::SkolemKey(_)
            )
        })
        .collect();
    let dbs = wol_engine::Databases::new(&[target]).with_parallelism(options.parallelism);
    wol_engine::enforce_constraints(&target_constraints, &dbs)
        .map_err(|e| crate::MorphaseError::Verification(e.to_string()))?;
    Ok(())
}

/// Fingerprint of the *compiled* program a durable journal belongs to: the
/// target's identity numbering, target schema name, source schema names,
/// and every compiled query's name and rendered plan. Any change to the
/// program, the schemas it binds, how it compiled, or how its target
/// identities are numbered produces a different fingerprint, which resets
/// (rather than resumes) an existing journal — a target whose identities
/// were numbered by mint-order counters is never resumed into key-derived
/// ones.
fn program_fingerprint(
    target_schema: &str,
    sources: &[&Instance],
    queries: &[cpl::Query],
    plans: &[String],
) -> u64 {
    let mut hash = Fingerprint::new();
    hash.eat(b"skolem ids: key-derived");
    hash.eat(target_schema.as_bytes());
    for source in sources {
        hash.eat(source.schema_name().as_bytes());
    }
    for (query, plan) in queries.iter().zip(plans) {
        hash.eat(query.name.as_bytes());
        hash.eat(plan.as_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::{ClassName, Value};
    use workloads::cities::{generate_euro, CitiesWorkload};
    use workloads::people::{generate_couples, PeopleWorkload};
    use workloads::wide;

    #[test]
    fn full_pipeline_on_the_cities_workload() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(5, 4, 99);
        let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
        assert_eq!(run.target.extent_size(&ClassName::new("CountryT")), 5);
        assert_eq!(run.target.extent_size(&ClassName::new("CityT")), 20);
        assert!(run.timings.total() >= run.timings.compile_time());
        assert!(run.exec.rows_scanned > 0);
        assert!(!run.plans.is_empty());
        // Metadata generated the target key clauses automatically.
        assert!(run.generated_clauses >= 3);
        assert!(run.input_clauses > program.clauses.len());
    }

    #[test]
    fn metadata_generation_lets_the_user_omit_key_clauses() {
        // The same cities program *without* the hand-written (C2)/(C3) key
        // clauses still normalises, because the target KeySpec generates them.
        let w = CitiesWorkload::new();
        let text = "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
                    T2: Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) <= E in CityE, X in CountryT, X.name = E.country.name;";
        let program = wol_lang::program::Program::new(
            "no_keys_written",
            vec![wol_lang::program::SchemaBinding::keyed(
                w.euro_schema.clone(),
                w.euro_keys.clone(),
            )],
            wol_lang::program::SchemaBinding::keyed(w.target_schema.clone(), w.target_keys.clone()),
        )
        .with_text(text);
        let source = generate_euro(3, 2, 5);
        let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
        assert_eq!(run.target.extent_size(&ClassName::new("CityT")), 6);
        assert!(run.generated_clauses > 0);
    }

    /// Query-level parallelism end to end: at every thread count the
    /// overlapped pipeline produces the bit-identical target and equal
    /// merged `ExecStats` as the sequential one, reports per-query stats in
    /// program order, and actually overlaps the (source-only, hence
    /// independent) cities queries.
    #[test]
    fn query_level_parallelism_is_bit_identical_to_sequential() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(6, 4, 7);
        let sequential = Morphase::with_options(PipelineOptions {
            parallelism: cpl::Parallelism::sequential(),
            ..PipelineOptions::default()
        })
        .transform(&program, &[&source][..])
        .unwrap();
        assert!(sequential.query_stats.iter().all(|q| !q.overlapped));
        let names: Vec<&str> = sequential
            .query_stats
            .iter()
            .map(|q| q.query.as_str())
            .collect();
        for threads in [2usize, 4, 8] {
            let run = Morphase::with_options(PipelineOptions {
                parallelism: cpl::Parallelism::new(threads),
                ..PipelineOptions::default()
            })
            .transform(&program, &[&source][..])
            .unwrap();
            assert_eq!(
                run.target, sequential.target,
                "target diverged at {threads} threads"
            );
            assert_eq!(
                run.exec, sequential.exec,
                "merged ExecStats diverged at {threads} threads"
            );
            // Per-query stats stay in program order whatever overlapped.
            let run_names: Vec<&str> = run.query_stats.iter().map(|q| q.query.as_str()).collect();
            assert_eq!(run_names, names);
            // The cities queries read only source extents, so they are
            // independent: the pipeline must actually overlap them.
            assert!(
                run.query_stats.iter().any(|q| q.overlapped),
                "independent queries never overlapped at {threads} threads"
            );
            assert!(run.join_stats.iter().eq(sequential.join_stats.iter()));
        }
    }

    fn temp_journal_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wol-durable-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable run produces the bit-identical target of a plain run, and a
    /// second durable run over the same journal resumes (skipping every
    /// query) to the same target.
    #[test]
    fn durable_run_matches_plain_and_resumes_to_identity() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(5, 4, 99);
        let plain = Morphase::new().transform(&program, &[&source][..]).unwrap();
        let dir = temp_journal_dir("identity");
        let durable = crate::DurableOptions::new(&dir);
        let run = Morphase::new()
            .transform_durable(&program, &[&source][..], &durable)
            .unwrap();
        assert_eq!(run.target, plain.target);
        let d = run.durability.unwrap();
        assert!(!d.resumed);
        assert_eq!(d.journaled, plain.query_stats.len() as u64);
        // Resume over the finished journal: everything is already durable.
        let resumed = Morphase::new()
            .transform_durable(&program, &[&source][..], &durable)
            .unwrap();
        assert_eq!(resumed.target, plain.target);
        assert_eq!(
            resumed.target.deep_eq_report(&plain.target),
            None,
            "resumed target must be bit-identical"
        );
        let d = resumed.durability.unwrap();
        assert!(d.resumed);
        assert_eq!(d.skipped, plain.query_stats.len() as u64);
        assert_eq!(d.journaled, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Kill the run mid-journal with an injected fault; the resumed run
    /// skips the completed prefix and lands on the bit-identical target.
    #[test]
    fn durable_run_killed_mid_journal_resumes_bit_identically() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(6, 3, 7);
        let plain = Morphase::new().transform(&program, &[&source][..]).unwrap();
        let dir = temp_journal_dir("crash");
        // Crash 40 bytes into the journal's WAL: the first query's batch is
        // torn, so nothing (or only a prefix) survives.
        let crashing =
            crate::DurableOptions::new(&dir).with_fault(storage::persist::FaultPolicy::torn_at(40));
        let err = Morphase::new()
            .transform_durable(&program, &[&source][..], &crashing)
            .unwrap_err();
        assert!(matches!(err, crate::MorphaseError::Durability(_)), "{err}");
        // Resume without the fault: completes and matches the plain run.
        let durable = crate::DurableOptions::new(&dir);
        let resumed = Morphase::new()
            .transform_durable(&program, &[&source][..], &durable)
            .unwrap();
        assert_eq!(resumed.target, plain.target);
        let d = resumed.durability.unwrap();
        assert!(d.recovered_torn_tail, "the torn batch must be discarded");
        assert_eq!(
            d.skipped + d.journaled,
            plain.query_stats.len() as u64,
            "every query is either recovered or re-run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal left by a different program is reset, not resumed.
    #[test]
    fn durable_run_resets_a_foreign_journal() {
        let w = CitiesWorkload::new();
        let source = generate_euro(3, 2, 5);
        let dir = temp_journal_dir("foreign");
        let durable = crate::DurableOptions::new(&dir);
        Morphase::new()
            .transform_durable(&w.euro_program(), &[&source][..], &durable)
            .unwrap();
        // A different program (people workload) reuses the directory.
        let p = PeopleWorkload::new();
        let p_source = generate_couples(3, 4);
        let run = Morphase::new()
            .transform_durable(&p.program(), &[&p_source][..], &durable)
            .unwrap();
        let d = run.durability.unwrap();
        assert!(d.reset, "foreign journal must be discarded");
        assert!(!d.resumed);
        assert_eq!(run.target.extent_size(&ClassName::new("Marriage")), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compile_only_runs_do_not_touch_sources() {
        let w = CitiesWorkload::new();
        let run = Morphase::new().compile(&w.euro_program()).unwrap();
        assert!(run.target.is_empty());
        assert!(run.normal.len() >= 3);
        assert_eq!(run.exec.rows_scanned, 0);
    }

    #[test]
    fn people_workload_round_trips_with_verification() {
        let w = PeopleWorkload::new();
        let program = w.program();
        let source = generate_couples(3, 4);
        let run = Morphase::new().transform(&program, &[&source][..]).unwrap();
        assert_eq!(run.target.extent_size(&ClassName::new("Marriage")), 3);
        // Verification checked the target against schema and keys.
        assert!(run.timings.verify > Duration::ZERO);
    }

    /// A euro source where one country has two capitals: violates (C5).
    fn two_capitals_source() -> Instance {
        let mut source = generate_euro(2, 2, 1);
        let second_city = source
            .objects(&ClassName::new("CityE"))
            .map(|(oid, _)| oid.clone())
            .nth(1)
            .unwrap();
        let mut v = source.value(&second_city).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("is_capital".into(), Value::bool(true));
        }
        source.update(&second_city, v).unwrap();
        source
    }

    #[test]
    fn source_constraint_checking_rejects_bad_sources() {
        let w = CitiesWorkload::new();
        let mut program = w.euro_program();
        program
            .add_text(CitiesWorkload::euro_constraints_text())
            .unwrap();
        let source = two_capitals_source();
        let options = PipelineOptions {
            check_source_constraints: true,
            ..PipelineOptions::default()
        };
        let err = Morphase::with_options(options)
            .transform(&program, &[&source][..])
            .unwrap_err();
        assert!(matches!(err, crate::MorphaseError::Verification(_)));
    }

    /// Program errors come before data errors: a program that cannot be
    /// normalised (its creating clause never sets the key attribute) is
    /// rejected as such even when the sources also violate a source
    /// constraint — the source check runs in the data half, after the front.
    #[test]
    fn program_errors_are_reported_before_source_constraint_violations() {
        let w = CitiesWorkload::new();
        let mut program = wol_lang::program::Program::new(
            "incomplete_key",
            vec![wol_lang::program::SchemaBinding::keyed(
                w.euro_schema.clone(),
                w.euro_keys.clone(),
            )],
            wol_lang::program::SchemaBinding::keyed(w.target_schema.clone(), w.target_keys.clone()),
        )
        .with_text("T: X in CountryT, X.language = L <= Y in CountryE, Y.language = L;");
        program
            .add_text(CitiesWorkload::euro_constraints_text())
            .unwrap();
        let source = two_capitals_source();
        let options = PipelineOptions {
            check_source_constraints: true,
            ..PipelineOptions::default()
        };
        let err = Morphase::with_options(options)
            .transform(&program, &[&source][..])
            .unwrap_err();
        assert!(matches!(err, crate::MorphaseError::Engine(_)), "{err}");
    }

    #[test]
    fn compile_time_of_partial_programs_exceeds_normal_form_programs() {
        // The shape of the paper's ~6x claim: compiling a program that needs
        // normalisation does strictly more work than compiling one already in
        // normal form. (The exact ratio is measured by bench E1.)
        let normal_run = Morphase::new()
            .compile(&wide::normal_form_program(16))
            .unwrap();
        let partial_run = Morphase::new()
            .compile(&wide::partial_program(16, 8, true))
            .unwrap();
        assert_eq!(normal_run.normal.len(), 1);
        assert_eq!(partial_run.normal.len(), 8);
        assert!(partial_run.normal.size() >= normal_run.normal.size());
    }

    #[test]
    fn omitting_keys_blows_up_the_normal_form() {
        let options = PipelineOptions {
            use_target_keys: false,
            generate_metadata_constraints: false,
            ..PipelineOptions::default()
        };
        let with_keys = Morphase::new()
            .compile(&wide::partial_program(8, 4, true))
            .unwrap();
        let without_keys = Morphase::with_options(options)
            .compile(&wide::partial_program(8, 4, false))
            .unwrap();
        assert!(without_keys.normal.len() > with_keys.normal.len());
    }
}
