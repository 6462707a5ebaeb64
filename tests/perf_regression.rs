//! Performance regression tests for the CPL join-graph planner (ISSUE 2).
//!
//! The E6 genome pipeline used to materialise ~23M-row cross products (the
//! translator emitted scans as raw products, and the rule-based rewriter
//! could not see join equalities through `Map`-defined variables). The
//! planner must keep that workload index-probed and product-free; these tests
//! guard the speed-up and are also run in release mode by CI.

use std::time::Duration;

use wol_repro::cpl::expr::EvalCtx;
use wol_repro::cpl::{execute_query, ExecStats, Parallelism, Statistics};
use wol_repro::morphase::{compile_program_with, Morphase, MorphaseRun, PipelineOptions, PlanMode};
use wol_repro::wol_engine::instances_equivalent;
use wol_repro::wol_model::{ClassName, Instance};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::skewed::{self, SkewedParams};

/// The planner-vs-raw wall-clock regression: on a moderate genome workload
/// the planned execute phase must be at least 5x faster than the raw
/// (unoptimised) plans, while producing an equivalent target.
#[test]
fn e6_planned_execution_is_at_least_5x_faster_than_raw_plans() {
    let params = GenomeParams {
        clones: 30,
        markers: 90,
        density: 0.6,
        seed: 22,
    };
    let source = genome::generate_source(&params);
    let program = genome::program();

    let planned = Morphase::new()
        .transform(&program, &[&source][..])
        .expect("planned run succeeds");
    let raw = Morphase::with_options(PipelineOptions {
        optimize_plans: false,
        ..PipelineOptions::default()
    })
    .transform(&program, &[&source][..])
    .expect("raw run succeeds");

    assert!(
        instances_equivalent(&planned.target, &raw.target, 2),
        "planned and raw targets diverge"
    );
    // The raw plans materialise the marker x marker (x clone) products; the
    // planner must stay well below them.
    assert!(
        raw.exec.max_intermediate_rows >= 10 * planned.exec.max_intermediate_rows.max(1),
        "expected >=10x fewer peak rows, got raw={} planned={}",
        raw.exec.max_intermediate_rows,
        planned.exec.max_intermediate_rows
    );
    assert!(
        planned.exec.index_probes > 0,
        "planner lost the index probes"
    );
    let speedup =
        raw.timings.execute.as_secs_f64() / planned.timings.execute.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 5.0,
        "expected a >=5x execute speed-up, got {speedup:.1}x (raw {:?}, planned {:?})",
        raw.timings.execute,
        planned.timings.execute
    );
}

/// The E7 skewed pipeline, planned against the live source's histograms.
fn run_skewed(source: &Instance) -> MorphaseRun {
    Morphase::new()
        .transform(&skewed::program(), &[source][..])
        .expect("skewed pipeline runs")
}

/// The same normal program planned blind — `Statistics::empty()`, so every
/// extent and selectivity is a fixed default and the plan cannot see the
/// skew — and executed query by query: its target and merged counters.
fn run_statistics_blind(run: &MorphaseRun, source: &Instance) -> (Instance, ExecStats) {
    let blind = Statistics::empty();
    let queries = compile_program_with(&run.normal, PlanMode::PlannerWithStats(&blind))
        .expect("the skewed program compiles blind");
    let plans: Vec<String> = queries.iter().map(|q| q.plan.render()).collect();
    assert_ne!(
        plans, run.plans,
        "the blind plans render as the histogram ones"
    );
    let refs = [source];
    let mut ctx = EvalCtx::new(&refs[..]);
    let mut target = Instance::new(run.target.schema_name());
    let mut exec = ExecStats::default();
    for query in &queries {
        execute_query(query, &mut ctx, &mut target, &mut exec).expect("blind plan runs");
    }
    (target, exec)
}

/// The E7 guard at reduced size, by counters: on the zipfian workload the
/// histogram-fed planner must produce an equivalent target with >=3x fewer
/// peak intermediate rows than the statistics-blind plan of the same
/// program, which misorders the triangle join. Wall-clock is wolbench's
/// `load_skew`.
#[test]
fn e7_histogram_planning_peaks_3x_below_the_statistics_blind_plan_on_skew() {
    let source = skewed::generate_source(&SkewedParams::reduced());
    let hist = run_skewed(&source);
    let (blind_target, blind) = run_statistics_blind(&hist, &source);
    eprintln!(
        "[e7] peak rows: histogram {}, statistics-blind {}",
        hist.exec.max_intermediate_rows, blind.max_intermediate_rows
    );

    assert!(
        instances_equivalent(&hist.target, &blind_target, 2),
        "histogram and statistics-blind targets diverge"
    );
    assert!(
        blind.max_intermediate_rows >= 3 * hist.exec.max_intermediate_rows.max(1),
        "expected >=3x fewer peak rows, got blind={} histogram={}",
        blind.max_intermediate_rows,
        hist.exec.max_intermediate_rows
    );
}

/// The full-size E7 acceptance check: the histogram-fed plan keeps the peak
/// operator output at the final-result scale (the statistics-blind plan
/// materialises the `Σ m_c · p_c` marker-probe blow-up, >=3x more), runs on
/// index probes, the probe-side cache absorbs the repeated hot keys, and
/// every join's estimate is within 2x of its actual output.
#[test]
fn e7_full_size_skew_peak_rows_are_3x_below_the_statistics_blind_plan() {
    let source = skewed::generate_source(&SkewedParams::full());
    let hist = run_skewed(&source);
    let (blind_target, blind) = run_statistics_blind(&hist, &source);
    eprintln!(
        "[e7] peak rows: histogram {}, statistics-blind {}",
        hist.exec.max_intermediate_rows, blind.max_intermediate_rows
    );

    assert!(
        instances_equivalent(&hist.target, &blind_target, 2),
        "histogram and statistics-blind targets diverge"
    );
    assert!(
        hist.exec.max_intermediate_rows < 50_000,
        "histogram plan peak operator output blew up: {} rows",
        hist.exec.max_intermediate_rows
    );
    assert!(
        blind.max_intermediate_rows >= 3 * hist.exec.max_intermediate_rows.max(1),
        "expected >=3x fewer peak rows, got blind={} histogram={}",
        blind.max_intermediate_rows,
        hist.exec.max_intermediate_rows
    );
    assert!(
        hist.exec.index_probes > 0,
        "the skewed join no longer uses index probes"
    );
    assert!(
        hist.exec.probe_cache_hits > 0,
        "the probe-side cache never fired on repeated hot keys"
    );
    assert!(!hist.join_stats.is_empty());
    for join in &hist.join_stats {
        assert!(
            join.error_ratio() < 2.0,
            "histogram estimate drifted: {join:?}"
        );
    }
}

/// Run a pipeline with an explicit worker-thread budget.
fn transform_with_threads(
    program: &wol_repro::wol_lang::program::Program,
    source: &Instance,
    threads: usize,
) -> MorphaseRun {
    let options = PipelineOptions {
        parallelism: Parallelism::new(threads),
        ..PipelineOptions::default()
    };
    Morphase::with_options(options)
        .transform(program, &[source][..])
        .expect("pipeline runs")
}

/// The E8 determinism guard: the plan- and target-instance assertions from
/// PRs 2–3 hold *at every thread count*, and — stronger — the target
/// instance, the merged `ExecStats` and every join's actual output rows are
/// bit-identical to the single-thread run's. Target identities are derived
/// from their keys, so target equality does not see row order; the row
/// stream itself is compared directly by the thread-matrix proptests in
/// `tests/properties.rs`.
#[test]
fn e8_plan_and_target_assertions_hold_at_every_thread_count() {
    // E6 genome shape across the full matrix.
    let genome_params = GenomeParams {
        clones: 30,
        markers: 90,
        density: 0.6,
        seed: 22,
    };
    let genome_source = genome::generate_source(&genome_params);
    let genome_program = genome::program();
    let base = transform_with_threads(&genome_program, &genome_source, 1);
    for plan in &base.plans {
        assert!(
            !plan.contains("CrossJoin") && !plan.contains("NestedLoopJoin"),
            "a product survived planning:\n{plan}"
        );
    }
    for threads in [2usize, 4, 8] {
        let run = transform_with_threads(&genome_program, &genome_source, threads);
        assert_eq!(
            run.target, base.target,
            "E6 target diverged at {threads} threads"
        );
        assert_eq!(
            run.exec, base.exec,
            "E6 merged ExecStats diverged at {threads} threads"
        );
        assert_eq!(run.plans, base.plans, "plans must not depend on threads");
        assert_eq!(run.join_stats, base.join_stats, "E6 join outputs diverged");
        assert!(run.exec.index_probes > 0);
    }

    // E7 skew shape across the matrix. The statistics-blind join order of
    // this shape would run raw-sized products here; the thread-matrix
    // proptests in `tests/properties.rs`
    // (`parallel_execution_is_deterministic_across_the_thread_matrix` and the
    // Skolem soak) hold that alternative order across threads instead.
    let skew_params = SkewedParams {
        clones: 200,
        markers: 500,
        probes: 175,
        lanes: 600,
        bins: 100,
        zipf_exponent: 1.1,
        seed: 22,
    };
    let skew_source = skewed::generate_source(&skew_params);
    let skew_program = skewed::program();
    let base = transform_with_threads(&skew_program, &skew_source, 1);
    for threads in [2usize, 4, 8] {
        let run = transform_with_threads(&skew_program, &skew_source, threads);
        assert_eq!(
            run.target, base.target,
            "E7 target diverged at {threads} threads"
        );
        assert_eq!(
            run.exec, base.exec,
            "E7 merged ExecStats diverged at {threads} threads"
        );
        assert_eq!(run.join_stats, base.join_stats, "E7 join outputs diverged");
    }
}

/// The E8 scaling guard, by counters: on scaled-up E6 and E7 workloads the
/// 4-thread run splits its produced rows so that its critical path — the
/// rows produced on the calling thread plus the heaviest partition's share
/// (`MorphaseRun.shard_stats`, one entry per partition index) — is at most
/// half of everything produced. That is the split a >=2x 4-thread speed-up
/// needs; the counters are the same on every machine, and wolbench times the
/// loads.
#[test]
fn e8_four_thread_runs_split_produced_rows_for_a_2x_critical_path_on_e6_and_e7() {
    let genome_params = GenomeParams {
        clones: 1200,
        markers: 3600,
        density: 0.6,
        seed: 22,
    };
    let genome_source = genome::generate_source(&genome_params);
    let skew_params = SkewedParams {
        clones: 2400,
        markers: 6000,
        probes: 2000,
        lanes: 4200,
        bins: 600,
        zipf_exponent: 1.1,
        seed: 22,
    };
    let skew_source = skewed::generate_source(&skew_params);
    let genome_program = genome::program();
    let skew_program = skewed::program();
    for (label, program, source) in [
        ("E6", &genome_program, &genome_source),
        ("E7", &skew_program, &skew_source),
    ] {
        let run1 = transform_with_threads(program, source, 1);
        let run4 = transform_with_threads(program, source, 4);
        assert_eq!(
            run4.target, run1.target,
            "{label} target diverged between 1 and 4 threads"
        );
        assert_eq!(run4.exec, run1.exec, "{label} ExecStats diverged");
        assert!(run1.shard_stats.is_empty(), "one thread runs inline");
        assert_eq!(run4.shard_stats.len(), 4, "{label} ran on 4 partitions");
        let total = run4.exec.rows_produced;
        let shards: Vec<usize> = run4.shard_stats.iter().map(|s| s.rows_produced).collect();
        let inline = total - shards.iter().sum::<usize>();
        let critical = inline + shards.iter().max().copied().unwrap_or(0);
        eprintln!("[e8] {label}: {total} rows, {inline} inline, shards {shards:?}");
        assert!(
            2 * critical <= total,
            "{label}: the 4-thread critical path produces {critical} of {total} rows \
             ({inline} inline, shards {shards:?}); a >=2x speed-up needs at most half"
        );
    }
}

/// The E10 columnar guard (release mode, run by CI): on a 100× scaled E6
/// genome extent, the batch-at-a-time columnar executor must answer a
/// scan→filter→project tower at least 3× faster than the row-at-a-time
/// executor — measured single-threaded through `cpl::run_slots`, the
/// executor's one entry point, so the ratio is the vectorization win, not
/// parallelism — while producing the identical row stream. Debug
/// builds only assert the differential (the ratio there measures the
/// allocator, not the kernels).
#[test]
fn e10_columnar_scan_filter_is_at_least_3x_row_at_a_time() {
    use wol_repro::cpl::{self, Expr, Plan};
    use wol_repro::wol_model::Value;

    let source = genome::generate_source(&GenomeParams::scaled(100));
    let refs = [&source];
    let plan = Plan::scan("MarkerS", "M")
        .filter(Expr::Leq(
            Box::new(Expr::var("M").proj("position")),
            Box::new(Expr::Const(Value::int(25_000_000))),
        ))
        .map(vec![
            ("NAME".to_string(), Expr::var("M").proj("name")),
            ("POS".to_string(), Expr::var("M").proj("position")),
        ]);
    let run = |columnar: bool| -> (Vec<cpl::SlotRow>, Duration) {
        let mut ctx =
            cpl::expr::EvalCtx::new(&refs[..]).with_parallelism(Parallelism::sequential());
        ctx.set_columnar(columnar);
        let mut stats = cpl::ExecStats::default();
        let start = std::time::Instant::now();
        let rows = cpl::run_slots(&plan, &mut ctx, &mut stats).expect("plan runs");
        (rows, start.elapsed())
    };
    // Warm the derived column cache so the ratio measures steady-state scan
    // throughput, not the one-time column build.
    let (warm_rows, _) = run(true);
    assert!(!warm_rows.is_empty(), "the tower must select something");
    // Best-of-two per mode to damp scheduler noise.
    let measure = |columnar: bool| -> (Vec<cpl::SlotRow>, Duration) {
        let (rows, first) = run(columnar);
        let (_, second) = run(columnar);
        (rows, first.min(second))
    };
    let (row_rows, row_secs) = measure(false);
    let (col_rows, col_secs) = measure(true);
    assert_eq!(col_rows, row_rows, "columnar and row executors diverged");
    if cfg!(debug_assertions) {
        eprintln!("[e10] debug build: the 3x ratio is measured by the release CI run only");
        return;
    }
    let speedup = row_secs.as_secs_f64() / col_secs.as_secs_f64().max(1e-9);
    eprintln!("[e10] row {row_secs:?}, columnar {col_secs:?} ({speedup:.2}x)");
    assert!(
        speedup >= 3.0,
        "expected a >=3x columnar scan+filter speed-up, got {speedup:.2}x \
         (row {row_secs:?}, columnar {col_secs:?})"
    );
}

/// The E11 maintenance guard (release mode, run by CI): on the scaled E6
/// genome warehouse, absorbing an in-place mutation batch through the
/// standing [`MaterializedPipeline`] must be at least 10× faster than a
/// from-scratch re-run of the whole transformation, while the maintained
/// target stays bit-identical to the re-run oracle. Debug builds only
/// assert the differential (the ratio there measures the allocator, not
/// the delta pipeline).
#[test]
fn e11_incremental_repair_is_at_least_10x_full_rerun() {
    use wol_repro::morphase::MaterializedPipeline;
    use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

    let params = GenomeParams::scaled(4); // 400 clones, 1200 markers
    let mut pipeline = MaterializedPipeline::new(
        &genome::program(),
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
    )
    .expect("genome pipeline builds");
    let mut gen = TrafficGen::new(pipeline.source(0).unwrap(), 47, TrafficWeights::in_place());

    // Full re-run cost, best-of-two to damp scheduler noise.
    let rerun = |p: &MaterializedPipeline| {
        let start = std::time::Instant::now();
        p.rerun_oracle().expect("oracle runs");
        start.elapsed()
    };
    let rerun_cost = rerun(&pipeline).min(rerun(&pipeline));

    // Incremental cost: the median over a short in-place stream (per-batch
    // best-of is meaningless — every batch advances state — so the median
    // damps the noise instead).
    const BATCHES: usize = 20;
    let mut costs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch = gen.next_batch(4);
        let start = std::time::Instant::now();
        let report = pipeline.apply_batch(&batch).expect("batch applies");
        costs.push(start.elapsed());
        assert_eq!(
            report.outcome,
            wol_repro::morphase::BatchOutcome::InPlace,
            "the in-place preset must never rebuild"
        );
    }
    costs.sort();
    let incremental_cost = costs[BATCHES / 2];

    // Bit-identity against the from-scratch oracle at the end of the stream.
    let oracle = pipeline.rerun_oracle().expect("oracle runs");
    if let Some(diff) = pipeline.target().deep_eq_report(&oracle.target) {
        panic!("maintained target diverged from the oracle: {diff}");
    }
    if cfg!(debug_assertions) {
        eprintln!("[e11] debug build: the 10x ratio is measured by the release CI run only");
        return;
    }
    let speedup = rerun_cost.as_secs_f64() / incremental_cost.as_secs_f64().max(1e-9);
    eprintln!("[e11] rerun {rerun_cost:?}, incremental {incremental_cost:?} ({speedup:.1}x)");
    assert!(
        speedup >= 10.0,
        "expected a >=10x incremental-repair speed-up over a full re-run, got {speedup:.1}x \
         (rerun {rerun_cost:?}, incremental {incremental_cost:?})"
    );
}

/// The E13 pushdown guard (release mode, run by CI): on the federated genome
/// workload — clones in a relational table, markers in an ACeDB-style store,
/// assays in a 20 000-row CSV — running the pipeline with planner pushdown
/// must be at least 3× faster end-to-end than the same pipeline with
/// pushdown off, while the produced target stays bit-identical. The saving
/// is upstream of the executor: the pushed `length`/`position`/`level`
/// guards trim the provider streams before ingest and indexing. Debug
/// builds assert only the differential (the ratio there measures the
/// allocator, not the ingest path).
#[test]
fn e13_federated_pushdown_is_at_least_3x_full_ingest() {
    use wol_repro::storage::ScanProvider;
    use wol_repro::workloads::federated::{self, FederatedParams};

    let params = FederatedParams::scaled(1); // 100 clones, 300 markers, 20 000 assays
    let (csv, ace, rel) = federated::providers(&params);
    let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
    let program = federated::program();
    let run = |pushdown: bool| -> MorphaseRun {
        Morphase::with_options(PipelineOptions {
            pushdown,
            ..PipelineOptions::default()
        })
        .transform_federated(&program, &providers)
        .expect("federated pipeline runs")
    };

    let on = run(true);
    let off = run(false);
    assert_eq!(on.exec.pushed_filters, 3, "all three guards must push");
    assert!(
        on.exec.provider_rows_out < on.exec.provider_rows_in,
        "pushed filters must trim the provider streams: {} -> {}",
        on.exec.provider_rows_in,
        on.exec.provider_rows_out
    );
    assert_eq!(off.exec.pushed_filters, 0);
    assert_eq!(
        off.exec.provider_rows_in, off.exec.provider_rows_out,
        "pushdown-off must ingest the full streams"
    );
    if let Some(diff) = on.target.deep_eq_report(&off.target) {
        panic!("pushdown changed the produced target: {diff}");
    }
    if cfg!(debug_assertions) {
        eprintln!("[e13] debug build: the 3x ratio is measured by the release CI run only");
        return;
    }
    // Best-of-two per mode to damp scheduler noise; total() covers ingest,
    // which is exactly where the pushdown saving lives.
    let measure = |pushdown: bool| -> Duration {
        let first = run(pushdown).timings.total();
        let second = run(pushdown).timings.total();
        first.min(second)
    };
    let on_cost = measure(true);
    let off_cost = measure(false);
    let speedup = off_cost.as_secs_f64() / on_cost.as_secs_f64().max(1e-9);
    eprintln!("[e13] pushdown-on {on_cost:?}, pushdown-off {off_cost:?} ({speedup:.1}x)");
    assert!(
        speedup >= 3.0,
        "expected a >=3x federated pushdown speed-up, got {speedup:.1}x \
         (pushdown-on {on_cost:?}, pushdown-off {off_cost:?})"
    );
}

/// The CSV decode guard, by counting instead of timing: the pushed
/// `LEVEL_FLOOR` filter on the federated assay CSV is evaluated from the
/// `level` lane built at `open`, so the scan lexes exactly the records the
/// filter keeps — not the other ~98 % — while an unfiltered scan lexes every
/// record exactly once.
#[test]
fn csv_scan_lexes_only_the_records_its_laned_filters_keep() {
    use wol_repro::storage::{
        PushOp, Pushdown, PushedFilter, ScanProvider, ScanSummary, DEFAULT_CHUNK_ROWS,
    };
    use wol_repro::wol_model::Value;
    use wol_repro::workloads::federated::{self, FederatedParams};

    let params = FederatedParams::scaled(1); // 20 000 assays
    let (csv, _, _) = federated::providers(&params);
    let class = ClassName::new("AssayC");
    let scan = |pushdown: &Pushdown| -> ScanSummary {
        csv.scan(&class, pushdown, DEFAULT_CHUNK_ROWS, &mut |_| Ok(()))
            .expect("assay scan runs")
    };
    let floor = Pushdown {
        filters: vec![PushedFilter {
            attr: "level".to_string(),
            op: PushOp::Geq,
            value: Value::Int(federated::LEVEL_FLOOR),
        }],
        projection: None,
    };
    let filtered = scan(&floor);
    assert_eq!(filtered.rows_in, params.assays);
    assert!(
        filtered.rows_out > 0 && filtered.rows_out * 10 < filtered.rows_in,
        "the floor should keep a few percent of the rows: {filtered:?}"
    );
    assert_eq!(
        filtered.decoded, filtered.rows_out,
        "the filtered scan lexed records its lane had already rejected: {filtered:?}"
    );
    let full = scan(&Pushdown::none());
    assert_eq!(
        (full.rows_in, full.rows_out, full.decoded),
        (params.assays, params.assays, params.assays),
        "an unfiltered scan lexes every record exactly once"
    );
}

/// The full-size E6 acceptance check (100 clones x 300 markers): the genome
/// join runs on index probes, the ~23M-row cross product is gone (peak
/// operator output far below 1M rows), and the execute phase — ~20-60s
/// before the planner — finishes promptly even in debug builds.
#[test]
fn e6_full_size_genome_pipeline_has_no_cross_products() {
    let params = GenomeParams {
        clones: 100,
        markers: 300,
        density: 0.6,
        seed: 22,
    };
    let source = genome::generate_source(&params);
    let run = Morphase::new()
        .transform(&genome::program(), &[&source][..])
        .expect("genome pipeline runs");

    assert_eq!(run.target.extent_size(&ClassName::new("CloneD")), 100);
    assert_eq!(run.target.extent_size(&ClassName::new("MarkerD")), 300);
    assert!(
        run.exec.max_intermediate_rows < 1_000_000,
        "cross product is back: peak operator output {} rows",
        run.exec.max_intermediate_rows
    );
    assert!(
        run.exec.index_probes > 0,
        "the genome join no longer uses index probes"
    );
    // No plan in the compiled program contains a product operator.
    for plan in &run.plans {
        assert!(
            !plan.contains("CrossJoin") && !plan.contains("NestedLoopJoin"),
            "a product survived planning:\n{plan}"
        );
    }
    // Generous absolute bound (debug builds included): the pre-planner
    // execute phase took tens of seconds in release.
    assert!(
        run.timings.execute < Duration::from_secs(10),
        "execute took {:?}",
        run.timings.execute
    );
}

/// The E12 constraint guard (release mode, run by CI): on the scaled
/// constrained workload, validating a mutation batch with the incremental
/// `check_batch` (read-set analysis + index probes over the delta) must be
/// at least 5× faster than a full `check_constraints` rescan of the same
/// post-batch state, summed over a constraint-dominated stream — while
/// reporting exactly what the rescan reports (clean, here). Debug builds
/// assert only the differential.
#[test]
fn e12_incremental_constraint_checks_are_at_least_5x_faster_than_full_rescans() {
    use std::collections::BTreeSet;
    use std::time::Instant;
    use wol_repro::morphase::MaterializedPipeline;
    use wol_repro::wol_engine::{check_batch, check_constraints, Databases};
    use wol_repro::wol_lang::Clause;
    use wol_repro::workloads::constrained::{self, ConstrainedParams};

    let params = ConstrainedParams::scaled(4); // 1600 users, 2400 profiles, 1600 accounts
    let source = constrained::generate_source(&params);
    // The clause list under test is exactly what the standing pipeline
    // enforces: the augmented program's source constraints, in order.
    let pipeline = MaterializedPipeline::new(
        &constrained::program(),
        vec![source.clone()],
        PipelineOptions::default(),
    )
    .expect("constrained pipeline builds");
    let clauses: Vec<Clause> = pipeline.constraints().to_vec();
    let clause_refs: Vec<&Clause> = clauses.iter().collect();
    drop(pipeline);

    let mut inst = source.clone();
    let mut gen = constrained::ConstrainedGen::new(&source, 51);
    let no_suspects = BTreeSet::new();
    const BATCHES: usize = 30;
    let mut incremental = Duration::ZERO;
    let mut full = Duration::ZERO;
    let mut probes = 0u64;
    for _ in 0..BATCHES {
        let batch = gen.next_batch(6);
        let delta = inst.apply_batch(&batch).expect("batch applies");
        let insts = [&inst];
        let dbs = Databases::new(&insts);
        let start = Instant::now();
        let check = check_batch(
            &clause_refs,
            &dbs,
            &delta,
            cpl::Parallelism::new(1),
            &no_suspects,
        )
        .expect("incremental check runs");
        incremental += start.elapsed();
        let start = Instant::now();
        let oracle = check_constraints(&clause_refs, &dbs).expect("full rescan runs");
        full += start.elapsed();
        assert_eq!(
            check.violations, oracle,
            "incremental and full checks must agree"
        );
        assert!(oracle.is_empty(), "clean traffic must stay clean");
        probes += check.certificate.probes();
    }
    assert!(probes > 0, "the key probes never fired");
    if cfg!(debug_assertions) {
        eprintln!("[e12] debug build: the 5x ratio is measured by the release CI run only");
        return;
    }
    let speedup = full.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    eprintln!("[e12] full {full:?}, incremental {incremental:?} ({speedup:.1}x)");
    assert!(
        speedup >= 5.0,
        "expected a >=5x incremental constraint-check speed-up over full rescans, \
         got {speedup:.1}x (full {full:?}, incremental {incremental:?})"
    );
}

/// The publish-cost guard, by counting instead of timing: a standing
/// pipeline over the `serve_constrained` source (22.4k source objects, 6.4k
/// in the target) publishes a version after every 6-op batch, and each new
/// version must *share* — the same allocations, not equal copies — at least
/// 95 % of its object-store chunks and index shards with the previous one,
/// copying at most four chunks per target object the batch touched. The
/// shards are those of the index a reader probed on an earlier version and
/// the writer adopted, so index maintenance is held to the same bound.
#[test]
fn publishing_a_batch_shares_all_but_the_touched_chunks_with_the_previous_version() {
    use wol_repro::morphase::MaterializedPipeline;
    use wol_repro::wol_model::Value;
    use wol_repro::workloads::constrained::{self, ConstrainedGen, ConstrainedParams};

    let source = constrained::generate_source(&ConstrainedParams::scaled(16));
    let mut pipeline = MaterializedPipeline::new(
        &constrained::program(),
        vec![source.clone()],
        PipelineOptions::default(),
    )
    .expect("constrained pipeline builds");
    let user = ClassName::new("UserD");
    let mut previous = pipeline.target().snapshot();
    // A reader's probe builds the index on the published version; the writer
    // adopts it before the next publish, as `PipelineService` does.
    previous.lookup_by_attr(&user, "email", &Value::str("nobody"));
    assert_eq!(pipeline.target().attr_index_count(), 0);

    let mut gen = ConstrainedGen::new(&source, 22);
    let (mut touched_total, mut copied_total) = (0usize, 0usize);
    for batch in 0..12 {
        let report = pipeline
            .apply_batch(&gen.next_batch(6))
            .expect("clean batch commits");
        pipeline.target().adopt_attr_indexes(&previous);
        let version = pipeline.target().snapshot();
        assert!(version.has_attr_index(&user, "email"));

        // Objects the batch touched, counted from the two versions' content.
        let changed = version
            .all_objects()
            .filter(|(oid, value)| previous.value(oid) != Some(value))
            .count()
            + previous
                .all_objects()
                .filter(|(oid, _)| !version.contains(oid))
                .count();
        let touched = changed.max(report.objects_repaired as usize);
        let sharing = version.storage_shared_with(&previous);
        let copied = sharing.chunks - sharing.shared_chunks;
        assert!(
            copied <= 4 * touched,
            "batch {batch}: {copied} chunks copied for {touched} touched objects ({sharing:?})"
        );
        if batch > 0 {
            // (Version 0 had no index to share: the reader built it there.)
            let (all, shared) = (
                sharing.chunks + sharing.index_shards,
                sharing.shared_chunks + sharing.shared_index_shards,
            );
            assert!(sharing.chunks >= 100 && sharing.index_shards >= 100);
            assert!(
                shared * 100 >= all * 95,
                "batch {batch}: only {shared} of {all} chunks and shards shared ({sharing:?})"
            );
        }
        touched_total += touched;
        copied_total += copied;
        previous = version;
    }
    assert!(touched_total > 0, "the stream never touched the target");
    eprintln!("[publish] {copied_total} chunks copied for {touched_total} touched objects");
}
