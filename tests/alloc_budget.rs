//! Allocation budget of the row executor: heap allocations per produced row
//! on the genome and skew load programs, counted by a counting global
//! allocator around the execute stage alone — every compiled query run with
//! `execute_query`, in schedule order, on one thread.
//!
//! The count is exact and repeats run to run, so the guard is a counter, not
//! a clock: index, histogram and column caches are warmed by a first run that
//! is not counted, and the second run is. Before the executor evaluated by
//! reference over slot-addressed rows it made 13.7 allocations per produced
//! row on genome and 52.1 on skew; the budget is half of each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wol_repro::cpl::expr::EvalCtx;
use wol_repro::cpl::{execute_query, ExecStats, Parallelism, Statistics};
use wol_repro::morphase::metadata::{generate_key_clauses, generate_merge_key_clauses};
use wol_repro::morphase::{compile_program_with, plan_schedule, PlanMode};
use wol_repro::wol_engine::normalize;
use wol_repro::wol_engine::normalize::NormalizeOptions;
use wol_repro::wol_lang::program::Program;
use wol_repro::wol_model::Instance;
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::skewed::{self, SkewedParams};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the only
// addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Compile `program` as the pipeline does (meta-data clauses, normal form,
/// planner over the source's statistics), then execute it twice on one
/// thread and return `(allocations, rows produced)` of the second run.
fn execute_counted(program: Program, source: &Instance) -> (usize, usize) {
    let mut augmented = program;
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
    augmented.validate().expect("program validates");
    let normal = normalize(&augmented, &NormalizeOptions::default()).expect("normalises");
    let refs = [source];
    let stats = Statistics::from_instances(&refs);
    let queries =
        compile_program_with(&normal, PlanMode::PlannerWithStats(&stats)).expect("compiles");
    let schedule = plan_schedule(&queries);
    let run = || {
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut exec = ExecStats::default();
        let mut target = Instance::new("target");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for &qi in schedule.stages.iter().flatten() {
            execute_query(&queries[qi], &mut ctx, &mut target, &mut exec).expect("executes");
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, exec.rows_produced)
    };
    run();
    run()
}

fn assert_budget(name: &str, (allocations, rows): (usize, usize), budget: f64) {
    let per_row = allocations as f64 / rows as f64;
    eprintln!(
        "[alloc_budget] {name}: {allocations} allocations over {rows} rows = {per_row:.2}/row"
    );
    assert!(
        per_row <= budget,
        "{name}: {per_row:.2} allocations per produced row, budget {budget}"
    );
}

#[test]
fn genome_and_skew_execute_within_half_the_allocations_per_row() {
    let genome_source = genome::generate_source(&GenomeParams {
        seed: 22,
        ..GenomeParams::scaled(10)
    });
    let genome = execute_counted(genome::program(), &genome_source);
    assert_eq!(genome.1, 37_501, "genome rows produced");
    assert_budget("genome", genome, 6.8);

    let skew_source = skewed::generate_source(&SkewedParams {
        seed: 22,
        ..SkewedParams::full()
    });
    let skew = execute_counted(skewed::program(), &skew_source);
    assert_eq!(skew.1, 14_672, "skew rows produced");
    assert_budget("skew", skew, 26.0);
}
