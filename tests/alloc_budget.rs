//! Allocation and residency budgets, counted by a counting global allocator:
//! counters, not clocks — each count is exact and repeats run to run.
//!
//! * **Execute.** Heap allocations per produced row on the genome and skew
//!   load programs, around the execute stage alone — every compiled query
//!   run with `execute_query`, in schedule order, on one thread. Index,
//!   histogram and column caches are warmed by a first run that is not
//!   counted, and the second run is. Before the executor evaluated by
//!   reference over slot-addressed rows it made 13.7 allocations per
//!   produced row on genome and 52.1 on skew; with a record as a
//!   `BTreeMap<String, Value>` it made 5.05 and 8.14; with each record built
//!   straight into label order, one allocation, it makes 4.01 and 6.10. The
//!   budgets were those figures rounded up to the next tenth. Since planning
//!   folds the genome program's witness scans, its attribute clauses scan
//!   their class once: 26,501 rows produced instead of 37,501, with 93,686
//!   allocations instead of 135,412 (3.54 per row instead of 3.61). Since a
//!   probe join looks each key tuple up once in the composite index on all
//!   its indexable attributes, appending into one list per partition instead
//!   of a candidate list per probe, genome makes 92,853 (3.50 per row) and
//!   skew 70,031 instead of 84,151 (4.77 per row instead of 5.74). The
//!   budgets are those figures plus 10 %: genome 3.85 (was 3.89), skew 5.25
//!   (was 6.2).
//! * **Federated execute.** The same count for the federated program over
//!   its three fragments ingested whole at `FederatedParams::scaled(1)`.
//!   With every definition bound in one `Map` above the joins it made 13,651
//!   allocations over 23,458 produced rows (0.58 per row). With each filtered
//!   scan binding its own projections it makes 16,197 over 23,828 (0.68):
//!   the tower builds the bound values for every survivor, joined or not,
//!   the joins copy them into their output rows, and each scan's `Map`
//!   counts its rows once more. The budget is that figure plus 10 %.
//! * **Ingest.** `ingest_class` of a generated 20,000-row `AssayC` CSV
//!   fragment (five fields per record): heap bytes left resident per object
//!   — the record, its values and the extent — and allocations per ingested
//!   row. With a record as a `BTreeMap<String, Value>` the fragment held
//!   1,031 bytes and made 34.4 allocations per row; as one sorted slice of
//!   interned labels, 611 bytes and 19.4, of which an index and a histogram
//!   per attribute, built alongside the stream, held about half the bytes.
//!   Ingest now builds neither (a plan that reads an attribute builds its
//!   index or histogram lazily), and the fragment holds 316 bytes and makes
//!   13.3 allocations per row. The budgets are those figures plus 10 %.
//! * **Front end.** Allocations per normal clause of `Morphase::compile`
//!   over the eleven programs of wolbench's `compile_suite` (371 normal
//!   clauses), counted on a second pass so label interning is not counted.
//!   When the typechecker cloned a class's whole record type per
//!   projection, the planner copied each plan and rebuilt `String` variable
//!   sets per conjunct and pair, and the pipeline walked every plan's
//!   estimates twice, it made 1,771; with schema types borrowed, variables
//!   addressed by scan index and one estimate walk it made 423.5, and 413.8
//!   later (153,513 in all). With every variable an interned `Copy` name
//!   instead of a `String` — renaming interns, every other copy copies a
//!   pointer — it made 232.1 (86,094). With the translator handing the
//!   planner its scans, definitions and conjuncts instead of a raw plan it
//!   took apart again, definitions inlined in place, scan sets as bitsets
//!   and each rendering written into one string, it makes 145.1 (53,824).
//!   The budget is that figure plus 10 % (it was 255.3). A second compile,
//!   its results dropped, leaves no live heap bytes: a name is interned
//!   once, on the first pass.
//! * **Columnar tower.** Allocations per scanned row of `run_slots` on the
//!   E10 tower (`MarkerS`, `position =< 25,000,000`, map `NAME` / `POS`) at
//!   genome scale 100 — 30,000 rows scanned, 9,032 kept — with the columnar
//!   path forced on, one thread, and the row index and columns built by a
//!   first run that is not counted. With the tower compiling `Expr` into its
//!   own predicate form it made 18,102 (0.603 per scanned row: each kept
//!   row's slot vector and its `NAME` string). The budget is that figure
//!   plus 10 %.
//! * **Constraint checks.** Allocations per body binding of one full check
//!   (the constraint passed to `check_batch` as a suspect) of each source
//!   constraint of the constrained program over
//!   `ConstrainedParams::scaled(16)` — `S1` a merge key (6,400 bindings),
//!   `S2` an existence constraint (9,600) and `S3` a Skolem key (6,400) —
//!   counted on a second run, after the first has built the attribute
//!   index the check probes. When the check collected every body binding
//!   into its own map and re-planned and collected the witnesses of each,
//!   it made 37.0, 31.0 and 18.3. Run as one streaming pass over the
//!   matcher's frame it made 21, 17 and 19,238 allocations in all (0.0033,
//!   0.0018 and 3.01 per binding): `S1` and `S2` allocate nothing per
//!   binding, and `S3` made three — the code its body binds, the key value,
//!   and the copy of it that keyed the key-to-object map. With each key
//!   value stored once, in per-class maps looked up by the value, `S3`
//!   made two (12,839 in all, 2.006 per binding). Since the two keys are
//!   answered from the attribute index — one walk over its buckets, no
//!   matcher pass — `S1` makes 5 allocations in all and `S3` 6 (0.0008 and
//!   0.0009 per binding), `S2` (still matched) 14. The budgets are those
//!   figures plus 10 %, `S2`'s the earlier 0.002.
//! * **Interning.** Interner lookups across one genome execute, one skew
//!   execute (its root join probes a two-attribute composite index), one CSV
//!   ingest, a standing genome pipeline's maintained serving batches, and one
//!   snapshot decode plus WAL replay are the same at two row or batch
//!   counts: labels, class names and variables are resolved once per
//!   program, provider, scan, probe join, lazily built structure and
//!   decoder, never per row, probe or batch.
//!
//! The counters are process-wide, so the tests take one lock and run one at
//! a time.

mod compile_suite;
mod federated_source;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use wol_repro::cpl::expr::EvalCtx;
use wol_repro::cpl::{execute_query, ExecStats, Parallelism, Statistics};
use wol_repro::morphase::metadata::{generate_key_clauses, generate_merge_key_clauses};
use wol_repro::morphase::{
    compile_program_with, plan_schedule, MaterializedPipeline, Morphase, PlanMode,
};
use wol_repro::storage::persist::snapshot::{decode_snapshot, encode_snapshot};
use wol_repro::storage::persist::{replay_wal, WalRecord, WalWriter};
use wol_repro::storage::{ingest_class, CsvDirProvider, Pushdown, DEFAULT_CHUNK_ROWS};
use wol_repro::wol_engine::normalize;
use wol_repro::wol_engine::normalize::NormalizeOptions;
use wol_repro::wol_engine::{check_batch, CheckMode, Databases};
use wol_repro::wol_lang::program::Program;
use wol_repro::wol_model::{interner_lookups, BatchDelta, ClassName, Instance, SkolemState};
use wol_repro::workloads::constrained::{self, ConstrainedParams};
use wol_repro::workloads::federated::{self, generate_assay_csv, FederatedParams};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::skewed::{self, SkewedParams};
use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

/// The system allocator, counting every allocation and reallocation and
/// the bytes live at any moment.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters are the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One test at a time: the counters see the whole process.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one counted stretch cost.
#[derive(Clone, Copy, Debug)]
struct Counted {
    allocations: usize,
    interner_lookups: u64,
    rows: usize,
}

/// Compile `program` as the pipeline does (meta-data clauses, normal form,
/// planner over the source's statistics), then execute it twice on one
/// thread and count the second run.
fn execute_counted(program: Program, source: &Instance) -> Counted {
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
        let before = (ALLOCATIONS.load(Ordering::Relaxed), interner_lookups());
        for &qi in schedule.stages.iter().flatten() {
            execute_query(&queries[qi], &mut ctx, &mut target, &mut exec).expect("executes");
        }
        Counted {
            allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
            interner_lookups: interner_lookups() - before.1,
            rows: exec.rows_produced,
        }
    };
    run();
    run()
}

/// `ingest_class` of a generated `AssayC` CSV fragment of `assays` rows
/// into an empty instance: what the call cost, and the heap bytes it left
/// resident (the instance is measured before it is dropped).
fn ingest_counted(assays: usize) -> (Counted, isize) {
    let params = FederatedParams {
        assays,
        ..FederatedParams::default()
    };
    let provider = CsvDirProvider::from_texts(vec![(
        "AssayC".to_string(),
        "generated://AssayC.csv".to_string(),
        generate_assay_csv(&params),
    )])
    .expect("generated CSV parses");
    let class = ClassName::new("AssayC");
    let pushdown = Pushdown::none();
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let before = (ALLOCATIONS.load(Ordering::Relaxed), interner_lookups());
    let mut instance = Instance::new("federated");
    let stats = ingest_class(
        &mut instance,
        &provider,
        &class,
        &pushdown,
        DEFAULT_CHUNK_ROWS,
    )
    .expect("ingests");
    let counted = Counted {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        interner_lookups: interner_lookups() - before.1,
        rows: stats.rows_out,
    };
    let resident = LIVE_BYTES.load(Ordering::Relaxed) - live;
    assert_eq!(instance.extent_size(&class), assays);
    drop(instance);
    (counted, resident)
}

fn assert_per_row(name: &str, what: &str, total: f64, rows: usize, budget: f64) {
    let per_row = total / rows as f64;
    eprintln!("[alloc_budget] {name}: {total} {what} over {rows} rows = {per_row:.2}/row");
    assert!(
        per_row <= budget,
        "{name}: {per_row:.2} {what} per row, budget {budget}"
    );
}

fn genome_source(scale: usize) -> Instance {
    genome::generate_source(&GenomeParams {
        seed: 22,
        ..GenomeParams::scaled(scale)
    })
}

#[test]
fn genome_and_skew_execute_within_half_the_allocations_per_row() {
    let _serial = serial();
    let genome = execute_counted(genome::program(), &genome_source(10));
    assert_eq!(genome.rows, 26_501, "genome rows produced");
    let allocations = genome.allocations as f64;
    assert_per_row("genome", "allocations", allocations, genome.rows, 3.85);

    let skew_source = skewed::generate_source(&SkewedParams {
        seed: 22,
        ..SkewedParams::full()
    });
    let skew = execute_counted(skewed::program(), &skew_source);
    assert_eq!(skew.rows, 14_672, "skew rows produced");
    assert_per_row(
        "skew",
        "allocations",
        skew.allocations as f64,
        skew.rows,
        5.25,
    );
}

#[test]
fn federated_execute_within_the_allocations_per_row_budget() {
    let _serial = serial();
    let source = federated_source::fully_ingested(&FederatedParams::scaled(1));
    let counted = execute_counted(federated::program(), &source);
    assert_eq!(counted.rows, 23_828, "federated rows produced");
    assert_per_row(
        "federated",
        "allocations",
        counted.allocations as f64,
        counted.rows,
        0.748,
    );
}

#[test]
fn csv_ingest_within_the_resident_bytes_and_allocations_per_row_budgets() {
    let _serial = serial();
    let (ingest, resident) = ingest_counted(20_000);
    assert_eq!(ingest.rows, 20_000);
    assert_per_row(
        "ingest",
        "resident bytes",
        resident as f64,
        ingest.rows,
        348.0,
    );
    assert_per_row(
        "ingest",
        "allocations",
        ingest.allocations as f64,
        ingest.rows,
        14.7,
    );
}

#[test]
fn interner_lookups_do_not_grow_with_rows() {
    let _serial = serial();
    let small = execute_counted(genome::program(), &genome_source(2));
    let large = execute_counted(genome::program(), &genome_source(10));
    eprintln!(
        "[alloc_budget] genome execute: {} interner lookups over {} rows, {} over {}",
        small.interner_lookups, small.rows, large.interner_lookups, large.rows
    );
    assert!(large.rows > 4 * small.rows);
    assert_eq!(large.interner_lookups, small.interner_lookups);

    let skew = |params: SkewedParams| {
        let source = skewed::generate_source(&SkewedParams { seed: 22, ..params });
        execute_counted(skewed::program(), &source)
    };
    let (small, large) = (skew(SkewedParams::reduced()), skew(SkewedParams::full()));
    eprintln!(
        "[alloc_budget] skew execute: {} interner lookups over {} rows, {} over {}",
        small.interner_lookups, small.rows, large.interner_lookups, large.rows
    );
    assert!(large.rows > 2 * small.rows);
    assert_eq!(large.interner_lookups, small.interner_lookups);

    let (small, _) = ingest_counted(2_000);
    let (large, _) = ingest_counted(20_000);
    eprintln!(
        "[alloc_budget] csv ingest: {} interner lookups over {} rows, {} over {}",
        small.interner_lookups, small.rows, large.interner_lookups, large.rows
    );
    assert_eq!(large.interner_lookups, small.interner_lookups);

    let (small, large) = (maintain_counted(10), maintain_counted(40));
    eprintln!(
        "[alloc_budget] maintained batches: {} interner lookups over {} batches, {} over {}",
        small.interner_lookups, small.rows, large.interner_lookups, large.rows
    );
    assert!(large.rows > 2 * small.rows);
    assert_eq!(large.interner_lookups, small.interner_lookups);

    let small = decode_counted(&genome_source(2));
    let large = decode_counted(&genome_source(10));
    eprintln!(
        "[alloc_budget] snapshot + wal decode: {} interner lookups over {} objects, {} over {}",
        small.interner_lookups, small.rows, large.interner_lookups, large.rows
    );
    assert!(large.rows > 4 * small.rows);
    assert_eq!(large.interner_lookups, small.interner_lookups);
}

/// Apply `batches` mixed serving batches of four operations to a standing
/// genome pipeline, counting the interner lookups of the applies alone (the
/// batches are generated first: building a record interns its labels).
fn maintain_counted(batches: usize) -> Counted {
    let source = genome_source(4);
    let mut pipeline =
        MaterializedPipeline::new(&genome::program(), vec![source.clone()], Default::default())
            .expect("genome pipeline builds");
    let mut traffic = TrafficGen::new(&source, 22, TrafficWeights::mixed());
    let stream: Vec<_> = (0..batches).map(|_| traffic.next_batch(4)).collect();
    let before = (ALLOCATIONS.load(Ordering::Relaxed), interner_lookups());
    for batch in &stream {
        pipeline.apply_batch(batch).expect("batch applies");
    }
    Counted {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        interner_lookups: interner_lookups() - before.1,
        rows: batches,
    }
}

/// Decode a snapshot of `source`, then replay a WAL holding one insert
/// record per object of it, counting the interner lookups of the two.
fn decode_counted(source: &Instance) -> Counted {
    let snapshot = encode_snapshot(source, &SkolemState::default(), 0, None);
    let records: Vec<WalRecord> = source
        .all_objects()
        .map(|(oid, value)| WalRecord::Insert(oid.clone(), value.clone()))
        .collect();
    let mut wal = WalWriter::new(Vec::new(), 0, 0);
    wal.append_batch(&records, "<wal>").expect("appends");
    let wal = wal.into_sink();
    let before = (ALLOCATIONS.load(Ordering::Relaxed), interner_lookups());
    let restored = decode_snapshot(&snapshot, "<snapshot>").expect("decodes");
    let replay = replay_wal(&wal, "<wal>", 0);
    let counted = Counted {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        interner_lookups: interner_lookups() - before.1,
        rows: records.len(),
    };
    assert_eq!(restored.instance.deep_eq_report(source), None);
    assert_eq!(replay.batches, vec![records]);
    counted
}

/// The columnar tower's allocations per scanned row (see the module docs).
const BUDGET_PER_SCANNED_ROW: f64 = 0.664;

#[test]
fn columnar_tower_scans_within_the_allocations_per_row_budget() {
    use wol_repro::cpl::{run_slots, Expr, Plan};
    use wol_repro::wol_model::Value;

    let _serial = serial();
    let source = genome::generate_source(&GenomeParams::scaled(100));
    let refs = [&source];
    let plan = Plan::scan("MarkerS", "M")
        .filter(Expr::Leq(
            Box::new(Expr::var("M").proj("position")),
            Box::new(Expr::Const(Value::int(25_000_000))),
        ))
        .map(vec![
            ("NAME".into(), Expr::var("M").proj("name")),
            ("POS".into(), Expr::var("M").proj("position")),
        ]);
    let run = || {
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        ctx.set_columnar(true);
        let mut stats = ExecStats::default();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rows = run_slots(&plan, &mut ctx, &mut stats).expect("tower runs");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(ctx.columnar_stats().pipelines, 1, "the tower runs columnar");
        (allocations, stats.rows_scanned, rows.len())
    };
    // The first run builds the row index and the columns.
    run();
    let (allocations, scanned, kept) = run();
    assert_eq!((scanned, kept), (30_000, 9_032), "rows scanned and kept");
    assert_per_row(
        "columnar tower",
        "allocations",
        allocations as f64,
        scanned,
        BUDGET_PER_SCANNED_ROW,
    );
}

/// The front end's allocations per normal clause (see the module docs).
const BUDGET_PER_CLAUSE: f64 = 159.6;

#[test]
fn front_end_compiles_within_the_allocations_per_normal_clause_budget() {
    let _serial = serial();
    let programs: Vec<Program> = compile_suite::SUITE
        .iter()
        .map(|(_, build, _)| build())
        .collect();
    let compile_all = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut clauses = 0;
        for program in &programs {
            clauses += Morphase::new()
                .compile(program)
                .expect("compiles")
                .normal
                .len();
        }
        (ALLOCATIONS.load(Ordering::Relaxed) - before, clauses)
    };
    compile_all();
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let (allocations, clauses) = compile_all();
    // Every name was interned by the first pass: the second, its results
    // dropped, leaves nothing behind.
    assert_eq!(
        LIVE_BYTES.load(Ordering::Relaxed) - live,
        0,
        "live heap bytes left by a second compile of the suite"
    );
    assert_eq!(clauses, 371, "normal clauses");
    let per_clause = allocations as f64 / clauses as f64;
    eprintln!(
        "[alloc_budget] front end: {allocations} allocations over {clauses} normal clauses \
         = {per_clause:.2}/clause"
    );
    assert!(
        per_clause <= BUDGET_PER_CLAUSE,
        "front end: {per_clause:.2} allocations per normal clause, budget {BUDGET_PER_CLAUSE}"
    );
}

/// Allocations per body binding of one full check of each source constraint
/// of the constrained program (see the module docs).
const BUDGETS_PER_BINDING: [(&str, f64); 3] = [("S1", 0.0009), ("S2", 0.002), ("S3", 0.0011)];

#[test]
fn constraint_checks_within_the_allocations_per_binding_budget() {
    let _serial = serial();
    let program = constrained::program();
    let source = constrained::generate_source(&ConstrainedParams::scaled(16));
    let dbs = Databases::new(&[&source]);
    let suspect: BTreeSet<usize> = [0].into_iter().collect();
    for (label, budget) in BUDGETS_PER_BINDING {
        let clause = program
            .source_constraints()
            .into_iter()
            .map(|(_, clause)| clause)
            .find(|clause| clause.label.as_deref() == Some(label))
            .expect("the constrained program has the constraint");
        // As a suspect the constraint is checked in full; the first run
        // builds the attribute index the check probes.
        let full_check = || {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let check = check_batch(
                &[clause],
                &dbs,
                &BatchDelta::default(),
                Parallelism::sequential(),
                &suspect,
            )
            .expect("the check runs");
            let entry = &check.certificate.entries[0];
            assert_eq!((entry.mode, entry.violations.len()), (CheckMode::Full, 0));
            (ALLOCATIONS.load(Ordering::Relaxed) - before, entry.checked)
        };
        full_check();
        let (allocations, bindings) = full_check();
        let per_binding = allocations as f64 / bindings as f64;
        eprintln!(
            "[alloc_budget] constraint {label}: {allocations} allocations over {bindings} \
             body bindings = {per_binding:.4}/binding"
        );
        assert!(
            per_binding <= budget,
            "constraint {label}: {per_binding:.4} allocations per body binding, budget {budget}"
        );
    }
}
