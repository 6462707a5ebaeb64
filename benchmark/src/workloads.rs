//! The seven workloads. Each is a closed loop driven by the harness main
//! thread: set-up (repeated, median reported), unrecorded warm-up operations,
//! the measured operations, then output checks that do not trust the engine.
//!
//! The one-shot workloads share [`run_one_shot`]; the two `serve_*` workloads
//! share [`run_serve`]. With tracing on, one-shot workloads alternate the
//! direct call with the staged replay of `engine_api::staged_transform`, and
//! serve workloads run the identical batch stream against progressively
//! larger stacks (bare instance, + constraint check, bare pipeline, durable
//! pipeline, the service), so each layer's share is a measured difference.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::calib;
use crate::engine_api::{self as api, stage};
use crate::spec::WorkloadSpec;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self, Tracer, OP_SPAN};

/// Unrecorded operations before each measured phase.
const WARMUP_OPS: usize = 5;
/// Set-ups per run: at least `SETUP_MIN`, then more while they are cheap —
/// until `SETUP_BUDGET` is spent or `SETUP_MAX` is reached. `setup_s` is the
/// median, so a cheap set-up gets the samples that steady it.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Repetitions of each stand-alone probe (cold builds, provider scans, clones).
const PROBE_REPEATS: usize = 3;

/// The open-loop reader's schedule: one read every 500 µs (2,000 reads/s).
const READ_PERIOD: Duration = Duration::from_micros(500);
/// The reader sleeps to within this of a due time and spins the rest, so
/// timer slack does not read as latency.
const READ_SPIN: Duration = Duration::from_micros(120);
/// The reader re-samples its host-speed factor every this many slots.
const READ_CALIBRATE_EVERY: u64 = 64;
/// A read that starts this long after it was due counts as late.
const READ_LATE: Duration = Duration::from_micros(250);

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct RunCfg {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    /// Measured operations for this run (already scaled).
    pub ops: usize,
    pub trace: bool,
    /// One set-up only (smoke and traced runs, which do not report `setup_s`).
    pub single_setup: bool,
    /// This process's scratch directory (exists; removed by the caller).
    pub scratch: PathBuf,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    fn push(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    fn equal<T: PartialEq + std::fmt::Debug>(&mut self, name: impl Into<String>, got: T, want: T) {
        let ok = got == want;
        self.push(name, ok, format!("got {got:?}, expected {want:?}"));
    }

    /// `None` from `deep_eq_report` means bit-identical.
    fn identical(&mut self, name: impl Into<String>, report: Option<String>) {
        let ok = report.is_none();
        self.push(
            name,
            ok,
            report.unwrap_or_else(|| "bit-identical".to_string()),
        );
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: Metrics,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<&'static str, usize>,
    pub tracer: Tracer,
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.spec.name {
        "compile_suite" => run_one_shot(cfg, |_| Ok(CompileSuite)),
        "load_genome" => run_one_shot(cfg, |cfg| Ok(Load::genome(cfg.seed))),
        "load_skew" => run_one_shot(cfg, |cfg| Ok(Load::skew(cfg.seed))),
        "load_federated" => run_one_shot(cfg, LoadFederated::setup),
        "requery_warm" => run_one_shot(cfg, RequeryWarm::setup),
        "serve_mixed" => run_serve(cfg, ServeKind::Mixed),
        "serve_constrained" => run_serve(cfg, ServeKind::Constrained),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Whether another set-up repetition is due (see [`SETUP_MIN`]).
fn more_setups(cfg: &RunCfg, done_s: &[f64]) -> bool {
    if cfg.single_setup {
        return done_s.is_empty();
    }
    done_s.len() < SETUP_MIN
        || (done_s.len() < SETUP_MAX && done_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
}

/// A measured duration with the host-speed factor that held around it (see
/// [`crate::calib`]). Metrics use the scaled value; the raw one is kept for
/// the `*_raw` diagnostics.
#[derive(Clone, Copy)]
struct Took {
    raw: Duration,
    factor: f64,
}

impl Took {
    /// Milliseconds at the nominal host speed.
    fn ms(self) -> f64 {
        self.raw_ms() * self.factor
    }

    /// Seconds at the nominal host speed.
    fn secs(self) -> f64 {
        self.ms() / 1e3
    }

    fn raw_ms(self) -> f64 {
        self.raw.as_secs_f64() * 1e3
    }
}

/// Times a stretch of work between two calibration samples.
struct Stopwatch {
    before_us: f64,
    start: Instant,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        let before_us = calib::sample();
        Stopwatch {
            before_us,
            start: Instant::now(),
        }
    }

    fn stop(self) -> Took {
        let raw = self.start.elapsed();
        Took {
            raw,
            factor: calib::factor(self.before_us, calib::sample()),
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Took, T) {
    let watch = Stopwatch::start();
    let out = f();
    (watch.stop(), out)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end timing metrics every workload reports.
fn timing_metrics(metrics: &mut Metrics, setup_s: &[f64], op_ms: &[f64]) {
    let s = sorted(op_ms.to_vec());
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    metrics.insert("setup_s", median(setup_s));
    // Ops over the time spent inside ops: harness work between ops (cloning a
    // source, generating a batch) is not the engine's.
    metrics.insert(
        "ops_per_s",
        if busy_s > 0.0 {
            op_ms.len() as f64 / busy_s
        } else {
            0.0
        },
    );
    metrics.insert("op_p50_ms", percentile(&s, 50.0));
    metrics.insert("op_p90_ms", percentile(&s, 90.0));
    metrics.insert("peak_rss_mb", peak_rss_mb());
}

// ---------------------------------------------------------------------------
// One-shot workloads
// ---------------------------------------------------------------------------

/// Counters a staged replay hands back (summed over the programs of one op).
#[derive(Default)]
struct StagedCounters {
    clauses: usize,
    snf_atoms: usize,
    normal_clauses: usize,
    exec: api::ExecStats,
    columnar: api::ColumnarStats,
    est_error_max: f64,
    provider_rows_in: usize,
    provider_rows_out: usize,
}

impl StagedCounters {
    fn absorb(&mut self, run: &api::StagedRun) {
        self.clauses += run.clauses;
        self.snf_atoms += run.snf_atoms;
        self.normal_clauses += run.normal_clauses;
        self.exec.absorb(run.exec);
        self.columnar.absorb(&run.columnar);
        self.est_error_max = self.est_error_max.max(run.est_error_max);
    }
}

/// What one operation produced.
struct OpOut {
    /// `None` for compile-only operations.
    target: Option<api::Instance>,
    /// (normal clauses, normal-form size) of each program the op compiled.
    normal: Vec<(usize, usize)>,
    staged: Option<StagedCounters>,
}

impl OpOut {
    fn normal_size(&self) -> usize {
        self.normal.iter().map(|n| n.1).sum()
    }

    /// The output of a direct `transform` / `transform_federated`.
    fn direct(run: api::MorphaseRun) -> OpOut {
        OpOut {
            normal: vec![(run.normal.len(), run.normal.size())],
            target: Some(run.target),
            staged: None,
        }
    }

    /// The output of a staged replay; `counters` may already hold what the
    /// caller counted itself (provider rows).
    fn staged(run: api::StagedRun, mut counters: StagedCounters) -> OpOut {
        counters.absorb(&run);
        OpOut {
            normal: vec![(run.normal_clauses, run.normal_size)],
            target: Some(run.target),
            staged: Some(counters),
        }
    }
}

trait OneShot {
    /// One operation through the engine's own entry point. Returns the time
    /// inside the engine (per-op preparation excluded) and the output.
    fn direct(&self) -> Result<(Took, OpOut), String>;
    /// The same operation as a staged replay, wrapped in an [`OP_SPAN`].
    fn staged(&self, tr: &mut Tracer) -> Result<(Took, OpOut), String>;
    /// Target classes and the extents the harness expects of them,
    /// recomputed from the generated inputs.
    fn expected(&self) -> Vec<(&'static str, usize)>;
    /// Cheap per-op check: the expected extents.
    fn plausible(&self, out: &OpOut) -> bool {
        out.target.as_ref().is_some_and(|target| {
            self.expected()
                .iter()
                .all(|(class, want)| extent(target, class) == *want)
        })
    }
    /// End-of-run checks on the last output.
    fn check(&self, out: &OpOut, checks: &mut Checks) {
        let Some(target) = &out.target else {
            checks.push("load produced a target", false, "");
            return;
        };
        for (class, want) in self.expected() {
            checks.equal(format!("{class} extent"), extent(target, class), want);
        }
    }
    /// An instance whose caches the cold-build probes may build, with the
    /// program whose source schema names the attributes to touch.
    fn probe_instance(&self) -> Option<(api::Program, Cow<'_, api::Instance>)>;
    /// Extra stand-alone probes (provider scans).
    fn probes(&self, _metrics: &mut Metrics) -> Result<(), String> {
        Ok(())
    }
}

/// `setup` generates the inputs from the seed and stands up whatever the
/// operation needs; the warm-up operations that follow count as set-up too.
fn run_one_shot<W: OneShot>(
    cfg: &RunCfg,
    setup: impl Fn(&RunCfg) -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    while more_setups(cfg, &setup_s) {
        // Free the previous set-up first: peak RSS is one set-up's, not two.
        drop(workload.take());
        // Stand-up and each warm-up op are scaled separately: a set-up is long
        // enough for the host to change speed inside it.
        let (stand_up, built) = timed(|| setup(cfg));
        let built = built?;
        let mut total_s = stand_up.secs();
        for _ in 0..WARMUP_OPS {
            total_s += built.direct()?.0.secs();
        }
        setup_s.push(total_s);
        workload = Some(built);
    }
    let w = workload.expect("at least one set-up ran");

    let mut tr = Tracer::new(cfg.trace);
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut samples = BTreeMap::new();
    let mut failed = 0u64;
    let mut op_ms = Vec::with_capacity(cfg.ops);
    let mut last: Option<OpOut> = None;
    let mut raw_ms = Vec::with_capacity(cfg.ops);

    if !cfg.trace {
        for _ in 0..cfg.ops {
            match w.direct() {
                Ok((took, out)) => {
                    raw_ms.push(took.raw_ms());
                    op_ms.push(took.ms());
                    if !w.plausible(&out) {
                        failed += 1;
                    }
                    last = Some(out);
                }
                Err(e) => {
                    eprintln!("[wolbench] {}: op failed: {e}", cfg.spec.name);
                    failed += 1;
                }
            }
        }
    } else {
        // Direct call and staged replay alternate, so drift hits both alike.
        let mut direct_ms = Vec::with_capacity(cfg.ops);
        let mut identical = true;
        let mut mismatch = String::new();
        for op in 0..cfg.ops {
            let (direct_took, direct_out) = w.direct()?;
            tr.set_op(op as u64);
            let (staged_took, staged_out) = w.staged(&mut tr)?;
            tr.scale_op(op as u64, staged_took.factor);
            direct_ms.push(direct_took.ms());
            raw_ms.push(staged_took.raw_ms());
            op_ms.push(staged_took.ms());
            let report = match (&direct_out.target, &staged_out.target) {
                (Some(a), Some(b)) => b.deep_eq_report(a),
                _ => None,
            };
            if report.is_some() || direct_out.normal != staged_out.normal {
                identical = false;
                mismatch = report.unwrap_or_else(|| "normal-form sizes differ".to_string());
                failed += 1;
            }
            if !w.plausible(&staged_out) {
                failed += 1;
            }
            last = Some(staged_out);
        }
        checks.push(
            "staged replay is bit-identical to the direct call on every op",
            identical,
            mismatch,
        );
        // Medians, not sums: one hiccup in ten ops must not decide the ratio.
        // Tracing a one-shot op *is* replaying it, so the overhead is the
        // same comparison read as a share.
        let direct_p50 = median(&direct_ms);
        let ratio = if direct_p50 > 0.0 {
            median(&op_ms) / direct_p50
        } else {
            0.0
        };
        metrics.insert("trace.replay_vs_direct", ratio);
        metrics.insert("trace.overhead_share", ratio - 1.0);
        metrics.insert(
            "trace.unattributed_share",
            trace::unattributed_share(tr.spans()),
        );
        for (metric, span) in [
            ("wol-lang.parse_ms", stage::PARSE),
            ("wol-lang.validate_ms", stage::VALIDATE),
            ("morphase.metadata_ms", stage::METADATA),
            ("wol-engine.snf_ms", stage::SNF),
            ("wol-engine.normalize_ms", stage::NORMALIZE),
            ("cpl.optimizer.stats_ms", stage::STATS),
            ("morphase.compile_ms", stage::COMPILE),
            ("morphase.teardown_ms", stage::TEARDOWN),
            ("cpl.exec.execute_ms", stage::EXECUTE),
            ("wol-model.validate_ms", stage::MODEL_VALIDATE),
            ("wol-engine.constraints.verify_ms", stage::VERIFY),
            ("storage.provider.ingest_ms", stage::INGEST),
            ("morphase.federate.glue_ms", stage::GLUE),
        ] {
            metrics.insert(metric, tr.median_ms(span));
        }
        if let Some(counters) = last.as_ref().and_then(|out| out.staged.as_ref()) {
            staged_counter_metrics(&mut metrics, counters);
        }
        if let Some((program, instance)) = w.probe_instance() {
            cache_probes(&mut metrics, &program, &instance);
        }
        w.probes(&mut metrics)?;
    }

    match &last {
        Some(out) => {
            w.check(out, &mut checks);
            metrics.insert("normal_form_size", out.normal_size() as f64);
        }
        None => checks.push("at least one op completed", false, ""),
    }
    timing_metrics(&mut metrics, &setup_s, &op_ms);
    metrics.insert("op_p50_raw_ms", median(&raw_ms));
    samples.insert("op", op_ms.len());
    samples.insert("setup", setup_s.len());
    if cfg.trace {
        metrics.insert("harness.op_p90_ms", metrics["op_p90_ms"]);
    }
    Ok(Outcome {
        attempted: cfg.ops as u64,
        failed,
        checks,
        metrics,
        samples,
        tracer: tr,
    })
}

fn staged_counter_metrics(metrics: &mut Metrics, c: &StagedCounters) {
    metrics.insert("wol-lang.clauses", c.clauses as f64);
    metrics.insert("wol-engine.snf_atoms", c.snf_atoms as f64);
    metrics.insert("wol-engine.normal_clauses", c.normal_clauses as f64);
    exec_counter_metrics(metrics, &c.exec);
    metrics.insert("cpl.optimizer.est_error_max", c.est_error_max);
    metrics.insert("cpl.columnar.pipelines", c.columnar.pipelines as f64);
    metrics.insert("cpl.columnar.batch_rows", c.columnar.batch_rows as f64);
    metrics.insert("cpl.columnar.chunks", c.columnar.chunks as f64);
    metrics.insert("storage.provider.rows_in", c.provider_rows_in as f64);
    metrics.insert("storage.provider.rows_out", c.provider_rows_out as f64);
    metrics.insert(
        "storage.provider.selectivity",
        if c.provider_rows_in > 0 {
            c.provider_rows_out as f64 / c.provider_rows_in as f64
        } else {
            0.0
        },
    );
}

fn exec_counter_metrics(metrics: &mut Metrics, exec: &api::ExecStats) {
    metrics.insert("cpl.exec.rows_scanned", exec.rows_scanned as f64);
    metrics.insert("cpl.exec.rows_produced", exec.rows_produced as f64);
    metrics.insert("cpl.exec.index_probes", exec.index_probes as f64);
    let lookups = exec.index_probes + exec.probe_cache_hits;
    metrics.insert(
        "cpl.exec.probe_cache_hit_share",
        if lookups > 0 {
            exec.probe_cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    metrics.insert("cpl.exec.objects_written", exec.objects_written as f64);
    metrics.insert(
        "cpl.exec.max_intermediate_rows",
        exec.max_intermediate_rows as f64,
    );
}

/// Cold cost of each lazily built cache, and of the deep copy that drops them:
/// touch every (class, attribute) of the source schema on a fresh clone.
fn cache_probes(metrics: &mut Metrics, program: &api::Program, instance: &api::Instance) {
    let attrs = api::source_attributes(program);
    let absent = api::Value::str("\u{0}wolbench-absent");
    let (mut clone_ms, mut index_ms, mut histogram_ms, mut column_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPEATS {
        // `Instance::clone` drops the cache, so every repetition builds cold.
        let (took, fresh) = timed(|| instance.clone());
        clone_ms.push(took.ms());
        let (took, ()) = timed(|| {
            for (class, attr) in &attrs {
                std::hint::black_box(fresh.lookup_by_attr(class, attr, &absent));
            }
        });
        index_ms.push(took.ms());
        let (took, ()) = timed(|| {
            for (class, attr) in &attrs {
                std::hint::black_box(fresh.attr_histogram(class, attr));
            }
        });
        histogram_ms.push(took.ms());
        let (took, ()) = timed(|| {
            for (class, attr) in &attrs {
                std::hint::black_box(fresh.attr_column(class, attr));
            }
        });
        column_ms.push(took.ms());
    }
    metrics.insert("wol-model.instance.clone_ms", median(&clone_ms));
    metrics.insert("wol-model.index.cold_build_ms", median(&index_ms));
    metrics.insert("wol-model.histogram.cold_build_ms", median(&histogram_ms));
    metrics.insert("wol-model.column.cold_build_ms", median(&column_ms));
}

/// Distinct string values of `attr` over the extent of `class`, counted by the
/// harness itself.
fn distinct_names(instance: &api::Instance, class: &str, attr: &str) -> usize {
    instance
        .objects(&api::ClassName::new(class))
        .filter_map(|(_, value)| match value.project(attr) {
            Some(api::Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect::<BTreeSet<_>>()
        .len()
}

fn extent(instance: &api::Instance, class: &str) -> usize {
    instance.extent_size(&api::ClassName::new(class))
}

// --- compile_suite ----------------------------------------------------------

/// Builds a program from its text, so calling it is the parse.
type Build = fn() -> api::Program;

/// The eleven programs of `compile_suite`.
const SUITE: [(&str, Build); 11] = [
    ("wide_partial_16_4_key", || {
        api::wide::partial_program(16, 4, true)
    }),
    ("wide_partial_32_8_key", || {
        api::wide::partial_program(32, 8, true)
    }),
    ("wide_partial_48_12_key", || {
        api::wide::partial_program(48, 12, true)
    }),
    ("wide_normal_48", || api::wide::normal_form_program(48)),
    ("wide_partial_24_6_nokey", || {
        api::wide::partial_program(24, 6, false)
    }),
    ("wide_partial_24_8_nokey", || {
        api::wide::partial_program(24, 8, false)
    }),
    ("genome", api::genome::program),
    ("skewed", api::skewed::program),
    ("federated", api::federated::program),
    ("constrained", api::constrained::program),
    ("variants_8", || api::variants::wol_program(8)),
];

struct CompileSuite;

impl CompileSuite {
    /// Normal clauses of the programs whose count has a closed form: without
    /// the key constraint the normaliser keeps every non-empty combination of
    /// the `k` partial clauses (2^k - 1, the paper's exponential case); the
    /// already-normal program stays one clause.
    fn closed_forms(sizes: &[(usize, usize)], checks: &mut Checks) {
        for (name, want) in [
            ("wide_normal_48", 1usize),
            ("wide_partial_24_6_nokey", (1 << 6) - 1),
            ("wide_partial_24_8_nokey", (1 << 8) - 1),
        ] {
            let index = SUITE
                .iter()
                .position(|(n, _)| *n == name)
                .expect("named program is in the suite");
            checks.equal(format!("{name}: normal clauses"), sizes[index].0, want);
        }
    }
}

impl OneShot for CompileSuite {
    fn direct(&self) -> Result<(Took, OpOut), String> {
        let watch = Stopwatch::start();
        let mut normal = Vec::with_capacity(SUITE.len());
        for (name, build) in SUITE {
            let program = build();
            let run = api::Morphase::new()
                .compile(&program)
                .map_err(|e| format!("{name}: {e}"))?;
            normal.push((run.normal.len(), run.normal.size()));
        }
        let took = watch.stop();
        Ok((
            took,
            OpOut {
                target: None,
                normal,
                staged: None,
            },
        ))
    }

    fn staged(&self, tr: &mut Tracer) -> Result<(Took, OpOut), String> {
        let watch = Stopwatch::start();
        let op = tr.begin(OP_SPAN);
        let mut counters = StagedCounters::default();
        let mut normal = Vec::with_capacity(SUITE.len());
        for (name, build) in SUITE {
            let program = tr.span(stage::PARSE, build);
            let run = api::staged_transform(&program, &[], &[], &[], false, tr)
                .map_err(|e| format!("{name}: {e}"))?;
            normal.push((run.normal_clauses, run.normal_size));
            counters.absorb(&run);
        }
        tr.end(op);
        let took = watch.stop();
        Ok((
            took,
            OpOut {
                target: None,
                normal,
                staged: Some(counters),
            },
        ))
    }

    fn plausible(&self, out: &OpOut) -> bool {
        out.normal.len() == SUITE.len() && out.normal.iter().all(|n| n.0 > 0)
    }

    fn check(&self, out: &OpOut, checks: &mut Checks) {
        CompileSuite::closed_forms(&out.normal, checks);
    }

    fn expected(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn probe_instance(&self) -> Option<(api::Program, Cow<'_, api::Instance>)> {
        None
    }
}

// --- load_genome / load_skew ------------------------------------------------

/// A one-shot load of one in-memory source: every op transforms a fresh clone
/// of the source, so index, histogram and column caches are cold each time.
struct Load {
    /// Builds the program from its text; part of every op, as in a real load.
    build: Build,
    source: api::Instance,
    expected: Vec<(&'static str, usize)>,
}

impl Load {
    fn genome(seed: u64) -> Load {
        let source = api::genome::generate_source(&api::GenomeParams {
            seed,
            ..api::GenomeParams::scaled(10)
        });
        // One warehouse object per distinct source name (the Skolem key).
        let expected = vec![
            ("CloneD", distinct_names(&source, "CloneS", "name")),
            ("MarkerD", distinct_names(&source, "MarkerS", "name")),
        ];
        Load {
            build: api::genome::program,
            source,
            expected,
        }
    }

    fn skew(seed: u64) -> Load {
        let source = api::skewed::generate_source(&api::SkewedParams {
            seed,
            ..api::SkewedParams::full()
        });
        let expected = vec![("HitT", Load::triangle_count(&source))];
        Load {
            build: api::skewed::program,
            source,
            expected,
        }
    }

    /// `HitT` holds one object per (marker, probe, lane) triple agreeing on
    /// clone, bin and lane; names are unique, so the extent is the triangle
    /// count — recomputed here with plain maps.
    fn triangle_count(source: &api::Instance) -> usize {
        let int = |value: &api::Value, attr: &str| match value.project(attr) {
            Some(api::Value::Int(i)) => Some(*i),
            _ => None,
        };
        let string = |value: &api::Value, attr: &str| match value.project(attr) {
            Some(api::Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let mut lanes: BTreeMap<(i64, i64), usize> = BTreeMap::new();
        for (_, lane) in source.objects(&api::ClassName::new("LaneS")) {
            if let (Some(bin), Some(l)) = (int(lane, "bin"), int(lane, "lane")) {
                *lanes.entry((bin, l)).or_default() += 1;
            }
        }
        let mut probes: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for (_, probe) in source.objects(&api::ClassName::new("ProbeS")) {
            if let (Some(clone), Some(l)) = (string(probe, "clone_name"), int(probe, "lane")) {
                probes.entry(clone).or_default().push(l);
            }
        }
        let mut hits = 0usize;
        for (_, marker) in source.objects(&api::ClassName::new("MarkerS")) {
            let (Some(clone), Some(bin)) = (string(marker, "clone_name"), int(marker, "bin"))
            else {
                continue;
            };
            for lane in probes.get(&clone).into_iter().flatten() {
                hits += lanes.get(&(bin, *lane)).copied().unwrap_or(0);
            }
        }
        hits
    }
}

impl OneShot for Load {
    fn direct(&self) -> Result<(Took, OpOut), String> {
        let fresh = self.source.clone();
        let (took, run) = timed(|| api::Morphase::new().transform(&(self.build)(), &[&fresh]));
        Ok((took, OpOut::direct(run.map_err(|e| e.to_string())?)))
    }

    fn staged(&self, tr: &mut Tracer) -> Result<(Took, OpOut), String> {
        let fresh = self.source.clone();
        let watch = Stopwatch::start();
        let op = tr.begin(OP_SPAN);
        let program = tr.span(stage::PARSE, self.build);
        let run = api::staged_transform(&program, &[&fresh], &[], &[&fresh], true, tr)?;
        tr.end(op);
        Ok((watch.stop(), OpOut::staged(run, StagedCounters::default())))
    }

    fn expected(&self) -> Vec<(&'static str, usize)> {
        self.expected.clone()
    }

    fn probe_instance(&self) -> Option<(api::Program, Cow<'_, api::Instance>)> {
        Some(((self.build)(), Cow::Borrowed(&self.source)))
    }
}

// --- load_federated / requery_warm -------------------------------------------

/// The three backend fragments of the federated warehouse, generated from the
/// seed, with the CSV fragment written to and re-opened from disk.
struct Federation {
    csv: api::CsvDirProvider,
    ace: api::AceProvider,
    rel: api::RelationalProvider,
    /// Rows passing each fragment's guard, counted by the harness from the
    /// generated data: (clones, markers, assays).
    passing: (usize, usize, usize),
    total_rows: usize,
}

impl Federation {
    fn generate(params: &api::FederatedParams, scratch: &Path) -> Result<Federation, String> {
        let tables = api::federated::generate_clone_tables(params);
        let clones = tables[0]
            .rows
            .iter()
            .filter(
                |row| matches!(&row[1], api::Value::Int(l) if *l < api::federated::LENGTH_CUTOFF),
            )
            .count();
        let (store, mappings) = api::federated::generate_marker_store(params);
        let markers = store
            .of_class("Marker")
            .into_iter()
            .filter(|object| {
                matches!(object.tags.get("Position"),
                    Some(api::AceValue::Int(p)) if *p < api::federated::POSITION_CUTOFF)
            })
            .count();
        let text = api::federated::generate_assay_csv(params);
        // Generated fields hold no commas or quotes: `level` is the 4th column.
        let assays = text
            .lines()
            .skip(1)
            .filter(|line| {
                line.split(',')
                    .nth(3)
                    .and_then(|level| level.parse::<i64>().ok())
                    .is_some_and(|level| level >= api::federated::LEVEL_FLOOR)
            })
            .count();
        let dir = scratch.join("csv");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(dir.join("AssayC.csv"), &text).map_err(|e| e.to_string())?;
        let csv = api::CsvDirProvider::open(&dir).map_err(|e| e.to_string())?;
        Ok(Federation {
            csv,
            ace: api::AceProvider::new(store, mappings),
            rel: api::RelationalProvider::new(tables),
            passing: (clones, markers, assays),
            total_rows: params.clones + params.markers + params.assays,
        })
    }

    /// Providers with their class and the guard the program places on it, in
    /// class order (the order `transform_federated` ingests in).
    fn fragments(&self) -> [(&'static str, &dyn api::ScanProvider, api::PushedFilter); 3] {
        let filter = |attr: &str, op, value: i64| api::PushedFilter {
            attr: attr.to_string(),
            op,
            value: api::Value::Int(value),
        };
        [
            (
                "AssayC",
                &self.csv,
                filter("level", api::PushOp::Geq, api::federated::LEVEL_FLOOR),
            ),
            (
                "CloneR",
                &self.rel,
                filter("length", api::PushOp::Lt, api::federated::LENGTH_CUTOFF),
            ),
            (
                "MarkerA",
                &self.ace,
                filter("position", api::PushOp::Lt, api::federated::POSITION_CUTOFF),
            ),
        ]
    }

    /// Ingest every fragment into one instance; `guarded` applies the guards
    /// at the source, as the planner's pushdown does.
    fn ingest(&self, guarded: bool) -> Result<(api::Instance, usize, usize), String> {
        let mut instance = api::Instance::new(api::federated::source_schema().name());
        let (mut rows_in, mut rows_out) = (0, 0);
        for (class, provider, guard) in self.fragments() {
            let pushdown = if guarded {
                api::Pushdown {
                    filters: vec![guard],
                    projection: None,
                }
            } else {
                api::Pushdown::none()
            };
            let stats = api::ingest_class(
                &mut instance,
                provider,
                &api::ClassName::new(class),
                &pushdown,
                api::DEFAULT_CHUNK_ROWS,
            )
            .map_err(|e| e.to_string())?;
            rows_in += stats.rows_in;
            rows_out += stats.rows_out;
        }
        Ok((instance, rows_in, rows_out))
    }

    fn expected(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("CloneW", self.passing.0),
            ("MarkerW", self.passing.1),
            ("AssayW", self.passing.2),
        ]
    }
}

/// The data scale of both federated workloads: 1,000 / 3,000 / 200,000 rows,
/// above the 32k histogram-sampling threshold.
fn federated_params(seed: u64) -> api::FederatedParams {
    api::FederatedParams {
        seed,
        ..api::FederatedParams::scaled(10)
    }
}

struct LoadFederated(Federation);

impl LoadFederated {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        Federation::generate(&federated_params(cfg.seed), &cfg.scratch).map(LoadFederated)
    }
}

impl OneShot for LoadFederated {
    fn direct(&self) -> Result<(Took, OpOut), String> {
        let f = &self.0;
        let (took, run) = timed(|| {
            api::Morphase::new()
                .transform_federated(&api::federated::program(), &[&f.csv, &f.ace, &f.rel])
        });
        let run = run.map_err(|e| e.to_string())?;
        let surviving = f.passing.0 + f.passing.1 + f.passing.2;
        if run.exec.provider_rows_in != f.total_rows || run.exec.provider_rows_out != surviving {
            return Err(format!(
                "providers streamed {} of {} rows, expected {surviving} of {}",
                run.exec.provider_rows_out, run.exec.provider_rows_in, f.total_rows
            ));
        }
        Ok((took, OpOut::direct(run)))
    }

    /// The replay plans against provider statistics alone, ingests with the
    /// guards pushed, and executes against the ingested instance — the order
    /// `transform_federated` works in. It keeps every attribute (the engine
    /// also prunes the unread `batch` column at the source); that changes
    /// ingest volume slightly, never the target.
    fn staged(&self, tr: &mut Tracer) -> Result<(Took, OpOut), String> {
        let f = &self.0;
        let watch = Stopwatch::start();
        let op = tr.begin(OP_SPAN);
        let program = tr.span(stage::PARSE, api::federated::program);
        let glue = tr.begin(stage::GLUE);
        let mut external = Vec::new();
        for (class, provider, _) in f.fragments() {
            let stats = provider
                .stats(&api::ClassName::new(class))
                .ok_or_else(|| format!("provider reports no statistics for {class}"))?;
            external.push(api::ExternalClassStats {
                class: stats.class,
                rows: stats.rows,
                ndvs: stats.ndvs,
            });
        }
        tr.end(glue);
        let ingest = tr.begin(stage::INGEST);
        let (instance, rows_in, rows_out) = f.ingest(true)?;
        tr.end(ingest);
        let run = api::staged_transform(&program, &[], &external, &[&instance], true, tr)?;
        tr.end(op);
        let counters = StagedCounters {
            provider_rows_in: rows_in,
            provider_rows_out: rows_out,
            ..StagedCounters::default()
        };
        Ok((watch.stop(), OpOut::staged(run, counters)))
    }

    fn expected(&self) -> Vec<(&'static str, usize)> {
        self.0.expected()
    }

    fn probe_instance(&self) -> Option<(api::Program, Cow<'_, api::Instance>)> {
        let (instance, _, _) = self.0.ingest(true).ok()?;
        Some((api::federated::program(), Cow::Owned(instance)))
    }

    /// Each provider's guarded scan drained into a sink that keeps nothing.
    fn probes(&self, metrics: &mut Metrics) -> Result<(), String> {
        for ((class, provider, guard), metric) in self.0.fragments().into_iter().zip([
            "storage.provider.csv.scan_ms",
            "storage.provider.relational.scan_ms",
            "storage.provider.acedb.scan_ms",
        ]) {
            let pushdown = api::Pushdown {
                filters: vec![guard],
                projection: None,
            };
            let class = api::ClassName::new(class);
            let mut took_ms = Vec::new();
            for _ in 0..PROBE_REPEATS {
                let (took, summary) = timed(|| {
                    provider.scan(&class, &pushdown, api::DEFAULT_CHUNK_ROWS, &mut |chunk| {
                        std::hint::black_box(chunk);
                        Ok(())
                    })
                });
                summary.map_err(|e| e.to_string())?;
                took_ms.push(took.ms());
            }
            metrics.insert(metric, median(&took_ms));
        }
        Ok(())
    }
}

/// The federated program over one instance fully ingested in set-up and
/// reused by every op.
struct RequeryWarm {
    federation: Federation,
    instance: api::Instance,
}

impl RequeryWarm {
    fn setup(cfg: &RunCfg) -> Result<Self, String> {
        let federation = Federation::generate(&federated_params(cfg.seed), &cfg.scratch)?;
        let (instance, _, rows_out) = federation.ingest(false)?;
        if rows_out != federation.total_rows {
            return Err(format!(
                "full ingest kept {rows_out} of {} rows",
                federation.total_rows
            ));
        }
        Ok(RequeryWarm {
            federation,
            instance,
        })
    }
}

impl OneShot for RequeryWarm {
    fn direct(&self) -> Result<(Took, OpOut), String> {
        let (took, run) =
            timed(|| api::Morphase::new().transform(&api::federated::program(), &[&self.instance]));
        Ok((took, OpOut::direct(run.map_err(|e| e.to_string())?)))
    }

    fn staged(&self, tr: &mut Tracer) -> Result<(Took, OpOut), String> {
        let watch = Stopwatch::start();
        let op = tr.begin(OP_SPAN);
        let program = tr.span(stage::PARSE, api::federated::program);
        let sources = [&self.instance];
        let run = api::staged_transform(&program, &sources, &[], &sources, true, tr)?;
        tr.end(op);
        Ok((watch.stop(), OpOut::staged(run, StagedCounters::default())))
    }

    fn expected(&self) -> Vec<(&'static str, usize)> {
        self.federation.expected()
    }

    fn probe_instance(&self) -> Option<(api::Program, Cow<'_, api::Instance>)> {
        Some((api::federated::program(), Cow::Borrowed(&self.instance)))
    }
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeKind {
    /// Genome warehouse under `TrafficWeights::mixed()` 4-op batches.
    Mixed,
    /// Constrained registry under 6-op `ConstrainedGen` batches; every 50th
    /// measured batch violates a source constraint and must be refused.
    Constrained,
}

/// Every this-many-th measured batch of `serve_constrained` is violating.
const VIOLATION_EVERY: usize = 50;

impl ServeKind {
    fn program(self) -> api::Program {
        match self {
            ServeKind::Mixed => api::genome::program(),
            ServeKind::Constrained => api::constrained::program(),
        }
    }

    fn source(self, seed: u64) -> api::Instance {
        match self {
            ServeKind::Mixed => api::genome::generate_source(&api::GenomeParams {
                seed,
                ..api::GenomeParams::scaled(4)
            }),
            ServeKind::Constrained => api::constrained::generate_source(&api::ConstrainedParams {
                seed,
                ..api::ConstrainedParams::scaled(16)
            }),
        }
    }

    /// What the reader looks up: target class, keyed attribute, the source
    /// class and attribute the probe keys come from, and the reference to
    /// follow (attribute, class it must land in).
    fn probe(self, source: &api::Instance) -> ReaderProbe {
        let (class, attr, from_class, from_attr, follow) = match self {
            ServeKind::Mixed => (
                "MarkerD",
                "name",
                "MarkerS",
                "name",
                Some(("clone", api::ClassName::new("CloneD"))),
            ),
            ServeKind::Constrained => ("UserD", "email", "UserS", "email", None),
        };
        let keys = source
            .objects(&api::ClassName::new(from_class))
            .filter_map(|(_, value)| value.project(from_attr).cloned())
            .collect();
        ReaderProbe {
            class: api::ClassName::new(class),
            attr,
            keys,
            follow,
        }
    }
}

/// The seeded batch stream, with the generator's own shadow of the source.
enum Stream {
    Mixed(api::TrafficGen),
    Constrained(api::ConstrainedGen),
}

impl Stream {
    fn new(kind: ServeKind, source: &api::Instance, seed: u64) -> Stream {
        match kind {
            ServeKind::Mixed => Stream::Mixed(api::TrafficGen::new(
                source,
                seed,
                api::TrafficWeights::mixed(),
            )),
            ServeKind::Constrained => Stream::Constrained(api::ConstrainedGen::new(source, seed)),
        }
    }

    /// The next batch and whether the service must refuse it. `measured` is
    /// the batch's index in the measured phase (`None` while warming up).
    fn next(&mut self, measured: Option<usize>) -> (api::MutationBatch, bool) {
        match self {
            Stream::Mixed(gen) => (gen.next_batch(4), false),
            Stream::Constrained(gen) => {
                if measured.is_some_and(|i| i % VIOLATION_EVERY == VIOLATION_EVERY - 1) {
                    (gen.violating_batch(), true)
                } else {
                    (gen.next_batch(6), false)
                }
            }
        }
    }

    fn shadow(&self) -> &api::Instance {
        match self {
            Stream::Mixed(gen) => gen.shadow(),
            Stream::Constrained(gen) => gen.shadow(),
        }
    }
}

fn enforce_options() -> api::PipelineOptions {
    api::PipelineOptions {
        batch_constraints: api::BatchConstraintMode::Enforce,
        ..api::PipelineOptions::default()
    }
}

struct ReaderProbe {
    class: api::ClassName,
    attr: &'static str,
    keys: Vec<api::Value>,
    follow: Option<(&'static str, api::ClassName)>,
}

impl ReaderProbe {
    /// One keyed read; false when the snapshot is not self-consistent (a
    /// found object does not carry the key it was found under, or a followed
    /// reference does not resolve inside the same snapshot).
    fn read(&self, snapshot: &api::Instance, k: u64) -> bool {
        let key = &self.keys[(k % self.keys.len() as u64) as usize];
        snapshot
            .lookup_by_attr(&self.class, self.attr, key)
            .iter()
            .all(|oid| {
                let Some(value) = snapshot.value(oid) else {
                    return false;
                };
                if value.project(self.attr) != Some(key) {
                    return false;
                }
                match &self.follow {
                    Some((attr, class)) => match value.project(attr) {
                        Some(api::Value::Oid(target)) => {
                            target.class() == class && snapshot.contains(target)
                        }
                        _ => true,
                    },
                    None => true,
                }
            })
    }
}

#[derive(Default)]
struct ReaderStats {
    /// Reads on a snapshot the reader had already seen.
    warm_us: Vec<f64>,
    /// First read after each publish.
    fresh_us: Vec<f64>,
    /// Reads that began more than [`READ_LATE`] after their slot was due.
    late: u64,
    /// Slots that passed unread while an earlier read was still running.
    shed: u64,
    broken: u64,
}

impl ReaderStats {
    /// Share of the schedule's slots that were read late or not at all.
    fn late_share(&self) -> f64 {
        let slots = (self.warm_us.len() + self.fresh_us.len()) as u64 + self.shed;
        if slots == 0 {
            return 0.0;
        }
        (self.late + self.shed) as f64 / slots as f64
    }
}

/// The open-loop reader: one read per [`READ_PERIOD`] slot, each timed from
/// the moment its slot was due, until `stop` is raised. A slot that has
/// already passed when the reader gets to it (it was still inside an earlier
/// read — typically the index build a fresh snapshot costs) is shed: counted
/// as late, never executed, so a slow read cannot build an unbounded backlog
/// and a read's latency stays that read's own.
fn reader_loop(
    service: &api::PipelineService,
    probe: &ReaderProbe,
    stop: &AtomicBool,
) -> ReaderStats {
    let mut stats = ReaderStats::default();
    let mut last = service.snapshot();
    // Build the first snapshot's index outside the record.
    probe.read(&last, 0);
    let start = Instant::now();
    let mut slot = 0u64;
    let mut factor = calib::factor(calib::sample(), calib::sample());
    loop {
        // Re-sample this thread's host speed now and then: one sample costs a
        // tenth of a slot, so not before every read.
        if slot.is_multiple_of(READ_CALIBRATE_EVERY) {
            let us = calib::sample();
            factor = calib::factor(us, us);
        }
        let elapsed = start.elapsed();
        let current = (elapsed.as_nanos() / READ_PERIOD.as_nanos()) as u64;
        if current > slot {
            stats.shed += current - slot;
            slot = current;
        }
        let due = start + READ_PERIOD.mul_f64(slot as f64);
        loop {
            if stop.load(Ordering::SeqCst) {
                return stats;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > READ_SPIN {
                std::thread::sleep(left - READ_SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let begun = Instant::now();
        let snapshot = service.snapshot();
        let fresh = !Arc::ptr_eq(&snapshot, &last);
        if !probe.read(&snapshot, slot) {
            stats.broken += 1;
        }
        let latency_us = (Instant::now() - due).as_secs_f64() * 1e6 * factor;
        if fresh {
            stats.fresh_us.push(latency_us);
        } else {
            stats.warm_us.push(latency_us);
        }
        if begun - due > READ_LATE {
            stats.late += 1;
        }
        last = snapshot;
        slot += 1;
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum()
}

/// What one pass of the batch stream through the full service measured.
struct ServicePass {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    failed: u64,
    reader: ReaderStats,
    recover_s: f64,
    journal_bytes_per_batch: f64,
    normal_size: usize,
    checks: Checks,
}

/// Stand up a durable enforcing pipeline behind a `PipelineService`, push the
/// stream through it beside the reader, then shut down, drop without a
/// checkpoint, recover from the journal and compare.
fn service_pass(kind: ServeKind, cfg: &RunCfg, tr: &mut Tracer) -> Result<ServicePass, String> {
    let program = kind.program();
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut stood: Option<(api::PipelineService, Stream, api::Instance, PathBuf)> = None;
    while more_setups(cfg, &setup_s) {
        let round = setup_s.len();
        if let Some((service, _, _, dir)) = stood.take() {
            drop(service.shutdown().map_err(|e| e.to_string())?);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.scratch.join(format!("journal-{round}"));
        // Stand-up and each warm-up batch are scaled separately (see
        // `run_one_shot`).
        let (stand_up, stood_up) = timed(|| {
            let source = kind.source(cfg.seed);
            api::MaterializedPipeline::new_durable(
                &program,
                vec![source.clone()],
                enforce_options(),
                &api::DurableOptions::new(&dir),
            )
            .map(|pipeline| (api::PipelineService::start(pipeline), source))
        });
        let (service, source) = stood_up.map_err(|e| e.to_string())?;
        let mut stream = Stream::new(kind, &source, cfg.seed);
        let mut total_s = stand_up.secs();
        for _ in 0..WARMUP_OPS {
            let (batch, _) = stream.next(None);
            let (took, applied) = timed(|| service.apply(batch));
            applied.map_err(|e| e.to_string())?;
            total_s += took.secs();
        }
        setup_s.push(total_s);
        stood = Some((service, stream, source, dir));
    }
    let (service, mut stream, source, dir) = stood.expect("at least one set-up");
    let probe = kind.probe(&source);
    drop(source);

    let journal_before = dir_bytes(&dir);
    let stop = AtomicBool::new(false);
    let mut op_ms = Vec::with_capacity(cfg.ops);
    let mut raw_ms = Vec::with_capacity(cfg.ops);
    let mut failed = 0u64;
    let mut commits = 0u64;
    let reader = std::thread::scope(|scope| {
        let handle = scope.spawn(|| reader_loop(&service, &probe, &stop));
        for i in 0..cfg.ops {
            let (batch, must_refuse) = stream.next(Some(i));
            tr.set_op(i as u64);
            let open = tr.begin(OP_SPAN);
            let (took, result) = timed(|| service.apply(batch));
            tr.end(open);
            tr.scale_op(i as u64, took.factor);
            raw_ms.push(took.raw_ms());
            op_ms.push(took.ms());
            match (result, must_refuse) {
                (Ok(_), false) => commits += 1,
                (Err(_), true) => {}
                (Ok(_), true) => {
                    eprintln!(
                        "[wolbench] {}: violating batch {i} was committed",
                        cfg.spec.name
                    );
                    failed += 1;
                }
                (Err(e), false) => {
                    eprintln!(
                        "[wolbench] {}: clean batch {i} was refused: {e}",
                        cfg.spec.name
                    );
                    failed += 1;
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        handle.join().expect("reader thread panicked")
    });

    // Shut down, drop without a checkpoint, recover from the closed journal.
    let pipeline = service.shutdown().map_err(|e| e.to_string())?;
    let final_target = pipeline.target().clone();
    let committed = pipeline.stats().batches;
    checks.equal(
        "batches the pipeline committed",
        committed,
        WARMUP_OPS as u64 + commits,
    );
    drop(pipeline);
    let journal_after = dir_bytes(&dir);
    // Recovering leaves the closed journal as it found it, so it can be timed
    // more than once; every recovery is held to the same checks.
    let mut recover_s = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let placeholder = api::Instance::new(program.sources[0].schema.name());
        let (took, recovered) = timed(|| {
            api::MaterializedPipeline::new_durable(
                &program,
                vec![placeholder],
                enforce_options(),
                &api::DurableOptions::new(&dir),
            )
        });
        let recovered = recovered.map_err(|e| e.to_string())?;
        recover_s.push(took.secs());
        checks.equal(
            "recovered batches",
            recovered.recovered_batches(),
            committed,
        );
        checks.identical(
            "recovered target equals the pre-shutdown target",
            recovered.target().deep_eq_report(&final_target),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The generator's own shadow, transformed from scratch, is the oracle.
    let oracle = api::Morphase::new()
        .transform(&program, &[stream.shadow()])
        .map_err(|e| e.to_string())?;
    checks.identical(
        "final target equals a fresh transform of the generator's shadow",
        final_target.deep_eq_report(&oracle.target),
    );
    checks.equal("reads that broke in-snapshot integrity", reader.broken, 0);
    Ok(ServicePass {
        setup_s,
        op_ms,
        raw_ms,
        failed,
        reader,
        recover_s: median(&recover_s),
        journal_bytes_per_batch: if commits > 0 {
            (journal_after - journal_before) as f64 / commits as f64
        } else {
            0.0
        },
        normal_size: oracle.normal.size(),
        checks,
    })
}

fn serve_metrics(
    metrics: &mut Metrics,
    samples: &mut BTreeMap<&'static str, usize>,
    pass: &ServicePass,
) {
    timing_metrics(metrics, &pass.setup_s, &pass.op_ms);
    metrics.insert("op_p50_raw_ms", median(&pass.raw_ms));
    metrics.insert("normal_form_size", pass.normal_size as f64);
    metrics.insert("read_warm_p50_us", median(&pass.reader.warm_us));
    metrics.insert("read_fresh_p50_us", median(&pass.reader.fresh_us));
    metrics.insert("recover_s", pass.recover_s);
    metrics.insert("journal_bytes_per_batch", pass.journal_bytes_per_batch);
    samples.insert("op", pass.op_ms.len());
    samples.insert("setup", pass.setup_s.len());
    samples.insert("read_warm", pass.reader.warm_us.len());
    samples.insert("read_fresh", pass.reader.fresh_us.len());
}

fn run_serve(cfg: &RunCfg, kind: ServeKind) -> Result<Outcome, String> {
    let mut metrics = Metrics::new();
    let mut samples = BTreeMap::new();
    if !cfg.trace {
        let mut tr = Tracer::new(false);
        let pass = service_pass(kind, cfg, &mut tr)?;
        serve_metrics(&mut metrics, &mut samples, &pass);
        return Ok(Outcome {
            attempted: cfg.ops as u64,
            failed: pass.failed,
            checks: pass.checks,
            metrics,
            samples,
            tracer: tr,
        });
    }

    // Traced: the identical stream against progressively larger stacks.
    let bare = pipeline_pass(kind, cfg, None)?;
    let durable_dir = cfg.scratch.join("journal-durable");
    let durable = pipeline_pass(kind, cfg, Some(&durable_dir))?;
    let model = model_pass(kind, cfg, &bare.constraints)?;
    let mut off = Tracer::new(false);
    let untraced = service_pass(kind, cfg, &mut off)?;
    let mut tr = Tracer::new(true);
    let traced = service_pass(kind, cfg, &mut tr)?;

    serve_metrics(&mut metrics, &mut samples, &traced);
    metrics.insert("harness.op_p90_ms", metrics["op_p90_ms"]);
    metrics.insert("harness.reader_late_share", traced.reader.late_share());
    let service_p50 = median(&traced.op_ms);
    let untraced_p50 = median(&untraced.op_ms);
    metrics.insert(
        "trace.overhead_share",
        if untraced_p50 > 0.0 {
            service_p50 / untraced_p50 - 1.0
        } else {
            0.0
        },
    );
    // From outside, a service op is one opaque call: all of it is unattributed
    // by spans; the stack differences below are its attribution.
    metrics.insert(
        "trace.unattributed_share",
        trace::unattributed_share(tr.spans()),
    );

    metrics.insert("wol-model.mutate.apply_batch_ms", median(&model.apply_ms));
    metrics.insert(
        "wol-engine.constraints.check_batch_ms",
        median(&model.check_ms),
    );
    metrics.insert(
        "wol-engine.constraints.recheck_ms",
        median(&model.recheck_ms),
    );
    metrics.insert(
        "wol-engine.constraints.constraints_checked",
        model.checked as f64,
    );
    metrics.insert(
        "wol-engine.constraints.constraints_skipped",
        model.skipped as f64,
    );
    metrics.insert("wol-engine.constraints.probes", model.probes as f64);

    metrics.insert("wol-engine.constraints.reject_ms", median(&bare.reject_ms));
    metrics.insert(
        "morphase.maintain.apply_inplace_ms",
        median(&bare.inplace_ms),
    );
    metrics.insert(
        "morphase.maintain.apply_rebuild_ms",
        median(&bare.rebuild_ms),
    );
    let applied = bare.inplace_ms.len() + bare.rebuild_ms.len();
    metrics.insert(
        "morphase.maintain.rebuild_share",
        if applied > 0 {
            bare.rebuild_ms.len() as f64 / applied as f64
        } else {
            0.0
        },
    );
    metrics.insert("morphase.maintain.rows_added", bare.rows_added as f64);
    metrics.insert("morphase.maintain.rows_removed", bare.rows_removed as f64);
    metrics.insert(
        "morphase.maintain.objects_repaired",
        bare.objects_repaired as f64,
    );
    metrics.insert("morphase.maintain.standup_ms", bare.standup_ms);
    metrics.insert("morphase.maintain.oracle_rerun_ms", bare.oracle_rerun_ms);
    exec_counter_metrics(&mut metrics, &bare.delta_exec);

    // Durable minus bare, on the in-place batches both passes absorbed alike.
    let durable_inplace = median(&durable.inplace_ms);
    metrics.insert(
        "storage.persist.commit_ms",
        durable_inplace - median(&bare.inplace_ms),
    );
    metrics.insert("storage.persist.journal_open_ms", durable.journal_open_ms);
    metrics.insert("storage.persist.snapshot_save_ms", durable.snapshot_save_ms);
    metrics.insert("storage.persist.snapshot_load_ms", durable.snapshot_load_ms);
    metrics.insert(
        "storage.persist.snapshot_bytes",
        durable.snapshot_bytes as f64,
    );
    metrics.insert("morphase.service.publish_clone_ms", bare.publish_clone_ms);
    // What the service adds to an in-place batch beyond the durable apply and
    // the publish clone: the queue hop and contention with the reader.
    metrics.insert(
        "morphase.service.hop_ms",
        service_p50 - durable_inplace - bare.publish_clone_ms,
    );
    cache_probes(&mut metrics, &kind.program(), &kind.source(cfg.seed));

    let mut checks = traced.checks;
    checks.0.extend(bare.checks.0);
    checks.0.extend(durable.checks.0);
    Ok(Outcome {
        attempted: cfg.ops as u64,
        failed: traced.failed,
        checks,
        metrics,
        samples,
        tracer: tr,
    })
}

/// The stream applied to a bare `Instance`, then checked incrementally, then
/// the certificate replayed — the model and constraint layers alone.
struct ModelPass {
    apply_ms: Vec<f64>,
    check_ms: Vec<f64>,
    recheck_ms: Vec<f64>,
    checked: u64,
    skipped: u64,
    probes: u64,
}

fn model_pass(
    kind: ServeKind,
    cfg: &RunCfg,
    constraints: &[api::Clause],
) -> Result<ModelPass, String> {
    let source = kind.source(cfg.seed);
    let mut stream = Stream::new(kind, &source, cfg.seed);
    let mut instance = source;
    let clauses: Vec<&api::Clause> = constraints.iter().collect();
    let no_suspects = BTreeSet::new();
    let mut pass = ModelPass {
        apply_ms: Vec::new(),
        check_ms: Vec::new(),
        recheck_ms: Vec::new(),
        checked: 0,
        skipped: 0,
        probes: 0,
    };
    let measured = (0..WARMUP_OPS).map(|_| None).chain((0..cfg.ops).map(Some));
    for index in measured {
        let (batch, must_refuse) = stream.next(index);
        if must_refuse {
            // Refused batches never reach the instance; the pipeline pass
            // times them (`reject_ms`).
            continue;
        }
        let (apply, delta) = timed(|| instance.apply_batch(&batch));
        let delta = delta.map_err(|e| e.to_string())?;
        let refs = [&instance];
        let dbs = api::Databases::new(&refs);
        let (check, outcome) = timed(|| {
            api::check_batch(
                &clauses,
                &dbs,
                &delta,
                api::PipelineOptions::default().parallelism,
                &no_suspects,
            )
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        if let Some(i) = index {
            pass.apply_ms.push(apply.ms());
            pass.check_ms.push(check.ms());
            // Replaying a certificate re-checks every constraint from scratch
            // (hundreds of ms here), so only a few evenly spaced batches do it.
            if i % (cfg.ops / PROBE_REPEATS).max(1) == 0 {
                let (replay, report) = timed(|| api::recheck(&outcome.certificate, &clauses, &dbs));
                report.map_err(|e| e.to_string())?;
                pass.recheck_ms.push(replay.ms());
            }
            pass.checked += outcome.certificate.validated();
            pass.skipped += outcome.certificate.skipped();
            pass.probes += outcome.certificate.probes();
        }
    }
    Ok(pass)
}

/// The stream applied to a `MaterializedPipeline` on the harness thread —
/// no service, no reader; durable when `journal` names a directory.
struct PipelinePass {
    constraints: Vec<api::Clause>,
    standup_ms: f64,
    inplace_ms: Vec<f64>,
    rebuild_ms: Vec<f64>,
    reject_ms: Vec<f64>,
    rows_added: u64,
    rows_removed: u64,
    objects_repaired: u64,
    delta_exec: api::ExecStats,
    oracle_rerun_ms: f64,
    publish_clone_ms: f64,
    journal_open_ms: f64,
    snapshot_save_ms: f64,
    snapshot_load_ms: f64,
    snapshot_bytes: usize,
    checks: Checks,
}

fn pipeline_pass(
    kind: ServeKind,
    cfg: &RunCfg,
    journal: Option<&Path>,
) -> Result<PipelinePass, String> {
    let program = kind.program();
    let source = kind.source(cfg.seed);
    let mut stream = Stream::new(kind, &source, cfg.seed);
    let (standup, pipeline) = timed(|| match journal {
        Some(dir) => api::MaterializedPipeline::new_durable(
            &program,
            vec![source.clone()],
            enforce_options(),
            &api::DurableOptions::new(dir),
        ),
        None => api::MaterializedPipeline::new(&program, vec![source.clone()], enforce_options()),
    });
    let mut pipeline = pipeline.map_err(|e| e.to_string())?;
    let mut pass = PipelinePass {
        constraints: pipeline.constraints().to_vec(),
        standup_ms: standup.ms(),
        inplace_ms: Vec::new(),
        rebuild_ms: Vec::new(),
        reject_ms: Vec::new(),
        rows_added: 0,
        rows_removed: 0,
        objects_repaired: 0,
        delta_exec: api::ExecStats::default(),
        oracle_rerun_ms: 0.0,
        publish_clone_ms: 0.0,
        journal_open_ms: 0.0,
        snapshot_save_ms: 0.0,
        snapshot_load_ms: 0.0,
        snapshot_bytes: 0,
        checks: Checks::default(),
    };
    let label = if journal.is_some() { "durable" } else { "bare" };
    let measured = (0..WARMUP_OPS).map(|_| None).chain((0..cfg.ops).map(Some));
    for index in measured {
        let (batch, must_refuse) = stream.next(index);
        let (took, result) = timed(|| pipeline.apply_batch(&batch));
        if index.is_none() {
            result.map_err(|e| e.to_string())?;
            continue;
        }
        match (result, must_refuse) {
            (Err(_), true) => pass.reject_ms.push(took.ms()),
            (Ok(report), false) => {
                match report.outcome {
                    api::BatchOutcome::InPlace => pass.inplace_ms.push(took.ms()),
                    api::BatchOutcome::Rebuild | api::BatchOutcome::FullRerun => {
                        pass.rebuild_ms.push(took.ms())
                    }
                }
                pass.rows_added += report.rows_added;
                pass.rows_removed += report.rows_removed;
                pass.objects_repaired += report.objects_repaired;
            }
            (Ok(_), true) => return Err(format!("{label} pipeline committed a violating batch")),
            (Err(e), false) => return Err(format!("{label} pipeline refused a clean batch: {e}")),
        }
    }
    pass.delta_exec = pipeline.stats().delta_exec;

    let mut rerun_ms = Vec::new();
    let mut publish_ms = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let (took, oracle) = timed(|| pipeline.rerun_oracle());
        let oracle = oracle.map_err(|e| e.to_string())?;
        rerun_ms.push(took.ms());
        pass.checks.identical(
            format!("{label} pipeline target equals its from-scratch oracle"),
            pipeline.target().deep_eq_report(&oracle.target),
        );
        let (took, published) = timed(|| Arc::new(pipeline.target().clone()));
        publish_ms.push(took.ms());
        drop(published);
    }
    pass.oracle_rerun_ms = median(&rerun_ms);
    pass.publish_clone_ms = median(&publish_ms);

    if let Some(dir) = journal {
        // Snapshot codec on the maintained source, beside the journal.
        let snapshot_path = dir.join("wolbench-probe.snap");
        let source_now = pipeline.source(0).expect("one source").clone();
        let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPEATS {
            let (took, saved) = timed(|| {
                let bytes =
                    api::encode_snapshot(&source_now, &api::SkolemState::default(), 0, None);
                pass.snapshot_bytes = bytes.len();
                api::save_snapshot_file(&snapshot_path, &bytes, None)
            });
            saved.map_err(|e| e.to_string())?;
            save_ms.push(took.ms());
            let (took, loaded) = timed(|| api::load_snapshot_file(&snapshot_path));
            let loaded = loaded
                .map_err(|e| e.to_string())?
                .ok_or("probe snapshot vanished")?;
            load_ms.push(took.ms());
            pass.checks.identical(
                "snapshot load reproduces the saved source",
                loaded.instance.deep_eq_report(&source_now),
            );
        }
        pass.snapshot_save_ms = median(&save_ms);
        pass.snapshot_load_ms = median(&load_ms);
        let _ = std::fs::remove_file(&snapshot_path);

        // Re-open the closed journal under the fingerprint its own snapshot
        // carries: the WAL replay a recovery starts with, without the rebuild.
        drop(pipeline);
        let fingerprint = api::load_snapshot_file(&dir.join(api::PipelineJournal::SNAPSHOT_FILE))
            .map_err(|e| e.to_string())?
            .and_then(|data| data.meta)
            .ok_or("journal snapshot carries no pipeline meta")?
            .fingerprint;
        let (took, opened) = timed(|| {
            api::PipelineJournal::open(dir, fingerprint, program.sources[0].schema.name(), None)
        });
        let (_, recovery) = opened.map_err(|e| e.to_string())?;
        pass.journal_open_ms = took.ms();
        pass.checks.identical(
            "journal replay reproduces the maintained source",
            recovery.instance.deep_eq_report(&source_now),
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wolbench-test-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_genome() -> Load {
        let source = api::genome::generate_source(&api::GenomeParams {
            seed: 5,
            ..api::GenomeParams::default()
        });
        let expected = vec![
            ("CloneD", distinct_names(&source, "CloneS", "name")),
            ("MarkerD", distinct_names(&source, "MarkerS", "name")),
        ];
        Load {
            build: api::genome::program,
            source,
            expected,
        }
    }

    fn small_skew() -> Load {
        let source = api::skewed::generate_source(&api::SkewedParams {
            clones: 40,
            markers: 120,
            probes: 50,
            lanes: 90,
            bins: 12,
            zipf_exponent: 1.1,
            seed: 5,
        });
        let expected = vec![("HitT", Load::triangle_count(&source))];
        Load {
            build: api::skewed::program,
            source,
            expected,
        }
    }

    /// Each load program against the engine's naive multi-pass semantics: an
    /// oracle that shares no planner, executor or Skolem numbering with the
    /// pipeline under measurement.
    #[test]
    fn load_programs_agree_with_the_naive_oracle_at_small_scale() {
        for (name, load) in [("genome", small_genome()), ("skew", small_skew())] {
            let (_, out) = load.direct().unwrap();
            let target = out.target.as_ref().unwrap();
            let naive = api::naive_transform(&(load.build)(), &[&load.source], "target").unwrap();
            assert!(
                api::instances_equivalent(target, &naive, 2),
                "{name}: pipeline target differs from the naive oracle"
            );
            assert!(
                load.plausible(&out),
                "{name}: harness-computed extents disagree"
            );
            assert!(!target.is_empty(), "{name}: empty target proves nothing");
        }

        let dir = scratch("oracle");
        let federation = Federation::generate(&api::FederatedParams::default(), &dir).unwrap();
        let f = LoadFederated(federation);
        let (_, out) = f.direct().unwrap();
        let (full, _, rows_out) = f.0.ingest(false).unwrap();
        assert_eq!(rows_out, f.0.total_rows);
        let naive = api::naive_transform(&api::federated::program(), &[&full], "target").unwrap();
        assert!(
            api::instances_equivalent(out.target.as_ref().unwrap(), &naive, 2),
            "federated: pipeline target differs from the naive oracle"
        );
        assert!(f.plausible(&out));
        assert!(f.0.passing.2 > 0 && f.0.passing.2 < f.0.total_rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_replay_is_bit_identical_to_the_direct_call() {
        let mut tr = Tracer::new(true);
        for load in [small_genome(), small_skew()] {
            let (_, direct) = load.direct().unwrap();
            let (_, staged) = load.staged(&mut tr).unwrap();
            assert_eq!(
                staged
                    .target
                    .as_ref()
                    .unwrap()
                    .deep_eq_report(direct.target.as_ref().unwrap()),
                None
            );
            assert_eq!(staged.normal, direct.normal);
        }
        let dir = scratch("replay");
        let f =
            LoadFederated(Federation::generate(&api::FederatedParams::default(), &dir).unwrap());
        let (_, direct) = f.direct().unwrap();
        let (_, staged) = f.staged(&mut tr).unwrap();
        assert_eq!(
            staged
                .target
                .as_ref()
                .unwrap()
                .deep_eq_report(direct.target.as_ref().unwrap()),
            None
        );
        let counters = staged.staged.unwrap();
        assert_eq!(counters.provider_rows_in, f.0.total_rows);
        assert_eq!(
            counters.provider_rows_out,
            f.0.passing.0 + f.0.passing.1 + f.0.passing.2
        );
        std::fs::remove_dir_all(&dir).unwrap();

        let (_, direct) = CompileSuite.direct().unwrap();
        let (_, staged) = CompileSuite.staged(&mut tr).unwrap();
        assert_eq!(staged.normal, direct.normal);
        let mut checks = Checks::default();
        CompileSuite.check(&staged, &mut checks);
        assert!(checks.all_ok());
        // Every replayed op left exactly one closed op span with stage children.
        let ops: Vec<_> = tr.spans().iter().filter(|s| s.name == OP_SPAN).collect();
        assert_eq!(ops.len(), 4);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(trace::unattributed_share(tr.spans()) < 0.5);
    }

    #[test]
    fn triangle_count_matches_a_hand_built_case() {
        let mut source = api::Instance::new("ace22skew");
        let mut add = |class: &str, fields: Vec<(&str, api::Value)>| {
            source.insert_fresh(&api::ClassName::new(class), api::Value::record(fields));
        };
        for (name, clone, bin) in [("m1", "c1", 1), ("m2", "c1", 2), ("m3", "c2", 1)] {
            add(
                "MarkerS",
                vec![
                    ("name", api::Value::str(name)),
                    ("clone_name", api::Value::str(clone)),
                    ("bin", api::Value::int(bin)),
                ],
            );
        }
        for (name, clone, lane) in [("p1", "c1", 7), ("p2", "c1", 8), ("p3", "c3", 7)] {
            add(
                "ProbeS",
                vec![
                    ("name", api::Value::str(name)),
                    ("clone_name", api::Value::str(clone)),
                    ("lane", api::Value::int(lane)),
                ],
            );
        }
        // (bin 1, lane 7) twice, (bin 2, lane 8) once, (bin 9, lane 9) never matches.
        for (name, bin, lane) in [("l1", 1, 7), ("l2", 1, 7), ("l3", 2, 8), ("l4", 9, 9)] {
            add(
                "LaneS",
                vec![
                    ("name", api::Value::str(name)),
                    ("bin", api::Value::int(bin)),
                    ("lane", api::Value::int(lane)),
                ],
            );
        }
        // m1 x p1 -> (1,7): 2 lanes; m1 x p2 -> (1,8): 0; m2 x p1 -> (2,7): 0;
        // m2 x p2 -> (2,8): 1; m3 and p3 share a clone with nobody.
        assert_eq!(Load::triangle_count(&source), 3);
    }

    #[test]
    fn reader_probe_accepts_consistent_snapshots_and_rejects_dangling_references() {
        let clone_d = api::ClassName::new("CloneD");
        let marker_d = api::ClassName::new("MarkerD");
        let mut snapshot = api::Instance::new("chr22");
        let clone = snapshot.insert_fresh(
            &clone_d,
            api::Value::record([("name", api::Value::str("c"))]),
        );
        snapshot.insert_fresh(
            &marker_d,
            api::Value::record([
                ("name", api::Value::str("m")),
                ("clone", api::Value::Oid(clone.clone())),
            ]),
        );
        let probe = ReaderProbe {
            class: marker_d,
            attr: "name",
            keys: vec![api::Value::str("m"), api::Value::str("absent")],
            follow: Some(("clone", clone_d)),
        };
        assert!(probe.read(&snapshot, 0));
        assert!(
            probe.read(&snapshot, 1),
            "a key nobody holds is not a fault"
        );
        snapshot.remove(&clone);
        assert!(
            !probe.read(&snapshot, 0),
            "a reference out of the snapshot must be caught"
        );
    }

    #[test]
    fn constrained_stream_violates_on_every_fiftieth_measured_batch_only() {
        let source = api::constrained::generate_source(&api::ConstrainedParams::default());
        let mut stream = Stream::new(ServeKind::Constrained, &source, 9);
        for _ in 0..WARMUP_OPS {
            assert!(!stream.next(None).1);
        }
        let refused: Vec<usize> = (0..120).filter(|i| stream.next(Some(*i)).1).collect();
        assert_eq!(refused, vec![49, 99]);
        // Refused batches never reach the shadow: it still satisfies S1 (unique emails).
        let users = api::ClassName::new("UserS");
        assert_eq!(
            distinct_names(stream.shadow(), "UserS", "email"),
            stream.shadow().extent_size(&users)
        );
    }
}
