//! `wolbench` — the repo's one full-path benchmark. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * the driver protocol, one workload in this process:
//!   `wolbench --workload NAME --seed N --seconds S --trace 0|1`, whose last
//!   stdout line is `{"correct", "attempted", "failed", "metrics"}`;
//! * the commands `run`, `trace`, `check` and `manifest`, which run every
//!   workload in a child process of its own through that same protocol.

mod calib;
mod engine_api;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use spec::{WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage: wolbench --workload NAME --seed N --seconds S --trace 0|1   (one workload, driver protocol)
       wolbench run      [--seed N] [--workload NAME] [--seconds S] [--smoke]
       wolbench trace    [--seed N] [--workload NAME] [--seconds S] [--smoke]
       wolbench check    [--seed N] [--workload NAME] [--seconds S] [--smoke] [--sets K] [--vary-seed]
       wolbench manifest                                           (print BENCHMARK.json)
common: --scratch-dir DIR   where journals and the CSV fragment go (default benchmark/out/scratch)";

#[derive(Clone)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
    vary_seed: bool,
    scratch_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 22,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        sets: 2,
        vary_seed: false,
        scratch_dir: None,
    };
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if args.sets < 2 {
                    return Err("--sets must be at least 2".to_string());
                }
            }
            "--scratch-dir" => args.scratch_dir = Some(PathBuf::from(value("--scratch-dir")?)),
            "--smoke" => args.smoke = true,
            "--vary-seed" => args.vary_seed = true,
            "run" | "trace" | "check" | "manifest" if args.command.is_none() => {
                args.command = Some(arg.clone())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The benchmark's own directory: where `cargo run` says the manifest is, or
/// where it was when this binary was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Measured operations of one run. `--seconds` scales the count linearly; the
/// traced pass runs a fifth and `--smoke` a twentieth.
fn scaled_ops(spec: &WorkloadSpec, args: &Args) -> usize {
    let mut ops = spec.base_ops as f64 * args.seconds / RUN_SECONDS as f64;
    if args.trace {
        ops /= 5.0;
    }
    if args.smoke {
        ops /= 20.0;
    }
    (ops.round() as usize).max(2)
}

/// A scratch directory of this process's own, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(base: &Path) -> Result<Scratch, String> {
        let dir = base.join(format!("wolbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_base(args: &Args) -> PathBuf {
    args.scratch_dir
        .clone()
        .unwrap_or_else(|| benchmark_dir().join("out").join("scratch"))
}

// ---------------------------------------------------------------------------
// One workload in this process (the driver protocol)
// ---------------------------------------------------------------------------

fn metric_json(name: &str, unit: &str, value: f64, samples: Option<usize>) -> (String, Json) {
    let mut fields = vec![("value", Json::from(value)), ("unit", Json::from(unit))];
    if let Some(n) = samples {
        fields.push(("samples", Json::from(n)));
    }
    (name.to_string(), Json::obj(fields))
}

/// Which sample count stands behind a timing metric.
fn samples_of(metric: &str) -> Option<&'static str> {
    match metric {
        "setup_s" => Some("setup"),
        "ops_per_s" | "op_p50_ms" | "op_p90_ms" | "harness.op_p90_ms" => Some("op"),
        "read_warm_p50_us" => Some("read_warm"),
        "read_fresh_p50_us" => Some("read_fresh"),
        _ => None,
    }
}

fn run_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = spec::workload(name).expect("validated by parse_args");
    let scratch = Scratch::create(&scratch_base(args))?;
    let cfg = workloads::RunCfg {
        spec,
        seed: args.seed,
        ops: scaled_ops(spec, args),
        trace: args.trace,
        single_setup: args.smoke || args.trace,
        scratch: scratch.0.clone(),
    };
    let mut outcome = workloads::run(&cfg)?;
    drop(scratch);

    let correct = outcome.checks.all_ok();
    for check in outcome.checks.0.iter().filter(|c| !c.ok) {
        eprintln!(
            "[wolbench] {name}: CHECK FAILED: {}: {}",
            check.name, check.detail
        );
    }
    if args.trace {
        // Counts ride along with the spans they were counted beside.
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            if let Some(v) = outcome.metrics.get(m.name) {
                outcome.tracer.count(m.name, *v);
            }
        }
        let path = benchmark_dir()
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        outcome
            .tracer
            .write_jsonl(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Any failed end-of-run check fails the whole run.
    let fail_share = if correct {
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    } else {
        1.0
    };
    outcome.metrics.insert("fail_share", fail_share);
    let value = |metric: &str| outcome.metrics.get(metric).copied().unwrap_or(0.0);
    let render = |rows: &[(&str, &str)], with_samples: bool| {
        Json::Obj(
            rows.iter()
                .map(|(metric, unit)| {
                    let samples = samples_of(metric)
                        .filter(|_| with_samples)
                        .and_then(|s| outcome.samples.get(s).copied());
                    metric_json(metric, unit, value(metric), samples)
                })
                .collect(),
        )
    };
    // The detail line carries everything measured, for `run`/`trace`/`check`
    // to merge: the full end-to-end table (serve-only rows on serve
    // workloads) or the per-layer list, sample counts beside the timings, and
    // the checks. The contract's last line carries exactly the manifest's
    // metrics.
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let (detail_rows, driver_rows) = if args.trace {
        (per_layer.clone(), per_layer)
    } else {
        (
            END_TO_END
                .iter()
                .filter(|m| m.scope.covers(name))
                .map(|m| (m.name, m.unit))
                .collect(),
            spec::driver_end_to_end()
                .map(|m| (m.name, m.unit))
                .collect(),
        )
    };
    let detail = Json::obj([
        ("workload", Json::from(name)),
        ("ops", Json::from(cfg.ops)),
        ("fail_share", Json::from(fail_share)),
        ("metrics", render(&detail_rows, true)),
        // The op median as the wall clock read it, before host-speed scaling.
        ("op_p50_raw_ms", Json::from(value("op_p50_raw_ms"))),
        (
            "checks",
            Json::Arr(
                outcome
                    .checks
                    .0
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::from(c.name.as_str())),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", detail.line());

    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", render(&driver_rows, false)),
    ]);
    println!("{}", line.line());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// run / trace / check: every workload in a child process
// ---------------------------------------------------------------------------

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(point)
                        .then(|| (point.len(), kind.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What was measured, on what: the commit of the tree being run (not its
/// parent) with a dirty flag, cores, engine threads, compiler, seed, and the
/// scratch filesystem (it decides what an fdatasync costs).
fn stamp(args: &Args) -> Json {
    let repo = benchmark_dir().join("..");
    let commit = command_output("git", &["rev-parse", "HEAD"], &repo);
    let dirty = command_output("git", &["status", "--porcelain"], &repo).map(|s| !s.is_empty());
    let scratch = scratch_base(args);
    let _ = std::fs::create_dir_all(&scratch);
    Json::obj([
        (
            "commit",
            commit.map_or(Json::from("unknown (not a git checkout)"), Json::from),
        ),
        ("dirty", dirty.map_or(Json::Null, Json::from)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        (
            "engine_threads",
            Json::from(engine_api::PipelineOptions::default().parallelism.threads()),
        ),
        (
            "rustc",
            Json::from(
                command_output("rustc", &["--version"], &repo)
                    .unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("scratch_dir", Json::from(scratch.display().to_string())),
        ("scratch_fs", Json::from(fs_type(&scratch))),
    ])
}

/// Run one workload in a child of its own (clean pools and caches, its own
/// peak RSS) and return its detail document.
fn child(args: &Args, name: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch-dir")
        .arg(scratch_base(args))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let out = command
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or("");
    let detail = lines.next().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let mut detail = Json::parse(detail).map_err(|e| format!("{name}: no detail line ({e})"))?;
    if let Json::Obj(pairs) = &mut detail {
        for key in ["failed", "attempted", "correct"] {
            if let Some(v) = result.get(key) {
                pairs.insert(1, (key.to_string(), v.clone()));
            }
        }
        pairs.push(("exit_ok".to_string(), Json::from(out.status.success())));
    }
    Ok(detail)
}

fn selected(args: &Args) -> Vec<&'static WorkloadSpec> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

/// One run-set: every selected workload, each in its own child.
fn run_set(args: &Args, trace: bool) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for spec in selected(args) {
        eprintln!(
            "[wolbench] {} ({})",
            spec.name,
            if trace { "traced" } else { "untraced" }
        );
        let detail = child(args, spec.name, trace)?;
        table(spec.name, &detail);
        workloads.push((spec.name.to_string(), detail));
    }
    Ok(Json::obj([
        ("benchmark", Json::from("wolbench")),
        ("mode", Json::from(if trace { "trace" } else { "run" })),
        ("stamp", stamp(args)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// The human view of one workload's metrics, on stderr.
fn table(name: &str, detail: &Json) {
    let ok = detail.get("correct").and_then(Json::as_bool) == Some(true);
    eprintln!(
        "  {name}: {} ({} attempted, {} failed)",
        if ok { "correct" } else { "INCORRECT" },
        detail
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        detail.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
    );
    for (metric, body) in detail.get("metrics").map_or(&[][..], Json::members) {
        let value = body.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
        let samples = body
            .get("samples")
            .and_then(Json::as_f64)
            .map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!("    {metric:<48} {value:>14.4} {unit}{samples}");
    }
}

fn all_correct(doc: &Json) -> bool {
    doc.get("workloads")
        .map_or(&[][..], Json::members)
        .iter()
        .all(|(_, w)| {
            w.get("correct").and_then(Json::as_bool) == Some(true)
                && w.get("exit_ok").and_then(Json::as_bool) == Some(true)
                && w.get("fail_share").and_then(Json::as_f64) == Some(0.0)
        })
}

fn metric_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `check`: run the set `--sets` times and hold every (metric, workload) to
/// its bound. The spread is `stats::relative_spread`: from four sets on the
/// distance between the first and third quartile of the sets' values
/// (`statistics.quantiles(n=4)`) as a share of their median, the plain range
/// below that. A bound of 0 is absolute: the value must be 0 in every set. With `--vary-seed` set `i` runs on `seed + i`, which is the
/// acceptance procedure the benchmark itself must pass (ten seeds).
fn check(args: &Args) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for round in 0..args.sets {
        let mut set_args = args.clone();
        if args.vary_seed {
            set_args.seed += round as u64;
        }
        eprintln!(
            "[wolbench] check: run-set {} of {} (seed {})",
            round + 1,
            args.sets,
            set_args.seed
        );
        sets.push(run_set(&set_args, false)?);
    }
    let mut rows = Vec::new();
    let mut breaches = 0usize;
    eprintln!(
        "{:<18} {:<24} {:>14} {:>10} {:>8}",
        "workload", "metric", "median", "spread", "bound"
    );
    for spec in selected(args) {
        for metric in END_TO_END.iter().filter(|m| m.scope.covers(spec.name)) {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| metric_value(set, spec.name, metric.name))
                .collect();
            let spread = if metric.bound == 0.0 {
                values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
            } else {
                stats::relative_spread(&values).unwrap_or(f64::INFINITY)
            };
            // Across seeds the set-up differs in content (how many warm-up
            // batches rebuild), so its spread is reported, not judged — as in
            // the acceptance rule this mode reproduces.
            let exempt = args.vary_seed && metric.name == "setup_s";
            let breach = values.len() != sets.len() || (spread > metric.bound && !exempt);
            breaches += usize::from(breach);
            eprintln!(
                "{:<18} {:<24} {:>14.4} {:>10.4} {:>8.2}{}",
                spec.name,
                metric.name,
                stats::median(&values),
                spread,
                metric.bound,
                if breach {
                    "  BREACH"
                } else if exempt {
                    "  (not judged)"
                } else {
                    ""
                }
            );
            rows.push(Json::obj([
                ("workload", Json::from(spec.name)),
                ("metric", Json::from(metric.name)),
                ("unit", Json::from(metric.unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                ),
                ("median", Json::from(stats::median(&values))),
                ("spread", Json::from(spread)),
                ("bound", Json::from(metric.bound)),
                ("breach", Json::from(breach)),
            ]));
        }
    }
    let correct = sets.iter().all(all_correct);
    let doc = Json::obj([
        ("benchmark", Json::from("wolbench")),
        ("mode", Json::from("check")),
        ("stamp", stamp(args)),
        ("sets", Json::from(args.sets)),
        ("vary_seed", Json::from(args.vary_seed)),
        ("correct", Json::from(correct)),
        ("breaches", Json::from(breaches)),
        ("rows", Json::Arr(rows)),
    ]);
    print!("{}", doc.pretty());
    Ok(if correct && breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    }
    let args = parse_args(&raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.command.as_deref() == Some("manifest") {
        print!("{}", spec::manifest().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    // The engine reads WOL_THREADS / WOL_COLUMNAR / WOL_PUSHDOWN; a number
    // measured under a knob is not the benchmark's number.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("WOL_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with engine knobs set: {}",
            knobs.join(", ")
        ));
    }
    match args.command.as_deref() {
        None => {
            let name = args
                .workload
                .clone()
                .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
            run_workload(&args, &name)
        }
        Some("check") => check(&args),
        Some(mode) => {
            let doc = run_set(&args, mode == "trace")?;
            print!("{}", doc.pretty());
            Ok(if all_correct(&doc) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("[wolbench] error: {e}");
            ExitCode::from(2)
        }
    }
}
