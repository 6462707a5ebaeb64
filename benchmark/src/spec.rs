//! The benchmark's definition as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is generated
//! from these tables (`wolbench manifest`) and a test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`). Each
/// workload's `base_ops` is sized so its measured phase lasts about this long
/// on the 2-core reference box; `--seconds` scales the op count linearly, so
/// counts (batches committed, rejections, journal bytes) repeat exactly.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Measured operations at `RUN_SECONDS`.
    pub base_ops: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "compile_suite",
        base_ops: 150,
        why: "11 programs built from text and compiled (the paper's E1-E3, incl. the 255-clause exponential case): all time is wol-lang, snf, normalize, morphase.compile; the executor does nothing",
    },
    WorkloadSpec {
        name: "load_genome",
        base_ops: 100,
        why: "the paper's warehouse load, 4,000 objects, cold caches every op: ~90% cpl.exec index-probe joins and Skolem inserts plus cold index/histogram builds; compile share <5%",
    },
    WorkloadSpec {
        name: "load_skew",
        base_ops: 100,
        why: "zipfian triangle join: the only workload where the optimizer's histogram estimates and the hash-join / hot-key paths decide the time",
    },
    WorkloadSpec {
        name: "load_federated",
        base_ops: 50,
        why: "CSV + AceDB + relational providers, 204,000 rows with pushdown: provider scan and ingest are about half the op, executor the rest on cold columns",
    },
    WorkloadSpec {
        name: "requery_warm",
        base_ops: 50,
        why: "same program and data as load_federated over one fully ingested instance: bypasses storage, runs the columnar towers on warm index/histogram/column caches",
    },
    WorkloadSpec {
        name: "serve_mixed",
        base_ops: 170,
        why: "durable enforcing PipelineService under mixed 4-op genome batches beside a 2,000 reads/s open-loop reader: in-place and rebuild repair, per-batch publish clone, WAL sync, recovery",
    },
    WorkloadSpec {
        name: "serve_constrained",
        base_ops: 400,
        why: "same service over the constrained program, 6-op batches, every 50th violating and refused: never rebuilds, so incremental constraint checking does most of each batch",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn is_serve(workload: &str) -> bool {
    workload.starts_with("serve_")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads report a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    All,
    /// `serve_*` only.
    Serve,
}

impl Scope {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Serve => is_serve(workload),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub scope: Scope,
}

/// The end-to-end metrics `run` prints and `check` bounds. The driver contract
/// wants every `end_to_end` metric of `BENCHMARK.json` reported by every
/// workload and never zero, so only the `Scope::All` rows except `fail_share`
/// go there (see [`driver_end_to_end`]); `fail_share` is the contract's
/// `failed`/`attempted` pair, and the `Scope::Serve` rows reach the driver
/// through the per-layer list.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::Serve,
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        scope: Scope::All,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::All,
    },
    EndToEnd {
        name: "normal_form_size",
        unit: "nodes",
        better: Better::Lower,
        bound: 0.01,
        scope: Scope::All,
    },
    EndToEnd {
        name: "read_warm_p50_us",
        unit: "us",
        better: Better::Lower,
        // A few microseconds, read between index builds on a busy core: only
        // an order-of-magnitude guard.
        bound: 1.0,
        scope: Scope::Serve,
    },
    EndToEnd {
        name: "read_fresh_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::Serve,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        scope: Scope::Serve,
    },
    EndToEnd {
        name: "journal_bytes_per_batch",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        scope: Scope::Serve,
    },
];

/// The rows of [`END_TO_END`] that go into `BENCHMARK.json`'s `end_to_end`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| m.scope == Scope::All && m.name != "fail_share")
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
    }
}

const fn count(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
    }
}

const fn ratio(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
    }
}

/// Per-layer metrics, named `<crate>.<module>.<what>`, from the traced pass.
/// A metric reads 0 on a workload that does not exercise its layer. The last
/// rows are the serve-only end-to-end metrics (see [`END_TO_END`]).
pub const PER_LAYER: [PerLayer; 68] = [
    // One-shot path, compile side.
    ms("wol-lang.parse_ms"),
    ms("wol-lang.validate_ms"),
    count("wol-lang.clauses", Better::Lower),
    ms("morphase.metadata_ms"),
    ms("wol-engine.snf_ms"),
    count("wol-engine.snf_atoms", Better::Lower),
    ms("wol-engine.normalize_ms"),
    count("wol-engine.normal_clauses", Better::Lower),
    ms("morphase.compile_ms"),
    ms("cpl.optimizer.stats_ms"),
    ms("morphase.teardown_ms"),
    // Executor.
    ms("cpl.exec.execute_ms"),
    count("cpl.exec.rows_scanned", Better::Lower),
    count("cpl.exec.rows_produced", Better::Lower),
    count("cpl.exec.index_probes", Better::Lower),
    ratio("cpl.exec.probe_cache_hit_share", Better::Higher),
    count("cpl.exec.objects_written", Better::Lower),
    count("cpl.exec.max_intermediate_rows", Better::Lower),
    ratio("cpl.optimizer.est_error_max", Better::Lower),
    count("cpl.columnar.pipelines", Better::Higher),
    count("cpl.columnar.batch_rows", Better::Higher),
    count("cpl.columnar.chunks", Better::Lower),
    // Instance caches and copies.
    ms("wol-model.index.cold_build_ms"),
    ms("wol-model.histogram.cold_build_ms"),
    ms("wol-model.column.cold_build_ms"),
    ms("wol-model.instance.clone_ms"),
    // Verification.
    ms("wol-model.validate_ms"),
    ms("wol-engine.constraints.verify_ms"),
    // Providers and ingest.
    ms("storage.provider.csv.scan_ms"),
    ms("storage.provider.acedb.scan_ms"),
    ms("storage.provider.relational.scan_ms"),
    ms("storage.provider.ingest_ms"),
    count("storage.provider.rows_in", Better::Lower),
    count("storage.provider.rows_out", Better::Lower),
    ratio("storage.provider.selectivity", Better::Lower),
    ms("morphase.federate.glue_ms"),
    // Service path: the same batch stream against progressively larger stacks.
    ms("wol-model.mutate.apply_batch_ms"),
    ms("wol-engine.constraints.check_batch_ms"),
    count("wol-engine.constraints.constraints_checked", Better::Lower),
    count("wol-engine.constraints.constraints_skipped", Better::Higher),
    count("wol-engine.constraints.probes", Better::Lower),
    ms("wol-engine.constraints.recheck_ms"),
    ms("wol-engine.constraints.reject_ms"),
    ms("morphase.maintain.apply_inplace_ms"),
    ms("morphase.maintain.apply_rebuild_ms"),
    ratio("morphase.maintain.rebuild_share", Better::Lower),
    count("morphase.maintain.rows_added", Better::Lower),
    count("morphase.maintain.rows_removed", Better::Lower),
    count("morphase.maintain.objects_repaired", Better::Lower),
    ms("morphase.maintain.standup_ms"),
    ms("morphase.maintain.oracle_rerun_ms"),
    ms("storage.persist.commit_ms"),
    ms("storage.persist.journal_open_ms"),
    ms("storage.persist.snapshot_save_ms"),
    ms("storage.persist.snapshot_load_ms"),
    PerLayer {
        name: "storage.persist.snapshot_bytes",
        unit: "B",
        better: Better::Lower,
    },
    ms("morphase.service.publish_clone_ms"),
    ms("morphase.service.hop_ms"),
    // Harness and trace quality.
    ms("harness.op_p90_ms"),
    ratio("harness.reader_late_share", Better::Lower),
    ratio("trace.unattributed_share", Better::Lower),
    ratio("trace.replay_vs_direct", Better::Lower),
    ratio("trace.overhead_share", Better::Lower),
    // Serve-only end-to-end metrics, measured on the traced pass's service stack.
    ms("op_p90_ms"),
    PerLayer {
        name: "read_warm_p50_us",
        unit: "us",
        better: Better::Lower,
    },
    PerLayer {
        name: "read_fresh_p50_us",
        unit: "us",
        better: Better::Lower,
    },
    PerLayer {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
    },
    PerLayer {
        name: "journal_bytes_per_batch",
        unit: "B",
        better: Better::Lower,
    },
];

/// `BENCHMARK.json`, exactly the contract's keys.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::from)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                driver_end_to_end()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in driver_end_to_end() {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&driver_end_to_end().count()));
        assert!(PER_LAYER.len() <= 128);
        assert!(driver_end_to_end().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the root");
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `wolbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn serve_only_metrics_reach_the_driver_through_the_per_layer_list() {
        for m in END_TO_END.iter().filter(|m| m.scope == Scope::Serve) {
            assert!(PER_LAYER.iter().any(|p| p.name == m.name), "{}", m.name);
        }
    }
}
