//! Human-readable reports of Morphase runs.

use std::fmt::Write as _;

use crate::pipeline::MorphaseRun;

/// Render a run as a small text report: stage timings, program sizes and
/// execution statistics. Used by the examples and the benchmark harness.
pub fn render_report(run: &MorphaseRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Morphase run ==");
    let _ = writeln!(
        out,
        "input clauses: {} (of which {} auto-generated from meta-data)",
        run.input_clauses, run.generated_clauses
    );
    let _ = writeln!(
        out,
        "normal form: {} clauses, size {}",
        run.normal.len(),
        run.normal.size()
    );
    let _ = writeln!(out, "stage timings:");
    let t = &run.timings;
    for (name, duration) in [
        ("metadata", t.metadata),
        ("validate", t.validate),
        ("normalize", t.normalize),
        ("compile->CPL", t.compile),
        ("ingest", t.ingest),
        ("execute", t.execute),
        ("verify", t.verify),
    ] {
        let _ = writeln!(out, "  {name:<14} {:>10.3?}", duration);
    }
    let _ = writeln!(out, "  total compile  {:>10.3?}", t.compile_time());
    let _ = writeln!(out, "  total          {:>10.3?}", t.total());
    let _ = writeln!(
        out,
        "execution: {} rows scanned, {} rows produced, {} index probes, {} objects written",
        run.exec.rows_scanned,
        run.exec.rows_produced,
        run.exec.index_probes,
        run.exec.objects_written
    );
    let _ = writeln!(
        out,
        "peak operator output: {} rows (max_intermediate_rows)",
        run.exec.max_intermediate_rows
    );
    if run.exec.pushed_filters > 0 || run.exec.provider_rows_in > 0 {
        let _ = writeln!(
            out,
            "pushdown: {} filters pushed, provider rows {} -> {}",
            run.exec.pushed_filters, run.exec.provider_rows_in, run.exec.provider_rows_out
        );
    }
    if !run.columnar.is_empty() {
        let _ = writeln!(
            out,
            "columnar: {} pipelines, {} batch rows, {} chunks",
            run.columnar.pipelines, run.columnar.batch_rows, run.columnar.chunks
        );
    }
    if !run.shard_stats.is_empty() {
        let _ = writeln!(
            out,
            "parallel shards ({} worker threads, per-shard share of the parallel operators):",
            run.threads
        );
        for (shard, stats) in run.shard_stats.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {shard}: {} rows, {} probes, {} cache hits",
                stats.rows_produced, stats.index_probes, stats.probe_cache_hits
            );
        }
    }
    if !run.query_stats.is_empty() {
        let _ = writeln!(out, "queries (per-query eval/apply):");
        for q in &run.query_stats {
            let overlap = if q.overlapped { ", overlapped" } else { "" };
            let _ = writeln!(
                out,
                "  {}: {} rows, eval {:.3?}, apply {:.3?}{overlap}",
                q.query, q.rows_output, q.eval, q.apply
            );
        }
    }
    let estimated: u64 = run.estimated_rows.iter().sum();
    let _ = writeln!(
        out,
        "planner estimate: {} output rows (actual {})",
        estimated, run.exec.rows_output
    );
    if !run.join_stats.is_empty() {
        let _ = writeln!(out, "join estimates (estimated -> actual rows):");
        for join in &run.join_stats {
            let _ = writeln!(
                out,
                "  [{}] {}: est {} actual {} (error {:.1}x)",
                join.query,
                join.kind,
                join.estimated,
                join.actual,
                join.error_ratio()
            );
        }
    }
    if let Some(d) = &run.durability {
        let reset = if d.reset { ", journal reset" } else { "" };
        let torn = if d.recovered_torn_tail {
            ", torn tail discarded"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "durability: resumed at query {} ({} skipped, {} journaled{reset}{torn})",
            d.completed_before, d.skipped, d.journaled
        );
    }
    let _ = writeln!(out, "target: {} objects", run.target.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{JoinStat, Morphase};
    use workloads::cities::{generate_euro, CitiesWorkload};

    #[test]
    fn report_contains_the_key_metrics() {
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        let report = render_report(&run);
        assert!(report.contains("Morphase run"));
        assert!(report.contains("normal form:"));
        assert!(report.contains("total compile"));
        assert!(report.contains("index probes"));
        assert!(report.contains("objects written"));
        assert!(report.contains("max_intermediate_rows"));
        assert!(report.contains("planner estimate:"));
    }

    /// Pins the per-join estimate-vs-actual report format, so regressions in
    /// estimate quality stay visible in test output (and log scrapers keep
    /// working). The exact line shape is part of the contract.
    #[test]
    fn report_pins_the_join_estimate_format() {
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        // A real execution traced at least one join with a sane estimate.
        assert!(!run.join_stats.is_empty(), "no joins were traced");
        // Pin the exact rendering on fixed values.
        run.join_stats = vec![
            JoinStat {
                query: "T2".to_string(),
                kind: "HashJoin".to_string(),
                estimated: 10,
                actual: 40,
            },
            JoinStat {
                query: "T3".to_string(),
                kind: "NestedLoopJoin".to_string(),
                estimated: 7,
                actual: 7,
            },
        ];
        let report = render_report(&run);
        assert!(report.contains("join estimates (estimated -> actual rows):"));
        assert!(report.contains("  [T2] HashJoin: est 10 actual 40 (error 4.0x)"));
        assert!(report.contains("  [T3] NestedLoopJoin: est 7 actual 7 (error 1.0x)"));
    }

    /// Pins the per-shard report format: a parallel run surfaces each
    /// worker's share of the partitioned operators; a sequential run prints
    /// no shard section at all.
    #[test]
    fn report_surfaces_per_shard_stats_for_parallel_runs() {
        use cpl::exec::ExecStats;
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        // Sequential (or below-threshold) runs have no shard breakdown.
        run.shard_stats = Vec::new();
        assert!(!render_report(&run).contains("parallel shards"));
        // Pin the exact rendering on fixed values.
        run.threads = 2;
        run.shard_stats = vec![
            ExecStats {
                rows_produced: 10,
                index_probes: 3,
                probe_cache_hits: 2,
                ..ExecStats::default()
            },
            ExecStats {
                rows_produced: 7,
                index_probes: 1,
                probe_cache_hits: 0,
                ..ExecStats::default()
            },
        ];
        let report = render_report(&run);
        assert!(report.contains(
            "parallel shards (2 worker threads, per-shard share of the parallel operators):"
        ));
        assert!(report.contains("  shard 0: 10 rows, 3 probes, 2 cache hits"));
        assert!(report.contains("  shard 1: 7 rows, 1 probes, 0 cache hits"));
    }

    /// Pins the columnar-executor report line: a run whose plans took the
    /// batch-at-a-time path surfaces how much work it covered; a run with
    /// the columnar path disabled (or no qualifying plan) prints no line.
    #[test]
    fn report_pins_the_columnar_format() {
        use cpl::ColumnarStats;
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        run.columnar = ColumnarStats::default();
        assert!(!render_report(&run).contains("columnar:"));
        run.columnar = ColumnarStats {
            pipelines: 3,
            batch_rows: 4096,
            chunks: 8,
        };
        assert!(render_report(&run).contains("columnar: 3 pipelines, 4096 batch rows, 8 chunks"));
    }

    /// Pins the pushdown report line: a federated run whose planning pushed
    /// filters into backend providers surfaces the predicate count and the
    /// provider row accounting; a plain (or pushdown-off, provider-free) run
    /// prints no line.
    #[test]
    fn report_pins_the_pushdown_format() {
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        assert_eq!(run.exec.pushed_filters, 0);
        assert!(!render_report(&run).contains("pushdown:"));
        // Pin the exact rendering on fixed values.
        run.exec.pushed_filters = 3;
        run.exec.provider_rows_in = 50_000;
        run.exec.provider_rows_out = 1_200;
        assert!(
            render_report(&run).contains("pushdown: 3 filters pushed, provider rows 50000 -> 1200")
        );
        // A pushdown-off federated run still accounts provider rows.
        run.exec.pushed_filters = 0;
        run.exec.provider_rows_in = 50_000;
        run.exec.provider_rows_out = 50_000;
        assert!(render_report(&run)
            .contains("pushdown: 0 filters pushed, provider rows 50000 -> 50000"));
    }

    /// Pins the per-query timing breakdown format: query name, rows,
    /// eval/apply durations and the overlap marker. The exact line
    /// shape is part of the contract, like the join-estimate section.
    #[test]
    fn report_pins_the_per_query_timing_format() {
        use crate::pipeline::QueryStat;
        use std::time::Duration;
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        // A real execution produced one stat per compiled query, in order.
        assert_eq!(run.query_stats.len(), run.plans.len());
        // Pin the exact rendering on fixed values.
        run.query_stats = vec![
            QueryStat {
                query: "T1+C3".to_string(),
                overlapped: true,
                rows_output: 40,
                eval: Duration::from_micros(1200),
                apply: Duration::from_micros(300),
            },
            QueryStat {
                query: "T2".to_string(),
                overlapped: false,
                rows_output: 7,
                eval: Duration::from_micros(450),
                apply: Duration::ZERO,
            },
        ];
        let report = render_report(&run);
        assert!(report.contains("queries (per-query eval/apply):"));
        assert!(report.contains("  T1+C3: 40 rows, eval 1.200ms, apply 300.000µs, overlapped"));
        assert!(report.contains("  T2: 7 rows, eval 450.000µs, apply 0.000ns"));
        // Compile-only runs print no per-query section.
        run.query_stats = Vec::new();
        assert!(!render_report(&run).contains("per-query eval/apply"));
    }

    /// Pins the durability report line: a durable run surfaces where it
    /// resumed and what it journalled; a plain run prints no such line.
    #[test]
    fn report_pins_the_durability_format() {
        use crate::pipeline::DurabilityStats;
        let w = CitiesWorkload::new();
        let source = generate_euro(2, 2, 1);
        let mut run = Morphase::new()
            .transform(&w.euro_program(), &[&source][..])
            .unwrap();
        assert!(run.durability.is_none());
        assert!(!render_report(&run).contains("durability:"));
        run.durability = Some(DurabilityStats {
            resumed: true,
            completed_before: 2,
            skipped: 2,
            journaled: 3,
            reset: false,
            recovered_torn_tail: true,
        });
        let report = render_report(&run);
        assert!(report.contains(
            "durability: resumed at query 2 (2 skipped, 3 journaled, torn tail discarded)"
        ));
        run.durability = Some(DurabilityStats {
            reset: true,
            ..DurabilityStats::default()
        });
        assert!(render_report(&run)
            .contains("durability: resumed at query 0 (0 skipped, 0 journaled, journal reset)"));
    }

    #[test]
    fn join_stat_error_ratio_is_symmetric_and_clamped() {
        let over = JoinStat {
            query: "q".into(),
            kind: "HashJoin".into(),
            estimated: 100,
            actual: 25,
        };
        let under = JoinStat {
            query: "q".into(),
            kind: "HashJoin".into(),
            estimated: 25,
            actual: 100,
        };
        assert_eq!(over.error_ratio(), 4.0);
        assert_eq!(under.error_ratio(), 4.0);
        let empty = JoinStat {
            query: "q".into(),
            kind: "HashJoin".into(),
            estimated: 0,
            actual: 0,
        };
        assert_eq!(empty.error_ratio(), 1.0);
    }
}
