//! Experiment E13 — federated pushdown over three backend sources.
//!
//! The federated workload splits the genome warehouse across a relational
//! table (`CloneR`), an ACeDB-style store (`MarkerA`) and a large assay CSV
//! (`AssayC`); one WOL program integrates all three. The planner splits each
//! scan's conjunct pool into predicates the owning backend evaluates at the
//! source and residual ones, so with pushdown on the selective guards
//! (`length`, `position`, `level`) trim the streams *before* ingest — the
//! ~98%-selective level floor means the 20 000-row assay CSV contributes a
//! few hundred ingested rows instead of all of them. With pushdown off
//! (`PipelineOptions::pushdown` false) the same predicates run as plan
//! filters over a full ingest; the produced target is bit-identical either
//! way (asserted here before measuring, and guarded by
//! `tests/perf_regression.rs` and the property suite).
//!
//! Results land in `BENCH_e13.json`: pushdown-on vs pushdown-off latency,
//! the ratio, and the provider row counters behind it.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use morphase::{Morphase, PipelineOptions};
use storage::ScanProvider;
use workloads::federated::{self, FederatedParams};

const MEDIAN_RUNS: usize = 5;

fn median_latency(
    morphase: &Morphase,
    program: &wol_lang::Program,
    providers: &[&dyn ScanProvider],
) -> Duration {
    let mut latencies: Vec<Duration> = (0..MEDIAN_RUNS)
        .map(|_| {
            let start = Instant::now();
            morphase
                .transform_federated(program, providers)
                .expect("federated run succeeds");
            start.elapsed()
        })
        .collect();
    latencies.sort();
    latencies[latencies.len() / 2]
}

fn bench_federated(c: &mut Criterion) {
    let params = FederatedParams::scaled(1); // 100 clones, 300 markers, 20 000 assays
    let (csv, ace, rel) = federated::providers(&params);
    let providers: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
    let program = federated::program();

    let on = Morphase::with_options(PipelineOptions {
        pushdown: true,
        ..PipelineOptions::default()
    });
    let off = Morphase::with_options(PipelineOptions {
        pushdown: false,
        ..PipelineOptions::default()
    });

    // Row-identity differential before measuring: both modes must produce a
    // bit-identical target, with the pushdown visible only in the counters.
    let run_on = on
        .transform_federated(&program, &providers)
        .expect("pushdown-on run succeeds");
    let run_off = off
        .transform_federated(&program, &providers)
        .expect("pushdown-off run succeeds");
    assert_eq!(run_on.exec.pushed_filters, 3, "all three guards push");
    assert!(
        run_on.exec.provider_rows_out < run_on.exec.provider_rows_in,
        "pushed filters trim the stream"
    );
    assert_eq!(run_off.exec.pushed_filters, 0);
    assert_eq!(
        run_off.exec.provider_rows_in,
        run_off.exec.provider_rows_out
    );
    assert_eq!(
        run_on.target.deep_eq_report(&run_off.target),
        None,
        "pushdown must not change the produced target"
    );
    println!("{}", morphase::render_report(&run_on));

    let mut group = c.benchmark_group("e13_federated");
    group
        .sample_size(bench::SAMPLES)
        .measurement_time(Duration::from_secs(bench::MEASURE_SECS))
        .warm_up_time(Duration::from_millis(bench::WARMUP_MS));
    group.bench_function("pushdown_on", |b| {
        b.iter(|| {
            on.transform_federated(&program, &providers)
                .expect("pushdown-on run succeeds")
        })
    });
    group.bench_function("pushdown_off", |b| {
        b.iter(|| {
            off.transform_federated(&program, &providers)
                .expect("pushdown-off run succeeds")
        })
    });
    group.finish();

    let on_median = median_latency(&on, &program, &providers);
    let off_median = median_latency(&off, &program, &providers);

    bench::BenchJson::new()
        .str("bench", "e13_federated")
        .str("workload", "e13_federated_x1")
        .int("clones", params.clones as u64)
        .int("markers", params.markers as u64)
        .int("assays", params.assays as u64)
        .num("pushdown_on_secs", on_median.as_secs_f64())
        .num("pushdown_off_secs", off_median.as_secs_f64())
        .num(
            "off_vs_on_ratio",
            off_median.as_secs_f64() / on_median.as_secs_f64().max(1e-9),
        )
        .int("pushed_filters", run_on.exec.pushed_filters as u64)
        .int("provider_rows_in", run_on.exec.provider_rows_in as u64)
        .int("provider_rows_out", run_on.exec.provider_rows_out as u64)
        .stamped()
        .write("BENCH_e13.json");
}

criterion_group!(benches, bench_federated);
criterion_main!(benches);
