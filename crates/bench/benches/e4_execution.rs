//! Experiment E4 — single-pass execution of normal-form programs vs direct
//! (recursive, multi-pass) clause application, and the indexed matcher vs
//! the naive pre-index matcher.
//!
//! Paper claim (Section 5): "Implementing a transformation directly using
//! clauses such as (T1), (T2) and (T3) would be inefficient ... we would have
//! to apply the clauses recursively"; normal-form programs run "in a single
//! pass over the source databases". The workload is the Cities/Countries
//! integration scaled by the number of source cities.
//!
//! On top of the paper's comparison, this bench measures the engine's two
//! execution levers on the same workload: semi-naive delta passes and
//! attribute-indexed, selectivity-ordered body matching. The summary section
//! reports `bindings_considered` for the indexed matcher vs the naive
//! generate-and-test matcher on a >=10k-object join, the numbers the
//! performance regression test (`tests/properties.rs`) guards.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morphase::Morphase;
use wol_engine::{
    match_body, match_body_reference, naive_transform, naive_transform_with_report, Bindings,
    Databases, MatchStats, NaiveOptions,
};
use wol_lang::parse_clause;
use wol_model::SkolemFactory;
use workloads::cities::{generate_euro, CitiesWorkload};

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_execution");
    group
        .sample_size(bench::SAMPLES)
        .measurement_time(Duration::from_secs(bench::MEASURE_SECS))
        .warm_up_time(Duration::from_millis(bench::WARMUP_MS));

    let workload = CitiesWorkload::new();
    let program = workload.euro_program();

    for &countries in &[10usize, 30, 100] {
        let cities_per_country = 10;
        let source = generate_euro(countries, cities_per_country, 42);
        let total_cities = countries * cities_per_country;

        // Morphase: compile once, then single-pass CPL execution.
        let compiled = Morphase::new();
        group.bench_with_input(
            BenchmarkId::new("morphase_single_pass", total_cities),
            &source,
            |b, source| {
                b.iter(|| {
                    compiled
                        .transform(&program, &[source][..])
                        .expect("transforms")
                })
            },
        );

        // Naive: repeated clause application against sources + target
        // (indexed matching + semi-naive passes, the default).
        group.bench_with_input(
            BenchmarkId::new("naive_multi_pass", total_cities),
            &source,
            |b, source| {
                b.iter(|| naive_transform(&program, &[source][..], "target").expect("transforms"))
            },
        );

        // The pre-index baseline: same fixpoint, but full passes with the
        // naive generate-and-test matcher. Only run at the smaller sizes —
        // the baseline is cubic in the extent sizes, which is the point.
        if total_cities <= 300 {
            let preindex = NaiveOptions {
                semi_naive: false,
                use_indexed_matching: false,
                ..NaiveOptions::default()
            };
            group.bench_with_input(
                BenchmarkId::new("naive_multi_pass_preindex", total_cities),
                &source,
                |b, source| {
                    b.iter(|| {
                        naive_transform_with_report(&program, &[source][..], "target", &preindex)
                            .expect("transforms")
                    })
                },
            );
        }
    }
    group.finish();

    // Paper-style summary at a fixed size.
    let source = generate_euro(30, 10, 42);
    let t0 = std::time::Instant::now();
    let morphase_run = Morphase::new().transform(&program, &[&source][..]).unwrap();
    let single = t0.elapsed();
    let t1 = std::time::Instant::now();
    naive_transform(&program, &[&source][..], "target").unwrap();
    let naive = t1.elapsed();
    eprintln!(
        "[E4] 300 source cities: Morphase single pass {single:?}, naive multi-pass {naive:?}, \
         speed-up {:.1}x",
        naive.as_secs_f64() / single.as_secs_f64().max(1e-9)
    );

    // Indexed vs pre-index matching on a >=10k-object three-way join: the
    // tentpole comparison (see ISSUE 1 acceptance criteria).
    let source = generate_euro(100, 100, 42); // 100 countries + 10_000 cities
    let refs = [&source];
    let dbs = Databases::new(&refs[..]);
    let body = parse_clause(
        "Z = 1 <= E in CityE, X in CountryE, X.name = E.country.name, \
                 Y in CityE, Y.country = X, Y.is_capital = true",
    )
    .unwrap()
    .body;

    let mut factory = SkolemFactory::new();
    let mut indexed_stats = MatchStats::default();
    let t0 = std::time::Instant::now();
    let indexed = match_body(
        &body,
        &dbs,
        &mut factory,
        Bindings::new(),
        &mut indexed_stats,
    )
    .unwrap();
    let indexed_time = t0.elapsed();

    let mut factory = SkolemFactory::new();
    let mut reference_stats = MatchStats::default();
    let t1 = std::time::Instant::now();
    let reference = match_body_reference(
        &body,
        &dbs,
        &mut factory,
        Bindings::new(),
        &mut reference_stats,
    )
    .unwrap();
    let reference_time = t1.elapsed();

    assert_eq!(indexed.len(), reference.len());
    eprintln!(
        "[E4] 3-way join over 10_100 objects ({} results):\n\
         [E4]   indexed matcher:  {indexed_time:?}, bindings_considered {}, \
         extents_scanned {}, index_probes {}\n\
         [E4]   pre-index matcher: {reference_time:?}, bindings_considered {}, \
         extents_scanned {}\n\
         [E4]   bindings ratio {:.1}x, wall-clock speed-up {:.1}x",
        indexed.len(),
        indexed_stats.bindings_considered,
        indexed_stats.extents_scanned,
        indexed_stats.index_probes,
        reference_stats.bindings_considered,
        reference_stats.extents_scanned,
        reference_stats.bindings_considered as f64
            / indexed_stats.bindings_considered.max(1) as f64,
        reference_time.as_secs_f64() / indexed_time.as_secs_f64().max(1e-9)
    );

    // Semi-naive + indexed fixpoint vs full pre-index fixpoint. The baseline
    // is cubic in the extents (clause T3 joins CountryT x CityT x CityE), so
    // this comparison runs at 1_100 objects; the indexed numbers at 10_100
    // objects come from the `naive_multi_pass` group above.
    let fixpoint_source = generate_euro(100, 10, 42);
    let t0 = std::time::Instant::now();
    let (_, semi_report) = naive_transform_with_report(
        &program,
        &[&fixpoint_source][..],
        "target",
        &NaiveOptions::default(),
    )
    .unwrap();
    let semi_time = t0.elapsed();
    let preindex = NaiveOptions {
        semi_naive: false,
        use_indexed_matching: false,
        ..NaiveOptions::default()
    };
    let t1 = std::time::Instant::now();
    let (_, preindex_report) =
        naive_transform_with_report(&program, &[&fixpoint_source][..], "target", &preindex)
            .unwrap();
    let preindex_time = t1.elapsed();
    eprintln!(
        "[E4] naive fixpoint over 1_100 objects:\n\
         [E4]   semi-naive+indexed: {semi_time:?} ({} passes, {} bindings, {} probes, {} clauses skipped)\n\
         [E4]   full+pre-index:     {preindex_time:?} ({} passes, {} bindings)\n\
         [E4]   bindings ratio {:.1}x, wall-clock speed-up {:.1}x",
        semi_report.passes,
        semi_report.bindings_considered,
        semi_report.index_probes,
        semi_report.clauses_skipped,
        preindex_report.passes,
        preindex_report.bindings_considered,
        preindex_report.bindings_considered as f64 / semi_report.bindings_considered.max(1) as f64,
        preindex_time.as_secs_f64() / semi_time.as_secs_f64().max(1e-9)
    );

    // Machine-readable summary for cross-PR tracking.
    bench::BenchJson::new()
        .str("bench", "e4_execution")
        .obj(
            "morphase_single_pass_300_cities",
            bench::BenchJson::new()
                .num("secs", single.as_secs_f64())
                .int("rows_scanned", morphase_run.exec.rows_scanned as u64)
                .int(
                    "max_intermediate_rows",
                    morphase_run.exec.max_intermediate_rows as u64,
                )
                .int("index_probes", morphase_run.exec.index_probes as u64),
        )
        .num("naive_multi_pass_300_cities_secs", naive.as_secs_f64())
        .obj(
            "three_way_join_10100_objects",
            bench::BenchJson::new()
                .num("indexed_secs", indexed_time.as_secs_f64())
                .num("reference_secs", reference_time.as_secs_f64())
                .int("indexed_bindings", indexed_stats.bindings_considered as u64)
                .int(
                    "reference_bindings",
                    reference_stats.bindings_considered as u64,
                )
                .int("index_probes", indexed_stats.index_probes as u64),
        )
        .obj(
            "fixpoint_1100_objects",
            bench::BenchJson::new()
                .num("semi_naive_indexed_secs", semi_time.as_secs_f64())
                .num("full_preindex_secs", preindex_time.as_secs_f64())
                .int(
                    "semi_naive_bindings",
                    semi_report.bindings_considered as u64,
                )
                .int(
                    "preindex_bindings",
                    preindex_report.bindings_considered as u64,
                ),
        )
        .stamped()
        .write("BENCH_e4.json");
}

criterion_group!(benches, bench_execution);
criterion_main!(benches);
