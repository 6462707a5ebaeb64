//! Soak and durability suites for the standing [`MaterializedPipeline`]:
//! many concurrent readers against one maintainer over thousands of batches,
//! panic propagation, and crash/resume of the journalled source mid-stream;
//! and the federated program, whose filtered scans bind their projections
//! below the joins, maintained under random batches.

mod federated_source;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use wol_repro::cpl::Parallelism;
use wol_repro::morphase::{
    DurableOptions, MaterializedPipeline, Morphase, MorphaseError, PipelineOptions, PipelineService,
};
use wol_repro::storage::persist::{FaultPolicy, PipelineJournal};
use wol_repro::wol_model::{ClassName, Instance, MutationBatch, Oid, Value};
use wol_repro::workloads::federated::{self, FederatedParams};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

/// A fresh scratch directory, unique across parallel tests in this process.
fn temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "wol-maintenance-{label}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn genome_pipeline(params: &GenomeParams) -> MaterializedPipeline {
    MaterializedPipeline::new(
        &genome::program(),
        vec![genome::generate_source(params)],
        PipelineOptions::default(),
    )
    .expect("genome pipeline builds")
}

/// A deterministic stream: `in_place` batches of steady traffic followed by
/// `mixed` batches exercising every maintenance path (the mixed generator
/// continues from the in-place generator's shadow).
fn stream(
    source: &Instance,
    seed: u64,
    in_place: usize,
    mixed: usize,
    ops: usize,
) -> Vec<MutationBatch> {
    let mut batches = Vec::with_capacity(in_place + mixed);
    let mut steady = TrafficGen::new(source, seed, TrafficWeights::in_place());
    for _ in 0..in_place {
        batches.push(steady.next_batch(ops));
    }
    let mut spicy = TrafficGen::new(steady.shadow(), seed ^ 0x5eed, TrafficWeights::mixed());
    for _ in 0..mixed {
        batches.push(spicy.next_batch(ops));
    }
    batches
}

fn assert_matches_oracle(pipeline: &MaterializedPipeline, context: &str) {
    let oracle = pipeline.rerun_oracle().expect("oracle runs");
    if let Some(report) = pipeline.target().deep_eq_report(&oracle.target) {
        panic!("{context}: maintained target diverged from the oracle: {report}");
    }
}

/// The soak: four readers hammer snapshots (checking intra-snapshot
/// referential consistency on every read) while the maintainer absorbs
/// thousands of steady batches and a mixed tail — duplicate Skolem keys,
/// foreign-read churn, removals and renames, all repaired in place. The
/// final target must be bit-identical to the same stream applied to a plain
/// single-threaded pipeline, and to a from-scratch re-run. A closing batch
/// whose contributions genuinely conflict then fails in place, with the same
/// error on both pipelines alike and in a fresh run over the conflicting
/// sources.
#[test]
fn soak_concurrent_readers_never_observe_torn_targets() {
    let params = GenomeParams::default();
    let source = genome::generate_source(&params);
    let (in_place, mixed) = if cfg!(debug_assertions) {
        (300, 30)
    } else {
        (2000, 120)
    };
    let batches = stream(&source, 99, in_place, mixed, 2);

    // Reference: the same stream through a plain pipeline.
    let mut reference = genome_pipeline(&params);
    for batch in &batches {
        reference.apply_batch(batch).expect("reference applies");
    }
    let reference_target = reference.target().clone();
    let oracle = reference.rerun_oracle().expect("oracle runs").target;
    // A second clone under an existing clone's name, with another length:
    // two rows contribute different `length`s to one warehouse object.
    let clone_s = ClassName::new("CloneS");
    let twin = reference
        .source(0)
        .expect("source 0")
        .objects(&clone_s)
        .find_map(|(_, v)| match v.project("length") {
            Some(Value::Int(length)) => Some(Value::record([
                ("name", v.project("name")?.clone()),
                ("length", Value::int(length + 1)),
            ])),
            _ => None,
        })
        .expect("a clone with a length");
    let conflicting = MutationBatch::new().insert(clone_s, twin);
    let mut conflicted = reference.source(0).expect("source 0").clone();
    conflicted
        .apply_batch(&conflicting)
        .expect("the batch applies to the sources");
    let reference_err = reference
        .apply_batch(&conflicting)
        .expect_err("a fresh run of the conflicting sources fails");
    let fresh_err = Morphase::new()
        .transform(&genome::program(), &[&conflicted][..])
        .expect_err("a fresh run over the conflicting sources fails");
    assert_eq!(
        fresh_err, reference_err,
        "a fresh run names the same conflict"
    );

    let service = PipelineService::start(genome_pipeline(&params));
    let stop = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let marker_d = ClassName::new("MarkerD");
    let clone_d = ClassName::new("CloneD");
    std::thread::scope(|scope| {
        let service = &service;
        let stop = &stop;
        let reads = &reads;
        let marker_d = &marker_d;
        let clone_d = &clone_d;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = service.snapshot();
                        // Intra-snapshot consistency: a marker's clone
                        // reference resolves inside the same snapshot. A
                        // torn read (marker published before its clone, or
                        // a half-swept removal) would dangle. Capped so the
                        // readers contend without starving the maintainer.
                        for oid in snap.extent(marker_d).take(128) {
                            if let Some(value) = snap.value(oid) {
                                if let Some(Value::Oid(clone)) = value.project("clone") {
                                    assert_eq!(clone.class(), clone_d);
                                    assert!(
                                        snap.contains(clone),
                                        "snapshot dangles: {oid} -> {clone}"
                                    );
                                }
                            }
                        }
                        reads.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for batch in &batches {
            service.apply(batch.clone()).expect("service applies");
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader never panics");
        }
    });
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "the readers never got a snapshot in"
    );
    let published = service.snapshot();
    if let Some(report) = published.deep_eq_report(&reference_target) {
        panic!("service target diverged from the plain pipeline: {report}");
    }
    assert_eq!(*published, reference_target);
    if let Some(report) = published.deep_eq_report(&oracle) {
        panic!("soak final state: maintained target diverged from the oracle: {report}");
    }
    let err = service
        .apply(conflicting)
        .expect_err("the conflicting batch fails");
    assert_eq!(err, reference_err);
    assert!(err.to_string().contains("conflicting values"), "{err}");
    let pipeline = service.shutdown().expect("clean shutdown");
    assert_eq!(pipeline.stats().batches, batches.len() as u64 + 1);
    assert_eq!(
        pipeline.stats().rebuild_batches,
        0,
        "the conflicting batch fails in place, without a rebuild"
    );
    assert!(pipeline.is_poisoned());
    assert_eq!(
        pipeline.stats(),
        reference.stats(),
        "the service must be a pure wrapper: identical maintenance stats"
    );
}

/// A maintainer panic mid-stream surfaces loudly: queued and later requests
/// error instead of hanging, and shutdown re-raises the panic.
#[test]
fn soak_maintainer_panics_propagate_instead_of_hanging() {
    let params = GenomeParams::default();
    let source = genome::generate_source(&params);
    let service = PipelineService::start(genome_pipeline(&params));
    let mut gen = TrafficGen::new(&source, 5, TrafficWeights::in_place());
    for _ in 0..10 {
        service.apply(gen.next_batch(2)).expect("healthy applies");
    }
    service.inject_panic();
    assert!(
        service.apply(gen.next_batch(2)).is_err(),
        "applies after a maintainer panic must error, not hang"
    );
    let snapshot = service.snapshot();
    assert!(
        !snapshot.populated_classes().is_empty(),
        "the last published snapshot stays readable"
    );
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = service.shutdown();
    }));
    assert!(panicked.is_err(), "shutdown must re-raise the panic");
}

/// The durable maintainer commits one journal batch per applied mutation
/// batch: a WAL torn mid-record kills the stream, and reopening the
/// directory recovers exactly the committed prefix — the torn tail is
/// discarded — after which replaying the remaining batches lands on a
/// target bit-identical to an uncrashed run.
#[test]
fn durable_maintenance_recovers_the_committed_prefix_after_a_torn_write() {
    let params = GenomeParams::default();
    let program = genome::program();
    let source = genome::generate_source(&params);
    let batches = stream(&source, 41, 6, 4, 3);

    // Uncrashed reference over the full stream.
    let mut reference = genome_pipeline(&params);
    for batch in &batches {
        reference.apply_batch(batch).expect("reference applies");
    }

    // Calibrate a fault offset that lands inside a mid-stream record: the
    // WAL size after two committed batches, plus a few bytes.
    let probe_dir = temp_dir("probe");
    let mut probe = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&probe_dir),
    )
    .expect("probe pipeline builds");
    for batch in &batches[..2] {
        probe.apply_batch(batch).expect("probe applies");
    }
    let offset = std::fs::metadata(probe_dir.join(PipelineJournal::WAL_FILE))
        .expect("probe WAL exists")
        .len()
        + 16;
    drop(probe);
    std::fs::remove_dir_all(&probe_dir).ok();

    // Crashing run: the third batch's journal record tears.
    let dir = temp_dir("crash");
    let mut crashing = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&dir).with_fault(FaultPolicy::torn_at(offset)),
    )
    .expect("the fault lies beyond the initial dump");
    let mut applied = 0usize;
    let err = loop {
        match crashing.apply_batch(&batches[applied]) {
            Ok(_) => applied += 1,
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, MorphaseError::Durability(_)),
        "unexpected failure mode: {err}"
    );
    assert!(
        (1..batches.len()).contains(&applied),
        "the fault must strike mid-stream (applied {applied})"
    );
    assert!(
        crashing.is_poisoned(),
        "a torn journal poisons the pipeline"
    );
    assert!(
        crashing.apply_batch(&batches[applied]).is_err(),
        "a poisoned pipeline refuses further batches"
    );
    drop(crashing);

    // Resume: the committed prefix is recovered, the torn batch is not.
    let mut resumed = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&dir),
    )
    .expect("recovery succeeds");
    assert_eq!(
        resumed.recovered_batches(),
        applied as u64,
        "exactly the committed batches are recovered"
    );
    for batch in &batches[applied..] {
        resumed.apply_batch(batch).expect("resumed applies");
    }
    if let Some(report) = resumed.target().deep_eq_report(reference.target()) {
        panic!("resumed target diverged from the uncrashed reference: {report}");
    }
    assert_matches_oracle(&resumed, "resumed stream");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpointing folds the WAL into a compact snapshot without losing
/// progress: resuming after a checkpoint (plus further batches) recovers
/// everything, and the stream completes bit-identically.
#[test]
fn durable_checkpoint_preserves_progress_and_truncates_the_wal() {
    let params = GenomeParams::default();
    let program = genome::program();
    let source = genome::generate_source(&params);
    let batches = stream(&source, 77, 5, 3, 2);

    let mut reference = genome_pipeline(&params);
    for batch in &batches {
        reference.apply_batch(batch).expect("reference applies");
    }

    let dir = temp_dir("checkpoint");
    let mut durable = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&dir),
    )
    .expect("durable pipeline builds");
    for batch in &batches[..4] {
        durable.apply_batch(batch).expect("pre-checkpoint applies");
    }
    let wal_before = std::fs::metadata(dir.join(PipelineJournal::WAL_FILE))
        .expect("WAL exists")
        .len();
    durable.checkpoint().expect("checkpoint succeeds");
    let wal_after = std::fs::metadata(dir.join(PipelineJournal::WAL_FILE))
        .expect("WAL exists")
        .len();
    assert!(
        wal_after < wal_before,
        "the checkpoint must truncate the WAL ({wal_before} -> {wal_after})"
    );
    for batch in &batches[4..6] {
        durable.apply_batch(batch).expect("post-checkpoint applies");
    }
    drop(durable);

    let mut resumed = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&dir),
    )
    .expect("recovery succeeds");
    assert_eq!(resumed.recovered_batches(), 6);
    for batch in &batches[6..] {
        resumed.apply_batch(batch).expect("resumed applies");
    }
    if let Some(report) = resumed.target().deep_eq_report(reference.target()) {
        panic!("checkpointed stream diverged from the reference: {report}");
    }
    assert_matches_oracle(&resumed, "checkpointed stream");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small deterministic generator: the root package has no `rand`.
struct Lcg(u64);

impl Lcg {
    /// Uniform-enough in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) as usize) % n.max(1)
    }

    /// An integer on the other side of `cutoff` from `value`, within
    /// `spread` of it.
    fn across(&mut self, value: i64, cutoff: i64, spread: usize) -> i64 {
        let step = self.below(spread) as i64;
        if value < cutoff {
            cutoff + step
        } else {
            cutoff - 1 - step
        }
    }

    /// An integer within `spread` of `cutoff`, on either side.
    fn near(&mut self, cutoff: i64, spread: usize) -> i64 {
        cutoff - spread as i64 + self.below(2 * spread) as i64
    }
}

/// One random federated batch against `source`: updates that move clone
/// lengths, marker positions and assay levels across the program's three
/// guards, inserts into all three fragments (fresh names, references to
/// live objects) and removals, each object touched at most once.
fn federated_batch(source: &Instance, rng: &mut Lcg, n: usize) -> MutationBatch {
    let classes = ["CloneR", "MarkerA", "AssayC"].map(ClassName::new);
    let extents: Vec<Vec<Oid>> = classes
        .iter()
        .map(|class| source.extent(class).cloned().collect())
        .collect();
    let attr_of = |oid: &Oid, attr: &str| {
        let value = source.value(oid).expect("a live object");
        value.as_record().expect("a record").get(attr).cloned()
    };
    let mut touched = BTreeSet::new();
    let mut batch = MutationBatch::new();
    for op in 0..6 {
        let fragment = rng.below(3);
        let extent = &extents[fragment];
        let victim = extent[rng.below(extent.len())].clone();
        if op % 3 != 2 && !touched.insert(victim.clone()) {
            continue;
        }
        batch = match (op % 3, fragment) {
            (0, _) => {
                let (attr, cutoff, spread) = [
                    ("length", federated::LENGTH_CUTOFF, 20_000),
                    ("position", federated::POSITION_CUTOFF, 20_000_000),
                    ("level", federated::LEVEL_FLOOR, 20),
                ][fragment];
                let mut value = source.value(&victim).expect("a live object").clone();
                if let Value::Record(fields) = &mut value {
                    let Some(&Value::Int(old)) = fields.get(attr) else {
                        panic!("{attr} is no int");
                    };
                    fields.insert(attr.into(), Value::int(rng.across(old, cutoff, spread)));
                }
                batch.update(victim, value)
            }
            (1, _) => batch.remove(victim),
            (_, 0) => batch.insert(
                classes[0].clone(),
                Value::record([
                    ("name", Value::from(format!("cN-{n}-{op}"))),
                    (
                        "length",
                        Value::int(rng.near(federated::LENGTH_CUTOFF, 20_000)),
                    ),
                    ("lab", Value::str("Sanger")),
                ]),
            ),
            (_, 1) => {
                let clone = &extents[0][rng.below(extents[0].len())];
                batch.insert(
                    classes[1].clone(),
                    Value::record([
                        ("name", Value::from(format!("mN-{n}-{op}"))),
                        (
                            "position",
                            Value::int(rng.near(federated::POSITION_CUTOFF, 1_000)),
                        ),
                        ("clone_name", attr_of(clone, "name").expect("a name")),
                    ]),
                )
            }
            _ => {
                let marker = &extents[1][rng.below(extents[1].len())];
                batch.insert(
                    classes[2].clone(),
                    Value::record([
                        ("sample", Value::from(format!("aN-{n}-{op}"))),
                        ("marker", attr_of(marker, "name").expect("a name")),
                        ("tissue", Value::str("liver")),
                        ("level", Value::int(rng.near(federated::LEVEL_FLOOR, 20))),
                        ("batch", Value::str("B0")),
                    ]),
                )
            }
        };
    }
    batch
}

/// The federated program maintained over a fully ingested source: its
/// filtered scans bind their projections in `Map`s below the joins, which
/// the stand-up run evaluates on the columnar driver and every delta run on
/// the row path. After each random batch the maintained target equals the
/// oracle re-run and a fresh transform of the same source, at one and at
/// eight threads.
#[test]
fn federated_maintenance_over_bindings_below_the_joins_matches_fresh_runs() {
    let program = federated::program();
    let source = federated_source::fully_ingested(&FederatedParams::scaled(1));
    for threads in [1, 8] {
        let options = PipelineOptions {
            parallelism: Parallelism::new(threads).with_min_items(1),
            ..PipelineOptions::default()
        };
        let mut pipeline = MaterializedPipeline::new(&program, vec![source.clone()], options)
            .expect("federated pipeline builds");
        let mut rng = Lcg(0xfed);
        for n in 0..20 {
            let batch = federated_batch(pipeline.source(0).expect("one source"), &mut rng, n);
            pipeline.apply_batch(&batch).expect("batch applies");
            let context = format!("{threads} threads, batch {n}");
            assert_matches_oracle(&pipeline, &context);
            let fresh = Morphase::with_options(options)
                .transform(&program, &[pipeline.source(0).expect("one source")])
                .expect("fresh run");
            if let Some(report) = pipeline.target().deep_eq_report(&fresh.target) {
                panic!("{context}: maintained target diverged from a fresh run: {report}");
            }
        }
        let stats = pipeline.stats();
        eprintln!("[federated maintenance] {threads} threads: {stats:?}");
        assert!(
            stats.inplace_batches > 0 && stats.rows_added > 0 && stats.rows_removed > 0,
            "the batches must move rows in place both ways: {stats:?}"
        );
    }
}
