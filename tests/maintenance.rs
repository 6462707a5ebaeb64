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
    DurableOptions, MaintainStats, MaterializedPipeline, Morphase, MorphaseError, PipelineOptions,
    PipelineService,
};
use wol_repro::storage::persist::{FaultPolicy, PipelineJournal};
use wol_repro::wol_lang::program::{Program, SchemaBinding};
use wol_repro::wol_model::{ClassName, Instance, MutationBatch, Oid, Schema, Type, Value};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
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
/// foreign reads of changed clones, removals and renames, all repaired in
/// place. The final target must be bit-identical to the same stream applied
/// to a plain single-threaded pipeline, and to a from-scratch re-run. A
/// closing batch whose contributions genuinely conflict then fails in place,
/// with the same error on both pipelines alike and in a fresh run over the
/// conflicting sources.
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
        pipeline.stats().inplace_batches,
        batches.len() as u64,
        "every batch but the conflicting one repairs in place; that one fails"
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

/// The thread counts every maintained stream below runs at.
const THREADS: [usize; 2] = [1, 8];

fn options_at(threads: usize) -> PipelineOptions {
    PipelineOptions {
        parallelism: Parallelism::new(threads).with_min_items(1),
        ..PipelineOptions::default()
    }
}

/// Stand `program` up over `source` at each of [`THREADS`] and apply
/// `rounds` batches, each built by `next` from the pipeline's current
/// source; after every batch the maintained target must equal the oracle's
/// re-run. Returns each thread count's cumulative statistics.
fn maintain_against_the_oracle(
    label: &str,
    program: &Program,
    source: &Instance,
    rounds: usize,
    next: impl Fn(&Instance, usize) -> MutationBatch,
) -> Vec<MaintainStats> {
    THREADS
        .iter()
        .map(|&threads| {
            let mut pipeline =
                MaterializedPipeline::new(program, vec![source.clone()], options_at(threads))
                    .expect("the pipeline builds");
            assert_matches_oracle(&pipeline, &format!("{label}, {threads} threads, stand-up"));
            for round in 0..rounds {
                let batch = next(pipeline.source(0).expect("one source"), round);
                pipeline.apply_batch(&batch).expect("the batch applies");
                let context = format!("{label}, {threads} threads, batch {round}");
                assert_matches_oracle(&pipeline, &context);
            }
            pipeline.stats().clone()
        })
        .inspect(|stats| assert_eq!(stats.inplace_batches, rounds as u64, "{label}"))
        .collect()
}

/// A record holding only a `name`.
fn named(name: &str) -> Value {
    Value::record([("name", Value::str(name))])
}

/// The identity `class`'s next batch insert into `source` mints.
fn next_minted(source: &Instance, class: &ClassName) -> Oid {
    let mut probe = source.clone();
    let batch = MutationBatch::new().insert(class.clone(), named("probe"));
    let delta = probe.apply_batch(&batch).expect("the probe insert applies");
    let inserted = &delta.class(class).expect("the class changed").inserted;
    inserted.first().cloned().expect("one identity minted")
}

/// A row whose reference dangles and then resolves is derived. `L1` reads
/// `S.clone.name` off markers alone; marker `m1`'s `clone` names the
/// identity the next `CloneS` insert mints, so no row of `m1` exists until
/// that insert lands — a batch that changes no marker. The clone is then
/// renamed (the label follows it), removed (the reference dangles again and
/// the label goes) and the marker pointed back at a live clone.
#[test]
fn a_dangling_reference_that_resolves_derives_its_row() {
    let target = Schema::new("labels").with_class(
        "LabelT",
        Type::record([("name", Type::str()), ("clone_name", Type::str())]),
    );
    let program = Program::new(
        "marker_labels",
        vec![SchemaBinding::new(genome::source_schema())],
        SchemaBinding::new(target),
    )
    .with_text(
        "L1: X in LabelT, X.name = N, X.clone_name = C <= S in MarkerS, N = S.name, \
             C = S.clone.name;\n\
         K1: X = Mk_LabelT(N) <= X in LabelT, N = X.name;",
    );
    let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
    let mut source = Instance::new("ace22");
    let live = source.insert_fresh(&clone_s, named("cA"));
    let pending = next_minted(&source, &clone_s);
    for (name, clone) in [("m0", &live), ("m1", &pending)] {
        let marker = Value::record([
            ("name", Value::from(name)),
            ("clone", Value::oid(clone.clone())),
        ]);
        source.insert_fresh(&marker_s, marker);
    }
    let label_t = ClassName::new("LabelT");
    let stats = maintain_against_the_oracle("dangling", &program, &source, 4, |source, round| {
        let m1 = source
            .find_by_field(&marker_s, "name", &Value::from("m1"))
            .cloned();
        let m1 = m1.expect("m1 is live");
        match round {
            0 => MutationBatch::new().insert(clone_s.clone(), named("cB")),
            1 => MutationBatch::new().update(pending.clone(), named("cB2")),
            2 => MutationBatch::new().remove(pending.clone()),
            _ => MutationBatch::new().update(
                m1,
                Value::record([
                    ("name", Value::from("m1")),
                    ("clone", Value::oid(live.clone())),
                ]),
            ),
        }
    });
    // Each side saw m1's label appear, follow the rename, go and return.
    for stats in &stats {
        assert_eq!((stats.rows_added, stats.rows_removed), (3, 2), "{stats:?}");
    }
    let mut pipeline =
        MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap();
    assert_eq!(pipeline.target().extent_size(&label_t), 1);
    let batch = MutationBatch::new().insert(clone_s.clone(), named("cB"));
    pipeline.apply_batch(&batch).unwrap();
    let label = pipeline
        .target()
        .find_by_field(&label_t, "name", &Value::from("m1"));
    let label = pipeline
        .target()
        .value(label.expect("m1's label is derived"))
        .unwrap();
    assert_eq!(label.project("clone_name"), Some(&Value::from("cB")));
}

/// Genome traffic weighted toward what `G7` reads through `S.clone`:
/// clone inserts, length updates and renames, beside marker traffic that
/// references live clones.
#[test]
fn clone_heavy_genome_streams_match_the_oracle_batch_by_batch() {
    let params = GenomeParams {
        clones: 12,
        markers: 40,
        density: 0.7,
        seed: 5,
    };
    let source = genome::generate_source(&params);
    let weights = TrafficWeights {
        insert_clone: 4,
        update_clone: 4,
        rename_clone: 4,
        ..TrafficWeights::mixed()
    };
    let mut traffic = TrafficGen::new(&source, 0xc10e, weights);
    let batches: Vec<MutationBatch> = (0..40).map(|_| traffic.next_batch(3)).collect();
    let stats = maintain_against_the_oracle(
        "clone-heavy genome",
        &genome::program(),
        &source,
        40,
        |_, round| batches[round].clone(),
    );
    assert_eq!(
        stats[0], stats[1],
        "the counters do not depend on the thread count"
    );
}

/// Clones sharing a name. `G7` keys a marker's warehouse clone by
/// `S.clone.name`, so a marker's row joins every clone under its clone's
/// name, and a rotation pinned to a changed clone probes the markers through
/// that name. Random batches rename a clone to another clone's name (taking
/// its whole record, so clones under one name agree on `length` and `lab`),
/// insert a clone under a live clone's name, rename a clone to a fresh name,
/// remove a clone and point a marker at another clone; each equals the
/// oracle at one and eight threads. The mixed traffic never shares a name.
#[test]
fn clones_sharing_a_name_match_the_oracle_batch_by_batch() {
    let params = GenomeParams {
        clones: 10,
        markers: 40,
        density: 0.7,
        seed: 9,
    };
    let source = genome::generate_source(&params);
    let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
    let shared_rounds = std::cell::Cell::new(0);
    let step = |source: &Instance, round: usize| {
        let clones: Vec<Oid> = source.extent(&clone_s).cloned().collect();
        let markers: Vec<Oid> = source.extent(&marker_s).cloned().collect();
        let names: BTreeSet<&Value> = (source.objects(&clone_s))
            .filter_map(|(_, value)| value.project("name"))
            .collect();
        if names.len() < clones.len() {
            shared_rounds.set(shared_rounds.get() + 1);
        }
        let mut rng = Lcg(0x5a3e + round as u64);
        let mut touched = BTreeSet::new();
        let mut batch = MutationBatch::new();
        for op in 0..3 {
            let pick = |rng: &mut Lcg, of: &[Oid]| of[rng.below(of.len())].clone();
            let (victim, twin) = (pick(&mut rng, &clones), pick(&mut rng, &clones));
            let twin_value = source.value(&twin).expect("a live clone").clone();
            let kind = rng.below(5);
            let victim = match kind {
                0 | 2 | 3 => victim,
                1 => {
                    batch = batch.insert(clone_s.clone(), twin_value);
                    continue;
                }
                _ => pick(&mut rng, &markers),
            };
            if !touched.insert(victim.clone()) {
                continue;
            }
            let mut value = source.value(&victim).expect("a live object").clone();
            batch = match kind {
                0 => batch.update(victim, twin_value),
                2 => {
                    if let Value::Record(fields) = &mut value {
                        let fresh = format!("clone-r{round}-{op}");
                        fields.insert("name".into(), Value::str(fresh));
                    }
                    batch.update(victim, value)
                }
                3 if clones.len() > 4 => batch.remove(victim),
                3 => batch,
                _ => {
                    if let Value::Record(fields) = &mut value {
                        fields.insert("clone".into(), Value::oid(twin));
                    }
                    batch.update(victim, value)
                }
            };
        }
        batch
    };
    let stats = maintain_against_the_oracle("shared names", &genome::program(), &source, 30, step);
    assert_eq!(
        stats[0], stats[1],
        "the counters do not depend on the thread count"
    );
    // Both runs saw clones share a name before most of their batches.
    assert!(shared_rounds.get() > 30, "{} rounds", shared_rounds.get());
}

/// One random batch against a European source: countries renamed (to a
/// fresh name), given a new currency or removed — their cities' `country`
/// then dangles — and inserted; cities moved to another country, removed
/// and inserted. A moved or inserted city is never a capital, so no
/// country gets two. Each object is touched at most once.
fn euro_batch(source: &Instance, round: usize) -> MutationBatch {
    let (country, city) = (ClassName::new("CountryE"), ClassName::new("CityE"));
    let countries: Vec<Oid> = source.extent(&country).cloned().collect();
    let cities: Vec<Oid> = source.extent(&city).cloned().collect();
    let mut rng = Lcg(0xe0 + round as u64);
    let mut touched = BTreeSet::new();
    let mut batch = MutationBatch::new();
    let city_value = |name: String, of: &Oid| {
        Value::record([
            ("name", Value::str(name)),
            ("is_capital", Value::bool(false)),
            ("country", Value::oid(of.clone())),
        ])
    };
    for op in 0..3 {
        let fresh = format!("r{round}-{op}");
        let some_country = countries[rng.below(countries.len())].clone();
        let some_city = cities[rng.below(cities.len())].clone();
        let (victim, kind) = match rng.below(6) {
            kind @ 0..=2 => (some_country.clone(), kind),
            kind => (some_city.clone(), kind),
        };
        if !touched.insert(victim.clone()) {
            continue;
        }
        let mut value = source.value(&victim).expect("a live object").clone();
        batch = match kind {
            0 => {
                if let Value::Record(fields) = &mut value {
                    let attr = if rng.below(2) == 0 {
                        "name"
                    } else {
                        "currency"
                    };
                    fields.insert(attr.into(), Value::str(format!("Country-{fresh}")));
                }
                batch.update(victim, value)
            }
            1 if countries.len() > 3 => batch.remove(victim),
            1 | 2 => batch.insert(
                country.clone(),
                Value::record([
                    ("name", Value::str(format!("Country-{fresh}"))),
                    ("language", Value::str("Latin")),
                    ("currency", Value::str("denarius")),
                ]),
            ),
            3 if value.project("is_capital") == Some(&Value::bool(false)) => {
                if let Value::Record(fields) = &mut value {
                    fields.insert("country".into(), Value::oid(some_country));
                }
                batch.update(victim, value)
            }
            3 | 4 => batch.remove(victim),
            _ => batch.insert(
                city.clone(),
                city_value(format!("City-{fresh}"), &some_country),
            ),
        };
    }
    batch
}

/// A US source of `states` states with `cities` cities each, every state's
/// first city its capital.
fn us_instance(states: usize, cities: usize) -> Instance {
    let (state_a, city_a) = (ClassName::new("StateA"), ClassName::new("CityA"));
    let mut inst = Instance::new("us");
    for s in 0..states {
        let state = inst.insert_fresh(&state_a, Value::Record(Default::default()));
        let towns: Vec<Oid> = (0..cities)
            .map(|c| {
                let value = Value::record([
                    ("name", Value::str(format!("Town{s}_{c}"))),
                    ("state", Value::oid(state.clone())),
                ]);
                inst.insert_fresh(&city_a, value)
            })
            .collect();
        let value = Value::record([
            ("name", Value::str(format!("State{s}"))),
            ("capital", Value::oid(towns[0].clone())),
        ]);
        inst.update(&state, value).expect("the state is live");
    }
    inst
}

/// One random batch against a US source: states renamed (a fresh name),
/// given another capital, removed — their cities' `state` and no other
/// state's `capital` then dangles — and inserted; cities renamed, moved to
/// another state, removed and inserted. Each object is touched at most
/// once.
fn us_batch(source: &Instance, round: usize) -> MutationBatch {
    let (state_a, city_a) = (ClassName::new("StateA"), ClassName::new("CityA"));
    let states: Vec<Oid> = source.extent(&state_a).cloned().collect();
    let cities: Vec<Oid> = source.extent(&city_a).cloned().collect();
    let mut rng = Lcg(0x05 + round as u64);
    let mut touched = BTreeSet::new();
    let mut batch = MutationBatch::new();
    for op in 0..3 {
        let fresh = format!("r{round}-{op}");
        let some_state = states[rng.below(states.len())].clone();
        let some_city = cities[rng.below(cities.len())].clone();
        let (victim, kind) = match rng.below(8) {
            kind @ 0..=3 => (some_state.clone(), kind),
            kind => (some_city.clone(), kind),
        };
        if !touched.insert(victim.clone()) {
            continue;
        }
        let mut value = source.value(&victim).expect("a live object").clone();
        let mut set = |attr: &str, to: Value| {
            if let Value::Record(fields) = &mut value {
                fields.insert(attr.into(), to);
            }
        };
        batch = match kind {
            0 => {
                set("name", Value::str(format!("State-{fresh}")));
                batch.update(victim, value)
            }
            1 => {
                set("capital", Value::oid(some_city));
                batch.update(victim, value)
            }
            2 if states.len() > 3 => batch.remove(victim),
            2 | 3 => batch.insert(
                state_a.clone(),
                Value::record([
                    ("name", Value::str(format!("State-{fresh}"))),
                    ("capital", Value::oid(some_city)),
                ]),
            ),
            4 => {
                set("name", Value::str(format!("Town-{fresh}")));
                batch.update(victim, value)
            }
            5 => {
                set("state", Value::oid(some_state));
                batch.update(victim, value)
            }
            6 => batch.remove(victim),
            _ => batch.insert(
                city_a.clone(),
                Value::record([
                    ("name", Value::str(format!("Town-{fresh}"))),
                    ("state", Value::oid(some_state)),
                ]),
            ),
        };
    }
    batch
}

/// The paper's running example under random streams that update and
/// remove the objects its queries read through references — `CountryE`
/// (read by T2 and T3 through `E.country`), `StateA` (U2 and U3, through
/// `A.state`) and `CityA` (U3, through `A.capital`).
#[test]
fn cities_streams_over_referenced_objects_match_the_oracle_batch_by_batch() {
    let w = CitiesWorkload::new();
    let euro = maintain_against_the_oracle(
        "euro",
        &w.euro_program(),
        &generate_euro(6, 4, 7),
        30,
        euro_batch,
    );
    let us = maintain_against_the_oracle("us", &w.us_program(), &us_instance(6, 4), 30, us_batch);
    for stats in euro.iter().chain(&us) {
        assert!(stats.rows_removed > 0 && stats.rows_added > 0, "{stats:?}");
    }
}

/// A program reading through a two-hop reference chain: `T1` reads
/// `T.region.country.name`, so a town's row reads its region and that
/// region's country. Region `R-pending` names the identity the next
/// `Country` insert mints, and the stream's first batch is that insert:
/// its towns' rows are derived although no town or region changed. Then
/// random batches rename, move and remove countries, regions and towns,
/// each equal to the oracle at one and eight threads. On a fresh pipeline,
/// renaming one country sweeps exactly the rows of the towns that reach it,
/// and renaming one region exactly the rows of its towns.
#[test]
fn two_hop_reference_chains_maintain_and_sweep_only_their_readers() {
    let [country, region, town] = ["Country", "Region", "Town"].map(ClassName::new);
    let schema = Schema::new("geo")
        .with_class("Country", Type::record([("name", Type::str())]))
        .with_class(
            "Region",
            Type::record([("name", Type::str()), ("country", Type::class("Country"))]),
        )
        .with_class(
            "Town",
            Type::record([("name", Type::str()), ("region", Type::class("Region"))]),
        );
    let target = Schema::new("atlas").with_class(
        "TownT",
        Type::record([("name", Type::str()), ("country_name", Type::str())]),
    );
    let program = Program::new(
        "towns",
        vec![SchemaBinding::new(schema)],
        SchemaBinding::new(target),
    )
    .with_text(
        "T1: X in TownT, X.name = N, X.country_name = C <= T in Town, N = T.name, \
             C = T.region.country.name;\n\
         K1: X = Mk_TownT(N) <= X in TownT, N = X.name;",
    );
    let mut source = Instance::new("geo");
    let countries: Vec<Oid> = (0..3)
        .map(|c| source.insert_fresh(&country, named(&format!("C{c}"))))
        .collect();
    let pending = next_minted(&source, &country);
    let mut regions = Vec::new();
    for (r, of) in countries.iter().chain([&pending]).enumerate() {
        for half in 0..2 {
            let value = Value::record([
                ("name", Value::str(format!("R{r}.{half}"))),
                ("country", Value::oid(of.clone())),
            ]);
            regions.push(source.insert_fresh(&region, value));
        }
    }
    for (r, of) in regions.iter().enumerate() {
        for t in 0..3 {
            let value = Value::record([
                ("name", Value::str(format!("T{r}.{t}"))),
                ("region", Value::oid(of.clone())),
            ]);
            source.insert_fresh(&town, value);
        }
    }
    let step = |source: &Instance, round: usize| {
        if round == 0 {
            return MutationBatch::new().insert(country.clone(), named("C-minted"));
        }
        let extent = |class: &ClassName| source.extent(class).cloned().collect::<Vec<Oid>>();
        let (countries, regions, towns) = (extent(&country), extent(&region), extent(&town));
        let mut rng = Lcg(0x2e0 + round as u64);
        let mut touched = BTreeSet::new();
        let mut batch = MutationBatch::new();
        for op in 0..3 {
            let fresh = format!("r{round}-{op}");
            let pick = |rng: &mut Lcg, of: &[Oid]| of[rng.below(of.len())].clone();
            let (victim, attr, to) = match rng.below(7) {
                0 => (
                    pick(&mut rng, &countries),
                    "name",
                    Value::str(format!("C-{fresh}")),
                ),
                1 => (
                    pick(&mut rng, &regions),
                    "name",
                    Value::str(format!("R-{fresh}")),
                ),
                2 => (
                    pick(&mut rng, &regions),
                    "country",
                    Value::oid(pick(&mut rng, &countries)),
                ),
                3 => (
                    pick(&mut rng, &towns),
                    "region",
                    Value::oid(pick(&mut rng, &regions)),
                ),
                4 if countries.len() > 2 => (pick(&mut rng, &countries), "", Value::Absent),
                5 if regions.len() > 4 => (pick(&mut rng, &regions), "", Value::Absent),
                4 | 5 => {
                    let value = Value::record([
                        ("name", Value::str(format!("R-{fresh}"))),
                        ("country", Value::oid(pick(&mut rng, &countries))),
                    ]);
                    batch = batch.insert(region.clone(), value);
                    continue;
                }
                _ => {
                    let value = Value::record([
                        ("name", Value::str(format!("T-{fresh}"))),
                        ("region", Value::oid(pick(&mut rng, &regions))),
                    ]);
                    batch = batch.insert(town.clone(), value);
                    continue;
                }
            };
            if !touched.insert(victim.clone()) {
                continue;
            }
            batch = if attr.is_empty() {
                batch.remove(victim)
            } else {
                let mut value = source.value(&victim).expect("a live object").clone();
                if let Value::Record(fields) = &mut value {
                    fields.insert(attr.into(), to);
                }
                batch.update(victim, value)
            };
        }
        batch
    };
    maintain_against_the_oracle("two-hop", &program, &source, 30, step);

    // The sweeps: a fresh pipeline renames a country (two regions of three
    // towns reach it), then one of those regions.
    let mut pipeline = MaterializedPipeline::new(&program, vec![source], options_at(1))
        .expect("the pipeline builds");
    for (oid, towns) in [(&countries[0], 6), (&regions[0], 3)] {
        let mut value = pipeline.source(0).unwrap().value(oid).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::str("renamed"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(oid.clone(), value))
            .expect("the rename applies");
        assert_eq!(
            (report.rows_removed, report.rows_added),
            (towns, towns),
            "{oid}"
        );
        assert_matches_oracle(&pipeline, &format!("renamed {oid}"));
    }
}

/// Rows the seed-22 serving stream may sweep in all (see below).
const MIXED_STREAM_ROWS_REMOVED_CEILING: u64 = 3_000;

/// Rows the seed-22 serving stream's rotations may scan in all (see below).
const MIXED_STREAM_ROWS_SCANNED_CEILING: usize = 10_000;

/// Maintenance costs the delta: the serving benchmark's stream — the
/// genome warehouse at `GenomeParams::scaled(4)` under 400 seed-22
/// `TrafficWeights::mixed()` batches of four operations — sweeps only the
/// rows its batches reach, and its rotations scan only the changed objects.
/// A changed clone re-derives the rows of the markers that reference it,
/// not all of `G7`, which swept 167,240 rows in all when any clone change
/// re-derived the whole query (2,497 now). A rotation pinned to a changed
/// clone drives `G7` from that clone and reaches its markers through the
/// reference chain `S.clone` — `CloneS` by `name`, then `MarkerS` by
/// `clone` — instead of scanning every marker: 6,620 rows scanned after
/// stand-up, against 406,518 when it hash-joined the whole `MarkerS`
/// extent. The target equals the oracle's at every 40th batch.
#[test]
fn the_mixed_serving_stream_sweeps_only_the_rows_its_batches_reach() {
    let source = genome::generate_source(&GenomeParams::scaled(4));
    let mut pipeline = MaterializedPipeline::new(
        &genome::program(),
        vec![source.clone()],
        PipelineOptions::default(),
    )
    .expect("genome pipeline builds");
    let stand_up = pipeline.stats().delta_exec;
    let mut traffic = TrafficGen::new(&source, 22, TrafficWeights::mixed());
    for n in 1..=400 {
        pipeline
            .apply_batch(&traffic.next_batch(4))
            .expect("batch applies");
        if n % 40 == 0 {
            assert_matches_oracle(&pipeline, &format!("mixed stream, batch {n}"));
        }
    }
    let stats = pipeline.stats();
    let scanned = stats.delta_exec.rows_scanned - stand_up.rows_scanned;
    eprintln!(
        "[mixed stream] rows_removed {} rows_added {} rows_scanned {scanned}",
        stats.rows_removed, stats.rows_added
    );
    assert!(
        stats.rows_removed <= MIXED_STREAM_ROWS_REMOVED_CEILING,
        "the stream swept {} rows, ceiling {MIXED_STREAM_ROWS_REMOVED_CEILING}",
        stats.rows_removed
    );
    assert!(
        scanned <= MIXED_STREAM_ROWS_SCANNED_CEILING,
        "the stream scanned {scanned} rows, ceiling {MIXED_STREAM_ROWS_SCANNED_CEILING}"
    );
}
