//! Durability integration tests: the crash matrix over the write-ahead log,
//! bit-flip detection, snapshot round-trips across the thread matrix, durable
//! pipeline crash/resume through the public API, and a plain-map model the
//! standing durable pipeline is checked against.
//!
//! The contract under test (storage crate docs, "Durability"): recovery
//! yields exactly the committed batch prefix of the log — bit-identical
//! extents, oids, Skolem memo and progress marker — and a corrupted or
//! torn record is detected via its checksum and cleanly discarded, never
//! silently applied. Every matrix drives [`PipelineJournal`], the one durable
//! store and the one the pipelines ship with, so every cut and every flip
//! lands in a log carrying `Fingerprint` and `QueryDone` records.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use wol_repro::cpl;
use wol_repro::morphase::{
    BatchConstraintMode, DurableOptions, MaterializedPipeline, Morphase, MorphaseError,
    PipelineOptions,
};
use wol_repro::storage::persist::snapshot::{
    decode_snapshot, encode_snapshot, load_snapshot_file, save_snapshot_file,
};
use wol_repro::storage::persist::{
    codec, replay_wal, FaultPolicy, JournalRecovery, PipelineJournal, WalRecord,
};
use wol_repro::wol_model::{
    ClassName, Instance, MutationBatch, Oid, SkolemFactory, SkolemState, SourceOp, Value,
};
use wol_repro::workloads::cities::{generate_euro, CitiesWorkload};
use wol_repro::workloads::constrained::{self, ConstrainedGen, ConstrainedParams};
use wol_repro::workloads::genome::{self, GenomeParams};
use wol_repro::workloads::traffic::{TrafficGen, TrafficWeights};

/// A fresh scratch directory, unique across parallel tests and proptest
/// cases within this process.
fn temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("wol-durability-{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic stream of pseudo-random words for scripting sessions.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// The scripted sessions have no program to tell apart, so the store's
/// fingerprint is a constant.
const FINGERPRINT: u64 = 0x574F_4C4D_4154_5258;
const SCHEMA: &str = "euro";

fn open_store(dir: &Path) -> (PipelineJournal, JournalRecovery) {
    PipelineJournal::open(dir, FINGERPRINT, SCHEMA, None).expect("the store opens")
}

/// State captured after a committed batch: the instance, the Skolem factory
/// state, the progress marker reached, and the WAL end offset of the batch.
struct Committed {
    instance: Instance,
    skolem: SkolemState,
    completed: u64,
    wal_end: u64,
}

/// What a scripted session left behind.
struct Session {
    /// The snapshot the final log replays over: `None` for the empty
    /// baseline the store writes for itself, the mid-session checkpoint's
    /// image otherwise.
    snapshot: Option<Vec<u8>>,
    /// The final WAL image.
    wal: Vec<u8>,
    /// Sequence number of the first batch in `wal`.
    first_seq: u64,
    /// The state after every batch in `wal`; index 0 is the snapshot's own
    /// state, at offset 0.
    commits: Vec<Committed>,
}

/// Run a scripted session of `batches` commits against the durable store in
/// `dir`, folding the log into the snapshot after `checkpoint_after` batches
/// when asked. The script is deterministic in `seed` and mixes every record
/// kind the WAL knows: Skolem-minted inserts (`SkolemAssign` + `Insert`),
/// updates, fresh-identity inserts (`OidCounter`), and removes — including
/// removing a class down to empty — each batch opened by `Fingerprint` and
/// closed by `QueryDone` + `Commit`.
fn scripted_session(
    dir: &Path,
    batches: usize,
    seed: u64,
    checkpoint_after: Option<usize>,
) -> Session {
    let country = ClassName::new("CountryT");
    let marker = ClassName::new("MarkerT");
    let (mut journal, rec) = open_store(dir);
    assert!(!rec.report.snapshot_loaded && !rec.reset);
    assert_eq!((rec.report.batches_replayed, rec.completed), (0, 0));
    let mut instance = rec.instance;
    let mut skolem = SkolemFactory::from_state(rec.skolem).expect("state restores");
    instance.begin_mutation_log();

    let mut next = lcg(seed);
    let committed = |instance: &Instance, skolem: &SkolemFactory, completed, wal_end| Committed {
        instance: instance.clone(),
        skolem: skolem.export_state(),
        completed,
        wal_end,
    };
    let mut session = Session {
        snapshot: None,
        wal: Vec::new(),
        first_seq: 0,
        commits: vec![committed(&instance, &skolem, 0, 0)],
    };
    let mut markers: Vec<Oid> = Vec::new();
    for round in 0..batches {
        // A couple of keyed objects; repeated keys exercise the memo (no new
        // record), fresh keys mint an assignment and insert a value.
        for _ in 0..2 {
            let key = Value::str(format!("C{}", next() % 7));
            let before = skolem.count(&country);
            let oid = skolem.mk(&country, &key).expect("no collision");
            let value = Value::record([("name", key.clone()), ("round", Value::int(round as i64))]);
            if skolem.count(&country) > before {
                instance.insert(oid, value).expect("insert");
            } else {
                instance.update(&oid, value).expect("update");
            }
        }
        // A fresh-identity object in a class the factory never touches (the
        // two counters are independent and must not share a class).
        markers.push(instance.insert_fresh(&marker, Value::int(next() as i64)));
        // Occasionally remove a marker — on the last round remove them all,
        // so the matrix covers recovery of an emptied-but-present class.
        if round + 1 == batches {
            for oid in markers.drain(..) {
                instance.remove(&oid);
            }
        } else if next().is_multiple_of(2) && markers.len() > 1 {
            let victim = markers.remove((next() as usize) % markers.len());
            instance.remove(&victim);
        }
        let done = round as u64 + 1;
        journal
            .commit(round as u64, &mut instance, Some(&skolem))
            .expect("commit");
        session
            .commits
            .push(committed(&instance, &skolem, done, journal.wal_len()));
        if checkpoint_after == Some(round + 1) {
            journal
                .checkpoint(&instance, Some(&skolem))
                .expect("checkpoint");
            assert_eq!(journal.wal_len(), 0, "a checkpoint empties the log");
            let image = std::fs::read(dir.join(PipelineJournal::SNAPSHOT_FILE));
            session.snapshot = Some(image.expect("read snapshot"));
            session.first_seq = done;
            // The log restarts: only the snapshot's own state precedes it.
            session.commits = vec![committed(&instance, &skolem, done, 0)];
        }
    }
    session.wal = std::fs::read(dir.join(PipelineJournal::WAL_FILE)).expect("read wal");
    assert_eq!(
        session.wal.len() as u64,
        session.commits.last().expect("commit").wal_end,
        "the WAL must end exactly at the last committed batch"
    );
    session
}

/// Kill the log at byte `cut` and recover: assert the recovered store holds
/// exactly the snapshot plus the longest committed prefix — batch count,
/// progress marker, extents, values, oid counters and Skolem state all
/// bit-identical to the state captured at that commit — that the next `mk`
/// matches an uncrashed factory's, and that the recovered store keeps
/// appending where the prefix ends.
fn assert_prefix_recovery(scratch: &Path, session: &Session, cut: usize) {
    let expected = session
        .commits
        .iter()
        .filter(|c| c.wal_end as usize <= cut)
        .count()
        - 1; // commit 0 is the snapshot's own state at offset 0
    let reference = &session.commits[expected];
    let torn = cut as u64 != reference.wal_end;

    // Byte level: replay finds exactly the committed prefix.
    let replay = replay_wal(&session.wal[..cut], "matrix", session.first_seq);
    assert_eq!(replay.batches.len(), expected, "cut {cut}");
    assert_eq!(replay.committed_len, reference.wal_end, "cut {cut}");
    assert_eq!(
        replay.tail.is_some(),
        torn,
        "cut {cut}: a tail is discarded iff the cut is not a batch boundary"
    );

    // End to end: the store opened over the truncated image recovers the
    // captured state bit-identically.
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let snap_path = scratch.join(PipelineJournal::SNAPSHOT_FILE);
    match &session.snapshot {
        Some(image) => std::fs::write(&snap_path, image).expect("write snapshot"),
        None => drop(std::fs::remove_file(&snap_path)),
    }
    std::fs::write(scratch.join(PipelineJournal::WAL_FILE), &session.wal[..cut])
        .expect("write cut");
    let (mut journal, rec) = open_store(scratch);
    assert!(!rec.reset, "cut {cut}: same program, never reset");
    assert_eq!(rec.report.snapshot_loaded, session.snapshot.is_some());
    assert_eq!(rec.report.batches_replayed, expected, "cut {cut}");
    assert_eq!(rec.report.committed_len, reference.wal_end, "cut {cut}");
    assert_eq!(rec.report.torn_tail.is_some(), torn, "cut {cut}");
    assert_eq!(rec.report.superseded_batches, 0, "cut {cut}");
    assert_eq!(rec.completed, reference.completed, "cut {cut}: progress");
    assert_eq!(
        rec.instance.deep_eq_report(&reference.instance),
        None,
        "cut {cut}: recovered instance diverged"
    );
    // Uncommitted work is lost *and* the fresh-identity counters rewind
    // with it (instance equality includes the generator).
    assert_eq!(rec.instance, reference.instance, "cut {cut}");
    assert_eq!(
        rec.skolem, reference.skolem,
        "cut {cut}: recovered Skolem state diverged"
    );

    // The memo survives recovery — every key the prefix minted maps to its
    // original identity — and post-recovery minting is bit-identical to an
    // uncrashed run that reached the same commit: same fresh identity for a
    // never-seen key.
    let country = ClassName::new("CountryT");
    let probe = Value::str("post-recovery-probe");
    let mut recovered = SkolemFactory::from_state(rec.skolem).expect("state restores");
    let mut uncrashed = SkolemFactory::from_state(reference.skolem.clone()).expect("restores");
    for (key, oid) in reference
        .skolem
        .assigned
        .get(&country)
        .into_iter()
        .flatten()
    {
        assert_eq!(
            &recovered.mk(&country, key).expect("held"),
            oid,
            "cut {cut}: memo lost"
        );
    }
    let minted = recovered.mk(&country, &probe).expect("no collision");
    assert_eq!(
        minted,
        uncrashed.mk(&country, &probe).expect("no collision"),
        "cut {cut}: post-recovery mk diverged"
    );

    // The recovered store keeps going: the next batch lands where the
    // committed prefix ends, carries the next sequence number, and a second
    // recovery replays it on top.
    let mut instance = rec.instance;
    instance.begin_mutation_log();
    instance
        .insert(minted, Value::record([("name", probe)]))
        .expect("insert after recovery");
    journal
        .commit(reference.completed, &mut instance, Some(&recovered))
        .expect("append after recovery");
    drop(journal);
    let (_, again) = open_store(scratch);
    assert_eq!(again.report.batches_replayed, expected + 1, "cut {cut}");
    assert_eq!(again.report.torn_tail, None, "cut {cut}");
    assert_eq!(again.completed, reference.completed + 1, "cut {cut}");
    assert_eq!(again.instance, instance, "cut {cut}: appended batch lost");
    assert_eq!(again.skolem, recovered.export_state(), "cut {cut}");
}

/// The exhaustive crash matrix: one scripted multi-batch session, then kill
/// the log at *every* byte offset — every record boundary and every
/// mid-record offset — and demand prefix-consistent, bit-identical recovery
/// at each one.
#[test]
fn crash_matrix_every_cut_recovers_the_committed_prefix() {
    let base = temp_dir("matrix-base");
    let session = scripted_session(&base, 4, 7, None);
    assert!(session.commits.len() == 5 && session.wal.len() > 100);
    let scratch = temp_dir("matrix-cut");
    for cut in 0..=session.wal.len() {
        assert_prefix_recovery(&scratch, &session, cut);
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// The matrix across a snapshot: checkpoint after two of five batches, then
/// kill the post-checkpoint log at every byte offset. Recovery is the
/// checkpoint's snapshot plus the committed prefix of what followed, with
/// batch sequence numbers and progress continuing from the snapshot's.
#[test]
fn crash_matrix_across_a_checkpoint_recovers_snapshot_plus_prefix() {
    let base = temp_dir("ckpt-base");
    let session = scripted_session(&base, 5, 11, Some(2));
    assert_eq!((session.first_seq, session.commits.len()), (2, 4));
    assert_eq!(session.commits[0].completed, 2);
    assert!(!session.commits[0].instance.is_empty() && session.wal.len() > 100);
    let scratch = temp_dir("ckpt-cut");
    for cut in 0..=session.wal.len() {
        assert_prefix_recovery(&scratch, &session, cut);
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// Bit flips anywhere in the log are caught by the record checksum (or the
/// framing it protects): recovery returns exactly the batches before the
/// flipped record — byte-identical to an intact replay of that prefix — and
/// never applies corrupted data.
#[test]
fn bit_flips_are_detected_and_never_silently_applied() {
    let base = temp_dir("flip-base");
    let session = scripted_session(&base, 3, 21, None);
    let (bytes, commits) = (&session.wal, &session.commits);
    let scratch = temp_dir("flip-cut");
    for i in 0..bytes.len() {
        // The flip lands inside batch b+1 (commits are 1-indexed by batch);
        // every batch up to b replays, b+1 onward is discarded.
        let intact = commits.iter().filter(|c| c.wal_end as usize <= i).count() - 1;
        for mask in [0x01u8, 0x80] {
            let mut image = bytes.clone();
            image[i] ^= mask;
            let replay = replay_wal(&image, "flip", 0);
            assert_eq!(replay.batches.len(), intact, "flip at {i} mask {mask:#x}");
            assert!(
                replay.tail.is_some(),
                "flip at {i} mask {mask:#x}: the corrupted tail must be reported"
            );
            let reference = replay_wal(&bytes[..commits[intact].wal_end as usize], "reference", 0);
            assert_eq!(
                replay.batches, reference.batches,
                "flip at {i} mask {mask:#x}: surviving batches must be the intact prefix"
            );
        }
        // End to end (sampled — the byte-level check above runs at every
        // offset): the recovered store equals the state before the flip.
        if i % 5 == 0 {
            let mut image = bytes.clone();
            image[i] ^= 0x10;
            std::fs::create_dir_all(&scratch).expect("scratch dir");
            std::fs::write(scratch.join(PipelineJournal::WAL_FILE), &image).expect("write");
            let (_, rec) = open_store(&scratch);
            assert!(!rec.reset, "flip at {i}: a flip never forges a fingerprint");
            assert_eq!(rec.report.batches_replayed, intact, "flip at {i}");
            assert!(rec.report.torn_tail.is_some(), "flip at {i}");
            assert_eq!(rec.completed, commits[intact].completed, "flip at {i}");
            assert_eq!(
                rec.instance.deep_eq_report(&commits[intact].instance),
                None,
                "flip at {i}: recovered instance diverged"
            );
            assert_eq!(rec.skolem, commits[intact].skolem, "flip at {i}");
        }
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized crash matrix: arbitrary session shapes (batch count,
    /// content seed, and whether and where a checkpoint folds the log) and
    /// arbitrary cut offsets all recover the committed prefix
    /// bit-identically. The exhaustive tests pin two sessions at every
    /// offset; this one varies the session itself.
    #[test]
    fn randomized_sessions_recover_prefix_consistently(
        batches in 1usize..5,
        seed in 0u64..1000,
        cut_salt in 0u64..100_000,
        checkpoint_salt in 0usize..8,
    ) {
        let base = temp_dir("prop-base");
        // Half the sessions checkpoint, somewhere in 1..=batches.
        let checkpoint_after = (checkpoint_salt % 2 == 1).then(|| 1 + (checkpoint_salt / 2) % batches);
        let session = scripted_session(&base, batches, seed, checkpoint_after);
        let scratch = temp_dir("prop-cut");
        // One salted mid-log cut plus the exact end (the no-tail case).
        let cuts = [(cut_salt as usize) % (session.wal.len() + 1), session.wal.len()];
        for cut in cuts {
            assert_prefix_recovery(&scratch, &session, cut);
        }
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&scratch).ok();
    }
}

/// Snapshot → restore is bit-identical for pipeline targets at every thread
/// count: run the cities program at 1/2/4/8 threads, snapshot the target
/// (in memory and through the file round trip), and demand the decoded
/// instance equals the target with no first divergence — and that
/// re-encoding the decoded state reproduces the snapshot byte for byte.
#[test]
fn snapshot_restore_is_bit_identical_at_every_thread_count() {
    let w = CitiesWorkload::new();
    let program = w.euro_program();
    let source = generate_euro(6, 4, 11);
    let sequential = Morphase::with_options(PipelineOptions {
        parallelism: cpl::Parallelism::sequential(),
        ..PipelineOptions::default()
    })
    .transform(&program, &[&source][..])
    .expect("sequential run");
    let dir = temp_dir("snap-matrix");
    std::fs::create_dir_all(&dir).expect("snap dir");
    for threads in [1usize, 2, 4, 8] {
        let run = Morphase::with_options(PipelineOptions {
            parallelism: cpl::Parallelism::new(threads),
            ..PipelineOptions::default()
        })
        .transform(&program, &[&source][..])
        .expect("parallel run");
        assert_eq!(
            run.target.deep_eq_report(&sequential.target),
            None,
            "target diverged at {threads} threads before any snapshot"
        );
        let skolem = SkolemState::default();
        let bytes = encode_snapshot(&run.target, &skolem, 0, None);
        let decoded = decode_snapshot(&bytes, "mem").expect("decode");
        assert_eq!(
            decoded.instance.deep_eq_report(&run.target),
            None,
            "snapshot round trip diverged at {threads} threads"
        );
        assert_eq!(decoded.instance, run.target);
        assert_eq!(
            encode_snapshot(&decoded.instance, &decoded.skolem, 0, None),
            bytes,
            "re-encode not byte-identical at {threads} threads"
        );
        // And through the file layer (atomic write + checksum verify).
        let path = dir.join(format!("target-{threads}.snap"));
        save_snapshot_file(&path, &bytes, None).expect("save");
        let loaded = load_snapshot_file(&path)
            .expect("load")
            .expect("snapshot present");
        assert_eq!(
            loaded.instance.deep_eq_report(&sequential.target),
            None,
            "file round trip diverged at {threads} threads"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Durable pipeline crash/resume through the public API at every thread
/// count: inject a torn write into the journal's WAL, watch the run die,
/// resume without the fault, and demand the resumed target is bit-identical
/// to a plain (never-crashed) run — with every query either recovered from
/// the journal or re-run, never both, never neither.
#[test]
fn durable_pipeline_crash_resume_is_bit_identical_across_thread_counts() {
    let w = CitiesWorkload::new();
    let program = w.euro_program();
    let source = generate_euro(5, 3, 17);
    let plain = Morphase::new()
        .transform(&program, &[&source][..])
        .expect("plain run");
    for threads in [1usize, 2, 4, 8] {
        let options = PipelineOptions {
            parallelism: cpl::Parallelism::new(threads),
            ..PipelineOptions::default()
        };
        let dir = temp_dir(&format!("pipe-{threads}"));
        let crashing = DurableOptions::new(&dir).with_fault(FaultPolicy::torn_at(64));
        let err = Morphase::with_options(options)
            .transform_durable(&program, &[&source][..], &crashing)
            .expect_err("the injected fault must kill the run");
        assert!(
            matches!(err, MorphaseError::Durability(_)),
            "unexpected error at {threads} threads: {err}"
        );
        let resumed = Morphase::with_options(options)
            .transform_durable(&program, &[&source][..], &DurableOptions::new(&dir))
            .expect("resumed run");
        assert_eq!(
            resumed.target.deep_eq_report(&plain.target),
            None,
            "resumed target diverged at {threads} threads"
        );
        let d = resumed.durability.expect("durable run reports stats");
        assert!(
            d.recovered_torn_tail,
            "the torn batch must be discarded at {threads} threads"
        );
        assert_eq!(
            d.skipped + d.journaled,
            plain.query_stats.len() as u64,
            "every query is either recovered or re-run at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Stand a durable genome pipeline up over `dir` (the seed source is ignored
/// when the journal already holds one).
fn durable_genome(dir: &Path, seed_source: &Instance) -> MaterializedPipeline {
    MaterializedPipeline::new_durable(
        &genome::program(),
        vec![seed_source.clone()],
        PipelineOptions::default(),
        &DurableOptions::new(dir),
    )
    .expect("durable pipeline stands up")
}

/// The standing pipeline over the crash matrix: journal the batch-0 dump and
/// a 4-batch mixed stream, then kill the log at every record boundary and at
/// one mid-record offset per record (not every byte: each reopen stands a
/// pipeline up). Every recovery is bit-identical to the uncrashed prefix —
/// source and maintained target — `recovered_batches()` is exact, and the
/// resumed stream completes bit-identically.
#[test]
fn standing_pipeline_recovers_the_uncrashed_prefix_at_every_record_cut() {
    let source = genome::generate_source(&GenomeParams {
        clones: 5,
        markers: 8,
        ..GenomeParams::default()
    });
    let mut gen = TrafficGen::new(&source, 19, TrafficWeights::mixed());
    let batches: Vec<MutationBatch> = (0..4).map(|_| gen.next_batch(3)).collect();

    // The uncrashed session: (WAL end, source, target) after the dump and
    // after every batch.
    let base = temp_dir("standing-base");
    let wal_path = base.join(PipelineJournal::WAL_FILE);
    let wal_end = || std::fs::metadata(&wal_path).expect("WAL exists").len() as usize;
    let mut pipeline = durable_genome(&base, &source);
    let capture = |p: &MaterializedPipeline, end| {
        let source = p.source(0).expect("one source").clone();
        (end, source, p.target().clone())
    };
    let mut states = vec![capture(&pipeline, wal_end())];
    for batch in &batches {
        pipeline.apply_batch(batch).expect("uncrashed applies");
        states.push(capture(&pipeline, wal_end()));
    }
    drop(pipeline);
    let wal = std::fs::read(&wal_path).expect("read wal");
    let baseline = std::fs::read(base.join(PipelineJournal::SNAPSHOT_FILE)).expect("read snap");

    // Every record's start, one offset inside it, and the clean end.
    let mut cuts = Vec::new();
    let mut pos = 0usize;
    while pos < wal.len() {
        let len = codec::u32_at(&wal, pos).expect("a whole record header") as usize;
        cuts.extend([pos, pos + (8 + len) / 2]);
        pos += 8 + len;
    }
    cuts.push(wal.len());
    assert!(cuts.len() > 60, "dump + 4 batches hold {} cuts", cuts.len());

    let scratch = temp_dir("standing-cut");
    for cut in cuts {
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        std::fs::write(scratch.join(PipelineJournal::SNAPSHOT_FILE), &baseline).expect("snap");
        std::fs::write(scratch.join(PipelineJournal::WAL_FILE), &wal[..cut]).expect("cut");
        let mut resumed = durable_genome(&scratch, &source);
        // Batches durable at the cut, the dump included; a lost dump is
        // journalled again from the seed source.
        let durable = states.iter().filter(|(end, _, _)| *end <= cut).count();
        let recovered = durable.saturating_sub(1);
        assert_eq!(resumed.recovered_batches(), recovered as u64, "cut {cut}");
        let (_, source_then, target_then) = &states[recovered];
        let resumed_source = resumed.source(0).expect("one source");
        assert_eq!(
            resumed_source.deep_eq_report(source_then),
            None,
            "cut {cut}: recovered source diverged"
        );
        assert_eq!(resumed_source, source_then, "cut {cut}");
        assert_eq!(
            resumed.target().deep_eq_report(target_then),
            None,
            "cut {cut}: recovered target diverged"
        );
        for batch in &batches[recovered..] {
            resumed.apply_batch(batch).expect("resumed applies");
        }
        let (_, _, target_end) = states.last().expect("final state");
        assert_eq!(
            resumed.target().deep_eq_report(target_end),
            None,
            "cut {cut}: resumed stream diverged"
        );
        drop(resumed);
        std::fs::remove_dir_all(&scratch).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A crash between a checkpoint's snapshot rename and its WAL truncation —
/// driven through `MaterializedPipeline::checkpoint` and through
/// `transform_durable`'s closing checkpoint — leaves the new snapshot beside
/// the whole old log. Nothing tore: recovery reports the log superseded (not
/// a torn tail), lands on the snapshot, and the pipeline carries on.
#[test]
fn a_crash_inside_the_checkpoint_window_is_superseded_not_torn() {
    let source = genome::generate_source(&GenomeParams::default());
    let mut gen = TrafficGen::new(&source, 5, TrafficWeights::mixed());
    let dir = temp_dir("window");
    let wal_path = dir.join(PipelineJournal::WAL_FILE);
    let mut pipeline = durable_genome(&dir, &source);
    for _ in 0..3 {
        pipeline.apply_batch(&gen.next_batch(3)).expect("applies");
    }
    let old_log = std::fs::read(&wal_path).expect("read wal");
    pipeline.checkpoint().expect("checkpoint");
    let (source_then, target_then) = (
        pipeline.source(0).expect("source").clone(),
        pipeline.target().clone(),
    );
    drop(pipeline);

    // What the store reports, under the fingerprint its own snapshot carries.
    std::fs::write(&wal_path, &old_log).expect("the truncation never happened");
    let fingerprint = load_snapshot_file(&dir.join(PipelineJournal::SNAPSHOT_FILE))
        .expect("load")
        .and_then(|data| data.meta)
        .expect("journal snapshot carries its meta")
        .fingerprint;
    let (journal, rec) =
        PipelineJournal::open(&dir, fingerprint, source.schema_name(), None).expect("recovery");
    drop(journal);
    assert_eq!(rec.report.torn_tail, None, "nothing tore");
    assert_eq!(
        rec.report.superseded_batches, 4,
        "the dump and three batches"
    );
    assert_eq!((rec.report.batches_replayed, rec.completed), (0, 4));
    assert_eq!(rec.instance, source_then);
    assert_eq!(std::fs::metadata(&wal_path).expect("wal").len(), 0);

    // And the pipeline itself reopens over the same window and carries on.
    std::fs::write(&wal_path, &old_log).expect("the truncation never happened");
    let mut resumed = durable_genome(&dir, &source);
    assert_eq!(resumed.recovered_batches(), 3);
    assert_eq!(resumed.target().deep_eq_report(&target_then), None);
    resumed.apply_batch(&gen.next_batch(3)).expect("applies");
    drop(resumed);
    assert_eq!(durable_genome(&dir, &source).recovered_batches(), 4);
    std::fs::remove_dir_all(&dir).ok();

    // `transform_durable`: keep the committed prefix of the log a torn run
    // left, let the resumed run finish (its epilogue checkpoints), put that
    // log back, run again.
    let w = CitiesWorkload::new();
    let (program, euro) = (w.euro_program(), generate_euro(5, 3, 17));
    let dir = temp_dir("window-transform");
    let wal_path = dir.join(PipelineJournal::WAL_FILE);
    let crashing = DurableOptions::new(&dir).with_fault(FaultPolicy::torn_at(900));
    Morphase::new()
        .transform_durable(&program, &[&euro][..], &crashing)
        .expect_err("the injected fault must kill the run");
    let mut old_log = std::fs::read(&wal_path).expect("read wal");
    let kept = replay_wal(&old_log, "window", 0);
    assert!(!kept.batches.is_empty() && kept.tail.is_some());
    old_log.truncate(kept.committed_len as usize);
    let first = Morphase::new()
        .transform_durable(&program, &[&euro][..], &DurableOptions::new(&dir))
        .expect("resumed run");
    let d = first.durability.expect("durable run reports stats");
    assert!(d.recovered_torn_tail && d.completed_before > 0 && d.journaled > 0);
    assert_eq!(std::fs::metadata(&wal_path).expect("wal").len(), 0);
    std::fs::write(&wal_path, &old_log).expect("the truncation never happened");
    let again = Morphase::new()
        .transform_durable(&program, &[&euro][..], &DurableOptions::new(&dir))
        .expect("run over the superseded log");
    let d = again.durability.expect("durable run reports stats");
    assert!(!d.recovered_torn_tail, "a superseded log is not a torn log");
    assert!(d.resumed && d.journaled == 0 && !d.reset);
    assert_eq!(again.target.deep_eq_report(&first.target), None);
    std::fs::remove_dir_all(&dir).ok();
}

/// Three independent clauses, one per source class, each writing its own
/// target class keyed by `name`: a source with two `B` rows under one name
/// and different `v`s conflicts in the `QB` query alone.
fn three_query_program() -> wol_repro::wol_lang::program::Program {
    use wol_repro::wol_lang::program::{Program, SchemaBinding};
    use wol_repro::wol_model::{Schema, Type};
    let row = || {
        Type::record(vec![
            ("name".to_string(), Type::str()),
            ("v".to_string(), Type::int()),
        ])
    };
    let (mut source, mut target) = (Schema::new("three_src"), Schema::new("three_tgt"));
    let mut text = String::new();
    for class in ["A", "B", "C"] {
        source = source.with_class(class, row());
        target = target.with_class(format!("T{class}"), row());
        text.push_str(&format!(
            "Q{class}: X in T{class}, X.name = N, X.v = V <= S in {class}, S.name = N, S.v = V;\n\
             K{class}: X = Mk_T{class}(N) <= X in T{class}, N = X.name;\n"
        ));
    }
    Program::new(
        "three_queries",
        vec![SchemaBinding::new(source)],
        SchemaBinding::new(target),
    )
    .with_text(&text)
}

/// `A`, `B` and `C` rows `n0`..`n3`, plus — when `conflicting` — a second
/// `B` row under `n1` with another `v`.
fn three_query_source(conflicting: bool) -> Instance {
    let mut source = Instance::new("three_src");
    let mut row = |class: &str, name: &str, v: i64| {
        let record = Value::record([("name", Value::str(name)), ("v", Value::int(v))]);
        source.insert_fresh(&ClassName::new(class), record);
    };
    for class in ["A", "B", "C"] {
        for i in 0..4 {
            row(class, &format!("n{i}"), i);
        }
    }
    if conflicting {
        row("B", "n1", 7);
    }
    source
}

/// A durable run whose k-th query conflicts commits exactly the queries
/// before k and fails with a fresh run's error, at every thread count,
/// planned or raw.
/// Reopening the journal resumes at k and fails with the same error; with
/// the conflict gone, it resumes at k and finishes with the plain target.
#[test]
fn a_conflicting_query_stops_durable_commits_where_it_conflicts() {
    let program = three_query_program();
    let (clean, conflicted) = (three_query_source(false), three_query_source(true));
    let plain = Morphase::new()
        .transform(&program, &[&clean][..])
        .expect("the clean source transforms");
    let k = plain
        .query_stats
        .iter()
        .position(|q| q.query.contains("QB"))
        .expect("a query over B");
    assert!(
        k > 0 && k + 1 < plain.query_stats.len(),
        "QB is neither first nor last"
    );
    let fresh_err = Morphase::new()
        .transform(&program, &[&conflicted][..])
        .expect_err("the conflicting source fails");
    assert!(
        fresh_err.to_string().contains("conflicting values for `v`"),
        "{fresh_err}"
    );
    let committed = |dir: &Path| -> Vec<u64> {
        let wal = std::fs::read(dir.join(PipelineJournal::WAL_FILE)).expect("read wal");
        let log = replay_wal(&wal, "conflict", 0);
        assert!(log.tail.is_none(), "a conflict tears nothing");
        let done = log.batches.iter().flatten();
        done.filter_map(|r| match r {
            WalRecord::QueryDone(q) => Some(*q),
            _ => None,
        })
        .collect()
    };
    for (threads, optimize_plans) in [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|t| [(t, true), (t, false)])
    {
        let at = format!("{threads} threads, optimized {optimize_plans}");
        let options = PipelineOptions {
            parallelism: cpl::Parallelism::new(threads).with_min_items(1),
            optimize_plans,
            ..PipelineOptions::default()
        };
        let morphase = Morphase::with_options(options);
        if threads == 1 && !optimize_plans {
            let raw = morphase.compile(&program).expect("the program compiles");
            assert_ne!(
                raw.plans, plain.plans,
                "the raw plans render as the planned ones"
            );
        }
        let dir = temp_dir(&format!("conflict-{threads}-{optimize_plans}"));
        let durable = DurableOptions::new(&dir);
        for attempt in 0..2 {
            let err = morphase
                .transform_durable(&program, &[&conflicted][..], &durable)
                .expect_err("the conflicting source fails durably");
            assert_eq!(err, fresh_err, "attempt {attempt}, {at}");
            let expected: Vec<u64> = (0..k as u64).collect();
            assert_eq!(committed(&dir), expected, "attempt {attempt}, {at}");
        }
        let run = morphase
            .transform_durable(&program, &[&clean][..], &durable)
            .expect("the clean source resumes");
        let d = run.durability.expect("durable run reports stats");
        assert!(d.resumed && !d.reset, "{d:?}");
        assert_eq!((d.completed_before, d.skipped), (k as u64, k as u64));
        assert_eq!(run.target, plain.target, "resumed target, {at}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A copy of one journal directory of `tests/fixtures/parent-journals/` in a
/// fresh scratch directory (opening a journal rewrites it).
fn parent_journal(name: &str) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parent-journals")
        .join(name);
    let dir = temp_dir(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for file in [PipelineJournal::SNAPSHOT_FILE, PipelineJournal::WAL_FILE] {
        std::fs::copy(fixture.join(file), dir.join(file)).expect("copy fixture");
    }
    dir
}

/// Journals written by the build that numbered Skolem identities in mint
/// order (`tests/fixtures/parent-journals/`):
///
/// * `maintenance` — a `new_durable` genome pipeline over
///   `GenomeParams { clones: 6, markers: 16, density: 0.6, seed: 25 }` that
///   applied six `TrafficGen` batches (seed 11, mixed weights, 3 ops each),
///   checkpointing after the third. It journals source data only, under a
///   fingerprint that did not change, so it recovers every batch, and the
///   pipeline it stands up equals a fresh transform of that source.
/// * `transform` — a `transform_durable` run of the cities euro program over
///   `generate_euro(3, 2, 5)`, killed by a fault at WAL byte 1264 after two
///   committed queries. Its target was numbered by counters, so it must never
///   be resumed into key-derived identities: the journal opens as foreign,
///   is reset, and the restarted run equals a fresh one.
#[test]
fn journals_written_before_key_derived_identities_recover_or_restart() {
    let params = GenomeParams {
        clones: 6,
        markers: 16,
        density: 0.6,
        seed: 25,
    };
    let program = genome::program();
    let mut source = genome::generate_source(&params);
    let mut gen = TrafficGen::new(&source, 11, TrafficWeights::mixed());
    for _ in 0..6 {
        source.apply_batch(&gen.next_batch(3)).expect("applies");
    }
    let dir = parent_journal("maintenance");
    let pipeline = MaterializedPipeline::new_durable(
        &program,
        vec![genome::generate_source(&params)],
        PipelineOptions::default(),
        &DurableOptions::new(&dir),
    )
    .expect("the source journal opens");
    assert_eq!(pipeline.recovered_batches(), 6);
    let recovered = pipeline.source(0).expect("source");
    assert_eq!(recovered.deep_eq_report(&source), None);
    assert_eq!(recovered, &source);
    let fresh = Morphase::new()
        .transform(&program, &[&source][..])
        .expect("fresh transform");
    assert_eq!(pipeline.target().deep_eq_report(&fresh.target), None);
    assert_eq!(pipeline.target(), &fresh.target);
    drop(pipeline);
    std::fs::remove_dir_all(&dir).ok();

    let w = CitiesWorkload::new();
    let (program, euro) = (w.euro_program(), generate_euro(3, 2, 5));
    let dir = parent_journal("transform");
    let run = Morphase::new()
        .transform_durable(&program, &[&euro][..], &DurableOptions::new(&dir))
        .expect("the transform journal restarts");
    let d = run.durability.expect("durable run reports stats");
    assert!(d.reset && !d.resumed && d.skipped == 0, "{d:?}");
    let fresh = Morphase::new()
        .transform(&program, &[&euro][..])
        .expect("fresh transform");
    assert_eq!(run.target.deep_eq_report(&fresh.target), None);
    assert_eq!(run.target, fresh.target);
    std::fs::remove_dir_all(&dir).ok();
}

/// The model the durable pipeline is checked against: the database-ASM step
/// over plain maps. A batch yields an update set, which fires atomically if the
/// successor state is consistent and its commit durable; else nothing changes.
#[derive(Clone)]
struct Model {
    objects: BTreeMap<Oid, Value>,
    next_id: BTreeMap<ClassName, u64>,
    committed: u64,
}

type Checked<T> = Result<T, String>;

impl Model {
    fn of(source: &Instance) -> Model {
        let objects = source.all_objects().map(|(o, v)| (o.clone(), v.clone()));
        let next_id = source.oid_counters().map(|(c, n)| (c.clone(), n));
        Model {
            objects: objects.collect(),
            next_id: next_id.collect(),
            committed: 0,
        }
    }

    /// The state `batch`'s update set leads to, if that state is consistent.
    fn successor(&self, batch: &MutationBatch) -> Option<Model> {
        let mut next = self.clone();
        for op in &batch.ops {
            match op {
                SourceOp::Insert { class, value } => {
                    let id = next.next_id.entry(class.clone()).or_insert(0);
                    let fresh = Oid::new(class.clone(), *id);
                    next.objects.insert(fresh, value.clone());
                    *id += 1;
                }
                SourceOp::Update { oid, value } => {
                    drop(next.objects.insert(oid.clone(), value.clone()))
                }
                SourceOp::Remove { oid } => drop(next.objects.remove(oid)),
            }
        }
        next.committed += 1;
        next.consistent().then_some(next)
    }

    /// The registry's source constraints: `S1` user emails are unique, `S2`
    /// every profile references a live user, `S3` account codes are unique.
    fn consistent(&self) -> bool {
        let field = |value: &Value, name: &str| match value {
            Value::Record(fields) => fields.get(name).cloned(),
            _ => None,
        };
        let of = |class: &'static str| {
            let members = self.objects.iter();
            members.filter(move |(oid, _)| oid.class().as_str() == class)
        };
        let unique = |class, attr| {
            let mut seen = BTreeSet::new();
            of(class).all(|(_, value)| seen.insert(field(value, attr)))
        };
        let live = |user| matches!(user, Some(Value::Oid(oid)) if self.objects.contains_key(&oid));
        unique("UserS", "email")
            && unique("AccountS", "code")
            && of("ProfileS").all(|(_, profile)| live(field(profile, "user")))
    }

    fn instance(&self) -> Instance {
        let mut instance = Instance::new("registry");
        for (oid, value) in &self.objects {
            instance.insert(oid.clone(), value.clone()).expect("insert");
        }
        for (class, n) in &self.next_id {
            instance.restore_oid_counter(class, *n);
        }
        instance
    }

    /// The pipeline's source is the model's state, objects and counters.
    fn check_source(&self, pipeline: &MaterializedPipeline) -> Checked<()> {
        let source = pipeline.source(0).expect("one source");
        prop_assert_eq!(&Model::of(source).objects, &self.objects);
        for (class, n) in &self.next_id {
            prop_assert_eq!(source.oid_counter(class), *n);
        }
        Ok(())
    }

    /// (Re)open the durable pipeline and hold it to the model: the committed
    /// batches recovered, the model's source, a fresh `transform`'s target.
    fn reopen(&self, dir: &Path, fault: Option<FaultPolicy>) -> Checked<MaterializedPipeline> {
        let options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Enforce,
            ..PipelineOptions::default()
        };
        let (program, state) = (constrained::program(), self.instance());
        let mut durable = DurableOptions::new(dir);
        durable.fault = fault;
        let sources = vec![state.clone()];
        let pipeline = MaterializedPipeline::new_durable(&program, sources, options, &durable)
            .map_err(|e| format!("reopen: {e}"))?;
        prop_assert_eq!(pipeline.recovered_batches(), self.committed);
        self.check_source(&pipeline)?;
        let fresh = Morphase::with_options(options)
            .transform(&program, &[&state][..])
            .map_err(|e| format!("fresh transform: {e}"))?;
        prop_assert_eq!(pipeline.target().deep_eq_report(&fresh.target), None);
        Ok(pipeline)
    }

    /// Offer `batch` to pipeline and model alike; say whether it fired. A
    /// consistent successor commits and grows the log, an inconsistent one is
    /// refused with the log untouched, a torn commit never happened (`None`).
    fn offer(
        &mut self,
        pipeline: &mut MaterializedPipeline,
        batch: &MutationBatch,
        wal_len: impl Fn() -> u64,
    ) -> Checked<Option<bool>> {
        let before = wal_len();
        match (pipeline.apply_batch(batch), self.successor(batch)) {
            (Ok(_), Some(next)) => {
                prop_assert!(wal_len() > before, "a commit grows the log");
                *self = next;
                Ok(Some(true))
            }
            (Err(MorphaseError::Verification(_)), None) => {
                prop_assert!(!pipeline.is_poisoned() && wal_len() == before);
                Ok(Some(false))
            }
            (Err(MorphaseError::Durability(_)), Some(_)) => {
                prop_assert!(pipeline.is_poisoned());
                Ok(None)
            }
            (outcome, expected) => Err(format!(
                "engine {:?}, but the model fires: {}",
                outcome.map(|report| report.outcome),
                expected.is_some()
            )),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of clean and refused batches, a commit torn at a
    /// random byte, reopen and checkpoint: after every step the pipeline's
    /// source is the model's state, after every reopen exactly the committed
    /// batches are recovered and the target is a fresh transform of the
    /// model. Default parallelism, so the CI thread passes vary it.
    #[test]
    fn durable_pipeline_matches_the_plain_map_model(steps in 6usize..14, seed in 0u64..1_000_000) {
        let dir = temp_dir("model");
        let wal_path = dir.join(PipelineJournal::WAL_FILE);
        let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());
        let mut model = Model::of(&constrained::generate_source(&ConstrainedParams::default()));
        let mut pipeline = model.reopen(&dir, None)?;
        let mut gen = ConstrainedGen::new(&model.instance(), seed);
        let mut next = lcg(seed ^ ((steps as u64) << 32));
        for step in 1..=steps as u64 {
            let salt = next();
            let ops = 1 + (salt / 8) as usize % 6;
            let mut reopen = false;
            match salt % 8 {
                // A crash: reopen with a fault armed somewhere in the next
                // few hundred bytes, then commit until it tears a batch.
                4 => {
                    drop(pipeline);
                    let fault = FaultPolicy::torn_at((salt / 8) % 500);
                    pipeline = model.reopen(&dir, Some(fault))?;
                    gen = ConstrainedGen::new(&model.instance(), seed ^ (salt << 10));
                    while model.offer(&mut pipeline, &gen.next_batch(ops), wal_len)?.is_some() {}
                    reopen = true;
                }
                5 => reopen = true,
                6 => {
                    pipeline.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
                    prop_assert_eq!(wal_len(), 0);
                }
                // A batch the model refuses (its successor is inconsistent),
                // or a clean one.
                kind => {
                    let batch = if kind == 3 { gen.violating_batch() } else { gen.next_batch(ops) };
                    let fired = model.offer(&mut pipeline, &batch, wal_len)?;
                    prop_assert_eq!(fired, Some(kind != 3));
                }
            }
            if reopen {
                drop(pipeline);
                pipeline = model.reopen(&dir, None)?;
                // The generator restarts from the durable state: its shadow
                // ran ahead of the batch the crash lost.
                gen = ConstrainedGen::new(&model.instance(), seed ^ (step << 20));
            }
            model.check_source(&pipeline).map_err(|e| format!("step {step}: {e}"))?;
        }
        drop(pipeline);
        model.reopen(&dir, None)?;
        std::fs::remove_dir_all(&dir).ok();
    }
}
