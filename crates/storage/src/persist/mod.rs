//! Crash-consistent persistence: write-ahead log, checksummed snapshots, and
//! recovery.
//!
//! The layer holds **one** durable store, [`PipelineJournal`]: a snapshot
//! plus a write-ahead log under a directory, bound to one program by a
//! fingerprint. The caller owns the [`Instance`] (and, when it mints
//! identities, the [`SkolemFactory`]) and mutates it freely; one
//! [`commit`](PipelineJournal::commit) makes everything since the previous
//! commit durable as a single atomic batch ending in a progress marker. A
//! crash loses at most the uncommitted batch: recovery replays the committed
//! WAL prefix over the last snapshot and discards any torn tail, so a
//! `morphase` run killed between queries resumes after the last completed
//! one, and a standing pipeline recovers its source as of the last applied
//! batch. A caller with no program to tell apart passes a constant
//! fingerprint.
//!
//! Formats are documented field-by-field in the crate-level "Durability"
//! section; fault injection for the writers lives in [`fault`].

pub mod codec;
pub mod fault;
pub mod snapshot;
pub mod wal;

use std::collections::BTreeMap;
use std::fs;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

use wol_model::{ClassName, Instance, Mutation, SkolemFactory, SkolemState};

pub use fault::{FaultKind, FaultPolicy, FaultyFile};
pub use snapshot::{PipelineMeta, SnapshotData, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use wal::{replay_wal, TornTail, WalRecord, WalReplay, WalWriter};

use crate::error::StorageError;
use crate::Result;

/// What recovery found on disk and what it did with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Committed WAL batches replayed over the snapshot.
    pub batches_replayed: usize,
    /// Individual records inside those batches.
    pub records_replayed: usize,
    /// Length of the committed WAL prefix kept (the file is truncated here).
    pub committed_len: u64,
    /// Intact batches the snapshot already held, left in the log by a crash
    /// between a checkpoint's snapshot rename and its WAL truncation. They
    /// are skipped and truncated away; nothing tore.
    pub superseded_batches: usize,
    /// Present when bytes beyond the committed prefix were discarded.
    pub torn_tail: Option<TornTail>,
}

/// A WAL sink on disk, truncated to the committed prefix and positioned for
/// appending, wrapped in the fault shim.
fn open_wal_sink(
    path: &Path,
    committed_len: u64,
    fault: Option<FaultPolicy>,
) -> Result<FaultyFile<fs::File>> {
    let display = path.display().to_string();
    let mut file = fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| StorageError::io(&display, e))?;
    file.set_len(committed_len)
        .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()))
        .and_then(|()| sync_parent_dir(path))
        .map_err(|e| StorageError::io(&display, e))?;
    Ok(match fault {
        Some(policy) => FaultyFile::with_policy(file, policy),
        None => FaultyFile::new(file),
    })
}

/// Make the directory entry naming `path` durable. A file's own `sync_all`
/// does not cover the entry a create or rename wrote into its directory:
/// without this, a power cut can keep a checkpoint's WAL truncation yet lose
/// the rename that installed its snapshot, or lose a just-created log.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

fn read_file_or_empty(path: &Path) -> Result<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(StorageError::io(path.display().to_string(), e)),
    }
}

fn remove_if_present(path: &Path) -> Result<()> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StorageError::io(path.display().to_string(), e)),
    }
}

/// Atomically write the journal snapshot: `instance` and `skolem` as of the
/// batch numbered just below `wal_seq`, with the journal's progress metadata.
fn save_journal_snapshot(
    path: &Path,
    instance: &Instance,
    skolem: &SkolemState,
    wal_seq: u64,
    meta: PipelineMeta,
) -> Result<()> {
    let bytes = snapshot::encode_snapshot(instance, skolem, wal_seq, Some(meta));
    snapshot::save_snapshot_file(path, &bytes, None)
}

fn oid_counters(instance: &Instance) -> BTreeMap<ClassName, u64> {
    instance
        .oid_counters()
        .map(|(class, count)| (class.clone(), count))
        .collect()
}

/// What opening a pipeline journal recovered.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecovery {
    /// The journalled instance as of the last durable point.
    pub instance: Instance,
    /// The Skolem factory state as of the last durable point.
    pub skolem: SkolemState,
    /// One past the highest progress marker committed durably: the number of
    /// leading queries (or batches) a resuming run skips.
    pub completed: u64,
    /// True when existing journal files belonged to a different program
    /// (fingerprint mismatch) and were discarded.
    pub reset: bool,
    /// Snapshot/WAL recovery details.
    pub report: RecoveryReport,
}

/// The durable store: a snapshot and a write-ahead log under one directory
/// (see the module docs).
///
/// The journal's snapshot carries a [`PipelineMeta`] binding it to one
/// compiled program via a fingerprint; every WAL batch repeats that
/// fingerprint, so state left by a *different* program is detected and reset
/// rather than resumed into silent corruption. The journal also keeps the
/// Skolem and fresh-identity counters as of the last committed batch, so a
/// commit journals exactly what moved past them. After a commit error
/// (injected fault or real I/O failure) the writer is dead: drop it and
/// [`open`](PipelineJournal::open) the directory again, which recovers
/// exactly the committed prefix.
#[derive(Debug)]
pub struct PipelineJournal {
    snap_path: PathBuf,
    wal_path: PathBuf,
    fingerprint: u64,
    completed: u64,
    wal: WalWriter<FaultyFile<fs::File>>,
    skolem_mark: BTreeMap<ClassName, u64>,
    oid_mark: BTreeMap<ClassName, u64>,
}

impl PipelineJournal {
    /// Name of the journal snapshot file inside the journal directory.
    pub const SNAPSHOT_FILE: &'static str = "pipeline.snap";
    /// Name of the journal WAL file inside the journal directory.
    pub const WAL_FILE: &'static str = "pipeline.wal";

    /// Open (or create) the journal in `dir` for the program identified by
    /// `fingerprint`. Existing state from the same program is recovered
    /// (snapshot + committed WAL batches, torn tail discarded); state from a
    /// different program is deleted and the journal starts fresh, labelled
    /// `schema`. A fault policy, when given, is installed on the WAL sink.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        schema: &str,
        fault: Option<FaultPolicy>,
    ) -> Result<(Self, JournalRecovery)> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let snap_path = dir.join(Self::SNAPSHOT_FILE);
        let wal_path = dir.join(Self::WAL_FILE);
        let mut recovered = recover(&snap_path, &wal_path, fingerprint, schema)?;
        let reset = recovered.is_none();
        if reset {
            remove_if_present(&snap_path)?;
            remove_if_present(&wal_path)?;
            recovered = recover(&snap_path, &wal_path, fingerprint, schema)?;
        }
        let (mut recovery, next_seq) = recovered.ok_or_else(|| {
            StorageError::corrupt_at_offset(
                snap_path.display().to_string(),
                0,
                format!("a journal with fingerprint {fingerprint:#018x}"),
                "a foreign journal, again, right after wiping one",
            )
        })?;
        recovery.reset = reset;
        let committed_len = recovery.report.committed_len;
        let sink = open_wal_sink(&wal_path, committed_len, fault)?;
        let journal = PipelineJournal {
            snap_path,
            wal_path,
            fingerprint,
            completed: recovery.completed,
            wal: WalWriter::new(sink, next_seq, committed_len),
            skolem_mark: recovery.skolem.counters.clone(),
            oid_mark: oid_counters(&recovery.instance),
        };
        Ok((journal, recovery))
    }

    /// Durably commit everything done to `instance` (and minted by `skolem`,
    /// when the caller has a factory) since the previous commit, as one
    /// atomic batch closed by the progress marker `marker`, synced to disk
    /// before returning. Drains the instance's mutation log, which must be
    /// recording ([`Instance::begin_mutation_log`]).
    pub fn commit(
        &mut self,
        marker: u64,
        instance: &mut Instance,
        skolem: Option<&SkolemFactory>,
    ) -> Result<()> {
        let mutations = instance.take_mutation_log();
        self.append(marker, mutations, instance, skolem)
    }

    /// [`commit`](PipelineJournal::commit) with the batch's mutations given
    /// explicitly instead of drained from a log — for a caller whose
    /// instance was populated before any log recorded (a first full dump).
    /// The batch is `Fingerprint · mutations · Skolem assignments and
    /// fresh-identity counters past the journal's watermarks ·
    /// QueryDone(marker) · Commit`.
    pub fn append(
        &mut self,
        marker: u64,
        mutations: Vec<Mutation>,
        instance: &Instance,
        skolem: Option<&SkolemFactory>,
    ) -> Result<()> {
        let mut records = vec![WalRecord::Fingerprint(self.fingerprint)];
        records.extend(mutations.into_iter().map(wal::record_of_mutation));
        if let Some(skolem) = skolem {
            let minted = skolem.assignments_since(&self.skolem_mark);
            records.extend(
                minted
                    .into_iter()
                    .map(|(class, key, oid)| WalRecord::SkolemAssign(class, key, oid)),
            );
        }
        for (class, count) in instance.oid_counters() {
            if self.oid_mark.get(class).copied().unwrap_or(0) != count {
                records.push(WalRecord::OidCounter(class.clone(), count));
            }
        }
        records.push(WalRecord::QueryDone(marker));
        let path = self.wal_path.display().to_string();
        self.wal.append_batch(&records, &path)?;
        let file = self.wal.sink_mut().get_ref();
        file.sync_data().map_err(|e| StorageError::io(&path, e))?;
        self.completed = self.completed.max(marker + 1);
        if let Some(skolem) = skolem {
            self.skolem_mark = skolem.counter_snapshot();
        }
        self.oid_mark = oid_counters(instance);
        Ok(())
    }

    /// Fold the log into the snapshot: atomically snapshot `instance` (with
    /// `skolem`'s state and the progress so far), then truncate the WAL. Call
    /// at a batch boundary — the snapshot must hold exactly the committed
    /// batches. A crash between the two steps leaves the new snapshot beside
    /// the old log; recovery skips that log as superseded (see
    /// [`RecoveryReport::superseded_batches`]).
    pub fn checkpoint(
        &mut self,
        instance: &Instance,
        skolem: Option<&SkolemFactory>,
    ) -> Result<()> {
        let skolem = skolem.map(SkolemFactory::export_state).unwrap_or_default();
        let meta = PipelineMeta {
            fingerprint: self.fingerprint,
            completed: self.completed,
        };
        let next_seq = self.wal.next_seq();
        save_journal_snapshot(&self.snap_path, instance, &skolem, next_seq, meta)?;
        let sink = open_wal_sink(&self.wal_path, 0, None)?;
        self.wal = WalWriter::new(sink, next_seq, 0);
        Ok(())
    }

    /// Length of the committed WAL in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.offset()
    }
}

/// Load the snapshot and replay the WAL's committed prefix over it — the only
/// function that does. Returns what was recovered and the sequence number the
/// next batch must carry; `None` means the on-disk state belongs to a
/// different program and must be wiped.
fn recover(
    snap_path: &Path,
    wal_path: &Path,
    fingerprint: u64,
    schema: &str,
) -> Result<Option<(JournalRecovery, u64)>> {
    let mut report = RecoveryReport::default();
    let (mut instance, skolem, first_seq, mut completed) =
        match snapshot::load_snapshot_file(snap_path)? {
            Some(data) => match data.meta {
                Some(meta) if meta.fingerprint == fingerprint => {
                    report.snapshot_loaded = true;
                    (data.instance, data.skolem, data.wal_seq, meta.completed)
                }
                _ => return Ok(None),
            },
            None => {
                // A journal always has a snapshot on disk, even before the
                // first batch commits: write the empty baseline now.
                let fresh = Instance::new(schema);
                let meta = PipelineMeta {
                    fingerprint,
                    completed: 0,
                };
                save_journal_snapshot(snap_path, &fresh, &SkolemState::default(), 0, meta)?;
                (fresh, SkolemState::default(), 0, 0)
            }
        };
    let mut skolem = SkolemFactory::from_state(skolem);
    let wal_bytes = read_file_or_empty(wal_path)?;
    let replay = replay_wal(&wal_bytes, &wal_path.display().to_string(), first_seq);
    report.batches_replayed = replay.batches.len();
    report.committed_len = replay.committed_len;
    report.superseded_batches = replay.superseded;
    report.torn_tail = replay.tail;
    for record in replay.batches.iter().flatten() {
        match record {
            WalRecord::Fingerprint(fp) if *fp != fingerprint => return Ok(None),
            WalRecord::QueryDone(marker) => completed = completed.max(marker + 1),
            _ => {}
        }
        report.records_replayed += 1;
        wal::apply_record(record, &mut instance, &mut skolem)?;
    }
    let recovery = JournalRecovery {
        instance,
        skolem: skolem.export_state(),
        completed,
        reset: false,
        report,
    };
    Ok(Some((recovery, replay.next_seq)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::Value;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wol-persist-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn city(name: &str, pop: i64) -> Value {
        Value::record([("name", Value::str(name)), ("pop", Value::int(pop))])
    }

    /// Run "queries" `from..to` against a freshly opened journal: each mints
    /// one keyed object and one fresh-identity marker, then commits.
    fn run_queries(
        dir: &Path,
        fp: u64,
        from: u64,
        to: u64,
    ) -> (PipelineJournal, Instance, SkolemFactory) {
        let (mut journal, rec) = PipelineJournal::open(dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, from);
        let mut target = rec.instance;
        let mut factory = SkolemFactory::from_state(rec.skolem);
        target.begin_mutation_log();
        for q in from..to {
            let oid = factory.mk(&ClassName::new("CloneT"), &Value::str(format!("k{q}")));
            target
                .insert(oid, city(&format!("k{q}"), q as i64))
                .unwrap();
            target.insert_fresh(&ClassName::new("MarkerT"), Value::int(q as i64));
            journal.commit(q, &mut target, Some(&factory)).unwrap();
        }
        (journal, target, factory)
    }

    #[test]
    fn journal_resumes_after_completed_queries() {
        let dir = temp_dir("journal");
        let class = ClassName::new("CloneT");
        let fp = 0xFEED_F00D;
        // Run "queries" 0 and 1 durably, then crash before 2.
        let (_, reference, _) = run_queries(&dir, fp, 0, 2);
        // Resume: queries 0 and 1 are already durable.
        let (mut journal, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert!(!rec.reset);
        assert_eq!(rec.completed, 2);
        assert_eq!(rec.report.batches_replayed, 2);
        assert_eq!(rec.report.torn_tail, None);
        assert_eq!(rec.instance.deep_eq_report(&reference), None);
        assert_eq!(rec.instance, reference);
        let mut factory = SkolemFactory::from_state(rec.skolem.clone());
        // Re-minting an already-seen key returns the original identity, and
        // the recovered factory resumes minting where it left off.
        assert_eq!(
            factory.mk(&class, &Value::str("k0")).id(),
            0,
            "memo survived recovery"
        );
        assert_eq!(factory.counter(&class), 2);
        journal.checkpoint(&rec.instance, Some(&factory)).unwrap();
        assert_eq!(journal.wal_len(), 0);
        // After the checkpoint the WAL is empty and the snapshot holds
        // everything.
        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, 2);
        assert_eq!(rec.report.batches_replayed, 0);
        assert!(rec.report.snapshot_loaded);
        assert_eq!(rec.instance, reference);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_resets_on_fingerprint_mismatch() {
        let dir = temp_dir("journal-fp");
        run_queries(&dir, 111, 0, 1);
        // A different program must not resume that state.
        let (_, rec) = PipelineJournal::open(&dir, 222, "target", None).unwrap();
        assert!(rec.reset);
        assert_eq!(rec.completed, 0);
        assert!(rec.instance.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_crash_mid_record_discards_only_that_query() {
        let dir = temp_dir("journal-crash");
        let marker = ClassName::new("MarkerT");
        let fp = 42;
        let (journal, mut target, _) = run_queries(&dir, fp, 0, 1);
        let committed = target.clone();
        drop(journal);
        // Crash 7 bytes into recording query 1.
        let fault = Some(FaultPolicy::torn_at(7));
        let (mut journal, _) = PipelineJournal::open(&dir, fp, "target", fault).unwrap();
        target.insert_fresh(&marker, Value::int(1));
        assert!(journal.commit(1, &mut target, None).is_err());
        drop(journal);
        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, 1, "query 1's torn batch discarded");
        assert!(rec.report.torn_tail.is_some());
        assert_eq!(rec.report.superseded_batches, 0);
        assert_eq!(rec.instance.deep_eq_report(&committed), None);
        // The fresh-identity counter rewinds with the lost batch, so the
        // recovered run re-mints the identity the lost one had.
        assert_eq!(rec.instance.oid_counter(&marker), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash between a checkpoint's snapshot rename and its WAL truncation
    /// leaves the new snapshot beside the whole old log. Nothing tore: the
    /// log is reported superseded, skipped, truncated, and appends continue
    /// the sequence from the snapshot.
    #[test]
    fn a_log_superseded_by_its_checkpoint_is_not_a_torn_log() {
        let dir = temp_dir("superseded");
        let fp = 7;
        let (mut journal, target, factory) = run_queries(&dir, fp, 0, 3);
        let wal_path = dir.join(PipelineJournal::WAL_FILE);
        let old_log = fs::read(&wal_path).unwrap();
        journal.checkpoint(&target, Some(&factory)).unwrap();
        drop(journal);
        fs::write(&wal_path, &old_log).unwrap();

        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.report.torn_tail, None, "nothing tore");
        assert_eq!(rec.report.superseded_batches, 3);
        assert_eq!(rec.report.batches_replayed, 0);
        assert_eq!(rec.report.committed_len, 0);
        assert_eq!(rec.completed, 3);
        assert_eq!(rec.instance, target);
        assert_eq!(rec.skolem, factory.export_state());
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), 0, "truncated");
        // Appends after the checkpoint continue the sequence.
        let (_, after, _) = run_queries(&dir, fp, 3, 4);
        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert!(rec.report.snapshot_loaded);
        assert_eq!(rec.report.batches_replayed, 1);
        assert_eq!(rec.completed, 4);
        assert_eq!(rec.instance, after);
        fs::remove_dir_all(&dir).unwrap();
    }
}
