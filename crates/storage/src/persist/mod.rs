//! Crash-consistent persistence: write-ahead log, checksummed snapshots, and
//! recovery.
//!
//! The layer provides two durable stores built from the same primitives:
//!
//! * [`DurableInstance`] — an [`Instance`] plus [`SkolemFactory`] whose
//!   mutations are staged in memory and made durable in atomic batches by
//!   [`DurableInstance::commit`]. A crash loses at most the uncommitted
//!   batch; recovery replays the committed WAL prefix over the last snapshot
//!   and discards any torn tail.
//! * [`PipelineJournal`] — per-query durability for `morphase` pipeline
//!   runs: each applied query's target mutations and Skolem assignments form
//!   one committed batch ending in a `QueryDone` marker, so a pipeline
//!   killed between queries resumes after the last completed one instead of
//!   re-running the whole program.
//!
//! Formats are documented field-by-field in the crate-level "Durability"
//! section; fault injection for both writers lives in [`fault`].

pub mod codec;
pub mod fault;
pub mod snapshot;
pub mod wal;

use std::collections::BTreeMap;
use std::fs;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

use wol_model::{ClassName, Instance, Oid, SkolemFactory, SkolemState, Value};

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
        .map_err(|e| StorageError::io(&display, e))?;
    Ok(match fault {
        Some(policy) => FaultyFile::with_policy(file, policy),
        None => FaultyFile::new(file),
    })
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

fn sync_wal(wal: &mut WalWriter<FaultyFile<fs::File>>, path: &Path) -> Result<()> {
    wal.sink_mut()
        .get_ref()
        .sync_data()
        .map_err(|e| StorageError::io(path.display().to_string(), e))
}

// ---------------------------------------------------------------------------
// DurableInstance
// ---------------------------------------------------------------------------

/// A crash-consistent instance: in-memory state plus an on-disk snapshot and
/// WAL under a directory.
///
/// Mutate through [`instance_mut`](DurableInstance::instance_mut) and
/// [`skolem_mut`](DurableInstance::skolem_mut), then make the accumulated
/// changes durable with one atomic [`commit`](DurableInstance::commit).
/// Changes not yet committed are lost on crash — that is the batch-atomicity
/// contract, never a torn half-batch. After a commit error (injected fault or
/// real I/O failure) the writer is dead: drop the value and
/// [`open`](DurableInstance::open) the directory again, which recovers
/// exactly the committed prefix.
#[derive(Debug)]
pub struct DurableInstance {
    snap_path: PathBuf,
    wal_path: PathBuf,
    instance: Instance,
    skolem: SkolemFactory,
    wal: WalWriter<FaultyFile<fs::File>>,
    skolem_watermark: BTreeMap<ClassName, u64>,
    oid_watermark: BTreeMap<ClassName, u64>,
}

impl DurableInstance {
    /// Name of the snapshot file inside the store directory.
    pub const SNAPSHOT_FILE: &'static str = "store.snap";
    /// Name of the write-ahead-log file inside the store directory.
    pub const WAL_FILE: &'static str = "store.wal";

    /// Open (or create) the durable store in `dir`, recovering any existing
    /// state: load the snapshot, replay committed WAL batches, truncate the
    /// torn tail. `schema_name` labels a freshly created store; an existing
    /// snapshot's own schema name wins on recovery.
    pub fn open(dir: &Path, schema_name: &str) -> Result<(Self, RecoveryReport)> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let snap_path = dir.join(Self::SNAPSHOT_FILE);
        let wal_path = dir.join(Self::WAL_FILE);

        let mut report = RecoveryReport::default();
        let (mut instance, skolem_state, first_seq) =
            match snapshot::load_snapshot_file(&snap_path)? {
                Some(data) => {
                    report.snapshot_loaded = true;
                    (data.instance, data.skolem, data.wal_seq)
                }
                None => (Instance::new(schema_name), SkolemState::default(), 0),
            };
        let mut skolem = SkolemFactory::from_state(skolem_state);

        let wal_bytes = read_file_or_empty(&wal_path)?;
        let replay = replay_wal(&wal_bytes, &wal_path.display().to_string(), first_seq);
        report.batches_replayed = replay.batches.len();
        report.committed_len = replay.committed_len;
        report.torn_tail = replay.tail.clone();
        for batch in &replay.batches {
            for record in batch {
                report.records_replayed += 1;
                wal::apply_record(record, &mut instance, &mut skolem)?;
            }
        }

        let sink = open_wal_sink(&wal_path, replay.committed_len, None)?;
        let wal = WalWriter::new(sink, replay.next_seq, replay.committed_len);
        instance.begin_mutation_log();
        let skolem_watermark = skolem.counter_snapshot();
        let oid_watermark = instance
            .oid_counters()
            .map(|(c, n)| (c.clone(), n))
            .collect();
        Ok((
            DurableInstance {
                snap_path,
                wal_path,
                instance,
                skolem,
                wal,
                skolem_watermark,
                oid_watermark,
            },
            report,
        ))
    }

    /// The in-memory instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Mutable access to the instance; every insert/update/remove made here
    /// is staged for the next [`commit`](DurableInstance::commit).
    pub fn instance_mut(&mut self) -> &mut Instance {
        &mut self.instance
    }

    /// The Skolem factory.
    pub fn skolem(&self) -> &SkolemFactory {
        &self.skolem
    }

    /// Mutable access to the Skolem factory; new assignments are staged for
    /// the next commit.
    pub fn skolem_mut(&mut self) -> &mut SkolemFactory {
        &mut self.skolem
    }

    /// `Mk_class(key)`: the object identity for a key, minting (and staging)
    /// a fresh assignment the first time the key is seen.
    pub fn mk(&mut self, class: &ClassName, key: &Value) -> Oid {
        self.skolem.mk(class, key)
    }

    /// Records staged since the last commit (mutations drained from the
    /// instance log, Skolem assignments and fresh-identity counters diffed
    /// against their watermarks).
    fn staged_records(&mut self) -> Vec<WalRecord> {
        let mut records: Vec<WalRecord> = self
            .instance
            .take_mutation_log()
            .into_iter()
            .map(wal::record_of_mutation)
            .collect();
        for (class, key, oid) in self.skolem.assignments_since(&self.skolem_watermark) {
            records.push(WalRecord::SkolemAssign(class, key, oid));
        }
        for (class, count) in self.instance.oid_counters() {
            if self.oid_watermark.get(class).copied().unwrap_or(0) != count {
                records.push(WalRecord::OidCounter(class.clone(), count));
            }
        }
        records
    }

    /// Commit everything staged since the last commit as one atomic batch,
    /// synced to disk before returning. Returns the WAL length. A no-op when
    /// nothing is staged.
    pub fn commit(&mut self) -> Result<u64> {
        let records = self.staged_records();
        if records.is_empty() {
            return Ok(self.wal.offset());
        }
        let path = self.wal_path.display().to_string();
        let end = self.wal.append_batch(&records, &path)?;
        sync_wal(&mut self.wal, &self.wal_path)?;
        self.skolem_watermark = self.skolem.counter_snapshot();
        self.oid_watermark = self
            .instance
            .oid_counters()
            .map(|(c, n)| (c.clone(), n))
            .collect();
        Ok(end)
    }

    /// Compact the store: commit anything still staged, atomically snapshot
    /// the state, then truncate the WAL. Recovery afterwards loads the
    /// snapshot and replays nothing.
    pub fn compact(&mut self) -> Result<()> {
        self.commit()?;
        let bytes = snapshot::encode_snapshot(
            &self.instance,
            &self.skolem.export_state(),
            self.wal.next_seq(),
            None,
        );
        snapshot::save_snapshot_file(&self.snap_path, &bytes, None)?;
        let sink = open_wal_sink(&self.wal_path, 0, None)?;
        self.wal = WalWriter::new(sink, self.wal.next_seq(), 0);
        Ok(())
    }

    /// Install (or clear) a fault policy on the WAL sink — test hook for
    /// crash injection at a byte offset of this session's appends.
    pub fn set_wal_fault(&mut self, policy: Option<FaultPolicy>) {
        self.wal.sink_mut().set_policy(policy);
    }

    /// Length of the committed WAL in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.offset()
    }

    /// Path of the WAL file (test hook for out-of-band corruption).
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> &Path {
        &self.snap_path
    }
}

// ---------------------------------------------------------------------------
// PipelineJournal
// ---------------------------------------------------------------------------

/// What opening a pipeline journal recovered.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecovery {
    /// The target instance as of the last durable point.
    pub instance: Instance,
    /// The Skolem factory state as of the last durable point.
    pub skolem: SkolemState,
    /// Number of leading queries already applied durably; the resuming run
    /// skips these.
    pub completed: u64,
    /// True when existing journal files belonged to a different program
    /// (fingerprint mismatch) and were discarded.
    pub reset: bool,
    /// Snapshot/WAL recovery details.
    pub report: RecoveryReport,
}

/// Per-query durability journal for pipeline runs (see the module docs).
///
/// The journal's snapshot carries a [`PipelineMeta`] binding it to one
/// compiled program via a fingerprint; every WAL batch repeats that
/// fingerprint, so state left by a *different* program is detected and reset
/// rather than resumed into silent corruption.
#[derive(Debug)]
pub struct PipelineJournal {
    snap_path: PathBuf,
    wal_path: PathBuf,
    fingerprint: u64,
    completed: u64,
    wal: WalWriter<FaultyFile<fs::File>>,
    oid_watermark: BTreeMap<ClassName, u64>,
}

impl PipelineJournal {
    /// Name of the journal snapshot file inside the journal directory.
    pub const SNAPSHOT_FILE: &'static str = "pipeline.snap";
    /// Name of the journal WAL file inside the journal directory.
    pub const WAL_FILE: &'static str = "pipeline.wal";

    /// Open (or create) the journal in `dir` for the program identified by
    /// `fingerprint`. Existing state from the same program is recovered
    /// (snapshot + committed WAL batches, torn tail discarded); state from a
    /// different program is deleted and the journal starts fresh. A fault
    /// policy, when given, is installed on the WAL sink.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        target_schema: &str,
        fault: Option<FaultPolicy>,
    ) -> Result<(Self, JournalRecovery)> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io(dir.display().to_string(), e))?;
        let snap_path = dir.join(Self::SNAPSHOT_FILE);
        let wal_path = dir.join(Self::WAL_FILE);
        let mut reset = false;
        // At most one retry: a fingerprint conflict wipes the journal, and a
        // wiped journal cannot conflict again.
        for _ in 0..2 {
            match Self::try_open(&snap_path, &wal_path, fingerprint, target_schema)? {
                Some((instance, skolem, completed, replay, report)) => {
                    let sink = open_wal_sink(&wal_path, replay.committed_len, fault)?;
                    let wal = WalWriter::new(sink, replay.next_seq, replay.committed_len);
                    let oid_watermark = instance
                        .oid_counters()
                        .map(|(c, n)| (c.clone(), n))
                        .collect();
                    let journal = PipelineJournal {
                        snap_path,
                        wal_path,
                        fingerprint,
                        completed,
                        wal,
                        oid_watermark,
                    };
                    let recovery = JournalRecovery {
                        instance,
                        skolem,
                        completed,
                        reset,
                        report,
                    };
                    return Ok((journal, recovery));
                }
                None => {
                    reset = true;
                    remove_if_present(&snap_path)?;
                    remove_if_present(&wal_path)?;
                }
            }
        }
        unreachable!("a wiped journal always opens")
    }

    /// One open attempt. `None` means the on-disk state belongs to a
    /// different program and must be wiped.
    #[allow(clippy::type_complexity)]
    fn try_open(
        snap_path: &Path,
        wal_path: &Path,
        fingerprint: u64,
        target_schema: &str,
    ) -> Result<Option<(Instance, SkolemState, u64, WalReplay, RecoveryReport)>> {
        let mut report = RecoveryReport::default();
        let (mut instance, skolem_state, first_seq, base_completed) =
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
                    // first query commits: write the empty baseline now.
                    let fresh = Instance::new(target_schema);
                    let bytes = snapshot::encode_snapshot(
                        &fresh,
                        &SkolemState::default(),
                        0,
                        Some(PipelineMeta {
                            fingerprint,
                            completed: 0,
                        }),
                    );
                    snapshot::save_snapshot_file(snap_path, &bytes, None)?;
                    (fresh, SkolemState::default(), 0, 0)
                }
            };
        let mut skolem = SkolemFactory::from_state(skolem_state);
        let wal_bytes = read_file_or_empty(wal_path)?;
        let replay = replay_wal(&wal_bytes, &wal_path.display().to_string(), first_seq);
        report.batches_replayed = replay.batches.len();
        report.committed_len = replay.committed_len;
        report.torn_tail = replay.tail.clone();
        let mut completed = base_completed;
        for batch in &replay.batches {
            for record in batch {
                match record {
                    WalRecord::Fingerprint(fp) if *fp != fingerprint => return Ok(None),
                    WalRecord::QueryDone(index) => completed = completed.max(index + 1),
                    _ => {}
                }
                report.records_replayed += 1;
                wal::apply_record(record, &mut instance, &mut skolem)?;
            }
        }
        Ok(Some((
            instance,
            skolem.export_state(),
            completed,
            replay,
            report,
        )))
    }

    /// Durably record query `index` as applied: its target mutations, the
    /// Skolem assignments it minted, and the fresh-identity counters it
    /// advanced, as one committed batch ending in a `QueryDone` marker.
    pub fn record_query(
        &mut self,
        index: u64,
        mutations: Vec<wol_model::Mutation>,
        assignments: Vec<(ClassName, Value, Oid)>,
        target: &Instance,
    ) -> Result<()> {
        let mut records = vec![WalRecord::Fingerprint(self.fingerprint)];
        records.extend(mutations.into_iter().map(wal::record_of_mutation));
        records.extend(
            assignments
                .into_iter()
                .map(|(class, key, oid)| WalRecord::SkolemAssign(class, key, oid)),
        );
        for (class, count) in target.oid_counters() {
            if self.oid_watermark.get(class).copied().unwrap_or(0) != count {
                records.push(WalRecord::OidCounter(class.clone(), count));
            }
        }
        records.push(WalRecord::QueryDone(index));
        let path = self.wal_path.display().to_string();
        self.wal.append_batch(&records, &path)?;
        sync_wal(&mut self.wal, &self.wal_path)?;
        self.completed = self.completed.max(index + 1);
        self.oid_watermark = target.oid_counters().map(|(c, n)| (c.clone(), n)).collect();
        Ok(())
    }

    /// Finish the run: atomically snapshot the final target (with progress
    /// metadata) and truncate the WAL.
    pub fn finish(&mut self, target: &Instance, skolem: &SkolemState) -> Result<()> {
        let bytes = snapshot::encode_snapshot(
            target,
            skolem,
            self.wal.next_seq(),
            Some(PipelineMeta {
                fingerprint: self.fingerprint,
                completed: self.completed,
            }),
        );
        snapshot::save_snapshot_file(&self.snap_path, &bytes, None)?;
        let sink = open_wal_sink(&self.wal_path, 0, None)?;
        self.wal = WalWriter::new(sink, self.wal.next_seq(), 0);
        Ok(())
    }

    /// Install (or clear) a fault policy on the WAL sink.
    pub fn set_wal_fault(&mut self, policy: Option<FaultPolicy>) {
        self.wal.sink_mut().set_policy(policy);
    }

    /// Path of the journal WAL file (test hook).
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Path of the journal snapshot file (test hook).
    pub fn snapshot_path(&self) -> &Path {
        &self.snap_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wol-persist-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn city(name: &str, pop: i64) -> Value {
        Value::record([("name", Value::str(name)), ("pop", Value::int(pop))])
    }

    #[test]
    fn commit_then_reopen_recovers_everything() {
        let dir = temp_dir("basic");
        let class = ClassName::new("CityT");
        let markers = ClassName::new("MarkerT");
        let (reference, report) = {
            let (mut store, report) = DurableInstance::open(&dir, "euro").unwrap();
            let paris = store.mk(&class, &Value::str("Paris"));
            store
                .instance_mut()
                .insert(paris.clone(), city("Paris", 2_100_000))
                .unwrap();
            store
                .instance_mut()
                .insert_fresh(&markers, city("Lyon", 500_000));
            store.commit().unwrap();
            store
                .instance_mut()
                .update(&paris, city("Paris", 2_200_000))
                .unwrap();
            store.commit().unwrap();
            (store.instance().clone(), report)
        };
        assert!(!report.snapshot_loaded);

        let (store, report) = DurableInstance::open(&dir, "euro").unwrap();
        assert_eq!(report.batches_replayed, 2);
        assert_eq!(report.torn_tail, None);
        assert_eq!(store.instance().deep_eq_report(&reference), None);
        assert_eq!(store.instance(), &reference);
        // The recovered factory resumes minting where it left off.
        assert_eq!(store.skolem().counter(&class), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_changes_are_lost_committed_ones_kept() {
        let dir = temp_dir("uncommitted");
        let class = ClassName::new("CityT");
        {
            let (mut store, _) = DurableInstance::open(&dir, "euro").unwrap();
            store.instance_mut().insert_fresh(&class, city("Paris", 1));
            store.commit().unwrap();
            // Staged but never committed: must vanish on recovery.
            store.instance_mut().insert_fresh(&class, city("Ghost", 0));
        }
        let (store, _) = DurableInstance::open(&dir, "euro").unwrap();
        assert_eq!(store.instance().extent_size(&class), 1);
        // The fresh-identity counter also rewinds to the committed state, so
        // the recovered run re-mints the same identity the lost one had.
        assert_eq!(store.instance().oid_counter(&class), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_mid_append_loses_only_that_batch() {
        let dir = temp_dir("fault");
        let class = ClassName::new("CityT");
        let reference = {
            let (mut store, _) = DurableInstance::open(&dir, "euro").unwrap();
            store.instance_mut().insert_fresh(&class, city("Paris", 1));
            store.commit().unwrap();
            let committed = store.instance().clone();
            // Crash 5 bytes into the second batch's write.
            let fault_at = store.wal_len() + 5;
            store.set_wal_fault(Some(FaultPolicy::torn_at(fault_at)));
            store.instance_mut().insert_fresh(&class, city("Lyon", 2));
            assert!(store.commit().is_err());
            committed
        };
        let (store, report) = DurableInstance::open(&dir, "euro").unwrap();
        assert!(report.torn_tail.is_some());
        assert_eq!(store.instance().deep_eq_report(&reference), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_empties_the_wal() {
        let dir = temp_dir("compact");
        let class = ClassName::new("CityT");
        {
            let (mut store, _) = DurableInstance::open(&dir, "euro").unwrap();
            for i in 0..10 {
                store
                    .instance_mut()
                    .insert_fresh(&class, city(&format!("c{i}"), i));
                store.commit().unwrap();
            }
            let before = store.wal_len();
            assert!(before > 0);
            store.compact().unwrap();
            assert_eq!(store.wal_len(), 0);
            // Appends after compaction continue the sequence.
            store.instance_mut().insert_fresh(&class, city("late", 99));
            store.commit().unwrap();
        }
        let (store, report) = DurableInstance::open(&dir, "euro").unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(store.instance().extent_size(&class), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_resumes_after_completed_queries() {
        let dir = temp_dir("journal");
        let class = ClassName::new("CloneT");
        let fp = 0xFEED_F00D;
        // Run "queries" 0 and 1 durably, then crash before 2.
        {
            let (mut journal, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
            assert_eq!(rec.completed, 0);
            assert!(!rec.reset);
            let mut target = rec.instance;
            let mut factory = SkolemFactory::from_state(rec.skolem);
            for q in 0..2u64 {
                target.begin_mutation_log();
                let before = factory.counter_snapshot();
                let oid = factory.mk(&class, &Value::str(format!("k{q}")));
                target
                    .insert(oid, city(&format!("k{q}"), q as i64))
                    .unwrap();
                let mutations = target.take_mutation_log();
                let assignments = factory.assignments_since(&before);
                journal
                    .record_query(q, mutations, assignments, &target)
                    .unwrap();
            }
        }
        // Resume: queries 0 and 1 are already durable.
        let (mut journal, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, 2);
        assert_eq!(rec.instance.extent_size(&class), 2);
        let mut factory = SkolemFactory::from_state(rec.skolem.clone());
        // Re-minting an already-seen key returns the original identity.
        assert_eq!(
            factory.mk(&class, &Value::str("k0")).id(),
            0,
            "memo survived recovery"
        );
        journal
            .finish(&rec.instance, &factory.export_state())
            .unwrap();
        // After finish the WAL is empty and the snapshot holds everything.
        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, 2);
        assert_eq!(rec.report.batches_replayed, 0);
        assert!(rec.report.snapshot_loaded);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_resets_on_fingerprint_mismatch() {
        let dir = temp_dir("journal-fp");
        let class = ClassName::new("CloneT");
        {
            let (mut journal, rec) = PipelineJournal::open(&dir, 111, "target", None).unwrap();
            let mut target = rec.instance;
            target.begin_mutation_log();
            target.insert_fresh(&class, city("a", 1));
            let mutations = target.take_mutation_log();
            journal.record_query(0, mutations, vec![], &target).unwrap();
        }
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
        let class = ClassName::new("CloneT");
        let fp = 42;
        {
            let (mut journal, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
            let mut target = rec.instance;
            target.begin_mutation_log();
            target.insert_fresh(&class, city("a", 1));
            journal
                .record_query(0, target.take_mutation_log(), vec![], &target)
                .unwrap();
            // Crash partway through recording query 1.
            journal.set_wal_fault(Some(FaultPolicy::torn_at(journal.wal.offset() + 7)));
            target.insert_fresh(&class, city("b", 2));
            assert!(journal
                .record_query(1, target.take_mutation_log(), vec![], &target)
                .is_err());
        }
        let (_, rec) = PipelineJournal::open(&dir, fp, "target", None).unwrap();
        assert_eq!(rec.completed, 1, "query 1's torn batch discarded");
        assert_eq!(rec.instance.extent_size(&class), 1);
        assert!(rec.report.torn_tail.is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
