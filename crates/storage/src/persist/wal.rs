//! The write-ahead log.
//!
//! The log is a sequence of length-prefixed, CRC-checksummed records framed
//! into *batches* by explicit commit markers:
//!
//! ```text
//! record  := len:u32le  crc:u32le  payload           (crc = CRC-32 of payload)
//! payload := tag:u8     body                          (see WalRecord)
//! batch   := record*    commit-record                 (tag 0x08, body = seq varint)
//! ```
//!
//! Batches are atomic: recovery replays a batch only if its commit record is
//! intact and its sequence number is the next expected one. Anything after
//! the last intact committed batch — a torn record, a checksum mismatch, an
//! uncommitted tail — is *discarded*, never partially applied, realising the
//! consistent-update-set recovery contract (replay lands on a prefix of whole
//! update sets).

use std::io::Write;

use wol_model::{ClassName, Instance, Mutation, Oid, SkolemFactory, Value};

use crate::error::StorageError;
use crate::persist::codec::{self, ByteReader};
use crate::Result;

/// One write-ahead-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// An object was inserted.
    Insert(Oid, Value),
    /// An object's value was replaced.
    Update(Oid, Value),
    /// An object was removed.
    Remove(Oid),
    /// A Skolem assignment `Mk_class(key) = oid` was created.
    SkolemAssign(ClassName, Value, Oid),
    /// A class's fresh-identity counter advanced to `n`.
    OidCounter(ClassName, u64),
    /// Pipeline query `index` finished applying (durable-pipeline journal).
    QueryDone(u64),
    /// The pipeline journal's plan fingerprint (first record of a journal).
    Fingerprint(u64),
    /// Commit marker closing a batch; `seq` numbers batches consecutively.
    Commit {
        /// The batch sequence number.
        seq: u64,
    },
}

const TAG_INSERT: u8 = 0x01;
const TAG_UPDATE: u8 = 0x02;
const TAG_REMOVE: u8 = 0x03;
const TAG_SKOLEM_ASSIGN: u8 = 0x04;
const TAG_OID_COUNTER: u8 = 0x05;
const TAG_QUERY_DONE: u8 = 0x06;
const TAG_FINGERPRINT: u8 = 0x07;
const TAG_COMMIT: u8 = 0x08;

/// Reject implausible record lengths before allocating (a corrupted length
/// field must not look like a multi-gigabyte record).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// Encode one record's payload (tag + body, without framing).
fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::Insert(oid, value) => {
            out.push(TAG_INSERT);
            codec::put_oid(&mut out, oid);
            codec::put_value(&mut out, value);
        }
        WalRecord::Update(oid, value) => {
            out.push(TAG_UPDATE);
            codec::put_oid(&mut out, oid);
            codec::put_value(&mut out, value);
        }
        WalRecord::Remove(oid) => {
            out.push(TAG_REMOVE);
            codec::put_oid(&mut out, oid);
        }
        WalRecord::SkolemAssign(class, key, oid) => {
            out.push(TAG_SKOLEM_ASSIGN);
            codec::put_str(&mut out, class.as_str());
            codec::put_value(&mut out, key);
            codec::put_oid(&mut out, oid);
        }
        WalRecord::OidCounter(class, n) => {
            out.push(TAG_OID_COUNTER);
            codec::put_str(&mut out, class.as_str());
            codec::put_varint(&mut out, *n);
        }
        WalRecord::QueryDone(index) => {
            out.push(TAG_QUERY_DONE);
            codec::put_varint(&mut out, *index);
        }
        WalRecord::Fingerprint(fp) => {
            out.push(TAG_FINGERPRINT);
            codec::put_u64(&mut out, *fp);
        }
        WalRecord::Commit { seq } => {
            out.push(TAG_COMMIT);
            codec::put_varint(&mut out, *seq);
        }
    }
    out
}

/// Decode one record payload.
fn decode_payload(payload: &[u8], source: &str, base_offset: u64) -> Result<WalRecord> {
    let mut r = ByteReader::new(payload, source);
    let record = match r.u8()? {
        TAG_INSERT => WalRecord::Insert(r.oid()?, r.value()?),
        TAG_UPDATE => WalRecord::Update(r.oid()?, r.value()?),
        TAG_REMOVE => WalRecord::Remove(r.oid()?),
        TAG_SKOLEM_ASSIGN => {
            WalRecord::SkolemAssign(ClassName::new(r.str()?), r.value()?, r.oid()?)
        }
        TAG_OID_COUNTER => WalRecord::OidCounter(ClassName::new(r.str()?), r.varint()?),
        TAG_QUERY_DONE => WalRecord::QueryDone(r.varint()?),
        TAG_FINGERPRINT => WalRecord::Fingerprint(r.u64()?),
        TAG_COMMIT => WalRecord::Commit { seq: r.varint()? },
        other => {
            return Err(StorageError::corrupt_at_offset(
                source,
                base_offset,
                "a WAL record tag in 0x01..=0x08",
                format!("tag {other:#04x}"),
            ));
        }
    };
    if !r.is_at_end() {
        return Err(StorageError::corrupt_at_offset(
            source,
            base_offset + r.pos() as u64,
            "end of record payload",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(record)
}

/// Frame one record: `len | crc | payload`.
fn frame_record(out: &mut Vec<u8>, record: &WalRecord) {
    let payload = encode_payload(record);
    codec::put_u32(out, payload.len() as u32);
    codec::put_u32(out, codec::crc32(&payload));
    out.extend_from_slice(&payload);
}

/// An appender writing committed batches to a sink.
///
/// The sink is generic so the fault-injection shim
/// ([`FaultyFile`](crate::persist::FaultyFile)) and in-memory buffers thread
/// through the same code path as real files.
#[derive(Debug)]
pub struct WalWriter<W: Write> {
    sink: W,
    next_seq: u64,
    offset: u64,
}

impl<W: Write> WalWriter<W> {
    /// A writer appending to `sink`, which already holds `offset` bytes of
    /// log whose next batch sequence number is `next_seq`. Fresh logs start
    /// at `(0, 0)`.
    pub fn new(sink: W, next_seq: u64, offset: u64) -> Self {
        WalWriter {
            sink,
            next_seq,
            offset,
        }
    }

    /// Append one atomic batch: the records followed by a commit marker, in a
    /// single write, flushed before returning. Returns the end offset of the
    /// committed batch. An empty batch writes nothing.
    pub fn append_batch(&mut self, records: &[WalRecord], path: &str) -> Result<u64> {
        if records.is_empty() {
            return Ok(self.offset);
        }
        let mut frame = Vec::new();
        for record in records {
            debug_assert!(
                !matches!(record, WalRecord::Commit { .. }),
                "commit markers are framed by the writer"
            );
            frame_record(&mut frame, record);
        }
        frame_record(&mut frame, &WalRecord::Commit { seq: self.next_seq });
        self.sink
            .write_all(&frame)
            .and_then(|()| self.sink.flush())
            .map_err(|e| StorageError::io(path, e))?;
        self.next_seq += 1;
        self.offset += frame.len() as u64;
        Ok(self.offset)
    }

    /// The sequence number the next committed batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Byte offset at the end of the last committed batch.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Access the sink (for tests and fault-policy installation).
    pub fn sink_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    /// Unwrap the sink.
    pub fn into_sink(self) -> W {
        self.sink
    }
}

/// Why a log's tail was discarded during replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset at which the log stops being replayable (the end of the
    /// last committed batch).
    pub offset: u64,
    /// Human-readable reason (truncated header, checksum mismatch, ...).
    pub reason: String,
}

/// The result of scanning a log image: the committed batches, where the
/// committed prefix ends, and why the rest (if any) was discarded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Each committed batch's records, commit markers excluded, in commit
    /// order.
    pub batches: Vec<Vec<WalRecord>>,
    /// Byte offset of the end of the last committed batch; the log should be
    /// truncated here before further appends.
    pub committed_len: u64,
    /// Sequence number the next committed batch must carry.
    pub next_seq: u64,
    /// Intact batches at the head of the log numbered *below* `first_seq`:
    /// the snapshot the log is replayed over already holds them (a crash
    /// between a checkpoint's snapshot rename and its log truncation leaves
    /// them behind). Skipped, never replayed, and not a torn tail.
    pub superseded: usize,
    /// Present when bytes past `committed_len` were discarded.
    pub tail: Option<TornTail>,
}

/// Scan a log image, returning every intact committed batch and discarding
/// the torn tail. Never fails: *any* malformation — truncated header or
/// body, checksum mismatch, undecodable payload, out-of-order commit,
/// uncommitted trailing records — ends the committed prefix there. Leading
/// batches numbered below `first_seq` are *superseded*, not malformed: they
/// are counted and skipped, and since `committed_len` only advances over
/// replayed batches, a log holding nothing else is truncated to empty.
pub fn replay_wal(bytes: &[u8], source: &str, first_seq: u64) -> WalReplay {
    let mut replay = WalReplay {
        next_seq: first_seq,
        ..WalReplay::default()
    };
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut pos = 0usize;
    let torn = |offset: u64, reason: String| TornTail { offset, reason };
    loop {
        if pos == bytes.len() {
            if !pending.is_empty() {
                replay.tail = Some(torn(
                    replay.committed_len,
                    "uncommitted batch tail".to_string(),
                ));
            }
            return replay;
        }
        let record_start = pos as u64;
        let (Some(len), Some(crc)) = (codec::u32_at(bytes, pos), codec::u32_at(bytes, pos + 4))
        else {
            replay.tail = Some(torn(
                replay.committed_len,
                format!(
                    "truncated record header at byte {record_start} \
                     ({} of 8 bytes)",
                    bytes.len() - pos
                ),
            ));
            return replay;
        };
        if len > MAX_RECORD_LEN {
            replay.tail = Some(torn(
                replay.committed_len,
                format!("implausible record length {len} at byte {record_start}"),
            ));
            return replay;
        }
        if bytes.len() - pos - 8 < len as usize {
            replay.tail = Some(torn(
                replay.committed_len,
                format!(
                    "truncated record body at byte {record_start} \
                     ({} of {len} bytes)",
                    bytes.len() - pos - 8
                ),
            ));
            return replay;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if codec::crc32(payload) != crc {
            replay.tail = Some(torn(
                replay.committed_len,
                format!("checksum mismatch at byte {record_start}"),
            ));
            return replay;
        }
        let record = match decode_payload(payload, source, record_start + 8) {
            Ok(record) => record,
            Err(e) => {
                replay.tail = Some(torn(replay.committed_len, e.to_string()));
                return replay;
            }
        };
        pos += 8 + len as usize;
        match record {
            WalRecord::Commit { seq } if seq < first_seq && replay.batches.is_empty() => {
                replay.superseded += 1;
                pending.clear();
            }
            WalRecord::Commit { seq } => {
                if seq != replay.next_seq {
                    replay.tail = Some(torn(
                        replay.committed_len,
                        format!(
                            "commit sequence mismatch at byte {record_start}: \
                             expected {}, found {seq}",
                            replay.next_seq
                        ),
                    ));
                    return replay;
                }
                replay.batches.push(std::mem::take(&mut pending));
                replay.committed_len = pos as u64;
                replay.next_seq += 1;
            }
            record => pending.push(record),
        }
    }
}

/// Apply one replayed record to an instance and Skolem factory.
pub fn apply_record(
    record: &WalRecord,
    instance: &mut Instance,
    skolem: &mut SkolemFactory,
) -> Result<()> {
    match record {
        WalRecord::Insert(oid, value) => instance.insert(oid.clone(), value.clone())?,
        WalRecord::Update(oid, value) => instance.update(oid, value.clone())?,
        WalRecord::Remove(oid) => {
            instance.remove(oid);
        }
        WalRecord::SkolemAssign(class, key, oid) => {
            skolem.restore_assignment(class, key.clone(), oid.clone());
        }
        WalRecord::OidCounter(class, n) => instance.restore_oid_counter(class, *n),
        WalRecord::QueryDone(_) | WalRecord::Fingerprint(_) => {}
        WalRecord::Commit { .. } => {}
    }
    Ok(())
}

/// Turn an applied [`Mutation`] (from [`Instance::take_mutation_log`]) into
/// its WAL record.
pub fn record_of_mutation(mutation: Mutation) -> WalRecord {
    match mutation {
        Mutation::Insert(oid, value) => WalRecord::Insert(oid, value),
        Mutation::Update(oid, value) => WalRecord::Update(oid, value),
        Mutation::Remove(oid) => WalRecord::Remove(oid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        let class = ClassName::new("CityT");
        let oid = Oid::new(class.clone(), 0);
        vec![
            WalRecord::Insert(oid.clone(), Value::record([("name", Value::str("Paris"))])),
            WalRecord::Update(oid.clone(), Value::record([("name", Value::str("Lyon"))])),
            WalRecord::SkolemAssign(class.clone(), Value::str("Lyon"), oid.clone()),
            WalRecord::OidCounter(class, 1),
            WalRecord::Remove(oid),
            WalRecord::QueryDone(3),
            WalRecord::Fingerprint(0xDEAD_BEEF),
        ]
    }

    #[test]
    fn payloads_round_trip() {
        for record in sample_records() {
            let payload = encode_payload(&record);
            assert_eq!(decode_payload(&payload, "<t>", 0).unwrap(), record);
        }
        let commit = WalRecord::Commit { seq: 42 };
        let payload = encode_payload(&commit);
        assert_eq!(decode_payload(&payload, "<t>", 0).unwrap(), commit);
    }

    #[test]
    fn writer_frames_batches_and_replay_returns_them() {
        let mut writer = WalWriter::new(Vec::new(), 0, 0);
        let records = sample_records();
        let end1 = writer.append_batch(&records[..3], "<t>").unwrap();
        let end2 = writer.append_batch(&records[3..], "<t>").unwrap();
        assert!(end2 > end1);
        assert_eq!(writer.next_seq(), 2);
        // Empty batches write nothing.
        assert_eq!(writer.append_batch(&[], "<t>").unwrap(), end2);
        let bytes = writer.into_sink();
        assert_eq!(bytes.len() as u64, end2);

        let replay = replay_wal(&bytes, "<t>", 0);
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0], records[..3].to_vec());
        assert_eq!(replay.batches[1], records[3..].to_vec());
        assert_eq!(replay.committed_len, end2);
        assert_eq!(replay.next_seq, 2);
        assert_eq!(replay.tail, None);
    }

    #[test]
    fn truncation_discards_only_the_torn_batch() {
        let mut writer = WalWriter::new(Vec::new(), 0, 0);
        let records = sample_records();
        let end1 = writer.append_batch(&records[..3], "<t>").unwrap();
        writer.append_batch(&records[3..], "<t>").unwrap();
        let bytes = writer.into_sink();
        // Cut anywhere inside the second batch: only the first survives.
        for cut in (end1 as usize + 1)..bytes.len() {
            let replay = replay_wal(&bytes[..cut], "<t>", 0);
            assert_eq!(replay.batches.len(), 1, "cut at {cut}");
            assert_eq!(replay.committed_len, end1, "cut at {cut}");
            assert!(replay.tail.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn checksum_mismatch_detected_and_tail_discarded() {
        let mut writer = WalWriter::new(Vec::new(), 0, 0);
        writer.append_batch(&sample_records()[..3], "<t>").unwrap();
        let end1 = writer.offset();
        writer.append_batch(&sample_records()[3..], "<t>").unwrap();
        let mut bytes = writer.into_sink();
        // Flip a payload byte in the second batch.
        let target = end1 as usize + 9;
        bytes[target] ^= 0x40;
        let replay = replay_wal(&bytes, "<t>", 0);
        assert_eq!(replay.batches.len(), 1);
        let tail = replay.tail.unwrap();
        assert_eq!(tail.offset, end1);
        assert!(
            tail.reason.contains("checksum") || tail.reason.contains("corrupt"),
            "{}",
            tail.reason
        );
    }

    #[test]
    fn commit_sequence_gaps_rejected() {
        let mut writer = WalWriter::new(Vec::new(), 5, 0);
        writer.append_batch(&sample_records()[..2], "<t>").unwrap();
        let bytes = writer.into_sink();
        // Expecting seq 0 but the log starts at 5: nothing replays.
        let replay = replay_wal(&bytes, "<t>", 0);
        assert!(replay.batches.is_empty());
        assert!(replay
            .tail
            .unwrap()
            .reason
            .contains("commit sequence mismatch"));
        // With the right starting seq it replays fine.
        assert_eq!(replay_wal(&bytes, "<t>", 5).batches.len(), 1);
    }

    #[test]
    fn leading_batches_below_first_seq_are_superseded_not_torn() {
        let mut writer = WalWriter::new(Vec::new(), 0, 0);
        let records = sample_records();
        writer.append_batch(&records[..3], "<t>").unwrap();
        let end2 = writer.append_batch(&records[3..5], "<t>").unwrap();
        let end3 = writer.append_batch(&records[5..], "<t>").unwrap();
        let bytes = writer.into_sink();
        // A snapshot at seq 3 holds all three batches: nothing to replay,
        // nothing torn, and the log truncates to empty.
        let replay = replay_wal(&bytes, "<t>", 3);
        assert_eq!((replay.superseded, replay.batches.len()), (3, 0));
        assert_eq!((replay.committed_len, replay.next_seq), (0, 3));
        assert_eq!(replay.tail, None);
        // A snapshot at seq 2 skips two and replays the third.
        let replay = replay_wal(&bytes, "<t>", 2);
        assert_eq!(replay.superseded, 2);
        assert_eq!(replay.batches, vec![records[5..].to_vec()]);
        assert_eq!((replay.committed_len, replay.next_seq), (end3, 3));
        // A real tear after superseded batches is still reported as one.
        let replay = replay_wal(&bytes[..end2 as usize + 5], "<t>", 3);
        assert_eq!((replay.superseded, replay.committed_len), (2, 0));
        assert!(replay.tail.is_some());
        // Once a batch has replayed, a lower number is a mismatch again.
        let mut writer = WalWriter::new(bytes, 1, end3);
        writer.append_batch(&records[..1], "<t>").unwrap();
        let replay = replay_wal(&writer.into_sink(), "<t>", 2);
        assert_eq!((replay.superseded, replay.batches.len()), (2, 1));
        assert!(replay.tail.unwrap().reason.contains("sequence mismatch"));
    }

    #[test]
    fn apply_record_mirrors_instance_mutations() {
        let class = ClassName::new("CityT");
        let mut reference = Instance::new("target");
        reference.begin_mutation_log();
        let oid = reference.insert_fresh(&class, Value::record([("name", Value::str("Paris"))]));
        reference
            .update(&oid, Value::record([("name", Value::str("Lyon"))]))
            .unwrap();
        let mutations = reference.end_mutation_log();

        let mut recovered = Instance::new("target");
        let mut skolem = SkolemFactory::new();
        for m in mutations {
            apply_record(&record_of_mutation(m), &mut recovered, &mut skolem).unwrap();
        }
        for (c, n) in reference.oid_counters() {
            recovered.restore_oid_counter(c, n);
        }
        assert_eq!(recovered.deep_eq_report(&reference), None);
    }
}
