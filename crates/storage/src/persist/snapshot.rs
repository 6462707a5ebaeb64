//! Checksummed, versioned binary snapshots of an instance plus its
//! Skolem-factory state.
//!
//! ```text
//! snapshot := magic:"WOLSNAP\0"  version:u32le  body  crc:u32le
//! body     := schema_name:str
//!             class_count:varint  (class:str  obj_count:varint  (id:varint value)* )*
//!             oid_counter_count:varint  (class:str  count:varint)*
//!             skolem_class_count:varint (class:str entry_count:varint (key:value oid)*)*
//!             skolem_counter_count:varint  (class:str  count:varint)*
//!             wal_seq:varint
//!             has_meta:u8  [fingerprint:u64le  completed:varint]
//! ```
//!
//! The trailing CRC-32 covers *everything* before it (magic and version
//! included), so a truncated or bit-flipped snapshot is always rejected at
//! load with an offset-carrying [`StorageError::Corrupt`]. Saves are atomic:
//! write to a `.tmp` sibling, sync, rename over the target, then sync the
//! directory — a crash mid-save leaves the previous snapshot untouched.

use std::fs;
use std::io::Write;
use std::path::Path;

use wol_model::{ClassName, Instance, Oid, SkolemState};

use crate::error::StorageError;
use crate::persist::codec::{self, ByteReader};
use crate::persist::fault::{FaultPolicy, FaultyFile};
use crate::Result;

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"WOLSNAP\0";

/// Current snapshot format version. Bump when any field layout changes; the
/// loader rejects versions it does not know.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Durable-pipeline progress carried inside a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineMeta {
    /// Fingerprint of the compiled program the journal belongs to; a
    /// mismatch on recovery means the program changed and the journal must
    /// be reset rather than resumed.
    pub fingerprint: u64,
    /// Number of leading queries whose effects the snapshot already holds.
    pub completed: u64,
}

/// A decoded snapshot: the restored instance and everything needed to resume
/// appending to its WAL.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotData {
    /// The restored instance (extents, values, and fresh-identity counters;
    /// index and histogram caches rebuild lazily).
    pub instance: Instance,
    /// The Skolem factory state at snapshot time.
    pub skolem: SkolemState,
    /// Sequence number the next WAL batch after this snapshot must carry.
    pub wal_seq: u64,
    /// Durable-pipeline progress, when the snapshot belongs to a journal.
    pub meta: Option<PipelineMeta>,
}

/// Encode a snapshot image.
pub fn encode_snapshot(
    instance: &Instance,
    skolem: &SkolemState,
    wal_seq: u64,
    meta: Option<PipelineMeta>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    codec::put_u32(&mut out, SNAPSHOT_VERSION);
    codec::put_str(&mut out, instance.schema_name());
    // Per-class object sections, in class order (BTreeMap-backed, so stable).
    let classes = instance.populated_classes();
    codec::put_varint(&mut out, classes.len() as u64);
    for class in &classes {
        codec::put_str(&mut out, class.as_str());
        codec::put_varint(&mut out, instance.extent_size(class) as u64);
        for (oid, value) in instance.objects(class) {
            codec::put_varint(&mut out, oid.id());
            codec::put_value(&mut out, value);
        }
    }
    // Fresh-identity counters (the full map, not just populated classes:
    // a class can be emptied by removals yet must keep minting fresh ids).
    let counters: Vec<_> = instance.oid_counters().collect();
    codec::put_varint(&mut out, counters.len() as u64);
    for (class, count) in counters {
        codec::put_str(&mut out, class.as_str());
        codec::put_varint(&mut out, count);
    }
    // Skolem memo table and counters.
    codec::put_varint(&mut out, skolem.assigned.len() as u64);
    for (class, entries) in &skolem.assigned {
        codec::put_str(&mut out, class.as_str());
        codec::put_varint(&mut out, entries.len() as u64);
        for (key, oid) in entries {
            codec::put_value(&mut out, key);
            codec::put_oid(&mut out, oid);
        }
    }
    codec::put_varint(&mut out, skolem.counters.len() as u64);
    for (class, count) in &skolem.counters {
        codec::put_str(&mut out, class.as_str());
        codec::put_varint(&mut out, *count);
    }
    codec::put_varint(&mut out, wal_seq);
    match meta {
        Some(meta) => {
            out.push(1);
            codec::put_u64(&mut out, meta.fingerprint);
            codec::put_varint(&mut out, meta.completed);
        }
        None => out.push(0),
    }
    let crc = codec::crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

/// Decode and verify a snapshot image.
pub fn decode_snapshot(bytes: &[u8], source: &str) -> Result<SnapshotData> {
    // Verify the whole-file checksum before decoding anything.
    let min_len = SNAPSHOT_MAGIC.len() + 8;
    let Some((covered, trailer)) = bytes
        .split_last_chunk::<4>()
        .filter(|_| bytes.len() >= min_len)
    else {
        return Err(StorageError::corrupt_at_offset(
            source,
            0,
            format!("a snapshot of at least {min_len} bytes"),
            format!("{} bytes", bytes.len()),
        ));
    };
    let stored = u32::from_le_bytes(*trailer);
    let actual = codec::crc32(covered);
    if stored != actual {
        return Err(StorageError::corrupt_at_offset(
            source,
            covered.len() as u64,
            format!("checksum {actual:#010x}"),
            format!("checksum {stored:#010x}"),
        ));
    }
    let mut r = ByteReader::new(covered, source);
    let magic = r.take(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(StorageError::corrupt_at_offset(
            source,
            0,
            "magic \"WOLSNAP\\0\"",
            format!("{magic:02x?}"),
        ));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::corrupt_at_offset(
            source,
            SNAPSHOT_MAGIC.len() as u64,
            format!("snapshot format version {SNAPSHOT_VERSION}"),
            format!("version {version}"),
        ));
    }
    let schema_name = r.str()?;
    let mut instance = Instance::new(schema_name);
    let class_count = r.varint()?;
    for _ in 0..class_count {
        let class = ClassName::new(r.str()?);
        instance.ensure_class(&class);
        let obj_count = r.varint()?;
        // Decode the whole class section first and insert it in one batch:
        // `bulk_insert` pays the cache-invalidation and extent lookup once
        // per class instead of once per object, which dominates load time
        // for large snapshots (see the e9 recovery benchmark). The count is
        // untrusted file input, so cap the preallocation.
        let mut objects = Vec::with_capacity(obj_count.min(65_536) as usize);
        for _ in 0..obj_count {
            let id = r.varint()?;
            let value = r.value()?;
            objects.push((Oid::new(class.clone(), id), value));
        }
        instance.bulk_insert(&class, objects).map_err(|e| {
            StorageError::corrupt_at_offset(
                source,
                r.pos() as u64,
                "distinct object identities",
                e.to_string(),
            )
        })?;
    }
    let counter_count = r.varint()?;
    for _ in 0..counter_count {
        let class = ClassName::new(r.str()?);
        let count = r.varint()?;
        instance.restore_oid_counter(&class, count);
    }
    let mut skolem = SkolemState::default();
    let skolem_class_count = r.varint()?;
    for _ in 0..skolem_class_count {
        let class = ClassName::new(r.str()?);
        let entry_count = r.varint()?;
        let entries = skolem.assigned.entry(class).or_default();
        for _ in 0..entry_count {
            let key = r.value()?;
            let oid = r.oid()?;
            entries.insert(key, oid);
        }
    }
    let skolem_counter_count = r.varint()?;
    for _ in 0..skolem_counter_count {
        let class = ClassName::new(r.str()?);
        let count = r.varint()?;
        skolem.counters.insert(class, count);
    }
    let wal_seq = r.varint()?;
    let meta = match r.u8()? {
        0 => None,
        1 => Some(PipelineMeta {
            fingerprint: r.u64()?,
            completed: r.varint()?,
        }),
        other => {
            return Err(r.corrupt("a meta flag of 0 or 1", format!("{other}")));
        }
    };
    if !r.is_at_end() {
        return Err(r.corrupt(
            "end of snapshot body",
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(SnapshotData {
        instance,
        skolem,
        wal_seq,
        meta,
    })
}

/// Atomically save a snapshot image to `path`: write a `.tmp` sibling
/// (through the fault shim, if a policy is given), sync it, rename it over
/// the target, then sync the directory so the rename itself is durable. On a
/// failure before the rename the previous snapshot at `path` is left
/// untouched.
pub fn save_snapshot_file(path: &Path, bytes: &[u8], fault: Option<FaultPolicy>) -> Result<()> {
    let display = path.display().to_string();
    let tmp = path.with_extension("tmp");
    let result = (|| -> std::io::Result<()> {
        let file = fs::File::create(&tmp)?;
        let mut sink = match fault {
            Some(policy) => FaultyFile::with_policy(file, policy),
            None => FaultyFile::new(file),
        };
        sink.write_all(bytes)?;
        sink.flush()?;
        sink.get_ref().sync_all()?;
        fs::rename(&tmp, path)?;
        super::sync_parent_dir(path)
    })();
    if let Err(e) = result {
        let _ = fs::remove_file(&tmp);
        return Err(StorageError::io(&display, e));
    }
    Ok(())
}

/// Load and verify the snapshot at `path`. `Ok(None)` when the file does not
/// exist (a fresh store); corruption is an error, never silently ignored.
pub fn load_snapshot_file(path: &Path) -> Result<Option<SnapshotData>> {
    let display = path.display().to_string();
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::io(&display, e)),
    };
    decode_snapshot(&bytes, &display).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::{SkolemFactory, Value};

    fn sample_instance() -> (Instance, SkolemFactory) {
        let mut instance = Instance::new("genome");
        let clone = ClassName::new("CloneT");
        let marker = ClassName::new("MarkerT");
        let mut skolem = SkolemFactory::new();
        for i in 0..5 {
            let key = Value::str(format!("c{i}"));
            let oid = skolem.mk(&clone, &key);
            instance
                .insert(
                    oid.clone(),
                    Value::record([
                        ("name", key),
                        ("length", Value::int(1000 + i)),
                        ("tags", Value::set([Value::str("seq"), Value::int(i)])),
                    ]),
                )
                .unwrap();
        }
        let m = skolem.mk(&marker, &Value::str("m0"));
        instance
            .insert(m, Value::record([("name", Value::str("m0"))]))
            .unwrap();
        // An emptied class still keeps its fresh-identity counter.
        let ghost = instance.insert_fresh(&ClassName::new("GhostT"), Value::Unit);
        instance.remove(&ghost);
        (instance, skolem)
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let (instance, skolem) = sample_instance();
        let meta = Some(PipelineMeta {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            completed: 3,
        });
        let bytes = encode_snapshot(&instance, &skolem.export_state(), 7, meta);
        let data = decode_snapshot(&bytes, "<t>").unwrap();
        assert_eq!(data.instance.deep_eq_report(&instance), None);
        assert_eq!(data.instance, instance);
        assert_eq!(data.skolem, skolem.export_state());
        assert_eq!(data.wal_seq, 7);
        assert_eq!(data.meta, meta);
        // Re-encoding the decoded state reproduces the same bytes.
        let restored = SkolemFactory::from_state(data.skolem.clone());
        assert_eq!(
            encode_snapshot(&data.instance, &restored.export_state(), 7, meta),
            bytes
        );
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let (instance, skolem) = sample_instance();
        let bytes = encode_snapshot(&instance, &skolem.export_state(), 0, None);
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut], "<t>").unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let (instance, skolem) = sample_instance();
        let bytes = encode_snapshot(&instance, &skolem.export_state(), 2, None);
        // Flip one bit in every byte (including the trailer itself).
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << (at % 8);
            assert!(decode_snapshot(&corrupt, "<t>").is_err(), "flip at {at}");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let (instance, skolem) = sample_instance();
        let mut bytes = encode_snapshot(&instance, &skolem.export_state(), 0, None);
        // Patch the version field and fix up the trailer checksum.
        bytes[8] = 99;
        let body_len = bytes.len() - 4;
        let crc = codec::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_snapshot(&bytes, "<t>").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn atomic_save_survives_a_crash_mid_write() {
        let dir = std::env::temp_dir().join(format!("wol-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");
        let (instance, skolem) = sample_instance();
        let first = encode_snapshot(&instance, &skolem.export_state(), 0, None);
        save_snapshot_file(&path, &first, None).unwrap();

        // A crash while writing the replacement leaves the original intact.
        let mut bigger = instance.clone();
        bigger.insert_fresh(
            &ClassName::new("CloneT"),
            Value::record([("name", Value::Unit)]),
        );
        let second = encode_snapshot(&bigger, &skolem.export_state(), 1, None);
        let err = save_snapshot_file(&path, &second, Some(FaultPolicy::torn_at(10)));
        assert!(err.is_err());
        let data = load_snapshot_file(&path).unwrap().unwrap();
        assert_eq!(data.instance.deep_eq_report(&instance), None);

        // A successful save replaces it.
        save_snapshot_file(&path, &second, None).unwrap();
        let data = load_snapshot_file(&path).unwrap().unwrap();
        assert_eq!(data.instance.deep_eq_report(&bigger), None);
        assert_eq!(load_snapshot_file(&dir.join("absent.snap")).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
