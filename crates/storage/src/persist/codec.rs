//! Binary codec shared by the WAL and snapshot formats.
//!
//! The encoding is deliberately simple and self-contained (no external
//! serialization crates): little-endian fixed-width integers, LEB128 varints
//! with zigzag for signed values, length-prefixed UTF-8 strings, and a
//! one-tag-byte-per-variant encoding of model [`Value`]s. Decoding goes
//! through [`ByteReader`], which tracks the byte offset so every failure
//! surfaces as a [`StorageError::Corrupt`] saying *where* the input went bad
//! and what was expected there — short reads are errors, never panics.
//!
//! Decoding is canonical: the writer emits record labels and set elements
//! strictly ascending, and the reader rejects anything else (a repeated
//! label, a descending one, a duplicate set element) as corrupt rather than
//! silently keeping one of the duplicates. Labels and class names go through
//! a `NameTable` keyed by their encoded bytes, so decoding takes the
//! process-wide interner once per distinct name, not once per field — nor,
//! with one table lent from record to record, once per WAL record.

use std::collections::{BTreeSet, HashMap};

use wol_model::{ClassName, Label, Oid, RealVal, Record, Value};

use crate::error::StorageError;
use crate::Result;

/// CRC-32 (IEEE 802.3 polynomial, reflected). Table built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The little-endian `u32` at `bytes[at..at + 4]`; `None` when the input ends
/// before it does.
pub fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let chunk = bytes.get(at..)?.first_chunk()?;
    Some(u32::from_le_bytes(*chunk))
}

/// Compute the CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writers (infallible; append to a Vec).
// ---------------------------------------------------------------------------

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append an object identity: class name then discriminator.
pub fn put_oid(out: &mut Vec<u8>, oid: &Oid) {
    put_str(out, oid.class().as_str());
    put_varint(out, oid.id());
}

// Value variant tags. New variants get new tags; existing tags are frozen —
// changing any of them requires bumping the enclosing format's version (see
// the crate-level "Durability" docs).
const TAG_UNIT: u8 = 0x00;
const TAG_ABSENT: u8 = 0x01;
const TAG_FALSE: u8 = 0x02;
const TAG_TRUE: u8 = 0x03;
const TAG_INT: u8 = 0x04;
const TAG_REAL: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_OID: u8 = 0x07;
const TAG_SET: u8 = 0x08;
const TAG_LIST: u8 = 0x09;
const TAG_RECORD: u8 = 0x0A;
const TAG_VARIANT: u8 = 0x0B;

/// Upper bound on value-tree nesting accepted by the decoder; a corrupt
/// length field must not be able to recurse the stack away.
const MAX_DEPTH: usize = 128;

/// Append a model value (all eleven variants, recursively).
pub fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Unit => out.push(TAG_UNIT),
        Value::Absent => out.push(TAG_ABSENT),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_i64(out, *i);
        }
        Value::Real(r) => {
            out.push(TAG_REAL);
            put_u64(out, r.get().to_bits());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Oid(oid) => {
            out.push(TAG_OID);
            put_oid(out, oid);
        }
        Value::Set(items) => {
            out.push(TAG_SET);
            put_varint(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            put_varint(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Record(fields) => {
            out.push(TAG_RECORD);
            put_varint(out, fields.len() as u64);
            for (label, field) in fields {
                put_str(out, label);
                put_value(out, field);
            }
        }
        Value::Variant(label, payload) => {
            out.push(TAG_VARIANT);
            put_str(out, label);
            put_value(out, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// The labels and class names a decoder has met, keyed by their encoded
/// bytes in the input: each distinct name is interned once per table. A
/// reader owns one; [`ByteReader::with_names`] and
/// [`ByteReader::into_names`] pass it on to the reader of the next slice of
/// the same input.
#[derive(Debug, Default)]
pub(crate) struct NameTable<'a> {
    labels: HashMap<&'a [u8], Label>,
    classes: HashMap<&'a [u8], ClassName>,
}

/// A position-tracking reader over a byte slice. Every decoding failure is a
/// [`StorageError::Corrupt`] carrying the source label, the byte offset at
/// which the failure was detected, and expected-vs-found context.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    source: String,
    names: NameTable<'a>,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, attributing errors to `source`.
    pub fn new(bytes: &'a [u8], source: &str) -> Self {
        Self::with_names(bytes, source, NameTable::default())
    }

    /// A reader over `bytes` that starts from the names another reader of
    /// the same input has met.
    pub(crate) fn with_names(bytes: &'a [u8], source: &str, names: NameTable<'a>) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            source: source.to_string(),
            names,
        }
    }

    /// The names this reader has met, for the next reader of the input.
    pub(crate) fn into_names(self) -> NameTable<'a> {
        self.names
    }

    /// Current byte offset from the start of the input.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Build a corrupt-input error at the current offset.
    pub(crate) fn corrupt(
        &self,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> StorageError {
        StorageError::corrupt_at_offset(&self.source, self.pos as u64, expected, found)
    }

    fn short_read(&self, n: usize) -> StorageError {
        self.corrupt(
            format!("{n} more bytes"),
            format!("only {} remaining", self.remaining()),
        )
    }

    /// Consume exactly `n` bytes; a short read is a corrupt-input error.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        let slice = rest.get(..n).ok_or_else(|| self.short_read(n))?;
        self.pos += n;
        Ok(slice)
    }

    /// Consume exactly `N` bytes as a fixed-size array; a short read is the
    /// same corrupt-input error [`take`](Self::take) reports.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let rest = &self.bytes[self.pos..];
        let chunk = rest.first_chunk().ok_or_else(|| self.short_read(N))?;
        self.pos += N;
        Ok(*chunk)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(self.corrupt("a varint of at most 64 bits", "an overlong varint"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-encoded signed varint.
    pub(crate) fn i64(&mut self) -> Result<i64> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a length-prefixed string's bytes, not yet checked as UTF-8.
    fn str_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(self.corrupt(
                format!("a {len}-byte string"),
                format!("only {} bytes remaining", self.remaining()),
            ));
        }
        self.take(len as usize)
    }

    /// Check `bytes`, just read, as UTF-8.
    fn utf8(&self, bytes: &'a [u8]) -> Result<&'a str> {
        std::str::from_utf8(bytes)
            .map_err(|_| self.corrupt("valid UTF-8 string data", "invalid UTF-8"))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.str_bytes()?;
        self.utf8(bytes).map(str::to_string)
    }

    /// Read a label: a length-prefixed UTF-8 string, interned on first sight.
    fn label(&mut self) -> Result<Label> {
        let bytes = self.str_bytes()?;
        if let Some(label) = self.names.labels.get(bytes) {
            return Ok(label.clone());
        }
        let label = Label::new(self.utf8(bytes)?);
        self.names.labels.insert(bytes, label.clone());
        Ok(label)
    }

    /// Read a class name: a length-prefixed UTF-8 string, interned on first
    /// sight.
    pub(crate) fn class_name(&mut self) -> Result<ClassName> {
        let bytes = self.str_bytes()?;
        if let Some(class) = self.names.classes.get(bytes) {
            return Ok(class.clone());
        }
        let class = ClassName::new(self.utf8(bytes)?);
        self.names.classes.insert(bytes, class.clone());
        Ok(class)
    }

    /// Read an object identity: class name, then discriminator.
    pub fn oid(&mut self) -> Result<Oid> {
        let class = self.class_name()?;
        let id = self.varint()?;
        Ok(Oid::new(class, id))
    }

    /// Read a model value.
    pub(crate) fn value(&mut self) -> Result<Value> {
        self.value_at_depth(0)
    }

    fn value_at_depth(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.corrupt(
                format!("a value nested at most {MAX_DEPTH} deep"),
                "deeper nesting (corrupt length field?)",
            ));
        }
        let tag = self.u8()?;
        Ok(match tag {
            TAG_UNIT => Value::Unit,
            TAG_ABSENT => Value::Absent,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(self.i64()?),
            TAG_REAL => Value::Real(RealVal(f64::from_bits(self.u64()?))),
            TAG_STR => Value::Str(self.str()?),
            TAG_OID => Value::Oid(self.oid()?),
            TAG_SET => {
                let len = self.varint()?;
                let mut items = Vec::new();
                for _ in 0..len {
                    let item = self.value_at_depth(depth + 1)?;
                    if items.last().is_some_and(|last| *last >= item) {
                        return Err(self.corrupt(
                            "set elements in strictly ascending order",
                            "a duplicate or descending element",
                        ));
                    }
                    items.push(item);
                }
                Value::Set(items.into_iter().collect::<BTreeSet<_>>())
            }
            TAG_LIST => {
                let len = self.varint()?;
                let mut items = Vec::new();
                for _ in 0..len {
                    items.push(self.value_at_depth(depth + 1)?);
                }
                Value::List(items)
            }
            TAG_RECORD => {
                let len = self.varint()?;
                // Every field takes at least two bytes: a length prefix
                // cannot size the allocation past the input.
                let cap = usize::try_from(len).map_or(0, |n| n.min(self.remaining() / 2));
                let mut fields: Vec<(Label, Value)> = Vec::with_capacity(cap);
                for _ in 0..len {
                    let label = self.label()?;
                    if let Some((last, _)) = fields.last().filter(|(last, _)| *last >= label) {
                        return Err(self.corrupt(
                            "record labels in strictly ascending order",
                            format!("label `{label}` after `{last}`"),
                        ));
                    }
                    fields.push((label, self.value_at_depth(depth + 1)?));
                }
                Value::Record(Record::from_sorted(fields))
            }
            TAG_VARIANT => {
                let label = self.label()?;
                Value::Variant(label, Box::new(self.value_at_depth(depth + 1)?))
            }
            other => {
                return Err(self.corrupt("a value tag in 0x00..=0x0B", format!("tag {other:#04x}")));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Value) -> Value {
        let mut bytes = Vec::new();
        put_value(&mut bytes, value);
        let mut reader = ByteReader::new(&bytes, "<test>");
        let decoded = reader.value().unwrap();
        assert!(reader.is_at_end(), "trailing bytes after {value:?}");
        decoded
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn varints_round_trip_across_magnitudes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(ByteReader::new(&bytes, "<t>").varint().unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut bytes = Vec::new();
            put_i64(&mut bytes, v);
            assert_eq!(ByteReader::new(&bytes, "<t>").i64().unwrap(), v);
        }
    }

    #[test]
    fn all_value_variants_round_trip() {
        let oid = Oid::new(ClassName::new("CityT"), 7);
        let values = vec![
            Value::Unit,
            Value::Absent,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::real(3.25),
            Value::str("Paris"),
            Value::str(""),
            Value::Oid(oid.clone()),
            Value::set([Value::int(1), Value::int(2)]),
            Value::list([Value::str("a"), Value::Unit, Value::Oid(oid.clone())]),
            Value::record([
                ("name", Value::str("Paris")),
                ("country", Value::Oid(oid)),
                ("tags", Value::set([Value::str("capital")])),
            ]),
            Value::variant("state", Value::str("PA")),
            Value::variant("none", Value::Unit),
        ];
        for value in &values {
            assert_eq!(&round_trip(value), value);
        }
        // One deeply mixed nesting.
        let nested = Value::record([(
            "outer",
            Value::list([Value::set([Value::variant(
                "alt",
                Value::record([("inner", Value::real(-0.5))]),
            )])]),
        )]);
        assert_eq!(round_trip(&nested), nested);
    }

    #[test]
    fn short_reads_error_with_offset_context() {
        let mut bytes = Vec::new();
        put_value(&mut bytes, &Value::str("Paris"));
        for cut in 0..bytes.len() {
            let mut reader = ByteReader::new(&bytes[..cut], "<t>");
            let err = reader.value().unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn unknown_tag_and_bad_utf8_rejected() {
        let err = ByteReader::new(&[0xFF], "<t>").value().unwrap_err();
        assert!(err.to_string().contains("0xff"), "{err}");
        // TAG_STR, length 1, invalid UTF-8 byte.
        let err = ByteReader::new(&[TAG_STR, 1, 0xC0], "<t>")
            .value()
            .unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        // Overlong varint.
        let overlong = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F];
        let err = ByteReader::new(&overlong, "<t>").varint().unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn non_canonical_records_and_sets_are_corrupt() {
        let decode = |bytes: &[u8]| ByteReader::new(bytes, "<t>").value();
        // Labels strictly ascending: the only shape the writer emits.
        let ascending = [TAG_RECORD, 2, 1, b'a', TAG_INT, 2, 1, b'b', TAG_INT, 4];
        let value = decode(&ascending).unwrap();
        assert_eq!(
            value,
            Value::record([("a", Value::int(1)), ("b", Value::int(2))])
        );
        let mut encoded = Vec::new();
        put_value(&mut encoded, &value);
        assert_eq!(encoded, ascending);
        let cases: [(&str, &[u8], &str); 3] = [
            (
                "duplicate label",
                &[TAG_RECORD, 2, 1, b'a', TAG_INT, 2, 1, b'a', TAG_INT, 4],
                "label `a` after `a`",
            ),
            (
                "descending label",
                &[TAG_RECORD, 2, 1, b'b', TAG_INT, 2, 1, b'a', TAG_INT, 4],
                "label `a` after `b`",
            ),
            (
                "duplicate set element",
                &[TAG_SET, 2, TAG_INT, 2, TAG_INT, 2],
                "a duplicate or descending element",
            ),
        ];
        for (name, bytes, found) in cases {
            let err = decode(bytes).unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "{name}: {err:?}"
            );
            assert!(err.to_string().contains(found), "{name}: {err}");
            assert!(
                err.to_string().contains("strictly ascending"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            bytes.push(TAG_LIST);
            bytes.push(1);
        }
        bytes.push(TAG_UNIT);
        let err = ByteReader::new(&bytes, "<t>").value().unwrap_err();
        assert!(err.to_string().contains("nested"), "{err}");
    }
}
