//! One specified 64-bit hash.
//!
//! Skolem identities ([`crate::keys::skolem_id`]) and journal fingerprints
//! are persisted, so the hash behind them must mean the same thing on every
//! build and every Rust release: FNV-1a (64-bit) over bytes written into it
//! explicitly — never `DefaultHasher` or a derived `Hash`, neither of which is
//! specified across releases.

use crate::values::Value;

/// FNV-1a (64-bit) over the bytes written into it.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

// Value variant tags of the canonical walk: the persistence codec's tags.
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

impl Fingerprint {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    /// Hash raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Hash one field, then a separator so concatenation ambiguities don't
    /// collide.
    pub fn eat(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0xFF]);
    }

    /// Hash a length-prefixed string (the length as a little-endian `u64`).
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.write(s.as_bytes());
    }

    fn len(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    /// Hash a value by its canonical byte walk: one tag byte per variant
    /// followed by the payload — integers, reals and identity discriminators
    /// as little-endian `u64`s, strings, labels and class names
    /// length-prefixed, collections prefixed by their element count and
    /// walked in their canonical order. No allocation.
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Unit => self.write(&[TAG_UNIT]),
            Value::Absent => self.write(&[TAG_ABSENT]),
            Value::Bool(false) => self.write(&[TAG_FALSE]),
            Value::Bool(true) => self.write(&[TAG_TRUE]),
            Value::Int(i) => {
                self.write(&[TAG_INT]);
                self.write(&i.to_le_bytes());
            }
            Value::Real(r) => {
                self.write(&[TAG_REAL]);
                self.write(&r.get().to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.write(&[TAG_STR]);
                self.str(s);
            }
            Value::Oid(oid) => {
                self.write(&[TAG_OID]);
                self.str(oid.class().as_str());
                self.write(&oid.id().to_le_bytes());
            }
            Value::Set(items) => {
                self.write(&[TAG_SET]);
                self.len(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::List(items) => {
                self.write(&[TAG_LIST]);
                self.len(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::Record(fields) => {
                self.write(&[TAG_RECORD]);
                self.len(fields.len());
                for (label, field) in fields {
                    self.str(label);
                    self.value(field);
                }
            }
            Value::Variant(label, payload) => {
                self.write(&[TAG_VARIANT]);
                self.str(label);
                self.value(payload);
            }
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors: the hash is the specified one.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fingerprint::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(hash(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash(b"foobar"), 0x8594_4171_F739_67E8);
    }

    /// A field is its bytes then `0xFF`, so `eat` is `write` plus separator.
    #[test]
    fn eat_separates_fields() {
        let (mut a, mut b) = (Fingerprint::new(), Fingerprint::new());
        a.eat(b"ab");
        a.eat(b"c");
        b.eat(b"a");
        b.eat(b"bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write(b"ab\xFFc\xFF");
        assert_eq!(a.finish(), c.finish());
    }
}
