//! Fault injection for the persistence layer.
//!
//! `FaultyFile` wraps any writer and simulates a crash at a configured byte
//! offset: the write reaching it lands only the bytes before the offset, then
//! fails. It is threaded through the WAL and snapshot writers (which are
//! generic over their sink), so the crash-matrix tests exercise the *real*
//! encode-and-append paths rather than a mock. Silent corruption is a
//! read-side fault — recovery reads whole files into memory — so it is
//! modelled by the [`flip_byte`] / [`short_read`] helpers applied to the raw
//! bytes.

use std::io::{self, Write};

/// A crash to inject: the write reaching byte `at` (counted over all bytes
/// written through the shim) lands the bytes before `at`, and it and every
/// later write fail — a torn write (crash mid-`write`, partial sector), or a
/// crash at a write boundary when `at` is where a write starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Absolute byte offset at which the fault triggers.
    pub at: u64,
}

impl FaultPolicy {
    /// Tear the write reaching byte `at`: bytes before `at` land, the rest
    /// (and everything after) is lost.
    pub fn torn_at(at: u64) -> Self {
        FaultPolicy { at }
    }
}

/// A write shim injecting one configured fault (see [`FaultPolicy`]). After
/// the fault fires, every subsequent write fails too — the "process" that
/// held the file has crashed.
#[derive(Debug)]
pub(crate) struct FaultyFile<W> {
    inner: W,
    written: u64,
    policy: Option<FaultPolicy>,
    dead: bool,
}

impl<W> FaultyFile<W> {
    /// Wrap `inner` with no fault configured (fully transparent).
    pub(crate) fn new(inner: W) -> Self {
        FaultyFile {
            inner,
            written: 0,
            policy: None,
            dead: false,
        }
    }

    /// Wrap `inner` with a fault policy installed.
    pub(crate) fn with_policy(inner: W, policy: FaultPolicy) -> Self {
        FaultyFile {
            inner,
            written: 0,
            policy: Some(policy),
            dead: false,
        }
    }

    /// The inner writer.
    pub(crate) fn get_ref(&self) -> &W {
        &self.inner
    }

    fn crashed() -> io::Error {
        io::Error::other("injected fault: simulated crash")
    }
}

impl<W: Write> Write for FaultyFile<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::crashed());
        }
        let end = self.written + buf.len() as u64;
        match self.policy {
            Some(FaultPolicy { at }) if self.written <= at && at < end => {
                let keep = (at - self.written) as usize;
                self.inner.write_all(&buf[..keep])?;
                self.written += keep as u64;
                self.dead = true;
                Err(Self::crashed())
            }
            _ => {
                self.inner.write_all(buf)?;
                self.written = end;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::crashed());
        }
        self.inner.flush()
    }
}

/// Flip `mask`'s bits in the byte at `at` of an in-memory image — read-side
/// silent corruption for recovery tests.
pub fn flip_byte(bytes: &mut [u8], at: usize, mask: u8) {
    bytes[at] ^= mask;
}

/// The prefix of `bytes` a short read of `len` bytes would return.
pub fn short_read(bytes: &[u8], len: usize) -> &[u8] {
    &bytes[..len.min(bytes.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_without_policy() {
        let mut f = FaultyFile::new(Vec::new());
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.flush().unwrap();
        assert_eq!(f.written, 11);
        assert_eq!(f.inner, b"hello world");
    }

    #[test]
    fn a_fault_at_a_write_boundary_drops_the_whole_call_and_kills_the_file() {
        let mut f = FaultyFile::with_policy(Vec::new(), FaultPolicy::torn_at(8));
        f.write_all(b"12345678").unwrap(); // bytes 0..8: before the fault
        assert!(f.write_all(b"abcd").is_err()); // would cover byte 8
        assert!(f.write_all(b"more").is_err()); // dead after the crash
        assert!(f.flush().is_err());
        assert_eq!(f.written, 8);
        assert_eq!(f.inner, b"12345678");
    }

    #[test]
    fn torn_write_lands_the_prefix() {
        let mut f = FaultyFile::with_policy(Vec::new(), FaultPolicy::torn_at(6));
        assert!(f.write_all(b"12345678").is_err());
        assert_eq!(f.written, 6);
        assert_eq!(f.inner, b"123456");
    }

    #[test]
    fn read_side_helpers() {
        let mut bytes = vec![0u8, 0, 0];
        flip_byte(&mut bytes, 1, 0x80);
        assert_eq!(bytes, [0, 0x80, 0]);
        assert_eq!(short_read(&bytes, 2), &bytes[..2]);
        assert_eq!(short_read(&bytes, 99), &bytes[..]);
    }
}
