//! Fault injection for the persistence layer.
//!
//! [`FaultyFile`] wraps any writer and simulates a crash or media fault at a
//! configured byte offset: the write fails outright, tears mid-buffer, or
//! silently flips a bit. It is threaded through the WAL and snapshot writers
//! (which are generic over their sink), so the crash-matrix tests exercise the
//! *real* encode-and-append paths rather than a mock. Read-side corruption is
//! simpler — recovery reads whole files into memory — so it is modelled by
//! the [`flip_byte`] / [`short_read`] helpers applied to the raw bytes.

use std::io::{self, Write};

/// What goes wrong when the configured offset is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The write call that would reach the offset fails without writing any
    /// of its buffer — a crash at a write boundary.
    FailWrite,
    /// The write call lands the prefix of its buffer up to the offset, then
    /// fails — a torn write (crash mid-`write`, partial sector).
    TornWrite,
    /// The byte at the offset is written with `mask` XORed in and the write
    /// otherwise succeeds — silent media corruption the checksum must catch.
    BitFlip {
        /// Which bits to flip.
        mask: u8,
    },
}

/// A fault to inject: the kind and the absolute byte offset (counted over all
/// bytes written through the shim) at which it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPolicy {
    /// The failure mode.
    pub kind: FaultKind,
    /// Absolute byte offset at which the fault triggers.
    pub at: u64,
}

impl FaultPolicy {
    /// Fail the write reaching byte `at` without writing anything.
    pub fn fail_at(at: u64) -> Self {
        FaultPolicy {
            kind: FaultKind::FailWrite,
            at,
        }
    }

    /// Tear the write reaching byte `at`: bytes before `at` land, the rest
    /// (and everything after) is lost.
    pub fn torn_at(at: u64) -> Self {
        FaultPolicy {
            kind: FaultKind::TornWrite,
            at,
        }
    }

    /// Flip `mask`'s bits in the byte written at offset `at`.
    pub fn flip_at(at: u64, mask: u8) -> Self {
        FaultPolicy {
            kind: FaultKind::BitFlip { mask },
            at,
        }
    }
}

/// A write shim injecting one configured fault (see [`FaultPolicy`]). After a
/// `FailWrite`/`TornWrite` fires, every subsequent write fails too — the
/// "process" that held the file has crashed.
#[derive(Debug)]
pub struct FaultyFile<W> {
    inner: W,
    written: u64,
    policy: Option<FaultPolicy>,
    dead: bool,
}

impl<W> FaultyFile<W> {
    /// Wrap `inner` with no fault configured (fully transparent).
    pub fn new(inner: W) -> Self {
        FaultyFile {
            inner,
            written: 0,
            policy: None,
            dead: false,
        }
    }

    /// Wrap `inner` with a fault policy installed.
    pub fn with_policy(inner: W, policy: FaultPolicy) -> Self {
        FaultyFile {
            inner,
            written: 0,
            policy: Some(policy),
            dead: false,
        }
    }

    /// Total bytes successfully written through the shim so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The inner writer.
    pub fn get_ref(&self) -> &W {
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
            Some(FaultPolicy { kind, at }) if self.written <= at && at < end => match kind {
                FaultKind::FailWrite => {
                    self.dead = true;
                    Err(Self::crashed())
                }
                FaultKind::TornWrite => {
                    let keep = (at - self.written) as usize;
                    self.inner.write_all(&buf[..keep])?;
                    self.written += keep as u64;
                    self.dead = true;
                    Err(Self::crashed())
                }
                FaultKind::BitFlip { mask } => {
                    let mut corrupted = buf.to_vec();
                    corrupted[(at - self.written) as usize] ^= mask;
                    self.inner.write_all(&corrupted)?;
                    self.written = end;
                    self.policy = None;
                    Ok(buf.len())
                }
            },
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
        assert_eq!(f.written(), 11);
        assert_eq!(f.into_inner(), b"hello world");
    }

    #[test]
    fn fail_write_drops_the_whole_call_and_kills_the_file() {
        let mut f = FaultyFile::with_policy(Vec::new(), FaultPolicy::fail_at(8));
        f.write_all(b"12345678").unwrap(); // bytes 0..8: before the fault
        assert!(f.write_all(b"abcd").is_err()); // would cover byte 8
        assert!(f.write_all(b"more").is_err()); // dead after the crash
        assert!(f.flush().is_err());
        assert_eq!(f.written(), 8);
        assert_eq!(f.into_inner(), b"12345678");
    }

    #[test]
    fn torn_write_lands_the_prefix() {
        let mut f = FaultyFile::with_policy(Vec::new(), FaultPolicy::torn_at(6));
        assert!(f.write_all(b"12345678").is_err());
        assert_eq!(f.written(), 6);
        assert_eq!(f.into_inner(), b"123456");
    }

    #[test]
    fn bit_flip_corrupts_silently_and_once() {
        let mut f = FaultyFile::with_policy(Vec::new(), FaultPolicy::flip_at(2, 0x01));
        f.write_all(b"aaaa").unwrap();
        f.write_all(b"aa").unwrap();
        assert_eq!(f.written(), 6);
        assert_eq!(f.into_inner(), b"aa\x60aaa");
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
