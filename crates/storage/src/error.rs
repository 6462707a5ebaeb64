//! Errors raised by the storage adapters and the persistence layer.

use std::fmt;

/// Errors from loading or dumping data through the storage substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A row has the wrong number of values or a value of the wrong type.
    BadRow(String),
    /// A referenced table, column or object does not exist.
    Missing(String),
    /// A foreign-key-style reference could not be resolved while importing.
    UnresolvedReference(String),
    /// An error bubbled up from the data model.
    Model(String),
    /// Truncated or malformed input, with position context: where the bytes
    /// came from, how far in the failure was detected, and what was expected
    /// versus actually found there. Raised by the text loaders (CSV, ACeDB,
    /// relational) and by the binary WAL/snapshot decoders.
    Corrupt {
        /// The source of the bytes: a file path, or a pseudo-path such as
        /// `"<memory>"` for in-memory input.
        path: String,
        /// 1-based line number, for line-oriented text formats.
        line: Option<usize>,
        /// Byte offset from the start of the input, for binary formats.
        offset: Option<u64>,
        /// What a well-formed input would have contained here.
        expected: String,
        /// What was actually found.
        found: String,
    },
    /// An I/O failure, wrapped with the path being accessed.
    Io {
        /// The path the failing operation was addressing.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl StorageError {
    /// Construct a [`StorageError::Corrupt`] for line-oriented text input.
    pub(crate) fn corrupt_at_line(
        path: impl Into<String>,
        line: usize,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> Self {
        StorageError::Corrupt {
            path: path.into(),
            line: Some(line),
            offset: None,
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Construct a [`StorageError::Corrupt`] for binary input.
    pub(crate) fn corrupt_at_offset(
        path: impl Into<String>,
        offset: u64,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> Self {
        StorageError::Corrupt {
            path: path.into(),
            line: None,
            offset: Some(offset),
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Wrap an I/O error with the path it was addressing.
    pub fn io(path: impl Into<String>, err: std::io::Error) -> Self {
        StorageError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BadRow(m) => write!(f, "bad row: {m}"),
            StorageError::Missing(m) => write!(f, "missing: {m}"),
            StorageError::UnresolvedReference(m) => write!(f, "unresolved reference: {m}"),
            StorageError::Model(m) => write!(f, "data model error: {m}"),
            StorageError::Corrupt {
                path,
                line,
                offset,
                expected,
                found,
            } => {
                write!(f, "{path}: corrupt input")?;
                if let Some(line) = line {
                    write!(f, " at line {line}")?;
                }
                if let Some(offset) = offset {
                    write!(f, " at byte {offset}")?;
                }
                write!(f, ": expected {expected}, found {found}")
            }
            StorageError::Io { path, message } => write!(f, "{path}: i/o error: {message}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<wol_model::ModelError> for StorageError {
    fn from(e: wol_model::ModelError) -> Self {
        StorageError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(StorageError::BadRow("x".into())
            .to_string()
            .contains("bad row"));
        let e: StorageError = wol_model::ModelError::Invalid("z".into()).into();
        assert!(matches!(e, StorageError::Model(_)));
    }

    #[test]
    fn corrupt_errors_carry_position_context() {
        let line = StorageError::corrupt_at_line("data.csv", 3, "4 fields", "2 fields");
        assert_eq!(
            line.to_string(),
            "data.csv: corrupt input at line 3: expected 4 fields, found 2 fields"
        );
        let byte = StorageError::corrupt_at_offset("wal.log", 128, "8-byte header", "5 bytes");
        assert_eq!(
            byte.to_string(),
            "wal.log: corrupt input at byte 128: expected 8-byte header, found 5 bytes"
        );
    }

    #[test]
    fn io_errors_carry_the_path() {
        let e = StorageError::io(
            "/tmp/wal.log",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let rendered = e.to_string();
        assert!(rendered.contains("/tmp/wal.log"), "{rendered}");
        assert!(rendered.contains("gone"), "{rendered}");
    }
}
