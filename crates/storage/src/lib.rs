//! # storage
//!
//! Heterogeneous storage substrates for the WOL reproduction.
//!
//! The paper's trials move data between a **Sybase relational database**
//! (Chr22DB) and an **ACeDB tree database** (ACe22DB) at the Sanger Centre,
//! "which use incompatible data-models as well as different interpretations of
//! the underlying data" (Section 6). Neither system is available here, so this
//! crate provides the closest synthetic equivalents that exercise the same
//! code paths:
//!
//! * [`relational`] — a flat table store (named columns, rows of base values)
//!   with an adapter that loads tables into model [`Instance`]s and dumps
//!   class extents back out to tables;
//! * [`acedb`] — an ACeDB-like store of *tagged trees* ("tree-like structures
//!   with object identities ... well suited for representing sparsely
//!   populated data") with an importer that maps trees onto model instances
//!   with optional attributes, plus a parser for a simplified `.ace` dump
//!   format;
//! * [`csv`] — a minimal line-oriented import/export format for flat classes,
//!   standing in for the "uploading certain file formats" use case of the
//!   introduction;
//! * [`persist`] — crash-consistent durability for instances: a write-ahead
//!   log, checksummed snapshots, recovery, and fault injection;
//! * [`provider`] — the [`provider::ScanProvider`] trait turning each of the
//!   above into a planner-visible *source* with pushdown (see below).
//!
//! Every loader reports malformed input as a structured
//! [`StorageError::Corrupt`] carrying the source path, the line or byte
//! offset, and expected-vs-found context — short or truncated reads are
//! errors, never panics.
//!
//! # Durability
//!
//! The [`persist`] module holds **one** durable store,
//! [`PipelineJournal`]: an instance kept as a **snapshot** (`pipeline.snap`)
//! plus a **write-ahead log** (`pipeline.wal`) under one directory, bound to
//! one program by a fingerprint. The caller mutates its instance and commits;
//! each commit appends one batch — fingerprint, the mutations, the Skolem
//! assignments and fresh-identity counters that moved, a progress marker —
//! and syncs it. A Skolem identity is derived from its key, so the journal
//! keeps no Skolem counter; it journals the memo so a recovered run detects
//! an identity collision against pre-crash identities exactly as an
//! uncrashed run would. Recovery loads the snapshot, replays every intact
//! committed WAL batch, and discards the torn tail. This realises the paper's
//! consistent-update-set semantics on disk: a recovered instance is always
//! the result of a *prefix of whole update batches*, never a torn one.
//!
//! A **checkpoint** folds the log into the snapshot in two steps: rename a
//! fully written and synced new snapshot over the old one and sync the
//! directory, then truncate the log. A crash *between* the steps leaves the
//! new snapshot (`wal_seq = N`) beside the old log, whose batches are all
//! numbered below `N`. Such a log is **superseded**, not torn: the snapshot
//! already holds every one of its batches, so recovery skips them, reports
//! how many ([`RecoveryReport::superseded_batches`], `torn_tail: None`) and
//! truncates the log as the interrupted checkpoint would have.
//!
//! ## WAL layout (`pipeline.wal`)
//!
//! A WAL is a flat sequence of records; every integer is little-endian and
//! `varint` is LEB128 (zigzag for signed):
//!
//! ```text
//! record  := len:u32  crc:u32  payload         crc = CRC-32 (IEEE) of payload
//! payload := tag:u8   body
//!
//! tag 0x01 Insert        oid value             object inserted
//! tag 0x02 Update        oid value             object's value replaced
//! tag 0x03 Remove        oid                   object removed
//! tag 0x04 SkolemAssign  class:str key:value oid   Mk_class(key) = oid
//! tag 0x05 OidCounter    class:str n:varint    fresh-id counter advanced
//! tag 0x06 QueryDone     index:varint          pipeline query applied
//! tag 0x07 Fingerprint   fp:u64                journal's program fingerprint
//! tag 0x08 Commit        seq:varint            closes a batch
//!
//! oid     := class:str  id:varint
//! str     := len:varint  utf8-bytes
//! value   := one tag byte (0x00..=0x0B) + body, see `persist::codec`
//! ```
//!
//! Records between commit markers form a **batch**; `seq` numbers batches
//! consecutively starting from the snapshot's `wal_seq` (leading batches
//! numbered below it are superseded, see above). Replay stops at the first
//! truncated header or body, checksum mismatch, undecodable payload,
//! out-of-order commit, or uncommitted tail — everything before that point
//! is applied, everything after is truncated away.
//!
//! ## Snapshot layout (`pipeline.snap`)
//!
//! ```text
//! snapshot := magic:"WOLSNAP\0"  version:u32  body  crc:u32
//! body     := schema_name:str
//!             class_count:varint ( class:str n:varint (id:varint value)* )*
//!             oid_counter_count:varint   ( class:str count:varint )*
//!             skolem_class_count:varint  ( class:str k:varint (key:value oid)* )*
//!             skolem_counter_count:varint ( class:str count:varint )*   written empty, read and ignored
//!             wal_seq:varint
//!             has_meta:u8  [ fingerprint:u64  completed:varint ]
//! ```
//!
//! The trailing CRC-32 covers every preceding byte (magic and version
//! included). Saves are atomic (write `.tmp`, sync, rename, sync the
//! directory), so a crash mid-save leaves the previous snapshot intact.
//!
//! ## Version-bump rules
//!
//! * Value tags (0x00..=0x0B), WAL record tags (0x01..=0x08), and every
//!   field layout above are **frozen** for format version 1.
//! * Adding a new WAL record tag or value tag, reordering fields, or
//!   changing any width requires bumping [`persist::SNAPSHOT_VERSION`] (the
//!   WAL shares the snapshot's version: a snapshot at version *v* is only
//!   ever paired with a WAL written by the same code).
//! * Loaders must reject versions they do not know rather than guess.
//!
//! # Backends as sources
//!
//! The [`provider`] module exposes each substrate as a [`provider::ScanProvider`]
//! the CPL planner can push filters and projections into, instead of a blob the
//! pipeline must fully materialize before planning. The contract every
//! implementation (and every future backend) must honour:
//!
//! * **Determinism** — for a fixed backend state and pushdown, a scan yields
//!   the same rows in the same backend-native order on every call (file order,
//!   store order, row order — never hash order), and chunk boundaries fall
//!   every `chunk_rows` surviving rows without reordering. Streaming ingest
//!   therefore produces extents, attribute indexes and histograms
//!   bit-identical to a bulk load of the same filtered row set.
//! * **Chunk ordering** — the sink sees chunks in stream order; concatenating
//!   them reproduces the unchunked stream exactly. Chunking is a memory
//!   knob, never a semantic one.
//! * **Stats freshness** — [`provider::ScanProvider::stats`] describes the
//!   *unfiltered* stream the next scan call would produce. A provider over a
//!   mutable backend must recompute or invalidate its statistics on mutation;
//!   stale statistics may only mis-cost a plan, never change its result.
//! * **Residual predicates** — a backend evaluates exactly the conjuncts it
//!   was handed, with the executor's comparison semantics
//!   ([`provider::PushedFilter::matches`]); every conjunct the planner did
//!   *not* push (multi-variable joins, computed expressions) remains a
//!   residual obligation of the executor. Projection, when requested, must be
//!   applied identically whether or not filters are pushed — the
//!   pushdown-on/off differential relies on it.
//!
//! [`Instance`]: wol_model::Instance

// Library code reports; it does not panic. Malformed files, short reads and
// "impossible" states are `StorageError`s — enforced here so it stays true.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![forbid(unsafe_code)]

pub mod acedb;
pub mod csv;
pub mod error;
pub mod persist;
pub mod provider;
pub mod relational;

pub use acedb::{AceObject, AceStore, AceValue};
pub use error::StorageError;
pub use persist::{FaultKind, FaultPolicy, PipelineJournal, RecoveryReport};
pub use provider::{
    ingest_class, AceProvider, ClassStats, CsvDirProvider, IngestStats, PushOp, Pushdown,
    PushedFilter, RelationalProvider, ScanProvider, ScanSummary, DEFAULT_CHUNK_ROWS,
};
pub use relational::{Column, ColumnType, Table, TableSchema};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
