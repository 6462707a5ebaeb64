//! # wol-model
//!
//! The complex-object data model underlying the WOL transformation language
//! (Davidson & Kosky, *WOL: A Language for Database Transformations and
//! Constraints*, ICDE 1997, Section 2).
//!
//! The model provides:
//!
//! * **Types** ([`Type`]): base types, class types, set types, record types,
//!   variant types, lists and optional fields, nested arbitrarily deep.
//! * **Values** ([`Value`]): structural values of those types, including opaque
//!   object identities ([`Oid`]).
//! * **Schemas** ([`Schema`]): a finite set of classes together with the type of
//!   the value associated with each class.
//! * **Instances** ([`Instance`]): finite extents of object identities per class
//!   plus a mapping from each identity to its value.
//! * **Surrogate keys** ([`KeySpec`], [`KeyExpr`]): value-based handles on object
//!   identities, and the Skolem factory ([`SkolemFactory`]) realising the
//!   paper's `Mk_C` functions: an identity is derived from its class and key
//!   by one specified hash ([`Fingerprint`], [`skolem_id`]).
//!
//! ## Storage layout
//!
//! An [`Instance`] stores its objects row-major — `Oid → Value` — because
//! mutation, validation and the API boundary all speak whole complex values.
//! The rows of a class sit in one persistent, chunked, identity-ordered
//! store, so copying an instance is a pointer copy per class and a later
//! mutation copies the chunk it touches: instances are cheap *versions* of
//! one another (see `instance` for what `clone` and `snapshot` carry).
//! Underneath, the lazy cache on each instance *derives* column-major views
//! for the hot read paths: per-(class, attribute) typed column chunks with
//! missing-value bitmaps and a shared string dictionary (`column`,
//! [`Instance::attr_column`]), per-attribute hash indexes, and equi-depth
//! histograms (sampled above [`histogram::SAMPLE_THRESHOLD`] rows). All of
//! them hang off the same `index::IndexCache`, owned by one version and
//! maintained (attribute indexes) or dropped (the rest) on mutation, so a
//! derived view can never outlive the rows it was built from. Row-major
//! remains the source of truth; the columns are a cache.
//!
//! The crate is self-contained and has no dependency on the WOL language itself;
//! it is the substrate every other crate in the workspace builds on.

// Library code reports errors; it does not panic. Tests may.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
// One `unsafe` block: the worker pool's lifetime erasure (`parallel`).
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod column;
pub mod display;
mod error;
mod fingerprint;
mod histogram;
mod index;
mod instance;
mod keys;
mod mutate;
mod oid;
mod parallel;
mod path;
mod schema;
mod store;
mod types;
pub mod validate;
mod values;

pub use column::{AttrColumn, ColumnChunk, ColumnData, ColumnKind, CHUNK_ROWS};
pub use error::{Conflict, ModelError};
pub use fingerprint::Fingerprint;
pub use histogram::{AttrHistogram, SAMPLE_THRESHOLD};
pub use index::{value_hash, AttrIndex};
pub use instance::{AttrStats, ClassStats, Instance, Mutation, StorageSharing};
pub use keys::{skolem_id, KeyExpr, KeySpec, SkolemFactory, SkolemState};
pub use mutate::{BatchDelta, BatchPreimages, ClassDelta, MutationBatch, SourceOp};
pub use oid::Oid;
pub use parallel::{chunk_ranges, Job, Parallelism, WorkerPool};
pub use path::Path;
pub use schema::Schema;
pub use types::{interner_lookups, BaseType, ClassName, Label, Type};
pub use values::{Fields, PushOp, RealVal, Record, SharedValue, Value, ValueRef};

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, ModelError>;
