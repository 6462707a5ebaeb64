//! # wol-engine
//!
//! The WOL engine: the paper's primary contribution, implemented as a set of
//! composable analyses and rewrites over [`wol_lang`] programs and
//! [`wol_model`] instances.
//!
//! * [`mod@env`] — evaluation: databases, bindings, term evaluation and the one
//!   body matcher. Its generate-and-test reference lives in the test-only
//!   `wol-oracle` crate, beside the flat Datalog baseline.
//! * [`constraints`] — constraint checking and constraint analysis (key
//!   extraction, classification).
//! * [`snf`] — semi-normal form rewriting (Section 5).
//! * [`headform`] — analysis of transformation-clause heads into partial
//!   object descriptions.
//! * [`normalize`](mod@normalize) — normalisation by unify/unfold into normal-form clauses,
//!   plus a single-pass executor for normal-form programs.
//! * [`optimize`] — source-constraint-based simplification and unsatisfiable
//!   clause pruning (Section 4.2).
//! * [`semantics`] — the naive multi-pass evaluator (the strategy Section 5
//!   argues is inefficient), used as reference semantics and baseline.
//! * [`completeness`] — static completeness analysis (Section 3.2).
//! * [`info_preserve`] — empirical information-preservation (injectivity)
//!   checking (Section 4.3).
//!
//! # Threading
//!
//! The engine has one clause-body matcher ([`match_body`]) and one rule for
//! threads; transformations, constraints, target verification and the naive
//! oracle all go through both.
//!
//! * **The budget is a value on [`Databases`].** A view reads the
//!   environment (`WOL_THREADS`, else the available cores) once, when it is
//!   built; a caller configured with a budget of its own — `morphase`'s
//!   `PipelineOptions.parallelism`, [`NaiveOptions::parallelism`],
//!   [`check_batch`]'s argument — sets it with
//!   [`Databases::with_parallelism`]. No match, binding or seed reads the
//!   environment.
//! * **A match is one or more partitions of its opening extent scan.** The
//!   count is the workspace's one partition rule
//!   ([`wol_model::Parallelism::partitions`], shared with `cpl`) over the
//!   extent's size; one partition runs inline on the caller's frame and
//!   [`SkolemFactory`] — "sequential matching" is that case, not a second
//!   matcher. Skolem-bearing bodies split like any other.
//! * **One fan-out.** Everything that splits work — the opening scan, the
//!   semi-naive delta seeds, the batch checker's delta detection — cuts its
//!   items into contiguous chunks through one helper in [`mod@env`], under
//!   that rule: a single chunk runs on the calling thread; several run on the
//!   shared worker pool with a fresh factory and counters each, results
//!   concatenated, counters summed and factories folded into the caller's in
//!   chunk order. A chunk's job sees a one-thread view, so work that is
//!   already a chunk never splits again.
//!
//! Binding lists, [`MatchStats`], violation lists, certificate bytes and
//! Skolem identities are identical at every budget.
//!
//! [`SkolemFactory`]: wol_model::SkolemFactory
//!
//! # Constraint checking
//!
//! [`check_constraints`] validates constraint clauses by full extent scans;
//! [`enforce_constraints`] fails with the **full** violation list (clause
//! order, then binding order) when any constraint is violated.
//! [`constraints::incremental`] validates a mutation batch by examining only
//! the delta — read-set analysis decides per constraint whether to skip,
//! probe the maintained attribute indexes / re-match seeded bindings, or
//! re-check from scratch — with an output that is bit-identical to the full
//! scan at every thread count (see the module docs for the exactness
//! argument).
//!
//! Every batch validation emits a [`ConstraintCertificate`]: an auditable,
//! independently re-checkable record in the spirit of "Rust emits, Lean
//! re-checks". [`constraints::incremental::recheck`] replays a certificate
//! against a snapshot and fails on any disagreement.
//!
//! ## Certificate wire format (version 1)
//!
//! All integers use the `storage::persist` codec primitives (little-endian
//! fixed-width ints, LEB128 varints, varint-length-prefixed UTF-8 strings,
//! oids as class string + varint id):
//!
//! | Field | Encoding | Meaning |
//! |---|---|---|
//! | magic | 8 raw bytes `b"WOLCERT\0"` | format marker |
//! | version | `u32` | certificate format version (currently 1) |
//! | entry count | varint | number of per-constraint entries |
//! | — entry.constraint | string | clause label (or `<unlabelled>`) |
//! | — entry.mode | `u8` | 0 = skipped, 1 = delta, 2 = full |
//! | — entry.checked | varint | objects/bindings examined |
//! | — entry.probes | varint | attribute-index probes issued |
//! | — entry.violation count | varint | violations recorded for this entry |
//! | — — violation.clause | string | violated clause label |
//! | — — violation.detail | string | human-readable witness description |
//! | — — violation.oid count | varint | participating object identities |
//! | — — — violation.oid | oid | one participating identity |
//! | crc | `u32` | CRC-32 over every preceding byte |
//!
//! Version-bump rules match the persistence layer's: existing field
//! positions, mode tags and the magic are frozen; any change to them — or
//! any new field — requires bumping `CERTIFICATE_VERSION`, and decoders
//! reject versions they do not know. A certificate that fails the CRC, has
//! trailing bytes, or uses an unknown tag is rejected with
//! [`EngineError::Certificate`] — corruption is never silently accepted.

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
#![forbid(unsafe_code)]

pub mod completeness;
pub mod constraints;
pub mod env;
pub mod error;
pub mod headform;
pub mod info_preserve;
pub mod normalize;
pub mod optimize;
pub mod rotation;
pub mod semantics;
pub mod snf;

pub use completeness::{check_completeness, CompletenessReport};
pub use constraints::incremental::{
    analyze_constraint, check_batch, recheck, BatchCheck, CertEntry, CheckMode,
    ConstraintCertificate, RecheckReport, CERTIFICATE_MAGIC, CERTIFICATE_VERSION,
};
pub use constraints::{
    check_constraint, check_constraints, classify_constraint, enforce_constraints,
    extract_merge_keys, extract_object_keys, ConstraintClass, ObjectKey, Violation,
};
pub use env::{eval_term, match_body, Bindings, Databases, MatchStats};
pub use error::EngineError;
pub use info_preserve::{canonical_form, check_injective, instances_equivalent, InjectivityReport};
pub use normalize::{execute, normalize, NormalClause, NormalProgram, NormalizeOptions};
pub use rotation::{delta_rotations, Rotation, Slot};
pub use semantics::{naive_transform, naive_transform_with_report, NaiveOptions, NaiveReport};
pub use snf::{program_to_snf, to_snf, SnfStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
