//! # wol-engine
//!
//! The WOL engine: the paper's primary contribution, implemented as a set of
//! composable analyses and rewrites over [`wol_lang`] programs and
//! [`wol_model`] instances.
//!
//! * `env` — evaluation: databases, bindings, term evaluation and the one
//!   body matcher. Its generate-and-test reference lives in the test-only
//!   `wol-oracle` crate, beside the flat Datalog baseline.
//! * `constraints` — constraint checking and constraint analysis (key
//!   extraction, classification).
//! * [`snf`] — semi-normal form rewriting (Section 5).
//! * `headform` — analysis of transformation-clause heads into partial
//!   object descriptions.
//! * [`normalize`](mod@normalize) — normalisation by unify/unfold into
//!   normal-form clauses.
//! * `optimize` — source-constraint-based simplification and unsatisfiable
//!   clause pruning (Section 4.2).
//! * `semantics` — the naive multi-pass evaluator (the strategy Section 5
//!   argues is inefficient), used as reference semantics and baseline.
//! * `completeness` — static completeness analysis (Section 3.2).
//! * `read_set` — what a clause reads ([`ReadSet`]): the one walk the
//!   incremental checker, the federation and the standing pipeline share.
//! * [`info_preserve`] — empirical information-preservation (injectivity)
//!   checking (Section 4.3).
//!
//! # Threading
//!
//! The engine runs on the calling thread. It has one clause-body matcher
//! ([`match_body`]); constraint checks (full and incremental), target
//! verification and the naive oracle all go through it, one binding after
//! the other, so binding lists, [`MatchStats`], violation lists, certificate
//! bytes and Skolem identities depend on the inputs alone. Transformations
//! do not go through it: they compile to CPL, the workspace's one parallel
//! engine, whose thread budget the engine never sees. [`check_batch`] still
//! takes a `Parallelism` argument, for the benchmark's frozen surface, and
//! does not read it.
//!
//! # Constraint checking
//!
//! [`check_constraints`] validates constraint clauses by full extent scans;
//! [`enforce_constraints`] fails with the **full** violation list (clause
//! order, then binding order) when any constraint is violated.
//! `constraints::incremental` validates a mutation batch by examining only
//! the delta — read-set analysis decides per constraint whether to skip,
//! probe the maintained attribute indexes / re-match seeded bindings, or
//! re-check from scratch — with an output that is bit-identical to the full
//! scan (see the module docs for the exactness argument).
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
#![warn(unreachable_pub)]

mod completeness;
mod constraints;
mod env;
mod error;
mod headform;
pub mod info_preserve;
pub mod normalize;
mod optimize;
mod read_set;
mod rotation;
mod semantics;
pub mod snf;

pub use completeness::{check_completeness, CompletenessReport};
pub use constraints::incremental::{
    check_batch, recheck, BatchCheck, CertEntry, CheckMode, ConstraintCertificate, RecheckReport,
};
pub use constraints::{
    check_constraint, check_constraints, classify_constraint, enforce_constraints, ConstraintClass,
    ObjectKey, Violation,
};
pub use env::{
    eval_skolem_key, eval_term, is_pattern, match_body, match_pattern, try_eval_term, Bindings,
    Databases, MatchStats,
};
pub use error::EngineError;
pub use info_preserve::{canonical_form, check_injective, instances_equivalent, InjectivityReport};
pub use normalize::{normalize, NormalClause, NormalProgram, NormalizeOptions};
pub use optimize::fold_witnesses;
pub use read_set::ReadSet;
pub use rotation::{delta_rotations, Rotation, Slot};
pub use semantics::naive_transform;
pub use snf::{program_to_snf, SnfStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
