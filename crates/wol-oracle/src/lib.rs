//! # wol-oracle
//!
//! Reference implementations the engine is checked against. **Test-only**:
//! the umbrella package and the crates' test suites take it as a
//! `[dev-dependencies]` entry, and no production crate may depend on it (CI
//! holds `cargo tree -e normal -i wol-oracle` to this crate alone).
//!
//! * [`matcher`] — [`match_body_reference`], the naive generate-and-test
//!   clause-body matcher. It is the reference for `wol_engine::match_body`,
//!   the engine's one (indexed) matcher: the two must return the same
//!   binding multiset, and the indexed one may consider no more bindings.
//! * [`eval`] — the named-row CPL expression evaluator, the reference for
//!   `cpl`'s lowered, slot-addressed evaluation by reference: the same value,
//!   or an error of the same variant and text, on every expression.
//! * [`normal_form`] — [`execute`], the single-pass executor of normal-form
//!   programs over the engine's matcher. Tests run a normal form with it
//!   apart from planning and CPL, and hold the compiled pipeline to it.
//! * [`datalog`] — a flat Datalog/ILOG engine and the complete-clause
//!   translation of the variant family `V(k)`. It is the reference for the
//!   paper's Section 3.2–3.3 comparison: `2^k` complete rules derive the same
//!   target as WOL's `2k + 1` partial clauses.
//!
//! The other references the tests use stay where their semantics live: the
//! raw (unplanned) CPL plan for the planner, and `wol_engine::naive_transform`
//! for the compiled pipeline.

#![forbid(unsafe_code)]

pub mod datalog;
pub mod eval;
pub mod matcher;
pub mod normal_form;

pub use matcher::match_body_reference;
pub use normal_form::execute;
