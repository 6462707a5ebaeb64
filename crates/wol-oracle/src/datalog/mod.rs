//! A Datalog/ILOG-style baseline engine for the comparisons the paper makes
//! in Sections 3.2–3.3:
//!
//! * clauses are over **flat relations** with positional attributes;
//! * Skolem terms provide ILOG's object-identity creation;
//! * every clause must **completely** specify the target tuple — there are no
//!   partial clauses, so a target class whose description involves `k`
//!   independent variant choices needs `2^k` clauses (one per combination),
//!   whereas WOL needs `2k` partial clauses.
//!
//! The module provides the rule language ([`ast`]), a semi-naive bottom-up
//! evaluator ([`engine`]), and a translator ([`expand`]) that builds the
//! complete-clause baseline program for the variant family `V(k)` of the
//! `workloads` crate, plus an importer/exporter between flat relations and the
//! WOL data model's instances.

pub mod ast;
pub mod engine;
pub mod expand;

pub use ast::{DatalogAtom, DatalogProgram, DatalogRule, DatalogTerm};
pub use engine::{evaluate, Database};
pub use expand::{variant_baseline_program, variant_facts, VariantBaseline};
