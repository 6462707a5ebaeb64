//! # workloads
//!
//! Schema, instance and WOL-program generators reproducing the paper's
//! workloads:
//!
//! * [`cities`] — the running example of Figures 1–3: the US Cities/States and
//!   European Cities/Countries sources, the integrated target, the clauses
//!   (T1)–(T3) and constraints (C1)–(C8), plus a scalable instance generator.
//! * [`people`] — the schema-evolution example of Figures 4–5 (Example 4.2):
//!   Person/spouse source, Male/Female/Marriage target, clauses (T6)–(T8) and
//!   constraints (C9)–(C11), with generators for constraint-satisfying and
//!   constraint-violating instances.
//! * [`genome`] — synthetic Chr22DB/ACe22DB-style data: a relational-style
//!   schema with wide records and an ACeDB-style sparse tree source, standing
//!   in for the proprietary genome databases of the paper's trials.
//! * [`traffic`] — E11: deterministic mutation-batch streams over the genome
//!   warehouse (inserts, updates, duplicate Skolem keys, removals, renames),
//!   feeding the incremental-maintenance bench and test suites.
//! * [`constrained`] — E12: a registry source carrying one constraint of
//!   each family the incremental checker plans differently (merge key,
//!   existence, Skolem key) with clean and violating mutation streams,
//!   feeding the per-batch constraint-validation bench and test suites.
//! * [`federated`] — E13: the genome warehouse split across three backend
//!   fragments (relational clones, ACeDB-style markers, a large assay CSV)
//!   with one WOL program integrating all three; every fragment carries a
//!   selective comparison the planner can push into its provider, feeding
//!   the federated-pushdown bench and test suites.
//! * [`skewed`] — E7: the genome theme with a *zipfian* marker-per-clone
//!   distribution and a triangle join whose ordering a planner blind to the
//!   value distribution provably gets wrong; the workload behind the
//!   histogram-estimation regression tests and bench.
//! * [`variants`] — the variant family V(k) used to reproduce the claim that
//!   complete-clause languages need exponentially many clauses in the number
//!   of variants while WOL's partial clauses stay linear (Section 3.2).
//! * [`wide`] — the wide-record family W(n, k): a target class with `n`
//!   attributes described by `k` partial clauses, with or without key
//!   constraints; the knob behind the compile-time experiments E1 and E2.

#![forbid(unsafe_code)]

pub mod cities;
pub mod constrained;
pub mod federated;
pub mod genome;
pub mod people;
pub mod skewed;
pub mod traffic;
pub mod variants;
pub mod wide;

pub use cities::CitiesWorkload;
pub use people::PeopleWorkload;
