//! # morphase
//!
//! The Morphase system (Section 5, Figure 6): "an enzyme (-ase) for morphing
//! data". Morphase takes a WOL transformation program, source database
//! instances and meta-data, and produces the target database:
//!
//! ```text
//!  FRONT HALF — depends on the program alone          [pipeline::Front::build]
//!  ┌──────────────────────────────────────────────────────────────────────┐
//!  │ WOL transformation program + meta-data                               │
//!  │    │  0  auto-generate key / merge-key constraint clauses [metadata] │
//!  │    │  1  validation                                      [wol_lang]  │
//!  │    │  2  (semi-normal form: not built; normalisation needs none)     │
//!  │    ▼  3  normalisation                      [wol_engine::normalize]  │
//!  └──────────────────────────────────────────────────────────────────────┘
//!        │  built once per one-shot run — once per *pipeline* when standing
//!        ▼
//!  BACK HALF — depends on the data                     [pipeline::run_pipeline]
//!  ┌──────────────────────────────────────────────────────────────────────┐
//!  │ rows from:  nowhere (compile) │ resident instances │ scan providers  │
//!  │    │  4  translator to CPL + join-graph planner against the rows'    │
//!  │    │     statistics (instances, or provider-reported)     [compile]  │
//!  │    ▼     ingest — providers only: filters read off the finished      │
//!  │    │     plans, projections, chunked streaming           [federate]  │
//!  │    ▼     source-constraint check (optional), on resident rows        │
//!  │    ▼  5  CPL execution: every query evaluates concurrently,          │
//!  │    │     applies in program order → target DB                  [cpl] │
//!  │    │     └ journal each applied query (durable runs only)  [storage] │
//!  │    ▼  6  verification of target keys and constraints      [pipeline] │
//!  └──────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! There is exactly one body: [`Morphase::compile`], [`Morphase::transform`],
//! [`Morphase::transform_durable`] and [`Morphase::transform_federated`]
//! differ only in where the rows come from and whether a journal is
//! attached, and the body picks its steps from that. The
//! [`pipeline::Morphase`] driver times each stage and reports program-size
//! metrics — the quantities the paper's evaluation discusses (compile time of
//! normalised vs non-normalised programs, size of the resulting normal-form
//! program, effect of omitting constraints).
//!
//! ## Maintenance semantics
//!
//! A one-shot run can also be kept *standing*: [`MaterializedPipeline`]
//! accepts [`wol_model::MutationBatch`]es against its sources and repairs
//! the target in place, guaranteeing the maintained target is bit-identical
//! (object identities included) to a from-scratch re-run over the mutated
//! sources. The contract rests on three pillars, detailed in the
//! `maintain` module docs:
//!
//! * **The key is the unique identity tuple** — a cached row is keyed by
//!   the identities its scans bound, whatever order the executor emitted it
//!   in; the read set of the normal clause each query was compiled from
//!   ([`wol_engine::ReadSet`], the walk the federation and the incremental
//!   constraint checker share) picks the queries a batch churns,
//!   [`wol_engine::delta_rotations`] derives exactly the new rows
//!   semi-naively, and stale rows are swept by key.
//! * **The ledger settles** — a Skolem identity is a function of its class
//!   and key, so a replayed row mints exactly the identity a fresh run would;
//!   each object's multiset of contributed records settles — through
//!   [`wol_model::Record::merge`], the definition a fresh run's apply uses —
//!   at a build, and after a batch for each touched object, to its fresh-run
//!   record, or out of the target. Each source class lives in one source
//!   (checked where sources enter and on every batch insert), so a derived
//!   row never collides with a cached one and every batch repairs in place.
//!   In-place repairs skip per-batch target verification; the build
//!   verifies.
//! * **Conflicts fail in place** — contributions that genuinely conflict
//!   fail the batch (or the build) naming the least conflicting object and
//!   attribute — the error a fresh run over the same sources reports — and
//!   the failed batch poisons the pipeline.
//!
//! [`PipelineService`] runs the pipeline on a maintainer thread and
//! publishes immutable `Arc<Instance>` snapshots at batch boundaries, so
//! concurrent readers never observe a half-repaired target and a panicked
//! maintainer surfaces at shutdown.

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

mod compile;
mod error;
mod federate;
mod maintain;
pub mod metadata;
mod pipeline;
mod report;
mod schedule;
mod service;

pub use compile::{compile_program_with, PlanMode};
pub use error::MorphaseError;
pub use maintain::{BatchOutcome, BatchReport, MaintainStats, MaterializedPipeline};
pub use metadata::generate_key_clauses;
pub use pipeline::{
    BatchConstraintMode, DurabilityStats, DurableOptions, JoinStat, Morphase, MorphaseRun,
    PipelineOptions, QueryStat, StageTimings,
};
pub use report::render_report;
pub use schedule::{plan_schedule, QuerySchedule};
pub use service::PipelineService;

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, MorphaseError>;
