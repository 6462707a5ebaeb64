//! # cpl
//!
//! A small complex-value query engine standing in for **CPL / Kleisli**, the
//! "database programming language for complex values developed at the
//! University of Pennsylvania" that Morphase compiles normal-form WOL programs
//! into (Section 5 of the paper). The real CPL is a closed research prototype;
//! this crate implements the fragment Morphase needs:
//!
//! * row expressions over complex values ([`expr::Expr`]): projection through
//!   object identities, record/variant construction, Skolem object creation,
//!   and predicates, which are conjunctions of comparisons. Each plan is
//!   lowered whole against its nodes' slot layouts ([`Lowered`] values,
//!   [`Predicate`]s) before its first row runs; a comparison is decided by
//!   [`wol_model::PushOp::holds`], the one definition the clause matcher and
//!   the scan providers share;
//! * a physical algebra ([`plan::Plan`]): class scans, filters, binding maps,
//!   predicated nested-loop (theta), hash (single- or composite-key) and
//!   cross joins — a product has the one spelling [`Plan::CrossJoin`];
//! * one lowering, two drivers: a single-pass executor ([`exec`]) over
//!   slot-addressed rows that runs a plan against source instances and
//!   applies *insert actions* to build the target instance, settling each
//!   object's partial inserts through [`wol_model::Record::merge`], the one
//!   definition the maintainer settles through too; and a columnar driver
//!   (`columnar`) that runs the same lowered expressions of
//!   scan→filter→map towers batch-at-a-time over typed columns;
//! * a cost-based join-graph planner (`optimizer`): decomposes a compiled
//!   plan into scans plus a conjunct pool and greedily re-joins the cheapest
//!   connected pair, fed by extent statistics and per-attribute equi-depth
//!   histograms over the live instances ([`optimizer::Statistics`]) with
//!   ndv propagated through join outputs — one cardinality model. It is the
//!   only optimiser: a shape it does not take runs as compiled;
//! * execution statistics ([`exec::ExecStats`]) used by the benchmark harness.
//!
//! ## One outcome per plan
//!
//! A plan is either refused before any row runs — a name its layout lacks,
//! a predicate conjunct that is no comparison, a comparison where a value
//! belongs ([`CplError`]) — or it runs to the same outcome on every path:
//! row or columnar, any join algorithm, any partition count. The run-time
//! rule, stated once: a bad value (a missing optional attribute, a dangling
//! identity, an uncomparable pair) reads `false` in a predicate, drops a
//! `Map` row and makes a join key unjoinable. The only other per-row error
//! is a Skolem-memo collision.
//!
//! ## Threading model
//!
//! There is one rule, and every operator in [`exec`] (and the columnar
//! tower in `columnar`) is written against it: an operator runs over
//! **partitions** of its input, and the *number* of partitions is
//! [`Parallelism::partitions`] of its input size — the workspace's one
//! partition rule. `cpl` is the workspace's one parallel engine:
//! `wol-engine`'s matcher runs on the calling thread. The budget is the
//! context's [`Parallelism`] (default: available cores, overridable via the
//! `WOL_THREADS` environment variable), threaded through
//! [`expr::EvalCtx`]; one thread, or an input below the rule's minimum,
//! means one partition.
//!
//! **One partition runs inline** on the calling context — no pool dispatch,
//! no worker context: "sequential execution" is the one-partition case of the
//! only implementation. Several partitions run on the **persistent worker
//! pool** ([`wol_model::WorkerPool`]), each on a worker context of its own.
//! The contract:
//!
//! * **Shared immutably** — the source [`wol_model::Instance`]s, read
//!   concurrently (the lazy index cache sits behind an `RwLock`; mutation
//!   needs `&mut`, so a partition never observes a write).
//! * **Partitioned** — by key hash for the generic hash join's build side
//!   only, in contiguous input chunks for everything else (the index-probe
//!   join's key groups and driving rows included).
//! * **Deterministic by construction** — results reassemble in input order,
//!   and a Skolem identity is a function of its class and key
//!   ([`wol_model::skolem_id`]), so a worker minting through a factory of its
//!   own mints exactly what the calling context would; the workers'
//!   factories fold into the caller's in partition order, where a collision
//!   across workers is detected. Inserts *apply* on the owning thread, one
//!   object at a time over the set of its contributions, so neither row
//!   order nor partitioning reaches the target or a conflict. Rows, target,
//!   merged [`ExecStats`] and the error are bit-identical at every partition
//!   count — held by the thread-matrix differential tests in
//!   `tests/properties.rs` and the partition-invariance table in [`exec`].

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

mod columnar;
mod error;
pub mod exec;
pub mod expr;
mod optimizer;
mod plan;

pub use error::CplError;
pub use exec::{
    apply_evaluated_query, evaluate_query, execute_query, invert_chain, layout, run_slots,
    ColumnarStats, EvaluatedQuery, ExecStats, LoweredInsert, RefChain, SlotRow,
};
pub use expr::{Expr, Lowered, Predicate};
pub use optimizer::{
    estimate_join_outputs, estimate_plan, estimate_rows, optimize_with_stats, pushable_predicates,
    CostModel, ExternalClassStats, JoinEstimate, PlanEstimate, PushCmp, PushdownCatalog,
    PushedPredicate, Statistics,
};
pub use plan::{InsertAction, Plan, Query};
pub use wol_model::{Parallelism, WorkerPool};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CplError>;
