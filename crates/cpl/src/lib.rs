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
//!   comparisons and boolean connectives;
//! * a physical algebra ([`plan::Plan`]): class scans, filters, binding maps,
//!   nested-loop, hash (single- or composite-key) and cross joins, and
//!   distinct;
//! * a single-pass executor ([`exec`]) that runs a plan against a set of
//!   source instances and applies *insert actions* to build the target
//!   instance, merging partial inserts by Skolem key;
//! * a cost-based join-graph planner ([`optimizer`]): decomposes a compiled
//!   plan into scans plus a conjunct pool and greedily re-joins the cheapest
//!   connected pair, fed by extent statistics and per-attribute equi-depth
//!   histograms over the live instances ([`optimizer::Statistics`],
//!   [`optimizer::CostModel`]) with ndv propagated through join outputs; the
//!   flat `1/ndv` model remains selectable as the differential baseline. It
//!   is the only optimiser: a shape it does not decompose runs as compiled;
//! * execution statistics ([`exec::ExecStats`]) used by the benchmark harness.
//!
//! ## Threading model
//!
//! There is one rule, and every operator in [`exec`] (and the columnar
//! tower in [`columnar`]) is written against it: an operator runs over
//! **partitions** of its input, and the *number* of partitions is decided
//! from three things the executor can observe —
//!
//! * the **budget**: the context's [`Parallelism`] (default: available
//!   cores, overridable via the `WOL_THREADS` environment variable), threaded
//!   through [`expr::EvalCtx`]; one thread means one partition;
//! * the **input size**: a dispatch round to the persistent pool costs
//!   microseconds, which inputs under ~128 rows do not repay;
//! * **claim safety**: an expression that creates Skolem identities where
//!   the key-claim protocol below cannot cover it keeps its operator whole.
//!
//! **One partition runs inline** on the calling context — no pool dispatch,
//! no worker context, no claim arena. That is the whole of "sequential
//! execution": not a second implementation of each operator, but the
//! one-partition case of the only one, so a budget of one thread never
//! spawns a thread and a small operator never pays for a big one's
//! machinery. Several partitions run on the **persistent worker pool**
//! ([`wol_model::WorkerPool`]; long-lived channel-fed workers, caller
//! participation, panic propagation on join), each on a worker context of its
//! own. The contract:
//!
//! * **Shared immutably** — the source [`wol_model::Instance`]s. Extents,
//!   attribute indexes and histograms are read concurrently from every
//!   worker; the lazy index cache sits behind an `RwLock` inside `Instance`,
//!   and mutation requires `&mut`, so a partition can never observe a write.
//! * **Partitioned** — hash-join *build sides* and index-probed *driving
//!   rows* are sharded by key hash (a distinct key and its one index probe
//!   belong to exactly one partition); scans+filters, maps, loop joins and
//!   insert evaluation are split into contiguous input chunks.
//! * **Deterministic by construction** — partition results are reassembled
//!   in input order (chunk concatenation, or per-driving-row slots), and a
//!   key's build rows stay in build order within their shard. Skolem
//!   creation — whose identity numbering depends on first-call order — runs
//!   off the calling context only under the **two-phase key-claim protocol**
//!   ([`wol_model::SkolemClaims`]): partitions record `(class, key)` claims
//!   and mint provisional identities, then a resolution pass on the owning
//!   thread replays the claims in input order against the shared factory
//!   and rewrites the outputs, so the final numbering equals the
//!   one-partition run's exactly. The protocol covers `Map` bindings and the
//!   insert actions (where compiled programs put their Skolems — both
//!   restricted to *value position*, [`Expr::skolem_parallel_safe`]);
//!   Skolems anywhere else pin their operator to one partition, which sees
//!   the real factory. Insert actions always *apply* on the owning thread in
//!   row order. The output row stream, the target instance, and the merged
//!   [`ExecStats`] totals are therefore bit-identical at every partition
//!   count; this is enforced by the thread-matrix differential tests in
//!   `tests/properties.rs` (including the Skolem-insertion soak proptest)
//!   and the partition-invariance table in [`exec`].

pub mod columnar;
pub mod error;
pub mod exec;
pub mod expr;
pub mod optimizer;
pub mod plan;

pub use error::CplError;
pub use exec::{
    apply_evaluated_query, evaluate_query, execute_query, run_plan, scan_order_trace,
    ColumnarStats, EvaluatedQuery, ExecStats, Row,
};
pub use expr::Expr;
pub use optimizer::{
    estimate_join_outputs, estimate_rows, optimize_with_stats, pushable_predicates, CostModel,
    ExternalClassStats, JoinEstimate, PushCmp, PushdownCatalog, PushedPredicate, Statistics,
};
pub use plan::{InsertAction, Plan, Query};
pub use wol_model::{Parallelism, WorkerPool};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CplError>;
