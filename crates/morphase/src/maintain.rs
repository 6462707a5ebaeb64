//! Incremental view maintenance: the standing [`MaterializedPipeline`].
//!
//! A [`crate::Morphase`] run is a one-shot function from source instances to
//! a target instance. This module keeps that function's output *standing*:
//! after an initial build, the pipeline accepts
//! [`MutationBatch`](wol_model::MutationBatch)es against its sources and
//! repairs the target in place, guaranteeing at every batch boundary that
//! the maintained target is **bit-identical** (object identities included)
//! to what a from-scratch run over the mutated sources would produce.
//!
//! # Maintenance semantics
//!
//! The guarantee rests on three pillars, each with a fallback that degrades
//! cost but never correctness.
//!
//! **Delta propagation.** Every compiled query is analysed once per
//! (re-)plan:
//!
//! * [`cpl::scan_order_trace`] must describe the plan's output as the
//!   lexicographic order of a tuple of scanned object identities — the
//!   *trace key*. The key is unique per row and stable across runs (source
//!   identities are never reused), so a `BTreeMap` over trace keys *is* the
//!   fresh run's row stream, in order.
//! * The plan is split at the deepest `Map` operator carrying a Skolem
//!   binding: everything below (the *stripped* plan) must be Skolem-free and
//!   is re-runnable at will; the Skolem-bearing `Map` levels above are
//!   *deferred* and replayed per cached row.
//! * A schema-typed walk over every expression classifies each projection:
//!   a dereference of a scanned variable is covered by the trace key; a
//!   dereference reaching another class's objects makes that class a
//!   *foreign read*; a projection whose base type cannot be resolved marks
//!   the query *opaque*.
//!
//! When a batch lands, rows to **remove** are found by identity: any cached
//! row whose trace key contains a stale (updated or removed) identity, or —
//! when a foreign-read class saw staleness, or the query is opaque and
//! anything was stale — every row of the query (*churn*). Rows to **add**
//! come from [`wol_engine::delta_rotations`]: one semi-naive evaluation of
//! the stripped plan per changed slot, with scan restrictions partitioning
//! exactly the rows that bind at least one changed identity. Programs where
//! some query defeats the analysis (or scans the target) fall back to
//! [`MaintainMode::Rerun`]: every batch is a full re-run, still correct.
//!
//! **Repair identity.** Skolem keys make repair well-defined — a target
//! object is identified by its `(class, key)`, not by allocation order — but
//! bit-identity also demands the *numbering* of identities match a fresh
//! run. The pipeline therefore keeps a ledger: for every target identity,
//! the exact position of its first mint in the canonical evaluation order
//! (query rank in the schedule, deferred-map level, trace key, evaluation
//! slot), plus a support count of every `(object, attribute, value)`
//! contribution. Replaying added rows re-derives mints at their canonical
//! positions; removing rows decrements supports and *displaces* first mints.
//! If, after a batch, any invariant that ties the standing state to a fresh
//! run cannot be re-established locally — a displaced first mint is not
//! restored at the same position, a fresh mint would not be the class's
//! latest, an object loses all contributions, or two rows disagree on an
//! attribute — the pipeline **rebuilds**: it re-plans against the mutated
//! sources (fresh statistics, exactly like a fresh run) and re-fills —
//! replays everything with a fresh Skolem factory. A rebuild never
//! re-normalises: meta-data generation, validation, snf and the normal form
//! depend on the program alone, so the pipeline builds that front half once,
//! at construction ([`crate::pipeline`]'s `Front`), and every initial build,
//! rebuild, `Rerun`-mode batch and oracle run borrows it. A rebuild is
//! bit-identical to the oracle by construction; in-place batches preserve the
//! factory/ledger equivalence, so the standing state always equals the
//! rebuilt state.
//!
//! **Reader consistency.** The pipeline itself is single-writer; the
//! concurrent front end ([`crate::PipelineService`]) runs it on a maintainer
//! thread and publishes an immutable snapshot (`Arc<Instance>`) after each
//! successful batch. Readers clone the `Arc` under a read lock — they never
//! observe a half-repaired target, and a panicked maintainer propagates at
//! shutdown instead of hanging its clients.
//!
//! Durability is the one durable store, [`storage::persist::PipelineJournal`],
//! keeping the *source*: batch 0 is a full dump, every applied batch is one
//! commit of what the batch changed, and recovery rebuilds the pipeline from
//! the recovered source — valid precisely because the standing state is
//! always equivalent to a rebuild from current sources.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cpl::exec::{layout, run_slots, scan_order_trace, ExecStats, LoweredInsert};
use cpl::expr::{lower_bindings, store, EvalCtx, Lowered, SlotRow};
use cpl::{CplError, Expr, Plan, Query};
use storage::persist::PipelineJournal;
use wol_engine::rotation::{delta_rotations, Slot};
use wol_engine::{check_batch, BatchCheck, Databases, EngineError};
use wol_lang::program::Program;
use wol_lang::Clause;
use wol_model::{
    BatchDelta, ClassName, Instance, Label, Mutation, MutationBatch, Oid, Schema, SkolemFactory,
    SourceOp, Type, Value,
};

use crate::pipeline::{
    plan_queries, run_pipeline, verify_target_instance, BatchConstraintMode, DurableOptions,
    Fingerprint, Front, MorphaseRun, PipelineOptions, Rows,
};
use crate::schedule::plan_schedule;
use crate::{MorphaseError, Result};

/// How the pipeline maintains its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainMode {
    /// Every query passed capability analysis: batches repair the target in
    /// place, falling back to a rebuild when a repair invariant trips.
    Incremental,
    /// Some query defeats the analysis (or reads the target): every batch is
    /// a full from-scratch re-run.
    Rerun,
}

/// What one applied batch cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Stale rows swept, delta rows replayed, touched objects repaired.
    InPlace,
    /// A repair invariant tripped: re-planned and replayed from scratch.
    Rebuild,
    /// The pipeline is in [`MaintainMode::Rerun`].
    FullRerun,
}

/// Per-batch report returned by [`MaterializedPipeline::apply_batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// How the batch was absorbed.
    pub outcome: BatchOutcome,
    /// Cached query rows swept by the batch.
    pub rows_removed: u64,
    /// Query rows (re-)derived and replayed for the batch.
    pub rows_added: u64,
    /// Target objects whose record was written (inserted or updated).
    pub objects_repaired: u64,
    /// Why the batch escalated to a rebuild, when it did.
    pub rebuild_reason: Option<String>,
    /// The batch's constraint check and certificate, when
    /// [`BatchConstraintMode`] is not `Off`. In `Report` mode a committed
    /// batch may carry violations here; in `Enforce` mode a violating batch
    /// is rejected instead of reported.
    pub constraints: Option<BatchCheck>,
}

/// Cumulative maintenance statistics. Deterministic for a given program,
/// sources, and batch stream — independent of worker-pool size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Batches applied (including empty ones).
    pub batches: u64,
    /// Batches absorbed in place.
    pub inplace_batches: u64,
    /// Batches that escalated to a rebuild.
    pub rebuild_batches: u64,
    /// Batches absorbed by a full re-run ([`MaintainMode::Rerun`]).
    pub full_reruns: u64,
    /// Cached query rows swept across all batches.
    pub rows_removed: u64,
    /// Query rows replayed across all batches.
    pub rows_added: u64,
    /// Target objects written across all in-place batches.
    pub objects_repaired: u64,
    /// Batches rejected by [`BatchConstraintMode::Enforce`] (not counted in
    /// `batches`; sources and target were reverted to the pre-batch state).
    pub rejected_batches: u64,
    /// Constraints validated (delta or full mode) across all checked batches,
    /// including rejected ones.
    pub constraints_checked: u64,
    /// Constraints skipped by read-set analysis across all checked batches.
    pub constraints_skipped: u64,
    /// Objects/bindings examined by constraint checks across all batches.
    pub constraint_objects: u64,
    /// Attribute-index probes issued by constraint checks across all batches.
    pub constraint_probes: u64,
    /// Constraint violations found across all checked batches (reported or
    /// rejected).
    pub constraint_violations: u64,
    /// Execution statistics of all maintenance plan evaluations (initial
    /// fills, rotations, churn refills, rebuilds, and full re-runs).
    pub delta_exec: ExecStats,
}

/// The exact position of an evaluation unit in the canonical (fresh-run)
/// evaluation order. `Ord` is the fresh run's chronology: queries run in
/// schedule order; within a query, deferred `Map` levels run bottom-up with
/// each level sweeping all rows in trace-key order; the insert phase
/// (`stage == u32::MAX`) then visits rows in trace-key order, and within a
/// row its actions' key/mk/attribute units left to right.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MintPos {
    /// Query rank in the schedule's apply order.
    query: usize,
    /// Deferred-map level (bottom-up), or `u32::MAX` for the insert phase.
    stage: u32,
    /// Trace key of the row being evaluated.
    key: Vec<Oid>,
    /// Evaluation unit within the stage: `(binding index, 0)` for a deferred
    /// level; `(action, unit)` with units `{0: key, 1: mk, 2+i: attr i}` for
    /// inserts — a pair, so no attribute count can alias the next action.
    slot: (u32, u32),
    /// Index among one unit's fresh mints of the same class.
    sub: u32,
}

impl MintPos {
    /// The insert-phase position of `unit` (`{0: key, 1: mk, 2+i: attr i}`)
    /// of insert action `action`, for the row with trace key `key`.
    fn insert_unit(query: usize, key: &[Oid], action: usize, unit: usize) -> MintPos {
        MintPos {
            query,
            stage: u32::MAX,
            key: key.to_vec(),
            slot: (action as u32, unit as u32),
            sub: 0,
        }
    }
}

/// Reference-counted contributions to one target object: how many rows
/// assert its existence, and how many assert each `(attribute, value)`.
#[derive(Clone, Debug, Default)]
struct Support {
    keyed: u64,
    attrs: BTreeMap<Label, BTreeMap<Value, u64>>,
}

/// What a target object's support settles to.
enum Settled {
    /// No row asserts the object any more.
    Gone,
    /// Two rows assert different values for the label.
    Conflicting(Label),
    /// The unique merged record.
    Record(Value),
}

/// First-mint positions and contribution supports for every target identity.
#[derive(Clone, Debug, Default)]
struct TargetLedger {
    positions: BTreeMap<Oid, MintPos>,
    class_mints: BTreeMap<ClassName, BTreeMap<MintPos, Oid>>,
    supports: BTreeMap<Oid, Support>,
}

impl TargetLedger {
    fn record_mint(&mut self, oid: &Oid, pos: MintPos) {
        self.class_mints
            .entry(oid.class().clone())
            .or_default()
            .insert(pos.clone(), oid.clone());
        self.positions.insert(oid.clone(), pos);
    }

    fn displace(&mut self, oid: &Oid) -> Option<MintPos> {
        let pos = self.positions.remove(oid)?;
        if let Some(mints) = self.class_mints.get_mut(oid.class()) {
            mints.remove(&pos);
        }
        Some(pos)
    }

    fn class_max(&self, class: &ClassName) -> Option<&MintPos> {
        self.class_mints
            .get(class)
            .and_then(|m| m.keys().next_back())
    }

    fn add_support(&mut self, oid: &Oid, record: &Value) {
        let support = self.supports.entry(oid.clone()).or_default();
        support.keyed += 1;
        if let Value::Record(fields) = record {
            for (label, value) in fields {
                *support
                    .attrs
                    .entry(label.clone())
                    .or_default()
                    .entry(value.clone())
                    .or_insert(0) += 1;
            }
        }
    }

    fn remove_support(&mut self, oid: &Oid, record: &Value) -> Result<()> {
        let underflow =
            || MorphaseError::Execution(format!("support underflow for target object {oid}"));
        let support = self.supports.get_mut(oid).ok_or_else(underflow)?;
        support.keyed = support.keyed.checked_sub(1).ok_or_else(underflow)?;
        if let Value::Record(fields) = record {
            for (label, value) in fields {
                let per_value = support.attrs.get_mut(label).ok_or_else(underflow)?;
                let count = per_value.get_mut(value).ok_or_else(underflow)?;
                *count = count.checked_sub(1).ok_or_else(underflow)?;
                if *count == 0 {
                    per_value.remove(value);
                    if per_value.is_empty() {
                        support.attrs.remove(label);
                    }
                }
            }
        }
        Ok(())
    }

    fn settled(&self, oid: &Oid) -> Settled {
        let Some(support) = self.supports.get(oid) else {
            return Settled::Gone;
        };
        if support.keyed == 0 {
            return Settled::Gone;
        }
        let mut fields = BTreeMap::new();
        for (label, per_value) in &support.attrs {
            if per_value.len() > 1 {
                return Settled::Conflicting(label.clone());
            }
            if let Some(value) = per_value.keys().next() {
                fields.insert(label.clone(), value.clone());
            }
        }
        Settled::Record(Value::Record(fields))
    }
}

/// Per-query capability analysis (see the module docs).
#[derive(Clone, Debug)]
struct QueryAnalysis {
    /// Scan slots in trace order; the row key is their identity tuple.
    slots: Vec<Slot>,
    /// Where each trace slot's identity sits in a stripped row.
    key_slots: Vec<usize>,
    /// The Skolem-free plan below the deepest Skolem-bearing `Map`.
    stripped: Plan,
    /// Skolem-bearing `Map` levels peeled off the root, bottom-up, lowered
    /// against the stripped plan's layout as extended by the levels below.
    deferred: Vec<Vec<(usize, Lowered)>>,
    /// The insert actions, lowered against the layout after every level.
    inserts: Vec<LoweredInsert>,
    /// Classes read through dereferences not covered by the trace key.
    foreign: BTreeSet<ClassName>,
    /// True when some projection's base type is unresolvable: the query may
    /// read arbitrary objects, so any staleness churns it.
    opaque: bool,
}

/// Statically inferred expression type, precise only where it matters.
#[derive(Clone, Debug)]
enum Ty {
    Known(Type),
    /// Definitely not an object identity (booleans, comparisons, scalars).
    Scalar,
    Unknown,
}

/// Schema-typed projection classifier (see module docs: delta propagation).
struct DerefScan<'a> {
    schemas: &'a [&'a Schema],
    scan_vars: BTreeSet<String>,
    env: BTreeMap<String, Ty>,
    foreign: BTreeSet<ClassName>,
    opaque: bool,
}

impl DerefScan<'_> {
    fn class_value_type(&self, class: &ClassName) -> Option<&Type> {
        self.schemas.iter().find_map(|s| s.class_type(class))
    }

    fn type_of_value(&self, value: &Value) -> Ty {
        match value {
            Value::Oid(oid) => Ty::Known(Type::Class(oid.class().clone())),
            Value::Record(fields) => {
                let mut tys = Vec::new();
                for (label, v) in fields {
                    match self.type_of_value(v) {
                        Ty::Known(t) => tys.push((label.clone(), t)),
                        _ => return Ty::Unknown,
                    }
                }
                Ty::Known(Type::Record(tys))
            }
            Value::Bool(_) | Value::Int(_) | Value::Real(_) | Value::Str(_) | Value::Unit => {
                Ty::Scalar
            }
            Value::Set(_) | Value::List(_) | Value::Variant(..) | Value::Absent => Ty::Unknown,
        }
    }

    fn visit(&mut self, expr: &Expr) -> Ty {
        match expr {
            Expr::Var(v) => self.env.get(v).cloned().unwrap_or(Ty::Unknown),
            Expr::Const(v) => self.type_of_value(v),
            Expr::Proj(base, label) => {
                let base_ty = self.visit(base);
                self.project(base_ty, base, label)
            }
            Expr::Record(fields) => {
                let mut tys = Vec::new();
                let mut all_known = true;
                for (label, fe) in fields {
                    match self.visit(fe) {
                        Ty::Known(t) => tys.push((label.clone(), t)),
                        _ => all_known = false,
                    }
                }
                if all_known {
                    Ty::Known(Type::Record(tys))
                } else {
                    Ty::Unknown
                }
            }
            Expr::Variant(_, inner) => {
                self.visit(inner);
                Ty::Unknown
            }
            Expr::Skolem(class, inner) => {
                self.visit(inner);
                Ty::Known(Type::Class(class.clone()))
            }
            Expr::Eq(a, b) | Expr::Neq(a, b) | Expr::Lt(a, b) | Expr::Leq(a, b) => {
                self.visit(a);
                self.visit(b);
                Ty::Scalar
            }
            Expr::And(es) => {
                for e in es {
                    self.visit(e);
                }
                Ty::Scalar
            }
            Expr::Not(inner) => {
                self.visit(inner);
                Ty::Scalar
            }
        }
    }

    /// Classify the dereferences a projection performs while resolving its
    /// base down to a record, and return the projected field's type.
    fn project(&mut self, base_ty: Ty, base: &Expr, label: &Label) -> Ty {
        let mut ty = base_ty;
        // Only the base expression's *own* identity is covered by the trace
        // key, and only when it is literally a scanned variable.
        let mut covered = matches!(base, Expr::Var(v) if self.scan_vars.contains(v));
        loop {
            match ty {
                Ty::Known(Type::Optional(inner)) => ty = Ty::Known(*inner),
                Ty::Known(Type::Class(class)) => {
                    if !covered {
                        self.foreign.insert(class.clone());
                    }
                    covered = false;
                    match self.class_value_type(&class) {
                        Some(t) => ty = Ty::Known(t.clone()),
                        None => {
                            self.opaque = true;
                            return Ty::Unknown;
                        }
                    }
                }
                Ty::Known(Type::Record(fields)) => {
                    return match fields.iter().find(|(l, _)| l == label) {
                        Some((_, t)) => Ty::Known(t.clone()),
                        None => {
                            self.opaque = true;
                            Ty::Unknown
                        }
                    };
                }
                Ty::Known(_) | Ty::Scalar | Ty::Unknown => {
                    self.opaque = true;
                    return Ty::Unknown;
                }
            }
        }
    }

    /// Walk a plan in evaluation order, binding scan variables and `Map`
    /// bindings into the typing environment as they come into scope.
    fn walk_plan(&mut self, plan: &Plan) {
        match plan {
            Plan::Scan { class, var } => {
                self.env
                    .insert(var.clone(), Ty::Known(Type::Class(class.clone())));
            }
            Plan::Filter { input, predicate } => {
                self.walk_plan(input);
                self.visit(predicate);
            }
            Plan::Map { input, bindings } => {
                self.walk_plan(input);
                for (var, expr) in bindings {
                    let ty = self.visit(expr);
                    self.env.insert(var.clone(), ty);
                }
            }
            Plan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                self.walk_plan(left);
                self.walk_plan(right);
                if let Some(p) = predicate {
                    self.visit(p);
                }
            }
            Plan::HashJoin { left, right, keys } => {
                self.walk_plan(left);
                self.walk_plan(right);
                for (l, r) in keys {
                    self.visit(l);
                    self.visit(r);
                }
            }
            Plan::CrossJoin { left, right } => {
                self.walk_plan(left);
                self.walk_plan(right);
            }
            Plan::Distinct { input } => self.walk_plan(input),
        }
    }
}

/// Split a plan at the deepest root-contiguous `Map` carrying a Skolem
/// binding: `(deferred levels bottom-up, plan below)`.
fn peel_deferred(plan: &Plan) -> (Vec<Vec<(String, Expr)>>, &Plan) {
    let mut maps: Vec<&Vec<(String, Expr)>> = Vec::new();
    let mut cur = plan;
    while let Plan::Map { input, bindings } = cur {
        maps.push(bindings);
        cur = input;
    }
    let Some(deepest) = maps
        .iter()
        .rposition(|b| b.iter().any(|(_, e)| e.contains_skolem()))
    else {
        return (Vec::new(), plan);
    };
    let deferred = maps[..=deepest]
        .iter()
        .rev()
        .map(|b| (*b).clone())
        .collect();
    let mut below = plan;
    for _ in 0..=deepest {
        if let Plan::Map { input, .. } = below {
            below = input;
        }
    }
    (deferred, below)
}

/// Analyse one query for incremental capability. `None` means the query
/// defeats the analysis and forces [`MaintainMode::Rerun`].
fn analyze_query(query: &Query, schemas: &[&Schema]) -> Option<QueryAnalysis> {
    let trace = scan_order_trace(&query.plan)?;
    let (deferred, stripped) = peel_deferred(&query.plan);
    // Mints below a row-dropping operator would be invisible to the row
    // cache: the replayable part must be entirely Skolem-free.
    if stripped.expressions().iter().any(|e| e.contains_skolem()) {
        return None;
    }
    let scan_classes = query.plan.scan_classes();
    let slots: Vec<Slot> = trace
        .iter()
        .map(|var| {
            scan_classes
                .get(var)
                .map(|class| Slot::new(var.clone(), class.clone()))
        })
        .collect::<Option<_>>()?;
    let mut scan = DerefScan {
        schemas,
        scan_vars: trace.into_iter().collect(),
        env: BTreeMap::new(),
        foreign: BTreeSet::new(),
        opaque: false,
    };
    scan.walk_plan(stripped);
    for level in &deferred {
        for (var, expr) in level {
            let ty = scan.visit(expr);
            scan.env.insert(var.clone(), ty);
        }
    }
    for action in &query.inserts {
        scan.visit(&action.key);
        for (_, expr) in &action.attrs {
            scan.visit(expr);
        }
    }
    let mut row_layout = layout(stripped);
    let key_slots = slots
        .iter()
        .map(|s| row_layout.iter().position(|name| *name == s.var))
        .collect::<Option<_>>()?;
    let deferred = deferred
        .iter()
        .map(|level| lower_bindings(level, &mut row_layout))
        .collect();
    Some(QueryAnalysis {
        slots,
        key_slots,
        stripped: stripped.clone(),
        deferred,
        inserts: LoweredInsert::lower(&query.inserts, &row_layout),
        foreign: scan.foreign,
        opaque: scan.opaque,
    })
}

/// One cached row of one query's stripped plan.
#[derive(Clone, Debug, Default)]
struct CachedRow {
    /// The stripped plan's output row (no deferred bindings).
    row: SlotRow,
    /// Target contributions this row's inserts performed, in action order.
    contribs: Vec<(Oid, Value)>,
    /// Target identities whose *first* mint this row performed.
    first_mints: Vec<(Oid, MintPos)>,
}

/// Working state of one row being replayed.
struct RowWork {
    key: Vec<Oid>,
    /// The stripped row, preserved for the cache entry.
    base: SlotRow,
    /// Working copy, extended by deferred bindings.
    row: SlotRow,
    dropped: bool,
    contribs: Vec<(Oid, Value)>,
    first_mints: Vec<(Oid, MintPos)>,
}

impl RowWork {
    fn seed(key: Vec<Oid>, row: SlotRow) -> RowWork {
        RowWork {
            key,
            base: row.clone(),
            row,
            dropped: false,
            contribs: Vec::new(),
            first_mints: Vec::new(),
        }
    }
}

/// Repair-mode extras: positional safety checks and touched-object tracking.
struct Repair<'a> {
    displaced: &'a mut BTreeMap<Oid, MintPos>,
    touched: &'a mut BTreeSet<Oid>,
    trigger: &'a mut Option<String>,
}

/// Replays rows through deferred bindings and insert actions, mirroring the
/// executor's evaluation order and Skolem numbering exactly.
struct Replayer<'a, 'e> {
    ctx: &'a mut EvalCtx<'e>,
    ledger: &'a mut TargetLedger,
    target_classes: &'a BTreeSet<ClassName>,
    /// Rebuild mode: write contributions straight into this fresh target.
    target: Option<&'a mut Instance>,
    /// Repair mode: check positions instead of writing the target.
    repair: Option<Repair<'a>>,
}

impl<'e> Replayer<'_, 'e> {
    fn triggered(&self) -> bool {
        self.repair.as_ref().is_some_and(|r| r.trigger.is_some())
    }

    fn trip(&mut self, reason: String) {
        if let Some(rep) = self.repair.as_mut() {
            if rep.trigger.is_none() {
                *rep.trigger = Some(reason);
            }
        }
    }

    /// Replay `work` through one query: deferred levels bottom-up (each
    /// level sweeping all rows in key order), then the insert phase.
    fn replay_query(
        &mut self,
        rank: usize,
        query: &Query,
        analysis: &QueryAnalysis,
        work: &mut [RowWork],
    ) -> Result<()> {
        for (level, bindings) in analysis.deferred.iter().enumerate() {
            for w in work.iter_mut() {
                if w.dropped {
                    continue;
                }
                for (unit, (slot, expr)) in bindings.iter().enumerate() {
                    let pos = MintPos {
                        query: rank,
                        stage: level as u32,
                        key: w.key.clone(),
                        slot: (unit as u32, 0),
                        sub: 0,
                    };
                    let value = match self.eval_unit(expr, &w.row, pos, &mut w.first_mints) {
                        Ok(v) => v.into_owned(),
                        // The executor's `Map` drops rows on a bad value.
                        Err(e) if e.is_bad_value() => {
                            w.dropped = true;
                            break;
                        }
                        Err(e) => return Err(e.into()),
                    };
                    store(&mut w.row, *slot, value);
                }
                if self.triggered() {
                    return Ok(());
                }
            }
        }
        for w in work.iter_mut() {
            if w.dropped {
                continue;
            }
            for (ai, action) in analysis.inserts.iter().enumerate() {
                let at = |unit: usize| MintPos::insert_unit(rank, &w.key, ai, unit);
                // The executor's insert loop propagates every error,
                // BadValue included.
                let key_val = self
                    .eval_unit(&action.key, &w.row, at(0), &mut w.first_mints)
                    .map_err(MorphaseError::from)?;
                let counter_before = self.ctx.factory.counter(&action.class);
                let oid = self.ctx.mk_skolem(&action.class, &key_val);
                let fresh = self.ctx.factory.counter(&action.class) > counter_before;
                self.note_identity(&oid, fresh, at(1), &mut w.first_mints);
                let mut fields = BTreeMap::new();
                for (i, (label, expr)) in action.attrs.iter().enumerate() {
                    let v = self
                        .eval_unit(expr, &w.row, at(2 + i), &mut w.first_mints)
                        .map_err(MorphaseError::from)?;
                    fields.insert(label.clone(), v.into_owned());
                }
                let record = Value::Record(fields);
                self.ledger.add_support(&oid, &record);
                if let Some(target) = self.target.as_deref_mut() {
                    write_contribution(target, &oid, &record, &query.name)?;
                }
                if let Some(rep) = self.repair.as_mut() {
                    rep.touched.insert(oid.clone());
                }
                w.contribs.push((oid, record));
            }
            if self.triggered() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Evaluate one unit, recording (and in repair mode checking) the fresh
    /// Skolem mints it performs and the target identities it references.
    fn eval_unit<'r>(
        &mut self,
        expr: &'r Lowered,
        row: &'r [Value],
        pos: MintPos,
        first_mints: &mut Vec<(Oid, MintPos)>,
    ) -> std::result::Result<Cow<'r, Value>, CplError>
    where
        'e: 'r,
    {
        let minting = expr.contains_skolem();
        let before = minting.then(|| self.ctx.factory.counter_snapshot());
        let value = expr.eval(row, self.ctx)?;
        if let Some(before) = &before {
            let mut subs: BTreeMap<ClassName, u32> = BTreeMap::new();
            for (class, _key, oid) in self.ctx.factory.assignments_since(before) {
                let sub = subs.entry(class).or_insert(0);
                let p = MintPos {
                    sub: *sub,
                    ..pos.clone()
                };
                *sub += 1;
                self.record_fresh(&oid, p, first_mints);
            }
        }
        self.check_value(&value, &pos);
        Ok(value)
    }

    /// A brand-new identity was minted at `pos`. In repair mode it must sort
    /// after every existing first mint of its class, or the fresh run's
    /// numbering would interleave differently.
    fn record_fresh(&mut self, oid: &Oid, pos: MintPos, first_mints: &mut Vec<(Oid, MintPos)>) {
        if self.repair.is_some() {
            if let Some(max) = self.ledger.class_max(oid.class()) {
                if pos < *max {
                    self.trip(format!(
                        "fresh identity {oid} minted before the class's latest first mint"
                    ));
                }
            }
        }
        self.ledger.record_mint(oid, pos.clone());
        first_mints.push((oid.clone(), pos));
    }

    /// The mk unit of an insert action resolved to `oid`.
    fn note_identity(
        &mut self,
        oid: &Oid,
        fresh: bool,
        pos: MintPos,
        first_mints: &mut Vec<(Oid, MintPos)>,
    ) {
        if fresh {
            return self.record_fresh(oid, pos, first_mints);
        }
        if self.repair.is_none() {
            return;
        }
        if let Some(existing) = self.ledger.positions.get(oid) {
            if *existing > pos {
                self.trip(format!("first mint of {oid} would move earlier"));
            }
            return;
        }
        let Some(rep) = self.repair.as_mut() else {
            return;
        };
        if let Some(old_pos) = rep.displaced.get(oid).cloned() {
            // A swept row re-derived with the same key restores its first
            // mint at the exact same position — the in-place update path.
            if old_pos.query == pos.query
                && old_pos.stage == pos.stage
                && old_pos.key == pos.key
                && old_pos.slot == pos.slot
            {
                rep.displaced.remove(oid);
                rep.touched.insert(oid.clone());
                self.ledger.record_mint(oid, old_pos.clone());
                first_mints.push((oid.clone(), old_pos));
            } else {
                self.trip(format!(
                    "displaced identity {oid} re-minted at a different position"
                ));
            }
            return;
        }
        self.trip(format!("identity {oid} has unknown provenance"));
    }

    /// Walk an evaluated value for references to target identities: every
    /// referenced identity must already have its first mint at or before
    /// `pos`, or the incremental numbering diverges from a fresh run.
    fn check_value(&mut self, value: &Value, pos: &MintPos) {
        if self.repair.is_none() {
            return;
        }
        let mut stack = vec![value];
        while let Some(v) = stack.pop() {
            match v {
                Value::Oid(oid) if self.target_classes.contains(oid.class()) => {
                    match self.ledger.positions.get(oid) {
                        Some(existing) if *existing <= *pos => {}
                        Some(_) => self.trip(format!("row references {oid} before its first mint")),
                        None => self.trip(format!(
                            "row references {oid}, whose first mint is displaced or unknown"
                        )),
                    }
                }
                Value::Set(xs) => stack.extend(xs),
                Value::List(xs) => stack.extend(xs),
                Value::Record(fields) => stack.extend(fields.values()),
                Value::Variant(_, inner) => stack.push(inner),
                _ => {}
            }
        }
    }
}

/// Mirror of the executor's insert-or-merge object write.
fn write_contribution(
    target: &mut Instance,
    oid: &Oid,
    record: &Value,
    query_name: &str,
) -> Result<()> {
    match target.value(oid) {
        None => target.insert(oid.clone(), record.clone())?,
        Some(existing) => {
            let merged = existing.merge_records(record).ok_or_else(|| {
                MorphaseError::Execution(format!(
                    "object {oid} receives conflicting values from query `{query_name}`"
                ))
            })?;
            target.update(oid, merged)?;
        }
    }
    Ok(())
}

fn trace_key(analysis: &QueryAnalysis, row: &[Value]) -> Result<Vec<Oid>> {
    analysis
        .slots
        .iter()
        .zip(&analysis.key_slots)
        .map(|(s, &slot)| match row.get(slot) {
            Some(Value::Oid(oid)) => Ok(oid.clone()),
            _ => Err(MorphaseError::Execution(format!(
                "scan variable `{}` missing from a produced row",
                s.var
            ))),
        })
        .collect()
}

/// The standing state of an incrementally maintained pipeline.
struct Core {
    queries: Vec<Query>,
    analyses: Vec<QueryAnalysis>,
    /// Schedule apply order (indices into `queries`).
    order: Vec<usize>,
    /// Per-query row caches, parallel to `queries`.
    caches: Vec<BTreeMap<Vec<Oid>, CachedRow>>,
    ledger: TargetLedger,
    factory: SkolemFactory,
    target: Instance,
    target_classes: BTreeSet<ClassName>,
}

enum CoreState {
    Incremental(Box<Core>),
    Rerun { target: Box<Instance> },
}

/// Plan against the current sources and build the standing state from
/// scratch over the pipeline's retained front half: the one entry point for
/// initial builds *and* rebuilds, so a rebuilt pipeline is a fresh run by
/// construction — fresh statistics, fresh plans, fresh Skolem factory — while
/// the program-only stages (meta-data, validation, snf, normal form) are
/// never repeated.
fn build_state(
    front: &Front,
    options: PipelineOptions,
    sources: &[Instance],
    exec: &mut ExecStats,
) -> Result<CoreState> {
    let refs: Vec<&Instance> = sources.iter().collect();
    let augmented = &front.augmented;
    let stats = cpl::Statistics::from_instances(&refs).with_cost_model(options.cost_model);
    let queries = plan_queries(options, &front.normal, &stats)?;
    let target_classes: BTreeSet<ClassName> =
        augmented.target.schema.class_names().into_iter().collect();
    let schemas: Vec<&Schema> = augmented.sources.iter().map(|b| &b.schema).collect();
    let mut analyses = Vec::with_capacity(queries.len());
    for query in &queries {
        let reads_target = query
            .plan
            .scanned_classes()
            .iter()
            .any(|c| target_classes.contains(c));
        match analyze_query(query, &schemas) {
            Some(analysis) if !reads_target => analyses.push(analysis),
            _ => {
                // Not incrementally capable: the standing state is just the
                // target of a plain run of the body over the same front.
                let run = run_pipeline(options, Cow::Borrowed(front), Rows::Resident(&refs), None)?;
                exec.absorb(run.exec);
                return Ok(CoreState::Rerun {
                    target: Box::new(run.target),
                });
            }
        }
    }
    front.check_sources(options, &refs)?;
    let schedule = plan_schedule(&queries);
    let order: Vec<usize> = schedule.stages.iter().flatten().copied().collect();

    // Fill the row caches from unrestricted stripped-plan runs, then replay
    // everything against a fresh factory and target.
    let mut caches: Vec<BTreeMap<Vec<Oid>, CachedRow>> = Vec::with_capacity(queries.len());
    let mut ledger = TargetLedger::default();
    let mut target = Instance::new(augmented.target.schema.name());
    let factory;
    {
        let mut ctx = EvalCtx::new(&refs).with_parallelism(options.parallelism);
        for analysis in &analyses {
            let rows = run_slots(&analysis.stripped, &mut ctx, exec)?;
            let mut cache = BTreeMap::new();
            for row in rows {
                let key = trace_key(analysis, &row)?;
                cache.insert(
                    key,
                    CachedRow {
                        row,
                        ..CachedRow::default()
                    },
                );
            }
            caches.push(cache);
        }
        // The fill runs above never mint (stripped plans are Skolem-free);
        // replay starts from a pristine factory regardless.
        ctx.factory = SkolemFactory::new();
        for (rank, &qi) in order.iter().enumerate() {
            let mut work: Vec<RowWork> = caches[qi]
                .iter()
                .map(|(k, c)| RowWork::seed(k.clone(), c.row.clone()))
                .collect();
            let mut replayer = Replayer {
                ctx: &mut ctx,
                ledger: &mut ledger,
                target_classes: &target_classes,
                target: Some(&mut target),
                repair: None,
            };
            replayer.replay_query(rank, &queries[qi], &analyses[qi], &mut work)?;
            for w in work {
                let entry = caches[qi].get_mut(&w.key).expect("seeded from this cache");
                entry.contribs = w.contribs;
                entry.first_mints = w.first_mints;
            }
        }
        factory = std::mem::replace(&mut ctx.factory, SkolemFactory::new());
    }
    verify_target_instance(options, augmented, &target)?;
    Ok(CoreState::Incremental(Box::new(Core {
        queries,
        analyses,
        order,
        caches,
        ledger,
        factory,
        target,
        target_classes,
    })))
}

enum RepairOutcome {
    InPlace {
        rows_removed: u64,
        rows_added: u64,
        objects_repaired: u64,
    },
    Rebuild(String),
}

/// Absorb one applied batch into the standing state, or report that a
/// rebuild is required. On `Ok(Rebuild)` the core is stale and must be
/// replaced; on `Err` the pipeline must be poisoned.
fn repair_incremental(
    sources: &[Instance],
    mutated: usize,
    options: PipelineOptions,
    core: &mut Core,
    delta: &BatchDelta,
    exec: &mut ExecStats,
) -> Result<RepairOutcome> {
    let refs: Vec<&Instance> = sources.iter().collect();
    let mut displaced: BTreeMap<Oid, MintPos> = BTreeMap::new();
    let mut touched: BTreeSet<Oid> = BTreeSet::new();
    let mut rows_removed = 0u64;
    let mut rows_added = 0u64;
    let mut trigger: Option<String> = None;

    // Phase A: sweep stale rows, in schedule order.
    let mut churns = vec![false; core.queries.len()];
    for &qi in &core.order {
        let analysis = &core.analyses[qi];
        let churn = (analysis.opaque && delta.has_stale())
            || analysis
                .foreign
                .iter()
                .any(|c| delta.class(c).is_some_and(|d| !d.stale().is_empty()));
        churns[qi] = churn;
        let victims: Vec<Vec<Oid>> = if churn {
            core.caches[qi].keys().cloned().collect()
        } else {
            let stale: Vec<Option<BTreeSet<Oid>>> = analysis
                .slots
                .iter()
                .map(|s| delta.class(&s.class).map(|d| d.stale()))
                .collect();
            if stale
                .iter()
                .all(|s| s.as_ref().is_none_or(|s| s.is_empty()))
            {
                Vec::new()
            } else {
                core.caches[qi]
                    .keys()
                    .filter(|key| {
                        key.iter()
                            .zip(&stale)
                            .any(|(oid, s)| s.as_ref().is_some_and(|s| s.contains(oid)))
                    })
                    .cloned()
                    .collect()
            }
        };
        for key in victims {
            let entry = core.caches[qi].remove(&key).expect("victim key from cache");
            rows_removed += 1;
            for (oid, record) in &entry.contribs {
                core.ledger.remove_support(oid, record)?;
                touched.insert(oid.clone());
            }
            for (oid, _) in &entry.first_mints {
                if let Some(pos) = core.ledger.displace(oid) {
                    displaced.insert(oid.clone(), pos);
                }
                touched.insert(oid.clone());
            }
        }
    }

    // Phase B: derive and replay the added rows, in schedule order.
    {
        let mut ctx = EvalCtx::new(&refs).with_parallelism(options.parallelism);
        ctx.factory = std::mem::replace(&mut core.factory, SkolemFactory::new());
        let result = (|| -> Result<()> {
            for (rank, &qi) in core.order.iter().enumerate() {
                let analysis = &core.analyses[qi];
                let mut added: BTreeMap<Vec<Oid>, SlotRow> = BTreeMap::new();
                if churns[qi] {
                    for row in run_slots(&analysis.stripped, &mut ctx, exec)? {
                        added.insert(trace_key(analysis, &row)?, row);
                    }
                } else {
                    for rotation in delta_rotations(&analysis.slots, delta, &sources[mutated]) {
                        for (var, set) in &rotation.restrictions {
                            ctx.restrict_scan(var.clone(), Arc::clone(set));
                        }
                        let rows = run_slots(&analysis.stripped, &mut ctx, exec);
                        ctx.clear_scan_restrictions();
                        for row in rows? {
                            added.insert(trace_key(analysis, &row)?, row);
                        }
                    }
                }
                if let Some(key) = added.keys().find(|k| core.caches[qi].contains_key(*k)) {
                    trigger = Some(format!(
                        "derived row {key:?} collides with a surviving cached row"
                    ));
                    return Ok(());
                }
                let mut work: Vec<RowWork> = added
                    .into_iter()
                    .map(|(key, row)| RowWork::seed(key, row))
                    .collect();
                rows_added += work.len() as u64;
                let mut replayer = Replayer {
                    ctx: &mut ctx,
                    ledger: &mut core.ledger,
                    target_classes: &core.target_classes,
                    target: None,
                    repair: Some(Repair {
                        displaced: &mut displaced,
                        touched: &mut touched,
                        trigger: &mut trigger,
                    }),
                };
                replayer.replay_query(rank, &core.queries[qi], analysis, &mut work)?;
                if trigger.is_some() {
                    return Ok(());
                }
                for w in work {
                    core.caches[qi].insert(
                        w.key.clone(),
                        CachedRow {
                            row: w.base,
                            contribs: w.contribs,
                            first_mints: w.first_mints,
                        },
                    );
                }
            }
            Ok(())
        })();
        core.factory = std::mem::replace(&mut ctx.factory, SkolemFactory::new());
        result?;
    }

    // Phase C: finalise. Any unrestored invariant escalates to a rebuild.
    if trigger.is_none() && !displaced.is_empty() {
        trigger = Some(format!(
            "{} first-minted identities were not restored",
            displaced.len()
        ));
    }
    if let Some(reason) = trigger {
        return Ok(RepairOutcome::Rebuild(reason));
    }
    let mut objects_repaired = 0u64;
    for oid in &touched {
        match core.ledger.settled(oid) {
            Settled::Gone => {
                return Ok(RepairOutcome::Rebuild(format!(
                    "object {oid} lost all contributions"
                )))
            }
            Settled::Conflicting(label) => {
                return Ok(RepairOutcome::Rebuild(format!(
                    "object {oid} has conflicting contributions for `{label}`"
                )))
            }
            Settled::Record(record) => match core.target.value(oid) {
                Some(existing) if *existing == record => {}
                Some(_) => {
                    core.target.update(oid, record)?;
                    objects_repaired += 1;
                }
                None => {
                    core.target.insert(oid.clone(), record)?;
                    objects_repaired += 1;
                }
            },
        }
    }
    Ok(RepairOutcome::InPlace {
        rows_removed,
        rows_added,
        objects_repaired,
    })
}

/// Fingerprint identifying which program a maintenance journal belongs to.
/// The journal stores *source* data, so only the dataset-shaping inputs are
/// hashed: program name, schema names, and clause count.
fn maintenance_fingerprint(program: &Program) -> u64 {
    let mut hash = Fingerprint::new();
    hash.eat(b"maintenance");
    hash.eat(program.name.as_bytes());
    hash.eat(program.target.schema.name().as_bytes());
    for binding in &program.sources {
        hash.eat(binding.schema.name().as_bytes());
    }
    hash.eat(&(program.clauses.len() as u64).to_le_bytes());
    hash.finish()
}

/// A standing, incrementally maintained Morphase pipeline (see the module
/// docs for the maintenance semantics).
pub struct MaterializedPipeline {
    /// The program-only front half, built once per pipeline; every build,
    /// rebuild and re-run plans and fills against it.
    front: Front,
    options: PipelineOptions,
    sources: Vec<Instance>,
    state: CoreState,
    stats: MaintainStats,
    source_classes: BTreeSet<ClassName>,
    /// The augmented program's source constraints, validated per batch when
    /// [`BatchConstraintMode`] is not `Off`.
    constraints: Vec<Clause>,
    /// Indices into `constraints` whose pre-batch cleanliness is unknown:
    /// a committed (`Report`-mode) batch left them violated, so the next
    /// check runs them in full until they come back clean.
    suspects: BTreeSet<usize>,
    journal: Option<PipelineJournal>,
    next_batch: u64,
    recovered: u64,
    poisoned: bool,
}

impl MaterializedPipeline {
    /// Build the pipeline: run the program over `sources` and stand up the
    /// maintenance state.
    pub fn new(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
    ) -> Result<MaterializedPipeline> {
        Self::stand_up(program, sources, options, None, 0, 0)
    }

    /// Build a durable pipeline journalling its (single) source into
    /// `durable.dir`. A journal left by a crashed pipeline for the same
    /// program is recovered: the source is rebuilt from the batch-0 dump
    /// plus every committed batch, and the pipeline stands up over it —
    /// callers re-apply only what [`Self::recovered_batches`] reports
    /// missing. The instance passed in `sources` seeds the journal on first
    /// open and is ignored when recovering.
    pub fn new_durable(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
        durable: &DurableOptions,
    ) -> Result<MaterializedPipeline> {
        let Ok([source]) = <[Instance; 1]>::try_from(sources) else {
            return Err(MorphaseError::Durability(
                "durable maintenance supports exactly one source instance".into(),
            ));
        };
        let source_schema = program
            .sources
            .first()
            .map(|b| b.schema.name().to_string())
            .ok_or_else(|| MorphaseError::Durability("program binds no source schema".into()))?;
        let fingerprint = maintenance_fingerprint(program);
        let (mut journal, recovery) =
            PipelineJournal::open(&durable.dir, fingerprint, &source_schema, durable.fault)?;
        let (mut source, recovered, next_batch) = if recovery.completed > 0 {
            (
                recovery.instance,
                recovery.completed - 1,
                recovery.completed,
            )
        } else {
            // The given source was populated before any log recorded it:
            // batch 0 spells its whole population out.
            let dump: Vec<Mutation> = source
                .all_objects()
                .map(|(oid, value)| Mutation::Insert(oid.clone(), value.clone()))
                .collect();
            journal.append(0, dump, &source, None)?;
            (source, 0, 1)
        };
        source.begin_mutation_log();
        Self::stand_up(
            program,
            vec![source],
            options,
            Some(journal),
            next_batch,
            recovered,
        )
    }

    /// The one constructor: build the front half — the only time this
    /// pipeline validates and normalises its program — then plan and fill
    /// the standing state against it.
    fn stand_up(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
        journal: Option<PipelineJournal>,
        next_batch: u64,
        recovered: u64,
    ) -> Result<MaterializedPipeline> {
        let front = Front::build(options, program)?;
        let mut stats = MaintainStats::default();
        let state = build_state(&front, options, &sources, &mut stats.delta_exec)?;
        Ok(MaterializedPipeline {
            source_classes: Self::source_classes(program),
            constraints: front.source_constraints().into_iter().cloned().collect(),
            front,
            options,
            sources,
            state,
            stats,
            suspects: BTreeSet::new(),
            journal,
            next_batch,
            recovered,
            poisoned: false,
        })
    }

    fn source_classes(program: &Program) -> BTreeSet<ClassName> {
        program
            .sources
            .iter()
            .flat_map(|b| b.schema.class_names())
            .collect()
    }

    /// Apply a mutation batch to source 0 and repair the target.
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> Result<BatchReport> {
        self.apply_batch_to(0, batch)
    }

    /// Apply a mutation batch to the given source and repair the target.
    /// Validation failures and constraint rejections
    /// ([`BatchConstraintMode::Enforce`]) leave the pipeline untouched; any
    /// failure after the source mutated poisons the pipeline (its state may
    /// no longer be consistent), and every later call errors.
    pub fn apply_batch_to(&mut self, source: usize, batch: &MutationBatch) -> Result<BatchReport> {
        if self.poisoned {
            return Err(MorphaseError::Execution(
                "materialized pipeline is poisoned by an earlier failure".into(),
            ));
        }
        self.validate_batch(source, batch)?;
        let mode = self.options.batch_constraints;
        let preimages = if mode == BatchConstraintMode::Enforce {
            self.sources[source].batch_preimages(batch)
        } else {
            Vec::new()
        };
        let delta = match self.sources[source].apply_batch(batch) {
            Ok(delta) => delta,
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        };
        let constraints = if mode == BatchConstraintMode::Off {
            None
        } else {
            self.check_batch_constraints(source, &delta, mode, &preimages)?
        };
        self.stats.batches += 1;
        let report = match self.maintain(source, &delta) {
            Ok(report) => report,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.commit(self.next_batch, &mut self.sources[source], None) {
                self.poisoned = true;
                return Err(e.into());
            }
            self.next_batch += 1;
        }
        Ok(BatchReport {
            constraints,
            ..report
        })
    }

    /// Run the incremental constraint check for an applied batch. In
    /// `Enforce` mode a violating batch is reverted (sources back to the
    /// pre-batch state, bit-exact) and rejected with the full deterministic
    /// violation list — the pipeline stays healthy. Internal failures
    /// (check or revert errors) poison the pipeline.
    fn check_batch_constraints(
        &mut self,
        source: usize,
        delta: &BatchDelta,
        mode: BatchConstraintMode,
        preimages: &[(Oid, Value)],
    ) -> Result<Option<BatchCheck>> {
        let check = {
            let clause_refs: Vec<&Clause> = self.constraints.iter().collect();
            let refs: Vec<&Instance> = self.sources.iter().collect();
            let dbs = Databases::new(&refs).with_parallelism(self.options.parallelism);
            match check_batch(
                &clause_refs,
                &dbs,
                delta,
                self.options.parallelism,
                &self.suspects,
            ) {
                Ok(check) => check,
                Err(e) => {
                    self.poisoned = true;
                    return Err(MorphaseError::Verification(e.to_string()));
                }
            }
        };
        self.stats.constraints_checked += check.certificate.validated();
        self.stats.constraints_skipped += check.certificate.skipped();
        self.stats.constraint_objects += check.certificate.checked();
        self.stats.constraint_probes += check.certificate.probes();
        self.stats.constraint_violations += check.certificate.violation_count();
        if !check.violations.is_empty() && mode == BatchConstraintMode::Enforce {
            if let Err(e) = self.sources[source].revert_batch(delta, preimages) {
                self.poisoned = true;
                return Err(e.into());
            }
            if self.journal.is_some() {
                // The journal must never see the rejected ops or their
                // reverts — drop them from the mutation log.
                let _ = self.sources[source].take_mutation_log();
            }
            self.stats.rejected_batches += 1;
            return Err(MorphaseError::Verification(
                EngineError::ConstraintsViolated {
                    violations: check.violations,
                }
                .to_string(),
            ));
        }
        // The committed state satisfies every constraint that checked clean;
        // ones still violated (Report mode commits them anyway) lose the
        // pre-clean contract and stay on full re-check until they recover.
        self.suspects = check
            .certificate
            .entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| !entry.violations.is_empty())
            .map(|(idx, _)| idx)
            .collect();
        Ok(Some(check))
    }

    /// Reject malformed batches before mutating anything: unknown classes,
    /// and updates/removes of identities absent from the source (net of
    /// earlier removes in the same batch).
    fn validate_batch(&self, source: usize, batch: &MutationBatch) -> Result<()> {
        let instance = self.sources.get(source).ok_or_else(|| {
            MorphaseError::Execution(format!("no source instance at index {source}"))
        })?;
        let mut removed: BTreeSet<&Oid> = BTreeSet::new();
        for op in &batch.ops {
            match op {
                SourceOp::Insert { class, .. } => {
                    if !self.source_classes.contains(class) {
                        return Err(MorphaseError::Model(format!(
                            "insert into unknown source class `{class}`"
                        )));
                    }
                }
                SourceOp::Update { oid, .. } => {
                    if removed.contains(oid) || !instance.contains(oid) {
                        return Err(MorphaseError::Model(format!(
                            "update of unknown object {oid}"
                        )));
                    }
                }
                SourceOp::Remove { oid } => {
                    if removed.contains(oid) || !instance.contains(oid) {
                        return Err(MorphaseError::Model(format!(
                            "remove of unknown object {oid}"
                        )));
                    }
                    removed.insert(oid);
                }
            }
        }
        Ok(())
    }

    fn maintain(&mut self, source: usize, delta: &BatchDelta) -> Result<BatchReport> {
        // A full re-run's report as is; the other outcomes fill theirs in.
        let rerun = BatchReport {
            outcome: BatchOutcome::FullRerun,
            rows_removed: 0,
            rows_added: 0,
            objects_repaired: 0,
            rebuild_reason: None,
            constraints: None,
        };
        let CoreState::Incremental(core) = &mut self.state else {
            let run = self.rerun_oracle()?;
            self.stats.full_reruns += 1;
            self.stats.delta_exec.absorb(run.exec);
            self.state = CoreState::Rerun {
                target: Box::new(run.target),
            };
            return Ok(rerun);
        };
        let outcome = repair_incremental(
            &self.sources,
            source,
            self.options,
            core,
            delta,
            &mut self.stats.delta_exec,
        )?;
        match outcome {
            RepairOutcome::InPlace {
                rows_removed,
                rows_added,
                objects_repaired,
            } => {
                self.stats.inplace_batches += 1;
                self.stats.rows_removed += rows_removed;
                self.stats.rows_added += rows_added;
                self.stats.objects_repaired += objects_repaired;
                Ok(BatchReport {
                    outcome: BatchOutcome::InPlace,
                    rows_removed,
                    rows_added,
                    objects_repaired,
                    ..rerun
                })
            }
            RepairOutcome::Rebuild(reason) => {
                self.state = build_state(
                    &self.front,
                    self.options,
                    &self.sources,
                    &mut self.stats.delta_exec,
                )?;
                self.stats.rebuild_batches += 1;
                Ok(BatchReport {
                    outcome: BatchOutcome::Rebuild,
                    rebuild_reason: Some(reason),
                    ..rerun
                })
            }
        }
    }

    /// The maintained target instance.
    pub fn target(&self) -> &Instance {
        match &self.state {
            CoreState::Incremental(core) => &core.target,
            CoreState::Rerun { target } => target,
        }
    }

    /// A source instance, as currently mutated.
    pub fn source(&self, index: usize) -> Option<&Instance> {
        self.sources.get(index)
    }

    /// Cumulative maintenance statistics.
    pub fn stats(&self) -> &MaintainStats {
        &self.stats
    }

    /// The augmented program's source constraints, in check order — the
    /// clause list a batch's [`ConstraintCertificate`] entries parallel
    /// (pass these to [`wol_engine::recheck`] to audit a certificate).
    ///
    /// [`ConstraintCertificate`]: wol_engine::ConstraintCertificate
    pub fn constraints(&self) -> &[Clause] {
        &self.constraints
    }

    /// The maintenance mode the current compile landed in.
    pub fn mode(&self) -> MaintainMode {
        match self.state {
            CoreState::Incremental(_) => MaintainMode::Incremental,
            CoreState::Rerun { .. } => MaintainMode::Rerun,
        }
    }

    /// True once a failure after a source mutation left the pipeline
    /// inconsistent; every later [`Self::apply_batch`] errors.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// How many applied batches a durable open recovered from the journal.
    pub fn recovered_batches(&self) -> u64 {
        self.recovered
    }

    /// Durable epilogue: fold the journal's WAL into a compact source
    /// snapshot. The pipeline keeps accepting batches afterwards.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(journal) = self.journal.as_mut() {
            journal.checkpoint(&self.sources[0], None)?;
        }
        Ok(())
    }

    /// Run the program from scratch over the current sources — the oracle
    /// the maintained target is bit-identical to. "From scratch" is the whole
    /// data-dependent half (plan, execute, verify) of the one pipeline body;
    /// the program-only front half is the pipeline's retained one.
    pub fn rerun_oracle(&self) -> Result<MorphaseRun> {
        let refs: Vec<&Instance> = self.sources.iter().collect();
        run_pipeline(
            self.options,
            Cow::Borrowed(&self.front),
            Rows::Resident(&refs),
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Morphase;
    use workloads::genome::{self, GenomeParams};

    fn genome_pipeline(params: &GenomeParams) -> MaterializedPipeline {
        let program = genome::program();
        let source = genome::generate_source(params);
        MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap()
    }

    fn assert_matches_oracle(pipeline: &MaterializedPipeline) {
        let oracle = pipeline.rerun_oracle().unwrap();
        if let Some(report) = pipeline.target().deep_eq_report(&oracle.target) {
            panic!("maintained target diverged from the oracle: {report}");
        }
    }

    /// Insert units order by `(action, unit)`, never aliasing across
    /// actions however many attributes one action has: attribute 998 of
    /// action 0 (unit 1000) precedes the key of action 1, and the mk unit
    /// sits between an action's key and its first attribute.
    #[test]
    fn mint_positions_order_wide_actions_before_the_next_action() {
        let at = |action, unit| MintPos::insert_unit(0, &[], action, unit);
        assert!(at(0, 2 + 998) < at(1, 0));
        assert!(at(0, 2 + 5000) < at(1, 0));
        assert!(at(1, 0) < at(1, 1) && at(1, 1) < at(1, 2));
        // The insert phase follows every deferred level of its query.
        let deferred = MintPos {
            stage: 3,
            slot: (7, 0),
            ..at(0, 0)
        };
        assert!(deferred < at(0, 0));
    }

    #[test]
    fn genome_program_is_incrementally_capable() {
        let pipeline = genome_pipeline(&GenomeParams::default());
        assert_eq!(pipeline.mode(), MaintainMode::Incremental);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn initial_build_matches_fresh_transform_exactly() {
        let pipeline = genome_pipeline(&GenomeParams::default());
        let fresh = Morphase::new()
            .transform(
                &genome::program(),
                &[&genome::generate_source(&GenomeParams::default())][..],
            )
            .unwrap();
        if let Some(report) = pipeline.target().deep_eq_report(&fresh.target) {
            panic!("replayed initial build must equal a fresh transform: {report}");
        }
    }

    #[test]
    fn insert_batches_stay_in_place_and_match_the_oracle() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let marker_s = ClassName::new("MarkerS");
        let batch = MutationBatch::new()
            .insert(
                clone_s,
                Value::record([
                    ("name", Value::from("fresh-clone")),
                    ("length", Value::int(1234)),
                ]),
            )
            .insert(
                marker_s,
                Value::record([
                    ("name", Value::from("fresh-marker")),
                    ("position", Value::int(77)),
                ]),
            );
        let report = pipeline.apply_batch(&batch).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert!(report.rows_added > 0);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn update_batches_stay_in_place_and_match_the_oracle() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let marker_s = ClassName::new("MarkerS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&marker_s)
            .next()
            .cloned()
            .unwrap();
        let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("position".into(), Value::int(999_999));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn removing_a_minted_key_escalates_to_a_rebuild() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let report = pipeline
            .apply_batch(&MutationBatch::new().remove(victim))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::Rebuild);
        assert!(report.rebuild_reason.is_some());
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn renaming_a_minted_key_escalates_to_a_rebuild() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::from("renamed-clone"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::Rebuild);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn empty_batches_are_cheap_no_ops() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let report = pipeline.apply_batch(&MutationBatch::new()).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_eq!(report.rows_added, 0);
        assert_eq!(report.rows_removed, 0);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn validation_failures_leave_the_pipeline_healthy() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let bogus = MutationBatch::new().insert(ClassName::new("NoSuchClass"), Value::int(1));
        assert!(pipeline.apply_batch(&bogus).is_err());
        assert!(!pipeline.is_poisoned());
        // A well-formed batch still applies.
        let clone_s = ClassName::new("CloneS");
        let ok = MutationBatch::new().insert(
            clone_s,
            Value::record([("name", Value::from("post-error-clone"))]),
        );
        assert_eq!(
            pipeline.apply_batch(&ok).unwrap().outcome,
            BatchOutcome::InPlace
        );
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn batched_remove_then_update_of_the_same_object_is_rejected() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let batch = MutationBatch::new()
            .remove(victim.clone())
            .update(victim, Value::record([("name", Value::from("zombie"))]));
        assert!(pipeline.apply_batch(&batch).is_err());
        assert!(!pipeline.is_poisoned());
    }

    #[test]
    fn cities_t3_falls_back_to_rerun_mode_and_stays_correct() {
        use workloads::cities::{generate_euro, CitiesWorkload};
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(6, 4, 7);
        let mut pipeline =
            MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap();
        assert_matches_oracle(&pipeline);
        if pipeline.mode() == MaintainMode::Rerun {
            let class = pipeline.source(0).unwrap().populated_classes()[0].clone();
            let victim = pipeline
                .source(0)
                .unwrap()
                .extent(&class)
                .next()
                .cloned()
                .unwrap();
            let report = pipeline
                .apply_batch(&MutationBatch::new().remove(victim))
                .unwrap();
            assert_eq!(report.outcome, BatchOutcome::FullRerun);
            assert_matches_oracle(&pipeline);
        }
    }

    #[test]
    fn mixed_streams_converge_batch_by_batch() {
        let mut pipeline = genome_pipeline(&GenomeParams {
            clones: 12,
            markers: 30,
            density: 0.7,
            seed: 5,
        });
        let clone_s = ClassName::new("CloneS");
        let marker_s = ClassName::new("MarkerS");
        for round in 0..6 {
            let mut batch = MutationBatch::new().insert(
                clone_s.clone(),
                Value::record([
                    ("name", Value::from(format!("round-{round}-clone"))),
                    ("length", Value::int(round)),
                ]),
            );
            if round % 2 == 0 {
                let victim = pipeline
                    .source(0)
                    .unwrap()
                    .extent(&marker_s)
                    .nth(round as usize)
                    .cloned()
                    .unwrap();
                let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
                if let Value::Record(fields) = &mut value {
                    fields.insert("position".into(), Value::int(round * 1000));
                }
                batch = batch.update(victim, value);
            }
            if round == 3 {
                let victim = pipeline
                    .source(0)
                    .unwrap()
                    .extent(&clone_s)
                    .next()
                    .cloned()
                    .unwrap();
                batch = batch.remove(victim);
            }
            pipeline.apply_batch(&batch).unwrap();
            assert_matches_oracle(&pipeline);
        }
        assert!(pipeline.stats().batches == 6);
        assert!(pipeline.stats().inplace_batches >= 3);
        assert!(pipeline.stats().rebuild_batches >= 1);
    }

    fn constrained_pipeline(mode: BatchConstraintMode) -> MaterializedPipeline {
        use workloads::constrained::{self, ConstrainedParams};
        let program = constrained::program();
        let source = constrained::generate_source(&ConstrainedParams::default());
        let options = PipelineOptions {
            batch_constraints: mode,
            ..PipelineOptions::default()
        };
        MaterializedPipeline::new(&program, vec![source], options).unwrap()
    }

    #[test]
    fn enforcing_pipeline_rejects_violations_without_poisoning() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Enforce);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 3);
        // Clean traffic commits with a certificate and no violations.
        let report = pipeline.apply_batch(&gen.next_batch(5)).unwrap();
        let check = report.constraints.expect("enforce mode attaches a check");
        assert!(check.violations.is_empty());
        assert_eq!(check.certificate.entries.len(), 3);
        // A duplicate email is rejected: the error carries the violation,
        // sources and target revert bit-exactly, nothing is poisoned.
        let before_source = pipeline.source(0).unwrap().clone();
        let before_target = pipeline.target().clone();
        let before_batches = pipeline.stats().batches;
        let err = pipeline.apply_batch(&gen.violating_batch()).unwrap_err();
        assert!(
            matches!(&err, MorphaseError::Verification(m) if m.contains("S1")),
            "unexpected rejection error: {err}"
        );
        assert!(!pipeline.is_poisoned());
        assert!(pipeline
            .source(0)
            .unwrap()
            .deep_eq_report(&before_source)
            .is_none());
        assert!(pipeline.target().deep_eq_report(&before_target).is_none());
        assert_eq!(pipeline.stats().batches, before_batches);
        assert_eq!(pipeline.stats().rejected_batches, 1);
        assert!(pipeline.stats().constraint_violations > 0);
        // The pipeline keeps absorbing clean traffic and matches the oracle.
        pipeline.apply_batch(&gen.next_batch(5)).unwrap();
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn reporting_pipeline_commits_violations_and_recovers() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Report);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 4);
        // The violating batch commits; the report carries the violations.
        let report = pipeline.apply_batch(&gen.violating_batch()).unwrap();
        let check = report.constraints.expect("report mode attaches a check");
        assert!(check.violations.iter().any(|v| v.clause == "S1"));
        assert!(!pipeline.is_poisoned());
        assert_matches_oracle(&pipeline);
        // While the violation stands, S1's pre-clean contract is void: the
        // next batch re-checks it in full and still reports it.
        let user_s = ClassName::new("UserS");
        let next = pipeline.apply_batch(&MutationBatch::new()).unwrap();
        let next_check = next.constraints.expect("still checking");
        let s1 = &next_check.certificate.entries[0];
        assert_eq!(s1.constraint, "S1");
        assert!(!s1.violations.is_empty());
        // Removing the imposter clears the violation; the constraint
        // returns to delta checking afterwards.
        let imposter = pipeline
            .source(0)
            .unwrap()
            .objects(&user_s)
            .find(|(_, v)| v.project("tier") == Some(&Value::int(constrained::IMPOSTER_TIER)))
            .map(|(oid, _)| oid.clone())
            .expect("the committed imposter is live");
        let cleared = pipeline
            .apply_batch(&MutationBatch::new().remove(imposter))
            .unwrap();
        assert!(cleared.constraints.unwrap().violations.is_empty());
        assert_matches_oracle(&pipeline);
        assert_eq!(pipeline.stats().rejected_batches, 0);
        assert!(pipeline.stats().constraint_violations >= 2);
    }

    #[test]
    fn off_mode_attaches_no_check_and_counts_no_constraints() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Off);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 6);
        let report = pipeline.apply_batch(&gen.next_batch(4)).unwrap();
        assert!(report.constraints.is_none());
        assert_eq!(pipeline.stats().constraints_checked, 0);
        assert_eq!(pipeline.stats().constraints_skipped, 0);
    }
}
