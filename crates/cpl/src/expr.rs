//! Row expressions over complex values.
//!
//! An [`Expr`] names its row variables; before it runs it is *lowered*
//! ([`Lowered`]) against the layout of the rows it reads
//! ([`crate::exec::layout`]), so each variable is a slot index, resolved
//! once per plan node rather than looked up per row. A lowered expression is
//! evaluated against a [`SlotRow`], the source instances (to dereference
//! object identities) and a Skolem factory (for `Mk_C`), **by reference**: a
//! variable borrows its slot, a projection through an identity borrows the
//! field inside the source instance. A value is owned only where it is built
//! (a record, variant, Skolem identity or boolean) or stored.
//!
//! A Skolem identity is a function of its class and key
//! ([`wol_model::skolem_id`]), so an expression evaluates to the same value
//! on any context, whichever factory it mints through: a worker's factory
//! only memoises, and folds into its owner's.

use std::borrow::Cow;
use std::collections::BTreeMap;

use wol_model::{ClassName, Instance, Label, Oid, PushOp, Record, SkolemFactory, Value};

use crate::error::CplError;
use crate::Result;

/// A row in slot form: one value per slot of its plan node's layout.
pub type SlotRow = Vec<Value>;

/// A complex-value expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A row variable.
    Var(String),
    /// A constant value.
    Const(Value),
    /// Project an attribute, dereferencing object identities through the
    /// source instances when necessary.
    Proj(Box<Expr>, Label),
    /// Build a record.
    Record(Vec<(Label, Expr)>),
    /// Build a variant value.
    Variant(Label, Box<Expr>),
    /// Create (or look up) the object identity of `class` keyed by the value
    /// of the argument expression.
    Skolem(ClassName, Box<Expr>),
    /// Equality of two values.
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality.
    Neq(Box<Expr>, Box<Expr>),
    /// Numeric / string less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Numeric / string less-than-or-equal.
    Leq(Box<Expr>, Box<Expr>),
    /// Boolean conjunction.
    And(Vec<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
}

impl Expr {
    /// A row variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Project an attribute from this expression.
    pub fn proj(self, label: impl Into<Label>) -> Expr {
        Expr::Proj(Box::new(self), label.into())
    }

    /// Project a dotted attribute path.
    pub fn path(self, dotted: &str) -> Expr {
        dotted.split('.').fold(self, |e, seg| e.proj(seg))
    }

    /// Equality test.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(other))
    }

    /// Conjunction of several predicates (true when empty).
    pub fn and(exprs: Vec<Expr>) -> Expr {
        Expr::And(exprs)
    }

    /// Visit every row variable this expression references, repeats
    /// included, without copying a name.
    pub(crate) fn for_each_var<'e>(&'e self, f: &mut impl FnMut(&'e str)) {
        match self {
            Expr::Var(v) => f(v),
            Expr::Const(_) => {}
            Expr::Proj(e, _) | Expr::Variant(_, e) | Expr::Skolem(_, e) | Expr::Not(e) => {
                e.for_each_var(f)
            }
            Expr::Record(fields) => fields.iter().for_each(|(_, e)| e.for_each_var(f)),
            Expr::Eq(a, b) | Expr::Neq(a, b) | Expr::Lt(a, b) | Expr::Leq(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::And(es) => es.iter().for_each(|e| e.for_each_var(f)),
        }
    }

    /// The row variables referenced, as a set.
    pub(crate) fn var_set(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.for_each_var(&mut |v| {
            out.insert(v.to_string());
        });
        out
    }

    /// Whether the expression (or any sub-expression) creates object
    /// identities through a Skolem function.
    pub fn contains_skolem(&self) -> bool {
        match self {
            Expr::Skolem(_, _) => true,
            Expr::Var(_) | Expr::Const(_) => false,
            Expr::Proj(e, _) | Expr::Variant(_, e) | Expr::Not(e) => e.contains_skolem(),
            Expr::Record(fields) => fields.iter().any(|(_, e)| e.contains_skolem()),
            Expr::Eq(a, b) | Expr::Neq(a, b) | Expr::Lt(a, b) | Expr::Leq(a, b) => {
                a.contains_skolem() || b.contains_skolem()
            }
            Expr::And(es) => es.iter().any(Expr::contains_skolem),
        }
    }

    /// Replace every row variable `defs` defines by the expression it
    /// returns. The query planner uses this to inline `Map` bindings into
    /// filter predicates so join equalities range over base scan variables
    /// only.
    pub(crate) fn substitute(&self, defs: &mut dyn FnMut(&str) -> Option<Expr>) -> Expr {
        let mut sub = |e: &Expr| Box::new(e.substitute(defs));
        match self {
            Expr::Var(v) => defs(v).unwrap_or_else(|| self.clone()),
            Expr::Const(_) => self.clone(),
            Expr::Proj(e, l) => Expr::Proj(sub(e), l.clone()),
            Expr::Record(fields) => Expr::Record(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), e.substitute(defs)))
                    .collect(),
            ),
            Expr::Variant(l, e) => Expr::Variant(l.clone(), sub(e)),
            Expr::Skolem(c, e) => Expr::Skolem(c.clone(), sub(e)),
            Expr::Eq(a, b) => Expr::Eq(sub(a), sub(b)),
            Expr::Neq(a, b) => Expr::Neq(sub(a), sub(b)),
            Expr::Lt(a, b) => Expr::Lt(sub(a), sub(b)),
            Expr::Leq(a, b) => Expr::Leq(sub(a), sub(b)),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.substitute(defs)).collect()),
            Expr::Not(e) => Expr::Not(sub(e)),
        }
    }
}

/// The evaluation context: the source instances (searched in order when
/// dereferencing object identities) and the Skolem factory.
pub struct EvalCtx<'a> {
    sources: Vec<&'a Instance>,
    /// The Skolem factory this context mints through. Identities do not
    /// depend on it; its memo detects collisions and is folded into the
    /// owning context's when a worker finishes.
    pub factory: SkolemFactory,
    /// When enabled, the executor records each join operator's actual output
    /// row count here, in post-order — the same order
    /// [`crate::optimizer::estimate_join_outputs`] emits estimates in.
    join_trace: Option<Vec<crate::exec::JoinActual>>,
    /// The thread budget operators partition their input against, under its
    /// one rule ([`Parallelism::partitions`]). Defaults to
    /// [`Parallelism::from_env`]: the machine's cores, overridable via
    /// `WOL_THREADS`. The persistent pool is only fetched — from the
    /// process-wide registry — by an operator that actually has more than
    /// one partition, so a one-thread budget never spawns a thread.
    ///
    /// [`Parallelism::partitions`]: wol_model::Parallelism::partitions
    /// [`Parallelism::from_env`]: wol_model::Parallelism::from_env
    parallelism: wol_model::Parallelism,
    /// Per-worker-slot statistics accumulated across every operator this
    /// context ran on more than one partition (slot `i` collects what
    /// partition `i` did).
    shard_stats: Vec<crate::exec::ExecStats>,
    /// Whether scan→filter→map towers may run on the columnar driver
    /// ([`crate::columnar`]). On by default; [`EvalCtx::set_columnar`] turns
    /// it off only to pin the row path, the tests' reference.
    columnar: bool,
    /// Telemetry of the columnar executor (kept out of [`ExecStats`] so the
    /// columnar/row differential contract — equal `ExecStats` — is not
    /// trivially violated by the path that ran).
    columnar_stats: crate::exec::ColumnarStats,
    /// Delta-aware execution: per scan *variable*, the only identities the
    /// scan may emit. Installed by the incremental maintainer
    /// (`morphase::maintain`) to run a plan restricted to a mutation delta —
    /// the semi-naive rotation. Scans apply their restriction directly; the
    /// index-probe fast path keeps firing and post-filters probe candidates
    /// by the probed variable's set (the attribute indexes answer from the
    /// full extent and do not see the restriction themselves). Only the
    /// columnar tower steps aside while any restriction is active.
    scan_restrictions: BTreeMap<String, std::sync::Arc<std::collections::BTreeSet<wol_model::Oid>>>,
}

impl<'a> EvalCtx<'a> {
    /// Create a context over the given source instances, with the
    /// environment's thread budget ([`wol_model::Parallelism::from_env`]).
    pub fn new(sources: &[&'a Instance]) -> Self {
        Self::worker(sources).with_parallelism(wol_model::Parallelism::from_env())
    }

    /// A one-thread context over the given sources with an empty factory,
    /// as built for each partition of a multi-partition operator: no env
    /// lookup (unlike [`EvalCtx::new`]) and its own operators never
    /// partition further.
    pub(crate) fn worker(sources: &[&'a Instance]) -> Self {
        EvalCtx {
            sources: sources.to_vec(),
            factory: SkolemFactory::new(),
            join_trace: None,
            parallelism: wol_model::Parallelism::sequential(),
            shard_stats: Vec::new(),
            columnar: true,
            columnar_stats: crate::exec::ColumnarStats::default(),
            scan_restrictions: BTreeMap::new(),
        }
    }

    /// A worker context over the given sources, for evaluating a whole query
    /// off the main thread (query-level parallelism): one thread and an
    /// empty factory by default; give it a budget with
    /// [`EvalCtx::with_parallelism`] and its operators partition inside the
    /// concurrently evaluated query. Pair with [`crate::exec::evaluate_query`]
    /// / [`crate::exec::apply_evaluated_query`], which folds its factory into
    /// the owner's. (The name is kept for the benchmark's frozen surface; the
    /// key-claim protocol it was named for is gone.)
    pub fn claim_worker(sources: &[&'a Instance]) -> Self {
        Self::worker(sources)
    }

    /// Set the worker-thread budget (builder style).
    pub fn with_parallelism(mut self, parallelism: wol_model::Parallelism) -> Self {
        self.set_parallelism(parallelism);
        self
    }

    /// Set the thread budget operators partition against.
    pub(crate) fn set_parallelism(&mut self, parallelism: wol_model::Parallelism) {
        self.parallelism = parallelism;
    }

    /// Apply `Mk_class(key)` through this context's factory.
    pub fn mk_skolem(&mut self, class: &ClassName, key: &Value) -> Result<Oid> {
        Ok(self.factory.mk(class, key)?)
    }

    /// The thread budget operators partition against.
    pub(crate) fn parallelism(&self) -> wol_model::Parallelism {
        self.parallelism
    }

    /// Merge one multi-partition operator's — or a finished worker context's
    /// — per-worker statistics into the context-wide per-shard accumulators
    /// (slot-wise). The pipeline driver uses this to roll the operator-level
    /// shard breakdown of concurrently evaluated queries back into the main
    /// context's view.
    pub fn absorb_shard_stats(&mut self, per_worker: &[crate::exec::ExecStats]) {
        if self.shard_stats.len() < per_worker.len() {
            self.shard_stats
                .resize_with(per_worker.len(), Default::default);
        }
        for (slot, stats) in self.shard_stats.iter_mut().zip(per_worker) {
            slot.absorb(*stats);
        }
    }

    /// Drain the accumulated per-shard statistics.
    pub fn take_shard_stats(&mut self) -> Vec<crate::exec::ExecStats> {
        std::mem::take(&mut self.shard_stats)
    }

    /// Whether scan→filter→project towers may run on the columnar executor.
    pub(crate) fn columnar_enabled(&self) -> bool {
        self.columnar
    }

    /// Enable or disable the columnar driver for this context. Disabling
    /// pins every plan to the row path: the reference the differential tests
    /// hold the columnar driver of the same lowered expressions to (results
    /// are identical either way). Nothing outside the tests turns it off.
    pub fn set_columnar(&mut self, enabled: bool) {
        self.columnar = enabled;
    }

    /// Record one columnar pipeline execution (telemetry only).
    pub(crate) fn record_columnar(&mut self, batch_rows: usize, chunks: usize) {
        self.columnar_stats.pipelines += 1;
        self.columnar_stats.batch_rows += batch_rows;
        self.columnar_stats.chunks += chunks;
    }

    /// Telemetry of the columnar executor for this context.
    pub fn columnar_stats(&self) -> crate::exec::ColumnarStats {
        self.columnar_stats
    }

    /// Drain the columnar telemetry (used when rolling a finished worker
    /// context's counters into the pipeline-wide report).
    pub fn take_columnar_stats(&mut self) -> crate::exec::ColumnarStats {
        std::mem::take(&mut self.columnar_stats)
    }

    /// Look up the value of an object identity in the sources. The first
    /// source holding it answers, which is the only one: no class has objects
    /// in two sources (Morphase checks this where sources enter), and an
    /// identity carries its class.
    pub fn deref(&self, oid: &Oid) -> Option<&'a Value> {
        self.sources.iter().find_map(|i| i.value(oid))
    }

    /// The instances visible to this context.
    pub(crate) fn sources(&self) -> &[&'a Instance] {
        &self.sources
    }

    /// Restrict the scan bound to `var` to the given identity set (the
    /// delta-evaluation hook: a semi-naive rotation pins one scan slot to the
    /// changed identities and later slots to the pre-batch extent). The
    /// restriction is keyed by scan *variable*, so two scans of the same
    /// class restrict independently.
    pub fn restrict_scan(
        &mut self,
        var: impl Into<String>,
        oids: std::sync::Arc<std::collections::BTreeSet<wol_model::Oid>>,
    ) {
        self.scan_restrictions.insert(var.into(), oids);
    }

    /// Drop every scan restriction (back to full-extent evaluation).
    pub fn clear_scan_restrictions(&mut self) {
        self.scan_restrictions.clear();
    }

    /// The active restriction for a scan variable, if any.
    pub(crate) fn scan_restriction(
        &self,
        var: &str,
    ) -> Option<&std::sync::Arc<std::collections::BTreeSet<wol_model::Oid>>> {
        self.scan_restrictions.get(var)
    }

    /// Whether any scan restriction is active (gates the columnar tower,
    /// which answers scans from unrestricted structures).
    pub(crate) fn has_scan_restrictions(&self) -> bool {
        !self.scan_restrictions.is_empty()
    }

    /// The full restriction map, for handing to worker contexts (partitions
    /// evaluate probe candidates off the calling context and must observe
    /// the same deltas).
    pub(crate) fn scan_restrictions_map(
        &self,
    ) -> &BTreeMap<String, std::sync::Arc<std::collections::BTreeSet<wol_model::Oid>>> {
        &self.scan_restrictions
    }

    /// Install a restriction map wholesale (worker-context setup).
    pub(crate) fn set_scan_restrictions(
        &mut self,
        map: BTreeMap<String, std::sync::Arc<std::collections::BTreeSet<wol_model::Oid>>>,
    ) {
        self.scan_restrictions = map;
    }

    /// Start recording per-join actual output rows (no-op if already on).
    pub fn enable_join_trace(&mut self) {
        if self.join_trace.is_none() {
            self.join_trace = Some(Vec::new());
        }
    }

    /// Drain the join records collected so far; recording stays enabled.
    /// Empty if tracing was never enabled.
    pub fn take_join_trace(&mut self) -> Vec<crate::exec::JoinActual> {
        match self.join_trace.as_mut() {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }

    /// Record one executed join's actual output (no-op unless tracing).
    pub(crate) fn record_join(&mut self, kind: &'static str, rows: usize) {
        if let Some(trace) = self.join_trace.as_mut() {
            trace.push(crate::exec::JoinActual { kind, rows });
        }
    }
}

/// The slot a binding of `name` writes in `layout`: the name's own, which it
/// overwrites, or a new one appended — a layout never holds a name twice.
pub(crate) fn bind_slot(layout: &mut Vec<String>, name: &str) -> usize {
    layout.iter().position(|n| n == name).unwrap_or_else(|| {
        layout.push(name.to_string());
        layout.len() - 1
    })
}

/// Write `value` into `slot` of `row`, appending when the slot is new.
pub(crate) fn store(row: &mut SlotRow, slot: usize, value: Value) {
    match row.get_mut(slot) {
        Some(cell) => *cell = value,
        None => row.push(value),
    }
}

/// Lower a `Map`'s bindings in order — each sees the ones before it —
/// extending `layout`; returns each binding's slot and lowered expression.
pub(crate) fn lower_bindings(
    bindings: &[(String, Expr)],
    layout: &mut Vec<String>,
) -> Vec<(usize, Lowered)> {
    let mut lowered = Vec::with_capacity(bindings.len());
    for (name, expr) in bindings {
        let expr = Lowered::new(expr, layout);
        lowered.push((bind_slot(layout, name), expr));
    }
    lowered
}

/// An [`Expr`] lowered against a layout. A variable the layout lacks raises
/// [`CplError::UnknownVariable`] *when evaluated*, so a plan whose rows never
/// reach the expression runs exactly as if the name had been looked up.
#[derive(Clone, Debug)]
pub struct Lowered {
    node: Node,
}

/// A lowered expression node: an [`Expr`] with its variables resolved to
/// slots. The columnar driver ([`crate::columnar`]) reads these too.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    Slot(usize),
    Unbound(String),
    Const(Value),
    Proj(Box<Node>, Label),
    Record(Vec<Node>, RecordShape),
    Variant(Label, Box<Node>),
    Skolem(ClassName, Box<Node>),
    /// A comparison, decided by [`PushOp::holds`]: `Eq`, `Neq`, `Lt` or `Leq`.
    Cmp(PushOp, Box<Node>, Box<Node>),
    And(Vec<Node>),
    Not(Box<Node>),
}

/// A record's fields lowered once: its distinct labels in ascending order,
/// and for each declared field, in declared order, the position of its
/// label among them. A row's record is then built with its fields evaluated
/// in declared order (so the first error is the one a map-building loop
/// would meet) and written straight into label order: no per-row interning
/// or sort, one allocation. A repeated label keeps its last value.
#[derive(Clone, Debug)]
pub(crate) struct RecordShape {
    labels: Vec<Label>,
    slots: Vec<usize>,
}

impl RecordShape {
    /// The shape of fields declared with `labels`, in this order.
    pub(crate) fn new<'a>(labels: impl Iterator<Item = &'a Label> + Clone) -> RecordShape {
        let mut sorted: Vec<Label> = labels.clone().cloned().collect();
        sorted.sort();
        sorted.dedup();
        let slots = labels
            .map(|label| sorted.binary_search(label).unwrap_or_else(|i| i))
            .collect();
        RecordShape {
            labels: sorted,
            slots,
        }
    }

    /// The record whose declared fields take `values`, in declared order.
    pub(crate) fn build(&self, values: impl Iterator<Item = Result<Value>>) -> Result<Record> {
        let mut fields: Vec<(Label, Value)> = self
            .labels
            .iter()
            .map(|l| (l.clone(), Value::Unit))
            .collect();
        for (&slot, value) in self.slots.iter().zip(values) {
            let value = value?;
            if let Some((_, field)) = fields.get_mut(slot) {
                *field = value;
            }
        }
        Ok(Record::from_sorted(fields))
    }
}

impl Lowered {
    /// Lower `expr` against the row layout `layout`.
    pub fn new(expr: &Expr, layout: &[String]) -> Lowered {
        Lowered {
            node: Node::lower(expr, layout),
        }
    }

    /// The lowered tree.
    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    /// Evaluate against a row of the layout this expression was lowered
    /// against, borrowing wherever the value already exists.
    pub fn eval<'r, 'c: 'r>(
        &'r self,
        row: &'r [Value],
        ctx: &mut EvalCtx<'c>,
    ) -> Result<Cow<'r, Value>> {
        self.node.eval(row, ctx)
    }

    /// Evaluate a predicate. A bad value ([`CplError::is_bad_value`]) counts
    /// as `false` — the row does not satisfy it, as in clause matching; a
    /// non-boolean value is an error.
    pub fn eval_predicate(&self, row: &[Value], ctx: &mut EvalCtx<'_>) -> Result<bool> {
        match self.eval(row, ctx) {
            Ok(value) => truthy(&value),
            Err(e) if e.is_bad_value() => Ok(false),
            Err(e) => Err(e),
        }
    }
}

impl Node {
    fn lower(expr: &Expr, layout: &[String]) -> Node {
        let lower = |e: &Expr| Box::new(Node::lower(e, layout));
        match expr {
            Expr::Var(v) => layout
                .iter()
                .position(|name| name == v)
                .map_or_else(|| Node::Unbound(v.clone()), Node::Slot),
            Expr::Const(value) => Node::Const(value.clone()),
            Expr::Proj(base, label) => Node::Proj(lower(base), label.clone()),
            Expr::Record(fields) => Node::Record(
                fields.iter().map(|(_, e)| Node::lower(e, layout)).collect(),
                RecordShape::new(fields.iter().map(|(label, _)| label)),
            ),
            Expr::Variant(label, payload) => Node::Variant(label.clone(), lower(payload)),
            Expr::Skolem(class, key) => Node::Skolem(class.clone(), lower(key)),
            Expr::Eq(a, b) => Node::Cmp(PushOp::Eq, lower(a), lower(b)),
            Expr::Neq(a, b) => Node::Cmp(PushOp::Neq, lower(a), lower(b)),
            Expr::Lt(a, b) => Node::Cmp(PushOp::Lt, lower(a), lower(b)),
            Expr::Leq(a, b) => Node::Cmp(PushOp::Leq, lower(a), lower(b)),
            Expr::And(es) => Node::And(es.iter().map(|e| Node::lower(e, layout)).collect()),
            Expr::Not(e) => Node::Not(lower(e)),
        }
    }

    fn eval<'r, 'c: 'r>(
        &'r self,
        row: &'r [Value],
        ctx: &mut EvalCtx<'c>,
    ) -> Result<Cow<'r, Value>> {
        let boolean = |b: bool| Cow::Owned(Value::Bool(b));
        Ok(match self {
            Node::Slot(slot) => Cow::Borrowed(&row[*slot]),
            Node::Unbound(name) => return Err(CplError::UnknownVariable(name.clone())),
            Node::Const(value) => Cow::Borrowed(value),
            Node::Proj(base, label) => match base.eval(row, ctx)? {
                Cow::Borrowed(value) => Cow::Borrowed(project(value, label, ctx)?),
                Cow::Owned(value) => Cow::Owned(project(&value, label, ctx)?.clone()),
            },
            Node::Record(fields, shape) => {
                let values = fields.iter().map(|f| f.eval(row, ctx).map(Cow::into_owned));
                Cow::Owned(Value::Record(shape.build(values)?))
            }
            Node::Variant(label, payload) => Cow::Owned(Value::Variant(
                label.clone(),
                Box::new(payload.eval(row, ctx)?.into_owned()),
            )),
            Node::Skolem(class, key) => {
                let key = key.eval(row, ctx)?;
                Cow::Owned(Value::Oid(ctx.mk_skolem(class, &key)?))
            }
            Node::Cmp(op, a, b) => {
                let (a, b) = (a.eval(row, ctx)?, b.eval(row, ctx)?);
                let holds = op.holds((&*a).into(), (&*b).into()).ok_or_else(|| {
                    CplError::BadValue(format!(
                        "cannot compare values of kinds `{}` and `{}`",
                        a.kind(),
                        b.kind()
                    ))
                })?;
                boolean(holds)
            }
            Node::And(conjuncts) => {
                for conjunct in conjuncts {
                    if !truthy(&*conjunct.eval(row, ctx)?)? {
                        return Ok(boolean(false));
                    }
                }
                boolean(true)
            }
            Node::Not(e) => boolean(!truthy(&*e.eval(row, ctx)?)?),
        })
    }
}

/// Project `label` out of `value`, dereferencing an object identity through
/// the sources: the field is borrowed from the record, wherever it lives.
fn project<'v, 'c: 'v>(value: &'v Value, label: &Label, ctx: &EvalCtx<'c>) -> Result<&'v Value> {
    let record = match value {
        Value::Oid(oid) => ctx
            .deref(oid)
            .ok_or_else(|| CplError::BadValue(format!("dangling object identity {oid}")))?,
        other => other,
    };
    record
        .project(label)
        .ok_or_else(|| CplError::MissingAttribute {
            kind: record.kind(),
            label: label.clone(),
        })
}

fn truthy(value: &Value) -> Result<bool> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(CplError::NotBoolean(other.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EvalCtx<'_> {
        /// Per-worker-slot statistics accumulated across all multi-partition
        /// operators run so far (empty if every operator had one partition).
        pub(crate) fn shard_stats(&self) -> &[crate::exec::ExecStats] {
            &self.shard_stats
        }
    }
    use crate::exec::tests::NamedRow;

    /// Lower against the named row's own layout and evaluate.
    fn eval(expr: &Expr, row: &NamedRow, ctx: &mut EvalCtx<'_>) -> Result<Value> {
        let layout: Vec<String> = row.keys().cloned().collect();
        let slots: SlotRow = row.values().cloned().collect();
        Lowered::new(expr, &layout)
            .eval(&slots, ctx)
            .map(Cow::into_owned)
    }

    fn eval_predicate(expr: &Expr, row: &NamedRow, ctx: &mut EvalCtx<'_>) -> Result<bool> {
        let layout: Vec<String> = row.keys().cloned().collect();
        let slots: SlotRow = row.values().cloned().collect();
        Lowered::new(expr, &layout).eval_predicate(&slots, ctx)
    }

    fn sample() -> (Instance, Oid, Oid) {
        let mut inst = Instance::new("euro");
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("currency", Value::str("franc")),
            ]),
        );
        let paris = inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Paris")),
                ("is_capital", Value::bool(true)),
                ("country", Value::oid(fr.clone())),
            ]),
        );
        (inst, fr, paris)
    }

    #[test]
    fn eval_projection_through_oid() {
        let (inst, _, paris) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let row = NamedRow::from([("E".to_string(), Value::oid(paris))]);
        let expr = Expr::var("E").path("country.name");
        assert_eq!(eval(&expr, &row, &mut ctx).unwrap(), Value::str("France"));
    }

    #[test]
    fn eval_record_variant_skolem() {
        let (inst, _, _) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let row = NamedRow::from([("N".to_string(), Value::str("France"))]);
        let expr = Expr::Record(vec![
            ("name".into(), Expr::var("N")),
            (
                "kind".into(),
                Expr::Variant("euro".into(), Box::new(Expr::Const(Value::Unit))),
            ),
        ]);
        let value = eval(&expr, &row, &mut ctx).unwrap();
        assert_eq!(value.project("kind"), Some(&Value::tag("euro")));

        let sk = Expr::Skolem(ClassName::new("CountryT"), Box::new(Expr::var("N")));
        let a = eval(&sk, &row, &mut ctx).unwrap();
        let b = eval(&sk, &row, &mut ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predicates_and_comparisons() {
        let (inst, _, paris) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let row = NamedRow::from([
            ("E".to_string(), Value::oid(paris)),
            ("N".to_string(), Value::int(3)),
        ]);
        let p = Expr::var("E").proj("is_capital");
        assert!(eval_predicate(&p, &row, &mut ctx).unwrap());
        let cmp = Expr::Lt(
            Box::new(Expr::var("N")),
            Box::new(Expr::Const(Value::int(5))),
        );
        assert!(eval_predicate(&cmp, &row, &mut ctx).unwrap());
        let leq = Expr::Leq(
            Box::new(Expr::var("N")),
            Box::new(Expr::Const(Value::int(3))),
        );
        assert!(eval_predicate(&leq, &row, &mut ctx).unwrap());
        let and = Expr::and(vec![p, cmp, leq]);
        assert!(eval_predicate(&and, &row, &mut ctx).unwrap());
        let not = Expr::Not(Box::new(Expr::Eq(
            Box::new(Expr::var("N")),
            Box::new(Expr::Const(Value::int(4))),
        )));
        assert!(eval_predicate(&not, &row, &mut ctx).unwrap());
        let neq = Expr::Neq(
            Box::new(Expr::var("N")),
            Box::new(Expr::Const(Value::int(4))),
        );
        assert!(eval_predicate(&neq, &row, &mut ctx).unwrap());
    }

    #[test]
    fn missing_attribute_is_false_in_predicates_but_error_in_eval() {
        let (inst, fr, _) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let row = NamedRow::from([("C".to_string(), Value::oid(fr))]);
        let expr = Expr::var("C")
            .proj("population")
            .eq(Expr::Const(Value::int(1)));
        assert!(!eval_predicate(&expr, &row, &mut ctx).unwrap());
        let err = eval(&Expr::var("C").proj("population"), &row, &mut ctx).unwrap_err();
        assert!(err.is_bad_value());
        assert_eq!(
            err.to_string(),
            "bad value: value of kind `record` has no attribute `population`"
        );
    }

    /// Evaluation borrows: a variable is its slot, a projection through an
    /// identity is the field inside the source instance; only built values
    /// (here a comparison's boolean) are owned.
    #[test]
    fn evaluation_borrows_slots_and_instance_fields() {
        let (inst, _, paris) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let layout = ["E".to_string()];
        let row: SlotRow = vec![Value::oid(paris.clone())];
        let var = Lowered::new(&Expr::var("E"), &layout);
        assert!(
            matches!(var.eval(&row, &mut ctx), Ok(Cow::Borrowed(v)) if std::ptr::eq(v, &row[0]))
        );
        let name = Lowered::new(&Expr::var("E").proj("name"), &layout);
        let field = inst.value(&paris).unwrap().project("name").unwrap();
        assert!(
            matches!(name.eval(&row, &mut ctx), Ok(Cow::Borrowed(v)) if std::ptr::eq(v, field))
        );
        let cmp = Lowered::new(
            &Expr::var("E").proj("name").eq(Expr::Const("Paris".into())),
            &layout,
        );
        assert!(matches!(
            cmp.eval(&row, &mut ctx),
            Ok(Cow::Owned(Value::Bool(true)))
        ));
    }

    #[test]
    fn unknown_variable_reported() {
        let (inst, _, _) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        assert!(matches!(
            eval(&Expr::var("missing"), &NamedRow::new(), &mut ctx),
            Err(CplError::UnknownVariable(_))
        ));
    }

    #[test]
    fn var_set_collects_variables() {
        let expr = Expr::and(vec![
            Expr::var("A").proj("x").eq(Expr::var("B").proj("y")),
            Expr::Skolem(ClassName::new("C"), Box::new(Expr::var("K"))).eq(Expr::var("A")),
        ]);
        let vars = expr.var_set();
        assert_eq!(vars.len(), 3);
        assert!(vars.contains("A") && vars.contains("B") && vars.contains("K"));
    }

    #[test]
    fn substitute_inlines_definitions() {
        let defs = BTreeMap::from([("N".to_string(), Expr::var("C").proj("name"))]);
        let pred = Expr::var("E").path("country.name").eq(Expr::var("N"));
        let inlined = pred.substitute(&mut |v| defs.get(v).cloned());
        assert_eq!(
            inlined,
            Expr::var("E")
                .path("country.name")
                .eq(Expr::var("C").proj("name"))
        );
        assert!(inlined.var_set().contains("C"));
        assert!(!inlined.var_set().contains("N"));
        // Variables without a definition are untouched, across all shapes.
        let all = Expr::and(vec![
            Expr::Not(Box::new(Expr::Neq(
                Box::new(Expr::var("N")),
                Box::new(Expr::Const(Value::int(1))),
            ))),
            Expr::Lt(Box::new(Expr::var("X")), Box::new(Expr::var("N"))),
            Expr::Leq(Box::new(Expr::var("X")), Box::new(Expr::var("X"))),
            Expr::Record(vec![("k".into(), Expr::var("N"))])
                .eq(Expr::Variant("t".into(), Box::new(Expr::var("N")))),
            Expr::Skolem(ClassName::new("T"), Box::new(Expr::var("N"))).eq(Expr::var("X")),
        ]);
        let inlined = all.substitute(&mut |v| defs.get(v).cloned());
        assert!(!inlined.var_set().contains("N"));
        assert!(inlined.var_set().contains("X"));
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        let (inst, fr, _) = sample();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let row = NamedRow::from([("C".to_string(), Value::oid(fr))]);
        let expr = Expr::var("C").proj("name");
        assert!(eval_predicate(&expr, &row, &mut ctx).is_err());
        // Nested under a connective it is still an error, never `false`.
        for nested in [
            Expr::and(vec![expr.clone()]),
            Expr::Not(Box::new(expr.clone())),
        ] {
            assert_eq!(
                eval_predicate(&nested, &row, &mut ctx),
                Err(CplError::NotBoolean("str"))
            );
        }
    }
}
