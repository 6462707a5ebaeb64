//! Single-pass execution of plans and queries.
//!
//! Normal-form WOL clauses compile to [`Query`] values; executing all of a
//! program's queries makes exactly one pass over the source databases
//! (Section 5: "A transformation program in which all the transformation
//! clauses are in normal form can easily be implemented in a single pass").
//!
//! ## Rows and layouts
//!
//! A normal-form query's binding structure is static, so every plan node has
//! a **layout** ([`layout`]): a `Vec<Var>` of its rows' variables, ordered,
//! each once. A [`wol_model::Var`] is an interned name, so a layout copies
//! pointers, finding a name's slot compares pointers, and the executor
//! interns nothing. Rows are [`SlotRow`]s in layout order. Before any row
//! runs, every expression of the plan and of its inserts is lowered against
//! the layout it reads ([`crate::expr::Lowered`],
//! [`crate::expr::Predicate`]): an ill-formed plan is refused there, on
//! every path, and no row is searched by name. Evaluation borrows instead of
//! copying.
//!
//! ## Partitioned execution
//!
//! Every operator has **one body**, written over *partitions* of its input:
//! the workspace's one rule, [`wol_model::Parallelism::partitions`], decides
//! how many from the context's budget (`EvalCtx::set_parallelism`) and the
//! operator's input size, and `run_partitioned` runs one partition inline on
//! the calling context and several on the persistent
//! [`wol_model::WorkerPool`]. Every operator splits its input into
//! contiguous chunks (scan+filter the class extent; the index-probe join its
//! key groups, then its driving rows), except that a hash join shards its
//! build side by key hash. A Skolem-bearing operator is no exception: an
//! identity is a function of its key, so each worker mints through a factory
//! of its own and the factories fold into the caller's in partition order.
//! Chunks merge in input order and the earliest failing chunk's error wins,
//! so the row stream, the merged [`ExecStats`] and the error are those of one
//! partition at every thread count (breakdown: [`EvalCtx::take_shard_stats`]).
//!
//! ## Writes
//!
//! A query is evaluated ([`evaluate_query`]: its plan's rows through its
//! insert actions, into the records they contribute) apart from being
//! applied ([`apply_evaluated_query`]), so a program's queries can evaluate
//! concurrently. Applying settles the writes one object at a time, in
//! ascending identity order, through [`wol_model::Record::merge`] — the one
//! definition of what contributions to an object settle to — with the
//! target's current record as one more contribution. The target, and the
//! conflict a failing program reports, are therefore functions of the set
//! of contributions: row order, partitioning and query order cannot move
//! them.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use wol_model::{
    chunk_ranges, ClassName, Conflict, Instance, Label, Oid, Record, ScanRestriction,
    SkolemFactory, Value, Var,
};

use crate::error::CplError;
use crate::expr::{
    bind_slot, lower_bindings, store, EvalCtx, Expr, Lowered, Predicate, RecordShape,
};
use crate::plan::{InsertAction, Plan, Query};
use crate::Result;

pub use crate::expr::SlotRow;

/// Statistics collected while executing plans; reported by the Morphase
/// pipeline and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scans.
    pub rows_scanned: usize,
    /// Rows produced by all operators together.
    pub rows_produced: usize,
    /// Rows emitted by the top of each query plan.
    pub rows_output: usize,
    /// Objects inserted or merged into the target.
    pub objects_written: usize,
    /// Attribute-index probes that replaced hash-join build sides.
    pub index_probes: usize,
    /// Probe-side cache hits: driving rows whose composite key was already
    /// probed, answered without touching the attribute index again. Skewed
    /// workloads repeat the same hot keys constantly, so this is where the
    /// zipfian head stops costing per-row work.
    pub probe_cache_hits: usize,
    /// Peak number of rows materialised by any single operator — the memory
    /// high-water mark that exposes accidental cross products.
    pub max_intermediate_rows: usize,
    /// Scans executed under a delta restriction
    /// ([`EvalCtx::restrict_scan`]): how much of the work was answered from
    /// changed-identity sets instead of full extents.
    pub restricted_scans: usize,
    /// Filter conjuncts the planner pushed into backend scan providers
    /// instead of evaluating in the executor (federated pipelines only).
    pub pushed_filters: usize,
    /// Rows the scan providers read from their backends before applying
    /// pushed filters.
    pub provider_rows_in: usize,
    /// Rows the scan providers actually streamed into the source instances
    /// after pushed filters; `provider_rows_in - provider_rows_out` is the
    /// work the executor never saw.
    pub provider_rows_out: usize,
}

impl ExecStats {
    /// Accumulate another stats value into this one.
    pub fn absorb(&mut self, other: ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_produced += other.rows_produced;
        self.rows_output += other.rows_output;
        self.objects_written += other.objects_written;
        self.index_probes += other.index_probes;
        self.probe_cache_hits += other.probe_cache_hits;
        self.max_intermediate_rows = self.max_intermediate_rows.max(other.max_intermediate_rows);
        self.restricted_scans += other.restricted_scans;
        self.pushed_filters += other.pushed_filters;
        self.provider_rows_in += other.provider_rows_in;
        self.provider_rows_out += other.provider_rows_out;
    }

    pub(crate) fn record_operator_output(&mut self, rows: usize) {
        self.rows_produced += rows;
        self.max_intermediate_rows = self.max_intermediate_rows.max(rows);
    }

    /// Merge one partition's probe counters. Row accounting is *not* merged
    /// here: the owning operator records its merged output once, whatever
    /// the partition count, so the totals are equal by construction.
    fn absorb_probe_counters(&mut self, other: &ExecStats) {
        self.index_probes += other.index_probes;
        self.probe_cache_hits += other.probe_cache_hits;
    }
}

/// Telemetry of the columnar executor (`crate::columnar`). Kept separate
/// from [`ExecStats`] on purpose: the columnar/row differential contract is
/// *equal* `ExecStats` for both paths, so which path ran must not leak into
/// them. Reported by the Morphase pipeline alongside the exec stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Scan→filter→project towers answered by the columnar executor.
    pub pipelines: usize,
    /// Rows those pipelines scanned batch-at-a-time.
    pub batch_rows: usize,
    /// Column chunks the pipelines read.
    pub chunks: usize,
}

impl ColumnarStats {
    /// Accumulate another telemetry value into this one.
    pub fn absorb(&mut self, other: &ColumnarStats) {
        self.pipelines += other.pipelines;
        self.batch_rows += other.batch_rows;
        self.chunks += other.chunks;
    }

    /// True if no columnar pipeline ran.
    pub fn is_empty(&self) -> bool {
        self.pipelines == 0
    }
}

// ---------------------------------------------------------------------------
// Partition scaffolding: count, run, merge in input order.
// ---------------------------------------------------------------------------

/// Run `work` once per partition and collect the results in partition order.
///
/// A single partition runs **inline** on the calling context: `work` sees
/// the caller's own sources, restrictions and factory — exactly what a plain
/// loop over the input would have seen — and nothing is dispatched,
/// allocated per worker, or recorded in the per-shard breakdown.
///
/// Several partitions become one job each on the persistent
/// [`wol_model::WorkerPool`], each with a fresh one-thread context over the
/// same shared sources and an empty factory. The workers' factories fold
/// into the caller's in partition order ([`SkolemFactory::merge`], which
/// detects a collision across workers), and the full per-worker stats are
/// accumulated into the context's per-shard breakdown.
///
/// Either way each partition counts into an [`ExecStats`] of its own, of
/// which only the probe counters are merged into `stats` — row accounting
/// stays with the calling operator, which records its merged output once.
/// The error of the *earliest* partition propagates — the same error a
/// left-to-right run over the whole input would have hit first.
pub(crate) fn run_partitioned<'a, T, A, F>(
    ctx: &mut EvalCtx<'a>,
    stats: &mut ExecStats,
    partitions: Vec<A>,
    work: F,
) -> Result<Vec<T>>
where
    T: Send,
    A: Send,
    F: Fn(A, &mut EvalCtx<'a>, &mut ExecStats) -> Result<T> + Sync,
{
    if partitions.len() == 1 {
        let mut share = ExecStats::default();
        let results: Result<Vec<T>> = partitions
            .into_iter()
            .map(|partition| work(partition, ctx, &mut share))
            .collect();
        stats.absorb_probe_counters(&share);
        return results;
    }
    let sources = ctx.sources().to_vec();
    let sources = &sources;
    let restrictions = ctx.scan_restrictions_map().clone();
    let restrictions = &restrictions;
    let work = &work;
    let jobs: Vec<wol_model::Job<'_, (ExecStats, SkolemFactory, Result<T>)>> = partitions
        .into_iter()
        .map(|partition| {
            Box::new(move || {
                let mut worker_ctx = EvalCtx::worker(sources);
                worker_ctx.set_scan_restrictions(restrictions.clone());
                let mut worker_stats = ExecStats::default();
                let result = work(partition, &mut worker_ctx, &mut worker_stats);
                (worker_stats, worker_ctx.factory, result)
            }) as wol_model::Job<'_, _>
        })
        .collect();
    let outcomes = wol_model::WorkerPool::shared(ctx.parallelism()).scope(jobs);
    let worker_stats: Vec<ExecStats> = outcomes.iter().map(|(ws, _, _)| *ws).collect();
    ctx.absorb_shard_stats(&worker_stats);
    for ws in &worker_stats {
        stats.absorb_probe_counters(ws);
    }
    let mut results = Vec::with_capacity(outcomes.len());
    for (_, factory, result) in outcomes {
        ctx.factory.merge(factory)?;
        results.push(result?);
    }
    Ok(results)
}

/// Split `rows` into at most `parts` contiguous chunks (the [`chunk_ranges`]
/// split) that *own* their rows, so a partition consumes its input instead
/// of cloning out of a shared slice; the first chunk reuses `rows` itself.
fn owned_chunks(mut rows: Vec<SlotRow>, parts: usize) -> Vec<Vec<SlotRow>> {
    let mut chunks: Vec<Vec<SlotRow>> = chunk_ranges(rows.len(), parts)
        .into_iter()
        .skip(1)
        .rev()
        .map(|range| rows.split_off(range.start))
        .collect();
    if !rows.is_empty() {
        chunks.push(rows);
    }
    chunks.reverse();
    chunks
}

/// Concatenate per-partition outputs in partition (= input) order.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    chunks.into_iter().flatten().collect()
}

/// Hash of a composite key tuple: the shard of the generic hash join that
/// owns a build row, and that a probe row looks its key up in.
/// [`std::collections::hash_map::DefaultHasher`] is deterministic across
/// processes, so shard assignment — and everything derived from it, like
/// per-shard statistics — is reproducible.
fn key_tuple_hash(values: &[Cow<'_, Value>]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    values.hash(&mut hasher);
    hasher.finish()
}

/// One row's join-key values, borrowed where they exist; `None` when a
/// missing optional attribute makes the row unjoinable.
type KeyTuple<'r> = Option<Vec<Cow<'r, Value>>>;

/// Evaluate one side's key tuples for every row, over `parts` chunks.
fn eval_key_tuples<'r, 'a: 'r>(
    rows: &'r [SlotRow],
    keys: &'r [Lowered],
    parts: usize,
    ctx: &mut EvalCtx<'a>,
    stats: &mut ExecStats,
) -> Result<Vec<KeyTuple<'r>>> {
    let ranges = chunk_ranges(rows.len(), parts);
    let chunks = run_partitioned(ctx, stats, ranges, |range, wctx, _ws| {
        rows[range]
            .iter()
            .map(|row| eval_keys(keys, row, wctx))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(concat(chunks))
}

/// Where a join's left, then right, input slots land in its output layout:
/// a name both sides bind keeps the right value (the probed identity).
struct Splice {
    slots: Vec<usize>,
    width: usize,
    capacity: usize,
}

impl Splice {
    fn new(out: &[Var], left: &[Var], right: &[Var], capacity: usize) -> Splice {
        let mut names = out.to_vec();
        let slots = left
            .iter()
            .chain(right)
            .map(|&n| bind_slot(&mut names, n))
            .collect();
        let width = names.len();
        Splice {
            slots,
            width,
            capacity,
        }
    }

    fn join(&self, left: &[Value], right: &[Value]) -> SlotRow {
        let mut row = Vec::with_capacity(self.capacity);
        row.resize(self.width, Value::Absent);
        for (value, &slot) in left.iter().chain(right).zip(&self.slots) {
            row[slot] = value.clone();
        }
        row
    }
}

/// One executed join operator's actual output row count, recorded (in
/// post-order) when the context's join trace is enabled
/// ([`EvalCtx::enable_join_trace`]). Reports pair these with the planner's
/// [`crate::optimizer::estimate_join_outputs`] estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinActual {
    /// Operator kind (`HashJoin`, `NestedLoopJoin`, `CrossJoin`).
    pub kind: &'static str,
    /// Rows the join actually produced.
    pub rows: usize,
}

/// A hash-join side answerable through the instances' attribute indexes
/// ([`wol_model::index`]): a bare class scan with at least one key expression
/// that is a single attribute projection off the scanned variable, or — in a
/// rotation that knows the variable's typed reference chains — off one of
/// those chains. Every such key pair is answered by one lookup in the index
/// keyed by all of their attributes together, and the identities found are
/// mapped back to the scanned objects that reach them through `hops`.
struct IndexableSide {
    /// The class the composite index is on: the scanned class, or the class
    /// a reference chain reaches.
    class: wol_model::ClassName,
    var: Var,
    /// The attributes the composite index is keyed by: ascending, each once.
    attrs: Vec<Label>,
    /// For each of `attrs`, the key pair whose value it is probed with. The
    /// other pairs — keys that are not such a projection, and a repeated
    /// attribute's later pairs — are verified against each candidate.
    probed: Vec<usize>,
    /// The reference chain `attrs` project off ([`RefChain::hops`]); empty
    /// when they project off the scanned variable itself.
    hops: Vec<(ClassName, Label)>,
}

/// A reference chain through the source schemas, typed once from them:
/// `a₁…aₙ` off class `C₀`, where attribute `aₖ` of class `Cₖ₋₁` holds a
/// reference to an object of class `Cₖ` (`Cₙ` is `class`). The maintainer
/// hands the chains a query's foreign reads follow to the context its
/// rotations run under ([`EvalCtx::set_reference_chains`]), where a probe
/// join may answer a key `X.a₁…aₙ.b` off a scan `X` of `C₀` by looking `Cₙ`
/// up by `b` and inverting the chain ([`invert_chain`]). A chain is derived
/// from types, never from data: a reference holding an object of another
/// class than its type names is outside the schema, and is not followed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefChain {
    /// `(C₀, a₁) … (Cₙ₋₁, aₙ)`: each hop's holder class and the attribute
    /// that references the next object.
    pub hops: Vec<(ClassName, Label)>,
    /// `Cₙ`, the class of the objects the chain reaches.
    pub class: ClassName,
}

/// The one chain inversion: replace the identities `found[start..]` —
/// objects the chain `hops` reaches — by the objects of the chain's first
/// class that reach them, hop by hop from the last, each hop one lookup per
/// identity in the attribute index on the hop's reference attribute. The
/// holders come out deduplicated in ascending identity order; empty `hops`
/// leave `found` as it is.
pub fn invert_chain(
    hops: &[(ClassName, Label)],
    sources: &[&Instance],
    found: &mut Vec<Oid>,
    start: usize,
) {
    if hops.is_empty() {
        return;
    }
    let mut holders = Vec::new();
    for (class, attr) in hops.iter().rev() {
        for reference in found.drain(start..).map(Value::Oid) {
            for source in sources {
                let attrs = std::slice::from_ref(attr);
                source.lookup_by_attrs(class, attrs, &[&reference], &mut holders);
            }
        }
        found.append(&mut holders);
    }
    let mut reached = found.split_off(start);
    reached.sort_unstable();
    reached.dedup();
    found.append(&mut reached);
}

/// The attribute `key` projects off scan variable `var`, if it is such a
/// single projection: the one key shape an attribute index answers.
fn probed_attr(var: Var, key: &Expr) -> Option<&Label> {
    let Expr::Proj(base, attr) = key else {
        return None;
    };
    matches!(base.as_ref(), Expr::Var(v) if *v == var).then_some(attr)
}

/// The scanned variable of `plan` when the index fast path answers it: a
/// bare class scan with at least one of `keys` (this side's expression from
/// each `(left, right)` pair) a [`probed_attr`]. Shared with the planner
/// ([`crate::optimizer`]), which orients hash-join sides precisely so this
/// fast path fires, and with [`layout`] — they must never diverge from
/// [`indexable_side`] without chains, which is `Some` exactly when this is.
pub(crate) fn indexable_var<'k>(
    plan: &Plan,
    mut keys: impl Iterator<Item = &'k Expr>,
) -> Option<Var> {
    let Plan::Scan { var, .. } = plan else {
        return None;
    };
    keys.any(|key| probed_attr(*var, key).is_some())
        .then_some(*var)
}

/// Which projection base `base` is off the scan of `class` bound to `var`:
/// `Some(None)` for the variable itself, `Some(Some(chain))` for the
/// variable followed by one of `chains` off `class`, `None` for anything
/// else.
fn chain_of<'c>(
    var: Var,
    class: &ClassName,
    base: &Expr,
    chains: &'c [RefChain],
) -> Option<Option<&'c RefChain>> {
    let mut labels = Vec::new();
    let mut holder = base;
    while let Expr::Proj(inner, label) = holder {
        labels.push(label);
        holder = inner;
    }
    if !matches!(holder, Expr::Var(v) if *v == var) {
        return None;
    }
    if labels.is_empty() {
        return Some(None);
    }
    let chain = chains.iter().find(|chain| {
        chain.hops.first().is_some_and(|(first, _)| first == class)
            && chain
                .hops
                .iter()
                .map(|(_, a)| a)
                .eq(labels.iter().rev().copied())
    })?;
    Some(Some(chain))
}

/// The probed side of a hash join: `Some` without `chains` exactly when
/// [`indexable_var`] is. With `chains`, a key projecting an attribute off
/// the scanned variable followed by one of the scanned class's reference
/// chains makes the side probeable too. Plain projections win — a side with
/// one probes them alone, as an unrestricted run does — and otherwise the
/// pairs off the first chain a key reaches are probed through it.
fn indexable_side<'k>(
    plan: &Plan,
    keys: impl Iterator<Item = &'k Expr>,
    chains: &[RefChain],
) -> Option<IndexableSide> {
    let Plan::Scan { class, var } = plan else {
        return None;
    };
    let reached: Vec<(Option<&RefChain>, &Label, usize)> = (keys.enumerate())
        .filter_map(|(i, key)| {
            let Expr::Proj(base, attr) = key else {
                return None;
            };
            Some((chain_of(*var, class, base, chains)?, attr, i))
        })
        .collect();
    let via = reached
        .iter()
        .map(|(chain, ..)| *chain)
        .min_by_key(Option::is_some)?;
    let mut pairs: Vec<(Label, usize)> = (reached.into_iter())
        .filter(|(chain, ..)| *chain == via)
        .map(|(_, attr, i)| (attr.clone(), i))
        .collect();
    // One index per attribute set, whatever the pairs' order: ascending
    // attributes, each probed with its first pair.
    pairs.sort();
    pairs.dedup_by(|later, earlier| later.0 == earlier.0);
    let (attrs, probed) = pairs.into_iter().unzip();
    let (class, hops) = match via {
        None => (class.clone(), Vec::new()),
        Some(chain) => (chain.class.clone(), chain.hops.clone()),
    };
    Some(IndexableSide {
        class,
        var: *var,
        attrs,
        probed,
        hops,
    })
}

/// Whether a scan of `class` emits `oid` from a restriction set: an identity
/// of its class that a source holds.
fn scans(class: &ClassName, sources: &[&Instance], oid: &Oid) -> bool {
    oid.class() == class && sources.iter().any(|source| source.contains(oid))
}

/// The number of identities a plan side's underlying scan emits under the
/// active restrictions — exactly what [`scan_extent`] visits: under `Only` Δ
/// the identities of Δ of the scan's class that a source holds, under
/// `Except` Δ the class's extent less those, otherwise the full extent.
/// Filters and maps only shrink the row count, so this is an upper bound on
/// the side's driving cost — enough to orient a delta join so the Δ-pinned
/// slot drives. `None` when the side bottoms out in anything but a scan.
fn scan_cardinality(plan: &Plan, ctx: &EvalCtx<'_>) -> Option<usize> {
    match plan {
        Plan::Scan { class, var } => {
            let sources = ctx.sources();
            let extent = || -> usize { sources.iter().map(|s| s.extent_size(class)).sum() };
            let held = |delta: &BTreeSet<Oid>| -> usize {
                delta
                    .iter()
                    .filter(|oid| scans(class, sources, oid))
                    .count()
            };
            Some(match ctx.scan_restriction(*var) {
                Some(ScanRestriction::Only(delta)) => held(delta),
                Some(ScanRestriction::Except(delta)) => extent().saturating_sub(held(delta)),
                None => extent(),
            })
        }
        Plan::Filter { input, .. } | Plan::Map { input, .. } => scan_cardinality(input, ctx),
        _ => None,
    }
}

/// The layout of a plan's rows: the variable each slot holds, as interned
/// [`Var`]s. A scan has one slot; a `Map` binding overwrites its name's slot
/// or appends one; a join is left ++ right, a name on both sides keeping the
/// right value in the left slot; an index-probe join (the path an
/// unrestricted run takes whenever `indexable_var` finds one) appends, or
/// overwrites, the probed variable to the driving side's layout — and a
/// delta-restricted run that drives from the other side writes into the
/// same layout.
pub fn layout(plan: &Plan) -> Vec<Var> {
    let joined = |mut left: Vec<Var>, right: Vec<Var>| {
        for name in right {
            bind_slot(&mut left, name);
        }
        left
    };
    match plan {
        Plan::Scan { var, .. } => vec![*var],
        Plan::Filter { input, .. } => layout(input),
        Plan::Map { input, bindings } => {
            let names = bindings.iter().map(|(name, _)| *name).collect();
            joined(layout(input), names)
        }
        Plan::NestedLoopJoin { left, right, .. } | Plan::CrossJoin { left, right } => {
            joined(layout(left), layout(right))
        }
        Plan::HashJoin { left, right, keys } => {
            if let Some(var) = indexable_var(left, keys.iter().map(|(l, _)| l)) {
                joined(layout(right), vec![var])
            } else if let Some(var) = indexable_var(right, keys.iter().map(|(_, r)| r)) {
                joined(layout(left), vec![var])
            } else {
                joined(layout(left), layout(right))
            }
        }
    }
}

/// The hash-join index fast path: drive the join from `driving`'s rows and
/// answer each key tuple with one lookup in the source instances' composite
/// index on `side.attrs` (the conjunction of every key pair that projects an
/// attribute off the scanned variable, or off one of its reference chains —
/// whose identities [`invert_chain`] then maps back to the scanned objects
/// that reach them), verifying only the remaining pairs against each
/// candidate.
///
/// Every scan-side key is lowered against the scan's own layout, so it reads
/// the probed variable alone and a key tuple's verified identities are a
/// function of the tuple: repeated composite keys — the common case on
/// skewed data, where a few hot values dominate the driving side — are
/// probed **once**, in two passes over contiguous partitions. The first
/// probes each distinct key tuple in first-occurrence order, appending its
/// verified identities to the partition's one list. The second splices every
/// driving row, in order, with its tuple's identities in `out` (the join's
/// [`layout`]); a tuple's first row counts its probe, every other row a cache
/// hit ([`ExecStats::probe_cache_hits`]), so the per-shard breakdown sums to
/// the merged counts. Rows, counts and the error are a one-partition run's.
fn probe_join(
    driving: &Prepared<'_>,
    driving_keys: &[Lowered],
    scan_keys: &[Lowered],
    side: &IndexableSide,
    (out, width): (&[Var], usize),
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    let driving_rows = rows_of(driving, width, ctx, stats)?;
    let probed_var = std::slice::from_ref(&side.var);
    let splice = Splice::new(out, &layout(driving.plan), probed_var, width);
    let probe = Probe {
        side,
        residual: (scan_keys.iter().enumerate())
            .filter(|(i, _)| !side.probed.contains(i))
            .collect(),
    };
    let parts = ctx.parallelism().partitions(driving_rows.len());
    let key_tuples = eval_key_tuples(&driving_rows, driving_keys, parts, ctx, stats)?;
    // Each keyed row's group, and each group's first row with its key.
    let mut group_of: Vec<Option<usize>> = Vec::with_capacity(key_tuples.len());
    let mut firsts: Vec<(usize, &[Cow<'_, Value>])> = Vec::new();
    let mut by_key: HashMap<&[Cow<'_, Value>], usize> = HashMap::new();
    for (idx, values) in key_tuples.iter().enumerate() {
        group_of.push(values.as_deref().map(|key| {
            let group = *by_key.entry(key).or_insert(firsts.len());
            if group == firsts.len() {
                firsts.push((idx, key));
            }
            group
        }));
    }
    drop(by_key);
    let (driving_rows, firsts, probe) = (&driving_rows, &firsts, &probe);
    let ranges = chunk_ranges(firsts.len(), ctx.parallelism().partitions(firsts.len()));
    // A partition gathers its groups' verified identities into one list and
    // the offsets where each group ends, so no group keeps a list of its own.
    let probed = run_partitioned(ctx, stats, ranges, |range, wctx, _ws| {
        let (mut values, mut found) = (Vec::new(), Vec::new());
        let mut ends = Vec::with_capacity(range.len());
        for &(_, key) in &firsts[range] {
            probe.candidates(&mut values, key, wctx, &mut found)?;
            ends.push(found.len());
        }
        Ok((found, ends))
    })?;
    // Group `g`'s identities are `found[bounds[g]..bounds[g + 1]]`.
    let (mut found, mut bounds) = (Vec::new(), vec![0]);
    for (part, ends) in probed {
        bounds.extend(ends.iter().map(|end| found.len() + end));
        found.extend(part);
    }
    let (group_of, found, bounds, splice) = (&group_of, &found, &bounds, &splice);
    let ranges = chunk_ranges(driving_rows.len(), parts);
    let chunks = run_partitioned(ctx, stats, ranges, |range, _wctx, ws| {
        let mut out = Vec::new();
        for idx in range {
            let Some(group) = group_of[idx] else { continue };
            let first = firsts[group].0 == idx;
            ws.index_probes += usize::from(first);
            ws.probe_cache_hits += usize::from(!first);
            let row = &driving_rows[idx];
            let joined = found[bounds[group]..bounds[group + 1]]
                .iter()
                .map(|oid| splice.join(row, &[Value::Oid(oid.clone())]));
            out.extend(joined);
        }
        ws.rows_produced += out.len();
        Ok(out)
    })?;
    let rows = concat(chunks);
    ctx.record_join("HashJoin", rows.len());
    stats.record_operator_output(rows.len());
    Ok(rows)
}

/// The index-probed side of a probe join: the scan-side keys no index
/// answers (`residual`, by key pair), lowered over the probed scan's row.
struct Probe<'s> {
    side: &'s IndexableSide,
    residual: Vec<(usize, &'s Lowered)>,
}

impl Probe<'_> {
    /// Append one key tuple's verified identities to `found`: one lookup in
    /// the composite index on `side.attrs` with the probed pairs' values
    /// (gathered in scratch `values`), mapped back through `side.hops` to
    /// the scanned objects that reach what it found ([`invert_chain`]; in
    /// ascending identity order), then the probed scan's delta
    /// restriction and the residual pairs checked against each candidate.
    fn candidates<'k>(
        &self,
        values: &mut Vec<&'k Value>,
        key_values: &'k [Cow<'_, Value>],
        ctx: &mut EvalCtx<'_>,
        found: &mut Vec<Oid>,
    ) -> Result<()> {
        let side = self.side;
        let start = found.len();
        values.clear();
        values.extend(side.probed.iter().map(|&i| &*key_values[i]));
        for instance in ctx.sources() {
            instance.lookup_by_attrs(&side.class, &side.attrs, values, found);
        }
        invert_chain(&side.hops, ctx.sources(), found, start);
        // The probed scan's delta restriction applies here, as a candidate
        // filter: the index answers from the full extent, so membership in
        // the restriction set is re-checked per candidate identity.
        let restriction = ctx.scan_restriction(side.var).cloned();
        if restriction.is_none() && self.residual.is_empty() {
            return Ok(());
        }
        // Keep the verified candidates in order, compacted to the front.
        let mut kept = start;
        'candidates: for at in start..found.len() {
            let oid = &found[at];
            if restriction.as_ref().is_some_and(|r| !r.admits(oid)) {
                continue;
            }
            let row = [Value::Oid(oid.clone())];
            for (i, key) in &self.residual {
                match key.eval(&row, ctx) {
                    Ok(value) if value == key_values[*i] => {}
                    Err(e) if !e.is_bad_value() => return Err(e),
                    _ => continue 'candidates,
                }
            }
            found.swap(kept, at);
            kept += 1;
        }
        found.truncate(kept);
        Ok(())
    }
}

/// The generic hash join. The *build side* is partitioned by key hash into
/// per-partition shard tables (each partition builds the table for the keys
/// it owns, scanning the pre-evaluated key tuples), then the probe side is
/// processed in contiguous chunks: each probe row looks up the shard that
/// owns its key's hash. A key's build rows all live in one shard, in build
/// order, and probe chunks merge in probe order — so the output row stream
/// is that of a single build-then-probe loop at every partition count.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    left_rows: &[SlotRow],
    right_rows: &[SlotRow],
    left_keys: &[Lowered],
    right_keys: &[Lowered],
    splice: &Splice,
    parts: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    let left_tuples = eval_key_tuples(left_rows, left_keys, parts, ctx, stats)?;
    let right_tuples = eval_key_tuples(right_rows, right_keys, parts, ctx, stats)?;
    let left_hashes: Vec<u64> = left_tuples
        .iter()
        .map(|tuple| tuple.as_ref().map_or(0, |values| key_tuple_hash(values)))
        .collect();
    let (left_tuples, left_hashes) = (&left_tuples, &left_hashes);
    /// A key tuple to the build-row indices carrying it, in build order.
    type ShardTable<'k, 'r> = HashMap<&'k [Cow<'r, Value>], Vec<usize>>;
    let shard_tables: Vec<ShardTable<'_, '_>> =
        run_partitioned(ctx, stats, (0..parts).collect(), |shard, _wctx, _ws| {
            let mut table: ShardTable<'_, '_> = HashMap::new();
            for (idx, tuple) in left_tuples.iter().enumerate() {
                if let Some(values) = tuple {
                    if left_hashes[idx] % parts as u64 == shard as u64 {
                        table.entry(values.as_slice()).or_default().push(idx);
                    }
                }
            }
            Ok(table)
        })?;
    let (shard_tables, right_tuples) = (&shard_tables, &right_tuples);
    let ranges = chunk_ranges(right_rows.len(), parts);
    let chunks = run_partitioned(ctx, stats, ranges, |range, _wctx, ws| {
        let mut out = Vec::new();
        for idx in range {
            let Some(values) = &right_tuples[idx] else {
                continue;
            };
            let table = &shard_tables[(key_tuple_hash(values) % parts as u64) as usize];
            if let Some(matches) = table.get(values.as_slice()) {
                for &left_idx in matches {
                    out.push(splice.join(&left_rows[left_idx], &right_rows[idx]));
                }
            }
        }
        ws.rows_produced += out.len();
        Ok(out)
    })?;
    Ok(concat(chunks))
}

/// Evaluate all keys of one join side against a row.
fn eval_keys<'r, 'a: 'r>(
    keys: &'r [Lowered],
    row: &'r [Value],
    ctx: &mut EvalCtx<'a>,
) -> Result<KeyTuple<'r>> {
    let mut values = Vec::with_capacity(keys.len());
    for key in keys {
        match key.eval(row, ctx) {
            Ok(value) => values.push(value),
            Err(e) if e.is_bad_value() => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(values))
}

/// What a scan of `class` bound to `var` emits, as `emit` renders each
/// identity: every source's extent in order, narrowed by the variable's
/// delta restriction if one is active, and counted as scanned. A scan
/// pinned to `Only` Δ visits Δ's identities of `class` that a source holds,
/// in identity order (the extent's order), and never the extent. At most
/// one source holds objects of `class` (Morphase checks this where sources
/// enter), so each identity is emitted once.
fn scan_extent<T>(
    class: &wol_model::ClassName,
    var: Var,
    ctx: &EvalCtx<'_>,
    stats: &mut ExecStats,
    emit: impl FnMut(&Oid) -> T,
) -> Vec<T> {
    let restriction = ctx.scan_restriction(var);
    if restriction.is_some() {
        stats.restricted_scans += 1;
    }
    let sources = ctx.sources();
    let scanned: Vec<T> = match restriction {
        Some(ScanRestriction::Only(delta)) => (delta.iter())
            .filter(|oid| scans(class, sources, oid))
            .map(emit)
            .collect(),
        _ => (sources.iter())
            .flat_map(|instance| instance.extent(class))
            .filter(|oid| restriction.is_none_or(|r| r.admits(oid)))
            .map(emit)
            .collect(),
    };
    stats.rows_scanned += scanned.len();
    scanned
}

/// A plan with every expression lowered against the layout it reads, built
/// whole before any row runs: an ill-formed plan is refused here, with the
/// same error on every path. A hash join lowers each side's keys against
/// that side's own layout, whichever algorithm runs it.
pub(crate) struct Prepared<'p> {
    pub(crate) plan: &'p Plan,
    pub(crate) step: Step<'p>,
}

/// A [`Prepared`] node's operator, with its lowered expressions and inputs.
/// A nested-loop join and a cross join are one loop; a cross join's
/// predicate has no conjunct.
pub(crate) enum Step<'p> {
    Scan(&'p ClassName, Var),
    Filter(Box<Prepared<'p>>, Predicate),
    Map(Box<Prepared<'p>>, Vec<(usize, Lowered)>),
    Loop(Box<Prepared<'p>>, Box<Prepared<'p>>, Predicate),
    HashJoin {
        left: Box<Prepared<'p>>,
        right: Box<Prepared<'p>>,
        keys: &'p [(Expr, Expr)],
        left_keys: Vec<Lowered>,
        right_keys: Vec<Lowered>,
    },
}

impl<'p> Prepared<'p> {
    /// Lower `plan` bottom-up, left to right; the first ill-formed
    /// expression is the error.
    pub(crate) fn new(plan: &'p Plan) -> Result<Prepared<'p>> {
        let prepare = |plan: &'p Plan| Prepared::new(plan).map(Box::new);
        let step = match plan {
            Plan::Scan { class, var } => Step::Scan(class, *var),
            Plan::Filter { input, predicate } => {
                let input = prepare(input)?;
                let predicate = Predicate::new(predicate, &layout(input.plan))?;
                Step::Filter(input, predicate)
            }
            Plan::Map { input, bindings } => {
                let input = prepare(input)?;
                let bindings = lower_bindings(bindings, &mut layout(input.plan))?;
                Step::Map(input, bindings)
            }
            Plan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let (left, right) = (prepare(left)?, prepare(right)?);
                Step::Loop(left, right, Predicate::new(predicate, &layout(plan))?)
            }
            Plan::CrossJoin { left, right } => {
                Step::Loop(prepare(left)?, prepare(right)?, Predicate::default())
            }
            Plan::HashJoin { left, right, keys } => {
                let (left, right) = (prepare(left)?, prepare(right)?);
                let (l, r) = (layout(left.plan), layout(right.plan));
                let left_keys = (keys.iter()).map(|(k, _)| Lowered::new(k, &l));
                let right_keys = (keys.iter()).map(|(_, k)| Lowered::new(k, &r));
                Step::HashJoin {
                    left_keys: left_keys.collect::<Result<_>>()?,
                    right_keys: right_keys.collect::<Result<_>>()?,
                    left,
                    right,
                    keys,
                }
            }
        };
        Ok(Prepared { plan, step })
    }
}

/// Run a plan against the context, returning its rows in the plan's
/// [`layout`]; an ill-formed plan is refused before its first row.
pub fn run_slots(
    plan: &Plan,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    rows_of(&Prepared::new(plan)?, layout(plan).len(), ctx, stats)
}

/// A one-slot scan row with room for `width` slots.
fn scan_row(oid: &Oid, width: usize) -> SlotRow {
    let mut row = Vec::with_capacity(width);
    row.push(Value::Oid(oid.clone()));
    row
}

/// [`run_slots`] for a node of a plan whose root — its widest node — has
/// `width` slots: rows are allocated once, with room for any `Map` above.
fn rows_of(
    prepared: &Prepared<'_>,
    width: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    // Scan→filter→project towers over a single source run batch-at-a-time on
    // the columnar executor (identical rows and stats, proven differentially);
    // everything else — and every bail-out — takes the row path below.
    if let Some(rows) = crate::columnar::try_run(prepared, width, ctx, stats)? {
        return Ok(rows);
    }
    let rows = match &prepared.step {
        Step::Scan(class, var) => scan_extent(class, *var, ctx, stats, |oid| scan_row(oid, width)),
        Step::Filter(input, predicate) => {
            // Fused scan+filter: partition the class extent itself into
            // contiguous chunks, so row construction and the predicate both
            // run on the partitions.
            if let Step::Scan(class, var) = input.step {
                let extent_total: usize = ctx.sources().iter().map(|i| i.extent_size(class)).sum();
                let parts = ctx.parallelism().partitions(extent_total);
                // The scan operator's own output, recorded as the `Scan` arm
                // would have: every extent row is scanned and produced
                // before the filter keeps its subset.
                let oids = scan_extent(class, var, ctx, stats, Oid::clone);
                stats.record_operator_output(oids.len());
                let oids = &oids;
                let ranges = chunk_ranges(oids.len(), parts);
                let chunks = run_partitioned(ctx, stats, ranges, |range, wctx, ws| {
                    ws.rows_scanned += range.len();
                    let mut kept = Vec::new();
                    for oid in &oids[range] {
                        if predicate.holds(&[Value::Oid(oid.clone())], wctx)? {
                            kept.push(scan_row(oid, width));
                        }
                    }
                    ws.rows_produced += kept.len();
                    Ok(kept)
                })?;
                concat(chunks)
            } else {
                let input_rows = rows_of(input, width, ctx, stats)?;
                let parts = ctx.parallelism().partitions(input_rows.len());
                let chunks = owned_chunks(input_rows, parts);
                let chunks = run_partitioned(ctx, stats, chunks, |chunk, wctx, ws| {
                    let mut kept = Vec::new();
                    for row in chunk {
                        if predicate.holds(&row, wctx)? {
                            kept.push(row);
                        }
                    }
                    ws.rows_produced += kept.len();
                    Ok(kept)
                })?;
                concat(chunks)
            }
        }
        Step::Map(input, lowered) => {
            let input_rows = rows_of(input, width, ctx, stats)?;
            let parts = ctx.parallelism().partitions(input_rows.len());
            let chunks = owned_chunks(input_rows, parts);
            let chunks = run_partitioned(ctx, stats, chunks, |chunk, wctx, ws| {
                let mut out = Vec::with_capacity(chunk.len());
                'rows: for mut row in chunk {
                    for (slot, expr) in lowered {
                        let value = match expr.eval(&row, wctx) {
                            Ok(value) => value.into_owned(),
                            // A missing optional attribute: the row does not
                            // contribute (mirrors clause-matching semantics).
                            Err(e) if e.is_bad_value() => continue 'rows,
                            Err(e) => return Err(e),
                        };
                        store(&mut row, *slot, value);
                    }
                    out.push(row);
                }
                ws.rows_produced += out.len();
                Ok(out)
            })?;
            concat(chunks)
        }
        Step::Loop(left, right, predicate) => {
            let left_rows = rows_of(left, width, ctx, stats)?;
            let right_rows = rows_of(right, width, ctx, stats)?;
            let out = layout(prepared.plan);
            let splice = Splice::new(&out, &layout(left.plan), &layout(right.plan), width);
            let parts = ctx.parallelism().partitions(left_rows.len());
            let (left_rows, right_rows, splice) = (&left_rows, &right_rows, &splice);
            let ranges = chunk_ranges(left_rows.len(), parts);
            let chunks = run_partitioned(ctx, stats, ranges, |range, wctx, ws| {
                let mut out = Vec::new();
                for l in &left_rows[range] {
                    for r in right_rows {
                        let combined = splice.join(l, r);
                        if predicate.holds(&combined, wctx)? {
                            out.push(combined);
                        }
                    }
                }
                ws.rows_produced += out.len();
                Ok(out)
            })?;
            let rows = concat(chunks);
            let kind = match prepared.plan {
                Plan::CrossJoin { .. } => "CrossJoin",
                _ => "NestedLoopJoin",
            };
            ctx.record_join(kind, rows.len());
            rows
        }
        Step::HashJoin {
            left,
            right,
            keys,
            left_keys,
            right_keys,
        } => {
            let left_exprs = || keys.iter().map(|(l, _)| l);
            let right_exprs = || keys.iter().map(|(_, r)| r);
            // Index fast path: when one side is a bare scan keyed by
            // attributes of the scanned object, never materialise it — drive
            // from the other side and answer each key tuple with one lookup
            // in the composite index on those attributes. Delta restrictions
            // keep the fast path (the driving side applies its own;
            // `Probe::candidates` filters by the probed side's), which is
            // what keeps semi-naive delta joins O(delta).
            let out = layout(prepared.plan);
            let out = (out.as_slice(), width);
            // When a rotation is active and both sides are available — a
            // side keyed off a reference chain of its scanned variable
            // counts — drive from whichever side is pinned to the smaller
            // identity set, the pivot slot's Δ, so the delta rows do the
            // probing whichever side of the join they land on. A tie keeps
            // the plan's own orientation. The rows still land in the join's
            // one layout.
            if ctx.has_scan_restrictions() {
                let chains = ctx.reference_chains();
                let left_side = indexable_side(left.plan, left_exprs(), chains);
                let right_side = indexable_side(right.plan, right_exprs(), chains);
                if let (Some(ls), Some(rs)) = (left_side, right_side) {
                    if let (Some(dl), Some(dr)) = (
                        scan_cardinality(left.plan, ctx),
                        scan_cardinality(right.plan, ctx),
                    ) {
                        return if dl < dr || (dl == dr && !ls.hops.is_empty()) {
                            probe_join(left, left_keys, right_keys, &rs, out, ctx, stats)
                        } else {
                            probe_join(right, right_keys, left_keys, &ls, out, ctx, stats)
                        };
                    }
                }
            }
            if let Some(side) = indexable_side(left.plan, left_exprs(), &[]) {
                return probe_join(right, right_keys, left_keys, &side, out, ctx, stats);
            }
            if let Some(side) = indexable_side(right.plan, right_exprs(), &[]) {
                return probe_join(left, left_keys, right_keys, &side, out, ctx, stats);
            }
            let left_rows = rows_of(left, width, ctx, stats)?;
            let right_rows = rows_of(right, width, ctx, stats)?;
            let parts = ctx
                .parallelism()
                .partitions(left_rows.len().max(right_rows.len()));
            let splice = Splice::new(out.0, &layout(left.plan), &layout(right.plan), width);
            let rows = hash_join(
                &left_rows,
                &right_rows,
                left_keys,
                right_keys,
                &splice,
                parts,
                ctx,
                stats,
            )?;
            ctx.record_join("HashJoin", rows.len());
            rows
        }
    };
    stats.record_operator_output(rows.len());
    Ok(rows)
}

/// One query evaluated but not yet applied ([`evaluate_query`]): the objects
/// its insert actions write and the factory that minted their identities.
/// Queries read only the sources, so they can be *evaluated* concurrently —
/// the expensive part — while [`apply_evaluated_query`] settles their writes
/// into the target in program order.
#[derive(Debug)]
pub struct EvaluatedQuery {
    factory: SkolemFactory,
    writes: Vec<(Oid, Record)>,
}

/// An insert action lowered against its plan's layout.
#[derive(Clone, Debug)]
pub struct LoweredInsert {
    /// Target class.
    pub class: ClassName,
    /// The key expression, whose value identifies the object.
    pub key: Lowered,
    /// The attribute expressions, in declared order.
    pub attrs: Vec<(Label, Lowered)>,
    /// The attributes' labels, resolved into record order once.
    shape: RecordShape,
}

impl LoweredInsert {
    /// Lower insert actions against the layout of the rows they read: each
    /// key and attribute is a value, refused as [`Lowered::new`] refuses.
    pub fn lower(inserts: &[InsertAction], layout: &[Var]) -> Result<Vec<LoweredInsert>> {
        let lower = |(label, e): &(Label, Expr)| Ok((label.clone(), Lowered::new(e, layout)?));
        (inserts.iter())
            .map(|insert| {
                Ok(LoweredInsert {
                    class: insert.class.clone(),
                    key: Lowered::new(&insert.key, layout)?,
                    attrs: insert.attrs.iter().map(lower).collect::<Result<_>>()?,
                    shape: RecordShape::new(insert.attrs.iter().map(|(label, _)| label)),
                })
            })
            .collect()
    }

    /// Evaluate the key, mint the object's identity and evaluate the
    /// attributes, in that order, into the record the action contributes to
    /// the object.
    pub fn evaluate(&self, row: &[Value], ctx: &mut EvalCtx<'_>) -> Result<(Oid, Record)> {
        let key = self.key.eval(row, ctx)?;
        let oid = ctx.mk_skolem(&self.class, &key)?;
        let values = self
            .attrs
            .iter()
            .map(|(_, e)| e.eval(row, ctx).map(Cow::into_owned));
        Ok((oid, self.shape.build(values)?))
    }
}

/// Evaluate one query's plan and insert actions without touching the
/// target: the plan and the inserts are lowered before any row runs, the
/// insert evaluation is partitioned like any operator, and its first error
/// in row order fails the evaluation. `stats` absorbs the
/// execution counters, including `rows_output`; the returned
/// [`EvaluatedQuery`] takes `ctx`'s factory with it and is applied with
/// [`apply_evaluated_query`] on the owning context.
pub fn evaluate_query(
    query: &Query,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<EvaluatedQuery> {
    let plan = Prepared::new(&query.plan)?;
    let out = layout(&query.plan);
    let inserts = LoweredInsert::lower(&query.inserts, &out)?;
    let rows = rows_of(&plan, out.len(), ctx, stats)?;
    stats.rows_output += rows.len();
    let (rows_ref, inserts) = (&rows, &inserts);
    let ranges = chunk_ranges(rows.len(), ctx.parallelism().partitions(rows.len()));
    let chunks = run_partitioned(ctx, stats, ranges, |range, wctx, _ws| {
        let mut writes = Vec::with_capacity(range.len() * inserts.len());
        for row in &rows_ref[range] {
            for insert in inserts {
                writes.push(insert.evaluate(row, wctx)?);
            }
        }
        Ok(writes)
    })?;
    let mut chunks = chunks.into_iter();
    let mut writes = chunks.next().unwrap_or_default();
    for chunk in chunks {
        writes.extend(chunk);
    }
    Ok(EvaluatedQuery {
        factory: std::mem::take(&mut ctx.factory),
        writes,
    })
}

/// Apply an evaluated query: fold its factory into the owning context's (a
/// collision is an error), then settle its writes into `target` one object
/// at a time, in ascending identity order. An object's contributions are
/// the query's records for it plus its current record in `target`, and
/// [`Record::merge`] decides what they settle to, so neither row order nor
/// query order can change the target or the error.
///
/// A conflict does not stop the application: every object is written, a
/// conflicting one with the union its settle leaves (every label, only
/// contributed values), so a later query that disagrees with any of its
/// contributions is still caught. The least conflict is returned
/// ([`CplError::Conflict`]). `stats` gains one `objects_written` per write.
/// (`_query` is unused; the signature is the benchmark's frozen surface.)
pub fn apply_evaluated_query(
    _query: &Query,
    evaluated: EvaluatedQuery,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    ctx.factory.merge(evaluated.factory)?;
    let mut writes = evaluated.writes;
    writes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    stats.objects_written += writes.len();
    let mut least = None;
    for group in writes.chunk_by_mut(|a, b| a.0 == b.0) {
        let Some(((oid, settled), rest)) = group.split_first_mut() else {
            continue;
        };
        let mut settled = std::mem::take(settled);
        let existing = target.value(oid).and_then(Value::as_record);
        let exists = existing.is_some();
        let others = existing.into_iter().chain(rest.iter().map(|(_, r)| r));
        if let Err(label) = settled.merge(others) {
            least.get_or_insert(Conflict {
                oid: oid.clone(),
                label,
            });
        }
        if exists {
            target.update(oid, Value::Record(settled))?;
        } else {
            target.insert(oid.clone(), Value::Record(settled))?;
        }
    }
    least.map_or(Ok(()), |conflict| Err(CplError::Conflict(conflict)))
}

/// Execute one query: run its plan and apply its insert actions to `target`
/// — [`evaluate_query`] then [`apply_evaluated_query`] on one context.
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
/// `tests/alloc_budget.rs` and `tests/properties.rs` call it too.
pub fn execute_query(
    query: &Query,
    ctx: &mut EvalCtx<'_>,
    target: &mut Instance,
    stats: &mut ExecStats,
) -> Result<()> {
    let evaluated = evaluate_query(query, ctx, stats)?;
    apply_evaluated_query(query, evaluated, ctx, target, stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::InsertAction;
    use std::collections::{BTreeMap, BTreeSet};
    use wol_model::{ClassName, Oid, Parallelism};

    /// A row with each slot under its layout variable's name.
    pub(crate) type NamedRow = BTreeMap<Var, Value>;

    /// [`run_slots`], with each row's slots named by the plan's [`layout`]:
    /// the same rows in the same order, or the same error. The executor
    /// speaks slots only; cpl's tests name rows here and nowhere else.
    pub(crate) fn named_rows(
        plan: &Plan,
        ctx: &mut EvalCtx<'_>,
        stats: &mut ExecStats,
    ) -> Result<Vec<NamedRow>> {
        let names = layout(plan);
        let rows = run_slots(plan, ctx, stats)?;
        Ok(rows
            .into_iter()
            .map(|row| names.iter().copied().zip(row).collect())
            .collect())
    }

    fn euro_instance() -> Instance {
        let mut inst = Instance::new("euro");
        let uk = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("United Kingdom")),
                ("language", Value::str("English")),
                ("currency", Value::str("sterling")),
            ]),
        );
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
                ("currency", Value::str("franc")),
            ]),
        );
        for (name, capital, country) in [
            ("London", true, &uk),
            ("Manchester", false, &uk),
            ("Paris", true, &fr),
        ] {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(name)),
                    ("is_capital", Value::bool(capital)),
                    ("country", Value::oid(country.clone())),
                ]),
            );
        }
        inst
    }

    /// `var.is_capital = true`: the filter that keeps capitals.
    fn capital(var: &str) -> Expr {
        Expr::var(var)
            .proj("is_capital")
            .eq(Expr::Const(true.into()))
    }

    #[test]
    fn scan_filter_map() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E")
            .filter(capital("E"))
            .map(vec![("N".into(), Expr::var("E").proj("name"))]);
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r["N"] == Value::str("London")));
        assert!(rows.iter().any(|r| r["N"] == Value::str("Paris")));
        assert_eq!(stats.rows_scanned, 3);
        assert!(stats.rows_produced >= 5);
    }

    #[test]
    fn nested_loop_and_hash_join_agree() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut stats = ExecStats::default();
        let nl = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::var("E")
                .path("country.name")
                .eq(Expr::var("C").proj("name")),
        );
        let hj = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut nl_rows = named_rows(&nl, &mut ctx, &mut stats).unwrap();
        let mut ctx = EvalCtx::new(&refs);
        let mut hj_rows = named_rows(&hj, &mut ctx, &mut stats).unwrap();
        nl_rows.sort();
        hj_rows.sort();
        // Hash join builds on the left and probes with the right, so the row
        // contents are identical even if produced in a different order.
        assert_eq!(nl_rows.len(), 3);
        assert_eq!(nl_rows, hj_rows);
    }

    #[test]
    fn hash_join_scan_side_is_answered_by_index_probes() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut stats = ExecStats::default();
        // The CountryE side is a bare scan keyed by a single attribute, so it
        // is answered by attribute-index probes: it contributes no scanned
        // rows, and one probe per driving row.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.rows_scanned, 3); // CityE only
        assert_eq!(stats.index_probes, 2); // one per *distinct* key value
        assert_eq!(stats.probe_cache_hits, 1); // Manchester reuses the UK probe
                                               // A join whose scan side is keyed by a computed expression falls back
                                               // to the generic hash join.
        let mut stats = ExecStats::default();
        let generic = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").path("capital.name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let _ = named_rows(&generic, &mut ctx, &mut stats);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn execute_query_builds_target_and_merges_by_key() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut target = Instance::new("target");

        // Two queries that each contribute part of CountryT, keyed by name —
        // the CPL-level counterpart of partial clauses merged through keys.
        let q1 = Query {
            name: "T4".to_string(),
            plan: Plan::scan("CountryE", "C").map(vec![("N".into(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![
                    ("name".into(), Expr::var("N")),
                    ("language".into(), Expr::var("C").proj("language")),
                ],
            }],
        };
        let q2 = Query {
            name: "T5".to_string(),
            plan: Plan::scan("CountryE", "C").map(vec![("N".into(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![("currency".into(), Expr::var("C").proj("currency"))],
            }],
        };
        execute_query(&q1, &mut ctx, &mut target, &mut stats).unwrap();
        execute_query(&q2, &mut ctx, &mut target, &mut stats).unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let value = target.value(france).unwrap();
        assert_eq!(value.project("language"), Some(&Value::str("French")));
        assert_eq!(value.project("currency"), Some(&Value::str("franc")));
        assert_eq!(stats.objects_written, 4);
        assert!(stats.rows_output >= 4);
    }

    /// A query disagreeing with the target on several objects names the
    /// least conflicting `(object, attribute)` and still writes every object.
    #[test]
    fn conflicting_inserts_name_the_least_conflict() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut target = Instance::new("target");
        let make = |name: &str, value: Expr| Query {
            name: name.to_string(),
            plan: Plan::scan("CountryE", "C").map(vec![("N".into(), Expr::var("C").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CountryT"),
                key: Expr::var("N"),
                attrs: vec![("currency".into(), value), ("name".into(), Expr::var("N"))],
            }],
        };
        execute_query(
            &make("a", Expr::var("C").proj("currency")),
            &mut ctx,
            &mut target,
            &mut stats,
        )
        .unwrap();
        let country_t = ClassName::new("CountryT");
        let euro = Value::str("euro");
        let disagreeing: Vec<Oid> = target
            .objects(&country_t)
            .filter(|(_, v)| v.project("currency") != Some(&euro))
            .map(|(oid, _)| oid.clone())
            .collect();
        assert!(disagreeing.len() > 1, "several objects conflict");
        let err = execute_query(
            &make("b", Expr::Const(euro.clone())),
            &mut ctx,
            &mut target,
            &mut stats,
        )
        .unwrap_err();
        let expected = Conflict {
            oid: disagreeing.iter().min().unwrap().clone(),
            label: "currency".into(),
        };
        assert_eq!(err, CplError::Conflict(expected.clone()));
        assert_eq!(
            err.to_string(),
            format!(
                "object {} receives conflicting values for `currency`",
                expected.oid
            )
        );
        assert_eq!(
            stats.objects_written,
            2 * inst.extent_size(&ClassName::new("CountryE"))
        );
    }

    #[test]
    fn dangling_reference_reported() {
        let mut inst = Instance::new("euro");
        let ghost = Oid::new(ClassName::new("CountryE"), 42);
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Atlantis")),
                ("country", Value::oid(ghost)),
            ]),
        );
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan =
            Plan::scan("CityE", "E").map(vec![("N".into(), Expr::var("E").path("country.name"))]);
        // The dangling reference surfaces as a BadValue, which Map treats as a
        // non-contributing row rather than a hard error.
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 1,
            rows_produced: 2,
            rows_output: 3,
            objects_written: 4,
            index_probes: 5,
            probe_cache_hits: 7,
            max_intermediate_rows: 6,
            restricted_scans: 8,
            pushed_filters: 9,
            provider_rows_in: 10,
            provider_rows_out: 11,
        };
        let b = a;
        a.absorb(b);
        assert_eq!(a.rows_scanned, 2);
        assert_eq!(a.restricted_scans, 16);
        assert_eq!(a.pushed_filters, 18);
        assert_eq!(a.provider_rows_in, 20);
        assert_eq!(a.provider_rows_out, 22);
        assert_eq!(a.objects_written, 8);
        assert_eq!(a.index_probes, 10);
        assert_eq!(a.probe_cache_hits, 14);
        // The high-water mark combines by max, not by sum.
        assert_eq!(a.max_intermediate_rows, 6);
    }

    #[test]
    fn cross_join_is_a_product_and_raises_the_high_water_mark() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E").cross(Plan::scan("CountryE", "C"));
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 6); // 3 cities x 2 countries
        assert_eq!(stats.max_intermediate_rows, 6);
    }

    #[test]
    fn multi_key_hash_join_matches_composite_keys() {
        let inst = euro_instance();
        let refs = [&inst];
        // Join cities to countries on (name-of-country, language): composite
        // key through the generic hash path (left side is not a bare scan).
        let left = Plan::scan("CityE", "E").filter(capital("E"));
        let plan = left.hash_join_multi(
            Plan::scan("CityE", "F").filter(capital("F")),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("F").path("country.name"),
                ),
                (Expr::var("E").proj("name"), Expr::var("F").proj("name")),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        // Each capital joins only with itself under the composite key.
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn probe_cache_replays_verified_matches_for_repeated_keys() {
        // Many driving rows sharing one hot key: exactly one index probe,
        // the rest served from the cache, and the row multiset is identical
        // to the generic (uncached) hash join.
        let mut inst = Instance::new("skew");
        let hub = inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("hot"))]),
        );
        let _ = hub;
        inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("cold"))]),
        );
        for i in 0..10 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str(if i < 9 { "hot" } else { "cold" })),
                ]),
            );
        }
        let refs = [&inst];
        // The marker side is not a bare scan (a Map sits on it), so the
        // CloneS scan is the indexable side and the 10 marker rows drive.
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut rows = named_rows(&probed, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.index_probes, 2); // "hot" once, "cold" once
        assert_eq!(stats.probe_cache_hits, 8);
        // Same rows as the generic hash join over pre-materialised sides.
        let generic = Plan::scan("MarkerS", "M")
            .map(vec![("K".into(), Expr::var("M").proj("clone_name"))])
            .hash_join(
                Plan::scan("CloneS", "C").map(vec![("N".into(), Expr::var("C").proj("name"))]),
                Expr::var("K"),
                Expr::var("N"),
            );
        let mut ctx = EvalCtx::new(&refs);
        let mut generic_stats = ExecStats::default();
        let mut generic_rows = named_rows(&generic, &mut ctx, &mut generic_stats).unwrap();
        assert_eq!(generic_stats.index_probes, 0);
        // Strip the helper bindings before comparing.
        for row in generic_rows.iter_mut() {
            row.remove("K");
            row.remove("N");
        }
        rows.sort();
        generic_rows.sort();
        assert_eq!(rows, generic_rows);
    }

    #[test]
    fn join_trace_records_actual_rows_in_post_order() {
        let inst = euro_instance();
        let refs = [&inst];
        // A hash join (probed) nested under a cross join.
        let plan = Plan::scan("CityE", "E")
            .hash_join(
                Plan::scan("CountryE", "C"),
                Expr::var("E").path("country.name"),
                Expr::var("C").proj("name"),
            )
            .cross(Plan::scan("CountryE", "D"));
        let mut ctx = EvalCtx::new(&refs);
        ctx.enable_join_trace();
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 6);
        let trace = ctx.take_join_trace();
        assert_eq!(
            trace,
            vec![
                JoinActual {
                    kind: "HashJoin",
                    rows: 3
                },
                JoinActual {
                    kind: "CrossJoin",
                    rows: 6
                },
            ]
        );
        // Draining leaves the trace enabled but empty.
        assert!(ctx.take_join_trace().is_empty());
        // Without enabling, nothing is recorded.
        let mut ctx = EvalCtx::new(&refs);
        let _ = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert!(ctx.take_join_trace().is_empty());
    }

    /// A source with every partitioning hazard in one place: countries and
    /// cities (one city without a country, so rows drop mid-`Map`), a
    /// single-row class, and a zipfian marker→clone key (32 of 40 markers
    /// share the `hot` clone) so one probe group spans several partitions.
    fn partition_fixture() -> Instance {
        let mut inst = Instance::new("src");
        let countries: Vec<Oid> = (0..4)
            .map(|i| {
                inst.insert_fresh(
                    &ClassName::new("CountryE"),
                    Value::record([
                        ("name", Value::str(format!("country{i}"))),
                        ("language", Value::str(format!("lang{}", i % 2))),
                    ]),
                )
            })
            .collect();
        for i in 0..24 {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(format!("city{i}"))),
                    ("is_capital", Value::bool(i % 6 == 0)),
                    ("country", Value::oid(countries[i % 4].clone())),
                ]),
            );
        }
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Atlantis")),
                ("is_capital", Value::bool(false)),
            ]),
        );
        inst.insert_fresh(
            &ClassName::new("Capital"),
            Value::record([("of", Value::str("country2"))]),
        );
        for name in ["hot", "cold0", "cold1", "cold2", "cold3"] {
            inst.insert_fresh(
                &ClassName::new("CloneS"),
                Value::record([("name", Value::str(name))]),
            );
        }
        for i in 0..40 {
            let clone = if i < 32 {
                "hot".to_string()
            } else {
                format!("cold{}", i % 4)
            };
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str(clone)),
                ]),
            );
        }
        inst
    }

    /// One row of the partition-invariance table.
    struct Shape {
        name: &'static str,
        query: Query,
        /// Delta restriction installed before running, as `(var, restriction)`.
        restrict: Option<(&'static str, ScanRestriction)>,
        /// Whether some operator of the plan gets more than one partition
        /// once there is a budget (false: empty input, or pinned throughout).
        partitions: bool,
        /// Whether each run's factory holds a `CityT` identity seeded under
        /// another key, which minting `CityT` of `city5` collides with.
        collide: bool,
    }

    fn shape(name: &'static str, plan: Plan) -> Shape {
        Shape {
            name,
            query: Query {
                name: name.to_string(),
                plan,
                inserts: Vec::new(),
            },
            restrict: None,
            partitions: true,
            collide: false,
        }
    }

    fn mk(class: &str, key: Expr) -> Expr {
        Expr::Skolem(ClassName::new(class), Box::new(key))
    }

    fn bind(var: &str, expr: Expr) -> (Var, Expr) {
        (Var::new(var), expr)
    }

    fn attr(label: &str, expr: Expr) -> (Label, Expr) {
        (label.into(), expr)
    }

    /// **Partition invariance**, one table for every operator: each plan
    /// shape runs at 1, 2, 3 and 8 partitions (the threshold lowered so the
    /// tiny fixture partitions at all) and must reproduce the one-partition
    /// run exactly — the same row *stream*, a bit-identical target, the same
    /// Skolem memo, equal [`ExecStats`] — while the per-shard breakdown stays
    /// empty exactly when nothing was dispatched. The one per-row error that
    /// is no bad value is a Skolem-memo collision: a failing shape must fail
    /// with the one-partition run's error, on every operator that mints.
    #[test]
    fn every_plan_shape_is_partition_invariant() {
        let inst = partition_fixture();
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        let countries: Vec<Oid> = inst.extent(&ClassName::new("CountryE")).cloned().collect();
        let country_name = || Expr::var("E").path("country.name");
        let city_country = || {
            Plan::scan("CityE", "E").hash_join(
                Plan::scan("CountryE", "C"),
                country_name(),
                Expr::var("C").proj("name"),
            )
        };
        let marker_clone = || {
            Plan::scan("MarkerS", "M").map(vec![]).hash_join(
                Plan::scan("CloneS", "C"),
                Expr::var("M").proj("clone_name"),
                Expr::var("C").proj("name"),
            )
        };
        let city_t = || mk("CityT", Expr::var("E").proj("name"));
        // A minted identity compared with a source identity: never equal.
        let minted_is_not_scanned = || Expr::Neq(Box::new(city_t()), Box::new(Expr::var("E")));
        let shapes = vec![
            // Multi-hop predicate: out of the columnar executor's scope, so
            // this is the fused scan+filter.
            shape(
                "scan+filter",
                Plan::scan("CityE", "E").filter(country_name().eq(Expr::Const("country1".into()))),
            ),
            shape(
                "columnar tower",
                Plan::scan("CityE", "E")
                    .filter(capital("E"))
                    .map(vec![bind("N", Expr::var("E").proj("name"))]),
            ),
            shape(
                "filter over join",
                Plan::scan("CityE", "E")
                    .cross(Plan::scan("CountryE", "C"))
                    .filter(country_name().eq(Expr::var("C").proj("name"))),
            ),
            shape(
                "map dropping rows",
                Plan::scan("CityE", "E").map(vec![bind("N", country_name())]),
            ),
            shape(
                "skolem map",
                Plan::scan("CityE", "E")
                    .filter(
                        Expr::var("E")
                            .proj("is_capital")
                            .eq(Expr::Const(false.into())),
                    )
                    .map(vec![
                        bind("T", mk("CityT", Expr::var("E").proj("name"))),
                        // Few distinct keys: partitions mint the same ones.
                        bind("L", mk("LangT", Expr::var("E").path("country.language"))),
                        bind(
                            "P",
                            mk("PairT", Expr::Record(vec![attr("l", Expr::var("L"))])),
                        ),
                    ]),
            ),
            // A Skolem compared against a source identity: it partitions like
            // any other predicate.
            shape(
                "skolem comparison filter",
                Plan::scan("CityE", "E").filter(minted_is_not_scanned()),
            ),
            // A filter re-minting the map's keys and comparing.
            shape(
                "skolem comparison over a skolem map",
                Plan::scan("CityE", "E")
                    .map(vec![bind("T", city_t())])
                    .filter(Expr::and(vec![
                        city_t().eq(Expr::var("T")),
                        minted_is_not_scanned(),
                    ])),
            ),
            shape(
                "nested-loop join",
                Plan::scan("CityE", "E").join(
                    Plan::scan("CountryE", "C"),
                    country_name().eq(Expr::var("C").proj("name")),
                ),
            ),
            shape(
                "cross join",
                Plan::scan("CountryE", "C").cross(Plan::scan("CloneS", "K")),
            ),
            shape(
                "generic hash join",
                Plan::scan("CityE", "E").map(vec![]).hash_join(
                    Plan::scan("CountryE", "C").map(vec![bind("N", Expr::var("C").proj("name"))]),
                    country_name(),
                    Expr::var("N"),
                ),
            ),
            shape(
                "generic hash join, single-row build side",
                Plan::scan("Capital", "K")
                    .map(vec![bind("O", Expr::var("K").proj("of"))])
                    .hash_join(
                        Plan::scan("CityE", "E").map(vec![]),
                        Expr::var("O"),
                        country_name(),
                    ),
            ),
            shape("probe join", city_country()),
            shape("probe join with a hot key", marker_clone()),
            shape(
                "multi-key probe join",
                Plan::scan("CityE", "E").hash_join_multi(
                    Plan::scan("CountryE", "C"),
                    vec![
                        (country_name(), Expr::var("C").proj("name")),
                        (
                            Expr::var("E").path("country.language"),
                            Expr::var("C").proj("language"),
                        ),
                    ],
                ),
            ),
            shape(
                "probe join against a single-row class",
                Plan::scan("CityE", "E").hash_join(
                    Plan::scan("Capital", "K"),
                    country_name(),
                    Expr::var("K").proj("of"),
                ),
            ),
            Shape {
                partitions: false,
                ..shape(
                    "filter over an empty extent",
                    Plan::scan("GhostClass", "G").filter(capital("G")),
                )
            },
            shape(
                "probe join against an empty extent",
                Plan::scan("CityE", "E").map(vec![]).hash_join(
                    Plan::scan("GhostClass", "G"),
                    Expr::var("E").proj("name"),
                    Expr::var("G").proj("name"),
                ),
            ),
            Shape {
                restrict: Some(("E", only(cities.iter().step_by(3)))),
                ..shape("restricted driving scan", city_country())
            },
            Shape {
                restrict: Some(("C", except(countries[2..].iter()))),
                ..shape("restricted probed scan", city_country())
            },
            Shape {
                restrict: Some(("E", only(cities.iter().skip(1).step_by(2)))),
                ..shape(
                    "restricted scan+filter",
                    Plan::scan("CityE", "E").filter(capital("E")),
                )
            },
            // The Skolem-heavy insertion shape of the genome load: a keyed
            // insert whose attributes mint further identities, with few
            // distinct country keys so partitions mint the same ones.
            Shape {
                query: Query {
                    name: "skolem inserts".to_string(),
                    plan: Plan::scan("CityE", "E").map(vec![bind("CN", country_name())]),
                    inserts: vec![
                        InsertAction {
                            class: ClassName::new("CityT"),
                            key: Expr::var("E").proj("name"),
                            attrs: vec![
                                attr("name", Expr::var("E").proj("name")),
                                attr("country", mk("CountryT", Expr::var("CN"))),
                            ],
                        },
                        InsertAction {
                            class: ClassName::new("CountryT"),
                            key: Expr::var("CN"),
                            attrs: vec![attr("name", Expr::var("CN"))],
                        },
                    ],
                },
                ..shape("skolem inserts", Plan::scan("CityE", "E"))
            },
            // Inserts minting behind a filter comparing a minted identity.
            Shape {
                query: Query {
                    name: "skolem-filtered inserts".to_string(),
                    plan: Plan::scan("CityE", "E").filter(minted_is_not_scanned()),
                    inserts: vec![InsertAction {
                        class: ClassName::new("CityT"),
                        key: Expr::var("E").proj("name"),
                        attrs: vec![attr("self", city_t())],
                    }],
                },
                ..shape("skolem-filtered inserts", Plan::scan("CityE", "E"))
            },
            // Failing shapes: `city5`'s identity is held under another key,
            // and every operator that mints it collides, whichever partition
            // holds its row.
            Shape {
                collide: true,
                ..shape(
                    "colliding map",
                    Plan::scan("CityE", "E").map(vec![bind("T", city_t())]),
                )
            },
            Shape {
                collide: true,
                ..shape(
                    "colliding filter",
                    Plan::scan("CityE", "E").filter(minted_is_not_scanned()),
                )
            },
            Shape {
                collide: true,
                ..shape(
                    "colliding probe join",
                    Plan::scan("CityE", "E").map(vec![]).hash_join(
                        Plan::scan("CountryE", "C"),
                        city_t(),
                        Expr::var("C").proj("name"),
                    ),
                )
            },
            Shape {
                query: Query {
                    name: "colliding inserts".to_string(),
                    plan: Plan::scan("CityE", "E"),
                    inserts: vec![InsertAction {
                        class: ClassName::new("CityT"),
                        key: Expr::var("E").proj("name"),
                        attrs: vec![],
                    }],
                },
                partitions: false,
                collide: true,
                ..shape("colliding inserts", Plan::scan("CityE", "E"))
            },
        ];
        // Hold `city5`'s `CityT` identity under the key `"x"`.
        let seed_collision = |factory: &mut SkolemFactory| {
            let class = ClassName::new("CityT");
            let taken = wol_model::skolem_id(&class, &Value::str("city5"));
            let held = Oid::new(class.clone(), taken);
            factory
                .restore_assignment(&class, "x".into(), held)
                .unwrap();
        };
        let refs = [&inst];
        let mut produced = BTreeMap::new();
        let mut failed = BTreeMap::new();
        for shape in &shapes {
            let run = |threads: usize| -> Result<_> {
                let ctx = || {
                    let mut ctx = EvalCtx::new(&refs)
                        .with_parallelism(Parallelism::new(threads).with_min_items(1));
                    if let Some((var, keep)) = &shape.restrict {
                        ctx.restrict_scan(*var, keep.clone());
                    }
                    if shape.collide {
                        seed_collision(&mut ctx.factory);
                    }
                    ctx
                };
                let mut plan_ctx = ctx();
                let mut plan_stats = ExecStats::default();
                let rows = named_rows(&shape.query.plan, &mut plan_ctx, &mut plan_stats)?;
                assert_eq!(
                    plan_ctx.shard_stats().is_empty(),
                    threads == 1 || !shape.partitions,
                    "{} at {threads} thread(s): shard_stats must be empty exactly when \
                     every operator had one partition",
                    shape.name
                );
                let mut query_ctx = ctx();
                let mut query_stats = ExecStats::default();
                let mut target = Instance::new("target");
                execute_query(&shape.query, &mut query_ctx, &mut target, &mut query_stats)?;
                if !shape.query.inserts.is_empty() {
                    assert_eq!(
                        query_ctx.shard_stats().is_empty(),
                        threads == 1,
                        "{} at {threads} thread(s): insert evaluation partitions",
                        shape.name
                    );
                }
                let numbering = (
                    format!("{:?}", plan_ctx.factory),
                    format!("{:?}", query_ctx.factory),
                );
                Ok((rows, plan_stats, target, query_stats, numbering))
            };
            let reference = match run(1) {
                Ok(reference) => reference,
                Err(error) => {
                    for threads in [2, 3, 8] {
                        let at = format!("`{}` at {threads} threads", shape.name);
                        let diverged = run(threads).err();
                        assert_eq!(diverged.as_ref(), Some(&error), "error diverged: {at}");
                    }
                    failed.insert(shape.name, error);
                    continue;
                }
            };
            let totals = &reference.3;
            produced.insert(
                shape.name,
                (
                    totals.rows_output,
                    totals.objects_written,
                    totals.index_probes,
                ),
            );
            for threads in [2, 3, 8] {
                let at = format!("`{}` at {threads} threads", shape.name);
                let (rows, plan_stats, target, query_stats, numbering) =
                    run(threads).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(rows, reference.0, "row stream diverged: {at}");
                assert_eq!(plan_stats, reference.1, "plan ExecStats diverged: {at}");
                assert_eq!(target, reference.2, "target diverged: {at}");
                assert_eq!(query_stats, reference.3, "query ExecStats diverged: {at}");
                assert_eq!(numbering, reference.4, "Skolem memo diverged: {at}");
            }
        }
        // The table is not vacuous: the shapes produce rows and objects.
        assert_eq!(produced["map dropping rows"].0, 24); // Atlantis dropped
        assert_eq!(produced["probe join with a hot key"], (40, 0, 5));
        assert_eq!(produced["skolem inserts"].1, 48);
        assert_eq!(produced["skolem-filtered inserts"].1, 25);
        assert_eq!(produced["restricted driving scan"].0, 8);
        // Exactly the failing shapes fail, each on `city5`'s collision.
        let mut factory = SkolemFactory::new();
        seed_collision(&mut factory);
        let city5 = factory.mk(&ClassName::new("CityT"), &Value::str("city5"));
        let collision = CplError::from(city5.unwrap_err());
        assert!(failed.values().all(|e| *e == collision), "{failed:?}");
        assert_eq!(
            failed.keys().copied().collect::<Vec<_>>(),
            [
                "colliding filter",
                "colliding inserts",
                "colliding map",
                "colliding probe join",
            ]
        );
    }

    /// A cross-algorithm oracle that shares no body with the partitioned
    /// operators' own reference run: on generated equi-joins (random sizes,
    /// small key domains so keys repeat, missing optional attributes) the
    /// **index-probe** path, the **generic hash** path (the same plan with the
    /// scan side behind an identity `Map`) and a **nested-loop join** with the
    /// equality as its predicate must produce the same row multiset, at one
    /// partition and at eight. The key shapes cover one to three indexable
    /// keys on the probed scan (answered by one composite index, whatever the
    /// pairs' order), one attribute in two key pairs, non-projection keys that
    /// stay verified residuals — one of which reads a probed flag that is a
    /// string, equal to no boolean, or missing, a bad value, on some
    /// candidates — and a delta restriction on the probed scan. Every shape's
    /// rows and errors are equal across the three algorithms, and the probe
    /// join's [`ExecStats`] are derived from the driving rows and the
    /// reference output alone: one probe per distinct key tuple.
    #[test]
    fn probe_hash_and_nested_loop_joins_agree_on_generated_equi_joins() {
        // A small deterministic generator (xorshift) — no dependency needed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (x, y) = (
            |a: &str| Expr::var("X").proj(a),
            |a: &str| Expr::var("Y").proj(a),
        );
        let boxed = |e: Expr| Expr::Record(vec![("v".into(), e)]);
        for case in 0..80 {
            let mut inst = Instance::new("gen");
            let (domain_a, domain_b) = (1 + next(6), 1 + next(3));
            for (class, size) in [("L", next(30)), ("R", next(30))] {
                for i in 0..size {
                    let mut fields = vec![("id", Value::int(i as i64))];
                    // One row in eight lacks `a`, one in six lacks `c`.
                    if next(8) != 0 {
                        fields.push(("a", Value::int(next(domain_a) as i64)));
                    }
                    fields.push(("b", Value::str(format!("b{}", next(domain_b)))));
                    if next(6) != 0 {
                        fields.push(("c", Value::int(next(domain_a) as i64)));
                    }
                    // Some probed flags are strings and some are missing.
                    match next(10) {
                        0 if class == "R" => fields.push(("flag", Value::str("x"))),
                        1 if class == "R" => {}
                        n => fields.push(("flag", Value::bool(n % 2 == 0))),
                    }
                    inst.insert_fresh(&ClassName::new(class), Value::record(fields));
                }
            }
            // Each shape's key pairs, and the attributes of the one index the
            // probe path looks up.
            let (keys, attrs): (Vec<(Expr, Expr)>, &[&str]) = match case % 6 {
                0 => (vec![(x("a"), y("a"))], &["a"]),
                1 => (vec![(x("b"), y("b")), (x("a"), y("a"))], &["a", "b"]),
                2 => (
                    vec![(x("c"), y("c")), (x("a"), y("a")), (x("b"), y("b"))],
                    &["a", "b", "c"],
                ),
                3 => (
                    vec![(x("a"), y("a")), (x("b"), y("b")), (x("c"), y("a"))],
                    &["a", "b"],
                ),
                4 => (
                    vec![(boxed(x("b")), boxed(y("b"))), (x("a"), y("a"))],
                    &["a"],
                ),
                _ => (
                    vec![(x("a"), y("a")), (boxed(x("flag")), boxed(y("flag")))],
                    &["a"],
                ),
            };
            let restricted = (case / 6) % 2 == 1;
            let equality = Expr::and(keys.iter().map(|(l, r)| l.clone().eq(r.clone())).collect());
            let probed = Plan::scan("L", "X")
                .map(vec![])
                .hash_join_multi(Plan::scan("R", "Y"), keys.clone());
            let hashed = Plan::scan("L", "X")
                .map(vec![])
                .hash_join_multi(Plan::scan("R", "Y").map(vec![]), keys.clone());
            let looped = Plan::scan("L", "X").join(Plan::scan("R", "Y"), equality);
            let right: Vec<Oid> = inst.extent(&ClassName::new("R")).cloned().collect();
            // A restricted case pins `Y` to `Only` a random part of its
            // extent, or, every other time, to the extent `Except` one.
            let keep: Option<ScanRestriction> = restricted.then(|| {
                let kept = right.iter().filter(|_| next(3) != 0);
                let delta = std::sync::Arc::new(kept.cloned().collect());
                match (case / 12) % 2 {
                    0 => ScanRestriction::Only(delta),
                    _ => ScanRestriction::Except(delta),
                }
            });
            let refs = [&inst];
            let context = |threads: usize| {
                let mut ctx = EvalCtx::new(&refs)
                    .with_parallelism(Parallelism::new(threads).with_min_items(1));
                if let Some(keep) = &keep {
                    ctx.restrict_scan("Y", keep.clone());
                }
                ctx
            };
            // The probe path's counters, from the driving rows alone: a keyed
            // row probes its key tuple once, every repeat is a cache hit.
            let left: Vec<Oid> = inst.extent(&ClassName::new("L")).cloned().collect();
            let driving_keys: Vec<Lowered> = (keys.iter())
                .map(|(l, _)| Lowered::new(l, &[Var::new("X")]).unwrap())
                .collect();
            let mut ctx = context(1);
            let keyed: Vec<Vec<Value>> = (left.iter())
                .filter_map(|oid| {
                    let row = [Value::Oid(oid.clone())];
                    let values = driving_keys.iter().map(|k| k.eval(&row, &mut ctx));
                    values.map(|v| v.ok().map(Cow::into_owned)).collect()
                })
                .collect();
            let distinct = keyed.iter().collect::<BTreeSet<_>>().len();
            for threads in [1, 8] {
                let run = |plan: &Plan| {
                    let mut stats = ExecStats::default();
                    let rows = named_rows(plan, &mut context(threads), &mut stats);
                    rows.map(|mut rows| {
                        rows.sort();
                        (rows, stats)
                    })
                };
                let at = format!(
                    "case {case} ({attrs:?}, restricted: {restricted}) at {threads} thread(s)"
                );
                let reference = run(&looped).map(|(rows, _)| rows);
                let probe = run(&probed);
                let hash = run(&hashed);
                let rows_of =
                    |run: &Result<(Vec<NamedRow>, ExecStats)>| run.clone().map(|(rows, _)| rows);
                assert_eq!(
                    rows_of(&probe),
                    reference,
                    "index-probe vs nested-loop: {at}"
                );
                assert_eq!(
                    rows_of(&hash),
                    reference,
                    "generic hash vs nested-loop: {at}"
                );
                let rows = reference.unwrap_or_else(|e| panic!("{at}: {e}"));
                let (l, out) = (left.len(), rows.len());
                let expected = ExecStats {
                    rows_scanned: l,
                    rows_produced: 2 * l + out,
                    index_probes: distinct,
                    probe_cache_hits: keyed.len() - distinct,
                    max_intermediate_rows: l.max(out),
                    ..ExecStats::default()
                };
                assert_eq!(probe.unwrap().1, expected, "probe join counters: {at}");
                let hash_probes = hash.unwrap().1.index_probes;
                assert_eq!(hash_probes, 0, "the generic path must not probe: {at}");
            }
            let on_r: Vec<Vec<&str>> = (inst.built_attr_indexes().iter())
                .filter(|(class, _)| class.as_str() == "R")
                .map(|(_, key)| key.iter().map(Label::as_str).collect())
                .collect();
            assert!(
                on_r.is_empty() || on_r == [attrs.to_vec()],
                "case {case}: one composite index on {attrs:?}, got {on_r:?}"
            );
        }
    }

    /// The chain probe against the nested loop. On generated sources — `L`
    /// driving objects keyed `k` (some lack it); `T`; `M`, whose `up`
    /// references a `T`; `R`, whose `ref` references an `M` — a join of
    /// `X in L` with `Y in R` on a key reached through `Y`'s references
    /// (`Y.ref.k`, `Y.ref.up.k`, the composite `Y.ref.j`/`Y.ref.k`, or
    /// `Y.ref.k` plus a residual record key, one of which reads a flag that
    /// is a string or missing on some `R` objects) runs
    /// in a rotation that knows the chains `R.ref` and `R.ref.up`. Key
    /// values are drawn from small domains, so several referenced objects
    /// share one and several holders share one referenced object; a
    /// reference is sometimes absent and sometimes dangles. `X` or `Y` is
    /// pinned to `Only` a random part of its extent or to the extent
    /// `Except` it. Every shape's rows and errors equal the nested loop's,
    /// and the same join's without chains; at eight partitions the row stream, the
    /// error and `ExecStats` are the one-partition run's; each driving row's
    /// candidates come out in ascending identity order; and the join scans
    /// only its smaller side, so a small `Only` on `X` never scans `R`.
    #[test]
    fn chain_probes_and_nested_loop_joins_agree_on_generated_reference_chains() {
        // A small deterministic generator (xorshift) — no dependency needed.
        struct XorShift(u64);
        impl XorShift {
            fn below(&mut self, bound: u64) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0 % bound
            }
            /// A reference to one of `targets`, absent one time in eight and
            /// dangling one time in eight.
            fn reference(&mut self, targets: &[Oid], class: &ClassName) -> Option<Value> {
                match self.below(8) {
                    0 => None,
                    1 => Some(Value::Oid(Oid::new(class.clone(), 1 << 40))),
                    _ if targets.is_empty() => None,
                    _ => Some(Value::Oid(
                        targets[self.below(targets.len() as u64) as usize].clone(),
                    )),
                }
            }
            /// A record of `fields` keyed `k` in `0..domain` and `j` in `0..2`.
            fn keyed(&mut self, domain: u64, mut fields: Vec<(&str, Value)>) -> Value {
                fields.push(("k", Value::int(self.below(domain) as i64)));
                fields.push(("j", Value::int(self.below(2) as i64)));
                Value::record(fields)
            }
        }
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let [l, t, m, r] = ["L", "T", "M", "R"].map(ClassName::new);
        let chains = vec![
            RefChain {
                hops: vec![(r.clone(), "ref".into())],
                class: m.clone(),
            },
            RefChain {
                hops: vec![(r.clone(), "ref".into()), (m.clone(), "up".into())],
                class: t.clone(),
            },
        ];
        let (x, y) = (
            |a: &str| Expr::var("X").path(a),
            |a: &str| Expr::var("Y").path(a),
        );
        let boxed = |e: Expr| Expr::Record(vec![("v".into(), e)]);
        let mut chain_driven = 0;
        for case in 0..96 {
            let mut inst = Instance::new("gen");
            let domain = 1 + rng.below(4);
            let ts: Vec<Oid> = (0..rng.below(6))
                .map(|_| {
                    let value = rng.keyed(domain, vec![]);
                    inst.insert_fresh(&t, value)
                })
                .collect();
            let ms: Vec<Oid> = (0..rng.below(8))
                .map(|_| {
                    let up = rng.reference(&ts, &t).map(|v| ("up", v));
                    let value = rng.keyed(domain, up.into_iter().collect());
                    inst.insert_fresh(&m, value)
                })
                .collect();
            for _ in 0..rng.below(24) {
                let reference = rng.reference(&ms, &m).map(|v| ("ref", v));
                let mut fields: Vec<(&str, Value)> = reference.into_iter().collect();
                match rng.below(10) {
                    0 => fields.push(("flag", Value::str("x"))),
                    1 => {}
                    n => fields.push(("flag", Value::bool(n % 2 == 0))),
                }
                inst.insert_fresh(&r, Value::record(fields));
            }
            for _ in 0..rng.below(16) {
                let flag = Value::bool(rng.below(2) == 0);
                let mut value = rng.keyed(domain, vec![("flag", flag)]);
                if rng.below(8) == 0 {
                    value = Value::record([("flag", Value::bool(true))]);
                }
                inst.insert_fresh(&l, value);
            }
            let keys: Vec<(Expr, Expr)> = match case % 5 {
                0 => vec![(x("k"), y("ref.k"))],
                1 => vec![(x("k"), y("ref.up.k"))],
                2 => vec![(x("j"), y("ref.j")), (x("k"), y("ref.k"))],
                3 => vec![(boxed(x("j")), boxed(y("ref.j"))), (x("k"), y("ref.k"))],
                _ => vec![(x("k"), y("ref.k")), (boxed(x("flag")), boxed(y("flag")))],
            };
            let equality = Expr::and(keys.iter().map(|(l, r)| l.clone().eq(r.clone())).collect());
            let probed = Plan::scan("L", "X").hash_join_multi(Plan::scan("R", "Y"), keys.clone());
            let hashed = (Plan::scan("L", "X").map(vec![]))
                .hash_join_multi(Plan::scan("R", "Y").map(vec![]), keys.clone());
            let looped = Plan::scan("L", "X").join(Plan::scan("R", "Y"), equality);
            // `X` or `Y` pinned `Only` a random part of its extent, or to the
            // extent `Except` it.
            let (var, class) = match (case / 5) % 2 {
                0 => ("X", &l),
                _ => ("Y", &r),
            };
            let kept: BTreeSet<Oid> =
                (inst.extent(class).filter(|_| rng.below(3) == 0).cloned()).collect();
            let delta = std::sync::Arc::new(kept);
            let restriction = match (case / 10) % 2 {
                0 => ScanRestriction::Only(delta),
                _ => ScanRestriction::Except(delta),
            };
            let refs = [&inst];
            let run = |plan: &Plan, threads: usize, with_chains: bool| {
                let mut ctx = EvalCtx::new(&refs)
                    .with_parallelism(Parallelism::new(threads).with_min_items(1));
                ctx.restrict_scan(var, restriction.clone());
                if with_chains {
                    ctx.set_reference_chains(chains.clone());
                }
                let mut stats = ExecStats::default();
                (named_rows(plan, &mut ctx, &mut stats), stats)
            };
            let sorted = |rows: Result<Vec<NamedRow>>| {
                rows.map(|mut rows| {
                    rows.sort();
                    rows
                })
            };
            let at = format!("case {case} ({keys:?}, {var} {restriction:?})");
            let reference = sorted(run(&looped, 1, false).0);
            let (stream, chained_stats) = run(&probed, 1, true);
            // Each driving row's candidates come out in ascending identity
            // order, each once.
            if let Ok(stream) = &stream {
                for (driving, probed) in [("X", "Y"), ("Y", "X")] {
                    for pair in stream.windows(2) {
                        if pair[0][driving] == pair[1][driving] {
                            assert!(pair[0][probed] < pair[1][probed], "order: {at}");
                        }
                    }
                }
            }
            let chained = sorted(stream.clone());
            assert_eq!(chained, reference, "chain probe vs nested loop: {at}");
            for threads in [1, 8] {
                let unchained = sorted(run(&probed, threads, false).0);
                assert_eq!(unchained, reference, "no chains at {threads}: {at}");
                let hash = sorted(run(&hashed, threads, true).0);
                assert_eq!(hash, reference, "generic hash at {threads}: {at}");
            }
            let (rows, stats) = run(&probed, 8, true);
            assert_eq!(rows, stream, "row stream at 8 threads: {at}");
            assert_eq!(stats, chained_stats, "ExecStats at 8 threads: {at}");
            assert!(reference.is_ok(), "{at}: {reference:?}");
            // Only the smaller side is scanned.
            let size = |v: &str, class: &ClassName| -> usize {
                let extent = inst.extent(class);
                match (v == var).then_some(&restriction) {
                    Some(ScanRestriction::Only(delta)) => delta.len(),
                    Some(ScanRestriction::Except(delta)) => extent.count() - delta.len(),
                    None => extent.count(),
                }
            };
            let (dl, dr) = (size("X", &l), size("Y", &r));
            assert_eq!(chained_stats.rows_scanned, dl.min(dr), "scanned: {at}");
            chain_driven += usize::from(dl < dr);
        }
        assert!(chain_driven > 20, "{chain_driven} cases drove from `X`");
    }

    /// A zipfian hot key does not serialize behind one worker: its rows are
    /// spliced by every contiguous partition they fall in, the merged totals
    /// still equal the one-partition run's (one probe per distinct key), and
    /// several shard slots report cache hits for the same key.
    #[test]
    fn hot_key_probe_work_is_stolen_across_shards() {
        let mut inst = Instance::new("zipf");
        inst.insert_fresh(
            &ClassName::new("CloneS"),
            Value::record([("name", Value::str("hot"))]),
        );
        for i in 0..4 {
            inst.insert_fresh(
                &ClassName::new("CloneS"),
                Value::record([("name", Value::str(format!("cold{i}")))]),
            );
        }
        for i in 0..64 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("m{i}"))),
                    ("clone_name", Value::str("hot")),
                ]),
            );
        }
        for i in 0..8 {
            inst.insert_fresh(
                &ClassName::new("MarkerS"),
                Value::record([
                    ("name", Value::str(format!("n{i}"))),
                    ("clone_name", Value::str(format!("cold{}", i % 4))),
                ]),
            );
        }
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut whole = ExecStats::default();
        let rows = named_rows(&probed, &mut ctx, &mut whole).unwrap();
        assert_eq!(rows.len(), 72);
        assert_eq!(whole.index_probes, 5); // one per distinct key, hot included
        assert_eq!(whole.probe_cache_hits, 67);
        // At 4 partitions the hot key's 64 rows fill three partitions of 18
        // rows and part of the fourth: every shard slot reports cache hits,
        // instead of one shard absorbing all 64 rows.
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(4).with_min_items(1));
        let mut stats = ExecStats::default();
        assert_eq!(named_rows(&probed, &mut ctx, &mut stats).unwrap(), rows);
        assert_eq!(stats, whole);
        let stealing = ctx
            .take_shard_stats()
            .iter()
            .filter(|s| s.probe_cache_hits > 0)
            .count();
        assert!(
            stealing >= 4,
            "expected stolen hot sub-ranges, got {stealing} shards with hits"
        );
    }

    /// A filter comparing a re-minted Skolem with an *earlier* Map's
    /// Skolem-bearing binding, which minted the same keys: the comparison is
    /// true on every context, so the operators partition and the rows equal
    /// the one-partition run's.
    #[test]
    fn skolem_comparisons_over_a_skolem_map_partition_and_equal_the_sequential_run() {
        let inst = euro_instance();
        let refs = [&inst];
        let mk = || {
            Expr::Skolem(
                ClassName::new("CityT"),
                Box::new(Expr::var("E").proj("name")),
            )
        };
        let plan = Plan::scan("CityE", "E")
            .map(vec![("T".into(), mk())])
            .filter(mk().eq(Expr::var("T")));
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let seq_rows = named_rows(&plan, &mut seq_ctx, &mut seq_stats).unwrap();
        assert_eq!(seq_rows.len(), 3);
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8).with_min_items(1));
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows, seq_rows);
        assert_eq!(stats, seq_stats);
        assert!(!ctx.shard_stats().is_empty(), "the operators partitioned");
        assert_eq!(
            format!("{:?}", ctx.factory),
            format!("{:?}", seq_ctx.factory)
        );
    }

    /// A Skolem compared with a source identity partitions like any
    /// predicate: the workers' factories fold into the caller's, which ends
    /// up holding the identities a one-partition run mints.
    #[test]
    fn skolem_comparisons_partition_and_equal_the_sequential_run() {
        let inst = euro_instance();
        let refs = [&inst];
        let minted = Expr::Skolem(
            ClassName::new("CityT"),
            Box::new(Expr::var("E").proj("name")),
        );
        let plan =
            Plan::scan("CityE", "E").filter(Expr::Neq(Box::new(minted), Box::new(Expr::var("E"))));
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let seq_rows = named_rows(&plan, &mut seq_ctx, &mut ExecStats::default()).unwrap();
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8).with_min_items(1));
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows, seq_rows);
        assert_eq!(ctx.factory.count(&ClassName::new("CityT")), 3);
        assert_eq!(
            format!("{:?}", ctx.factory),
            format!("{:?}", seq_ctx.factory)
        );
        assert!(!ctx.shard_stats().is_empty(), "the filter partitioned");
    }

    /// The split evaluate/apply API (query-level parallelism's building
    /// block) reproduces `execute_query` exactly: evaluating on a worker
    /// context and applying on the main context yields the identical target
    /// and factory state.
    #[test]
    fn evaluate_then_apply_equals_direct_execution() {
        let inst = euro_instance();
        let refs = [&inst];
        let query = Query {
            name: "T2".to_string(),
            plan: Plan::scan("CityE", "E").map(vec![("N".into(), Expr::var("E").proj("name"))]),
            inserts: vec![InsertAction {
                class: ClassName::new("CityT"),
                key: Expr::var("N"),
                attrs: vec![
                    ("name".into(), Expr::var("N")),
                    (
                        "place".into(),
                        Expr::Variant(
                            "euro_city".into(),
                            Box::new(Expr::Skolem(
                                ClassName::new("CountryT"),
                                Box::new(Expr::var("E").path("country.name")),
                            )),
                        ),
                    ),
                ],
            }],
        };
        let mut direct_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut direct_stats = ExecStats::default();
        let mut direct_target = Instance::new("target");
        execute_query(
            &query,
            &mut direct_ctx,
            &mut direct_target,
            &mut direct_stats,
        )
        .unwrap();

        let mut worker_ctx = EvalCtx::claim_worker(&refs);
        let mut worker_stats = ExecStats::default();
        let evaluated = evaluate_query(&query, &mut worker_ctx, &mut worker_stats).unwrap();
        // The evaluated query carries the worker's factory away.
        assert!(worker_ctx.factory.is_empty());
        let mut main_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut main_stats = ExecStats::default();
        let mut target = Instance::new("target");
        apply_evaluated_query(
            &query,
            evaluated,
            &mut main_ctx,
            &mut target,
            &mut main_stats,
        )
        .unwrap();
        assert_eq!(target, direct_target);
        // Worker stats (evaluation) + main stats (application) together
        // equal the direct run's counters.
        main_stats.absorb(worker_stats);
        assert_eq!(main_stats, direct_stats);
        assert_eq!(
            main_ctx.factory.count(&ClassName::new("CountryT")),
            direct_ctx.factory.count(&ClassName::new("CountryT"))
        );
        assert_eq!(
            main_ctx
                .factory
                .lookup(&ClassName::new("CountryT"), &Value::str("France")),
            direct_ctx
                .factory
                .lookup(&ClassName::new("CountryT"), &Value::str("France"))
        );
    }

    /// The per-shard breakdown accumulated by a parallel run sums to the
    /// merged totals for the worker-side counters.
    #[test]
    fn shard_stats_sum_to_the_merged_probe_totals() {
        let source = {
            let mut inst = Instance::new("s");
            for i in 0..16 {
                inst.insert_fresh(
                    &ClassName::new("CloneS"),
                    Value::record([("name", Value::str(format!("c{}", i % 4)))]),
                );
                inst.insert_fresh(
                    &ClassName::new("MarkerS"),
                    Value::record([
                        ("name", Value::str(format!("m{i}"))),
                        ("clone_name", Value::str(format!("c{}", i % 4))),
                    ]),
                );
            }
            inst
        };
        let refs = [&source];
        let probed = Plan::scan("MarkerS", "M").map(vec![]).hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone_name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(4).with_min_items(1));
        let mut stats = ExecStats::default();
        let _ = named_rows(&probed, &mut ctx, &mut stats).unwrap();
        let shards = ctx.take_shard_stats();
        assert!(!shards.is_empty());
        let probes: usize = shards.iter().map(|s| s.index_probes).sum();
        let hits: usize = shards.iter().map(|s| s.probe_cache_hits).sum();
        assert_eq!(probes, stats.index_probes);
        assert_eq!(hits, stats.probe_cache_hits);
        // Draining leaves the accumulator empty for the next run.
        assert!(ctx.shard_stats().is_empty());
    }

    #[test]
    fn multi_key_probe_join_verifies_secondary_keys() {
        let inst = euro_instance();
        let refs = [&inst];
        // The CountryE side is a bare scan: probed on `name`, with the
        // second (language vs country.language) pair verified per candidate.
        let plan = Plan::scan("CityE", "E").hash_join_multi(
            Plan::scan("CountryE", "C"),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("C").proj("name"),
                ),
                (
                    Expr::var("E").path("country.language"),
                    Expr::var("C").proj("language"),
                ),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.index_probes, 2); // London and Manchester share a key
        assert_eq!(stats.probe_cache_hits, 1);
        // A mismatched secondary key filters every candidate out.
        let plan = Plan::scan("CityE", "E").hash_join_multi(
            Plan::scan("CountryE", "C"),
            vec![
                (
                    Expr::var("E").path("country.name"),
                    Expr::var("C").proj("name"),
                ),
                (Expr::var("E").proj("name"), Expr::var("C").proj("language")),
            ],
        );
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
    }

    fn only<'o>(oids: impl IntoIterator<Item = &'o Oid>) -> ScanRestriction {
        ScanRestriction::Only(std::sync::Arc::new(oids.into_iter().cloned().collect()))
    }

    fn except<'o>(oids: impl IntoIterator<Item = &'o Oid>) -> ScanRestriction {
        ScanRestriction::Except(std::sync::Arc::new(oids.into_iter().cloned().collect()))
    }

    #[test]
    fn scan_restrictions_narrow_extents_and_bypass_index_probes() {
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        let countries: Vec<Oid> = inst.extent(&ClassName::new("CountryE")).cloned().collect();
        // Restricting CityE — the *driving* side — to `Only` Δ keeps the
        // index fast path: the one delta row probes the CountryE index. The
        // scan visits Δ alone, never the extent, so it counts |Δ| scanned;
        // an identity of another class or one no source holds is skipped.
        // Given the chain `CityE.country` the CityE side is probeable too,
        // and the join drives from the side whose scan visits fewer
        // identities: Δ's one city here, the extent less Δ's two under
        // `Except` below — the same rows, probes and scans either way.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let country = RefChain {
            hops: vec![(ClassName::new("CityE"), "country".into())],
            class: ClassName::new("CountryE"),
        };
        for chains in [Vec::new(), vec![country]] {
            let absent = Oid::new(ClassName::new("CityE"), 1 << 40);
            let mut ctx = EvalCtx::new(&refs);
            ctx.set_reference_chains(chains.clone());
            ctx.restrict_scan("E", only([&cities[2], &countries[0], &absent]));
            let mut stats = ExecStats::default();
            let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0]["E"], Value::Oid(cities[2].clone()));
            assert_eq!(stats.index_probes, 1);
            assert_eq!(stats.restricted_scans, 1);
            assert_eq!(stats.rows_scanned, 1);
            // `Except` Δ walks the extent and leaves Δ out.
            let mut ctx = EvalCtx::new(&refs);
            ctx.set_reference_chains(chains);
            ctx.restrict_scan("E", except([&cities[0], &cities[1]]));
            let mut stats = ExecStats::default();
            let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
            assert_eq!(rows.len(), cities.len() - 2);
            assert!(rows
                .iter()
                .all(|row| row["E"] != Value::Oid(cities[0].clone())));
            assert_eq!(stats.rows_scanned, cities.len() - 2);
        }
        // Restricting CountryE — the *indexed* side — also keeps the fast
        // path: the index answers from the full extent, and the probe
        // filters each candidate against the restriction, so the
        // filtered-out identities never resurface. No scan of C actually
        // runs, so no restricted scan is recorded.
        for restriction in [only([&countries[0]]), except([&countries[1]])] {
            let mut ctx = EvalCtx::new(&refs);
            ctx.restrict_scan("C", restriction.clone());
            let mut stats = ExecStats::default();
            let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
            assert!(stats.index_probes > 0);
            assert_eq!(stats.restricted_scans, 0);
            assert!(!rows.is_empty());
            assert!(rows.iter().all(|row| match &row["C"] {
                Value::Oid(oid) => restriction.admits(oid),
                _ => false,
            }));
        }
        // An empty `Only` yields no rows at all, and scans nothing.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", only([]));
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.rows_scanned, 0);
        // Clearing restrictions restores the full result and the fast path.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", only([]));
        ctx.clear_scan_restrictions();
        let mut stats = ExecStats::default();
        let rows = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.restricted_scans, 0);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn restricted_runs_match_filtered_full_runs() {
        // A restricted evaluation must produce exactly the rows of the full
        // evaluation whose restricted scan var falls in the kept set — the
        // correctness contract the delta evaluator depends on — whether the
        // set is pinned `Only` itself or as the extent `Except` the rest.
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        let keep: std::collections::BTreeSet<Oid> =
            [cities[0].clone(), cities[2].clone()].into_iter().collect();
        let rest: Vec<&Oid> = cities.iter().filter(|oid| !keep.contains(*oid)).collect();
        let plan = Plan::scan("CityE", "E")
            .join(
                Plan::scan("CountryE", "C"),
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
            )
            .filter(capital("E"));
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let full = named_rows(&plan, &mut ctx, &mut stats).unwrap();
        let expected: Vec<NamedRow> = full
            .iter()
            .filter(|row| matches!(&row["E"], Value::Oid(o) if keep.contains(o)))
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        for restriction in [only(&keep), except(rest)] {
            let mut ctx = EvalCtx::new(&refs);
            ctx.restrict_scan("E", restriction);
            let mut stats = ExecStats::default();
            let restricted = named_rows(&plan, &mut ctx, &mut stats).unwrap();
            assert_eq!(restricted, expected);
        }
    }

    /// Run `plan` with the columnar tower on and off; both must agree.
    fn run_both_ways(plan: &Plan, inst: &Instance) -> Result<Vec<NamedRow>> {
        let refs = [inst];
        let run = |columnar: bool| {
            let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
            ctx.set_columnar(columnar);
            named_rows(plan, &mut ctx, &mut ExecStats::default())
        };
        let (row_path, columnar) = (run(false), run(true));
        assert_eq!(columnar, row_path, "columnar and row paths disagree");
        row_path
    }

    /// **Refusals**, one table: an ill-formed plan is refused before its
    /// first row — no row scanned, no object written — with the same error
    /// over an empty extent and a non-empty one, on the row path and the
    /// columnar path, at one thread and at eight. A name no layout binds is
    /// [`CplError::UnknownVariable`], wherever it sits (a hash-join key
    /// reading the other side's variable included, on a probeable side or
    /// not); a conjunct that is no comparison, or a comparison where a value
    /// belongs, is [`CplError::BadPlan`].
    #[test]
    fn ill_formed_plans_are_refused_before_their_first_row() {
        let cities = || Plan::scan("CityE", "E");
        let nowhere = || Expr::var("Nowhere");
        let is_capital = || Expr::var("E").proj("is_capital");
        let minted_is_e = || mk("CityT", Expr::var("E").proj("name")).eq(Expr::var("E"));
        let reads_e = |countries: Plan| {
            cities().map(vec![]).hash_join_multi(
                countries,
                vec![
                    (
                        Expr::var("E").path("country.name"),
                        Expr::var("C").proj("name"),
                    ),
                    (Expr::var("E").proj("name"), Expr::var("E").proj("name")),
                ],
            )
        };
        let query = |plan: Plan, key: Expr, attrs: Vec<(Label, Expr)>| Query {
            name: "refused".to_string(),
            plan,
            inserts: vec![InsertAction {
                class: ClassName::new("CityT"),
                key,
                attrs,
            }],
        };
        let plan = |plan: Plan| query(plan, Expr::var("E"), Vec::new());
        let unknown = |name: &str| Some(CplError::UnknownVariable(Var::new(name)));
        let cases = [
            (
                "a name in a filter",
                plan(cities().filter(nowhere().eq(Expr::var("E")))),
                unknown("Nowhere"),
            ),
            (
                "a name in a map",
                plan(cities().map(vec![bind("N", nowhere())])),
                unknown("Nowhere"),
            ),
            (
                "a name in a nested-loop predicate",
                plan(cities().join(Plan::scan("CountryE", "C"), nowhere().eq(Expr::var("C")))),
                unknown("Nowhere"),
            ),
            (
                "a name in an insert key",
                query(cities(), nowhere(), Vec::new()),
                unknown("Nowhere"),
            ),
            (
                "a name in an insert attribute",
                query(cities(), Expr::var("E"), vec![attr("a", nowhere())]),
                unknown("Nowhere"),
            ),
            (
                "a key reading the other side, on a probeable side",
                plan(reads_e(Plan::scan("CountryE", "C"))),
                unknown("E"),
            ),
            (
                "a key reading the other side, on a non-probeable side",
                plan(reads_e(Plan::scan("CountryE", "C").map(vec![]))),
                unknown("E"),
            ),
            (
                "a bare attribute conjunct",
                plan(cities().filter(is_capital())),
                None,
            ),
            (
                "an `And` of one",
                plan(cities().filter(Expr::and(vec![is_capital()]))),
                None,
            ),
            (
                "a bare attribute on a join's second input",
                plan(
                    cities().cross(Plan::scan("CountryE", "C").filter(Expr::var("C").proj("name"))),
                ),
                None,
            ),
            (
                "a comparison bound in a map",
                plan(cities().map(vec![bind("B", minted_is_e())])),
                None,
            ),
            (
                "a comparison in an insert attribute",
                query(cities(), Expr::var("E"), vec![attr("b", minted_is_e())]),
                None,
            ),
        ];
        let (empty, inst) = (Instance::new("empty"), euro_instance());
        for (name, query, expected) in &cases {
            let mut first: Option<CplError> = None;
            for (source, columnar, threads) in [&empty, &inst]
                .into_iter()
                .flat_map(|s| [false, true].map(|c| (s, c)))
                .flat_map(|(s, c)| [1, 8].map(|t| (s, c, t)))
            {
                let at = format!(
                    "{name} (rows: {}, columnar: {columnar}, {threads} thread(s))",
                    source.extent_size(&ClassName::new("CityE"))
                );
                let refs = [source];
                let parallelism = Parallelism::new(threads).with_min_items(1);
                let mut ctx = EvalCtx::new(&refs).with_parallelism(parallelism);
                ctx.set_columnar(columnar);
                let (mut stats, mut target) = (ExecStats::default(), Instance::new("target"));
                let error = execute_query(query, &mut ctx, &mut target, &mut stats).unwrap_err();
                assert_eq!(stats, ExecStats::default(), "a row ran: {at}");
                assert_eq!(
                    target,
                    Instance::new("target"),
                    "an object was written: {at}"
                );
                let plan_error = run_slots(&query.plan, &mut ctx, &mut stats).err();
                assert!(
                    plan_error.is_none() || plan_error.as_ref() == Some(&error),
                    "{at}"
                );
                match (expected, &first) {
                    (_, Some(first)) => assert_eq!(&error, first, "{at}"),
                    (Some(expected), None) => assert_eq!(&error, expected, "{at}"),
                    (None, None) => assert!(matches!(error, CplError::BadPlan(_)), "{at}: {error}"),
                }
                first.get_or_insert(error);
            }
        }
    }

    /// A `Map` that rebinds the scanned variable overwrites its slot: each
    /// row holds one slot, the rebound value.
    #[test]
    fn a_rebinding_map_overwrites_the_scanned_slot() {
        let inst = partition_fixture();
        let plan =
            Plan::scan("MarkerS", "M").map(vec![("M".into(), Expr::var("M").proj("clone_name"))]);
        assert_eq!(layout(&plan), ["M"]);
        let rows = run_both_ways(&plan, &inst).unwrap();
        assert!(rows.iter().all(|row| row.len() == 1));
        let names: Vec<&Value> = rows.iter().map(|row| &row["M"]).collect();
        let expected: Vec<&Value> = inst
            .objects(&ClassName::new("MarkerS"))
            .map(|(_, v)| v.project("clone_name").unwrap())
            .collect();
        assert_eq!(names, expected);
    }

    /// A name bound on both sides of a join keeps one slot, holding the
    /// right side's value — on the nested-loop, cross and generic hash paths
    /// — and the probed identity on the index-probe path.
    #[test]
    fn a_join_whose_sides_share_a_name_keeps_the_right_value() {
        let inst = euro_instance();
        let city_name = || bind("K", Expr::var("E").proj("name"));
        let country_name = || bind("K", Expr::var("C").proj("name"));
        let left = || Plan::scan("CityE", "E").map(vec![city_name()]);
        let right = || Plan::scan("CountryE", "C").map(vec![country_name()]);
        let countries: BTreeSet<Value> = ["United Kingdom", "France"].map(Value::str).into();
        for (plan, rows) in [
            (
                left().join(
                    right(),
                    Expr::Neq(
                        Box::new(Expr::var("E").proj("name")),
                        Box::new(Expr::var("C").proj("name")),
                    ),
                ),
                6,
            ),
            (left().cross(right()), 6),
            (
                left().hash_join(right(), Expr::var("E").path("country.name"), Expr::var("K")),
                3,
            ),
        ] {
            assert_eq!(layout(&plan), ["E", "K", "C"]);
            let out = run_both_ways(&plan, &inst).unwrap();
            assert_eq!(out.len(), rows, "{}", plan.render());
            assert!(out.iter().all(|row| countries.contains(&row["K"])));
        }
        // Index-probe path: the probed scan variable, bound on the driving
        // side too, holds the probed identity.
        let plan = Plan::scan("CityE", "E")
            .map(vec![bind("C", Expr::Const("shadowed".into()))])
            .hash_join(
                Plan::scan("CountryE", "C"),
                Expr::var("E").path("country.name"),
                Expr::var("C").proj("name"),
            );
        assert_eq!(layout(&plan), ["E", "C"]);
        let out = run_both_ways(&plan, &inst).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|row| matches!(row["C"], Value::Oid(_))));
    }
}
