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
//! a **layout** ([`layout`]): its rows' variable names, ordered, each once.
//! Rows are [`SlotRow`]s in layout order, and each operator lowers its
//! expressions against its input's layout once per run
//! ([`crate::expr::Lowered`]): no row is searched by name, and evaluation
//! borrows instead of copying. Only [`run_plan`] names rows, at its return.
//!
//! ## Partitioned execution
//!
//! Every operator has **one body**, written over *partitions* of its input:
//! the workspace's one rule, [`wol_model::Parallelism::partitions`], decides
//! how many from the context's budget ([`EvalCtx::set_parallelism`]) and the
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
//! partition at every thread count (breakdown: [`EvalCtx::shard_stats`]).
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
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use wol_model::{
    chunk_ranges, ClassName, Conflict, Instance, Label, Oid, Record, SkolemFactory, Value,
};

use crate::error::CplError;
use crate::expr::{bind_slot, lower_bindings, store, EvalCtx, Expr, Lowered, RecordShape};
use crate::plan::{InsertAction, Plan, Query};
use crate::Result;

pub use crate::expr::{Row, SlotRow};

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

/// Telemetry of the columnar executor ([`crate::columnar`]). Kept separate
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
    fn new(out: &[String], left: &[String], right: &[String], capacity: usize) -> Splice {
        let mut names = out.to_vec();
        let slots = left
            .iter()
            .chain(right)
            .map(|n| bind_slot(&mut names, n))
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
/// that is a single attribute projection off the scanned variable.
pub(crate) struct IndexableSide {
    class: wol_model::ClassName,
    var: String,
    /// Attribute the index is probed on.
    attr: Label,
    /// Which key pair the probe answers; the remaining pairs are verified
    /// against each candidate object.
    key_index: usize,
}

/// Whether the index fast path could answer `plan` through key number
/// `key_index` of its side: the plan is a bare class scan and the key a
/// single attribute projection off the scanned variable.
fn indexable_key(plan: &Plan, key_index: usize, key: &Expr) -> Option<IndexableSide> {
    let (Plan::Scan { class, var }, Expr::Proj(base, attr)) = (plan, key) else {
        return None;
    };
    matches!(base.as_ref(), Expr::Var(v) if v == var).then(|| IndexableSide {
        class: class.clone(),
        var: var.clone(),
        attr: attr.clone(),
        key_index,
    })
}

/// Detect an indexable side. `keys` yields this side's key expression from
/// each `(left, right)` pair. Shared with the planner
/// ([`crate::optimizer`]), which orients hash-join sides precisely so this
/// fast path fires — the two must never diverge. (The planner only asks
/// *whether* a side is indexable; which key the executor actually probes on
/// is chosen per run by [`best_indexable_side`].)
pub(crate) fn indexable_side<'p>(
    plan: &Plan,
    keys: impl Iterator<Item = &'p Expr>,
) -> Option<IndexableSide> {
    keys.enumerate()
        .find_map(|(key_index, key)| indexable_key(plan, key_index, key))
}

/// Among a composite key's probe-able attributes, pick the one whose index
/// yields the smallest *expected* candidate list, estimated from the
/// attribute's own histogram as `Σ_v count(v)² / entries` — the mean bucket
/// length weighted by how often each value is probed. On skewed data this is
/// the difference between probing a zipfian attribute (hot keys return huge
/// candidate lists, over and over) and probing a uniform one; plain ndv
/// cannot see it. Histograms are only consulted when there is a genuine
/// choice (two or more probe-able keys) — the common single-key join keeps
/// the O(1) detection.
fn best_indexable_side(
    plan: &Plan,
    keys: &[&Expr],
    sources: &[&Instance],
) -> Option<IndexableSide> {
    let mut candidates: Vec<IndexableSide> = keys
        .iter()
        .enumerate()
        .filter_map(|(key_index, key)| indexable_key(plan, key_index, key))
        .collect();
    if candidates.len() <= 1 {
        return candidates.pop();
    }
    let expected = |side: &IndexableSide| {
        let mut self_join_rows = 0.0;
        let mut entries = 0.0;
        for source in sources {
            let histogram = source.attr_histogram(&side.class, &side.attr);
            self_join_rows += histogram.eq_join_rows(&histogram);
            entries += histogram.entries() as f64;
        }
        if entries > 0.0 {
            self_join_rows / entries
        } else {
            f64::INFINITY
        }
    };
    // `min_by` keeps the first of equally cheap keys.
    candidates
        .into_iter()
        .map(|side| (expected(&side), side))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, side)| side)
}

/// The number of identities a plan side's underlying scan can emit under
/// the active restrictions: the restriction set's size if the scan is
/// pinned, the class's full extent size otherwise. Filters and maps only
/// shrink the row count, so this is an upper bound on the side's driving
/// cost — enough to orient a delta join so the Δ-pinned slot drives.
/// `None` when the side bottoms out in anything but a scan.
fn scan_cardinality(plan: &Plan, ctx: &EvalCtx<'_>) -> Option<usize> {
    match plan {
        Plan::Scan { class, var } => Some(match ctx.scan_restriction(var) {
            Some(keep) => keep.len(),
            None => ctx
                .sources()
                .iter()
                .map(|source| source.extent_size(class))
                .sum(),
        }),
        Plan::Filter { input, .. } | Plan::Map { input, .. } => scan_cardinality(input, ctx),
        _ => None,
    }
}

/// The layout of a plan's rows: the variable each slot holds. A scan has one
/// slot; a `Map` binding overwrites its name's slot or appends one; a join
/// is left ++ right, a name on both sides keeping the right value in the left
/// slot; an index-probe join (the path an unrestricted run takes whenever
/// `indexable_side` finds one) appends, or overwrites, the probed variable
/// to the driving side's layout — and a delta-restricted run that drives
/// from the other side writes into the same layout.
pub fn layout(plan: &Plan) -> Vec<String> {
    let joined = |mut left: Vec<String>, right: Vec<String>| {
        for name in &right {
            bind_slot(&mut left, name);
        }
        left
    };
    match plan {
        Plan::Scan { var, .. } => vec![var.clone()],
        Plan::Filter { input, .. } => layout(input),
        Plan::Map { input, bindings } => {
            let names = bindings.iter().map(|(name, _)| name.clone()).collect();
            joined(layout(input), names)
        }
        Plan::NestedLoopJoin { left, right, .. } | Plan::CrossJoin { left, right } => {
            joined(layout(left), layout(right))
        }
        Plan::HashJoin { left, right, keys } => {
            if let Some(side) = indexable_side(left, keys.iter().map(|(l, _)| l)) {
                joined(layout(right), vec![side.var])
            } else if let Some(side) = indexable_side(right, keys.iter().map(|(_, r)| r)) {
                joined(layout(left), vec![side.var])
            } else {
                joined(layout(left), layout(right))
            }
        }
    }
}

/// The hash-join index fast path: drive the join from `driving`'s rows,
/// answer key pair `side.key_index` by probing the indexable scan side
/// through the source instances' attribute indexes, and verify any remaining
/// key pairs against each candidate.
///
/// Repeated composite keys — the common case on skewed data, where a few hot
/// values dominate the driving side — are probed **once**, in two passes
/// over contiguous partitions. The first probes each group (a distinct key
/// tuple, or a keyed row when a scan-side key also reads the driving row)
/// in first-occurrence order. The second splices every driving row, in
/// order, with its group's identities in `out` (the join's [`layout`]); a
/// group's first row counts its probe, every other row a cache hit
/// ([`ExecStats::probe_cache_hits`]), so the per-shard breakdown sums to the
/// merged counts. Rows, counts and the error (the first failing row's key,
/// else the first failing group's probe) are a one-partition run's.
fn probe_join(
    driving: &Plan,
    driving_keys: &[&Expr],
    scan_keys: &[&Expr],
    side: &IndexableSide,
    (out, width): (&[String], usize),
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    let driving_rows = rows_of(driving, width, ctx, stats)?;
    let mut probe_layout = layout(driving);
    let splice = Splice::new(out, &probe_layout, std::slice::from_ref(&side.var), width);
    let driving_lowered = lower_all(driving_keys, &probe_layout);
    let slot = bind_slot(&mut probe_layout, &side.var);
    let probe = Probe {
        side,
        keys: lower_all(scan_keys, &probe_layout),
        slot,
        width: probe_layout.len(),
    };
    let parts = ctx.parallelism().partitions(driving_rows.len());
    let key_tuples = eval_key_tuples(&driving_rows, &driving_lowered, parts, ctx, stats)?;
    // One probe per key is sound only when every scan-side key expression
    // ranges over the scanned variable alone — then the verified identity
    // list is a function of the key tuple. The planner only emits such keys,
    // but the join shape is public API, so the executor re-checks.
    let cacheable = scan_keys
        .iter()
        .all(|k| k.var_set().iter().all(|v| v == &side.var));
    // Each keyed row's group, and each group's first row with its key.
    let mut group_of: Vec<Option<usize>> = Vec::with_capacity(key_tuples.len());
    let mut firsts: Vec<(usize, &[Cow<'_, Value>])> = Vec::new();
    let mut by_key: HashMap<&[Cow<'_, Value>], usize> = HashMap::new();
    for (idx, values) in key_tuples.iter().enumerate() {
        group_of.push(values.as_deref().map(|key| {
            let fresh = firsts.len();
            let group = if cacheable {
                *by_key.entry(key).or_insert(fresh)
            } else {
                fresh
            };
            if group == fresh {
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
        let (mut scratch, mut found) = (Vec::new(), Vec::new());
        let mut ends = Vec::with_capacity(range.len());
        for &(idx, key) in &firsts[range] {
            // A cacheable key's candidates depend on the key alone; otherwise
            // the row is the base the remaining scan keys are verified against.
            let base = (!cacheable).then(|| driving_rows[idx].as_slice());
            found.extend(probe.candidates(base, &mut scratch, key, wctx)?);
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

fn lower_all(exprs: &[&Expr], layout: &[String]) -> Vec<Lowered> {
    exprs.iter().map(|e| Lowered::new(e, layout)).collect()
}

/// The index-probed side of a probe join: its keys lowered over the probe
/// row, the driving layout with the probed variable bound at `slot`.
struct Probe<'s> {
    side: &'s IndexableSide,
    keys: Vec<Lowered>,
    slot: usize,
    width: usize,
}

impl Probe<'_> {
    /// Probe the index for one key tuple's candidates and verify the other
    /// key pairs against each, bound into scratch `row` (a copy of `base`,
    /// or blanks when the keys read the probed variable alone).
    fn candidates(
        &self,
        base: Option<&[Value]>,
        row: &mut SlotRow,
        key_values: &[Cow<'_, Value>],
        ctx: &mut EvalCtx<'_>,
    ) -> Result<Vec<Oid>> {
        let side = self.side;
        let mut matched: Vec<Oid> = Vec::new();
        for instance in ctx.sources() {
            let found =
                instance.lookup_by_attr(&side.class, &side.attr, &key_values[side.key_index]);
            if matched.is_empty() {
                matched = found;
            } else {
                matched.extend(found);
            }
        }
        // The probed scan's delta restriction applies here, as a candidate
        // filter: the index answers from the full extent, so membership in
        // the restriction set is re-checked per candidate identity.
        let restriction = ctx.scan_restriction(&side.var).cloned();
        row.clear();
        row.extend_from_slice(base.unwrap_or_default());
        row.resize(self.width, Value::Absent);
        let mut failed = None;
        matched.retain(|oid| {
            if failed.is_some() || restriction.as_ref().is_some_and(|keep| !keep.contains(oid)) {
                return false;
            }
            row[self.slot] = Value::Oid(oid.clone());
            let mut unprobed = self
                .keys
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != side.key_index);
            unprobed.all(|(i, key)| match key.eval(row, ctx) {
                Ok(value) => value == key_values[i],
                Err(e) => {
                    failed = (!e.is_bad_value()).then_some(e);
                    false
                }
            })
        });
        failed.map_or(Ok(matched), Err)
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
/// delta restriction if one is active, and counted as scanned.
fn scan_extent<T>(
    class: &wol_model::ClassName,
    var: &str,
    ctx: &EvalCtx<'_>,
    stats: &mut ExecStats,
    emit: impl FnMut(&Oid) -> T,
) -> Vec<T> {
    let restriction = ctx.scan_restriction(var);
    if restriction.is_some() {
        stats.restricted_scans += 1;
    }
    let scanned: Vec<T> = ctx
        .sources()
        .iter()
        .flat_map(|instance| instance.extent(class))
        .filter(|oid| restriction.is_none_or(|keep| keep.contains(*oid)))
        .map(emit)
        .collect();
    stats.rows_scanned += scanned.len();
    scanned
}

/// Run a plan against the context, returning its rows as named [`Row`]s —
/// the slot rows of [`run_slots`], named once, here.
pub fn run_plan(plan: &Plan, ctx: &mut EvalCtx<'_>, stats: &mut ExecStats) -> Result<Vec<Row>> {
    let names = layout(plan);
    let rows = run_slots(plan, ctx, stats)?;
    Ok(rows
        .into_iter()
        .map(|row| names.iter().cloned().zip(row).collect())
        .collect())
}

/// Run a plan against the context, returning its rows in the plan's
/// [`layout`].
pub fn run_slots(
    plan: &Plan,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    rows_of(plan, layout(plan).len(), ctx, stats)
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
    plan: &Plan,
    width: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Vec<SlotRow>> {
    // Scan→filter→project towers over a single source run batch-at-a-time on
    // the columnar executor (identical rows and stats, proven differentially);
    // everything else — and every bail-out — takes the row path below.
    if let Some(rows) = crate::columnar::try_run(plan, width, ctx, stats)? {
        return Ok(rows);
    }
    let rows = match plan {
        Plan::Scan { class, var } => {
            scan_extent(class, var, ctx, stats, |oid| scan_row(oid, width))
        }
        Plan::Filter { input, predicate } => {
            let predicate = Lowered::new(predicate, &layout(input));
            let predicate = &predicate;
            // Fused scan+filter: partition the class extent itself into
            // contiguous chunks, so row construction and the predicate both
            // run on the partitions.
            if let Plan::Scan { class, var } = input.as_ref() {
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
                        if predicate.eval_predicate(&[Value::Oid(oid.clone())], wctx)? {
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
                        if predicate.eval_predicate(&row, wctx)? {
                            kept.push(row);
                        }
                    }
                    ws.rows_produced += kept.len();
                    Ok(kept)
                })?;
                concat(chunks)
            }
        }
        Plan::Map { input, bindings } => {
            let input_rows = rows_of(input, width, ctx, stats)?;
            let lowered = lower_bindings(bindings, &mut layout(input));
            let lowered = &lowered;
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
        Plan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let left_rows = rows_of(left, width, ctx, stats)?;
            let right_rows = rows_of(right, width, ctx, stats)?;
            let out = layout(plan);
            let splice = Splice::new(&out, &layout(left), &layout(right), width);
            let predicate = Lowered::new(predicate, &out);
            let parts = ctx.parallelism().partitions(left_rows.len());
            let (left_rows, right_rows, splice, predicate) =
                (&left_rows, &right_rows, &splice, &predicate);
            let ranges = chunk_ranges(left_rows.len(), parts);
            let chunks = run_partitioned(ctx, stats, ranges, |range, wctx, ws| {
                let mut out = Vec::new();
                for l in &left_rows[range] {
                    for r in right_rows {
                        let combined = splice.join(l, r);
                        if predicate.eval_predicate(&combined, wctx)? {
                            out.push(combined);
                        }
                    }
                }
                ws.rows_produced += out.len();
                Ok(out)
            })?;
            let rows = concat(chunks);
            ctx.record_join("NestedLoopJoin", rows.len());
            rows
        }
        Plan::CrossJoin { left, right } => {
            let left_rows = rows_of(left, width, ctx, stats)?;
            let right_rows = rows_of(right, width, ctx, stats)?;
            let splice = Splice::new(&layout(plan), &layout(left), &layout(right), width);
            let parts = ctx.parallelism().partitions(left_rows.len());
            let (left_rows, right_rows, splice) = (&left_rows, &right_rows, &splice);
            let ranges = chunk_ranges(left_rows.len(), parts);
            let chunks = run_partitioned(ctx, stats, ranges, |range, _wctx, ws| {
                let mut out = Vec::with_capacity(range.len() * right_rows.len());
                for l in &left_rows[range] {
                    for r in right_rows {
                        out.push(splice.join(l, r));
                    }
                }
                ws.rows_produced += out.len();
                Ok(out)
            })?;
            let rows = concat(chunks);
            ctx.record_join("CrossJoin", rows.len());
            rows
        }
        Plan::HashJoin { left, right, keys } => {
            let left_keys: Vec<&Expr> = keys.iter().map(|(l, _)| l).collect();
            let right_keys: Vec<&Expr> = keys.iter().map(|(_, r)| r).collect();
            // Index fast path: when one side is a bare scan keyed by a single
            // attribute of the scanned object, never materialise it — drive
            // from the other side and answer each key with an attribute-index
            // probe, on the attribute with the smallest expected candidate
            // lists. Delta restrictions keep the fast path (the driving side
            // applies its own; `Probe::candidates` filters by the probed
            // side's), which is what keeps semi-naive delta joins O(delta).
            let left_side = best_indexable_side(left, &left_keys, ctx.sources());
            let right_side = best_indexable_side(right, &right_keys, ctx.sources());
            let out = layout(plan);
            let out = (out.as_slice(), width);
            // When both orientations are available and a rotation is active,
            // drive from whichever side is pinned to the smaller identity
            // set — the pivot slot's Δ — so the delta rows do the probing,
            // whichever side of the join they happen to land on. The rows
            // still land in the join's one layout.
            if ctx.has_scan_restrictions() {
                if let (Some(ls), Some(rs)) = (&left_side, &right_side) {
                    if let (Some(dl), Some(dr)) =
                        (scan_cardinality(left, ctx), scan_cardinality(right, ctx))
                    {
                        let side = if dl < dr { rs } else { ls };
                        let (driving, driving_keys, scan_keys) = if dl < dr {
                            (left, &left_keys, &right_keys)
                        } else {
                            (right, &right_keys, &left_keys)
                        };
                        return probe_join(driving, driving_keys, scan_keys, side, out, ctx, stats);
                    }
                }
            }
            if let Some(side) = left_side {
                return probe_join(right, &right_keys, &left_keys, &side, out, ctx, stats);
            }
            if let Some(side) = right_side {
                return probe_join(left, &left_keys, &right_keys, &side, out, ctx, stats);
            }
            let left_rows = rows_of(left, width, ctx, stats)?;
            let right_rows = rows_of(right, width, ctx, stats)?;
            let (left_layout, right_layout) = (layout(left), layout(right));
            let parts = ctx
                .parallelism()
                .partitions(left_rows.len().max(right_rows.len()));
            let rows = hash_join(
                &left_rows,
                &right_rows,
                &lower_all(&left_keys, &left_layout),
                &lower_all(&right_keys, &right_layout),
                &Splice::new(out.0, &left_layout, &right_layout, width),
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
    rows: usize,
}

impl EvaluatedQuery {
    /// Rows the query's plan emitted.
    pub fn rows_output(&self) -> usize {
        self.rows
    }
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
    /// Lower insert actions against the layout of the rows they read.
    pub fn lower(inserts: &[InsertAction], layout: &[String]) -> Vec<LoweredInsert> {
        inserts
            .iter()
            .map(|insert| LoweredInsert {
                class: insert.class.clone(),
                key: Lowered::new(&insert.key, layout),
                attrs: insert
                    .attrs
                    .iter()
                    .map(|(label, e)| (label.clone(), Lowered::new(e, layout)))
                    .collect(),
                shape: RecordShape::new(insert.attrs.iter().map(|(label, _)| label)),
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
/// target: the insert evaluation is partitioned like any operator, and its
/// first error in row order fails the evaluation. `stats` absorbs the
/// execution counters, including `rows_output`; the returned
/// [`EvaluatedQuery`] takes `ctx`'s factory with it and is applied with
/// [`apply_evaluated_query`] on the owning context.
pub fn evaluate_query(
    query: &Query,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<EvaluatedQuery> {
    let rows = run_slots(&query.plan, ctx, stats)?;
    stats.rows_output += rows.len();
    let inserts = LoweredInsert::lower(&query.inserts, &layout(&query.plan));
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
        rows: rows.len(),
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
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::InsertAction;
    use std::collections::{BTreeMap, BTreeSet};
    use wol_model::{ClassName, Oid, Parallelism};

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

    #[test]
    fn scan_filter_map() {
        let inst = euro_instance();
        let refs = [&inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let plan = Plan::scan("CityE", "E")
            .filter(Expr::var("E").proj("is_capital"))
            .map(vec![("N".to_string(), Expr::var("E").proj("name"))]);
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let mut nl_rows = run_plan(&nl, &mut ctx, &mut stats).unwrap();
        let mut ctx = EvalCtx::new(&refs);
        let mut hj_rows = run_plan(&hj, &mut ctx, &mut stats).unwrap();
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let _ = run_plan(&generic, &mut ctx, &mut stats);
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
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
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
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
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
            plan: Plan::scan("CountryE", "C")
                .map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
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
        let plan = Plan::scan("CityE", "E")
            .map(vec![("N".to_string(), Expr::var("E").path("country.name"))]);
        // The dangling reference surfaces as a BadValue, which Map treats as a
        // non-contributing row rather than a hard error.
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 6); // 3 cities x 2 countries
        assert_eq!(stats.max_intermediate_rows, 6);
    }

    #[test]
    fn multi_key_hash_join_matches_composite_keys() {
        let inst = euro_instance();
        let refs = [&inst];
        // Join cities to countries on (name-of-country, language): composite
        // key through the generic hash path (left side is not a bare scan).
        let left = Plan::scan("CityE", "E").filter(Expr::var("E").proj("is_capital"));
        let plan = left.hash_join_multi(
            Plan::scan("CityE", "F").filter(Expr::var("F").proj("is_capital")),
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let mut rows = run_plan(&probed, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.index_probes, 2); // "hot" once, "cold" once
        assert_eq!(stats.probe_cache_hits, 8);
        // Same rows as the generic hash join over pre-materialised sides.
        let generic = Plan::scan("MarkerS", "M")
            .map(vec![("K".to_string(), Expr::var("M").proj("clone_name"))])
            .hash_join(
                Plan::scan("CloneS", "C").map(vec![("N".to_string(), Expr::var("C").proj("name"))]),
                Expr::var("K"),
                Expr::var("N"),
            );
        let mut ctx = EvalCtx::new(&refs);
        let mut generic_stats = ExecStats::default();
        let mut generic_rows = run_plan(&generic, &mut ctx, &mut generic_stats).unwrap();
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let _ = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(ctx.take_join_trace().is_empty());
    }

    /// A source with every partitioning hazard in one place: countries and
    /// cities (one city without a country, so rows drop mid-`Map`), a
    /// single-row class, a zipfian marker→clone key (32 of 40 markers share
    /// the `hot` clone) so one probe group spans several partitions, and
    /// tags whose `flag` is no boolean — an `int` on the first tag and its
    /// `cold` clone, a `str` on the 64 `hot` tags after it and their clone —
    /// so a `Not` over either fails differently for the first row and the
    /// rest.
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
        let flag = |cold: bool| if cold { Value::int(0) } else { Value::str("x") };
        for name in ["cold", "hot"] {
            inst.insert_fresh(
                &ClassName::new("FlagS"),
                Value::record([("name", Value::str(name)), ("flag", flag(name == "cold"))]),
            );
        }
        for i in 0..65 {
            inst.insert_fresh(
                &ClassName::new("TagS"),
                Value::record([
                    ("name", Value::str(format!("t{i}"))),
                    (
                        "clone_name",
                        Value::str(if i == 0 { "cold" } else { "hot" }),
                    ),
                    ("flag", flag(i == 0)),
                ]),
            );
        }
        inst
    }

    /// One row of the partition-invariance table.
    struct Shape {
        name: &'static str,
        query: Query,
        /// Delta restriction installed before running, as `(var, kept)`.
        restrict: Option<(&'static str, BTreeSet<Oid>)>,
        /// Whether some operator of the plan gets more than one partition
        /// once there is a budget (false: empty input, or pinned throughout).
        partitions: bool,
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
        }
    }

    fn mk(class: &str, key: Expr) -> Expr {
        Expr::Skolem(ClassName::new(class), Box::new(key))
    }

    fn bind(var: &str, expr: Expr) -> (String, Expr) {
        (var.to_string(), expr)
    }

    fn attr(label: &str, expr: Expr) -> (Label, Expr) {
        (label.into(), expr)
    }

    /// **Partition invariance**, one table for every operator: each plan
    /// shape runs at 1, 2, 3 and 8 partitions (the threshold lowered so the
    /// tiny fixture partitions at all) and must reproduce the one-partition
    /// run exactly — the same row *stream*, a bit-identical target, the same
    /// Skolem memo, equal [`ExecStats`] — while the per-shard breakdown stays
    /// empty exactly when nothing was dispatched. A shape that fails must
    /// fail with the one-partition run's error: the first failing row's.
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
        let compared_binding = || {
            bind(
                "B",
                mk("CityT", Expr::var("E").proj("name")).eq(Expr::var("E")),
            )
        };
        // `Not` over a tag's or a clone's `flag`: an error that is not a bad
        // value, `int` for the first row and `str` for every later one.
        let not_flag = |var: &str| Expr::Not(Box::new(Expr::var(var).proj("flag")));
        let tag_clone = |scan_flag: Expr| {
            Plan::scan("TagS", "T").map(vec![]).hash_join_multi(
                Plan::scan("FlagS", "C"),
                vec![
                    (
                        Expr::var("T").proj("clone_name"),
                        Expr::var("C").proj("name"),
                    ),
                    (Expr::constant(true), scan_flag),
                ],
            )
        };
        let shapes = vec![
            // Multi-hop predicate: out of the columnar executor's scope, so
            // this is the fused scan+filter.
            shape(
                "scan+filter",
                Plan::scan("CityE", "E").filter(country_name().eq(Expr::constant("country1"))),
            ),
            shape(
                "columnar tower",
                Plan::scan("CityE", "E")
                    .filter(Expr::var("E").proj("is_capital"))
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
                    .filter(Expr::var("E").proj("is_capital").eq(Expr::constant(false)))
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
            // any other binding.
            shape(
                "skolem comparison map",
                Plan::scan("CityE", "E").map(vec![compared_binding()]),
            ),
            // A later map re-minting the earlier map's keys and comparing.
            shape(
                "skolem comparison over a skolem map",
                Plan::scan("CityE", "E")
                    .map(vec![bind("T", mk("CityT", Expr::var("E").proj("name")))])
                    .map(vec![
                        bind("T2", mk("CityT", Expr::var("E").proj("name"))),
                        bind("B", Expr::var("T2").eq(Expr::var("T"))),
                    ]),
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
            // A scan-side key ranging over the *driving* variable: no probe
            // may be shared between rows.
            shape(
                "uncacheable probe join",
                Plan::scan("MarkerS", "M").map(vec![]).hash_join_multi(
                    Plan::scan("CloneS", "C"),
                    vec![
                        (
                            Expr::var("M").proj("clone_name"),
                            Expr::var("C").proj("name"),
                        ),
                        (Expr::var("M").proj("name"), Expr::var("M").proj("name")),
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
                    Plan::scan("GhostClass", "G").filter(Expr::var("G").proj("is_capital")),
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
                restrict: Some(("E", cities.iter().step_by(3).cloned().collect())),
                ..shape("restricted driving scan", city_country())
            },
            Shape {
                restrict: Some(("C", countries[..2].iter().cloned().collect())),
                ..shape("restricted probed scan", city_country())
            },
            Shape {
                restrict: Some(("E", cities.iter().skip(1).step_by(2).cloned().collect())),
                ..shape(
                    "restricted scan+filter",
                    Plan::scan("CityE", "E").filter(Expr::var("E").proj("is_capital")),
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
            // An insert comparing a Skolem in an attribute, over a bare scan:
            // only the insert evaluation partitions.
            Shape {
                query: Query {
                    name: "comparing inserts".to_string(),
                    plan: Plan::scan("CityE", "E"),
                    inserts: vec![InsertAction {
                        class: ClassName::new("CityT"),
                        key: Expr::var("E").proj("name"),
                        attrs: vec![attr("B", compared_binding().1)],
                    }],
                },
                partitions: false,
                ..shape("comparing inserts", Plan::scan("CityE", "E"))
            },
            // Failing shapes. A cold key, then a hot key whose 64 rows span
            // every partition: the cold group's probe fails first.
            shape("failing probe join", tag_clone(not_flag("C"))),
            shape("failing uncacheable probe join", tag_clone(not_flag("T"))),
            shape(
                "failing filter",
                Plan::scan("TagS", "T").filter(not_flag("T")),
            ),
            shape(
                "failing map",
                Plan::scan("TagS", "T").map(vec![bind("B", not_flag("T"))]),
            ),
            shape(
                "failing generic hash join",
                Plan::scan("TagS", "T").map(vec![]).hash_join(
                    Plan::scan("FlagS", "C").map(vec![]),
                    not_flag("T"),
                    Expr::var("C").proj("flag"),
                ),
            ),
            Shape {
                query: Query {
                    name: "failing inserts".to_string(),
                    plan: Plan::scan("TagS", "T"),
                    inserts: vec![InsertAction {
                        class: ClassName::new("TagT"),
                        key: Expr::var("T").proj("name"),
                        attrs: vec![attr("b", not_flag("T"))],
                    }],
                },
                partitions: false,
                ..shape("failing inserts", Plan::scan("TagS", "T"))
            },
        ];
        let refs = [&inst];
        let mut produced = BTreeMap::new();
        let mut failed = BTreeMap::new();
        for shape in &shapes {
            let run = |threads: usize| -> Result<_> {
                let ctx = || {
                    let mut ctx = EvalCtx::new(&refs)
                        .with_parallelism(Parallelism::new(threads).with_min_items(1));
                    if let Some((var, keep)) = &shape.restrict {
                        ctx.restrict_scan(*var, std::sync::Arc::new(keep.clone()));
                    }
                    ctx
                };
                let mut plan_ctx = ctx();
                let mut plan_stats = ExecStats::default();
                let rows = run_plan(&shape.query.plan, &mut plan_ctx, &mut plan_stats)?;
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
        assert_eq!(produced["uncacheable probe join"], (40, 0, 40));
        assert_eq!(produced["skolem inserts"].1, 48);
        assert_eq!(produced["restricted driving scan"].0, 8);
        // Exactly the failing shapes fail, each on its first row's `int`.
        let int_error = CplError::NotBoolean("int");
        assert!(failed.values().all(|e| *e == int_error), "{failed:?}");
        assert_eq!(
            failed.keys().copied().collect::<Vec<_>>(),
            [
                "failing filter",
                "failing generic hash join",
                "failing inserts",
                "failing map",
                "failing probe join",
                "failing uncacheable probe join",
            ]
        );
    }

    /// A cross-algorithm oracle that shares no body with the partitioned
    /// operators' own reference run: on generated equi-joins (random sizes,
    /// small key domains so keys repeat, missing key attributes, single and
    /// composite keys) the **index-probe** path, the **generic hash** path
    /// (the same plan with the scan side behind an identity `Map`) and a
    /// **nested-loop join** with the equality as its predicate must produce
    /// the same row multiset, at one partition and at several.
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
        for case in 0..60 {
            let mut inst = Instance::new("gen");
            let (domain_a, domain_b) = (1 + next(6), 1 + next(3));
            for (class, size) in [("L", next(30)), ("R", next(30))] {
                for i in 0..size {
                    let mut fields = vec![("id", Value::int(i as i64))];
                    // One row in eight lacks the key attribute entirely.
                    if next(8) != 0 {
                        fields.push(("a", Value::int(next(domain_a) as i64)));
                    }
                    fields.push(("b", Value::str(format!("b{}", next(domain_b)))));
                    inst.insert_fresh(&ClassName::new(class), Value::record(fields));
                }
            }
            let composite = case % 2 == 1;
            let mut keys = vec![(Expr::var("X").proj("a"), Expr::var("Y").proj("a"))];
            if composite {
                keys.push((Expr::var("X").proj("b"), Expr::var("Y").proj("b")));
            }
            let equality = Expr::and(keys.iter().map(|(l, r)| l.clone().eq(r.clone())).collect());
            let probed = Plan::scan("L", "X")
                .map(vec![])
                .hash_join_multi(Plan::scan("R", "Y"), keys.clone());
            let hashed = Plan::scan("L", "X")
                .map(vec![])
                .hash_join_multi(Plan::scan("R", "Y").map(vec![]), keys);
            let looped = Plan::scan("L", "X").join(Plan::scan("R", "Y"), equality);
            let refs = [&inst];
            for threads in [1, 4] {
                let run = |plan: &Plan| {
                    let mut ctx = EvalCtx::new(&refs)
                        .with_parallelism(Parallelism::new(threads).with_min_items(1));
                    let mut stats = ExecStats::default();
                    let mut rows = run_plan(plan, &mut ctx, &mut stats).unwrap();
                    rows.sort();
                    (rows, stats.index_probes)
                };
                let (probe_rows, probes) = run(&probed);
                let (hash_rows, hash_probes) = run(&hashed);
                let (loop_rows, _) = run(&looped);
                let at = format!("case {case} (composite: {composite}) at {threads} thread(s)");
                assert_eq!(hash_probes, 0, "the generic path must not probe: {at}");
                assert!(
                    probes > 0 || probe_rows.is_empty(),
                    "the fast path must have probed: {at}"
                );
                assert_eq!(probe_rows, loop_rows, "index-probe vs nested-loop: {at}");
                assert_eq!(hash_rows, loop_rows, "generic hash vs nested-loop: {at}");
            }
        }
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
        let rows = run_plan(&probed, &mut ctx, &mut whole).unwrap();
        assert_eq!(rows.len(), 72);
        assert_eq!(whole.index_probes, 5); // one per distinct key, hot included
        assert_eq!(whole.probe_cache_hits, 67);
        // At 4 partitions the hot key's 64 rows fill three partitions of 18
        // rows and part of the fourth: every shard slot reports cache hits,
        // instead of one shard absorbing all 64 rows.
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(4).with_min_items(1));
        let mut stats = ExecStats::default();
        assert_eq!(run_plan(&probed, &mut ctx, &mut stats).unwrap(), rows);
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

    /// A later binding of a Map comparing an *earlier* Skolem-bearing
    /// binding's variable, over a Map that minted the same keys: the
    /// comparison is true on every context, so the operators partition and
    /// the rows equal the one-partition run's.
    #[test]
    fn intra_map_skolem_comparisons_partition_and_equal_the_sequential_run() {
        let inst = euro_instance();
        let refs = [&inst];
        let mk = || {
            Expr::Skolem(
                ClassName::new("CityT"),
                Box::new(Expr::var("E").proj("name")),
            )
        };
        let plan = Plan::scan("CityE", "E")
            .map(vec![("T".to_string(), mk())])
            .map(vec![
                ("T2".to_string(), mk()),
                ("B".to_string(), Expr::var("T2").eq(Expr::var("T"))),
            ]);
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let mut seq_stats = ExecStats::default();
        let seq_rows = run_plan(&plan, &mut seq_ctx, &mut seq_stats).unwrap();
        assert!(seq_rows.iter().all(|r| r["B"] == Value::Bool(true)));
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8).with_min_items(1));
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows, seq_rows);
        assert_eq!(stats, seq_stats);
        assert!(!ctx.shard_stats().is_empty(), "the maps partitioned");
        assert_eq!(
            format!("{:?}", ctx.factory),
            format!("{:?}", seq_ctx.factory)
        );
    }

    /// A Skolem under a comparison partitions like any expression: the
    /// workers' factories fold into the caller's, which ends up holding the
    /// identities a one-partition run mints.
    #[test]
    fn skolem_comparisons_partition_and_equal_the_sequential_run() {
        let inst = euro_instance();
        let refs = [&inst];
        let plan = Plan::scan("CityE", "E").map(vec![(
            "B".to_string(),
            Expr::Skolem(
                ClassName::new("CityT"),
                Box::new(Expr::var("E").proj("name")),
            )
            .eq(Expr::var("E")),
        )]);
        let mut seq_ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let seq_rows = run_plan(&plan, &mut seq_ctx, &mut ExecStats::default()).unwrap();
        let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::new(8).with_min_items(1));
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows, seq_rows);
        assert_eq!(ctx.factory.count(&ClassName::new("CityT")), 3);
        assert_eq!(
            format!("{:?}", ctx.factory),
            format!("{:?}", seq_ctx.factory)
        );
        assert!(!ctx.shard_stats().is_empty(), "the map partitioned");
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
            plan: Plan::scan("CityE", "E")
                .map(vec![("N".to_string(), Expr::var("E").proj("name"))]),
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
        assert_eq!(evaluated.rows_output(), 3);
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
        let _ = run_plan(&probed, &mut ctx, &mut stats).unwrap();
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
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
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn scan_restrictions_narrow_extents_and_bypass_index_probes() {
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        // Restricting CityE — the *driving* side — keeps the index fast
        // path: the one surviving delta row probes the CountryE index, and
        // the restriction applies where the driving rows are produced.
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan(
            "E",
            std::sync::Arc::new(std::iter::once(cities[2].clone()).collect()),
        );
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["E"], Value::Oid(cities[2].clone()));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.restricted_scans, 1);
        // Restricting CountryE — the *indexed* side — also keeps the fast
        // path: the index answers from the full extent, and the probe
        // filters each candidate against the restriction set, so the
        // filtered-out identities never resurface. No scan of C actually
        // runs, so no restricted scan is recorded.
        let countries: Vec<Oid> = inst.extent(&ClassName::new("CountryE")).cloned().collect();
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan(
            "C",
            std::sync::Arc::new(std::iter::once(countries[0].clone()).collect()),
        );
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(stats.index_probes > 0);
        assert_eq!(stats.restricted_scans, 0);
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .all(|row| row["C"] == Value::Oid(countries[0].clone())));
        // An empty restriction yields no rows at all.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(Default::default()));
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert!(rows.is_empty());
        // Clearing restrictions restores the full result and the fast path.
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(Default::default()));
        ctx.clear_scan_restrictions();
        let mut stats = ExecStats::default();
        let rows = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.restricted_scans, 0);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn restricted_runs_match_filtered_full_runs() {
        // A restricted evaluation must produce exactly the rows of the full
        // evaluation whose restricted scan var falls in the kept set — the
        // correctness contract the delta evaluator depends on.
        let inst = euro_instance();
        let refs = [&inst];
        let cities: Vec<Oid> = inst.extent(&ClassName::new("CityE")).cloned().collect();
        let keep: std::collections::BTreeSet<Oid> =
            [cities[0].clone(), cities[2].clone()].into_iter().collect();
        let plan = Plan::scan("CityE", "E")
            .join(
                Plan::scan("CountryE", "C"),
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
            )
            .filter(Expr::var("E").proj("is_capital"));
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let full = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        let expected: Vec<Row> = full
            .iter()
            .filter(|row| matches!(&row["E"], Value::Oid(o) if keep.contains(o)))
            .cloned()
            .collect();
        let mut ctx = EvalCtx::new(&refs);
        ctx.restrict_scan("E", std::sync::Arc::new(keep));
        let mut stats = ExecStats::default();
        let restricted = run_plan(&plan, &mut ctx, &mut stats).unwrap();
        assert_eq!(restricted, expected);
    }

    /// Run `plan` with the columnar tower on and off; both must agree.
    fn run_both_ways(plan: &Plan, inst: &Instance) -> Result<Vec<Row>> {
        let refs = [inst];
        let run = |columnar: bool| {
            let mut ctx = EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
            ctx.set_columnar(columnar);
            run_plan(plan, &mut ctx, &mut ExecStats::default())
        };
        let (row_path, columnar) = (run(false), run(true));
        assert_eq!(columnar, row_path, "columnar and row paths disagree");
        row_path
    }

    /// A variable no layout binds is lowered to a node that raises
    /// `UnknownVariable` when evaluated: over an empty extent no row reaches
    /// it and the plan succeeds; over a non-empty one it fails by name.
    #[test]
    fn an_unknown_variable_errors_only_when_a_row_reaches_it() {
        let inst = euro_instance();
        for (class, expected) in [("GhostClass", Ok(0)), ("CityE", Err("Nowhere"))] {
            let map = Plan::scan(class, "E").map(vec![("N".to_string(), Expr::var("Nowhere"))]);
            let filter = Plan::scan(class, "E").filter(Expr::var("Nowhere").eq(Expr::var("E")));
            for plan in [map, filter] {
                let got = run_both_ways(&plan, &inst).map(|rows| rows.len());
                let expected = expected.map_err(|v| CplError::UnknownVariable(v.to_string()));
                assert_eq!(got, expected, "{}", plan.render());
            }
        }
    }

    /// A `Map` that rebinds the scanned variable overwrites its slot: each
    /// row holds one slot, the rebound value.
    #[test]
    fn a_rebinding_map_overwrites_the_scanned_slot() {
        let inst = partition_fixture();
        let plan = Plan::scan("MarkerS", "M")
            .map(vec![("M".to_string(), Expr::var("M").proj("clone_name"))]);
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
            .map(vec![bind("C", Expr::constant("shadowed"))])
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

    /// A filter whose value is not a boolean is an error on the row path and
    /// the columnar path alike, bare or nested under a connective — never an
    /// empty result.
    #[test]
    fn a_non_boolean_filter_is_an_error_on_every_path() {
        let inst = euro_instance();
        let name = || Expr::var("C").proj("name");
        for predicate in [name(), Expr::and(vec![name()]), Expr::Not(Box::new(name()))] {
            let plan = Plan::scan("CountryE", "C").filter(predicate);
            assert_eq!(
                run_both_ways(&plan, &inst),
                Err(CplError::NotBoolean("str")),
                "{}",
                plan.render()
            );
        }
        // A missing attribute under a truth test is still `false`.
        let plan = Plan::scan("CountryE", "C").filter(Expr::var("C").proj("is_capital"));
        assert_eq!(run_both_ways(&plan, &inst), Ok(Vec::new()));
    }
}
