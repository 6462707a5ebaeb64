//! Vectorized batch-at-a-time execution over columnar extents: one lowering,
//! two drivers.
//!
//! Every plan expression is lowered once, against its node's slot layout
//! ([`Lowered`], [`exec::layout`]), and the row executor in [`crate::exec`]
//! evaluates it row by row. For the dominant plan shape — scan → filter →
//! map over one class — this module is a second driver of the *same* lowered
//! expressions: it evaluates them batch-at-a-time over the column-major
//! derived storage of [`wol_model::column`], a typed array per attribute.
//!
//! * **Lanes.** A tower's `Filter` and `Map` nodes are lowered exactly as the
//!   row path lowers them; the driver then reads each lowered leaf as a
//!   *lane*: the scanned identity, an attribute column of the scanned class
//!   (a projection off the identity), or a constant. A slot a `Map` binds is
//!   the lane its expression reads. Anything else — Skolems, record or
//!   variant construction, multi-hop projections, unknown variables, several
//!   sources — leaves the plan to the row path, so coverage grows without
//!   risking semantics. So does a truth test of a lane that may not hold a
//!   boolean: the row path raises that as an error, in row order, which a
//!   batch cannot reproduce.
//! * **One comparison.** A comparison is decided by
//!   [`PushOp::holds`](wol_model::PushOp::holds) — the definition the row
//!   path, the clause matcher and the scan providers use — over
//!   [`ValueRef`] views that a typed cell yields without building a
//!   [`Value`]. Two dictionary-coded strings compare for equality by code: a
//!   representation fast path (all string columns share one dictionary), not
//!   a second definition.
//! * **Selection vectors.** Each worker walks its contiguous row range as a
//!   vector of surviving row ids; filter kernels evaluate tri-state outcomes
//!   over column chunks — `Some(true)`, `Some(false)`, or `None` for the row
//!   path's bad-value error, as [`PushOp::holds`](wol_model::PushOp::holds)
//!   returns them — and compact the vector. The tri-state matters: the row path turns a missing attribute
//!   or an uncomparable pair into a bad-value error that predicates swallow
//!   as *false* and `Map` turns into a dropped row, and negation must *not*
//!   resurrect such rows.
//! * **Late materialization.** Only rows surviving every stage are
//!   materialized, as slot rows in the tower's [`exec::layout`] (dictionary
//!   codes resolved back to strings, bit-identical to the values the row
//!   path would have produced), so join build/probe sides and insert
//!   evaluation downstream see the usual rows having paid columnar cost only
//!   for survivors.
//! * **Chunk-granular dispatch.** Ranges come from the same
//!   [`wol_model::chunk_ranges`] morsel partitioning and the same partition
//!   rule as every row operator, and run like them (one range inline,
//!   several on the shared [`wol_model::WorkerPool`]), with results
//!   reassembled in submission order. Per-stage survivor totals are
//!   partition-invariant, so the merged [`ExecStats`] equal the row path's at
//!   every thread count.
//!
//! The driver runs by default. [`EvalCtx::set_columnar`] pins a context to
//! the row path, the reference the differential tests in
//! `tests/properties.rs` hold this driver to.

use std::ops::Range;
use std::sync::Arc;

use wol_model::{chunk_ranges, ClassName, Instance, Label, Oid, PushOp, RealVal, Value, ValueRef};
use wol_model::{AttrColumn, ColumnData, ColumnKind, CHUNK_ROWS};

use crate::error::CplError;
use crate::exec::{self, ExecStats};
use crate::expr::{lower_bindings, EvalCtx, Lowered, Node, SlotRow};
use crate::plan::Plan;
use crate::Result;

/// What a slot, or a leaf of a lowered expression, reads per row.
#[derive(Clone, Debug, PartialEq)]
enum Lane {
    /// The scanned identity.
    Identity,
    /// An attribute of the scanned object: a column of its class.
    Column(Label),
    /// A constant.
    Const(Value),
}

impl Lane {
    /// The lane `node` reads when slot `s` holds lane `slots[s]`, or `None`
    /// when the node is no lane.
    fn of(node: &Node, slots: &[Lane]) -> Option<Lane> {
        match node {
            Node::Slot(slot) => slots.get(*slot).cloned(),
            Node::Const(value) => Some(Lane::Const(value.clone())),
            Node::Proj(base, label) => match Lane::of(base, slots)? {
                Lane::Identity => Some(Lane::Column(label.clone())),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One stage of a tower, innermost (nearest the scan) first.
#[derive(Debug)]
enum Stage {
    /// Keep the rows whose lowered predicate holds; `slots` are the lanes of
    /// the slots it reads.
    Filter {
        predicate: Lowered,
        slots: Vec<Lane>,
    },
    /// Bind slots to the given lanes; a row missing a column one of them
    /// reads is dropped (the row path's bad-value-drops-the-row rule).
    Map(Vec<Lane>),
}

/// A scan→filter→map tower lowered for the batch driver.
#[derive(Debug)]
struct Tower {
    class: ClassName,
    stages: Vec<Stage>,
    /// The lane behind each slot of the tower's layout.
    outputs: Vec<Lane>,
    /// Lanes the filters use as booleans.
    tested: Vec<Lane>,
    /// The columns the tower reads, each once.
    columns: Vec<Label>,
}

impl Tower {
    /// The lane `node` reads over the current slots, noting its column.
    fn lane(&mut self, node: &Node) -> Option<Lane> {
        let lane = Lane::of(node, &self.outputs)?;
        if let Lane::Column(label) = &lane {
            if !self.columns.contains(label) {
                self.columns.push(label.clone());
            }
        }
        Some(lane)
    }

    /// Admit a lowered predicate: comparisons of lanes and truth tests of
    /// lanes, under `And` and `Not`.
    fn admit(&mut self, node: &Node) -> Option<()> {
        match node {
            Node::Cmp(_, a, b) => {
                self.lane(a)?;
                self.lane(b)?;
            }
            Node::And(conjuncts) => {
                for conjunct in conjuncts {
                    self.admit(conjunct)?;
                }
            }
            Node::Not(inner) => self.admit(inner)?,
            leaf => {
                let lane = self.lane(leaf)?;
                self.tested.push(lane);
            }
        }
        Some(())
    }
}

/// Lower `plan` for the batch driver, or `None` when any part of it is out
/// of scope (then the row-at-a-time executor runs it).
fn extract(plan: &Plan) -> Option<Tower> {
    let mut nodes = Vec::new();
    let mut cur = plan;
    let class = loop {
        match cur {
            Plan::Filter { input, .. } | Plan::Map { input, .. } => {
                nodes.push(cur);
                cur = input;
            }
            Plan::Scan { class, .. } => break class.clone(),
            _ => return None,
        }
    };
    if nodes.is_empty() {
        // A bare scan gains nothing from columnarization; leave it alone.
        return None;
    }
    let mut tower = Tower {
        class,
        stages: Vec::with_capacity(nodes.len()),
        outputs: vec![Lane::Identity],
        tested: Vec::new(),
        columns: Vec::new(),
    };
    for node in nodes.into_iter().rev() {
        match node {
            Plan::Filter { input, predicate } => {
                let predicate = Lowered::new(predicate, &exec::layout(input));
                tower.admit(predicate.node())?;
                let slots = tower.outputs.clone();
                tower.stages.push(Stage::Filter { predicate, slots });
            }
            Plan::Map { input, bindings } => {
                let mut reads = Vec::with_capacity(bindings.len());
                for (slot, binding) in lower_bindings(bindings, &mut exec::layout(input)) {
                    let lane = tower.lane(binding.node())?;
                    reads.push(lane.clone());
                    match tower.outputs.get_mut(slot) {
                        Some(output) => *output = lane,
                        None => tower.outputs.push(lane),
                    }
                }
                tower.stages.push(Stage::Map(reads));
            }
            _ => return None,
        }
    }
    Some(tower)
}

/// A lane bound to one instance's storage.
enum Operand<'b> {
    Identity,
    Column(&'b AttrColumn),
    /// A constant, with its dictionary code if it is a string that has one.
    Const(Value, Option<u32>),
}

/// A tower bound to one instance's columns, ready to run. Everything in
/// here is immutable shared data, so ranges can be evaluated from pool
/// workers without touching the `EvalCtx`.
struct Batch<'t> {
    tower: &'t Tower,
    instance: &'t Instance,
    rows: Arc<Vec<Oid>>,
    columns: Vec<Arc<AttrColumn>>,
    dict: Arc<Vec<Arc<str>>>,
}

impl Batch<'_> {
    fn bind(&self, lane: Lane) -> Result<Operand<'_>> {
        Ok(match lane {
            Lane::Identity => Operand::Identity,
            Lane::Column(label) => {
                let column = self.tower.columns.iter().position(|c| *c == label);
                Operand::Column(column.map(|c| &*self.columns[c]).ok_or_else(|| {
                    CplError::BadPlan(format!("the tower has no column `{label}`"))
                })?)
            }
            Lane::Const(value) => {
                let code = match &value {
                    Value::Str(s) => self.instance.dict_code(s),
                    _ => None,
                };
                Operand::Const(value, code)
            }
        })
    }

    /// The operand a leaf of a lowered predicate reads.
    fn operand(&self, node: &Node, slots: &[Lane]) -> Result<Operand<'_>> {
        let lane = Lane::of(node, slots)
            .ok_or_else(|| CplError::BadPlan("a tower leaf is no lane".into()))?;
        self.bind(lane)
    }

    /// The cell of `operand` at `row` — its view and dictionary code — or
    /// `None` when the object lacks the attribute.
    fn cell<'c>(
        &'c self,
        operand: &'c Operand<'_>,
        row: usize,
    ) -> Option<(ValueRef<'c>, Option<u32>)> {
        match operand {
            Operand::Identity => Some((ValueRef::Oid(&self.rows[row]), None)),
            Operand::Const(value, code) => Some((value.into(), *code)),
            Operand::Column(column) => {
                let (chunk, local) = column.locate(row);
                if chunk.is_missing(local) {
                    return None;
                }
                Some(match chunk.data() {
                    ColumnData::Int(v) => (ValueRef::Int(v[local]), None),
                    ColumnData::Real(v) => (ValueRef::Real(RealVal(v[local])), None),
                    ColumnData::Bool(v) => (ValueRef::Bool(v[local]), None),
                    ColumnData::Str(v) => {
                        (ValueRef::Str(&self.dict[v[local] as usize]), Some(v[local]))
                    }
                    ColumnData::Oid(v) => (ValueRef::Oid(&v[local]), None),
                    ColumnData::Boxed(v) => ((&v[local]).into(), None),
                })
            }
        }
    }

    /// Whether a truth test of `lane` could meet a value that is no boolean.
    fn may_not_be_boolean(&self, lane: &Lane) -> Result<bool> {
        Ok(match self.bind(lane.clone())? {
            Operand::Column(column) => column.kind() != ColumnKind::Bool && column.present() > 0,
            Operand::Const(value, _) => !matches!(value, Value::Bool(_)),
            Operand::Identity => true,
        })
    }

    /// Evaluate a lowered predicate over `rows`, whose slots hold `slots`:
    /// per row, whether it holds, or `None` for the row path's bad value.
    fn eval(&self, node: &Node, slots: &[Lane], rows: &[u32]) -> Result<Vec<Option<bool>>> {
        Ok(match node {
            Node::Cmp(op, a, b) => {
                let (a, b) = (self.operand(a, slots)?, self.operand(b, slots)?);
                rows.iter()
                    .map(|&r| {
                        let (Some((x, x_code)), Some((y, y_code))) =
                            (self.cell(&a, r as usize), self.cell(&b, r as usize))
                        else {
                            return None;
                        };
                        match (op, x_code, y_code) {
                            (PushOp::Eq, Some(x), Some(y)) => Some(x == y),
                            (PushOp::Neq, Some(x), Some(y)) => Some(x != y),
                            _ => op.holds(x, y),
                        }
                    })
                    .collect()
            }
            // An error passes through un-negated.
            Node::Not(inner) => self
                .eval(inner, slots, rows)?
                .into_iter()
                .map(|holds| holds.map(|b| !b))
                .collect(),
            Node::And(conjuncts) => {
                // Ordered short-circuit: evaluate each conjunct only for the
                // rows every earlier conjunct passed; the first non-true
                // conjunct decides the row (errors included), as in the row
                // path's left-to-right `And`.
                let mut out = vec![Some(true); rows.len()];
                let mut active: Vec<usize> = (0..rows.len()).collect();
                for conjunct in conjuncts {
                    if active.is_empty() {
                        break;
                    }
                    let sub: Vec<u32> = active.iter().map(|&i| rows[i]).collect();
                    let holds = self.eval(conjunct, slots, &sub)?;
                    let mut still = Vec::with_capacity(active.len());
                    for (&i, holds) in active.iter().zip(holds) {
                        match holds {
                            Some(true) => still.push(i),
                            other => out[i] = other,
                        }
                    }
                    active = still;
                }
                out
            }
            leaf => {
                let operand = self.operand(leaf, slots)?;
                rows.iter()
                    .map(|&r| match self.cell(&operand, r as usize) {
                        Some((ValueRef::Bool(b), _)) => Some(b),
                        _ => None,
                    })
                    .collect()
            }
        })
    }

    /// Run every stage over one contiguous row range, returning per-stage
    /// survivor counts and the surviving selection vector.
    fn run_range(&self, range: Range<usize>) -> Result<(Vec<usize>, Vec<u32>)> {
        let mut sel: Vec<u32> = (range.start as u32..range.end as u32).collect();
        let mut counts = Vec::with_capacity(self.tower.stages.len());
        for stage in &self.tower.stages {
            match stage {
                Stage::Filter { predicate, slots } => {
                    let holds = self.eval(predicate.node(), slots, &sel)?;
                    let mut kept = Vec::with_capacity(sel.len());
                    for (&r, holds) in sel.iter().zip(holds) {
                        if holds == Some(true) {
                            kept.push(r);
                        }
                    }
                    sel = kept;
                }
                Stage::Map(reads) => {
                    let reads = reads
                        .iter()
                        .map(|lane| self.bind(lane.clone()))
                        .collect::<Result<Vec<_>>>()?;
                    sel.retain(|&r| reads.iter().all(|o| self.cell(o, r as usize).is_some()));
                }
            }
            counts.push(sel.len());
        }
        Ok((counts, sel))
    }

    /// Late materialization: build output slot rows, with room for `width`
    /// slots, only for survivors.
    fn materialize(&self, sel: &[u32], width: usize) -> Result<Vec<SlotRow>> {
        let outputs = self
            .tower
            .outputs
            .iter()
            .map(|lane| self.bind(lane.clone()))
            .collect::<Result<Vec<_>>>()?;
        let mut rows = Vec::with_capacity(sel.len());
        for &r in sel {
            let r = r as usize;
            let mut row = Vec::with_capacity(width);
            for output in &outputs {
                row.push(match output {
                    Operand::Identity => Value::Oid(self.rows[r].clone()),
                    Operand::Const(value, _) => value.clone(),
                    // Missing only if a `Map` stage failed to drop the row.
                    Operand::Column(column) => column.value_at(r, &self.dict).ok_or_else(|| {
                        CplError::BadPlan("a surviving row lacks an output attribute".into())
                    })?,
                });
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

/// Try to answer `plan` through the columnar executor, with rows allocated
/// for `width` slots. `Ok(None)` means the plan (or context) is out of scope
/// and the row-at-a-time path must run.
pub(crate) fn try_run(
    plan: &Plan,
    width: usize,
    ctx: &mut EvalCtx<'_>,
    stats: &mut ExecStats,
) -> Result<Option<Vec<SlotRow>>> {
    if !ctx.columnar_enabled() || ctx.sources().len() != 1 {
        return Ok(None);
    }
    // Delta evaluation narrows scans to restricted identity sets; the
    // vectorized pipeline reads whole column chunks, so defer to the row
    // path, where the restriction applies per scan.
    if ctx.has_scan_restrictions() {
        return Ok(None);
    }
    let Some(tower) = extract(plan) else {
        return Ok(None);
    };
    let instance = ctx.sources()[0];
    let rows = instance.class_row_index(&tower.class);
    let batch = Batch {
        tower: &tower,
        instance,
        rows: rows.clone(),
        columns: tower
            .columns
            .iter()
            .map(|label| instance.attr_column(&tower.class, label))
            .collect(),
        dict: instance.dict_strings(),
    };
    for lane in &tower.tested {
        if batch.may_not_be_boolean(lane)? {
            return Ok(None);
        }
    }
    let n = rows.len();
    // Scan accounting, exactly as the row path's `Scan` arm records it.
    stats.rows_scanned += n;
    stats.record_operator_output(n);
    ctx.record_columnar(n, batch.columns.len().max(1) * n.div_ceil(CHUNK_ROWS));

    let parts = ctx.parallelism().partitions(n);
    let batch = &batch;
    let chunks = exec::run_partitioned(
        ctx,
        stats,
        chunk_ranges(n, parts),
        move |range: Range<usize>, _wctx, ws: &mut ExecStats| {
            ws.rows_scanned += range.len();
            ws.record_operator_output(range.len());
            let (counts, sel) = batch.run_range(range)?;
            for &c in &counts {
                ws.record_operator_output(c);
            }
            Ok((counts, batch.materialize(&sel, width)?))
        },
    )?;
    let mut stage_totals = vec![0usize; tower.stages.len()];
    let mut out_rows = Vec::new();
    for (counts, chunk_rows) in chunks {
        for (slot, c) in stage_totals.iter_mut().zip(counts) {
            *slot += c;
        }
        out_rows.extend(chunk_rows);
    }
    // Per-stage outputs, recorded once over the merged totals — the same
    // trailing accounting each row-path operator performs.
    for &count in &stage_totals {
        stats.record_operator_output(count);
    }
    Ok(Some(out_rows))
}
