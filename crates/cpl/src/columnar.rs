//! Vectorized batch-at-a-time execution over columnar extents.
//!
//! The row-at-a-time executor in [`crate::exec`] evaluates a lowered
//! expression per row, and an `x.attr` projection dereferences `x` through
//! the instance store to borrow one field of its record. For the dominant
//! plan shape — scan → filter → project over one class — this module runs
//! the same semantics over the column-major derived storage of
//! [`wol_model::column`] instead, a typed array per attribute:
//!
//! * **Extraction** ([`extract`]): a `Filter`/`Map` tower over a single
//!   `Scan` compiles into a [`Pipeline`] of stages over *atoms* — the
//!   scanned identity itself, a single-hop attribute column, or a constant.
//!   Anything richer (Skolems, record/variant construction, multi-hop
//!   projections, unknown variables, multi-source contexts) bails out to the
//!   row-at-a-time path, so coverage grows without risking semantics. So
//!   does a truth test of a value that may not be a boolean — the row path
//!   raises that as an error, in row order, which a batch cannot reproduce.
//! * **Selection vectors**: each worker walks its contiguous row range as a
//!   vector of surviving row ids; filter kernels evaluate tri-state
//!   (true / false / error) comparison results against column chunks and
//!   compact the vector. The tri-state replication matters: the row path
//!   turns a missing attribute into a bad-value error that predicates
//!   swallow as *false* and `Map` turns into a dropped row, and negation
//!   must *not* resurrect such rows.
//! * **Late materialization**: only rows surviving every stage are
//!   materialized, as slot rows in the tower's [`exec::layout`] (dictionary
//!   codes resolved back to strings, bit-identical to the values the row
//!   path would have produced), so join build/probe sides and insert
//!   evaluation downstream see the usual rows having paid columnar cost only
//!   for survivors.
//! * **Chunk-granular dispatch**: ranges come from the same
//!   [`wol_model::chunk_ranges`] morsel partitioning and the same
//!   partition-count rule as every row operator, and run through
//!   [`exec::run_partitioned`] (one range inline, several on the shared
//!   [`wol_model::WorkerPool`]), with results reassembled in submission
//!   order. Per-stage survivor totals are partition-invariant, so the merged
//!   [`ExecStats`] equal the row-at-a-time ones at every thread count — the
//!   differential proptests in `tests/properties.rs` pin this down.
//!
//! The columnar path is on by default and can be disabled per context
//! ([`EvalCtx::set_columnar`]), which keeps the row path alive as the
//! differential baseline and the bench comparison anchor.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use wol_model::column::{AttrColumn, ColumnData, ColumnKind, CHUNK_ROWS};
use wol_model::{chunk_ranges, ClassName, Label, Oid, RealVal, Value};

use crate::error::CplError;
use crate::exec::{self, ExecStats};
use crate::expr::{EvalCtx, Expr, SlotRow};
use crate::plan::Plan;
use crate::Result;

/// Tri-state predicate outcome, mirroring the row path's
/// `Ok(true) / Ok(false) / Err(BadValue)` trichotomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Err,
}

/// A leaf value source of a compiled pipeline.
#[derive(Clone, Debug, PartialEq)]
enum Atom {
    /// The scanned object identity itself (`Var(scan_var)`).
    SelfOid,
    /// Single-hop projection `scan_var.attr`; index into [`Pipeline::attrs`].
    Col(usize),
    /// A constant value.
    Const(Value),
}

#[derive(Clone, Copy, Debug)]
enum CmpOp {
    Eq,
    Neq,
    Lt,
    Leq,
}

/// A compiled predicate over atoms.
#[derive(Debug)]
enum PredNode {
    /// The atom must evaluate to a boolean (anything else errors the row).
    Truthy(usize),
    /// Comparison of two atoms.
    Cmp(CmpOp, usize, usize),
    /// Ordered conjunction: the first non-true conjunct decides.
    And(Vec<PredNode>),
    /// Negation; errors pass through un-negated.
    Not(Box<PredNode>),
}

/// One pipeline stage, innermost (nearest the scan) first.
#[derive(Debug)]
enum StageOp {
    /// Keep rows whose predicate is [`Tri::True`].
    Filter(PredNode),
    /// Bind names to atoms; a row with any missing binding atom is dropped
    /// (the row path's `BadValue`-drops-the-row rule).
    Map(Vec<usize>),
}

/// A scan→filter→project tower compiled for columnar execution.
#[derive(Debug)]
pub(crate) struct Pipeline {
    class: ClassName,
    attrs: Vec<Label>,
    atoms: Vec<Atom>,
    stages: Vec<StageOp>,
    /// Final row content: the atom behind each slot of the tower's layout.
    outputs: Vec<usize>,
    /// Atoms the filters use as booleans ([`PredNode::Truthy`]).
    tested: Vec<usize>,
}

struct Compiler {
    scan_var: String,
    attrs: Vec<Label>,
    atoms: Vec<Atom>,
    aliases: BTreeMap<String, usize>,
    tested: Vec<usize>,
}

impl Compiler {
    fn intern(&mut self, atom: Atom) -> usize {
        if let Some(i) = self.atoms.iter().position(|a| *a == atom) {
            return i;
        }
        self.atoms.push(atom);
        self.atoms.len() - 1
    }

    fn attr_id(&mut self, label: &str) -> usize {
        if let Some(i) = self.attrs.iter().position(|a| a == label) {
            return i;
        }
        self.attrs.push(label.to_string());
        self.attrs.len() - 1
    }

    /// Compile an expression to an atom, or `None` if it is out of scope for
    /// the columnar executor.
    fn atom_of(&mut self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Var(v) => {
                if let Some(&a) = self.aliases.get(v) {
                    Some(a)
                } else if *v == self.scan_var {
                    Some(self.intern(Atom::SelfOid))
                } else {
                    None
                }
            }
            Expr::Const(v) => {
                let atom = Atom::Const(v.clone());
                Some(self.intern(atom))
            }
            Expr::Proj(base, label) => match &**base {
                // Single-hop projection off the (unshadowed) scan variable is
                // exactly what an attribute column answers.
                Expr::Var(v) if !self.aliases.contains_key(v) && *v == self.scan_var => {
                    let attr = self.attr_id(label);
                    Some(self.intern(Atom::Col(attr)))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn pred_of(&mut self, e: &Expr) -> Option<PredNode> {
        match e {
            Expr::And(conjuncts) => conjuncts
                .iter()
                .map(|c| self.pred_of(c))
                .collect::<Option<Vec<_>>>()
                .map(PredNode::And),
            Expr::Not(inner) => self.pred_of(inner).map(Box::new).map(PredNode::Not),
            Expr::Eq(a, b) => self.cmp_of(CmpOp::Eq, a, b),
            Expr::Neq(a, b) => self.cmp_of(CmpOp::Neq, a, b),
            Expr::Lt(a, b) => self.cmp_of(CmpOp::Lt, a, b),
            Expr::Leq(a, b) => self.cmp_of(CmpOp::Leq, a, b),
            other => {
                let atom = self.atom_of(other)?;
                self.tested.push(atom);
                Some(PredNode::Truthy(atom))
            }
        }
    }

    fn cmp_of(&mut self, op: CmpOp, a: &Expr, b: &Expr) -> Option<PredNode> {
        let a = self.atom_of(a)?;
        let b = self.atom_of(b)?;
        Some(PredNode::Cmp(op, a, b))
    }
}

/// Compile `plan` into a columnar pipeline, or `None` when any part of it is
/// out of scope (then the row-at-a-time executor handles it).
pub(crate) fn extract(plan: &Plan) -> Option<Pipeline> {
    enum Layer<'p> {
        F(&'p Expr),
        M(&'p [(String, Expr)]),
    }
    let mut layers = Vec::new();
    let mut cur = plan;
    let (class, scan_var) = loop {
        match cur {
            Plan::Filter { input, predicate } => {
                layers.push(Layer::F(predicate));
                cur = input;
            }
            Plan::Map { input, bindings } => {
                layers.push(Layer::M(bindings));
                cur = input;
            }
            Plan::Scan { class, var } => break (class.clone(), var.clone()),
            _ => return None,
        }
    };
    if layers.is_empty() {
        // A bare scan gains nothing from columnarization; leave it alone.
        return None;
    }
    layers.reverse();
    let mut compiler = Compiler {
        scan_var: scan_var.clone(),
        attrs: Vec::new(),
        atoms: Vec::new(),
        aliases: BTreeMap::new(),
        tested: Vec::new(),
    };
    let self_atom = compiler.intern(Atom::SelfOid);
    let mut stages = Vec::with_capacity(layers.len());
    for layer in layers {
        match layer {
            Layer::F(pred) => stages.push(StageOp::Filter(compiler.pred_of(pred)?)),
            Layer::M(bindings) => {
                let mut compiled = Vec::with_capacity(bindings.len());
                for (name, expr) in bindings {
                    let atom = compiler.atom_of(expr)?;
                    compiled.push(atom);
                    // Later expressions see this binding (including shadowing
                    // the scan variable), exactly like the row path's
                    // in-order row extension.
                    compiler.aliases.insert(name.clone(), atom);
                }
                stages.push(StageOp::Map(compiled));
            }
        }
    }
    // Each slot of the tower's layout holds the last binding of its name, or
    // the scanned identity for the (unshadowed) scan variable.
    let outputs = exec::layout(plan)
        .iter()
        .map(|name| compiler.aliases.get(name).copied().unwrap_or(self_atom))
        .collect();
    Some(Pipeline {
        class,
        attrs: compiler.attrs,
        atoms: compiler.atoms,
        stages,
        outputs,
        tested: compiler.tested,
    })
}

/// An atom lowered against the live instance (constant strings carry their
/// pre-resolved dictionary code so string-column equality is a `u32` compare).
enum RunAtom<'p> {
    SelfOid,
    Col(usize),
    Const(&'p Value),
    ConstStr {
        value: &'p Value,
        s: &'p str,
        code: Option<u32>,
    },
}

/// A typed view of one cell, borrowed from column storage.
enum Cell<'a> {
    Missing,
    Int(i64),
    Real(f64),
    Bool(bool),
    /// A string, with its dictionary code when it has one.
    Str {
        code: Option<u32>,
        s: &'a str,
    },
    Oid(&'a Oid),
    /// A non-scalar value from a boxed column or constant.
    Other(&'a Value),
}

fn cell_of_value(v: &Value) -> Cell<'_> {
    match v {
        Value::Int(i) => Cell::Int(*i),
        Value::Real(r) => Cell::Real(r.get()),
        Value::Bool(b) => Cell::Bool(*b),
        Value::Str(s) => Cell::Str { code: None, s },
        Value::Oid(o) => Cell::Oid(o),
        other => Cell::Other(other),
    }
}

/// A pipeline bound to one instance's columns, ready to run. Everything in
/// here is immutable shared data, so ranges can be evaluated from pool
/// workers without touching the `EvalCtx`.
struct BoundPipeline<'p> {
    pipe: &'p Pipeline,
    rows: Arc<Vec<Oid>>,
    cols: Vec<Arc<AttrColumn>>,
    dict: Arc<Vec<Arc<str>>>,
    atoms: Vec<RunAtom<'p>>,
}

impl<'p> BoundPipeline<'p> {
    fn cell(&self, atom: usize, row: usize) -> Cell<'_> {
        match &self.atoms[atom] {
            RunAtom::SelfOid => Cell::Oid(&self.rows[row]),
            RunAtom::Const(v) => cell_of_value(v),
            RunAtom::ConstStr { s, code, .. } => Cell::Str { code: *code, s },
            RunAtom::Col(c) => {
                let (chunk, local) = self.cols[*c].locate(row);
                if chunk.is_missing(local) {
                    return Cell::Missing;
                }
                match chunk.data() {
                    ColumnData::Int(v) => Cell::Int(v[local]),
                    ColumnData::Real(v) => Cell::Real(v[local]),
                    ColumnData::Bool(v) => Cell::Bool(v[local]),
                    ColumnData::Str(v) => Cell::Str {
                        code: Some(v[local]),
                        s: &self.dict[v[local] as usize],
                    },
                    ColumnData::Oid(v) => Cell::Oid(&v[local]),
                    ColumnData::Boxed(v) => cell_of_value(&v[local]),
                }
            }
        }
    }

    fn atom_present(&self, atom: usize, row: usize) -> bool {
        match &self.atoms[atom] {
            RunAtom::Col(c) => {
                let (chunk, local) = self.cols[*c].locate(row);
                !chunk.is_missing(local)
            }
            _ => true,
        }
    }

    /// Equality with the row path's `Value` semantics: strict variant
    /// equality (`Int(1) != Real(1.0)`), reals by total order, kind
    /// mismatches are `false`, never errors.
    fn cell_eq(&self, a: &Cell<'_>, b: &Cell<'_>) -> bool {
        match (a, b) {
            (Cell::Int(x), Cell::Int(y)) => x == y,
            (Cell::Real(x), Cell::Real(y)) => RealVal(*x) == RealVal(*y),
            (Cell::Bool(x), Cell::Bool(y)) => x == y,
            (Cell::Str { code: ca, s: sa }, Cell::Str { code: cb, s: sb }) => match (ca, cb) {
                // Codes come from the one shared dictionary: comparable directly.
                (Some(x), Some(y)) => x == y,
                _ => sa == sb,
            },
            (Cell::Oid(x), Cell::Oid(y)) => x == y,
            (Cell::Other(x), Cell::Other(y)) => x == y,
            _ => false,
        }
    }

    /// Ordering with the row path's `compare` semantics: ints, reals and
    /// strings compare (ints promote against reals); everything else is an
    /// evaluation error.
    fn cell_cmp(&self, a: &Cell<'_>, b: &Cell<'_>) -> Option<std::cmp::Ordering> {
        match (a, b) {
            (Cell::Int(x), Cell::Int(y)) => Some(x.cmp(y)),
            (Cell::Real(x), Cell::Real(y)) => Some(RealVal(*x).cmp(&RealVal(*y))),
            (Cell::Int(x), Cell::Real(y)) => Some(RealVal(*x as f64).cmp(&RealVal(*y))),
            (Cell::Real(x), Cell::Int(y)) => Some(RealVal(*x).cmp(&RealVal(*y as f64))),
            (Cell::Str { s: sa, .. }, Cell::Str { s: sb, .. }) => Some(sa.cmp(sb)),
            _ => None,
        }
    }

    fn eval_cmp(&self, op: CmpOp, a: usize, b: usize, rows: &[u32]) -> Vec<Tri> {
        rows.iter()
            .map(|&r| {
                let ca = self.cell(a, r as usize);
                let cb = self.cell(b, r as usize);
                if matches!(ca, Cell::Missing) || matches!(cb, Cell::Missing) {
                    return Tri::Err;
                }
                match op {
                    CmpOp::Eq => Tri::from_bool(self.cell_eq(&ca, &cb)),
                    CmpOp::Neq => Tri::from_bool(!self.cell_eq(&ca, &cb)),
                    CmpOp::Lt => match self.cell_cmp(&ca, &cb) {
                        Some(ord) => Tri::from_bool(ord.is_lt()),
                        None => Tri::Err,
                    },
                    CmpOp::Leq => match self.cell_cmp(&ca, &cb) {
                        Some(ord) => Tri::from_bool(ord.is_le()),
                        None => Tri::Err,
                    },
                }
            })
            .collect()
    }

    fn eval_pred(&self, pred: &PredNode, rows: &[u32]) -> Vec<Tri> {
        match pred {
            PredNode::Truthy(a) => rows
                .iter()
                .map(|&r| match self.cell(*a, r as usize) {
                    Cell::Bool(b) => Tri::from_bool(b),
                    _ => Tri::Err,
                })
                .collect(),
            PredNode::Cmp(op, a, b) => self.eval_cmp(*op, *a, *b, rows),
            PredNode::Not(inner) => self
                .eval_pred(inner, rows)
                .into_iter()
                .map(|t| match t {
                    Tri::True => Tri::False,
                    Tri::False => Tri::True,
                    Tri::Err => Tri::Err,
                })
                .collect(),
            PredNode::And(conjuncts) => {
                // Ordered short-circuit: evaluate each conjunct only for the
                // rows every earlier conjunct passed; the first non-true
                // conjunct decides the row (errors included), as in the row
                // path's left-to-right `And`.
                let mut out = vec![Tri::True; rows.len()];
                let mut active: Vec<usize> = (0..rows.len()).collect();
                for conjunct in conjuncts {
                    if active.is_empty() {
                        break;
                    }
                    let sub: Vec<u32> = active.iter().map(|&i| rows[i]).collect();
                    let tris = self.eval_pred(conjunct, &sub);
                    let mut still = Vec::with_capacity(active.len());
                    for (&i, tri) in active.iter().zip(tris) {
                        match tri {
                            Tri::True => still.push(i),
                            other => out[i] = other,
                        }
                    }
                    active = still;
                }
                out
            }
        }
    }

    /// Run every stage over one contiguous row range, returning per-stage
    /// survivor counts and the surviving selection vector.
    fn run_range(&self, range: Range<usize>) -> (Vec<usize>, Vec<u32>) {
        let mut sel: Vec<u32> = (range.start as u32..range.end as u32).collect();
        let mut counts = Vec::with_capacity(self.pipe.stages.len());
        for stage in &self.pipe.stages {
            match stage {
                StageOp::Filter(pred) => {
                    let tris = self.eval_pred(pred, &sel);
                    let mut kept = Vec::with_capacity(sel.len());
                    for (i, &r) in sel.iter().enumerate() {
                        if tris[i] == Tri::True {
                            kept.push(r);
                        }
                    }
                    sel = kept;
                }
                StageOp::Map(bindings) => {
                    sel.retain(|&r| {
                        bindings
                            .iter()
                            .all(|&atom| self.atom_present(atom, r as usize))
                    });
                }
            }
            counts.push(sel.len());
        }
        (counts, sel)
    }

    /// The value of an output atom; `None` only for a missing cell, which
    /// the `Map` stages have already dropped.
    fn value_of(&self, atom: usize, row: usize) -> Option<Value> {
        match &self.atoms[atom] {
            RunAtom::SelfOid => Some(Value::Oid(self.rows[row].clone())),
            RunAtom::Const(v) | RunAtom::ConstStr { value: v, .. } => Some((*v).clone()),
            RunAtom::Col(c) => self.cols[*c].value_at(row, &self.dict),
        }
    }

    /// Late materialization: build output slot rows, with room for `width`
    /// slots, only for survivors.
    fn materialize(&self, sel: &[u32], width: usize) -> Result<Vec<SlotRow>> {
        let mut rows = Vec::with_capacity(sel.len());
        for &r in sel {
            let mut row = Vec::with_capacity(width);
            for &atom in &self.pipe.outputs {
                row.push(self.value_of(atom, r as usize).ok_or_else(|| {
                    CplError::BadPlan("a surviving row lacks an output attribute".into())
                })?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

impl Tri {
    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
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
    // vectorized pipeline reads whole column chunks, so defer to `run_plan`
    // where the restriction applies per scan.
    if ctx.has_scan_restrictions() {
        return Ok(None);
    }
    let Some(pipe) = extract(plan) else {
        return Ok(None);
    };
    let instance = ctx.sources()[0];
    let rows = instance.class_row_index(&pipe.class);
    let cols: Vec<Arc<AttrColumn>> = pipe
        .attrs
        .iter()
        .map(|attr| instance.attr_column(&pipe.class, attr))
        .collect();
    let dict = instance.dict_strings();
    let atoms: Vec<RunAtom<'_>> = pipe
        .atoms
        .iter()
        .map(|atom| match atom {
            Atom::SelfOid => RunAtom::SelfOid,
            Atom::Col(c) => RunAtom::Col(*c),
            Atom::Const(v @ Value::Str(s)) => RunAtom::ConstStr {
                value: v,
                s,
                code: instance.dict_code(s),
            },
            Atom::Const(v) => RunAtom::Const(v),
        })
        .collect();
    // A cell that may not be a boolean under a truth test: the row path's.
    let non_boolean = |atom: &RunAtom<'_>| match atom {
        RunAtom::Col(c) => cols[*c].kind() != ColumnKind::Bool && cols[*c].present() > 0,
        RunAtom::Const(value) => !matches!(value, Value::Bool(_)),
        RunAtom::SelfOid | RunAtom::ConstStr { .. } => true,
    };
    if pipe.tested.iter().any(|&atom| non_boolean(&atoms[atom])) {
        return Ok(None);
    }
    let bound = BoundPipeline {
        pipe: &pipe,
        rows: rows.clone(),
        cols,
        dict,
        atoms,
    };
    let n = rows.len();
    // Scan accounting, exactly as the row path's `Scan` arm records it.
    stats.rows_scanned += n;
    stats.record_operator_output(n);
    ctx.record_columnar(n, bound.cols.len().max(1) * n.div_ceil(CHUNK_ROWS));

    let parts = ctx.parallelism().partitions(n);
    let bound = &bound;
    let chunks = exec::run_partitioned(
        ctx,
        stats,
        chunk_ranges(n, parts),
        move |range: Range<usize>, _wctx, ws: &mut ExecStats| {
            ws.rows_scanned += range.len();
            ws.record_operator_output(range.len());
            let (counts, sel) = bound.run_range(range);
            for &c in &counts {
                ws.record_operator_output(c);
            }
            Ok((counts, bound.materialize(&sel, width)?))
        },
    )?;
    let mut stage_totals = vec![0usize; pipe.stages.len()];
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
