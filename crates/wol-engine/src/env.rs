//! Evaluation environment: databases, bindings, term evaluation and
//! body matching.
//!
//! WOL clause bodies are matched against one or more database instances (the
//! source databases, and — for non-normal-form clauses — also the target
//! database built so far). The matcher enumerates all bindings of the body's
//! variables that make every body atom true.
//!
//! [`match_body`] is the engine's one matcher, and it is **indexed**: it
//! compiles each body into a one-shot greedy join plan (cheap filters first,
//! then atoms ordered by estimated selectivity from extent sizes and
//! bound-variable coverage), answers `Member` atoms that are equated to a
//! bound attribute value through the instances' secondary attribute indexes
//! ([`wol_model::index`]) instead of enumerating extents, and executes the
//! plan over a single mutable [`Bindings`] frame with an undo trail, so
//! extending a binding never deep-clones the binding map. It reports
//! [`MatchStats`] so callers (the naive evaluator, the Morphase pipeline, the
//! constraint checkers) can quantify the work done. The naive
//! generate-and-test matcher it is property-tested against lives in the
//! test-only `wol-oracle` crate, built on [`eval_term`], [`try_eval_term`],
//! [`match_pattern`] and [`is_pattern`].
//!
//! # One matcher, one partition rule
//!
//! There is no sequential and no parallel matcher: [`match_body`] runs one
//! plan, and a worker budget only changes how many contiguous ranges the
//! plan's *opening* extent scan is cut into.
//!
//! * **Who decides.** The budget is a value on [`Databases`] (the
//!   environment's, read once when the view is built, unless the caller set
//!   one), and the workspace's one rule, [`Parallelism::partitions`] of the
//!   extent's size, turns it into a range count (`chunks`, the crate's only
//!   reading of the rule). Later steps scan their whole extent.
//! * **What a partition owns.** A binding frame, its undo trail, a
//!   [`SkolemFactory`] and a [`MatchStats`]. One partition is the caller's
//!   own: nothing is dispatched. Several go through `dispatch`, the crate's
//!   only `WorkerPool` call site (shared, through `fan_out`, with the
//!   semi-naive seed matches and the batch constraint checker): a job per
//!   chunk with a fresh factory and counters, folded into the caller's in
//!   chunk order — the order one partition enumerates in. A Skolem identity
//!   is a function of its key, so a chunk mints what the caller would;
//!   binding lists, stats and the caller's factory are identical at every
//!   budget.
//! * **Why nested chunks match sequentially.** A job that is itself a chunk
//!   sees a one-thread view, so the pool is entered once per top-level
//!   operation, never recursively.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use wol_lang::ast::{Atom, SkolemArgs, Term, Var};
use wol_model::{
    chunk_ranges, ClassName, Instance, Job, Label, Oid, Parallelism, PushOp, SharedValue,
    SkolemFactory, Value, WorkerPool,
};

use crate::error::EngineError;
use crate::Result;

/// The evaluation context of clause matching: the database instances visible
/// to a clause, in order, and the worker budget matching over them may use.
///
/// The budget is read from the environment **once**, when the view is built
/// ([`Parallelism::from_env`]); a caller configured with a budget of its own
/// sets it with [`Databases::with_parallelism`]. Nothing below reads the
/// environment again.
#[derive(Clone)]
pub struct Databases<'a> {
    instances: Vec<&'a Instance>,
    parallelism: Parallelism,
}

impl<'a> Databases<'a> {
    /// View over the given instances (sources first, target last by
    /// convention), at the environment's default worker budget.
    pub fn new(instances: &[&'a Instance]) -> Self {
        Databases {
            instances: instances.to_vec(),
            parallelism: Parallelism::from_env(),
        }
    }

    /// The same view with an explicit worker budget.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The worker budget matching over this view may use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Look up the value of an object identity in whichever instance holds it.
    pub fn value_of(&self, oid: &Oid) -> Option<&'a Value> {
        self.instances.iter().find_map(|i| i.value(oid))
    }

    /// Iterate over the extent of `class` across all instances.
    pub fn extent(&self, class: &ClassName) -> Vec<&'a Oid> {
        self.instances
            .iter()
            .flat_map(|i| i.extent(class))
            .collect()
    }

    /// Total number of objects of `class` across all instances.
    pub fn extent_size(&self, class: &ClassName) -> usize {
        self.instances.iter().map(|i| i.extent_size(class)).sum()
    }

    /// All identities of `class` whose attribute `attr` equals `value`,
    /// answered through each instance's lazily built attribute index.
    pub fn lookup_by_attr(&self, class: &ClassName, attr: &str, value: &Value) -> Vec<Oid> {
        let mut out = Vec::new();
        for instance in &self.instances {
            out.extend(instance.lookup_by_attr(class, attr, value));
        }
        out
    }

    /// Whether `oid` is present in the extent of its class in any instance.
    pub fn contains(&self, oid: &Oid) -> bool {
        self.instances.iter().any(|i| i.contains(oid))
    }

    /// The instances visible to this view.
    pub fn instances(&self) -> &[&'a Instance] {
        &self.instances
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if there are no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

/// A binding of clause variables to values.
///
/// Values are held behind [`SharedValue`] (`Arc`) handles, so cloning a
/// binding — which the matcher does once per *emitted result*, and the
/// reference matcher once per *extension* — bumps reference counts instead of
/// deep-cloning value trees. The map API mirrors the `BTreeMap<Var, Value>`
/// this type used to be, so callers are unaffected.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bindings {
    map: BTreeMap<Var, SharedValue>,
}

impl Bindings {
    /// An empty binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to `var`, if any.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var).map(|v| v.as_ref())
    }

    /// The shared handle bound to `var`, if any.
    pub fn get_shared(&self, var: &str) -> Option<&SharedValue> {
        self.map.get(var)
    }

    /// Whether `var` is bound.
    pub fn contains_key(&self, var: &str) -> bool {
        self.map.contains_key(var)
    }

    /// Bind `var` to `value`, returning the previous handle if it was bound.
    pub fn insert(&mut self, var: impl Into<Var>, value: Value) -> Option<SharedValue> {
        self.map.insert(var.into(), value.shared())
    }

    /// Remove the binding of `var`.
    pub fn remove(&mut self, var: &str) -> Option<SharedValue> {
        self.map.remove(var)
    }

    /// Iterate over `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.map.iter().map(|(k, v)| (k, v.as_ref()))
    }

    /// The bound variables.
    pub fn keys(&self) -> impl Iterator<Item = &Var> {
        self.map.keys()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<const N: usize> From<[(Var, Value); N]> for Bindings {
    fn from(entries: [(Var, Value); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl FromIterator<(Var, Value)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (Var, Value)>>(iter: I) -> Self {
        Bindings {
            map: iter
                .into_iter()
                .map(|(var, value)| (var, value.shared()))
                .collect(),
        }
    }
}

/// Statistics of a body-matching run, for benchmarks and regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Full extent enumerations performed.
    pub extents_scanned: usize,
    /// Attribute-index probes performed (indexed matcher only).
    pub index_probes: usize,
    /// Candidate bindings enumerated across all atom-processing steps.
    pub bindings_considered: usize,
}

impl MatchStats {
    /// Accumulate another stats value into this one.
    pub fn absorb(&mut self, other: MatchStats) {
        self.extents_scanned += other.extents_scanned;
        self.index_probes += other.index_probes;
        self.bindings_considered += other.bindings_considered;
    }
}

/// Evaluate a term under `bindings`. Skolem terms are resolved through
/// `skolem`, creating object identities on demand; projections dereference
/// object identities through `dbs`.
pub fn eval_term(
    term: &Term,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<Value> {
    match term {
        Term::Var(v) => bindings
            .get(v)
            .cloned()
            .ok_or_else(|| EngineError::Eval(format!("unbound variable {v}"))),
        Term::Const(value) => Ok(value.clone()),
        Term::Proj(base, label) => {
            let base_value = eval_term(base, bindings, dbs, skolem)?;
            let record = match &base_value {
                Value::Oid(oid) => dbs
                    .value_of(oid)
                    .ok_or_else(|| EngineError::Eval(format!("dangling object identity {oid}")))?,
                other => other,
            };
            record.project(label).cloned().ok_or_else(|| {
                EngineError::Eval(format!(
                    "value of kind `{}` has no attribute `{label}`",
                    record.kind()
                ))
            })
        }
        Term::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (label, sub) in fields {
                out.push((label.clone(), eval_term(sub, bindings, dbs, skolem)?));
            }
            Ok(Value::Record(out.into_iter().collect()))
        }
        Term::Variant(label, payload) => Ok(Value::Variant(
            label.clone(),
            Box::new(eval_term(payload, bindings, dbs, skolem)?),
        )),
        Term::Skolem(class, args) => {
            let key = eval_skolem_key(args, bindings, dbs, skolem)?;
            Ok(Value::Oid(skolem.mk(class, &key)?))
        }
    }
}

/// Evaluate the key value of a Skolem term's arguments: a single positional
/// argument is the key itself, multiple positional arguments form a list, and
/// named arguments form a record.
pub fn eval_skolem_key(
    args: &SkolemArgs,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<Value> {
    match args {
        SkolemArgs::Positional(ts) => {
            let mut values = Vec::new();
            for t in ts {
                values.push(eval_term(t, bindings, dbs, skolem)?);
            }
            Ok(match <[Value; 1]>::try_from(values) {
                Ok([single]) => single,
                Err(values) => Value::List(values),
            })
        }
        SkolemArgs::Named(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (label, t) in fields {
                out.push((label.clone(), eval_term(t, bindings, dbs, skolem)?));
            }
            Ok(Value::Record(out.into_iter().collect()))
        }
    }
}

/// Evaluate a term if all of its variables are bound; `None` otherwise.
pub fn try_eval_term(
    term: &Term,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Option<Value> {
    if term.var_set().iter().all(|v| bindings.contains_key(v)) {
        eval_term(term, bindings, dbs, skolem).ok()
    } else {
        None
    }
}

/// Match a term used as a *pattern* against a value, extending `bindings`.
///
/// Patterns are variables (bind or check), constants (check), record terms
/// (destructure fields) and variant terms (check the label, destructure the
/// payload). Projections and Skolem terms are not patterns; if they are fully
/// evaluable they are checked for equality, otherwise the match fails.
pub fn match_pattern(
    pattern: &Term,
    value: &Value,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Option<Bindings> {
    let mut extended = bindings.clone();
    let mut trail = Vec::new();
    if match_pattern_in_place(pattern, value, &mut extended, &mut trail, dbs, skolem) {
        Some(extended)
    } else {
        None
    }
}

/// In-place pattern matching over a mutable frame: newly bound variables are
/// recorded on `trail` so the caller can undo the extension with
/// [`unwind_trail`]. On failure, partial bindings may remain on the trail;
/// the caller must unwind to its own mark.
fn match_pattern_in_place(
    pattern: &Term,
    value: &Value,
    bindings: &mut Bindings,
    trail: &mut Vec<Var>,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> bool {
    match pattern {
        Term::Var(v) => match bindings.get(v) {
            Some(existing) => existing == value,
            None => {
                bindings.insert(v.clone(), value.clone());
                trail.push(v.clone());
                true
            }
        },
        Term::Const(c) => c == value,
        Term::Record(fields) => {
            let Value::Record(actual) = value else {
                return false;
            };
            for (label, sub) in fields {
                let Some(sub_value) = actual.get(label) else {
                    return false;
                };
                if !match_pattern_in_place(sub, sub_value, bindings, trail, dbs, skolem) {
                    return false;
                }
            }
            true
        }
        Term::Variant(label, payload) => {
            let Value::Variant(actual_label, actual_payload) = value else {
                return false;
            };
            label == actual_label
                && match_pattern_in_place(payload, actual_payload, bindings, trail, dbs, skolem)
        }
        Term::Proj(_, _) | Term::Skolem(_, _) => {
            match try_eval_term(pattern, bindings, dbs, skolem) {
                Some(evaluated) => &evaluated == value,
                None => false,
            }
        }
    }
}

/// Undo frame extensions recorded on the trail past `mark`.
fn unwind_trail(bindings: &mut Bindings, trail: &mut Vec<Var>, mark: usize) {
    for var in trail.drain(mark.min(trail.len())..) {
        bindings.remove(&var);
    }
}

/// Is the term usable as a *pattern* for destructuring (see
/// [`match_pattern`]): variables, constants, and record/variant shapes over
/// patterns? Projections and Skolem terms are not patterns.
pub fn is_pattern(term: &Term) -> bool {
    match term {
        Term::Var(_) | Term::Const(_) => true,
        Term::Record(fields) => fields.iter().all(|(_, t)| is_pattern(t)),
        Term::Variant(_, payload) => is_pattern(payload),
        Term::Proj(_, _) | Term::Skolem(_, _) => false,
    }
}

// ---------------------------------------------------------------------------
// The indexed matcher: greedy join plans over an undo-trail frame.
// ---------------------------------------------------------------------------

/// One step of a join plan: how one body atom is processed, holding the
/// operands of the atom it was built from.
#[derive(Clone, Debug)]
enum Step<'a> {
    /// All variables bound: check the atom and keep or drop the binding (for
    /// a `Member` atom, an O(1) presence check).
    Check(&'a Atom),
    /// Equality with one side evaluable and the other a pattern: evaluate,
    /// destructure, bind.
    BindEq {
        evaluable: &'a Term,
        pattern: &'a Term,
    },
    /// Membership enumerated from the class extent, matching the term as a
    /// pattern.
    MemberScan {
        term: &'a Term,
        class: &'a ClassName,
    },
    /// Membership of a variable (the `member` term) answered by probing the
    /// attribute index: a consumed equality atom equates its `attr` to the
    /// bound `key` term.
    MemberProbe {
        member: &'a Term,
        class: &'a ClassName,
        attr: &'a Label,
        key: &'a Term,
    },
    /// Set membership with a bound set: enumerate elements, bind the element
    /// pattern.
    InSetBind { elem: &'a Term, set: &'a Term },
    /// No remaining atom can ever be processed: the body is not
    /// range-restricted. Raised only if a binding actually reaches this step.
    Stuck,
}

/// A processable atom as [`classify_atom`] prices it.
struct Candidate<'a> {
    cost: u64,
    step: Step<'a>,
    /// The variables the step binds.
    binds: Vec<Var>,
    /// An equality atom the step consumes (index probes only).
    consumes: Option<usize>,
}

/// Cost assigned to a dead scan (an enumeration that cannot bind anything);
/// chosen last so that genuinely productive atoms run first.
const DEAD_SCAN_COST: u64 = 1 << 40;

/// If `term` is a single projection `v.attr` off the given variable, return
/// the attribute.
fn single_proj_attr<'t>(term: &'t Term, var: &str) -> Option<&'t Label> {
    match term {
        Term::Proj(base, label) => match base.as_ref() {
            Term::Var(v) if v == var => Some(label),
            _ => None,
        },
        _ => None,
    }
}

/// Build a one-shot greedy join plan for `atoms`, given the initially bound
/// variables. At each step the cheapest processable atom is chosen:
///
/// * fully bound atoms are free filters (cost 0);
/// * oriented equalities bind pattern variables (cost 1);
/// * `Member` atoms whose variable is equated to a bound attribute value are
///   answered through the attribute index (cost scales with a fraction of the
///   extent, standing in for the expected bucket size);
/// * remaining `Member` atoms enumerate their extent (cost = extent size), so
///   the smallest extents are scanned first.
///
/// Variable boundness depends only on *which* atoms have been processed, not
/// on any particular binding, so the plan is valid for every branch of the
/// search.
fn build_plan<'a>(
    atoms: &'a [Atom],
    initially_bound: &BTreeSet<Var>,
    dbs: &Databases<'_>,
) -> Vec<Step<'a>> {
    let mut used = vec![false; atoms.len()];
    let mut bound = initially_bound.clone();
    let mut steps = Vec::new();
    while used.contains(&false) {
        let mut best: Option<(usize, Candidate<'a>)> = None;
        for (i, atom) in atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let Some(candidate) = classify_atom(i, atom, atoms, &used, &bound, dbs) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, b)| candidate.cost < b.cost) {
                best = Some((i, candidate));
            }
        }
        let Some((i, candidate)) = best else {
            // Whatever is left can never be processed; fail any binding that
            // reaches this point (zero bindings fail nothing, which matches
            // the reference matcher's behaviour).
            steps.push(Step::Stuck);
            break;
        };
        used[i] = true;
        if let Some(eq) = candidate.consumes {
            used[eq] = true;
        }
        bound.extend(candidate.binds);
        steps.push(candidate.step);
    }
    steps
}

/// Classify one unused atom against the current bound-variable set: the cost
/// of processing it now, the step to run, the variables it binds, and an
/// equality atom it consumes (for index probes). `None` if it cannot be
/// processed yet.
fn classify_atom<'a>(
    index: usize,
    atom: &'a Atom,
    atoms: &'a [Atom],
    used: &[bool],
    bound: &BTreeSet<Var>,
    dbs: &Databases<'_>,
) -> Option<Candidate<'a>> {
    let term_bound = |t: &Term| t.var_set().iter().all(|v| bound.contains(v));
    let unbound_vars = |t: &Term| -> Vec<Var> {
        t.var_set()
            .into_iter()
            .filter(|v| !bound.contains(v))
            .collect()
    };
    let candidate = |cost: u64, step: Step<'a>, binds: Vec<Var>| Candidate {
        cost,
        step,
        binds,
        consumes: None,
    };
    let filter = || Some(candidate(0, Step::Check(atom), Vec::new()));

    match atom {
        Atom::Member(term, class) => {
            if term_bound(term) {
                return filter();
            }
            let extent = dbs.extent_size(class) as u64;
            if let Term::Var(var) = term {
                // Probe partner: an unused equality `var.attr = key` (either
                // orientation) whose key side is already evaluable.
                for (j, other) in atoms.iter().enumerate() {
                    if used[j] || j == index {
                        continue;
                    }
                    let Atom::Eq(left, right) = other else {
                        continue;
                    };
                    let probe = match (single_proj_attr(left, var), single_proj_attr(right, var)) {
                        (Some(attr), _) if term_bound(right) => Some((attr, right)),
                        (_, Some(attr)) if term_bound(left) => Some((attr, left)),
                        _ => None,
                    };
                    if let Some((attr, key)) = probe {
                        return Some(Candidate {
                            cost: 1 + extent / 16,
                            step: Step::MemberProbe {
                                member: term,
                                class,
                                attr,
                                key,
                            },
                            binds: vec![var.clone()],
                            consumes: Some(j),
                        });
                    }
                }
            }
            let scan = Step::MemberScan { term, class };
            if is_pattern(term) {
                Some(candidate(2 + extent, scan, unbound_vars(term)))
            } else {
                // Not a pattern and not evaluable: enumerating can only yield
                // the empty result, and binds nothing. Do it last.
                Some(candidate(DEAD_SCAN_COST + extent, scan, Vec::new()))
            }
        }
        Atom::Eq(s, t) => {
            let (s_bound, t_bound) = (term_bound(s), term_bound(t));
            if s_bound && t_bound {
                return filter();
            }
            let (evaluable, pattern) = if s_bound && is_pattern(t) {
                (s, t)
            } else if t_bound && is_pattern(s) {
                (t, s)
            } else {
                return None;
            };
            let step = Step::BindEq { evaluable, pattern };
            Some(candidate(1, step, unbound_vars(pattern)))
        }
        Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) => {
            if term_bound(s) && term_bound(t) {
                filter()
            } else {
                None
            }
        }
        Atom::InSet(elem, set) => {
            if !term_bound(set) {
                return None;
            }
            let step = Step::InSetBind { elem, set };
            if term_bound(elem) {
                filter()
            } else if is_pattern(elem) {
                Some(candidate(4, step, unbound_vars(elem)))
            } else {
                Some(candidate(DEAD_SCAN_COST, step, Vec::new()))
            }
        }
    }
}

/// Check a fully-bound atom against the current frame. Missing optional
/// attributes make equalities and memberships fail quietly; comparison atoms
/// keep their hard-error semantics.
fn check_bound_atom(
    atom: &Atom,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<bool> {
    match atom {
        Atom::Member(term, class) => Ok(match try_eval_term(term, bindings, dbs, skolem) {
            Some(Value::Oid(oid)) => oid.class() == class && dbs.contains(&oid),
            _ => false,
        }),
        Atom::Eq(s, t) => {
            let sv = try_eval_term(s, bindings, dbs, skolem);
            let tv = try_eval_term(t, bindings, dbs, skolem);
            Ok(match (sv, tv) {
                (Some(a), Some(b)) => holds(PushOp::Eq, &a, &b)?,
                _ => false,
            })
        }
        Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) => {
            let a = eval_term(s, bindings, dbs, skolem)?;
            let b = eval_term(t, bindings, dbs, skolem)?;
            let op = match atom {
                Atom::Neq(_, _) => PushOp::Neq,
                Atom::Lt(_, _) => PushOp::Lt,
                _ => PushOp::Leq,
            };
            holds(op, &a, &b)
        }
        Atom::InSet(elem, set) => {
            let set_value = eval_term(set, bindings, dbs, skolem)?;
            let Some(elem_value) = try_eval_term(elem, bindings, dbs, skolem) else {
                return Ok(false);
            };
            match set_value {
                Value::Set(items) => Ok(items.contains(&elem_value)),
                Value::List(items) => Ok(items.contains(&elem_value)),
                other => Err(EngineError::Eval(format!(
                    "`member` applied to a non-set value of kind `{}`",
                    other.kind()
                ))),
            }
        }
    }
}

/// `a op b` by the query language's one comparison ([`PushOp::holds`]); an
/// uncomparable pair is an evaluation error here, not a failed match.
fn holds(op: PushOp, a: &Value, b: &Value) -> Result<bool> {
    op.holds(a.into(), b.into()).ok_or_else(|| {
        EngineError::Eval(format!(
            "cannot compare values of kinds `{}` and `{}`",
            a.kind(),
            b.kind()
        ))
    })
}

/// What one partition of a match owns: a Skolem factory and counters (the
/// caller's own when the match is one partition, fresh ones per chunk when
/// [`dispatch`] ran it), the binding frame with its undo trail, and the
/// complete bindings found so far.
struct Partition<'p> {
    skolem: &'p mut SkolemFactory,
    stats: &'p mut MatchStats,
    frame: Bindings,
    trail: Vec<Var>,
    out: Vec<Bindings>,
}

impl<'p> Partition<'p> {
    fn new(frame: Bindings, skolem: &'p mut SkolemFactory, stats: &'p mut MatchStats) -> Self {
        Partition {
            skolem,
            stats,
            frame,
            trail: Vec::new(),
            out: Vec::new(),
        }
    }
}

/// Execute `steps` in order over the partition's frame, pushing every
/// complete binding onto its `out`. The frame is mutated in place; every
/// extension is recorded on the trail and undone before returning, so the
/// frame is left as it was found. Only the plan's `opening` step may split
/// (a scan, into the view's [`chunks`]).
fn run_plan(
    steps: &[Step<'_>],
    opening: bool,
    dbs: &Databases<'_>,
    part: &mut Partition<'_>,
) -> Result<()> {
    let Some((step, rest)) = steps.split_first() else {
        part.out.push(part.frame.clone());
        return Ok(());
    };
    match step {
        Step::Stuck => Err(EngineError::Eval(
            "no atom can be processed: the clause body is not range-restricted".to_string(),
        )),
        Step::Check(atom) => {
            if check_bound_atom(atom, &part.frame, dbs, part.skolem)? {
                part.stats.bindings_considered += 1;
                run_plan(rest, false, dbs, part)?;
            }
            Ok(())
        }
        Step::BindEq { evaluable, pattern } => {
            // The evaluable side's variables are bound by construction; a
            // `None` here means a missing optional attribute, which simply
            // has no witness.
            match try_eval_term(evaluable, &part.frame, dbs, part.skolem) {
                Some(value) => extend_frame(pattern, &value, rest, dbs, part),
                None => Ok(()),
            }
        }
        Step::MemberProbe {
            member,
            class,
            attr,
            key,
        } => {
            let Some(key) = try_eval_term(key, &part.frame, dbs, part.skolem) else {
                return Ok(());
            };
            part.stats.index_probes += 1;
            dbs.lookup_by_attr(class, attr, &key)
                .into_iter()
                .try_for_each(|oid| extend_frame(member, &Value::Oid(oid), rest, dbs, part))
        }
        Step::MemberScan { term, class } => {
            part.stats.extents_scanned += 1;
            let extent = dbs.extent(class);
            // The extent loop, over any contiguous sub-range of the extent.
            let scan = |oids: &[&Oid], dbs: &Databases<'_>, part: &mut Partition<'_>| {
                oids.iter().try_for_each(|oid| {
                    extend_frame(term, &Value::Oid((*oid).clone()), rest, dbs, part)
                })
            };
            // Only the opening scan may split; one chunk scans on the
            // caller's own frame, uncopied.
            let Some(ranges) = opening.then(|| chunks(dbs, extent.len())).flatten() else {
                return scan(&extent, dbs, part);
            };
            let frame = &part.frame;
            let found = dispatch(
                &extent,
                ranges,
                dbs,
                part.skolem,
                part.stats,
                |oids, dbs, skolem, stats| {
                    let mut chunk = Partition::new(frame.clone(), skolem, stats);
                    scan(oids, dbs, &mut chunk)?;
                    Ok(chunk.out)
                },
            )?;
            part.out.extend(found);
            Ok(())
        }
        Step::InSetBind { elem, set } => {
            let elements: Vec<Value> = match eval_term(set, &part.frame, dbs, part.skolem)? {
                Value::Set(items) => items.into_iter().collect(),
                Value::List(items) => items,
                other => {
                    return Err(EngineError::Eval(format!(
                        "`member` applied to a non-set value of kind `{}`",
                        other.kind()
                    )))
                }
            };
            elements
                .iter()
                .try_for_each(|item| extend_frame(elem, item, rest, dbs, part))
        }
    }
}

/// Destructure `value` against `pattern` on the partition's frame; if it
/// matches, count the candidate binding and run the `rest` of the plan under
/// the extension. The extension is undone either way.
fn extend_frame(
    pattern: &Term,
    value: &Value,
    rest: &[Step<'_>],
    dbs: &Databases<'_>,
    part: &mut Partition<'_>,
) -> Result<()> {
    let mark = part.trail.len();
    let matched = match_pattern_in_place(
        pattern,
        value,
        &mut part.frame,
        &mut part.trail,
        dbs,
        part.skolem,
    );
    let result = if matched {
        part.stats.bindings_considered += 1;
        run_plan(rest, false, dbs, part)
    } else {
        Ok(())
    };
    unwind_trail(&mut part.frame, &mut part.trail, mark);
    result
}

/// What one [`dispatch`]ed chunk hands back: its factory, counters and result.
type ChunkOutcome<R> = (SkolemFactory, MatchStats, Result<Vec<R>>);

/// The contiguous ranges the one partition rule ([`Parallelism::partitions`],
/// [`chunk_ranges`]) cuts `len` items into under the view's budget, or `None`
/// for a single chunk, which the caller runs itself with its own view,
/// factory and counters. The engine's only reading of the rule.
fn chunks(dbs: &Databases<'_>, len: usize) -> Option<Vec<Range<usize>>> {
    let ranges = chunk_ranges(len, dbs.parallelism().partitions(len));
    (ranges.len() > 1).then_some(ranges)
}

/// Run `work` over `items` in the view's [`chunks`] and concatenate the
/// results in chunk order. A single chunk is not dispatched: `work` runs on
/// the calling thread with the caller's own view, factory and counters.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    stats: &mut MatchStats,
    work: impl Fn(&[T], &Databases<'_>, &mut SkolemFactory, &mut MatchStats) -> Result<Vec<R>> + Sync,
) -> Result<Vec<R>> {
    match chunks(dbs, items.len()) {
        Some(ranges) => dispatch(items, ranges, dbs, skolem, stats, work),
        None => work(items, dbs, skolem, stats),
    }
}

/// Run `work` over each of the `ranges` of `items` as one job on the pool
/// shared by the view's budget — the one place the engine goes to the
/// [`WorkerPool`] — and concatenate the results in chunk order. Each job
/// works against a fresh [`SkolemFactory`] and [`MatchStats`] and a
/// *one-thread* view, so a match that is already a chunk never fans out
/// again. In chunk order, each job's counters are absorbed into `stats` and
/// its factory folds into `skolem` ([`SkolemFactory::merge`]: a collision
/// across chunks is an error); the first failure in chunk order wins — the
/// one a left-to-right run would have met first.
fn dispatch<T: Sync, R: Send>(
    items: &[T],
    ranges: Vec<Range<usize>>,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    stats: &mut MatchStats,
    work: impl Fn(&[T], &Databases<'_>, &mut SkolemFactory, &mut MatchStats) -> Result<Vec<R>> + Sync,
) -> Result<Vec<R>> {
    let chunk_dbs = dbs.clone().with_parallelism(Parallelism::sequential());
    let (chunk_dbs, work) = (&chunk_dbs, &work);
    let jobs: Vec<Job<'_, ChunkOutcome<R>>> = ranges
        .into_iter()
        .map(|range| {
            Box::new(move || {
                let (mut factory, mut chunk_stats) = (SkolemFactory::new(), MatchStats::default());
                let result = work(&items[range], chunk_dbs, &mut factory, &mut chunk_stats);
                (factory, chunk_stats, result)
            }) as Job<'_, _>
        })
        .collect();
    let mut all = Vec::new();
    for (factory, chunk_stats, result) in WorkerPool::shared(dbs.parallelism()).scope(jobs) {
        stats.absorb(chunk_stats);
        skolem.merge(factory)?;
        all.extend(result?);
    }
    Ok(all)
}

/// Enumerate every binding of the body's variables (extending `initial`) that
/// makes all `atoms` true against `dbs`, with the indexed plan-based matcher,
/// accumulating [`MatchStats`].
///
/// The worker budget is the view's ([`Databases::parallelism`]); it decides
/// only how many chunks the plan's opening extent scan is matched in (see the
/// module docs), never the binding list, its order, or the stats.
pub fn match_body(
    atoms: &[Atom],
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    initial: Bindings,
    stats: &mut MatchStats,
) -> Result<Vec<Bindings>> {
    let initially_bound: BTreeSet<Var> = initial.keys().cloned().collect();
    let plan = build_plan(atoms, &initially_bound, dbs);
    let mut part = Partition::new(initial, skolem, stats);
    run_plan(&plan, true, dbs, &mut part)?;
    Ok(part.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::parse_clause;

    /// Every binding of `body` over `dbs`, from an empty frame.
    fn all_matches(body: &[Atom], dbs: &Databases<'_>) -> Vec<Bindings> {
        let (mut sk, mut stats) = (SkolemFactory::new(), MatchStats::default());
        match_body(body, dbs, &mut sk, Bindings::new(), &mut stats).unwrap()
    }

    fn euro_instance() -> (Instance, Oid, Oid) {
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
        (inst, uk, fr)
    }

    #[test]
    fn eval_projection_through_oid() {
        let (inst, _, fr) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let bindings = Bindings::from([("X".to_string(), Value::oid(fr))]);
        let term = Term::var("X").path("name");
        assert_eq!(
            eval_term(&term, &bindings, &dbs, &mut sk).unwrap(),
            Value::str("France")
        );
    }

    #[test]
    fn eval_unbound_variable_fails() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        assert!(eval_term(&Term::var("X"), &Bindings::new(), &dbs, &mut sk).is_err());
        assert!(try_eval_term(&Term::var("X"), &Bindings::new(), &dbs, &mut sk).is_none());
    }

    #[test]
    fn eval_record_variant_and_skolem() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let bindings = Bindings::from([("N".to_string(), Value::str("France"))]);
        let term = Term::record([("name", Term::var("N")), ("kind", Term::tag("euro"))]);
        let value = eval_term(&term, &bindings, &dbs, &mut sk).unwrap();
        assert_eq!(
            value,
            Value::record([("name", Value::str("France")), ("kind", Value::tag("euro"))])
        );
        // Skolem terms create deterministic identities.
        let sk_term = Term::skolem("CountryT", [Term::var("N")]);
        let a = eval_term(&sk_term, &bindings, &dbs, &mut sk).unwrap();
        let b = eval_term(&sk_term, &bindings, &dbs, &mut sk).unwrap();
        assert_eq!(a, b);
        match a {
            Value::Oid(oid) => assert_eq!(oid.class(), &ClassName::new("CountryT")),
            other => panic!("expected an oid, got {other:?}"),
        }
    }

    #[test]
    fn skolem_key_styles() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let bindings = Bindings::from([
            ("N".to_string(), Value::str("Paris")),
            ("C".to_string(), Value::str("France")),
        ]);
        let positional = SkolemArgs::Positional(vec![Term::var("N"), Term::var("C")]);
        assert_eq!(
            eval_skolem_key(&positional, &bindings, &dbs, &mut sk).unwrap(),
            Value::list([Value::str("Paris"), Value::str("France")])
        );
        let named = SkolemArgs::Named(vec![
            ("name".into(), Term::var("N")),
            ("country_name".into(), Term::var("C")),
        ]);
        assert_eq!(
            eval_skolem_key(&named, &bindings, &dbs, &mut sk).unwrap(),
            Value::record([
                ("name", Value::str("Paris")),
                ("country_name", Value::str("France"))
            ])
        );
        let single = SkolemArgs::Positional(vec![Term::var("N")]);
        assert_eq!(
            eval_skolem_key(&single, &bindings, &dbs, &mut sk).unwrap(),
            Value::str("Paris")
        );
    }

    #[test]
    fn match_body_of_clause_c4_style() {
        // Find all (X country, Y capital city) pairs.
        let (inst, uk, fr) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let clause = parse_clause(
            "Z = Y.name <= X in CountryE, Y in CityE, Y.country = X, Y.is_capital = true",
        )
        .unwrap();
        let results = all_matches(&clause.body, &dbs);
        assert_eq!(results.len(), 2);
        let mut countries: Vec<&Value> = results.iter().filter_map(|b| b.get("X")).collect();
        countries.sort();
        countries.dedup();
        assert_eq!(countries.len(), 2);
        assert!(results
            .iter()
            .any(|b| b.get("X") == Some(&Value::oid(uk.clone()))));
        assert!(results
            .iter()
            .any(|b| b.get("X") == Some(&Value::oid(fr.clone()))));
    }

    #[test]
    fn match_body_joins_on_attribute() {
        // Cities paired with the country record they reference by name.
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let clause =
            parse_clause("Z = E.name <= E in CityE, X in CountryE, X.name = E.country.name")
                .unwrap();
        let results = all_matches(&clause.body, &dbs);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn match_body_with_initial_bindings() {
        let (inst, uk, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let clause = parse_clause("Z = Y.name <= Y in CityE, Y.country = X").unwrap();
        let initial = Bindings::from([("X".to_string(), Value::oid(uk))]);
        let results = match_body(
            &clause.body,
            &dbs,
            &mut sk,
            initial,
            &mut MatchStats::default(),
        )
        .unwrap();
        assert_eq!(results.len(), 2); // London and Manchester
    }

    #[test]
    fn comparisons_filter() {
        let mut inst = Instance::new("nums");
        for (name, pop) in [("a", 10i64), ("b", 20), ("c", 30)] {
            inst.insert_fresh(
                &ClassName::new("CityA"),
                Value::record([("name", Value::str(name)), ("population", Value::int(pop))]),
            );
        }
        let dbs = Databases::new(&[&inst][..]);
        let clause =
            parse_clause("Z = X.name <= X in CityA, Y in CityA, X.population < Y.population")
                .unwrap();
        let results = all_matches(&clause.body, &dbs);
        assert_eq!(results.len(), 3); // (a,b), (a,c), (b,c)
        let leq =
            parse_clause("Z = X.name <= X in CityA, Y in CityA, X.population =< Y.population")
                .unwrap();
        let results = all_matches(&leq.body, &dbs);
        assert_eq!(results.len(), 6);
        let neq = parse_clause("Z = X.name <= X in CityA, Y in CityA, X != Y").unwrap();
        let results = all_matches(&neq.body, &dbs);
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn set_membership_enumerates() {
        let mut inst = Instance::new("clusters");
        inst.insert_fresh(
            &ClassName::new("Cluster"),
            Value::record([
                ("name", Value::str("c22")),
                (
                    "markers",
                    Value::set([
                        Value::str("D22S1"),
                        Value::str("D22S2"),
                        Value::str("D22S3"),
                    ]),
                ),
            ]),
        );
        let dbs = Databases::new(&[&inst][..]);
        let clause = parse_clause("Z = M <= X in Cluster, M member X.markers").unwrap();
        let results = all_matches(&clause.body, &dbs);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn variant_pattern_matching() {
        let mut inst = Instance::new("people");
        inst.insert_fresh(
            &ClassName::new("Person"),
            Value::record([("name", Value::str("Ada")), ("sex", Value::tag("female"))]),
        );
        inst.insert_fresh(
            &ClassName::new("Person"),
            Value::record([("name", Value::str("Alan")), ("sex", Value::tag("male"))]),
        );
        let dbs = Databases::new(&[&inst][..]);
        let clause = parse_clause("Z = Y.name <= Y in Person, Y.sex = ins_male()").unwrap();
        let results = all_matches(&clause.body, &dbs);
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("Y").and_then(|v| v.as_oid()).map(|o| o.id()),
            Some(1)
        );
    }

    #[test]
    fn unorientable_equality_reported() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        // Neither side of `A = B` can ever be evaluated.
        let clause = parse_clause("Z = 1 <= A = B").unwrap();
        assert!(match_body(
            &clause.body,
            &dbs,
            &mut sk,
            Bindings::new(),
            &mut MatchStats::default()
        )
        .is_err());
    }

    #[test]
    fn databases_lookup_across_instances() {
        let (inst, uk, _) = euro_instance();
        let mut other = Instance::new("target");
        let t = other.insert_fresh(
            &ClassName::new("CountryT"),
            Value::record([("name", Value::str("UK"))]),
        );
        let all = [&inst, &other];
        let dbs = Databases::new(&all[..]);
        assert!(dbs.value_of(&uk).is_some());
        assert!(dbs.value_of(&t).is_some());
        assert!(dbs.contains(&t));
        assert_eq!(dbs.len(), 2);
        assert!(!dbs.is_empty());
        assert_eq!(dbs.extent(&ClassName::new("CountryT")).len(), 1);
        assert_eq!(dbs.extent_size(&ClassName::new("CountryT")), 1);
        assert_eq!(
            dbs.lookup_by_attr(&ClassName::new("CountryT"), "name", &Value::str("UK")),
            vec![t]
        );
    }

    #[test]
    fn pattern_matching_records_and_conflicts() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let value = Value::record([
            ("name", Value::str("Paris")),
            ("country_name", Value::str("France")),
        ]);
        let pattern = Term::record([("name", Term::var("N")), ("country_name", Term::var("C"))]);
        let bound = match_pattern(&pattern, &value, &Bindings::new(), &dbs, &mut sk).unwrap();
        assert_eq!(bound.get("N"), Some(&Value::str("Paris")));
        assert_eq!(bound.get("C"), Some(&Value::str("France")));
        // A conflicting existing binding rejects the match.
        let existing = Bindings::from([("N".to_string(), Value::str("Lyon"))]);
        assert!(match_pattern(&pattern, &value, &existing, &dbs, &mut sk).is_none());
        // Matching a non-record fails.
        assert!(match_pattern(&pattern, &Value::int(1), &Bindings::new(), &dbs, &mut sk).is_none());
    }

    #[test]
    fn indexed_matcher_probes_instead_of_scanning() {
        let (inst, _, _) = euro_instance();
        let dbs = Databases::new(&[&inst][..]);
        let mut sk = SkolemFactory::new();
        let clause =
            parse_clause("Z = 1 <= X in CountryE, Y in CityE, Y.country = X, Y.is_capital = true")
                .unwrap();
        let mut stats = MatchStats::default();
        let results = match_body(&clause.body, &dbs, &mut sk, Bindings::new(), &mut stats).unwrap();
        assert_eq!(results.len(), 2);
        // The plan probes CityE on the constant `is_capital = true`, binds the
        // country through `Y.country = X`, and checks membership — no extent
        // is ever enumerated.
        assert_eq!(stats.extents_scanned, 0);
        assert_eq!(stats.index_probes, 1);
        assert!(stats.bindings_considered > 0);
    }

    /// `CountryE` × 10 and `CityE` × `cities`, with every attribute kind the
    /// body shapes below touch.
    fn scaled_instance(cities: usize) -> Instance {
        let mut inst = Instance::new("euro");
        let countries: Vec<Oid> = (0..10)
            .map(|c| {
                inst.insert_fresh(
                    &ClassName::new("CountryE"),
                    Value::record([("name", Value::str(format!("country{c}")))]),
                )
            })
            .collect();
        for i in 0..cities {
            let kind = if i % 3 == 0 {
                Value::Variant("port".into(), Box::new(Value::int((i % 7) as i64)))
            } else {
                Value::tag("inland")
            };
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(format!("city{i}"))),
                    ("twin", Value::str(format!("city{}", (i * 7 + 3) % cities))),
                    ("is_capital", Value::bool(i % 10 == 0)),
                    ("population", Value::int((i * 37 % 101) as i64)),
                    ("country", Value::oid(countries[i % 10].clone())),
                    ("tags", Value::set((0..i % 4).map(|t| Value::int(t as i64)))),
                    ("kind", kind),
                ]),
            );
        }
        inst
    }

    /// A one-chunk fan-out is not a dispatch: it runs on the calling thread
    /// against the caller's view, factory and counters. Several chunks each
    /// get a fresh factory and a one-thread view; results keep chunk order,
    /// counters are summed, the chunk factories fold into the caller's, and
    /// the earliest chunk's error wins.
    #[test]
    fn single_chunk_fan_out_runs_on_the_calling_thread_with_the_callers_factory() {
        let inst = Instance::new("empty");
        let budget = Parallelism::new(4).with_min_items(1);
        let dbs = Databases::new(&[&inst]).with_parallelism(budget);
        let class = ClassName::new("T");
        let caller = std::thread::current().id();
        let (mut sk, mut stats) = (SkolemFactory::new(), MatchStats::default());
        let out = fan_out(
            &[7i64],
            &dbs,
            &mut sk,
            &mut stats,
            |items, dbs, sk, stats| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(dbs.parallelism(), budget);
                sk.mk(&class, &Value::int(items[0]))?;
                stats.index_probes += 1;
                Ok(items.to_vec())
            },
        )
        .unwrap();
        assert_eq!(out, vec![7]);
        assert_eq!(sk.count(&class), 1);
        assert_eq!(stats.index_probes, 1);

        let items: Vec<i64> = (0..10).collect();
        let out = fan_out(
            &items,
            &dbs,
            &mut sk,
            &mut stats,
            |items, dbs, sk, stats| {
                assert!(dbs.parallelism().is_sequential());
                assert_eq!(sk.count(&class), 0);
                sk.mk(&class, &Value::int(items[0]))?;
                stats.index_probes += items.len();
                Ok(items.to_vec())
            },
        )
        .unwrap();
        assert_eq!(out, items);
        // Chunks start at 0, 3, 6 and 8; key 7 already held stays one entry.
        let mut expected = SkolemFactory::new();
        for key in [7, 0, 3, 6, 8] {
            expected.mk(&class, &Value::int(key)).unwrap();
        }
        assert_eq!(
            sk.count(&class),
            5,
            "chunk factories fold into the caller's"
        );
        assert_eq!(format!("{sk:?}"), format!("{expected:?}"));
        assert_eq!(stats.index_probes, 11);

        let err = fan_out(&items, &dbs, &mut sk, &mut stats, |items, _, _, _| {
            Err::<Vec<i64>, _>(EngineError::Eval(format!("chunk at {}", items[0])))
        })
        .unwrap_err();
        assert!(err.to_string().contains("chunk at 0"), "{err}");
    }

    /// Two chunks that hold one identity for different keys do not fold
    /// silently: the caller gets the collision, whichever chunk ran first.
    #[test]
    fn chunks_holding_one_identity_for_different_keys_collide() {
        let inst = Instance::new("empty");
        let dbs = Databases::new(&[&inst]).with_parallelism(Parallelism::new(2).with_min_items(1));
        let class = ClassName::new("T");
        let shared = Oid::new(class.clone(), 7);
        let (mut sk, mut stats) = (SkolemFactory::new(), MatchStats::default());
        let err = fan_out(
            &["left", "right"],
            &dbs,
            &mut sk,
            &mut stats,
            |keys, _, sk, _| {
                sk.restore_assignment(&class, Value::str(keys[0]), shared.clone())?;
                Ok(vec![()])
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, EngineError::Model(text) if text.contains("both claim")),
            "{err}"
        );
    }

    /// Every body shape the planner produces matches to the same binding
    /// *list* — same bindings, same order — with equal stats at every budget,
    /// over extents just below, at and above the partition minimum; and a
    /// Skolem-bearing body splits like any other, its chunk factories
    /// folding into exactly the memo one partition builds.
    #[test]
    fn every_body_shape_is_partition_invariant() {
        let min = (1..)
            .find(|&items| Parallelism::new(2).partitions(items) > 1)
            .unwrap();
        // (body, variable bound by `initial` to the first country, whether a
        // large extent under a budget above one splits the opening step)
        let shapes: [(&str, Option<&str>, bool); 11] = [
            ("Z = 1 <= E in CityE", None, true),
            ("Z = 1 <= E in CityE, E.is_capital = true", None, false),
            (
                "Z = 1 <= E in CityE, F in CityE, F.name = E.twin",
                None,
                true,
            ),
            ("Z = 1 <= E in CityE, X = E.country", None, true),
            (
                "Z = 1 <= E in CityE, F in CityE, E.population < F.population",
                None,
                true,
            ),
            ("Z = 1 <= X in CountryE, E in CityE, X != E", None, false),
            ("Z = 1 <= E in CityE, T member E.tags", None, true),
            ("Z = 1 <= E in CityE, E.kind = ins_port(P)", None, true),
            (
                "Z = 1 <= E in CityE, E.population =< 60, 10 < E.population, E.population != 37",
                None,
                true,
            ),
            ("Z = 1 <= E in CityE, E.country = X", Some("X"), false),
            ("Z = 1 <= E in CityE, Y = Mk_CityT(E.name)", None, true),
        ];
        for cities in [min - 1, min, min + 22] {
            let inst = scaled_instance(cities);
            let first_country = inst
                .extent(&ClassName::new("CountryE"))
                .next()
                .unwrap()
                .clone();
            let run = |body: &[Atom], seed: Option<&str>, threads: usize| {
                let dbs = Databases::new(&[&inst]).with_parallelism(Parallelism::new(threads));
                let initial: Bindings = seed
                    .map(|var| (var.to_string(), Value::oid(first_country.clone())))
                    .into_iter()
                    .collect();
                let bound: BTreeSet<Var> = initial.keys().cloned().collect();
                let split = match build_plan(body, &bound, &dbs).first() {
                    Some(Step::MemberScan { class, .. }) => {
                        dbs.parallelism().partitions(dbs.extent_size(class)) > 1
                    }
                    _ => false,
                };
                let (mut sk, mut stats) = (SkolemFactory::new(), MatchStats::default());
                let found = match_body(body, &dbs, &mut sk, initial, &mut stats).unwrap();
                (found, stats, split, format!("{sk:?}"))
            };
            for (text, seed, splits) in shapes {
                let body = parse_clause(text).unwrap().body;
                let (expected, expected_stats, split, expected_sk) = run(&body, seed, 1);
                assert!(!expected.is_empty() && !split, "`{text}` over {cities}");
                for threads in [2, 3, 8] {
                    let (found, stats, split, sk) = run(&body, seed, threads);
                    assert_eq!(found, expected, "bindings of `{text}` at {threads} threads");
                    assert_eq!(
                        stats, expected_stats,
                        "stats of `{text}` at {threads} threads"
                    );
                    assert_eq!(sk, expected_sk, "factory of `{text}` at {threads} threads");
                    assert_eq!(split, splits && cities >= min, "`{text}`");
                }
            }
            // The Skolem-bearing body minted one identity per city.
            let body = parse_clause("Z = 1 <= E in CityE, Y = Mk_CityT(E.name)")
                .unwrap()
                .body;
            let dbs = Databases::new(&[&inst]).with_parallelism(Parallelism::new(8));
            let mut sk = SkolemFactory::new();
            match_body(
                &body,
                &dbs,
                &mut sk,
                Bindings::new(),
                &mut MatchStats::default(),
            )
            .unwrap();
            assert_eq!(sk.count(&ClassName::new("CityT")), cities);
        }
    }

    #[test]
    fn bindings_frame_is_shared_not_deep_cloned() {
        let big = Value::set((0..100).map(Value::int));
        let mut bindings = Bindings::new();
        bindings.insert("S", big);
        let shared = bindings.get_shared("S").unwrap().clone();
        let copy = bindings.clone();
        // Three handles, one value.
        assert_eq!(std::sync::Arc::strong_count(&shared), 3);
        assert_eq!(copy.get("S"), bindings.get("S"));
        drop(copy);
        assert_eq!(std::sync::Arc::strong_count(&shared), 2);
    }

    #[test]
    fn bindings_map_api_round_trips() {
        let mut bindings = Bindings::new();
        assert!(bindings.is_empty());
        assert!(bindings.insert("X", Value::int(1)).is_none());
        assert!(bindings.contains_key("X"));
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings.get("X"), Some(&Value::int(1)));
        let previous = bindings.insert("X", Value::int(2)).unwrap();
        assert_eq!(*previous, Value::int(1));
        let collected: Vec<(String, Value)> = bindings
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(collected, vec![("X".to_string(), Value::int(2))]);
        assert_eq!(bindings.keys().collect::<Vec<_>>(), vec!["X"]);
        assert!(bindings.remove("X").is_some());
        assert!(bindings.get("X").is_none());
    }
}
