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
//! bound-variable coverage) and answers `Member` atoms that are equated to a
//! bound attribute value through the instances' secondary attribute indexes
//! ([`wol_model::index`]) instead of enumerating extents. It reports
//! [`MatchStats`] so callers (the naive evaluator, the Morphase pipeline, the
//! constraint checkers) can quantify the work done. The naive
//! generate-and-test matcher it is property-tested against lives in the
//! test-only `wol-oracle` crate, built on [`eval_term`], [`try_eval_term`]
//! and [`is_pattern`].
//!
//! # The frame and the sink
//!
//! A plan runs over one frame: the bound variables in binding order, each
//! named by the term text that bound it. Binding pushes a slot and undoing
//! truncates, so a binding clones no name and needs no trail; probes share
//! one candidate buffer and scans walk the extents in place. The plan's
//! leaf is a sink, called with the live frame at each complete binding:
//! [`match_body`] copies the bindings out, and the constraint checker runs
//! its witness plan there, so a full check collects no binding. The one term
//! evaluator is generic over the frame (a caller's [`Bindings`] or the
//! matcher's): it borrows variables, constants and stored attributes, and
//! builds only records, variants and Skolem identities.
//!
//! # One thread
//!
//! The matcher runs on the calling thread, in the caller's [`SkolemFactory`]
//! and [`MatchStats`]. Section 5 presents direct clause application as a
//! reference, not an executor: transformations compile to CPL, which is the
//! workspace's parallel engine, and what is left here — constraint checks
//! and the naive oracle — matches one binding after the other, in the order
//! the plan enumerates them.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use wol_lang::ast::{Atom, SkolemArgs, Term, Var};
use wol_model::{ClassName, Instance, Label, Oid, PushOp, SharedValue, SkolemFactory, Value};

use crate::error::EngineError;
use crate::Result;

/// The evaluation context of clause matching: the database instances visible
/// to a clause, in order.
pub struct Databases<'a> {
    instances: Vec<&'a Instance>,
}

impl<'a> Databases<'a> {
    /// View over the given instances (sources first, target last by
    /// convention).
    pub fn new(instances: &[&'a Instance]) -> Self {
        Databases {
            instances: instances.to_vec(),
        }
    }

    /// Look up the value of an object identity in whichever instance holds it.
    pub(crate) fn value_of(&self, oid: &Oid) -> Option<&'a Value> {
        self.instances.iter().find_map(|i| i.value(oid))
    }

    /// Iterate over the extent of `class` across all instances.
    pub fn extent<'s>(&'s self, class: &'s ClassName) -> impl Iterator<Item = &'a Oid> + 's {
        self.instances.iter().flat_map(move |i| i.extent(class))
    }

    /// Total number of objects of `class` across all instances.
    pub(crate) fn extent_size(&self, class: &ClassName) -> usize {
        self.instances.iter().map(|i| i.extent_size(class)).sum()
    }

    /// Append to `found` all identities of `class` whose attributes `attrs`
    /// equal `values` pairwise, answered by one lookup in each instance's
    /// lazily built index on that attribute tuple.
    pub(crate) fn lookup_by_attrs(
        &self,
        class: &ClassName,
        attrs: &[Label],
        values: &[&Value],
        found: &mut Vec<Oid>,
    ) {
        for instance in &self.instances {
            instance.lookup_by_attrs(class, attrs, values, found);
        }
    }

    /// Whether `oid` is present in the extent of its class in any instance.
    pub fn contains(&self, oid: &Oid) -> bool {
        self.instances.iter().any(|i| i.contains(oid))
    }
}

/// A binding of clause variables to values.
///
/// Values are held behind [`SharedValue`] (`Arc`) handles, so cloning a
/// binding — which the reference matcher does once per *extension* — bumps
/// reference counts instead of deep-cloning value trees. The map API mirrors
/// the `BTreeMap<Var, Value>` this type used to be, so callers are
/// unaffected.
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
    pub(crate) fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var).map(|v| v.as_ref())
    }

    /// Whether `var` is bound.
    pub fn contains_key(&self, var: &str) -> bool {
        self.map.contains_key(var)
    }

    /// Bind `var` to `value`, returning the previous handle if it was bound.
    pub fn insert(&mut self, var: impl Into<Var>, value: Value) -> Option<SharedValue> {
        self.map.insert(var.into(), value.shared())
    }

    /// Iterate over `(variable, value)` pairs, in variable-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.map.iter().map(|(k, v)| (k, v.as_ref()))
    }

    /// The bound variables.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &Var> {
        self.map.keys()
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

/// What the term evaluator reads variables from.
pub(crate) trait Frame {
    /// The value bound to `var`, if any.
    fn lookup(&self, var: &str) -> Option<&Value>;
}

impl Frame for Bindings {
    fn lookup(&self, var: &str) -> Option<&Value> {
        self.get(var)
    }
}

/// The matcher's frame (see the module docs); a caller's initial values
/// are borrowed.
pub(crate) struct Slots<'t>(pub(crate) Vec<(&'t str, Cow<'t, Value>)>);

impl Frame for Slots<'_> {
    fn lookup(&self, var: &str) -> Option<&Value> {
        let slot = self.0.iter().find(|(name, _)| *name == var);
        slot.map(|(_, value)| value.as_ref())
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

/// The term evaluator. Skolem terms are resolved through `skolem`, creating
/// object identities on demand; projections dereference object identities
/// through `dbs`.
fn eval<'v>(
    term: &'v Term,
    frame: &'v impl Frame,
    dbs: &Databases<'v>,
    skolem: &mut SkolemFactory,
) -> Result<Cow<'v, Value>> {
    match term {
        Term::Var(v) => frame
            .lookup(v)
            .map(Cow::Borrowed)
            .ok_or_else(|| EngineError::Eval(format!("unbound variable {v}"))),
        Term::Const(value) => Ok(Cow::Borrowed(value)),
        Term::Proj(base, label) => match eval(base, frame, dbs, skolem)? {
            Cow::Borrowed(base) => project(base, label, dbs).map(Cow::Borrowed),
            Cow::Owned(base) => project(&base, label, dbs).cloned().map(Cow::Owned),
        },
        Term::Record(fields) => eval_record(fields, frame, dbs, skolem).map(Cow::Owned),
        Term::Variant(label, payload) => Ok(Cow::Owned(Value::Variant(
            label.clone(),
            Box::new(eval(payload, frame, dbs, skolem)?.into_owned()),
        ))),
        Term::Skolem(class, args) => {
            let key = skolem_key(args, frame, dbs, skolem)?;
            Ok(Cow::Owned(Value::Oid(skolem.mk(class, &key)?)))
        }
    }
}

/// Attribute `label` of `value`, or of the object `value` identifies.
fn project<'v>(value: &'v Value, label: &Label, dbs: &Databases<'v>) -> Result<&'v Value> {
    let record = match value {
        Value::Oid(oid) => dbs
            .value_of(oid)
            .ok_or_else(|| EngineError::Eval(format!("dangling object identity {oid}")))?,
        other => other,
    };
    record.project(label).ok_or_else(|| {
        EngineError::Eval(format!(
            "value of kind `{}` has no attribute `{label}`",
            record.kind()
        ))
    })
}

/// The record of the values of `fields`.
fn eval_record(
    fields: &[(Label, Term)],
    frame: &impl Frame,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<Value> {
    let mut out = Vec::with_capacity(fields.len());
    for (label, term) in fields {
        out.push((label.clone(), eval(term, frame, dbs, skolem)?.into_owned()));
    }
    Ok(Value::Record(out.into_iter().collect()))
}

/// [`eval_skolem_key`] in any frame.
pub(crate) fn skolem_key(
    args: &SkolemArgs,
    frame: &impl Frame,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<Value> {
    let mut eval_owned = |term: &Term| eval(term, frame, dbs, skolem).map(Cow::into_owned);
    match args {
        SkolemArgs::Positional(terms) => match terms.as_slice() {
            [single] => eval_owned(single),
            terms => Ok(Value::List(
                terms.iter().map(eval_owned).collect::<Result<_>>()?,
            )),
        },
        SkolemArgs::Named(fields) => eval_record(fields, frame, dbs, skolem),
    }
}

/// [`eval`] if all of the term's variables are bound and it evaluates;
/// `None` otherwise.
pub(crate) fn try_eval<'v>(
    term: &'v Term,
    frame: &'v impl Frame,
    dbs: &Databases<'v>,
    skolem: &mut SkolemFactory,
) -> Option<Cow<'v, Value>> {
    let bound = term.all_vars(&mut |v| frame.lookup(v).is_some());
    bound.then(|| eval(term, frame, dbs, skolem).ok()).flatten()
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
    eval(term, bindings, dbs, skolem).map(Cow::into_owned)
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
    skolem_key(args, bindings, dbs, skolem)
}

/// Evaluate a term if all of its variables are bound; `None` otherwise.
pub fn try_eval_term(
    term: &Term,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Option<Value> {
    try_eval(term, bindings, dbs, skolem).map(Cow::into_owned)
}

/// Pattern matching on the matcher's frame: the pattern's unbound variables
/// are bound as they are reached. On failure some may be bound already; the
/// caller truncates the frame back to its own length.
fn bind_pattern<'t>(
    pattern: &'t Term,
    value: Cow<'_, Value>,
    frame: &mut Slots<'t>,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> bool {
    match pattern {
        Term::Var(v) => match frame.lookup(v) {
            Some(existing) => *existing == *value,
            None => {
                frame.0.push((v.as_str(), Cow::Owned(value.into_owned())));
                true
            }
        },
        Term::Const(c) => *c == *value,
        Term::Record(fields) => {
            let Value::Record(actual) = value.as_ref() else {
                return false;
            };
            fields.iter().all(|(label, sub)| {
                actual.get(label).is_some_and(|sub_value| {
                    bind_pattern(sub, Cow::Borrowed(sub_value), frame, dbs, skolem)
                })
            })
        }
        Term::Variant(label, payload) => {
            let Value::Variant(actual_label, actual_payload) = value.as_ref() else {
                return false;
            };
            label == actual_label
                && bind_pattern(payload, Cow::Borrowed(actual_payload), frame, dbs, skolem)
        }
        Term::Proj(_, _) | Term::Skolem(_, _) => {
            try_eval(pattern, &*frame, dbs, skolem).is_some_and(|evaluated| *evaluated == *value)
        }
    }
}

/// Is the term usable as a *pattern* for destructuring: variables,
/// constants, and record/variant shapes over patterns? Projections and
/// Skolem terms are not patterns; as a pattern, one matches a value only by
/// evaluating to it.
pub fn is_pattern(term: &Term) -> bool {
    match term {
        Term::Var(_) | Term::Const(_) => true,
        Term::Record(fields) => fields.iter().all(|(_, t)| is_pattern(t)),
        Term::Variant(_, payload) => is_pattern(payload),
        Term::Proj(_, _) | Term::Skolem(_, _) => false,
    }
}

// ---------------------------------------------------------------------------
// The indexed matcher: greedy join plans over one frame.
// ---------------------------------------------------------------------------

/// One step of a join plan: how one body atom is processed, holding the
/// operands of the atom it was built from.
#[derive(Clone, Debug)]
pub(crate) enum Step<'a> {
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
/// variables, and return it with the variables bound once it has run. At
/// each step the cheapest processable atom is chosen:
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
/// search, and every binding that reaches its end binds the same variables.
pub(crate) fn build_plan<'a>(
    atoms: &'a [Atom],
    mut bound: BTreeSet<Var>,
    dbs: &Databases<'_>,
) -> (Vec<Step<'a>>, BTreeSet<Var>) {
    let mut used = vec![false; atoms.len()];
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
    (steps, bound)
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
    let term_bound = |t: &Term| t.all_vars(&mut |v| bound.contains(v));
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

/// Check a fully-bound atom against the current frame. The run-time rule is
/// cpl's: a bad value — a missing optional attribute, a dangling identity,
/// an uncomparable pair — makes the atom false.
fn check_bound_atom(
    atom: &Atom,
    frame: &Slots<'_>,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Result<bool> {
    let mut compare = |op: PushOp, s: &Term, t: &Term| {
        let a = eval(s, frame, dbs, skolem).ok();
        let b = eval(t, frame, dbs, skolem).ok();
        match (a, b) {
            (Some(a), Some(b)) => op.holds((&*a).into(), (&*b).into()) == Some(true),
            _ => false,
        }
    };
    match atom {
        Atom::Eq(s, t) => Ok(compare(PushOp::Eq, s, t)),
        Atom::Neq(s, t) => Ok(compare(PushOp::Neq, s, t)),
        Atom::Lt(s, t) => Ok(compare(PushOp::Lt, s, t)),
        Atom::Leq(s, t) => Ok(compare(PushOp::Leq, s, t)),
        Atom::Member(term, class) => Ok(match eval(term, frame, dbs, skolem).ok().as_deref() {
            Some(Value::Oid(oid)) => oid.class() == class && dbs.contains(oid),
            _ => false,
        }),
        Atom::InSet(elem, set) => {
            let set_value = eval(set, frame, dbs, skolem)?;
            let Ok(elem_value) = eval(elem, frame, dbs, skolem) else {
                return Ok(false);
            };
            match set_value.as_ref() {
                Value::Set(items) => Ok(items.contains(&*elem_value)),
                Value::List(items) => Ok(items.contains(&*elem_value)),
                other => Err(not_a_set(other)),
            }
        }
    }
}

/// The error of a `member` atom whose collection is not a set or a list.
fn not_a_set(value: &Value) -> EngineError {
    EngineError::Eval(format!(
        "`member` applied to a non-set value of kind `{}`",
        value.kind()
    ))
}

/// The state of one match: the caller's Skolem factory and counters, the
/// binding frame, and the candidates of every open index probe (innermost
/// last).
pub(crate) struct Search<'p, 't> {
    pub(crate) skolem: &'p mut SkolemFactory,
    stats: &'p mut MatchStats,
    pub(crate) frame: Slots<'t>,
    candidates: Vec<Oid>,
}

impl<'p, 't> Search<'p, 't> {
    /// A search from the bindings in `initial`.
    pub(crate) fn new(
        skolem: &'p mut SkolemFactory,
        stats: &'p mut MatchStats,
        initial: &'t Bindings,
    ) -> Self {
        let frame = initial
            .iter()
            .map(|(var, v)| (var.as_str(), Cow::Borrowed(v)));
        Search {
            skolem,
            stats,
            frame: Slots(frame.collect()),
            candidates: Vec::new(),
        }
    }
}

/// Execute `steps` in order over the search's frame, calling `leaf` with
/// the frame at every complete binding. Every extension is undone before
/// returning, so the frame is left as it was found.
pub(crate) fn run_plan<'t>(
    steps: &[Step<'t>],
    dbs: &Databases<'_>,
    search: &mut Search<'_, 't>,
    leaf: &mut dyn FnMut(&mut Search<'_, 't>) -> Result<()>,
) -> Result<()> {
    let Some((step, rest)) = steps.split_first() else {
        return leaf(search);
    };
    match step {
        Step::Stuck => Err(EngineError::Eval(
            "no atom can be processed: the clause body is not range-restricted".to_string(),
        )),
        Step::Check(atom) => {
            if check_bound_atom(atom, &search.frame, dbs, search.skolem)? {
                search.stats.bindings_considered += 1;
                run_plan(rest, dbs, search, leaf)?;
            }
            Ok(())
        }
        Step::BindEq { evaluable, pattern } => {
            // The evaluable side's variables are bound by construction; a
            // `None` here means a missing optional attribute, which simply
            // has no witness.
            match try_eval(evaluable, &search.frame, dbs, search.skolem).map(Cow::into_owned) {
                Some(value) => extend_frame(pattern, Cow::Owned(value), rest, dbs, search, leaf),
                None => Ok(()),
            }
        }
        Step::MemberProbe {
            member,
            class,
            attr,
            key,
        } => {
            let Some(key) = try_eval(key, &search.frame, dbs, search.skolem) else {
                return Ok(());
            };
            search.stats.index_probes += 1;
            let start = search.candidates.len();
            let attrs = std::slice::from_ref(*attr);
            dbs.lookup_by_attrs(class, attrs, &[&key], &mut search.candidates);
            drop(key);
            let result = (start..search.candidates.len()).try_for_each(|i| {
                let oid = Value::Oid(search.candidates[i].clone());
                extend_frame(member, Cow::Owned(oid), rest, dbs, search, leaf)
            });
            search.candidates.truncate(start);
            result
        }
        Step::MemberScan { term, class } => {
            search.stats.extents_scanned += 1;
            dbs.extent(class).try_for_each(|oid| {
                let oid = Value::Oid(oid.clone());
                extend_frame(term, Cow::Owned(oid), rest, dbs, search, leaf)
            })
        }
        Step::InSetBind { elem, set } => {
            let set = eval(set, &search.frame, dbs, search.skolem)?.into_owned();
            let mut each = |item| extend_frame(elem, Cow::Borrowed(item), rest, dbs, search, leaf);
            match &set {
                Value::Set(items) => items.iter().try_for_each(&mut each),
                Value::List(items) => items.iter().try_for_each(&mut each),
                other => Err(not_a_set(other)),
            }
        }
    }
}

/// Destructure `value` against `pattern` on the search's frame; if it
/// matches, count the candidate binding and run the `rest` of the plan under
/// the extension. The extension is undone either way.
fn extend_frame<'t>(
    pattern: &'t Term,
    value: Cow<'_, Value>,
    rest: &[Step<'t>],
    dbs: &Databases<'_>,
    search: &mut Search<'_, 't>,
    leaf: &mut dyn FnMut(&mut Search<'_, 't>) -> Result<()>,
) -> Result<()> {
    let mark = search.frame.0.len();
    let result = if bind_pattern(pattern, value, &mut search.frame, dbs, search.skolem) {
        search.stats.bindings_considered += 1;
        run_plan(rest, dbs, search, leaf)
    } else {
        Ok(())
    };
    search.frame.0.truncate(mark);
    result
}

/// Enumerate every binding of the body's variables (extending `initial`) that
/// makes all `atoms` true against `dbs`, with the indexed plan-based matcher,
/// accumulating [`MatchStats`].
pub fn match_body(
    atoms: &[Atom],
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    initial: Bindings,
    stats: &mut MatchStats,
) -> Result<Vec<Bindings>> {
    let (plan, _) = build_plan(atoms, initial.keys().cloned().collect(), dbs);
    let mut search = Search::new(skolem, stats, &initial);
    let mut out = Vec::new();
    run_plan(&plan, dbs, &mut search, &mut |search| {
        let slots = search.frame.0.iter();
        out.push(
            slots
                .map(|(var, value)| (var.to_string(), value.as_ref().clone()))
                .collect(),
        );
        Ok(())
    })?;
    Ok(out)
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
        assert_eq!(dbs.extent(&ClassName::new("CountryT")).count(), 1);
        assert_eq!(dbs.extent_size(&ClassName::new("CountryT")), 1);
        let mut found = Vec::new();
        dbs.lookup_by_attrs(
            &ClassName::new("CountryT"),
            &["name".into()],
            &[&Value::str("UK")],
            &mut found,
        );
        assert_eq!(found, vec![t]);
    }

    /// `pattern` destructured against `value` on a frame holding `initial`:
    /// the extended bindings, or `None` if the pattern does not match.
    fn match_pattern(
        pattern: &Term,
        value: &Value,
        initial: &Bindings,
        dbs: &Databases<'_>,
        sk: &mut SkolemFactory,
    ) -> Option<Bindings> {
        let mut frame = Slots(
            initial
                .iter()
                .map(|(k, v)| (k.as_str(), Cow::Borrowed(v)))
                .collect(),
        );
        let matched = bind_pattern(pattern, Cow::Borrowed(value), &mut frame, dbs, sk);
        let bound = frame
            .0
            .iter()
            .map(|(k, v)| (k.to_string(), v.as_ref().clone()));
        matched.then(|| bound.collect())
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

    #[test]
    fn bindings_frame_is_shared_not_deep_cloned() {
        let big = Value::set((0..100).map(Value::int));
        let mut bindings = Bindings::new();
        bindings.insert("S", big);
        let shared = bindings.map.get("S").unwrap().clone();
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
        assert!(bindings.map.is_empty());
        assert!(bindings.insert("X", Value::int(1)).is_none());
        assert!(bindings.contains_key("X"));
        assert_eq!(bindings.map.len(), 1);
        assert_eq!(bindings.get("X"), Some(&Value::int(1)));
        let previous = bindings.insert("X", Value::int(2)).unwrap();
        assert_eq!(*previous, Value::int(1));
        let collected: Vec<(String, Value)> = bindings
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(collected, vec![("X".to_string(), Value::int(2))]);
        assert_eq!(bindings.keys().collect::<Vec<_>>(), vec!["X"]);
    }
}
