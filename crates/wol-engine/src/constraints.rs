//! Constraint checking and constraint analysis.
//!
//! WOL expresses constraints in the same clausal formalism as transformations
//! (Section 3.1). This module provides:
//!
//! * [`check_constraint`] / [`check_constraints`]: decide whether instances
//!   satisfy a constraint clause — "for any instantiation of the variables in
//!   the body which makes all the body atoms true, there is an instantiation
//!   of any additional variables in the head which makes all the head atoms
//!   true";
//! * [`classify_constraint`]: recognise the constraint patterns the engine can
//!   exploit (Skolem-style key constraints like (C2)/(C3), merge-style key
//!   constraints like (C5)/(C8), existence constraints like (C4), and general
//!   constraints);
//! * [`extract_object_keys`] and [`extract_merge_keys`]: pull key information
//!   out of a program's constraints for use by normalisation (Section 4.1) and
//!   by the source-constraint optimiser (Section 4.2);
//! * [`incremental`]: delta-restricted constraint checking for mutation
//!   batches, on the calling thread, with auditable
//!   [`ConstraintCertificate`](incremental::ConstraintCertificate)s.
//!
//! # Two ways to check a clause in full
//!
//! An instance satisfies a key iff distinct objects of the class carry
//! distinct key values (Section 2.2), which the attribute index on the key's
//! attributes answers by itself. So a full check of a key over plain
//! attributes of one class, with nothing else in its body — a merge key
//! `X = Y <= X in C, Y in C, X.a = Y.a, …` or a Skolem key
//! `X = Mk_C(N, …) <= X in C, N = X.a, …` — walks the buckets of the
//! `(C, a…)` index once and reads the objects sharing a key off it
//! (`check_key_by_index`), where the matcher would join the extent with
//! itself. It reports what the matcher's pass would: the same violations in
//! binding order with the same `detail` and `oids`, and as `checked` the
//! matcher's count of body bindings — Σ group size² for a merge key (each
//! keyed object binds with every object sharing its key, itself included),
//! one per keyed object for a Skolem key. An object lacking a key attribute
//! binds nothing, and lies in no bucket.
//!
//! Everything else is one streaming pass of the matcher: existence and
//! general constraints, a key through a reference (`X.user.email`), a
//! conditional key (a further body atom), a merge key whose sides meet in a
//! shared variable, a class whose objects several instances hold, and every
//! check seeded with a changed object.

pub(crate) mod incremental;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use wol_lang::ast::{Atom, Clause, SkolemArgs, Term, Var};
use wol_model::{ClassName, Label, Oid, Path, SkolemFactory, Value};

use crate::env::{
    build_plan, run_plan, skolem_key, try_eval, Bindings, Databases, MatchStats, Search,
};
use crate::error::EngineError;
use crate::Result;

/// The key of a target class as used by Skolem terms: an ordered list of
/// labelled attribute paths whose values (or referenced objects) determine the
/// object's identity.
///
/// For the paper's Example 2.3 / clauses (C2)–(C3):
/// `CountryT` has key `[("key", name)]` and `CityT` has key
/// `[("name", name), ("country", country)]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectKey {
    /// The class the key belongs to.
    pub class: ClassName,
    /// Labelled key parts; each path is projected from the object.
    pub parts: Vec<(Label, Path)>,
}

/// How a constraint clause is classified for use by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintClass {
    /// `X = Mk_C(...) <= X in C, ...` — a Skolem-style key constraint giving
    /// the surrogate key of class `C` (clauses (C2), (C3)).
    SkolemKey(ObjectKey),
    /// `X = Y <= X in C, Y in C, X.p = Y.p, ...` — a merge-style key (functional
    /// dependency onto identity) on class `C` (clauses (C5), (C8), (C11)-like).
    MergeKey {
        /// The class constrained.
        class: ClassName,
        /// The paths that jointly determine the object.
        paths: Vec<Path>,
    },
    /// Head asserts existence of an object of some class for every body match
    /// (clause (C4), inclusion-dependency-like constraints (C6), (C7)).
    Existence {
        /// The class whose extent must contain a witness.
        class: ClassName,
    },
    /// Anything else.
    General,
}

/// Decide whether an equality atom equates `var.path` with some term,
/// returning the path and the other term.
fn as_projection_of(atom: &Atom, var: Var) -> Option<(Path, &Term)> {
    let (s, t) = match atom {
        Atom::Eq(s, t) => (s, t),
        _ => return None,
    };
    for (proj, other) in [(s, t), (t, s)] {
        if let Some((base, labels)) = proj.as_var_path() {
            if *base == var && !labels.is_empty() {
                let path = Path::new(labels.iter().map(|l| l.to_string()));
                return Some((path, other));
            }
        }
    }
    None
}

/// Classify a constraint clause.
pub fn classify_constraint(clause: &Clause) -> ConstraintClass {
    // Skolem-style key: head is a single `X = Mk_C(args)` with X a variable.
    if clause.head.len() == 1 {
        if let Atom::Eq(lhs, rhs) = &clause.head[0] {
            let (var, skolem) = match (lhs, rhs) {
                (Term::Var(v), Term::Skolem(c, a)) => (Some((v, c, a)), None),
                (Term::Skolem(c, a), Term::Var(v)) => (None, Some((v, c, a))),
                _ => (None, None),
            };
            if let Some((v, class, args)) = var.or(skolem) {
                // The body must assert `v in class` and define each Skolem
                // argument variable as a projection of `v`.
                let member_ok = clause
                    .body
                    .iter()
                    .any(|a| matches!(a, Atom::Member(Term::Var(m), c) if m == v && c == class));
                if member_ok {
                    if let Some(parts) = skolem_key_parts(*v, class, args, &clause.body) {
                        return ConstraintClass::SkolemKey(ObjectKey {
                            class: class.clone(),
                            parts,
                        });
                    }
                }
            }
        }
        // Merge-style key: head `X = Y`, body `X in C, Y in C` plus path equations.
        if let Atom::Eq(Term::Var(x), Term::Var(y)) = &clause.head[0] {
            if let Some((class, paths)) = merge_key_parts(*x, *y, &clause.body) {
                return ConstraintClass::MergeKey { class, paths };
            }
        }
    }
    // Existence constraint: some head atom is a membership over a variable
    // that does not occur in the body.
    let body_vars = clause.body_variables();
    for atom in &clause.head {
        if let Atom::Member(Term::Var(v), class) = atom {
            if !body_vars.contains(v) {
                return ConstraintClass::Existence {
                    class: class.clone(),
                };
            }
        }
    }
    ConstraintClass::General
}

fn skolem_key_parts(
    object_var: Var,
    _class: &ClassName,
    args: &SkolemArgs,
    body: &[Atom],
) -> Option<Vec<(Label, Path)>> {
    // Map each argument term to an attribute path of the object variable.
    let resolve = |term: &Term| -> Option<Path> {
        match term {
            // Direct projection of the object: Mk_C(... = X.name ...)
            Term::Proj(_, _) => {
                let (base, labels) = term.as_var_path()?;
                if *base == object_var {
                    Some(Path::new(labels.iter().map(|l| l.to_string())))
                } else {
                    None
                }
            }
            // A variable defined by a body equation `V = X.path` / `X.path = V`.
            Term::Var(v) => body.iter().find_map(|a| {
                let (path, other) = as_projection_of(a, object_var)?;
                match other {
                    Term::Var(o) if o == v => Some(path),
                    _ => None,
                }
            }),
            _ => None,
        }
    };
    match args {
        SkolemArgs::Positional(ts) => {
            let mut parts = Vec::new();
            for (i, t) in ts.iter().enumerate() {
                let path = resolve(t)?;
                let label = path
                    .segments()
                    .last()
                    .cloned()
                    .unwrap_or_else(|| Label::new(format!("arg{i}")));
                parts.push((label, path));
            }
            Some(parts)
        }
        SkolemArgs::Named(fields) => {
            let mut parts = Vec::new();
            for (label, t) in fields {
                let path = resolve(t)?;
                parts.push((label.clone(), path));
            }
            Some(parts)
        }
    }
}

fn merge_key_parts(x: Var, y: Var, body: &[Atom]) -> Option<(ClassName, Vec<Path>)> {
    // Both X and Y must be members of the same class.
    let class_of = |v: Var| {
        body.iter().find_map(|a| match a {
            Atom::Member(Term::Var(m), c) if *m == v => Some(c.clone()),
            _ => None,
        })
    };
    let cx = class_of(x)?;
    let cy = class_of(y)?;
    if cx != cy {
        return None;
    }
    // Collect path equations linking X and Y: either `X.p = Y.p` directly, or
    // `X.p = V` and `Y.p = V` through a shared variable. Every body atom must
    // participate in the key (the two memberships plus the linking equations);
    // otherwise the clause is a *conditional* dependency — sound to check but
    // not sound to use as an unconditional key — and is classified as general.
    let mut paths: Vec<Path> = Vec::new();
    let mut used = vec![false; body.len()];
    let mut x_bindings: BTreeMap<String, Vec<(usize, Path, Var)>> = BTreeMap::new();
    for (i, atom) in body.iter().enumerate() {
        match atom {
            Atom::Member(Term::Var(m), _) if *m == x || *m == y => used[i] = true,
            _ => {}
        }
        if let Some((path, other)) = as_projection_of(atom, x) {
            if let Some((base, labels)) = other.as_var_path() {
                if *base == y {
                    let other_path = Path::new(labels.iter().map(|l| l.to_string()));
                    if other_path == path {
                        paths.push(path);
                        used[i] = true;
                        continue;
                    }
                } else if labels.is_empty() {
                    x_bindings
                        .entry(path.to_string())
                        .or_default()
                        .push((i, path, *base));
                }
            }
        }
    }
    for (j, atom) in body.iter().enumerate() {
        if let Some((path, other)) = as_projection_of(atom, y) {
            if let (Some(entries), Some((base, labels))) =
                (x_bindings.get(&path.to_string()), other.as_var_path())
            {
                if labels.is_empty() {
                    for (i, x_path, x_var) in entries {
                        if x_var == base {
                            if !paths.contains(x_path) {
                                paths.push(x_path.clone());
                            }
                            used[*i] = true;
                            used[j] = true;
                        }
                    }
                }
            }
        }
    }
    if paths.is_empty() || used.iter().any(|u| !u) {
        None
    } else {
        Some((cx, paths))
    }
}

/// Extract Skolem-style object keys (for the *target* side of a program) from
/// a set of constraint clauses. Used to drive normalisation (Section 4.1: key
/// constraints "must be combined ... to completely specify an object").
pub(crate) fn extract_object_keys(clauses: &[&Clause]) -> BTreeMap<ClassName, ObjectKey> {
    let mut out = BTreeMap::new();
    for clause in clauses {
        if let ConstraintClass::SkolemKey(key) = classify_constraint(clause) {
            out.entry(key.class.clone()).or_insert(key);
        }
    }
    out
}

/// Extract merge-style keys (for the *source* side) from a set of constraint
/// clauses. Used by the optimiser (Section 4.2, Example 4.1).
pub(crate) fn extract_merge_keys(clauses: &[&Clause]) -> BTreeMap<ClassName, Vec<Path>> {
    let mut out = BTreeMap::new();
    for clause in clauses {
        if let ConstraintClass::MergeKey { class, paths } = classify_constraint(clause) {
            out.entry(class).or_insert(paths);
        }
    }
    out
}

/// A single constraint violation, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Label of the violated clause (or `<unlabelled>`).
    pub clause: String,
    /// Description of the binding that has no head witness.
    pub detail: String,
    /// Object identities participating in the violating binding, in binding
    /// order, deduplicated. Empty when the violation involves no objects.
    pub oids: Vec<Oid>,
}

/// Object identities occurring directly in the given values, deduplicated,
/// preserving first-occurrence order.
fn oid_witnesses<'a>(values: impl IntoIterator<Item = &'a Value>) -> Vec<Oid> {
    let mut out: Vec<Oid> = Vec::new();
    for value in values {
        if let Value::Oid(oid) = value {
            if !out.contains(oid) {
                out.push(oid.clone());
            }
        }
    }
    out
}

/// The label violations and certificates name a clause by.
pub(crate) fn clause_name(clause: &Clause) -> String {
    clause
        .label
        .clone()
        .unwrap_or_else(|| "<unlabelled>".to_string())
}

/// Check a single constraint clause against the given databases.
pub fn check_constraint(clause: &Clause, dbs: &Databases<'_>) -> Result<Vec<Violation>> {
    Ok(check_constraint_counted(clause, dbs, Bindings::new())?.violations)
}

/// A head equality with a Skolem side, `object = Mk_class(args)`: read as a
/// functional and injective key requirement rather than as an atom needing a
/// witness.
struct KeyAtom<'c> {
    object: &'c Term,
    class: &'c ClassName,
    args: &'c SkolemArgs,
}

/// Split a clause head into its Skolem key atoms and the atoms that need a
/// witness.
fn split_head(head: &[Atom]) -> (Vec<KeyAtom<'_>>, Vec<Atom>) {
    let mut key_atoms = Vec::new();
    let mut witness_atoms = Vec::new();
    for atom in head {
        match atom {
            Atom::Eq(Term::Skolem(class, args), object)
            | Atom::Eq(object, Term::Skolem(class, args)) => key_atoms.push(KeyAtom {
                object,
                class,
                args,
            }),
            _ => witness_atoms.push(atom.clone()),
        }
    }
    (key_atoms, witness_atoms)
}

/// What one constraint check found.
pub(crate) struct Checked {
    /// The violations, in binding order.
    pub(crate) violations: Vec<Violation>,
    /// Body bindings examined: the work metric constraint certificates
    /// record.
    pub(crate) bindings: u64,
    /// Whether the attribute index answered the check rather than the
    /// matcher (see [`check_key_by_index`]).
    pub(crate) by_index: bool,
}

/// [`check_constraint`] restricted to the body bindings that extend
/// `initial` — empty for the full check, `{var ↦ oid}` to examine one
/// delta-touched object — also counting the body bindings examined.
///
/// A full check of a key over plain attributes is answered from the
/// class's attribute index ([`check_key_by_index`]); every other check is
/// one pass of the matcher ([`check_by_matching`]). The two agree on the
/// violations, their order, `detail` and `oids`, and the count.
pub(crate) fn check_constraint_counted(
    clause: &Clause,
    dbs: &Databases<'_>,
    initial: Bindings,
) -> Result<Checked> {
    if initial.is_empty() {
        if let Some(checked) = check_key_by_index(clause, dbs) {
            return Ok(checked);
        }
    }
    let (violations, bindings) = check_by_matching(clause, dbs, initial)?;
    Ok(Checked {
        violations,
        bindings,
        by_index: false,
    })
}

/// The violation of a binding no head witness extends.
fn no_witness(clause_name: &str, mut binding: Vec<(Var, &Value)>) -> Violation {
    binding.sort_unstable_by_key(|(var, _)| *var);
    Violation {
        clause: clause_name.to_string(),
        detail: format!("no head witness for binding {}", describe_binding(&binding)),
        oids: oid_witnesses(binding.iter().map(|(_, v)| *v)),
    }
}

/// The violation of a key value naming `object` after it named `previous`.
fn two_objects(
    clause_name: &str,
    class: &ClassName,
    key_value: &Value,
    previous: &Value,
    object: &Value,
) -> Violation {
    Violation {
        clause: clause_name.to_string(),
        detail: format!(
            "key {key_value:?} of class `{class}` is associated with two distinct objects"
        ),
        oids: oid_witnesses([previous, object]),
    }
}

/// The matcher's check: one streaming pass in which body and witness atoms
/// are each planned once, and a body binding is checked on the matcher's
/// frame where its plan completes it. Witnesses are counted to the end, so
/// an error matching them makes a violation; a Skolem key error fails the
/// check after the body's last binding, so a body error takes precedence.
fn check_by_matching(
    clause: &Clause,
    dbs: &Databases<'_>,
    initial: Bindings,
) -> Result<(Vec<Violation>, u64)> {
    let mut skolem = SkolemFactory::new();
    let mut stats = MatchStats::default();
    let clause_name = clause_name(clause);
    let mut violations = Vec::new();
    let (key_atoms, witness_atoms) = split_head(&clause.head);
    let (body_plan, bound) = build_plan(&clause.body, initial.keys().cloned().collect(), dbs);
    let (witness_plan, _) = build_plan(&witness_atoms, bound, dbs);

    // Functionality/injectivity state for Skolem key atoms across all
    // bindings, per class.
    let mut keys: Vec<(&ClassName, KeyMaps)> = Vec::new();
    let mut key_error = None;
    let mut checked: u64 = 0;
    let mut search = Search::new(&mut skolem, &mut stats, &initial);
    run_plan(&body_plan, dbs, &mut search, &mut |search| {
        if key_error.is_some() {
            return Ok(());
        }
        checked += 1;
        // 1. Skolem key atoms.
        for key in &key_atoms {
            let class = key.class;
            let key_value = match skolem_key(key.args, &search.frame, dbs, search.skolem) {
                Ok(value) => value,
                Err(e) => {
                    let e = format!("cannot evaluate Skolem key in {clause_name}: {e}");
                    key_error = Some(EngineError::Eval(e));
                    return Ok(());
                }
            };
            let Some(object_value) = try_eval(key.object, &search.frame, dbs, search.skolem) else {
                // The object is existential: the Skolem function always
                // provides a witness, so nothing to check.
                continue;
            };
            let object_value = object_value.into_owned();
            let at = keys.iter().position(|(c, _)| *c == class);
            let at = at.unwrap_or_else(|| {
                keys.push((class, KeyMaps::default()));
                keys.len() - 1
            });
            let maps = &mut keys[at].1;
            let known = match maps.key_to_obj.get(&key_value) {
                Some((previous, _)) if previous != &object_value => {
                    let violation =
                        two_objects(&clause_name, class, &key_value, previous, &object_value);
                    violations.push(violation);
                    continue;
                }
                known => known.map(|(_, number)| *number),
            };
            let number = known.unwrap_or(maps.key_to_obj.len());
            match maps.obj_to_key.get(&object_value).copied() {
                Some(previous) if previous != number => {
                    let previous = maps.key(previous);
                    violations.push(Violation {
                        clause: clause_name.clone(),
                        detail: format!(
                            "an object of class `{class}` has two distinct key values ({previous:?} and {key_value:?})"
                        ),
                        oids: oid_witnesses([&object_value]),
                    });
                }
                Some(_) => {}
                None => {
                    maps.obj_to_key.insert(object_value.clone(), number);
                }
            }
            if known.is_none() {
                maps.key_to_obj.insert(key_value, (object_value, number));
            }
        }
        // 2. Witness atoms: there must exist an extension of the binding
        //    satisfying all of them.
        let mut witnesses: u64 = 0;
        let matched = run_plan(&witness_plan, dbs, search, &mut |_| {
            witnesses += 1;
            Ok(())
        });
        if matched.is_err() || witnesses == 0 {
            let binding = search.frame.0.iter().map(|(k, v)| (*k, &**v)).collect();
            violations.push(no_witness(&clause_name, binding));
        }
        Ok(())
    })?;
    key_error.map_or(Ok((violations, checked)), Err)
}

/// A key constraint over plain attributes of one class whose body holds
/// nothing else: the shapes [`check_key_by_index`] answers. Each is a
/// [`ConstraintClass::MergeKey`] or [`ConstraintClass::SkolemKey`] whose
/// parts are single attributes; a part through a reference, a further body
/// atom (which would make the key conditional) or a part bound through a
/// variable the merge key shares between its sides stays with the matcher.
enum IndexedKey<'c> {
    /// `X = Y <= X in C, Y in C, X.a = Y.a, …`. The matcher scans `outer`,
    /// the variable of the first member atom, and probes `inner`.
    Merge {
        class: &'c ClassName,
        attrs: Vec<Label>,
        outer: Var,
        inner: Var,
    },
    /// `X = Mk_C(args) <= X in C, N = X.a, …`: every argument a variable
    /// that one body equation reads off an attribute (`vars[i]` off
    /// `attrs[i]`).
    Skolem {
        class: &'c ClassName,
        attrs: Vec<Label>,
        vars: Vec<Var>,
        args: &'c SkolemArgs,
    },
}

/// The variable and attribute of a one-step projection `V.a`.
fn attr_of(term: &Term) -> Option<(Var, &Label)> {
    match term {
        Term::Proj(base, label) => match base.as_ref() {
            Term::Var(var) => Some((*var, label)),
            _ => None,
        },
        _ => None,
    }
}

fn indexed_key(clause: &Clause) -> Option<IndexedKey<'_>> {
    let [Atom::Eq(left, right)] = clause.head.as_slice() else {
        return None;
    };
    match (left, right) {
        (Term::Var(x), Term::Var(y)) if x != y => indexed_merge_key(*x, *y, &clause.body),
        (Term::Var(object), Term::Skolem(class, args))
        | (Term::Skolem(class, args), Term::Var(object)) => {
            indexed_skolem_key(*object, class, args, &clause.body)
        }
        _ => None,
    }
}

fn indexed_merge_key(x: Var, y: Var, body: &[Atom]) -> Option<IndexedKey<'_>> {
    let mut members = Vec::new();
    let mut attrs = Vec::new();
    for atom in body {
        match atom {
            Atom::Member(Term::Var(var), class) => members.push((*var, class)),
            Atom::Eq(s, t) => {
                let ((u, a), (w, b)) = (attr_of(s)?, attr_of(t)?);
                if a != b || !(u == x && w == y || u == y && w == x) {
                    return None;
                }
                attrs.push(a.clone());
            }
            _ => return None,
        }
    }
    let [(outer, class), (inner, other)] = members[..] else {
        return None;
    };
    let sides = outer == x && inner == y || outer == y && inner == x;
    (sides && class == other && !attrs.is_empty()).then_some(IndexedKey::Merge {
        class,
        attrs,
        outer,
        inner,
    })
}

fn indexed_skolem_key<'c>(
    object: Var,
    class: &'c ClassName,
    args: &'c SkolemArgs,
    body: &'c [Atom],
) -> Option<IndexedKey<'c>> {
    let var_of = |term: &Term| match term {
        Term::Var(var) if *var != object => Some(*var),
        _ => None,
    };
    let arg_vars: Vec<Var> = match args {
        SkolemArgs::Positional(terms) => terms.iter().map(var_of).collect::<Option<_>>()?,
        // A repeated label would keep one of its values in the key record.
        SkolemArgs::Named(fields) => {
            let labels: BTreeSet<&Label> = fields.iter().map(|(label, _)| label).collect();
            if labels.len() < fields.len() {
                return None;
            }
            fields
                .iter()
                .map(|(_, t)| var_of(t))
                .collect::<Option<_>>()?
        }
    };
    let (mut member, mut vars, mut attrs) = (false, Vec::new(), Vec::new());
    for atom in body {
        match atom {
            Atom::Member(Term::Var(var), c) if *var == object && c == class && !member => {
                member = true;
            }
            Atom::Eq(Term::Var(var), proj) | Atom::Eq(proj, Term::Var(var)) => {
                let (base, attr) = attr_of(proj)?;
                if base != object || *var == object || vars.contains(var) {
                    return None;
                }
                vars.push(*var);
                attrs.push(attr.clone());
            }
            _ => return None,
        }
    }
    let defined = |var: &Var| vars.contains(var);
    let exact = arg_vars.iter().all(defined) && vars.iter().all(|v| arg_vars.contains(v));
    (member && exact && !vars.is_empty()).then_some(IndexedKey::Skolem {
        class,
        attrs,
        vars,
        args,
    })
}

/// The full check of a key over plain attributes (see [`IndexedKey`]),
/// answered by one walk over the buckets of the class's attribute index on
/// the key's attributes — the index key probes already maintain — instead
/// of the matcher's pass over the extent. `None` for any other clause, and
/// where several instances hold objects of the class.
///
/// It reproduces the matcher's pass exactly. The matcher binds only objects
/// carrying every key attribute, and compares them structurally, as the
/// index groups them.
///
/// * A merge key binds each keyed object once per object sharing its key,
///   itself included (`checked` = Σ group size²), and every pair of two
///   distinct objects lacks its witness: `outer` in extent order, `inner` in
///   probe (ascending identity) order.
/// * A Skolem key binds each keyed object once (`checked` = the keyed
///   objects); the first object of a group claims the key and every later
///   one, in extent order, is a second object for it.
fn check_key_by_index(clause: &Clause, dbs: &Databases<'_>) -> Option<Checked> {
    let key = indexed_key(clause)?;
    let (class, attrs) = match &key {
        IndexedKey::Merge { class, attrs, .. } | IndexedKey::Skolem { class, attrs, .. } => {
            (*class, attrs)
        }
    };
    let groups = dbs.key_groups(class, attrs)?;
    let name = clause_name(clause);
    let mut violations = Vec::new();
    let bindings = match key {
        IndexedKey::Merge { outer, inner, .. } => {
            let mut members: Vec<(&Oid, &[Oid])> = groups
                .shared
                .iter()
                .flat_map(|group| group.iter().map(move |oid| (oid, &group[..])))
                .collect();
            members.sort_unstable_by_key(|(oid, _)| *oid);
            for (x, group) in members {
                let x = Value::Oid(x.clone());
                for y in group.iter().map(|y| Value::Oid(y.clone())) {
                    if x != y {
                        violations.push(no_witness(&name, vec![(outer, &x), (inner, &y)]));
                    }
                }
            }
            let shared = groups.shared.iter().map(Vec::len);
            let extra: usize = shared.map(|n| n * n - n).sum();
            (groups.keyed + extra) as u64
        }
        IndexedKey::Skolem {
            attrs, vars, args, ..
        } => {
            let mut later: Vec<(&Oid, &Oid)> = groups
                .shared
                .iter()
                .flat_map(|group| group[1..].iter().map(move |oid| (&group[0], oid)))
                .collect();
            later.sort_unstable_by_key(|(_, oid)| *oid);
            let mut skolem = SkolemFactory::new();
            for (first, oid) in later {
                let record = dbs.value_of(oid)?;
                let parts = attrs.iter().map(|attr| record.project(attr).cloned());
                let frame: Bindings = vars
                    .iter()
                    .copied()
                    .zip(parts.collect::<Option<Vec<_>>>()?)
                    .collect();
                let key_value = skolem_key(args, &frame, dbs, &mut skolem).ok()?;
                let (first, oid) = (Value::Oid(first.clone()), Value::Oid(oid.clone()));
                violations.push(two_objects(&name, class, &key_value, &first, &oid));
            }
            groups.keyed as u64
        }
    };
    Some(Checked {
        violations,
        bindings,
        by_index: true,
    })
}

/// One class's Skolem key state across a check's bindings: the object each
/// key value names, and the key value each object was first named by. Each
/// key value is stored once, numbered in first-seen order, and an object
/// holds its key's number.
#[derive(Default)]
struct KeyMaps {
    key_to_obj: HashMap<Value, (Value, usize)>,
    obj_to_key: HashMap<Value, usize>,
}

impl KeyMaps {
    /// The key value numbered `number` — every number names one — found by
    /// a scan, which only a violation makes.
    fn key(&self, number: usize) -> &Value {
        let mut keys = self.key_to_obj.iter();
        let found = keys.find(|(_, (_, n))| *n == number);
        found.map_or(&Value::Absent, |(key, _)| key)
    }
}

/// Check several constraints; returns all violations found.
pub fn check_constraints(clauses: &[&Clause], dbs: &Databases<'_>) -> Result<Vec<Violation>> {
    let mut out = Vec::new();
    for clause in clauses {
        out.extend(check_constraint(clause, dbs)?);
    }
    Ok(out)
}

/// Check constraints and fail if any are violated. The error carries the
/// *full* violation list in the deterministic order of
/// [`check_constraints`] (clause order, then binding order), so callers and
/// reports can show every violation instead of just the first.
pub fn enforce_constraints(clauses: &[&Clause], dbs: &Databases<'_>) -> Result<()> {
    let violations = check_constraints(clauses, dbs)?;
    if violations.is_empty() {
        Ok(())
    } else {
        Err(EngineError::ConstraintsViolated { violations })
    }
}

fn describe_binding(binding: &[(Var, &Value)]) -> String {
    let parts: Vec<String> = binding
        .iter()
        .map(|(k, v)| format!("{k} = {}", wol_model::display::render_value(v)))
        .collect();
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::parse_clause;
    use wol_model::{Instance, Oid};

    /// Build the European Cities and Countries instance from Example 2.2,
    /// optionally leaving France without a capital or giving the UK two.
    fn euro_instance(france_capital: bool, uk_double_capital: bool) -> Instance {
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
        let mut add_city = |name: &str, capital: bool, country: &Oid| {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(name)),
                    ("is_capital", Value::bool(capital)),
                    ("country", Value::oid(country.clone())),
                ]),
            );
        };
        add_city("London", true, &uk);
        add_city("Manchester", uk_double_capital, &uk);
        add_city("Paris", france_capital, &fr);
        inst
    }

    /// Clause (C4): every country has a capital city.
    fn clause_c4() -> Clause {
        parse_clause("C4: Y in CityE, Y.country = X, Y.is_capital = true <= X in CountryE").unwrap()
    }

    /// Clause (C5): at most one capital city per country.
    fn clause_c5() -> Clause {
        parse_clause(
            "C5: X = Y <= X in CityE, Y in CityE, X.country = Y.country, \
             X.is_capital = true, Y.is_capital = true",
        )
        .unwrap()
    }

    /// Clause (C8): name is a key for CountryE.
    fn clause_c8() -> Clause {
        parse_clause("C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name").unwrap()
    }

    /// Clause (C3): key constraint on CountryT via a Skolem function.
    fn clause_c3() -> Clause {
        parse_clause("C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name").unwrap()
    }

    /// Clause (C2): composite key on CityT.
    fn clause_c2() -> Clause {
        parse_clause(
            "C2: X = Mk_CityT(name = N, country = C) <= X in CityT, N = X.name, C = X.country",
        )
        .unwrap()
    }

    #[test]
    fn c4_holds_when_every_country_has_a_capital() {
        let inst = euro_instance(true, false);
        let dbs = Databases::new(&[&inst][..]);
        assert!(check_constraint(&clause_c4(), &dbs).unwrap().is_empty());
    }

    #[test]
    fn c4_violated_when_a_country_lacks_a_capital() {
        let inst = euro_instance(false, false);
        let dbs = Databases::new(&[&inst][..]);
        let violations = check_constraint(&clause_c4(), &dbs).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].clause, "C4");
        assert!(enforce_constraints(&[&clause_c4()], &dbs).is_err());
    }

    #[test]
    fn c5_violated_by_two_capitals() {
        let good = euro_instance(true, false);
        let bad = euro_instance(true, true);
        let dbs_good = Databases::new(&[&good][..]);
        let dbs_bad = Databases::new(&[&bad][..]);
        assert!(check_constraint(&clause_c5(), &dbs_good)
            .unwrap()
            .is_empty());
        let violations = check_constraint(&clause_c5(), &dbs_bad).unwrap();
        assert!(!violations.is_empty());
    }

    #[test]
    fn c8_detects_duplicate_country_names() {
        let mut inst = euro_instance(true, false);
        let dbs_holder = inst.clone();
        let dbs = Databases::new(&[&dbs_holder][..]);
        assert!(check_constraint(&clause_c8(), &dbs).unwrap().is_empty());
        inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
                ("currency", Value::str("euro")),
            ]),
        );
        let dbs = Databases::new(&[&inst][..]);
        assert!(!check_constraint(&clause_c8(), &dbs).unwrap().is_empty());
    }

    #[test]
    fn skolem_key_constraint_checks_injectivity() {
        // Two CountryT objects with the same name violate the C3 key.
        let mut inst = Instance::new("target");
        inst.insert_fresh(
            &ClassName::new("CountryT"),
            Value::record([("name", Value::str("France"))]),
        );
        let ok_dbs_holder = inst.clone();
        let ok = Databases::new(&[&ok_dbs_holder][..]);
        assert!(check_constraint(&clause_c3(), &ok).unwrap().is_empty());
        inst.insert_fresh(
            &ClassName::new("CountryT"),
            Value::record([("name", Value::str("France"))]),
        );
        let dbs = Databases::new(&[&inst][..]);
        let violations = check_constraint(&clause_c3(), &dbs).unwrap();
        assert!(!violations.is_empty());
        assert!(violations[0].detail.contains("two distinct objects"));
    }

    #[test]
    fn classify_skolem_keys() {
        match classify_constraint(&clause_c3()) {
            ConstraintClass::SkolemKey(key) => {
                assert_eq!(key.class, ClassName::new("CountryT"));
                assert_eq!(key.parts.len(), 1);
                assert_eq!(key.parts[0].1, Path::parse("name"));
            }
            other => panic!("expected SkolemKey, got {other:?}"),
        }
        match classify_constraint(&clause_c2()) {
            ConstraintClass::SkolemKey(key) => {
                assert_eq!(key.class, ClassName::new("CityT"));
                assert_eq!(key.parts.len(), 2);
                assert_eq!(key.parts[0], ("name".into(), Path::parse("name")));
                assert_eq!(key.parts[1], ("country".into(), Path::parse("country")));
            }
            other => panic!("expected SkolemKey, got {other:?}"),
        }
    }

    #[test]
    fn classify_merge_keys_and_existence() {
        match classify_constraint(&clause_c8()) {
            ConstraintClass::MergeKey { class, paths } => {
                assert_eq!(class, ClassName::new("CountryE"));
                assert_eq!(paths, vec![Path::parse("name")]);
            }
            other => panic!("expected MergeKey, got {other:?}"),
        }
        // C5 is a *conditional* dependency (only among capital cities), so it
        // is checked as a constraint but not used as an unconditional key.
        assert_eq!(classify_constraint(&clause_c5()), ConstraintClass::General);
        match classify_constraint(&clause_c4()) {
            ConstraintClass::Existence { class } => assert_eq!(class, ClassName::new("CityE")),
            other => panic!("expected Existence, got {other:?}"),
        }
        let general = parse_clause("X.name = Y.name <= X in CityE, Y in CityE").unwrap();
        assert_eq!(classify_constraint(&general), ConstraintClass::General);
    }

    #[test]
    fn extract_key_maps() {
        let c2 = clause_c2();
        let c3 = clause_c3();
        let c8 = clause_c8();
        let keys = extract_object_keys(&[&c2, &c3, &c8]);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains_key(&ClassName::new("CityT")));
        assert!(keys.contains_key(&ClassName::new("CountryT")));
        let merge = extract_merge_keys(&[&c2, &c3, &c8]);
        assert_eq!(merge.len(), 1);
        assert_eq!(
            merge[&ClassName::new("CountryE")],
            vec![Path::parse("name")]
        );
    }

    #[test]
    fn constraint_c1_on_us_schema() {
        // (C1): X.state = Y <= Y in StateA, X = Y.capital — the capital of a
        // state must belong to that state.
        let mut inst = Instance::new("us");
        let pa = inst.insert_fresh(
            &ClassName::new("StateA"),
            Value::record([("name", Value::str("Pennsylvania"))]),
        );
        let phl = inst.insert_fresh(
            &ClassName::new("CityA"),
            Value::record([
                ("name", Value::str("Philadelphia")),
                ("state", Value::oid(pa.clone())),
            ]),
        );
        let mut with_capital = inst.value(&pa).unwrap().clone();
        if let Value::Record(ref mut fields) = with_capital {
            fields.insert("capital".into(), Value::oid(phl.clone()));
        }
        inst.update(&pa, with_capital).unwrap();
        let c1 = parse_clause("C1: X.state = Y <= Y in StateA, X = Y.capital").unwrap();
        let dbs_holder = inst.clone();
        let dbs = Databases::new(&[&dbs_holder][..]);
        assert!(check_constraint(&c1, &dbs).unwrap().is_empty());

        // Break it: make the capital a city of a different state.
        let ny = inst.insert_fresh(
            &ClassName::new("StateA"),
            Value::record([("name", Value::str("New York"))]),
        );
        let mut broken = inst.value(&phl).unwrap().clone();
        if let Value::Record(ref mut fields) = broken {
            fields.insert("state".into(), Value::oid(ny));
        }
        inst.update(&phl, broken).unwrap();
        let dbs = Databases::new(&[&inst][..]);
        assert!(!check_constraint(&c1, &dbs).unwrap().is_empty());
    }

    /// The index answers keys over plain attributes of one class with
    /// nothing else in the body, each a key `classify_constraint` reads;
    /// their neighbours stay with the matcher.
    #[test]
    fn the_index_answers_keys_over_plain_attributes_only() {
        let cases = [
            ("X = Y <= X in C, Y in C, X.a = Y.a", true),
            ("Y = X <= Y in C, X in C, X.a = Y.a, Y.b = X.b", true),
            ("X = Mk_C(N) <= X in C, N = X.a", true),
            ("Mk_C(a = N, b = M) = X <= X in C, M = X.b, X.a = N", true),
            ("X = Mk_C(N, M, N) <= X in C, X.a = N, M = X.a", true),
            // A key through a reference.
            ("X = Y <= X in C, Y in C, X.a.b = Y.a.b", false),
            ("X = Mk_C(N) <= X in C, N = X.a.b", false),
            // Sides meeting in a shared variable.
            ("X = Y <= X in C, Y in C, X.a = E, Y.a = E", false),
            // Conditional keys: a further atom, a second member atom.
            ("X = Y <= X in C, Y in C, X.a = Y.a, X.b = 1", false),
            ("X = Y <= X in C, Y in C, X in D, X.a = Y.a", false),
            ("X = Mk_C(N) <= X in C, N = X.a, M = X.b", false),
            ("X = Mk_C(N) <= X in C, N = X.a, N = X.b", false),
            // Not one class, or not a key.
            ("X = Y <= X in C, Y in D, X.a = Y.a", false),
            ("X = Y <= X in C, Y in C, X.a = Y.b", false),
            ("X = Mk_D(N) <= X in C, N = X.a", false),
            // An argument that is no variable: a missing attribute is an
            // error there, not a missing binding.
            ("X = Mk_C(X.a) <= X in C", false),
            ("X = Mk_C() <= X in C", false),
            // A repeated label keeps one of its values in the key.
            ("X = Mk_C(a = N, a = M) <= X in C, N = X.a, M = X.b", false),
        ];
        for (text, answered) in cases {
            let clause = parse_clause(text).unwrap();
            assert_eq!(indexed_key(&clause).is_some(), answered, "{text}");
            let key = matches!(
                classify_constraint(&clause),
                ConstraintClass::MergeKey { .. } | ConstraintClass::SkolemKey(_)
            );
            assert!(key || !answered, "{text}");
        }
    }

    #[test]
    fn check_constraints_aggregates() {
        let inst = euro_instance(false, true);
        let dbs = Databases::new(&[&inst][..]);
        let c4 = clause_c4();
        let c5 = clause_c5();
        let violations = check_constraints(&[&c4, &c5], &dbs).unwrap();
        assert!(violations.len() >= 2);
    }
}
