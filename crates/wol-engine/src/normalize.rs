//! Normalisation of WOL transformation programs (Section 5).
//!
//! "A transformation clause in normal form completely defines an insert into
//! the target database in terms of the source database only. That is, a normal
//! form clause will contain no target classes in its body, and will completely
//! and unambiguously determine some object of the target database in its head.
//! A transformation program in which all the transformation clauses are in
//! normal form can easily be implemented in a single pass."
//!
//! The normaliser performs the unify/unfold rewriting the paper describes:
//!
//! 1. every transformation clause's head is analysed into partial object
//!    descriptions ([`crate::headform`]);
//! 2. target-class atoms in clause bodies are *unfolded* against the normal
//!    form clauses of the classes they mention (in topological order of the
//!    target-class dependency graph; cyclic programs are rejected, which is
//!    Morphase's syntactic non-recursion restriction);
//! 3. each description's identity is resolved to a Skolem key, using explicit
//!    `Mk_C` equations, the key constraints of the target schema
//!    (Section 4.1), or the identity inherited through unfolding;
//! 4. when key constraints are *omitted*, the normaliser must instead consider
//!    every combination of partial descriptions that might describe the same
//!    object — which makes the size of the normal form program exponential in
//!    the number of partial clauses, exactly the behaviour reported in the
//!    paper's evaluation (Section 6);
//! 5. source constraints are used to simplify the resulting clause bodies and
//!    prune unsatisfiable clauses ([`crate::optimize`], Section 4.2).

use std::collections::{BTreeMap, BTreeSet};

use wol_lang::ast::{Atom, Clause, SkolemArgs, Term, Var};
use wol_lang::program::Program;
use wol_lang::typecheck::check_clause_types;
use wol_model::{ClassName, Conflict, Instance, Label, ModelError, Record, SkolemFactory, Value};

use crate::constraints::{extract_merge_keys, extract_object_keys, ObjectKey};
use crate::env::{eval_skolem_key, eval_term, match_body, Bindings, Databases, MatchStats};
use crate::error::EngineError;
use crate::headform::{analyze_head, HeadObject};
use crate::optimize::{self, SourceKeys};
use crate::Result;

/// A transformation clause in normal form: an insert of one object of a target
/// class, defined purely in terms of the source databases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NormalClause {
    /// The target class of the inserted object.
    pub class: ClassName,
    /// The Skolem key identifying the object, as terms over body variables.
    pub key: SkolemArgs,
    /// Attribute terms over body variables (and Skolem terms for references to
    /// other target objects).
    pub attrs: BTreeMap<Label, Term>,
    /// The body: atoms over source classes only.
    pub body: Vec<Atom>,
    /// Whether this clause *creates* objects (its originating head asserted
    /// membership) or only contributes attributes to objects created elsewhere.
    pub creates: bool,
    /// Labels of the original clauses this normal clause derives from.
    pub provenance: Vec<String>,
}

impl NormalClause {
    /// Size metric (atoms + attribute terms), used by the benchmark harness to
    /// report normal-form program size.
    pub fn size(&self) -> usize {
        self.body.iter().map(Atom::size).sum::<usize>()
            + self.attrs.values().map(Term::size).sum::<usize>()
            + self.key.terms().iter().map(|t| t.size()).sum::<usize>()
    }

    /// Render the clause in WOL concrete syntax (for reports and debugging).
    pub fn render(&self) -> String {
        let object = Term::Skolem(self.class.clone(), self.key.clone());
        let mut head_atoms = vec![Atom::Member(object.clone(), self.class.clone())];
        for (label, term) in &self.attrs {
            head_atoms.push(Atom::Eq(object.clone().proj(label.clone()), term.clone()));
        }
        let clause = Clause::new(head_atoms, self.body.clone());
        wol_lang::render_clause(&clause)
    }
}

/// A normalised transformation program.
#[derive(Clone, Debug, Default)]
pub struct NormalProgram {
    /// The normal-form clauses.
    pub clauses: Vec<NormalClause>,
    /// The object keys used for each target class.
    pub keys: BTreeMap<ClassName, ObjectKey>,
}

impl NormalProgram {
    /// Total size of the normal-form program (sum of clause sizes). The paper
    /// uses "the size of the resulting normal form program" as one of its
    /// evaluation metrics (Section 6).
    pub fn size(&self) -> usize {
        self.clauses.iter().map(NormalClause::size).sum()
    }

    /// Number of normal-form clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True if the program has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clauses that create objects of a given class.
    pub fn creating_clauses(&self, class: &ClassName) -> Vec<&NormalClause> {
        self.clauses
            .iter()
            .filter(|c| &c.class == class && c.creates)
            .collect()
    }
}

/// Options controlling normalisation; the defaults reproduce Morphase's
/// behaviour (keys and source constraints are used).
#[derive(Clone, Copy, Debug)]
pub struct NormalizeOptions {
    /// Use target key constraints to identify objects across partial clauses.
    /// Turning this off reproduces the paper's "constraints omitted" setting,
    /// where normalisation time and output size can become exponential.
    pub use_target_keys: bool,
    /// Use source constraints to simplify derived clauses (Example 4.1) and to
    /// prune unsatisfiable clauses.
    pub use_source_constraints: bool,
    /// Safety cap on the number of partial descriptions per class that the
    /// "no keys" subset merge will consider (2^n combinations are generated).
    pub max_partials_without_keys: usize,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        NormalizeOptions {
            use_target_keys: true,
            use_source_constraints: true,
            max_partials_without_keys: 16,
        }
    }
}

/// A partial description of a target object extracted from one clause.
#[derive(Clone, Debug)]
struct Partial {
    class: ClassName,
    object_var: Var,
    explicit_key: Option<SkolemArgs>,
    derived_key: Option<SkolemArgs>,
    attrs: BTreeMap<Label, Term>,
    body: Vec<Atom>,
    creates: bool,
    label: String,
}

/// Normalise a program.
pub fn normalize(program: &Program, options: &NormalizeOptions) -> Result<NormalProgram> {
    let schemas = program.schemas();
    let target_classes: BTreeSet<ClassName> = program.target_classes();

    // Keys: from the target schema's constraint clauses plus the metadata key
    // specification is the caller's job (Morphase generates C2/C3-style
    // clauses from metadata); here we extract Skolem-style key constraints.
    let target_constraint_clauses: Vec<&Clause> = program
        .target_constraints()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let keys = if options.use_target_keys {
        extract_object_keys(&target_constraint_clauses)
    } else {
        BTreeMap::new()
    };

    // Source keys for the optimiser.
    let source_constraint_clauses: Vec<&Clause> = program
        .source_constraints()
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    let source_keys: SourceKeys = if options.use_source_constraints {
        extract_merge_keys(&source_constraint_clauses)
    } else {
        BTreeMap::new()
    };

    // Step 1: extract partial descriptions from every transformation clause.
    let mut partials: Vec<Partial> = Vec::new();
    for (index, (id, clause)) in program.transformation_clauses().into_iter().enumerate() {
        let renamed = clause.rename_vars(|v| format!("c{index}_{v}"));
        let env = check_clause_types(&renamed, &schemas)?;
        let analysis = analyze_head(&renamed, &env, &target_classes)?;
        if analysis.objects.is_empty() {
            return Err(EngineError::Normalisation(format!(
                "clause {} does not describe any target object",
                id.describe()
            )));
        }
        if !analysis.residual.is_empty() {
            return Err(EngineError::Normalisation(format!(
                "clause {} has head atoms outside the supported normal-form fragment",
                id.describe()
            )));
        }
        for object in analysis.objects {
            partials.push(partial_from_object(&renamed, object, &id.describe()));
        }
    }

    // Step 2: dependency graph over target classes (creation dependencies
    // only: attribute-only descriptions such as clause (T3) do not make the
    // program recursive) and topological order.
    let creating: Vec<&Partial> = partials.iter().filter(|p| p.creates).collect();
    let order = topological_order(&creating, &target_classes)?;

    // Steps 3-4: per class, unfold the creating descriptions and resolve their
    // identities; attribute-only descriptions are unfolded afterwards against
    // the completed creating clauses, which are stored once and borrowed.
    let mut normalized: BTreeMap<ClassName, Vec<NormalClause>> = BTreeMap::new();
    let mut unfold_counter = 0usize;
    for class in &order {
        let class_partials: Vec<&Partial> = partials
            .iter()
            .filter(|p| p.class == *class && p.creates)
            .collect();
        if class_partials.is_empty() {
            continue;
        }
        let mut candidates: Vec<Partial> = Vec::new();
        for partial in class_partials {
            candidates.extend(unfold_partial(
                partial.clone(),
                &target_classes,
                &normalized,
                &mut unfold_counter,
            )?);
        }
        let clauses = resolve_identities(class, candidates, &keys, options)?;
        normalized.insert(class.clone(), clauses);
    }
    // Attribute-only descriptions (heads without a membership assertion, such
    // as clause (T3) contributing only `capital`).
    let attribute_only: Vec<&Partial> = partials.iter().filter(|p| !p.creates).collect();
    let mut by_class: BTreeMap<ClassName, Vec<Partial>> = BTreeMap::new();
    for partial in attribute_only {
        let unfolded = unfold_partial(
            partial.clone(),
            &target_classes,
            &normalized,
            &mut unfold_counter,
        )?;
        by_class
            .entry(partial.class.clone())
            .or_default()
            .extend(unfolded);
    }
    let mut output: Vec<NormalClause> = order
        .iter()
        .filter_map(|class| normalized.remove(class))
        .flatten()
        .collect();
    for (class, candidates) in by_class {
        let clauses = resolve_identities(&class, candidates, &keys, options)?;
        output.extend(clauses);
    }

    // Step 5: optimisation with source constraints.
    let mut final_clauses = Vec::new();
    for clause in output {
        // `None` means the clause body is unsatisfiable and is pruned.
        if let Some(optimised) = optimize::optimize_clause(clause, &source_keys) {
            final_clauses.push(optimised);
        }
    }

    Ok(NormalProgram {
        clauses: final_clauses,
        keys,
    })
}

fn partial_from_object(clause: &Clause, object: HeadObject, label: &str) -> Partial {
    Partial {
        class: object.class,
        object_var: object.var,
        explicit_key: object.explicit_key,
        derived_key: None,
        attrs: object.attrs,
        body: clause.body.clone(),
        creates: object.member_in_head,
        label: label.to_string(),
    }
}

/// Topologically order the target classes by their unfold dependencies.
/// Class `C` depends on class `D` when a clause describing `C` mentions `D` in
/// its body. A cycle means the program is recursive and cannot be normalised.
fn topological_order(
    partials: &[&Partial],
    target_classes: &BTreeSet<ClassName>,
) -> Result<Vec<ClassName>> {
    let mut deps: BTreeMap<ClassName, BTreeSet<ClassName>> = BTreeMap::new();
    for partial in partials {
        let entry = deps.entry(partial.class.clone()).or_default();
        for atom in &partial.body {
            if let Atom::Member(_, class) = atom {
                if target_classes.contains(class) && class != &partial.class {
                    entry.insert(class.clone());
                }
            }
        }
        // A creating clause whose body ranges over its own class is directly
        // recursive (objects of `C` defined from objects of `C`).
        for atom in &partial.body {
            if let Atom::Member(_, class) = atom {
                if class == &partial.class {
                    return Err(EngineError::RecursiveProgram(format!(
                        "clause {} creates objects of `{class}` from objects of `{class}`",
                        partial.label
                    )));
                }
            }
        }
    }
    // Kahn's algorithm.
    let mut order = Vec::new();
    let mut remaining: BTreeSet<ClassName> = deps.keys().cloned().collect();
    while !remaining.is_empty() {
        let ready: Vec<ClassName> = remaining
            .iter()
            .filter(|c| {
                deps[*c]
                    .iter()
                    .all(|d| !remaining.contains(d) || !deps.contains_key(d))
            })
            .cloned()
            .collect();
        if ready.is_empty() {
            return Err(EngineError::RecursiveProgram(format!(
                "the target classes {:?} depend on each other cyclically",
                remaining.iter().map(|c| c.to_string()).collect::<Vec<_>>()
            )));
        }
        for class in ready {
            remaining.remove(&class);
            order.push(class);
        }
    }
    Ok(order)
}

/// Unfold every target-class membership atom in a partial's body against the
/// normal clauses already produced for that class. Returns one candidate per
/// combination of defining clauses (this product is a source of the blow-up
/// the paper describes for complete-clause languages).
fn unfold_partial(
    partial: Partial,
    target_classes: &BTreeSet<ClassName>,
    normalized: &BTreeMap<ClassName, Vec<NormalClause>>,
    counter: &mut usize,
) -> Result<Vec<Partial>> {
    // Find the first target membership atom in the body.
    let found = partial
        .body
        .iter()
        .enumerate()
        .find_map(|(position, atom)| match atom {
            Atom::Member(Term::Var(v), c) if target_classes.contains(c) => {
                Some((position, v.clone(), c.clone()))
            }
            _ => None,
        });
    let Some((position, object_var, class)) = found else {
        return Ok(vec![partial]);
    };
    let defining: Vec<&NormalClause> = normalized
        .get(&class)
        .map(|cs| cs.iter().filter(|c| c.creates).collect())
        .unwrap_or_default();
    if defining.is_empty() {
        return Err(EngineError::Normalisation(format!(
            "clause {} uses objects of target class `{class}` in its body, but no clause creates them",
            partial.label
        )));
    }
    let mut results = Vec::new();
    for def in defining {
        *counter += 1;
        let prefix = format!("u{counter}_");
        let renamed_key = rename_skolem_args(&def.key, &prefix);
        let renamed_attrs: BTreeMap<Label, Term> = def
            .attrs
            .iter()
            .map(|(l, t)| (l.clone(), rename_term(t, &prefix)))
            .collect();
        let renamed_body: Vec<Atom> = def.body.iter().map(|a| rename_atom(a, &prefix)).collect();
        let identity = Term::Skolem(class.clone(), renamed_key.clone());

        // Rewrite the remaining body, attributes and keys of the partial:
        // `V` becomes the Skolem identity and `V.a` becomes the defining
        // clause's attribute term.
        let mut ok = true;
        let mut new_body: Vec<Atom> = Vec::new();
        for (i, atom) in partial.body.iter().enumerate() {
            if i == position {
                continue;
            }
            new_body.push(rewrite_atom(
                atom,
                &object_var,
                &identity,
                &renamed_attrs,
                &mut ok,
            ));
        }
        new_body.extend(renamed_body);
        let new_attrs: BTreeMap<Label, Term> = partial
            .attrs
            .iter()
            .map(|(l, t)| {
                (
                    l.clone(),
                    rewrite_object_refs(t, &object_var, &identity, &renamed_attrs, &mut ok),
                )
            })
            .collect();
        let new_explicit = partial.explicit_key.as_ref().map(|k| {
            k.map(|t| rewrite_object_refs(t, &object_var, &identity, &renamed_attrs, &mut ok))
        });
        if !ok {
            // Some attribute of the unfolded object is not defined by this
            // defining clause; the combination is not usable.
            continue;
        }
        let derived_key = if object_var == partial.object_var {
            // The described object itself was identified through the body:
            // its identity is the defining clause's key.
            Some(renamed_key)
        } else {
            partial.derived_key.clone()
        };
        let unfolded = Partial {
            class: partial.class.clone(),
            object_var: partial.object_var.clone(),
            explicit_key: new_explicit,
            derived_key,
            attrs: new_attrs,
            body: new_body,
            creates: partial.creates,
            label: partial.label.clone(),
        };
        results.extend(unfold_partial(
            unfolded,
            target_classes,
            normalized,
            counter,
        )?);
    }
    Ok(results)
}

fn rename_term(term: &Term, prefix: &str) -> Term {
    let subst: BTreeMap<Var, Term> = term
        .var_set()
        .into_iter()
        .map(|v| (v.clone(), Term::Var(format!("{prefix}{v}"))))
        .collect();
    term.substitute(&subst)
}

fn rename_atom(atom: &Atom, prefix: &str) -> Atom {
    let subst: BTreeMap<Var, Term> = atom
        .var_set()
        .into_iter()
        .map(|v| (v.clone(), Term::Var(format!("{prefix}{v}"))))
        .collect();
    atom.substitute(&subst)
}

fn rename_skolem_args(args: &SkolemArgs, prefix: &str) -> SkolemArgs {
    args.map(|t| rename_term(t, prefix))
}

/// Replace references to `object_var` in a term: `object_var.a` becomes the
/// defining clause's term for `a` (setting `ok = false` if the attribute is
/// not defined), and a bare `object_var` becomes the Skolem identity.
fn rewrite_object_refs(
    term: &Term,
    object_var: &str,
    identity: &Term,
    attrs: &BTreeMap<Label, Term>,
    ok: &mut bool,
) -> Term {
    match term {
        Term::Var(v) if v == object_var => identity.clone(),
        Term::Var(_) | Term::Const(_) => term.clone(),
        Term::Proj(base, label) => {
            if let Term::Var(v) = base.as_ref() {
                if v == object_var {
                    return match attrs.get(label) {
                        Some(defined) => defined.clone(),
                        None => {
                            *ok = false;
                            term.clone()
                        }
                    };
                }
            }
            Term::Proj(
                Box::new(rewrite_object_refs(base, object_var, identity, attrs, ok)),
                label.clone(),
            )
        }
        Term::Record(fields) => Term::Record(
            fields
                .iter()
                .map(|(l, t)| {
                    (
                        l.clone(),
                        rewrite_object_refs(t, object_var, identity, attrs, ok),
                    )
                })
                .collect(),
        ),
        Term::Variant(label, payload) => Term::Variant(
            label.clone(),
            Box::new(rewrite_object_refs(
                payload, object_var, identity, attrs, ok,
            )),
        ),
        Term::Skolem(class, args) => Term::Skolem(
            class.clone(),
            args.map(|t| rewrite_object_refs(t, object_var, identity, attrs, ok)),
        ),
    }
}

fn rewrite_atom(
    atom: &Atom,
    object_var: &str,
    identity: &Term,
    attrs: &BTreeMap<Label, Term>,
    ok: &mut bool,
) -> Atom {
    let mut f = |t: &Term| rewrite_object_refs(t, object_var, identity, attrs, ok);
    match atom {
        Atom::Member(t, c) => Atom::Member(f(t), c.clone()),
        Atom::Eq(s, t) => Atom::Eq(f(s), f(t)),
        Atom::Neq(s, t) => Atom::Neq(f(s), f(t)),
        Atom::Lt(s, t) => Atom::Lt(f(s), f(t)),
        Atom::Leq(s, t) => Atom::Leq(f(s), f(t)),
        Atom::InSet(s, t) => Atom::InSet(f(s), f(t)),
    }
}

/// Canonicalise a Skolem key against the class's object key so that all
/// clauses creating a class produce key values of the same shape.
fn canonicalize_key(args: &SkolemArgs, key: Option<&ObjectKey>) -> SkolemArgs {
    let Some(key) = key else { return args.clone() };
    match args {
        SkolemArgs::Positional(ts) if ts.len() == key.parts.len() => SkolemArgs::Named(
            key.parts
                .iter()
                .zip(ts.iter())
                .map(|((label, _), t)| (label.clone(), t.clone()))
                .collect(),
        ),
        SkolemArgs::Named(fields) => {
            let mut ordered = Vec::new();
            for (label, _) in &key.parts {
                if let Some((_, t)) = fields.iter().find(|(l, _)| l == label) {
                    ordered.push((label.clone(), t.clone()));
                }
            }
            // Keep any extra fields at the end.
            for (l, t) in fields {
                if !ordered.iter().any(|(ol, _)| ol == l) {
                    ordered.push((l.clone(), t.clone()));
                }
            }
            SkolemArgs::Named(ordered)
        }
        other => other.clone(),
    }
}

/// Resolve the identity of every candidate description, producing the class's
/// normal clauses. With keys this is linear in the number of candidates; with
/// keys omitted it enumerates combinations of candidates (exponential).
fn resolve_identities(
    class: &ClassName,
    candidates: Vec<Partial>,
    keys: &BTreeMap<ClassName, ObjectKey>,
    options: &NormalizeOptions,
) -> Result<Vec<NormalClause>> {
    let object_key = keys.get(class);
    let mut keyed: Vec<NormalClause> = Vec::new();
    let mut unkeyed: Vec<Partial> = Vec::new();

    for candidate in candidates {
        let key = candidate
            .explicit_key
            .clone()
            .map(|k| canonicalize_key(&k, object_key))
            .or_else(|| candidate.derived_key.clone())
            .or_else(|| derive_key_from_attrs(&candidate, object_key));
        match key {
            Some(key) => keyed.push(NormalClause {
                class: class.clone(),
                key,
                attrs: candidate.attrs.clone(),
                body: candidate.body.clone(),
                creates: candidate.creates,
                provenance: vec![candidate.label.clone()],
            }),
            None => unkeyed.push(candidate),
        }
    }

    if unkeyed.is_empty() {
        return Ok(keyed);
    }

    // Without a usable key the normaliser cannot tell which partial
    // descriptions talk about the same object, so it must combine them in
    // every possible way (the exponential case the paper reports when
    // constraints are omitted).
    if unkeyed.len() > options.max_partials_without_keys {
        return Err(EngineError::Normalisation(format!(
            "class `{class}` has {} partial descriptions and no key constraint; refusing to \
             enumerate {} combinations (raise `max_partials_without_keys` to override)",
            unkeyed.len(),
            1u128 << unkeyed.len().min(127)
        )));
    }
    if object_key.is_some() || !keyed.is_empty() {
        // Mixed situation: some partials have keys, some do not — the ones
        // without keys are genuinely incomplete.
        let labels: Vec<&str> = unkeyed.iter().map(|p| p.label.as_str()).collect();
        return Err(EngineError::Incomplete {
            class: class.to_string(),
            detail: format!("clauses {labels:?} do not determine the object's key attributes"),
        });
    }

    let mut combined = Vec::new();
    let n = unkeyed.len();
    for mask in 1u64..(1u64 << n) {
        let subset: Vec<&Partial> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &unkeyed[i])
            .collect();
        if let Some(clause) = merge_subset(class, &subset) {
            combined.push(clause);
        }
    }
    keyed.extend(combined);
    Ok(keyed)
}

fn derive_key_from_attrs(
    candidate: &Partial,
    object_key: Option<&ObjectKey>,
) -> Option<SkolemArgs> {
    let key = object_key?;
    let mut parts = Vec::new();
    for (label, path) in &key.parts {
        if path.len() != 1 {
            return None;
        }
        let attr = &path.segments()[0];
        let term = candidate.attrs.get(attr)?;
        parts.push((label.clone(), term.clone()));
    }
    Some(SkolemArgs::Named(parts))
}

/// Merge a subset of key-less partial descriptions into a single normal
/// clause: bodies are concatenated, attributes defined by several members are
/// equated, and the object's identity is the record of all of its attributes.
fn merge_subset(class: &ClassName, subset: &[&Partial]) -> Option<NormalClause> {
    let mut attrs: BTreeMap<Label, Term> = BTreeMap::new();
    let mut body: Vec<Atom> = Vec::new();
    let mut provenance = Vec::new();
    let mut creates = false;
    for partial in subset {
        creates |= partial.creates;
        provenance.push(partial.label.clone());
        body.extend(partial.body.iter().cloned());
        for (label, term) in &partial.attrs {
            match attrs.get(label) {
                None => {
                    attrs.insert(label.clone(), term.clone());
                }
                Some(existing) if existing == term => {}
                Some(existing) => {
                    // The two descriptions must agree on this attribute; keep
                    // one term and add a join condition for the other.
                    body.push(Atom::Eq(existing.clone(), term.clone()));
                }
            }
        }
    }
    if attrs.is_empty() {
        return None;
    }
    let key = SkolemArgs::Named(attrs.iter().map(|(l, t)| (l.clone(), t.clone())).collect());
    Some(NormalClause {
        class: class.clone(),
        key,
        attrs,
        body,
        creates,
        provenance,
    })
}

/// Execute a normal-form program against the source databases in a single
/// pass, producing the target instance. Objects are created and merged by
/// their Skolem keys; clashing attribute values are an error (the program
/// would not have a unique smallest transformation).
pub fn execute(
    normal: &NormalProgram,
    sources: &[&Instance],
    target_name: &str,
) -> Result<Instance> {
    let mut factory = SkolemFactory::new();
    let mut target = Instance::new(target_name);
    let dbs = Databases::new(sources);
    for clause in &normal.clauses {
        let bindings = match_body(
            &clause.body,
            &dbs,
            &mut factory,
            Bindings::new(),
            &mut MatchStats::default(),
        )?;
        for binding in bindings {
            let key_value = eval_skolem_key(&clause.key, &binding, &dbs, &mut factory)?;
            let oid = factory.mk(&clause.class, &key_value)?;
            let mut fields = Vec::with_capacity(clause.attrs.len());
            for (label, term) in &clause.attrs {
                fields.push((
                    label.clone(),
                    eval_term(term, &binding, &dbs, &mut factory)?,
                ));
            }
            let mut record: Record = fields.into_iter().collect();
            match target.value(&oid) {
                None => target.insert(oid, Value::Record(record))?,
                Some(existing) => {
                    record.merge(existing.as_record()).map_err(|label| {
                        ModelError::Conflict(Conflict {
                            oid: oid.clone(),
                            label,
                        })
                    })?;
                    target.update(&oid, Value::Record(record))?;
                }
            }
        }
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::program::{Program, SchemaBinding};
    use wol_model::{Schema, Type};

    /// The European source schema of Figure 2.
    fn euro_schema() -> Schema {
        Schema::new("euro")
            .with_class(
                "CityE",
                Type::record([
                    ("name", Type::str()),
                    ("is_capital", Type::bool()),
                    ("country", Type::class("CountryE")),
                ]),
            )
            .with_class(
                "CountryE",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                ]),
            )
    }

    /// The integrated target schema of Figure 3 (restricted to the European
    /// side; the US side is exercised by the workloads crate).
    fn target_schema() -> Schema {
        Schema::new("target")
            .with_class(
                "CityT",
                Type::record([
                    ("name", Type::str()),
                    (
                        "place",
                        Type::variant([("euro_city", Type::class("CountryT"))]),
                    ),
                ]),
            )
            .with_class(
                "CountryT",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                    ("capital", Type::optional(Type::class("CityT"))),
                ]),
            )
    }

    /// The paper's transformation clauses (T1)-(T3) and key constraints
    /// (C2)-(C3), in the crate's concrete syntax.
    fn cities_program() -> Program {
        Program::new(
            "euro_to_target",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
                 <= E in CountryE;\n\
             T2: Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
                 <= E in CityE, X in CountryT, X.name = E.country.name;\n\
             T3: X.capital = Y \
                 <= X in CountryT, Y in CityT, Y.place = ins_euro_city(X), \
                    E in CityE, E.name = Y.name, E.country.name = X.name, E.is_capital = true;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;\n\
             C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;",
        )
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

    #[test]
    fn program_validates_and_normalizes() {
        let program = cities_program();
        program.validate().unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        // One creating clause for CountryT, one for CityT, one attribute-only
        // clause for CountryT.capital.
        assert_eq!(
            normal.creating_clauses(&ClassName::new("CountryT")).len(),
            1
        );
        assert_eq!(normal.creating_clauses(&ClassName::new("CityT")).len(), 1);
        assert_eq!(normal.len(), 3);
        assert!(normal.size() > 0);
        assert!(!normal.is_empty());
        // Every normal clause records where it came from.
        for clause in &normal.clauses {
            assert!(!clause.provenance.is_empty());
        }
    }

    #[test]
    fn normal_clause_bodies_mention_no_target_memberships() {
        let program = cities_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let target_classes = program.target_classes();
        for clause in &normal.clauses {
            for atom in &clause.body {
                assert!(
                    !matches!(atom, Atom::Member(_, c) if target_classes.contains(c)),
                    "body membership over a target class in {}",
                    clause.render()
                );
            }
        }
    }

    #[test]
    fn execute_produces_figure_3_instance() {
        let program = cities_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let source = euro_instance();
        let target = execute(&normal, &[&source][..], "target").unwrap();

        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 3);

        // France's capital is Paris.
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .expect("France exists in the target");
        let france_value = target.value(france).unwrap();
        assert_eq!(france_value.project("currency"), Some(&Value::str("franc")));
        let capital = france_value
            .project("capital")
            .and_then(|v| v.as_oid())
            .expect("France has a capital");
        let capital_value = target.value(capital).unwrap();
        assert_eq!(capital_value.project("name"), Some(&Value::str("Paris")));

        // Manchester exists but is nobody's capital.
        let manchester = target
            .find_by_field(&ClassName::new("CityT"), "name", &Value::str("Manchester"))
            .expect("Manchester exists");
        assert!(target.value(manchester).unwrap().project("place").is_some());
    }

    #[test]
    fn normalization_is_deterministic() {
        let program = cities_program();
        let a = normalize(&program, &NormalizeOptions::default()).unwrap();
        let b = normalize(&program, &NormalizeOptions::default()).unwrap();
        assert_eq!(a.clauses, b.clauses);
    }

    #[test]
    fn recursive_program_rejected() {
        // CityT objects defined from CityT objects: recursive.
        let program = Program::new(
            "recursive",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             R: Y in CityT, Y.name = E.name, Y.place = Z.place <= Z in CityT, E in CityE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;",
        );
        let err = normalize(&program, &NormalizeOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::RecursiveProgram(_)));
    }

    #[test]
    fn missing_creating_clause_detected() {
        // T3 mentions CityT in its body but nothing creates CityT objects.
        let program = Program::new(
            "incomplete",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             T3: X.capital = Y <= X in CountryT, Y in CityT, Y.place = ins_euro_city(X), \
                 E in CityE, E.name = Y.name, E.country.name = X.name, E.is_capital = true;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;",
        );
        let err = normalize(&program, &NormalizeOptions::default()).unwrap_err();
        assert!(err.to_string().contains("no clause creates them"));
    }

    #[test]
    fn split_clauses_t4_t5_merge_through_keys() {
        // Example 4.1: the CountryT description split over two clauses.
        let program = Program::new(
            "split",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T4: X = Mk_CountryT(N), X.name = N, X.language = L <= Y in CountryE, Y.name = N, Y.language = L;\n\
             T5: X = Mk_CountryT(N), X.name = N, X.currency = C <= Z in CountryE, Z.name = N, Z.currency = C;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        program.validate().unwrap();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        assert_eq!(normal.len(), 2);
        let source = euro_instance();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 2);
        let france = target
            .find_by_field(&ClassName::new("CountryT"), "name", &Value::str("France"))
            .unwrap();
        let value = target.value(france).unwrap();
        // Both halves of the description reached the same object.
        assert_eq!(value.project("language"), Some(&Value::str("French")));
        assert_eq!(value.project("currency"), Some(&Value::str("franc")));
    }

    #[test]
    fn without_keys_normal_form_blows_up() {
        // The same split-description program, but with key constraints omitted:
        // the normaliser has to consider every combination of the partial
        // clauses, so the normal form has 2^2 - 1 = 3 clauses instead of 2.
        let program = Program::new(
            "split_nokeys",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T4: X in CountryT, X.name = N, X.language = L <= Y in CountryE, Y.name = N, Y.language = L;\n\
             T5: X in CountryT, X.name = N, X.currency = C <= Z in CountryE, Z.name = N, Z.currency = C;",
        );
        let options = NormalizeOptions {
            use_target_keys: false,
            ..NormalizeOptions::default()
        };
        let normal = normalize(&program, &options).unwrap();
        assert_eq!(normal.len(), 3);

        // With keys the same program (plus the key constraint) yields 2 clauses.
        let keyed_program = Program::new(
            "split_keys",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T4: X in CountryT, X.name = N, X.language = L <= Y in CountryE, Y.name = N, Y.language = L;\n\
             T5: X in CountryT, X.name = N, X.currency = C <= Z in CountryE, Z.name = N, Z.currency = C;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let keyed = normalize(&keyed_program, &NormalizeOptions::default()).unwrap();
        assert_eq!(keyed.len(), 2);
        assert!(normal.size() > keyed.size());
    }

    #[test]
    fn too_many_keyless_partials_rejected() {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!(
                "P{i}: X in CountryT, X.name = N, X.language = L{i} <= Y in CountryE, Y.name = N, Y.language = L{i};\n"
            ));
        }
        let program = Program::new(
            "many",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(&text);
        let options = NormalizeOptions {
            use_target_keys: false,
            max_partials_without_keys: 8,
            ..NormalizeOptions::default()
        };
        let err = normalize(&program, &options).unwrap_err();
        assert!(err.to_string().contains("refusing to enumerate"));
    }

    #[test]
    fn incomplete_clause_reported_when_key_attributes_missing() {
        // A clause that creates CountryT objects but never sets the key
        // attribute `name`.
        let program = Program::new(
            "incomplete_key",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T: X in CountryT, X.language = L <= Y in CountryE, Y.language = L;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let err = normalize(&program, &NormalizeOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::Incomplete { .. }));
    }

    #[test]
    fn normal_clause_render_is_parseable_text() {
        let program = cities_program();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        for clause in &normal.clauses {
            let rendered = clause.render();
            assert!(rendered.contains("Mk_"));
            assert!(rendered.contains("<="));
        }
    }

    #[test]
    fn source_constraint_optimisation_reduces_body_size() {
        // Example 4.1: with the CountryE name key, the merged T4/T5 body can
        // drop the self-join. We approximate by comparing the normal program
        // with and without source-constraint optimisation on a program whose
        // clause body contains the self-join explicitly.
        let program = Program::new(
            "selfjoin",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T: X in CountryT, X.name = N, X.language = L, X.currency = C \
                 <= Y in CountryE, Y.name = N, Y.language = L, Z in CountryE, Z.name = N, Z.currency = C;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;",
        );
        let with_opt = normalize(&program, &NormalizeOptions::default()).unwrap();
        let without_opt = normalize(
            &program,
            &NormalizeOptions {
                use_source_constraints: false,
                ..NormalizeOptions::default()
            },
        )
        .unwrap();
        assert!(with_opt.size() < without_opt.size());
        // Both still compute the same target.
        let source = euro_instance();
        let a = execute(&with_opt, &[&source][..], "t").unwrap();
        let b = execute(&without_opt, &[&source][..], "t").unwrap();
        assert_eq!(
            a.extent_size(&ClassName::new("CountryT")),
            b.extent_size(&ClassName::new("CountryT"))
        );
    }

    #[test]
    fn conflicting_attribute_values_detected_at_execution() {
        // Two clauses give the same country different currencies.
        let program = Program::new(
            "conflict",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.currency = E.currency <= E in CountryE;\n\
             T2: X in CountryT, X.name = E.name, X.currency = \"euro\" <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let source = euro_instance();
        let err = execute(&normal, &[&source][..], "t").unwrap_err();
        assert!(err.to_string().contains("conflicting"));
    }
}
