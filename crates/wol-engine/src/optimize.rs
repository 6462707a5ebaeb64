//! Optimisation of derived clauses using source constraints (Section 4.2).
//!
//! "Source database constraints play an important part in optimizing this
//! process, both by simplifying the derived rules and by causing unsatisfiable
//! rules to be rejected." The two optimisations of the paper's Example 4.1
//! run on every normal clause ([`optimize_clause`]):
//!
//! * **self-join elimination**: if `name` is a key for `CountryE`, a body
//!   `Y in CountryE, Z in CountryE, Y.name = N, Z.name = N` can bind `Z := Y`
//!   and drop the duplicate atoms;
//! * **unsatisfiable-clause pruning**: a body that equates two distinct
//!   constants (directly or through a shared variable/attribute) can never be
//!   satisfied, so the clause is dropped.
//!
//! Both see through identities first. `Mk_C(k)` is a function of `(C, k)`
//! ([`wol_model::skolem_id`]), so an equality between Skolem or variant terms
//! is split into equalities between their arguments before either
//! optimisation runs: `Mk_C(k1) = Mk_C(k2)` with the same argument shape
//! becomes `k1 = k2`, field by field, and `ins_l(a) = ins_l(b)` becomes
//! `a = b`. Two classes or two variant labels never compare equal, so such a
//! clause is pruned. The split equalities are what let clause (T3)'s two
//! `CountryE` scans, compared through `ins_euro_city(Mk_CountryT(..))`, merge
//! under (C8).
//!
//! **Two sufficient conditions for a merge.** Two scans `Y`, `Z` of one
//! source class merge (`Z := Y`, atoms that became duplicates dropped, a
//! flipped `t = s` counting as a duplicate of `s = t`) when either holds:
//!
//! * **a key** — every path of a source key of the class is equated between
//!   `Y` and `Z`, so they are one object. [`optimize_clause`] applies it
//!   while normalising: the paper's normal form.
//! * **coverage** — `Z` is a *witness*: every use of `Z` other than its
//!   membership is a projection `Z.p`, and every such `Z.p` is equated with
//!   `Y.p`. Setting `Z := Y` satisfies everything `Z` did, and whatever `Z`
//!   bound, `Y` binds equal values, so the body's solutions differ only in
//!   how often each head instance is derived. Under WOL's set semantics that
//!   changes nothing: an identity is a function of its key and an object's
//!   contributions settle as a set. This is conjunctive-query minimisation
//!   (Chandra & Merlin), and it needs no constraint. [`fold_witnesses`]
//!   applies it; `morphase` calls it when it plans a clause, so the normal
//!   form stays the paper's and its unplanned (raw) translation, the
//!   planner's baseline, keeps every witness scan.
//!
//! The genome program's attribute clauses are the motivating case: each
//! unfolds `X in CloneD, X.name = C.name` into a second `CloneS` scan that
//! only re-reads `C.name`.
//!
//! **Definedness.** An attribute may be absent, and an equality over an
//! absent projection does not hold. So a self-equality over a projection
//! (`Y.p = Y.p`, left by either merge of `Y.p = Z.p`) is never dropped: it
//! still requires `p` to be present. Only a self-equality of variables and
//! constants is trivially true.
//!
//! **Collisions.** Two keys whose identities hash alike are detected where an
//! identity is *minted*, as `ModelError::SkolemCollision`. A comparison the
//! split rewrites no longer mints, so it treats the two keys as distinct —
//! what `Mk_C` means when it is injective.

use std::collections::{BTreeMap, HashSet};

use wol_lang::ast::{Atom, SkolemArgs, Term, Var};
use wol_model::{ClassName, Label, Path, PushOp, Value};

use crate::normalize::NormalClause;

/// Source keys: for each source class, the attribute paths that jointly form a
/// key (from merge-style key constraints such as clause (C8)).
pub(crate) type SourceKeys = BTreeMap<ClassName, Vec<Path>>;

/// Optimise a normal clause: simplify its body with the given source keys and
/// prune it entirely if the body is unsatisfiable. Returns `None` when the
/// clause is pruned.
pub(crate) fn optimize_clause(
    clause: NormalClause,
    source_keys: &SourceKeys,
) -> Option<NormalClause> {
    let mut body = Vec::with_capacity(clause.body.len());
    for atom in clause.body {
        match atom {
            Atom::Eq(s, t) => {
                if !split_equality(s, t, &mut body) {
                    return None;
                }
            }
            other => body.push(other),
        }
    }
    let mut clause = NormalClause { body, ..clause };
    // Iterate self-join elimination to a fixpoint: merging two variables may
    // enable further merges.
    while let Some((keep, drop)) = keyed_pair(&clause.body, source_keys) {
        let body = std::mem::take(&mut clause.body);
        merge(&mut clause, &body, keep, drop);
    }
    dedup_atoms(&mut clause.body, false);
    drop_trivial_equalities(&mut clause.body);
    if body_unsatisfiable(&clause.body) {
        return None;
    }
    Some(clause)
}

/// Two member variables of one class whose key paths are all equated, as
/// `(keep, drop)`. Without a source key there is nothing to search.
fn keyed_pair(body: &[Atom], source_keys: &SourceKeys) -> Option<(Var, Var)> {
    if source_keys.is_empty() {
        return None;
    }
    find_pair(body, |class, a, b| {
        let key = source_keys.get(class)?;
        let equated = |p: &Path| {
            paths_equated(body, a, b, |t, v| {
                is_projection(t, v, p.segments().iter().rev())
            })
        };
        key.iter().all(equated).then_some((a, b))
    })
}

/// Fold every witness scan of a clause into another scan of its class (see
/// the module docs): `Z := Y`, duplicate atoms dropped, to a fixpoint.
/// Returns `None`, having allocated nothing, when no scan is a witness.
pub fn fold_witnesses(clause: &NormalClause) -> Option<NormalClause> {
    if !Paths::nest(clause) {
        return None;
    }
    let witness = |clause: &NormalClause| {
        find_pair(&clause.body, |_, a, b| {
            if is_witness(clause, b, a) {
                Some((a, b))
            } else if is_witness(clause, a, b) {
                Some((b, a))
            } else {
                None
            }
        })
    };
    let (keep, drop) = witness(clause)?;
    let mut folded = NormalClause {
        class: clause.class.clone(),
        key: clause.key.clone(),
        attrs: clause.attrs.clone(),
        body: Vec::new(),
        creates: clause.creates,
        provenance: clause.provenance.clone(),
    };
    merge(&mut folded, &clause.body, keep, drop);
    while let Some((keep, drop)) = witness(&folded) {
        let body = std::mem::take(&mut folded.body);
        merge(&mut folded, &body, keep, drop);
    }
    // A witness is never used bare, so a fold leaves no self-equality but
    // one over a projection, which stays.
    Some(folded)
}

/// At most this many member variables of a clause get a path summary; a
/// clause with more goes straight to the exact witness search.
const SUMMARISED: usize = 16;

/// The paths a clause projects off its member variables, summarised in one
/// walk that allocates nothing: per variable, its class and a bit per
/// projected path, by a hash of the path's labels.
struct Paths<'a> {
    vars: [&'a str; SUMMARISED],
    classes: [Option<&'a ClassName>; SUMMARISED],
    bits: [u64; SUMMARISED],
    len: usize,
    last: usize,
}

impl<'a> Paths<'a> {
    /// Whether two members of one class have nested projected-path sets —
    /// what a witness needs, since each `z.p` must be equated with `y.p` —
    /// checked before anything is allocated. Every planned clause comes
    /// through here, so a clause without such a pair (each of the keyless
    /// wide program's scans reads attributes the others do not) costs one
    /// walk. A variable in several memberships goes to the exact search.
    fn nest(clause: &'a NormalClause) -> bool {
        let mut paths = Paths {
            vars: [""; SUMMARISED],
            classes: [None; SUMMARISED],
            bits: [0; SUMMARISED],
            len: 0,
            last: 0,
        };
        for atom in &clause.body {
            if let Atom::Member(Term::Var(v), class) = atom {
                if paths.len == SUMMARISED || paths.ordinal(v).is_some() {
                    return true;
                }
                paths.vars[paths.len] = v;
                paths.classes[paths.len] = Some(class);
                paths.len += 1;
            }
        }
        if !paths.pairs(|_, _| true) {
            return false;
        }
        for atom in &clause.body {
            match atom {
                Atom::Member(t, _) => paths.record(t),
                Atom::Eq(s, t)
                | Atom::Neq(s, t)
                | Atom::Lt(s, t)
                | Atom::Leq(s, t)
                | Atom::InSet(s, t) => {
                    paths.record(s);
                    paths.record(t);
                }
            }
        }
        // The head need not be walked: a witness's head paths are equated
        // in the body too.
        let bits = paths.bits;
        paths.pairs(|y, z| bits[z] & !bits[y] == 0 || bits[y] & !bits[z] == 0)
    }

    /// Whether `nested` holds for some pair of members of one class.
    fn pairs(&self, nested: impl Fn(usize, usize) -> bool) -> bool {
        let classes = &self.classes[..self.len];
        (0..self.len).any(|i| (i + 1..self.len).any(|j| classes[i] == classes[j] && nested(i, j)))
    }

    fn ordinal(&self, var: &str) -> Option<usize> {
        // A member's projections tend to follow one another: try the last
        // one found first.
        if self.vars[self.last] == var {
            return Some(self.last);
        }
        self.vars[..self.len].iter().position(|v| *v == var)
    }

    /// Note the member paths `term` projects.
    fn record(&mut self, term: &Term) {
        match term {
            Term::Var(_) | Term::Const(_) => {}
            Term::Proj(base, _) => match projected_var(term).and_then(|v| self.ordinal(v)) {
                Some(i) => {
                    self.last = i;
                    // Labels are interned: one text, one address.
                    let hash = labels(term).fold(0u64, |h, l| {
                        (h ^ l.as_ptr() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    });
                    self.bits[i] |= 1 << (hash >> 58);
                }
                None => self.record(base),
            },
            Term::Variant(_, t) => self.record(t),
            Term::Record(fields) | Term::Skolem(_, SkolemArgs::Named(fields)) => {
                fields.iter().for_each(|(_, t)| self.record(t))
            }
            Term::Skolem(_, SkolemArgs::Positional(ts)) => ts.iter().for_each(|t| self.record(t)),
        }
    }
}

/// Substitute `keep` for `drop` in the clause's key and attributes and in
/// `body`, which becomes the clause's body less the atoms that became
/// duplicates.
fn merge(clause: &mut NormalClause, body: &[Atom], keep: Var, drop: Var) {
    let subst = BTreeMap::from([(drop, Term::Var(keep))]);
    clause.body = body.iter().map(|atom| atom.substitute(&subst)).collect();
    dedup_atoms(&mut clause.body, true);
    clause.key = clause.key.map(|t| t.substitute(&subst));
    for term in clause.attrs.values_mut() {
        *term = term.substitute(&subst);
    }
}

/// Append `s = t` to `out`, split into equalities between arguments where
/// both sides are Skolem terms of one class and argument shape, or variant
/// terms of one label (see the module docs). Returns `false` when the
/// equality can never hold: two classes or two variant labels.
fn split_equality(s: Term, t: Term, out: &mut Vec<Atom>) -> bool {
    match (s, t) {
        (Term::Variant(l, a), Term::Variant(m, b)) => l == m && split_equality(*a, *b, out),
        (Term::Skolem(c, _), Term::Skolem(d, _)) if c != d => false,
        (
            Term::Skolem(_, SkolemArgs::Positional(a)),
            Term::Skolem(_, SkolemArgs::Positional(b)),
        ) if a.len() == b.len() => a.into_iter().zip(b).all(|(x, y)| split_equality(x, y, out)),
        (Term::Skolem(_, SkolemArgs::Named(mut a)), Term::Skolem(_, SkolemArgs::Named(mut b)))
            // Labels are unique within a key, so equal lengths and every
            // label of `a` found in `b` mean one label set.
            if a.len() == b.len() && a.iter().all(|(l, _)| b.iter().any(|(m, _)| l == m)) =>
        {
            a.sort_by(|x, y| x.0.cmp(&y.0));
            b.sort_by(|x, y| x.0.cmp(&y.0));
            a.into_iter()
                .zip(b)
                .all(|((_, x), (_, y))| split_equality(x, y, out))
        }
        (s, t) => {
            out.push(Atom::Eq(s, t));
            true
        }
    }
}

/// The first pair of distinct member variables of one class, in body order,
/// that `mergeable` turns into a `(keep, drop)` pair. Allocates nothing
/// until it finds one.
fn find_pair<'a>(
    body: &'a [Atom],
    mergeable: impl Fn(&ClassName, &'a Var, &'a Var) -> Option<(&'a Var, &'a Var)>,
) -> Option<(Var, Var)> {
    let member = |atom: &'a Atom| match atom {
        Atom::Member(Term::Var(v), class) => Some((v, class)),
        _ => None,
    };
    let (keep, drop) = body.iter().enumerate().find_map(|(i, atom)| {
        let (a, class) = member(atom)?;
        body[i + 1..]
            .iter()
            .filter_map(member)
            .filter(|&(b, c)| c == class && b != a)
            .find_map(|(b, _)| mergeable(class, a, b))
    })?;
    Some((keep.clone(), drop.clone()))
}

/// Is `a.p` known to equal `b.p` in the body — either directly
/// (`a.p = b.p`) or through a shared variable or constant
/// (`a.p = N, b.p = N`)? `at(t, v)` says whether term `t` is `v.p`.
fn paths_equated(body: &[Atom], a: &str, b: &str, at: impl Fn(&Term, &str) -> bool) -> bool {
    // The other side of every equality with `v.p` on one side.
    let others = |v| {
        let at = &at;
        body.iter()
            .filter_map(|atom| match atom {
                Atom::Eq(s, t) => Some([(s, t), (t, s)]),
                _ => None,
            })
            .flatten()
            .filter(move |(x, _)| at(x, v))
            .map(|(_, y)| y)
    };
    others(a).any(|x| {
        at(x, b) || matches!(x, Term::Var(_) | Term::Const(_)) && others(b).any(|y| y == x)
    })
}

/// Whether `term` is a projection `var.p` of at least one label, where
/// `labels` lists `p` outermost first: `Y.a.b` is `Y` with `[b, a]`.
fn is_projection<'l>(term: &Term, var: &str, mut labels: impl Iterator<Item = &'l Label>) -> bool {
    let mut term = term;
    let mut projected = false;
    loop {
        match term {
            Term::Proj(base, label) if labels.next() == Some(label) => {
                term = base;
                projected = true;
            }
            Term::Var(v) => return projected && v == var && labels.next().is_none(),
            _ => return false,
        }
    }
}

/// The labels of a projection, outermost first (see [`is_projection`]).
fn labels(term: &Term) -> impl Iterator<Item = &Label> {
    std::iter::successors(Some(term), |t| match t {
        Term::Proj(base, _) => Some(base),
        _ => None,
    })
    .filter_map(|t| match t {
        Term::Proj(_, label) => Some(label),
        _ => None,
    })
}

/// The variable a projection chain starts from: `Y` for `Y.a.b`, `None` for
/// a term that is not a projection off a variable.
fn projected_var(term: &Term) -> Option<&Var> {
    match term {
        Term::Proj(base, _) => match &**base {
            Term::Var(v) => Some(v),
            base => projected_var(base),
        },
        _ => None,
    }
}

/// Whether member `z` is a witness for member `y` of its class: every use
/// of `z` in the clause's body and head, other than a membership in that
/// class, is a projection `z.p` equated with `y.p`.
fn is_witness(clause: &NormalClause, z: &str, y: &str) -> bool {
    let covered = |projection: &Term| {
        paths_equated(&clause.body, z, y, |t, v| {
            is_projection(t, v, labels(projection))
        })
    };
    let body_covered = clause.body.iter().all(|atom| match atom {
        Atom::Member(Term::Var(v), _) if v == y => true,
        Atom::Member(Term::Var(v), class) if v == z => {
            // A membership of `z` in `y`'s class.
            clause
                .body
                .iter()
                .any(|a| matches!(a, Atom::Member(Term::Var(w), c) if w == y && c == class))
        }
        Atom::Member(t, _) => uses_covered(t, z, &covered),
        Atom::Eq(s, t) | Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) | Atom::InSet(s, t) => {
            uses_covered(s, z, &covered) && uses_covered(t, z, &covered)
        }
    });
    body_covered
        && clause
            .key
            .terms()
            .into_iter()
            .all(|t| uses_covered(t, z, &covered))
        && clause.attrs.values().all(|t| uses_covered(t, z, &covered))
}

/// Whether every use of `z` in `term` is a projection `z.p` that `covered`
/// accepts.
fn uses_covered(term: &Term, z: &str, covered: &impl Fn(&Term) -> bool) -> bool {
    match term {
        Term::Var(v) => v != z,
        Term::Const(_) => true,
        Term::Proj(base, _) => match projected_var(term) {
            Some(v) if v == z => covered(term),
            _ => uses_covered(base, z, covered),
        },
        Term::Variant(_, t) => uses_covered(t, z, covered),
        Term::Record(fields) | Term::Skolem(_, SkolemArgs::Named(fields)) => {
            fields.iter().all(|(_, t)| uses_covered(t, z, covered))
        }
        Term::Skolem(_, SkolemArgs::Positional(ts)) => {
            ts.iter().all(|t| uses_covered(t, z, covered))
        }
    }
}

/// Remove duplicate atoms, preserving first occurrences. With `flipped`, an
/// equality `t = s` duplicates an earlier `s = t` too: a merge's
/// substitution leaves such pairs, and only merged bodies pay the
/// comparison.
fn dedup_atoms(body: &mut Vec<Atom>, flipped: bool) {
    #[derive(PartialEq, Eq, Hash)]
    enum Seen<'a> {
        Eq(&'a Term, &'a Term),
        Atom(&'a Atom),
    }
    let mut seen = HashSet::new();
    let first: Vec<bool> = body
        .iter()
        .map(|atom| {
            seen.insert(match atom {
                Atom::Eq(s, t) if flipped => Seen::Eq(s.min(t), s.max(t)),
                atom => Seen::Atom(atom),
            })
        })
        .collect();
    let mut first = first.into_iter();
    body.retain(|_| first.next().unwrap_or(true));
}

/// Remove trivially true equalities `t = t`. One that projects (`Y.p =
/// Y.p`) stays: it holds only where `p` is present.
fn drop_trivial_equalities(body: &mut Vec<Atom>) {
    body.retain(|atom| !matches!(atom, Atom::Eq(s, t) if s == t && !projects(s)));
}

/// Whether a term contains a projection.
fn projects(term: &Term) -> bool {
    match term {
        Term::Var(_) | Term::Const(_) => false,
        Term::Proj(..) => true,
        Term::Variant(_, t) => projects(t),
        Term::Record(fields) | Term::Skolem(_, SkolemArgs::Named(fields)) => {
            fields.iter().any(|(_, t)| projects(t))
        }
        Term::Skolem(_, SkolemArgs::Positional(ts)) => ts.iter().any(projects),
    }
}

/// Detect bodies that can never be satisfied: a variable or attribute equated
/// with two different constants, or two different constants equated directly
/// (by the query language's comparison, [`PushOp::holds`]).
pub(crate) fn body_unsatisfiable(body: &[Atom]) -> bool {
    let equal = |a: &Value, b: &Value| PushOp::Eq.holds(a.into(), b.into()) == Some(true);
    // Direct constant conflicts.
    for atom in body {
        match atom {
            Atom::Eq(Term::Const(a), Term::Const(b)) if !equal(a, b) => return true,
            Atom::Neq(Term::Const(a), Term::Const(b)) if equal(a, b) => return true,
            _ => {}
        }
    }
    // A term (rendered syntactically) equated with two distinct constants.
    let mut constant_of: BTreeMap<String, &Value> = BTreeMap::new();
    for atom in body {
        let Atom::Eq(s, t) = atom else { continue };
        let (term, constant) = match (s, t) {
            (Term::Const(c), other) if !matches!(other, Term::Const(_)) => (other, c),
            (other, Term::Const(c)) if !matches!(other, Term::Const(_)) => (other, c),
            _ => continue,
        };
        let key = wol_lang::render_term(term);
        match constant_of.get(&key) {
            Some(existing) if !equal(existing, constant) => return true,
            _ => {
                constant_of.insert(key, constant);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wol_lang::ast::SkolemArgs;
    use wol_lang::parse_clause;

    fn clause_with_body(body_text: &str) -> NormalClause {
        let parsed = parse_clause(&format!("H = 1 <= {body_text}")).unwrap();
        NormalClause {
            class: ClassName::new("CountryT"),
            key: SkolemArgs::Named(vec![("name".into(), Term::var("N"))]),
            attrs: BTreeMap::from([("name".into(), Term::var("N"))]),
            body: parsed.body,
            creates: true,
            provenance: vec!["test".to_string()],
        }
    }

    fn country_key() -> SourceKeys {
        BTreeMap::from([(ClassName::new("CountryE"), vec![Path::parse("name")])])
    }

    #[test]
    fn example_4_1_self_join_eliminated() {
        // Derived clause of Example 4.1: the product of CountryE with itself.
        let clause = clause_with_body(
            "Y in CountryE, Y.name = N, Y.language = L, Z in CountryE, Z.name = N, Z.currency = C",
        );
        let before = clause.body.len();
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        // Z is replaced by Y and the duplicate membership/equation dropped.
        assert!(optimised.body.len() < before);
        let rendered: Vec<String> = optimised.body.iter().map(wol_lang::render_atom).collect();
        assert!(rendered.iter().any(|a| a == "Y.currency = C"));
        assert!(!rendered.iter().any(|a| a.contains('Z')));
    }

    #[test]
    fn direct_path_equality_also_merges() {
        let clause = clause_with_body(
            "Y in CountryE, Z in CountryE, Y.name = Z.name, Z.currency = C, Y.name = N",
        );
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        assert!(!optimised
            .body
            .iter()
            .any(|a| wol_lang::render_atom(a).contains('Z')));
    }

    #[test]
    fn no_merge_without_key_constraint() {
        let clause = clause_with_body(
            "Y in CountryE, Y.name = N, Z in CountryE, Z.name = N, Z.currency = C",
        );
        let before = clause.body.len();
        let optimised = optimize_clause(clause, &SourceKeys::new()).unwrap();
        assert_eq!(optimised.body.len(), before);
    }

    #[test]
    fn no_merge_when_key_paths_differ() {
        // Equated on language, but the key is name: not mergeable.
        let clause = clause_with_body(
            "Y in CountryE, Y.language = L, Z in CountryE, Z.language = L, Z.name = N, Y.name = M",
        );
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        assert!(optimised
            .body
            .iter()
            .any(|a| wol_lang::render_atom(a).contains('Z')));
    }

    #[test]
    fn composite_keys_require_all_paths() {
        let keys: SourceKeys = BTreeMap::from([(
            ClassName::new("CityE"),
            vec![Path::parse("name"), Path::parse("country")],
        )]);
        // Only the name is equated: no merge.
        let clause =
            clause_with_body("Y in CityE, Y.name = N, Z in CityE, Z.name = N, Z.is_capital = B");
        let optimised = optimize_clause(clause, &keys).unwrap();
        assert!(optimised
            .body
            .iter()
            .any(|a| wol_lang::render_atom(a).contains('Z')));
        // Both name and country equated: merge.
        let clause = clause_with_body(
            "Y in CityE, Y.name = N, Y.country = K, Z in CityE, Z.name = N, Z.country = K, Z.is_capital = B",
        );
        let optimised = optimize_clause(clause, &keys).unwrap();
        assert!(!optimised
            .body
            .iter()
            .any(|a| wol_lang::render_atom(a).contains('Z')));
    }

    #[test]
    fn chained_merges_reach_fixpoint() {
        // Three copies of the same country collapse to one.
        let clause = clause_with_body(
            "A in CountryE, A.name = N, B in CountryE, B.name = N, C in CountryE, C.name = N, \
             A.language = L, B.currency = Cur, C.language = L2",
        );
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        let memberships = optimised
            .body
            .iter()
            .filter(|a| matches!(a, Atom::Member(_, _)))
            .count();
        assert_eq!(memberships, 1);
    }

    /// Example 4.1's merge renames the dropped variable in the key and the
    /// attributes, not only in the body.
    #[test]
    fn merged_variables_are_renamed_in_the_head() {
        let mut clause = clause_with_body("Y in CountryE, Z in CountryE, Y.name = Z.name");
        clause.key = SkolemArgs::Named(vec![("name".into(), Term::var("Z").proj("name"))]);
        clause.attrs = BTreeMap::from([("currency".into(), Term::var("Z").proj("currency"))]);
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        // `Y.name = Y.name` stays: it holds only where `name` is present.
        assert_eq!(
            optimised.render(),
            "Mk_CountryT(name = Y.name) in CountryT, \
             Mk_CountryT(name = Y.name).currency = Y.currency <= Y in CountryE, Y.name = Y.name;"
        );
    }

    /// An equality of Skolem terms (under one variant label) is an equality
    /// of their keys, field by field, which then drives the self-join merge.
    #[test]
    fn skolem_equalities_split_into_key_equalities() {
        let body = "Y in CountryE, Z in CountryE, \
                    ins_euro_city(Mk_CountryT(name = Y.name, language = Y.language)) = \
                    ins_euro_city(Mk_CountryT(language = Z.language, name = Z.name))";
        let split = optimize_clause(clause_with_body(body), &SourceKeys::new()).unwrap();
        let rendered: Vec<String> = split.body.iter().map(wol_lang::render_atom).collect();
        assert_eq!(
            rendered,
            [
                "Y in CountryE",
                "Z in CountryE",
                "Y.language = Z.language",
                "Y.name = Z.name"
            ]
        );
        let merged = optimize_clause(clause_with_body(body), &country_key()).unwrap();
        let rendered: Vec<String> = merged.body.iter().map(wol_lang::render_atom).collect();
        assert_eq!(
            rendered,
            [
                "Y in CountryE",
                "Y.language = Y.language",
                "Y.name = Y.name"
            ]
        );
        // Positional keys split position by position; shapes that differ stay.
        let positional = clause_with_body("Y in CountryE, Mk_C(Y.name, 1) = Mk_C(N, M)");
        let rendered: Vec<String> = optimize_clause(positional, &SourceKeys::new())
            .unwrap()
            .body
            .iter()
            .map(wol_lang::render_atom)
            .collect();
        assert_eq!(rendered, ["Y in CountryE", "Y.name = N", "1 = M"]);
        let shapes = clause_with_body("Y in CountryE, Mk_C(N) = Mk_C(name = N)");
        let optimised = optimize_clause(shapes.clone(), &SourceKeys::new()).unwrap();
        assert_eq!(optimised.body, shapes.body);
    }

    /// Two classes, or two variant labels, never compare equal.
    #[test]
    fn mismatched_skolem_classes_and_variant_labels_are_pruned() {
        for body in [
            "Y in CountryE, Mk_CountryT(name = Y.name) = Mk_CityT(name = Y.name)",
            "Y in CountryE, ins_state(Y) = ins_euro_city(Y)",
            "Y in CountryE, ins_a(Mk_C(Y.name)) = ins_a(Mk_D(Y.name))",
        ] {
            assert!(optimize_clause(clause_with_body(body), &country_key()).is_none());
        }
    }

    #[test]
    fn unsatisfiable_constant_conflict_pruned() {
        let clause =
            clause_with_body("Y in CountryE, Y.name = N, Y.is_big = true, Y.is_big = false");
        assert!(optimize_clause(clause, &country_key()).is_none());
        let clause = clause_with_body("Y in CountryE, Y.name = N, \"a\" = \"b\"");
        assert!(optimize_clause(clause, &country_key()).is_none());
        let clause = clause_with_body("Y in CountryE, Y.name = N, 1 != 1");
        assert!(optimize_clause(clause, &country_key()).is_none());
    }

    #[test]
    fn satisfiable_bodies_kept() {
        let clause = clause_with_body("Y in CountryE, Y.name = N, Y.is_big = true");
        assert!(optimize_clause(clause, &country_key()).is_some());
    }

    #[test]
    fn duplicate_and_trivial_atoms_removed() {
        let clause =
            clause_with_body("Y in CountryE, Y in CountryE, Y.name = N, Y.name = N, N = N");
        let optimised = optimize_clause(clause, &country_key()).unwrap();
        assert_eq!(optimised.body.len(), 2);
    }

    fn folded(body_text: &str) -> Option<Vec<String>> {
        let folded = fold_witnesses(&clause_with_body(body_text))?;
        Some(folded.body.iter().map(wol_lang::render_atom).collect())
    }

    /// Clause G5 of the genome program, unfolded: `W` only re-reads
    /// `S.name`, so it folds into `S` and the flipped duplicate of
    /// `N = S.name` goes. Without a source key, the normal form keeps it.
    #[test]
    fn a_witness_folds_into_the_scan_it_re_reads() {
        let body = "S in MarkerS, N = S.name, P = S.position, W in MarkerS, W.name = N";
        assert_eq!(
            folded(body).unwrap(),
            ["S in MarkerS", "N = S.name", "P = S.position"]
        );
        let normal = optimize_clause(clause_with_body(body), &SourceKeys::new()).unwrap();
        assert_eq!(normal.body, clause_with_body(body).body);
        // Either scan may be the witness; the later one folds when both are.
        assert_eq!(
            folded("W in MarkerS, W.name = N, S in MarkerS, N = S.name, P = S.position").unwrap(),
            ["S in MarkerS", "S.name = N", "P = S.position"]
        );
        assert_eq!(
            folded("A in C, A.name = N, B in C, B.name = N, D in C, D.name = N").unwrap(),
            ["A in C", "A.name = N"]
        );
    }

    /// A direct `Y.name = Z.name` folds to `Y.name = Y.name`, which stays:
    /// `Y` must still have a name. A head use of `Z.v` equated with `Y.v`
    /// is renamed.
    #[test]
    fn a_fold_keeps_the_self_equality_that_requires_the_path() {
        let mut clause = clause_with_body("Y in C, Z in C, Y.name = Z.name, Y.v = Z.v");
        clause.attrs = BTreeMap::from([("v".into(), Term::var("Z").proj("v"))]);
        let folded = fold_witnesses(&clause).unwrap();
        assert_eq!(
            folded.render(),
            "Mk_CountryT(name = N) in CountryT, Mk_CountryT(name = N).v = Y.v \
             <= Y in C, Y.name = Y.name, Y.v = Y.v;"
        );
    }

    #[test]
    fn scans_that_are_not_witnesses_stay() {
        for body in [
            // A bare use: `W` itself is compared.
            "S in MarkerS, N = S.name, W in MarkerS, W.name = N, S.ref = W",
            // Each scan reads a path the other's is not equated with.
            "S in MarkerS, N = S.name, P = S.position, W in MarkerS, W.name = N, W.position = Q",
            // Two classes.
            "S in MarkerS, N = S.name, W in CloneS, W.name = N",
            // An inequality on a path the kept scan lacks.
            "S in MarkerS, N = S.name, P = S.position, W in MarkerS, W.name = N, W.lab != \"x\"",
            // A membership the kept scan lacks.
            "S in MarkerS, N = S.name, P = S.position, W in MarkerS, W.name = N, W in Flagged",
        ] {
            assert_eq!(folded(body), None, "{body}");
        }
    }

    #[test]
    fn body_unsatisfiable_detects_shared_attribute_conflicts() {
        let parsed = parse_clause("H = 1 <= Y.kind = \"a\", Y.kind = \"b\"").unwrap();
        assert!(body_unsatisfiable(&parsed.body));
        let parsed = parse_clause("H = 1 <= Y.kind = \"a\", Y.kind = \"a\"").unwrap();
        assert!(!body_unsatisfiable(&parsed.body));
    }
}
