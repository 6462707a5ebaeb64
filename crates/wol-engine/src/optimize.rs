//! Optimisation of derived clauses using source constraints (Section 4.2).
//!
//! "Source database constraints play an important part in optimizing this
//! process, both by simplifying the derived rules and by causing unsatisfiable
//! rules to be rejected." The two optimisations implemented here are exactly
//! the ones the paper's Example 4.1 illustrates:
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
//! **Collisions.** Two keys whose identities hash alike are detected where an
//! identity is *minted*, as `ModelError::SkolemCollision`. A comparison the
//! split rewrites no longer mints, so it treats the two keys as distinct —
//! what `Mk_C` means when it is injective.

use std::collections::{BTreeMap, HashSet};

use wol_lang::ast::{Atom, SkolemArgs, Term, Var};
use wol_model::{ClassName, Path, Value};

use crate::normalize::NormalClause;

/// Source keys: for each source class, the attribute paths that jointly form a
/// key (from merge-style key constraints such as clause (C8)).
pub type SourceKeys = BTreeMap<ClassName, Vec<Path>>;

/// Optimise a normal clause: simplify its body with the given source keys and
/// prune it entirely if the body is unsatisfiable. Returns `None` when the
/// clause is pruned.
pub fn optimize_clause(clause: NormalClause, source_keys: &SourceKeys) -> Option<NormalClause> {
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
    let (mut key, mut attrs) = (clause.key, clause.attrs);
    // Iterate self-join elimination to a fixpoint: merging two variables may
    // enable further merges.
    while let Some((keep, drop)) = find_mergeable_pair(&body, source_keys) {
        let subst: BTreeMap<Var, Term> = BTreeMap::from([(drop, Term::Var(keep))]);
        body = body.iter().map(|a| a.substitute(&subst)).collect();
        key = key.map(|t| t.substitute(&subst));
        for term in attrs.values_mut() {
            *term = term.substitute(&subst);
        }
        dedup_atoms(&mut body);
    }
    dedup_atoms(&mut body);
    drop_trivial_equalities(&mut body);
    if body_unsatisfiable(&body) {
        return None;
    }
    Some(NormalClause {
        key,
        attrs,
        body,
        ..clause
    })
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

/// Find a pair of body variables `(keep, drop)` ranging over the same keyed
/// source class whose key paths are all equated in the body.
fn find_mergeable_pair(body: &[Atom], source_keys: &SourceKeys) -> Option<(Var, Var)> {
    // Collect membership variables per keyed class.
    let mut members: BTreeMap<ClassName, Vec<Var>> = BTreeMap::new();
    for atom in body {
        if let Atom::Member(Term::Var(v), class) = atom {
            if source_keys.contains_key(class) {
                let entry = members.entry(class.clone()).or_default();
                if !entry.contains(v) {
                    entry.push(v.clone());
                }
            }
        }
    }
    for (class, vars) in &members {
        let key_paths = &source_keys[class];
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                let a = &vars[i];
                let b = &vars[j];
                if key_paths.iter().all(|p| paths_equated(body, a, b, p)) {
                    return Some((a.clone(), b.clone()));
                }
            }
        }
    }
    None
}

/// Is `a.path` known to equal `b.path` in the body — either directly
/// (`a.p = b.p`) or through a shared variable or constant
/// (`a.p = N, b.p = N`)?
fn paths_equated(body: &[Atom], a: &str, b: &str, path: &Path) -> bool {
    let rhs_of = |var: &str| -> Vec<&Term> {
        body.iter()
            .filter_map(|atom| {
                let Atom::Eq(s, t) = atom else { return None };
                for (proj, other) in [(s, t), (t, s)] {
                    if let Some((base, labels)) = proj.as_var_path() {
                        if base == var && !labels.is_empty() {
                            let p = Path::new(labels.iter().map(|l| l.to_string()));
                            if &p == path {
                                return Some(other);
                            }
                        }
                    }
                }
                None
            })
            .collect()
    };
    let a_terms = rhs_of(a);
    let b_terms = rhs_of(b);
    for at in &a_terms {
        for bt in &b_terms {
            let linked = match (at, bt) {
                (Term::Var(x), Term::Var(y)) => x == y,
                (Term::Const(x), Term::Const(y)) => x == y,
                _ => false,
            };
            if linked {
                return true;
            }
            // Direct form `a.p = b.p`: the rhs of `a` is the projection of `b`.
            if let Some((base, labels)) = at.as_var_path() {
                if base == b && &Path::new(labels.iter().map(|l| l.to_string())) == path {
                    return true;
                }
            }
            if let Some((base, labels)) = bt.as_var_path() {
                if base == a && &Path::new(labels.iter().map(|l| l.to_string())) == path {
                    return true;
                }
            }
        }
    }
    // Direct `a.p = b.p` with no other equations.
    for atom in body {
        if let Atom::Eq(s, t) = atom {
            for (x, y) in [(s, t), (t, s)] {
                if let (Some((bx, lx)), Some((by, ly))) = (x.as_var_path(), y.as_var_path()) {
                    if bx == a
                        && by == b
                        && &Path::new(lx.iter().map(|l| l.to_string())) == path
                        && &Path::new(ly.iter().map(|l| l.to_string())) == path
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Remove duplicate atoms, preserving first occurrences.
fn dedup_atoms(body: &mut Vec<Atom>) {
    let mut seen = HashSet::new();
    let first: Vec<bool> = body.iter().map(|atom| seen.insert(atom)).collect();
    let mut first = first.into_iter();
    body.retain(|_| first.next().unwrap_or(true));
}

/// Remove trivially true equalities `t = t`.
fn drop_trivial_equalities(body: &mut Vec<Atom>) {
    body.retain(|atom| !matches!(atom, Atom::Eq(s, t) if s == t));
}

/// Detect bodies that can never be satisfied: a variable or attribute equated
/// with two different constants, or two different constants equated directly.
pub fn body_unsatisfiable(body: &[Atom]) -> bool {
    // Direct constant conflicts.
    for atom in body {
        if let Atom::Eq(Term::Const(a), Term::Const(b)) = atom {
            if a != b {
                return true;
            }
        }
        if let Atom::Neq(Term::Const(a), Term::Const(b)) = atom {
            if a == b {
                return true;
            }
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
            Some(existing) if *existing != constant => return true,
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
        assert_eq!(
            optimised.render(),
            "Mk_CountryT(name = Y.name) in CountryT, \
             Mk_CountryT(name = Y.name).currency = Y.currency <= Y in CountryE;"
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
        assert_eq!(rendered, ["Y in CountryE"]);
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

    #[test]
    fn body_unsatisfiable_detects_shared_attribute_conflicts() {
        let parsed = parse_clause("H = 1 <= Y.kind = \"a\", Y.kind = \"b\"").unwrap();
        assert!(body_unsatisfiable(&parsed.body));
        let parsed = parse_clause("H = 1 <= Y.kind = \"a\", Y.kind = \"a\"").unwrap();
        assert!(!body_unsatisfiable(&parsed.body));
    }
}
