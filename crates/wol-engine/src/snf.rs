//! Semi-normal form (snf).
//!
//! "The clauses are first rewritten into semi-normal form (snf), which reduces
//! the number of forms the atoms of a clause can take, so that any two
//! equivalent clauses or sets of atoms will differ only in their choice of
//! variables. This simplifies the unification of clauses, as well as the
//! book-keeping necessary for optimizations." (Section 5)
//!
//! In semi-normal form every atom is *flat*:
//!
//! * `X in C` — membership of a variable;
//! * `X = Y` — equality of variables;
//! * `X = c` — a variable equals a constant;
//! * `X = Y.a` — a variable equals a single projection of a variable;
//! * `X = ins_a(Y)` — a variable equals a variant injection of a variable;
//! * `X = Mk_C(Y1, ..)` / `X = Mk_C(a = Y1, ..)` — a variable equals a Skolem
//!   term over variables;
//! * `X = (a1 = Y1, ...)` — a variable equals a record of variables;
//! * comparison and set-membership atoms over variables.
//!
//! Nested terms are flattened by introducing fresh variables (named `_snfN`).

use wol_lang::ast::{Atom, Clause, SkolemArgs, Term, Var};
use wol_model::{Label, Value};

/// A generator of fresh variables used during flattening.
#[derive(Debug, Default)]
pub(crate) struct FreshVars {
    counter: usize,
}

impl FreshVars {
    /// Create a generator; fresh variables are named `_snf0`, `_snf1`, ...
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Produce a fresh variable name.
    pub(crate) fn fresh(&mut self) -> Var {
        let v = format!("_snf{}", self.counter);
        self.counter += 1;
        v
    }
}

/// Is a term already "simple" (a variable or a constant of a base type)?
fn is_simple(term: &Term) -> bool {
    matches!(term, Term::Var(_)) || matches!(term, Term::Const(_))
}

/// Flatten a term to a simple term, emitting defining atoms into `out`.
fn flatten_term(term: &Term, fresh: &mut FreshVars, out: &mut Vec<Atom>) -> Term {
    match term {
        Term::Var(_) | Term::Const(_) => term.clone(),
        Term::Proj(base, label) => {
            let base_simple = flatten_to_var(base, fresh, out);
            let v = fresh.fresh();
            out.push(Atom::Eq(
                Term::Var(v.clone()),
                Term::Proj(Box::new(base_simple), label.clone()),
            ));
            Term::Var(v)
        }
        Term::Variant(label, payload) => {
            let payload_simple = if **payload == Term::Const(Value::Unit) {
                Term::Const(Value::Unit)
            } else {
                flatten_term(payload, fresh, out)
            };
            let v = fresh.fresh();
            out.push(Atom::Eq(
                Term::Var(v.clone()),
                Term::Variant(label.clone(), Box::new(payload_simple)),
            ));
            Term::Var(v)
        }
        Term::Record(fields) => {
            let flat_fields: Vec<(Label, Term)> = fields
                .iter()
                .map(|(l, t)| (l.clone(), flatten_term(t, fresh, out)))
                .collect();
            let v = fresh.fresh();
            out.push(Atom::Eq(Term::Var(v.clone()), Term::Record(flat_fields)));
            Term::Var(v)
        }
        Term::Skolem(class, args) => {
            let flat_args = match args {
                SkolemArgs::Positional(ts) => {
                    SkolemArgs::Positional(ts.iter().map(|t| flatten_term(t, fresh, out)).collect())
                }
                SkolemArgs::Named(fs) => SkolemArgs::Named(
                    fs.iter()
                        .map(|(l, t)| (l.clone(), flatten_term(t, fresh, out)))
                        .collect(),
                ),
            };
            let v = fresh.fresh();
            out.push(Atom::Eq(
                Term::Var(v.clone()),
                Term::Skolem(class.clone(), flat_args),
            ));
            Term::Var(v)
        }
    }
}

/// Flatten a term into a *variable* (introducing a defining atom for constants
/// only if needed as a projection base).
fn flatten_to_var(term: &Term, fresh: &mut FreshVars, out: &mut Vec<Atom>) -> Term {
    match term {
        Term::Var(_) => term.clone(),
        _ => flatten_term(term, fresh, out),
    }
}

/// Flatten one atom into a list of snf atoms.
fn flatten_atom(atom: &Atom, fresh: &mut FreshVars) -> Vec<Atom> {
    let mut out = Vec::new();
    let flattened = match atom {
        Atom::Member(t, c) => {
            let simple = flatten_to_var(t, fresh, &mut out);
            Atom::Member(simple, c.clone())
        }
        Atom::Eq(s, t) => {
            // Keep one level of structure on the right-hand side so the atom
            // shapes listed in the module documentation are produced; deeper
            // structure is flattened out.
            match (is_simple(s), depth_one(t)) {
                (true, true) => Atom::Eq(s.clone(), shallow_flatten(t, fresh, &mut out)),
                _ => match (depth_one(s), is_simple(t)) {
                    (true, true) => Atom::Eq(shallow_flatten(s, fresh, &mut out), t.clone()),
                    _ => {
                        let fs = flatten_term(s, fresh, &mut out);
                        let ft = flatten_term(t, fresh, &mut out);
                        Atom::Eq(fs, ft)
                    }
                },
            }
        }
        Atom::Neq(s, t) => Atom::Neq(
            flatten_term(s, fresh, &mut out),
            flatten_term(t, fresh, &mut out),
        ),
        Atom::Lt(s, t) => Atom::Lt(
            flatten_term(s, fresh, &mut out),
            flatten_term(t, fresh, &mut out),
        ),
        Atom::Leq(s, t) => Atom::Leq(
            flatten_term(s, fresh, &mut out),
            flatten_term(t, fresh, &mut out),
        ),
        Atom::InSet(s, t) => Atom::InSet(
            flatten_term(s, fresh, &mut out),
            flatten_term(t, fresh, &mut out),
        ),
    };
    out.push(flattened);
    out
}

/// Does the term have at most one level of structure over simple terms?
fn depth_one(term: &Term) -> bool {
    match term {
        Term::Var(_) | Term::Const(_) => true,
        Term::Proj(base, _) => is_simple(base),
        Term::Variant(_, payload) => is_simple(payload),
        Term::Record(fields) => fields.iter().all(|(_, t)| is_simple(t)),
        Term::Skolem(_, args) => args.terms().iter().all(|t| is_simple(t)),
    }
}

/// Flatten only the sub-terms of a depth-one term.
fn shallow_flatten(term: &Term, fresh: &mut FreshVars, out: &mut Vec<Atom>) -> Term {
    match term {
        Term::Proj(base, label) => {
            Term::Proj(Box::new(flatten_to_var(base, fresh, out)), label.clone())
        }
        other => other.clone(),
    }
}

/// Rewrite a clause into semi-normal form.
pub(crate) fn to_snf(clause: &Clause) -> Clause {
    let mut fresh = FreshVars::new();
    let mut head = Vec::new();
    for atom in &clause.head {
        head.extend(flatten_atom(atom, &mut fresh));
    }
    let mut body = Vec::new();
    for atom in &clause.body {
        body.extend(flatten_atom(atom, &mut fresh));
    }
    Clause {
        head,
        body,
        label: clause.label.clone(),
    }
}

/// Rewrite a whole program's clauses into semi-normal form.
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
pub fn program_to_snf(clauses: &[Clause]) -> Vec<Clause> {
    clauses.iter().map(to_snf).collect()
}

/// Statistics comparing a clause before and after snf rewriting.
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnfStats {
    /// Atoms before rewriting.
    pub atoms_before: usize,
    /// Atoms after rewriting.
    pub atoms_after: usize,
    /// Fresh variables introduced.
    pub fresh_vars: usize,
}

/// Compute snf statistics for a set of clauses.
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
pub fn snf_stats(before: &[Clause], after: &[Clause]) -> SnfStats {
    let atoms_before = before.iter().map(Clause::len).sum();
    let atoms_after = after.iter().map(Clause::len).sum();
    let fresh_vars = after
        .iter()
        .flat_map(|c| c.variables())
        .filter(|v| v.starts_with("_snf"))
        .count();
    SnfStats {
        atoms_before,
        atoms_after,
        fresh_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::parse_clause;

    fn is_snf_atom(atom: &Atom) -> bool {
        let simple = |t: &Term| matches!(t, Term::Var(_) | Term::Const(_));
        match atom {
            Atom::Member(t, _) => simple(t),
            Atom::Eq(s, t) => (simple(s) && depth_one(t)) || (depth_one(s) && simple(t)),
            Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) | Atom::InSet(s, t) => {
                simple(s) && simple(t)
            }
        }
    }

    #[test]
    fn already_flat_clause_unchanged_in_shape() {
        let c = parse_clause("X.state = Y <= Y in StateA, X = Y.capital").unwrap();
        let snf = to_snf(&c);
        assert_eq!(snf.head.len(), 1);
        assert_eq!(snf.body.len(), 2);
        assert!(snf.head.iter().chain(snf.body.iter()).all(is_snf_atom));
    }

    #[test]
    fn nested_projection_is_flattened() {
        // E.country.name is a two-step projection: snf introduces a variable
        // for E.country.
        let c = parse_clause("X.name = E.country.name <= E in CityE, X in CountryT").unwrap();
        let snf = to_snf(&c);
        assert!(snf.head.iter().chain(snf.body.iter()).all(is_snf_atom));
        assert!(snf.variables().iter().any(|v| v.starts_with("_snf")));
        // The flattened clause mentions E.country via a fresh variable.
        let rendered = wol_lang::render_clause(&snf);
        assert!(rendered.contains("_snf"));
        assert!(rendered.contains(".country"));
        assert!(rendered.contains(".name"));
    }

    #[test]
    fn variant_of_projection_flattened() {
        let c =
            parse_clause("Y.place = ins_euro_city(E.country) <= E in CityE, Y in CityT").unwrap();
        let snf = to_snf(&c);
        assert!(snf.head.iter().chain(snf.body.iter()).all(is_snf_atom));
    }

    #[test]
    fn skolem_over_nested_terms_flattened() {
        let c = parse_clause(
            "X = Mk_CityT(name = E.name, country = Mk_CountryT(E.country.name)) <= E in CityE",
        )
        .unwrap();
        let snf = to_snf(&c);
        assert!(snf.head.iter().chain(snf.body.iter()).all(is_snf_atom));
        // The nested Skolem and projection each got a defining atom.
        assert!(snf.len() > c.len());
    }

    #[test]
    fn snf_preserves_label_and_counts_stats() {
        let c = parse_clause("T2: Y.name = E.country.name <= E in CityE, Y in CityT").unwrap();
        let snf = to_snf(&c);
        assert_eq!(snf.label.as_deref(), Some("T2"));
        let stats = snf_stats(std::slice::from_ref(&c), std::slice::from_ref(&snf));
        assert!(stats.atoms_after > stats.atoms_before);
        assert!(stats.fresh_vars >= 1);
    }

    #[test]
    fn program_to_snf_rewrites_each_clause() {
        let clauses = wol_lang::parse_program(
            "T1: X in CountryT, X.name = E.name <= E in CountryE;\n\
             T2: Y.name = E.country.name <= E in CityE, Y in CityT;",
        )
        .unwrap();
        let snf = program_to_snf(&clauses);
        assert_eq!(snf.len(), 2);
        assert!(snf[1].len() > clauses[1].len());
    }

    #[test]
    fn equivalent_clauses_differ_only_in_variables() {
        // Two alpha-equivalent clauses produce snf clauses of identical shape.
        let a = parse_clause("X.name = E.country.name <= E in CityE, X in CountryT").unwrap();
        let b = parse_clause("P.name = Q.country.name <= Q in CityE, P in CountryT").unwrap();
        let sa = to_snf(&a);
        let sb = to_snf(&b);
        assert_eq!(sa.len(), sb.len());
        let shape = |c: &Clause| {
            c.head
                .iter()
                .chain(c.body.iter())
                .map(std::mem::discriminant)
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&sa), shape(&sb));
    }
}
