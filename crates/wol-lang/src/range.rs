//! Range-restriction (safety) analysis of WOL clauses (Section 3.1).
//!
//! "The concept of range-restriction is used to ensure that every variable in
//! the clause is bound to some object or value occurring in the database
//! instance in order for the atoms of a clause to be true. This is similar to
//! the idea of safety in Datalog clauses."
//!
//! The analysis computes the set of *bound* variables as a fixpoint:
//!
//! * a variable `X` is bound if `X in C` appears (class membership produces a
//!   binding by ranging over the extent of `C`);
//! * if one side of an equality has only bound variables, then the variables
//!   in *invertible positions* of the other side become bound — the whole
//!   side when it is a variable, the fields of a record term, the payload of a
//!   variant term, and the arguments of a Skolem term (Skolem functions are
//!   injective);
//! * comparison atoms (`<`, `=<`, `!=`) never bind;
//! * a set membership `E member S` whose set side has only bound variables
//!   binds the invertible positions of `E` (it enumerates the set's
//!   elements, as the matcher's `InSetBind` step does).
//!
//! Body atoms are processed first, then head atoms (head-only variables such
//! as the target object of a transformation clause are bound by head
//! membership or Skolem equations). A clause is range-restricted iff every
//! variable ends up bound. The paper's non-example — `X.population < Y <=
//! X in CityA` — is rejected because `Y` is never bound.

use std::collections::BTreeSet;

use crate::ast::{Atom, Clause, Term, Var};
use crate::error::LangError;
use crate::Result;

/// Report on the binding analysis of a clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeReport {
    /// Variables bound by the body alone.
    pub bound_in_body: BTreeSet<Var>,
    /// Variables bound after also considering head atoms.
    pub bound: BTreeSet<Var>,
    /// Variables that could not be bound.
    pub unbound: BTreeSet<Var>,
}

impl RangeReport {
    /// True if every variable of the clause is bound.
    pub(crate) fn is_range_restricted(&self) -> bool {
        self.unbound.is_empty()
    }
}

/// Variables of a term in invertible positions: binding the term's value also
/// determines these variables.
fn invertible_vars(term: &Term, out: &mut BTreeSet<Var>) {
    match term {
        Term::Var(v) => {
            out.insert(*v);
        }
        Term::Const(_) => {}
        // Projections are not invertible: knowing `X.a` does not determine `X`.
        Term::Proj(_, _) => {}
        Term::Record(fields) => fields.iter().for_each(|(_, t)| invertible_vars(t, out)),
        Term::Variant(_, payload) => invertible_vars(payload, out),
        Term::Skolem(_, args) => args.terms().iter().for_each(|t| invertible_vars(t, out)),
    }
}

/// Whether every variable of `term` is already bound.
fn grounded(term: &Term, bound: &BTreeSet<Var>) -> bool {
    term.var_set().iter().all(|v| bound.contains(v))
}

fn apply_atom(atom: &Atom, bound: &mut BTreeSet<Var>) -> bool {
    let before = bound.len();
    match atom {
        Atom::Member(t, _) => {
            // Membership ranges over the class extent, binding the pattern.
            invertible_vars(t, bound);
        }
        Atom::Eq(s, t) => {
            if grounded(s, bound) {
                invertible_vars(t, bound);
            }
            if grounded(t, bound) {
                invertible_vars(s, bound);
            }
        }
        // Comparisons and set membership test values but do not enumerate them.
        Atom::Neq(_, _) | Atom::Lt(_, _) | Atom::Leq(_, _) => {}
        Atom::InSet(elem, set) => {
            // `E member S` with S bound enumerates the elements of S, binding E.
            if grounded(set, bound) {
                invertible_vars(elem, bound);
            }
        }
    }
    bound.len() != before
}

fn fixpoint(atoms: &[Atom], bound: &mut BTreeSet<Var>) {
    loop {
        let mut changed = false;
        for atom in atoms {
            changed |= apply_atom(atom, bound);
        }
        if !changed {
            break;
        }
    }
}

/// Run the binding analysis and return the full report.
pub(crate) fn analyse(clause: &Clause) -> RangeReport {
    let mut bound = BTreeSet::new();
    fixpoint(&clause.body, &mut bound);
    let bound_in_body = bound.clone();
    // Head atoms may bind head-only (existential) variables.
    let all_atoms: Vec<Atom> = clause
        .body
        .iter()
        .chain(clause.head.iter())
        .cloned()
        .collect();
    fixpoint(&all_atoms, &mut bound);
    let unbound: BTreeSet<Var> = clause
        .variables()
        .into_iter()
        .filter(|v| !bound.contains(v))
        .collect();
    RangeReport {
        bound_in_body,
        bound,
        unbound,
    }
}

/// Check that a clause is range-restricted, returning an error naming the
/// unbound variables otherwise.
pub fn check_range_restricted(clause: &Clause) -> Result<RangeReport> {
    let report = analyse(clause);
    if report.is_range_restricted() {
        Ok(report)
    } else {
        Err(LangError::RangeRestriction {
            clause: clause
                .label
                .clone()
                .unwrap_or_else(|| "<unlabelled>".to_string()),
            unbound: report.unbound.iter().copied().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_clause;

    #[test]
    fn clause_c1_is_range_restricted() {
        let c = parse_clause("X.state = Y <= Y in StateA, X = Y.capital").unwrap();
        let report = check_range_restricted(&c).unwrap();
        assert!(report.bound_in_body.contains("X"));
        assert!(report.bound_in_body.contains("Y"));
    }

    #[test]
    fn papers_unrestricted_example_rejected() {
        // "in the clause X.population < Y <= X in CityA the variable Y is not
        //  range restricted."
        let c = parse_clause("X.population < Y <= X in CityA").unwrap();
        let err = check_range_restricted(&c).unwrap_err();
        match err {
            LangError::RangeRestriction { unbound, .. } => {
                assert_eq!(unbound, vec![Var::new("Y")])
            }
            other => panic!("expected range-restriction error, got {other:?}"),
        }
    }

    #[test]
    fn transformation_clause_head_object_is_bound_by_head_membership() {
        // Clause (T1): X only appears in the head, bound by `X in CountryT`.
        let c = parse_clause(
            "X in CountryT, X.name = E.name, X.language = E.language <= E in CountryE",
        )
        .unwrap();
        let report = check_range_restricted(&c).unwrap();
        assert!(!report.bound_in_body.contains("X"));
        assert!(report.bound.contains("X"));
    }

    #[test]
    fn skolem_equation_binds_target_object() {
        // Clause (T4): X = Mk_CountryT(N) in the head binds X once N is bound.
        let c = parse_clause(
            "X = Mk_CountryT(N), X.language = L <= Y in CountryE, Y.name = N, Y.language = L",
        )
        .unwrap();
        let report = check_range_restricted(&c).unwrap();
        assert!(report.bound.contains("X"));
        assert!(report.bound_in_body.contains("N"));
        assert!(report.bound_in_body.contains("L"));
    }

    #[test]
    fn projection_binds_forward_not_backward() {
        // Knowing Y binds N = Y.name, but knowing X.name does not bind X.
        let c = parse_clause("Z = X.name <= Y in CountryE, X.name = Y.name").unwrap();
        let report = analyse(&c);
        assert!(report.bound.contains("Y"));
        assert!(!report.bound.contains("X"));
        assert!(!report.is_range_restricted());
    }

    #[test]
    fn record_and_variant_patterns_bind_components() {
        let c = parse_clause("K = (name = N, country = C) <= X in CityT, K = X.key, N = N, C = C")
            .unwrap();
        // Simplified: K bound via X.key; record pattern binds N and C.
        let report = analyse(&c);
        assert!(report.bound.contains("N"));
        assert!(report.bound.contains("C"));

        let c = parse_clause("Y.place = ins_euro_city(X) <= Y in CityT").unwrap();
        let report = analyse(&c);
        // Y.place is grounded (Y is bound), so the variant payload X is bound.
        assert!(report.bound.contains("X"));
        assert!(report.is_range_restricted());
    }

    #[test]
    fn member_of_bound_set_binds_element() {
        let c = parse_clause("N = E.name <= X in Cluster, E member X.markers").unwrap();
        let report = analyse(&c);
        assert!(report.bound.contains("E"));
        assert!(report.is_range_restricted());
    }

    #[test]
    fn comparison_atoms_do_not_bind() {
        let c = parse_clause("X != Y <= X in CityA").unwrap();
        let report = analyse(&c);
        assert!(!report.bound.contains("Y"));
        assert!(!report.is_range_restricted());
    }

    #[test]
    fn constants_are_trivially_grounded() {
        let c = parse_clause("X.currency = \"US-Dollars\" <= X in CountryT").unwrap();
        assert!(check_range_restricted(&c).is_ok());
    }

    #[test]
    fn unlabelled_clause_reported_as_such() {
        let c = parse_clause("X.population < Y <= X in CityA").unwrap();
        match check_range_restricted(&c).unwrap_err() {
            LangError::RangeRestriction { clause, .. } => assert_eq!(clause, "<unlabelled>"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
