//! What a clause reads: one syntactic walk over a WOL clause's terms.
//!
//! The federation's ingest projections, the standing pipeline's foreign
//! reads and the incremental constraint checker's locality are all the same
//! static fact about a clause — which classes and attributes its atoms read
//! through the variables its member atoms bind — so they all read it off one
//! [`ReadSet`]. The walk is untyped: a consumer that needs the type of a
//! projection base the walk could not attribute to a member-bound variable
//! (the [`ReadSet::uncovered`] bases) types it itself.

use std::collections::{BTreeMap, BTreeSet};

use wol_lang::ast::{Atom, Clause, Term, Var};
use wol_model::{ClassName, Label};

use crate::normalize::NormalClause;

/// The read set of one clause, borrowed from it.
#[derive(Debug, Default)]
pub struct ReadSet<'c> {
    /// Variables a member atom `X in C` binds, with their class (a variable
    /// two member atoms bind keeps the later atom's class).
    pub members: BTreeMap<&'c Var, &'c ClassName>,
    /// Per class, the attributes projected off its member-bound variables.
    pub projected: BTreeMap<&'c ClassName, BTreeSet<&'c Label>>,
    /// Classes whose member-bound variable is used whole: anywhere but as a
    /// projection base or in its own member atom.
    pub whole: BTreeSet<&'c ClassName>,
    /// Every projection base that is not a member-bound variable, in walk
    /// order.
    pub uncovered: Vec<&'c Term>,
    /// Whether a body member atom ranges over a computed term.
    pub computed_member: bool,
}

impl<'c> ReadSet<'c> {
    /// The read set of a clause: the member atoms of body and head bind, and
    /// every atom's terms are walked.
    pub fn of_clause(clause: &'c Clause) -> Self {
        let mut set = ReadSet::default();
        set.bind(&clause.body, true);
        set.bind(&clause.head, false);
        for atom in clause.body.iter().chain(&clause.head) {
            set.atom(atom);
        }
        set
    }

    /// The read set of a normal clause: its body's member atoms bind, and its
    /// body atoms, key and attribute terms are walked.
    pub fn of_normal(clause: &'c NormalClause) -> Self {
        let mut set = ReadSet::default();
        set.bind(&clause.body, true);
        clause.body.iter().for_each(|a| set.atom(a));
        let head = clause.key.terms().into_iter().chain(clause.attrs.values());
        head.for_each(|t| set.term(t));
        set
    }

    /// Whether the read set is exact for incremental constraint checking: a
    /// binding that contains no changed object then evaluates every atom to
    /// the same truth value before and after a batch. A computed body member
    /// can gain bindings when the class it reads through grows, and an
    /// uncovered base reads objects no binding names.
    pub fn is_local(&self) -> bool {
        self.uncovered.is_empty() && !self.computed_member
    }

    fn bind(&mut self, atoms: &'c [Atom], body: bool) {
        for atom in atoms {
            match atom {
                Atom::Member(Term::Var(var), class) => {
                    self.members.insert(var, class);
                }
                Atom::Member(..) => self.computed_member |= body,
                _ => {}
            }
        }
    }

    fn atom(&mut self, atom: &'c Atom) {
        match atom {
            // A member atom's own variable is its binding, not a use.
            Atom::Member(Term::Var(_), _) => {}
            Atom::Member(term, _) => self.term(term),
            Atom::Eq(s, t)
            | Atom::Neq(s, t)
            | Atom::Lt(s, t)
            | Atom::Leq(s, t)
            | Atom::InSet(s, t) => {
                self.term(s);
                self.term(t);
            }
        }
    }

    fn term(&mut self, term: &'c Term) {
        match term {
            Term::Var(var) => {
                if let Some(&class) = self.members.get(var) {
                    self.whole.insert(class);
                }
            }
            Term::Const(_) => {}
            Term::Proj(base, label) => {
                if let Term::Var(var) = base.as_ref() {
                    if let Some(&class) = self.members.get(var) {
                        self.projected.entry(class).or_default().insert(label);
                        return;
                    }
                }
                self.uncovered.push(base);
                self.term(base);
            }
            Term::Record(fields) => fields.iter().for_each(|(_, t)| self.term(t)),
            Term::Variant(_, t) => self.term(t),
            Term::Skolem(_, args) => args.terms().into_iter().for_each(|t| self.term(t)),
        }
    }
}
