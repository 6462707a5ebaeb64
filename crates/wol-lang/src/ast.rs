//! Abstract syntax of WOL terms, atoms and clauses.

use std::collections::BTreeSet;

pub use wol_model::Var;
use wol_model::{ClassName, Label, Value};

/// An identifier for a clause within a program (its index plus an optional
/// user-supplied label such as `"T1"` or `"C3"`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClauseId {
    /// Position of the clause in its program.
    pub index: usize,
    /// Optional user-facing label.
    pub label: Option<String>,
}

impl ClauseId {
    /// A clause identified by position only.
    pub(crate) fn new(index: usize) -> Self {
        ClauseId { index, label: None }
    }

    /// A clause with a user-facing label.
    pub(crate) fn labelled(index: usize, label: impl Into<String>) -> Self {
        ClauseId {
            index,
            label: Some(label.into()),
        }
    }

    /// Render the identifier for error messages.
    pub fn describe(&self) -> String {
        match &self.label {
            Some(l) => format!("{l} (#{})", self.index),
            None => format!("#{}", self.index),
        }
    }
}

/// Arguments of a Skolem (`Mk_C`) term.
///
/// The paper writes both positional (`Mk_CountryT(N)`) and named
/// (`Mk_CityT(name = N, country = C)`) argument lists; both produce a key
/// value that uniquely determines the created object identity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SkolemArgs {
    /// Positional arguments; a single argument's value is the key value, and
    /// multiple arguments form a list key.
    Positional(Vec<Term>),
    /// Named arguments forming a record key.
    Named(Vec<(Label, Term)>),
}

impl SkolemArgs {
    /// Iterate over the argument terms regardless of style.
    pub fn terms(&self) -> Vec<&Term> {
        match self {
            SkolemArgs::Positional(ts) => ts.iter().collect(),
            SkolemArgs::Named(fs) => fs.iter().map(|(_, t)| t).collect(),
        }
    }

    /// Map a function over the argument terms, preserving the style.
    pub fn map(&self, mut f: impl FnMut(&Term) -> Term) -> SkolemArgs {
        match self {
            SkolemArgs::Positional(ts) => SkolemArgs::Positional(ts.iter().map(&mut f).collect()),
            SkolemArgs::Named(fs) => {
                SkolemArgs::Named(fs.iter().map(|(l, t)| (l.clone(), f(t))).collect())
            }
        }
    }
}

/// A WOL term.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A logical variable.
    Var(Var),
    /// A constant of a base type (or unit).
    Const(Value),
    /// Attribute projection `t.a`; when `t` denotes an object identity the
    /// projection goes through the object's value.
    Proj(Box<Term>, Label),
    /// A record term `(a1 = t1, ..., ak = tk)`.
    Record(Vec<(Label, Term)>),
    /// A variant-injection term `ins_a(t)`; `ins_a()` injects the unit value.
    Variant(Label, Box<Term>),
    /// A Skolem term `Mk_C(args)` creating/naming the object of class `C`
    /// with the given key value.
    Skolem(ClassName, SkolemArgs),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<Var>) -> Term {
        Term::Var(name.into())
    }

    /// A string constant.
    pub(crate) fn str(s: impl Into<String>) -> Term {
        Term::Const(Value::Str(s.into()))
    }

    /// An integer constant.
    pub(crate) fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// A boolean constant.
    pub(crate) fn bool(b: bool) -> Term {
        Term::Const(Value::Bool(b))
    }

    /// Project attribute `label` from this term.
    pub fn proj(self, label: impl Into<Label>) -> Term {
        Term::Proj(Box::new(self), label.into())
    }

    /// Project a dotted path, e.g. `Term::var("E").path("country.name")`.
    pub fn path(self, dotted: &str) -> Term {
        dotted.split('.').fold(self, |t, seg| t.proj(seg))
    }

    /// A variant injection carrying `payload`.
    pub fn variant(label: impl Into<Label>, payload: Term) -> Term {
        Term::Variant(label.into(), Box::new(payload))
    }

    /// A data-less variant injection `ins_label()`.
    pub fn tag(label: impl Into<Label>) -> Term {
        Term::Variant(label.into(), Box::new(Term::Const(Value::Unit)))
    }

    /// A record term.
    pub fn record<I, L>(fields: I) -> Term
    where
        I: IntoIterator<Item = (L, Term)>,
        L: Into<Label>,
    {
        Term::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// A Skolem term with positional arguments.
    pub fn skolem<I>(class: impl Into<ClassName>, args: I) -> Term
    where
        I: IntoIterator<Item = Term>,
    {
        Term::Skolem(
            class.into(),
            SkolemArgs::Positional(args.into_iter().collect()),
        )
    }

    /// Whether `f` holds of every variable occurrence of the term, visited
    /// left to right without collecting them; stops at the first that fails.
    pub fn all_vars(&self, f: &mut impl FnMut(&Var) -> bool) -> bool {
        match self {
            Term::Var(v) => f(v),
            Term::Const(_) => true,
            Term::Proj(t, _) | Term::Variant(_, t) => t.all_vars(f),
            Term::Record(fields) | Term::Skolem(_, SkolemArgs::Named(fields)) => {
                fields.iter().all(|(_, t)| t.all_vars(f))
            }
            Term::Skolem(_, SkolemArgs::Positional(ts)) => ts.iter().all(|t| t.all_vars(f)),
        }
    }

    /// Collect the free variables of the term.
    pub(crate) fn variables(&self, out: &mut BTreeSet<Var>) {
        self.all_vars(&mut |v| {
            out.insert(*v);
            true
        });
    }

    /// The free variables of the term as a set.
    pub fn var_set(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.variables(&mut out);
        out
    }

    /// If the term is a (possibly nested) projection off a variable, return
    /// the base variable and the path of labels, e.g. `E.country.name` gives
    /// `("E", ["country", "name"])`.
    pub fn as_var_path(&self) -> Option<(&Var, Vec<&Label>)> {
        match self {
            Term::Var(v) => Some((v, Vec::new())),
            Term::Proj(base, label) => {
                let (v, mut path) = base.as_var_path()?;
                path.push(label);
                Some((v, path))
            }
            _ => None,
        }
    }

    /// Replace each variable `subst` maps to a term; the others stay.
    pub fn substitute(&self, subst: &mut impl FnMut(Var) -> Option<Term>) -> Term {
        match self {
            Term::Var(v) => subst(*v).unwrap_or_else(|| self.clone()),
            Term::Const(_) => self.clone(),
            Term::Proj(t, l) => Term::Proj(Box::new(t.substitute(subst)), l.clone()),
            Term::Record(fields) => Term::Record(
                fields
                    .iter()
                    .map(|(l, t)| (l.clone(), t.substitute(subst)))
                    .collect(),
            ),
            Term::Variant(l, t) => Term::Variant(l.clone(), Box::new(t.substitute(subst))),
            Term::Skolem(c, args) => Term::Skolem(c.clone(), args.map(|t| t.substitute(subst))),
        }
    }

    /// Number of nodes in the term tree; used as a size metric.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Const(_) => 1,
            Term::Proj(t, _) => 1 + t.size(),
            Term::Record(fields) => 1 + fields.iter().map(|(_, t)| t.size()).sum::<usize>(),
            Term::Variant(_, t) => 1 + t.size(),
            Term::Skolem(_, args) => 1 + args.terms().iter().map(|t| t.size()).sum::<usize>(),
        }
    }
}

/// An atomic formula.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// `t in C` — the term denotes an object of class `C`.
    Member(Term, ClassName),
    /// `s = t` — the two terms denote equal values.
    Eq(Term, Term),
    /// `s != t`.
    Neq(Term, Term),
    /// `s < t` on integers or reals.
    Lt(Term, Term),
    /// `s <= t` on integers or reals.
    Leq(Term, Term),
    /// `s member t` — the value of `s` occurs in the set value of `t`.
    InSet(Term, Term),
}

impl Atom {
    /// Collect the free variables of the atom.
    pub(crate) fn variables(&self, out: &mut BTreeSet<Var>) {
        match self {
            Atom::Member(t, _) => t.variables(out),
            Atom::Eq(s, t)
            | Atom::Neq(s, t)
            | Atom::Lt(s, t)
            | Atom::Leq(s, t)
            | Atom::InSet(s, t) => {
                s.variables(out);
                t.variables(out);
            }
        }
    }

    /// The free variables of the atom as a set.
    pub fn var_set(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.variables(&mut out);
        out
    }

    /// Apply a substitution to both sides of the atom.
    pub fn substitute(&self, subst: &mut impl FnMut(Var) -> Option<Term>) -> Atom {
        match self {
            Atom::Member(t, c) => Atom::Member(t.substitute(subst), c.clone()),
            Atom::Eq(s, t) => Atom::Eq(s.substitute(subst), t.substitute(subst)),
            Atom::Neq(s, t) => Atom::Neq(s.substitute(subst), t.substitute(subst)),
            Atom::Lt(s, t) => Atom::Lt(s.substitute(subst), t.substitute(subst)),
            Atom::Leq(s, t) => Atom::Leq(s.substitute(subst), t.substitute(subst)),
            Atom::InSet(s, t) => Atom::InSet(s.substitute(subst), t.substitute(subst)),
        }
    }

    /// The class names mentioned in this atom (membership classes and Skolem
    /// classes in either term).
    pub(crate) fn mentioned_classes(&self) -> BTreeSet<ClassName> {
        fn collect_term(t: &Term, out: &mut BTreeSet<ClassName>) {
            match t {
                Term::Skolem(c, args) => {
                    out.insert(c.clone());
                    args.terms().iter().for_each(|t| collect_term(t, out));
                }
                Term::Proj(t, _) | Term::Variant(_, t) => collect_term(t, out),
                Term::Record(fields) => fields.iter().for_each(|(_, t)| collect_term(t, out)),
                Term::Var(_) | Term::Const(_) => {}
            }
        }
        let mut out = BTreeSet::new();
        match self {
            Atom::Member(t, c) => {
                out.insert(c.clone());
                collect_term(t, &mut out);
            }
            Atom::Eq(s, t)
            | Atom::Neq(s, t)
            | Atom::Lt(s, t)
            | Atom::Leq(s, t)
            | Atom::InSet(s, t) => {
                collect_term(s, &mut out);
                collect_term(t, &mut out);
            }
        }
        out
    }

    /// Atom size (number of term nodes), used by program-size metrics.
    pub fn size(&self) -> usize {
        match self {
            Atom::Member(t, _) => 1 + t.size(),
            Atom::Eq(s, t)
            | Atom::Neq(s, t)
            | Atom::Lt(s, t)
            | Atom::Leq(s, t)
            | Atom::InSet(s, t) => 1 + s.size() + t.size(),
        }
    }
}

/// A WOL clause `head <= body`: if all body atoms hold then all head atoms
/// hold (for some instantiation of head-only variables).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    /// The head atoms (conclusions).
    pub head: Vec<Atom>,
    /// The body atoms (premises). May be empty for unconditional facts.
    pub body: Vec<Atom>,
    /// Optional user-facing label (e.g. `"T1"`, `"C3"`).
    pub label: Option<String>,
}

impl Clause {
    /// Build a clause from head and body atoms.
    pub fn new(head: Vec<Atom>, body: Vec<Atom>) -> Self {
        Clause {
            head,
            body,
            label: None,
        }
    }

    /// Attach a user-facing label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// All variables appearing in the clause.
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for a in self.head.iter().chain(self.body.iter()) {
            a.variables(&mut out);
        }
        out
    }

    /// Variables appearing in the body.
    pub fn body_variables(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for a in &self.body {
            a.variables(&mut out);
        }
        out
    }

    /// Classes mentioned anywhere in the clause.
    pub(crate) fn mentioned_classes(&self) -> BTreeSet<ClassName> {
        let mut out = BTreeSet::new();
        for a in self.head.iter().chain(self.body.iter()) {
            out.extend(a.mentioned_classes());
        }
        out
    }

    /// Classes mentioned in the head.
    pub(crate) fn head_classes(&self) -> BTreeSet<ClassName> {
        let mut out = BTreeSet::new();
        for a in &self.head {
            out.extend(a.mentioned_classes());
        }
        out
    }

    /// Classes mentioned in the body.
    pub fn body_classes(&self) -> BTreeSet<ClassName> {
        let mut out = BTreeSet::new();
        for a in &self.body {
            out.extend(a.mentioned_classes());
        }
        out
    }

    /// Apply a substitution to every atom of the clause.
    pub(crate) fn substitute(&self, subst: &mut impl FnMut(Var) -> Option<Term>) -> Clause {
        Clause {
            head: self.head.iter().map(|a| a.substitute(subst)).collect(),
            body: self.body.iter().map(|a| a.substitute(subst)).collect(),
            label: self.label.clone(),
        }
    }

    /// Rename every variable by applying `f`; used to give clauses disjoint
    /// variable names before unification.
    pub fn rename_vars(&self, f: impl Fn(Var) -> Var) -> Clause {
        self.substitute(&mut |v| Some(Term::Var(f(v))))
    }

    /// Total number of atoms.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True if the clause has no atoms at all.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clause (C1) of the paper:
    /// `X.state = Y <= Y in StateA, X = Y.capital;`
    fn clause_c1() -> Clause {
        Clause::new(
            vec![Atom::Eq(Term::var("X").proj("state"), Term::var("Y"))],
            vec![
                Atom::Member(Term::var("Y"), ClassName::new("StateA")),
                Atom::Eq(Term::var("X"), Term::var("Y").proj("capital")),
            ],
        )
        .with_label("C1")
    }

    #[test]
    fn term_builders_and_paths() {
        let t = Term::var("E").path("country.name");
        assert_eq!(
            t,
            Term::Proj(
                Box::new(Term::Proj(Box::new(Term::var("E")), "country".into())),
                "name".into()
            )
        );
        let (base, path) = t.as_var_path().unwrap();
        assert_eq!(base, "E");
        assert_eq!(path, vec![&"country".to_string(), &"name".to_string()]);
        assert!(Term::str("x").as_var_path().is_none());
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn variables_of_clause() {
        let c = clause_c1();
        let vars = c.variables();
        assert!(vars.contains("X"));
        assert!(vars.contains("Y"));
        assert_eq!(vars.len(), 2);
        assert_eq!(c.body_variables().len(), 2);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn mentioned_classes() {
        let c = Clause::new(
            vec![Atom::Eq(
                Term::var("X"),
                Term::skolem("CountryT", [Term::var("N")]),
            )],
            vec![
                Atom::Member(Term::var("Y"), ClassName::new("CountryE")),
                Atom::Eq(Term::var("N"), Term::var("Y").proj("name")),
            ],
        );
        let classes = c.mentioned_classes();
        assert!(classes.contains(&ClassName::new("CountryT")));
        assert!(classes.contains(&ClassName::new("CountryE")));
        assert_eq!(
            c.head_classes(),
            BTreeSet::from([ClassName::new("CountryT")])
        );
        assert_eq!(
            c.body_classes(),
            BTreeSet::from([ClassName::new("CountryE")])
        );
    }

    #[test]
    fn substitution_replaces_variables() {
        let c = clause_c1();
        let renamed = c.substitute(&mut |v| (v == "X").then(|| Term::var("City7")));
        assert!(renamed.variables().contains("City7"));
        assert!(!renamed.variables().contains("X"));
        assert!(renamed.variables().contains("Y"));
    }

    #[test]
    fn rename_vars_prefixes() {
        let c = clause_c1();
        let renamed = c.rename_vars(|v| Var::format(format_args!("c1_{v}")));
        assert!(renamed.variables().contains("c1_X"));
        assert!(renamed.variables().contains("c1_Y"));
        assert_eq!(renamed.variables().len(), 2);
    }

    /// Variables interned in reverse text order still sort, and iterate in
    /// sets and maps, by their text.
    #[test]
    fn variables_order_by_text_whatever_the_interning_order() {
        let names = [
            "var_order_z9",
            "var_order_b",
            "var_order_a10",
            "var_order_a1",
        ];
        let vars: Vec<Var> = names.iter().map(|&n| Var::new(n)).collect();
        let mut sorted = names;
        sorted.sort_unstable();
        let by_var: BTreeSet<Var> = vars.iter().copied().collect();
        assert!(by_var.iter().map(Var::as_str).eq(sorted));
        assert_eq!(Var::new("x").cmp(&Var::new("x")), std::cmp::Ordering::Equal);
        assert_eq!(Var::new("c10_V") < Var::new("c1_V"), "c10_V" < "c1_V");
        // One text, one pointer: a name built again is the name interned.
        let built = Var::format(format_args!("var_order_{}{}", "a", 10));
        assert!(std::ptr::eq(built.as_str(), vars[2].as_str()));
        assert_eq!(built, vars[2]);
    }

    /// A variable hashes as its text, so a hash set of variables answers
    /// lookups by string slice.
    #[test]
    fn variables_hash_as_their_text() {
        use std::collections::HashSet;
        use std::hash::{BuildHasher, RandomState};
        let state = RandomState::new();
        for name in ["X", "c0_S", "u12_c3_V7", ""] {
            assert_eq!(state.hash_one(Var::new(name)), state.hash_one(name));
        }
        let set: HashSet<Var> = ["N", "S"].map(Var::new).into();
        assert!(set.contains("N") && set.contains("S") && !set.contains("X"));
    }

    #[test]
    fn skolem_args_styles() {
        let positional = Term::skolem("CountryT", [Term::var("N")]);
        let named = Term::Skolem(
            ClassName::new("CityT"),
            SkolemArgs::Named(vec![
                ("name".into(), Term::var("N")),
                ("country".into(), Term::var("C")),
            ]),
        );
        match (&positional, &named) {
            (Term::Skolem(c1, a1), Term::Skolem(c2, a2)) => {
                assert_eq!(c1, &ClassName::new("CountryT"));
                assert_eq!(c2, &ClassName::new("CityT"));
                assert_eq!(a1.terms().len(), 1);
                assert_eq!(a2.terms().len(), 2);
            }
            _ => panic!("expected skolem terms"),
        }
    }

    #[test]
    fn clause_id_describe() {
        assert_eq!(ClauseId::new(3).describe(), "#3");
        assert_eq!(ClauseId::labelled(3, "T1").describe(), "T1 (#3)");
    }

    #[test]
    fn atom_size_and_substitute() {
        let a = Atom::Lt(Term::var("X"), Term::var("Y").proj("population"));
        assert_eq!(a.size(), 1 + 1 + 2);
        let mut subst = |v: Var| (v == "X").then(|| Term::int(3));
        let b = a.substitute(&mut subst);
        assert_eq!(b, Atom::Lt(Term::int(3), Term::var("Y").proj("population")));
        let c = Atom::InSet(Term::var("X"), Term::var("S")).substitute(&mut subst);
        assert_eq!(c, Atom::InSet(Term::int(3), Term::var("S")));
    }
}
