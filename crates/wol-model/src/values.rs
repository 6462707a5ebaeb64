//! Values of the WOL data model.
//!
//! Values are structural: records are label-indexed, sets are ordered
//! (duplicate-free) collections, and every value has a total order so that
//! values of set type have a canonical form and can be used as map keys (which
//! the Skolem factory and the key machinery rely on).
//!
//! ## Records
//!
//! A record's labels are schema vocabulary (Section 2.1: a record type
//! `(a1: t1, ..., ak: tk)` fixes them), so a [`Record`] stores them as
//! interned [`Label`] pointers beside its values: one allocation holding the
//! `(label, value)` pairs, sorted by label text, with no per-object copy of
//! any label's text (`tests/alloc_budget.rs` holds the resident bytes per
//! ingested object to a budget). Ascending label order is the order a map
//! keyed by strings iterates in, so ordering, equality, hashing,
//! fingerprints and the snapshot codec see the sequence persisted bytes and
//! Skolem identities were derived from.
//!
//! Rule for hot paths: a path that builds records per row — provider scans,
//! insert evaluation, snapshot and WAL decode — resolves its labels once (at
//! `open`, at lowering, in a decoder's name table) and hands
//! [`Record::from_sorted`] fields already in label order, so no row takes
//! the interner's lock or sorts. [`Value::record`] and collecting into a
//! [`Record`] intern and sort: conveniences for tests and generators.
//!
//! ## Comparison
//!
//! The query language's `=`, `!=`, `<` and `=<` have one definition,
//! [`PushOp::holds`], over borrowed [`ValueRef`] views, so a typed column
//! cell compares without becoming a [`Value`]. The row executor, the
//! columnar kernels, the clause matcher and the scan providers all call it;
//! only what an uncomparable pair *means* (a false predicate or an error) is
//! theirs.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::oid::Oid;
use crate::types::Label;

/// A cheaply clonable handle on a value.
///
/// The engine's binding frames hold values behind `Arc` so that extending a
/// binding (or snapshotting it into a result) bumps a reference count instead
/// of deep-cloning record and set trees.
pub type SharedValue = Arc<Value>;

/// A double-precision real with a total order.
///
/// The model's base type `real` is represented by `f64`, but `f64` has no
/// total order (`NaN`). `RealVal` imposes one via the IEEE-754 `total_cmp`
/// ordering, which is sufficient for canonical set representations and map
/// keys. `NaN` values are permitted but compare greater than all other values.
#[derive(Clone, Copy, Debug)]
pub struct RealVal(pub f64);

impl RealVal {
    /// The wrapped `f64`.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for RealVal {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for RealVal {}

impl PartialOrd for RealVal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RealVal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for RealVal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for RealVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for RealVal {
    fn from(v: f64) -> Self {
        RealVal(v)
    }
}

/// A comparison of the query language, and its one definition
/// ([`PushOp::holds`]). Every evaluator compares through it: the executor's
/// lowered expressions and its columnar kernels (`cpl`), the clause matcher
/// (`wol-engine`), and — as the comparison of one attribute against a
/// constant, the attribute always on the left — what the planner diverts from
/// a scan's filter (`cpl::PushCmp`) and a scan backend evaluates natively
/// (`storage::provider::PushOp`). One type and one definition, so no two of
/// these layers can drift apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOp {
    /// `attr = const`.
    Eq,
    /// `attr != const`.
    Neq,
    /// `attr < const`.
    Lt,
    /// `attr =< const`.
    Leq,
    /// `attr > const` (normalised from `const < attr`).
    Gt,
    /// `attr >= const` (normalised from `const =< attr`).
    Geq,
}

impl PushOp {
    /// Whether `left op right` holds: the query language's one definition of
    /// `=`, `!=`, `<`, `=<` (and the pushed `>`, `>=`).
    ///
    /// * `=` and `!=` are structural value equality: kinds never mix
    ///   (`1 != 1.0`), reals are equal under their total order, and values of
    ///   different kinds are simply unequal — never an error.
    /// * The ordered comparisons take integers, reals — the int/real mixes
    ///   promote the integer — and strings. Any other pairing is
    ///   uncomparable: `None`, which each caller maps to its own policy (a
    ///   false predicate in the executor and the providers, an error in the
    ///   clause matcher).
    pub fn holds(self, left: ValueRef<'_>, right: ValueRef<'_>) -> Option<bool> {
        use std::cmp::Ordering;
        use ValueRef::{Bool, Int, Other, Real, Str};
        let equal = || match (left, right) {
            (Int(x), Int(y)) => x == y,
            (Real(x), Real(y)) => x == y,
            (Bool(x), Bool(y)) => x == y,
            (Str(x), Str(y)) => x == y,
            (ValueRef::Oid(x), ValueRef::Oid(y)) => x == y,
            (Other(x), Other(y)) => x == y,
            _ => false,
        };
        let ordered = |holds: fn(Ordering) -> bool| {
            let ordering = match (left, right) {
                (Int(x), Int(y)) => x.cmp(&y),
                (Real(x), Real(y)) => x.cmp(&y),
                (Int(x), Real(y)) => RealVal(x as f64).cmp(&y),
                (Real(x), Int(y)) => x.cmp(&RealVal(y as f64)),
                (Str(x), Str(y)) => x.cmp(y),
                _ => return None,
            };
            Some(holds(ordering))
        };
        match self {
            PushOp::Eq => Some(equal()),
            PushOp::Neq => Some(!equal()),
            PushOp::Lt => ordered(Ordering::is_lt),
            PushOp::Leq => ordered(Ordering::is_le),
            PushOp::Gt => ordered(Ordering::is_gt),
            PushOp::Geq => ordered(Ordering::is_ge),
        }
    }
}

/// A borrowed view of a value, as [`PushOp::holds`] reads it: a scalar by
/// value or by reference, anything else as the value itself. A typed column
/// cell produces one without building a [`Value`]; a [`Value`] gives one
/// through `From`, which is how an `Other` is made — an `Other` never holds
/// a scalar, so equal values have equal views.
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    /// An integer.
    Int(i64),
    /// A real.
    Real(RealVal),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(&'a str),
    /// An object identity.
    Oid(&'a Oid),
    /// A set, list, record, variant, unit or absent value.
    Other(&'a Value),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(value: &'a Value) -> Self {
        match value {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Real(r) => ValueRef::Real(*r),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Str(s) => ValueRef::Str(s),
            Value::Oid(o) => ValueRef::Oid(o),
            other => ValueRef::Other(other),
        }
    }
}

/// A value of the WOL data model.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A real number with total order.
    Real(RealVal),
    /// A string.
    Str(String),
    /// An object identity.
    Oid(Oid),
    /// A finite set (canonically ordered, duplicate free).
    Set(BTreeSet<Value>),
    /// A finite list (order and duplicates significant).
    List(Vec<Value>),
    /// A record: a finite map from labels to values.
    Record(Record),
    /// A variant: a chosen label together with the carried value.
    Variant(Label, Box<Value>),
    /// The unit value (carried by data-less variant alternatives).
    Unit,
    /// The absent value of an optional field.
    Absent,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Build a boolean value.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// Build a real value.
    pub fn real(r: f64) -> Value {
        Value::Real(RealVal(r))
    }

    /// Build an object-identity value.
    pub fn oid(o: Oid) -> Value {
        Value::Oid(o)
    }

    /// Build a record value from `(label, value)` pairs, in any order. It
    /// interns every label and sorts: for tests and generators, not for
    /// per-row paths (see the module docs).
    pub fn record<I, L>(fields: I) -> Value
    where
        I: IntoIterator<Item = (L, Value)>,
        L: Into<Label>,
    {
        Value::Record(fields.into_iter().collect())
    }

    /// Build a set value from an iterator of elements (duplicates removed).
    pub fn set<I: IntoIterator<Item = Value>>(elems: I) -> Value {
        Value::Set(elems.into_iter().collect())
    }

    /// Build a list value.
    pub fn list<I: IntoIterator<Item = Value>>(elems: I) -> Value {
        Value::List(elems.into_iter().collect())
    }

    /// Build a variant value carrying `value`.
    pub fn variant(label: impl Into<Label>, value: Value) -> Value {
        Value::Variant(label.into(), Box::new(value))
    }

    /// Build a data-less variant value (e.g. `ins_male()`).
    pub fn tag(label: impl Into<Label>) -> Value {
        Value::Variant(label.into(), Box::new(Value::Unit))
    }

    /// Project field `label` out of a record value.
    pub fn project(&self, label: &str) -> Option<&Value> {
        match self {
            Value::Record(record) => record.get(label),
            _ => None,
        }
    }

    /// If this is a variant with the given label, return the carried value.
    pub fn variant_payload(&self, label: &str) -> Option<&Value> {
        match self {
            Value::Variant(l, v) if l == label => Some(v),
            _ => None,
        }
    }

    /// If this is a variant, return `(label, payload)`.
    pub fn as_variant(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Variant(l, v) => Some((l.as_str(), v)),
            _ => None,
        }
    }

    /// If this is an object identity, return it.
    pub fn as_oid(&self) -> Option<&Oid> {
        match self {
            Value::Oid(o) => Some(o),
            _ => None,
        }
    }

    /// If this is a string, return it.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// If this is a boolean, return it.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// If this is a set, return its elements.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// If this is a record, return its fields.
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }

    /// True if any object identity appears (transitively) inside this value.
    pub fn contains_oid(&self) -> bool {
        match self {
            Value::Oid(_) => true,
            Value::Bool(_)
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Unit
            | Value::Absent => false,
            Value::Set(s) => s.iter().any(Value::contains_oid),
            Value::List(l) => l.iter().any(Value::contains_oid),
            Value::Record(r) => r.values().any(Value::contains_oid),
            Value::Variant(_, v) => v.contains_oid(),
        }
    }

    /// Collect every object identity appearing (transitively) inside this value.
    pub fn collect_oids(&self, out: &mut Vec<Oid>) {
        match self {
            Value::Oid(o) => out.push(o.clone()),
            Value::Bool(_)
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Unit
            | Value::Absent => {}
            Value::Set(s) => s.iter().for_each(|v| v.collect_oids(out)),
            Value::List(l) => l.iter().for_each(|v| v.collect_oids(out)),
            Value::Record(r) => r.values().for_each(|v| v.collect_oids(out)),
            Value::Variant(_, v) => v.collect_oids(out),
        }
    }

    /// All object identities appearing inside this value.
    pub fn oids(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        self.collect_oids(&mut out);
        out
    }

    /// Rewrite every object identity inside this value through `f` (used when
    /// merging instances whose identity spaces overlap).
    pub fn map_oids(&self, f: &mut impl FnMut(&Oid) -> Oid) -> Value {
        match self {
            Value::Oid(o) => Value::Oid(f(o)),
            Value::Bool(_)
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Unit
            | Value::Absent => self.clone(),
            Value::Set(s) => Value::Set(s.iter().map(|v| v.map_oids(f)).collect()),
            Value::List(l) => Value::List(l.iter().map(|v| v.map_oids(f)).collect()),
            Value::Record(r) => Value::Record(r.map_values(|v| v.map_oids(f))),
            Value::Variant(l, v) => Value::Variant(l.clone(), Box::new(v.map_oids(f))),
        }
    }

    /// A short description of the value's shape, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Str(_) => "str",
            Value::Oid(_) => "oid",
            Value::Set(_) => "set",
            Value::List(_) => "list",
            Value::Record(_) => "record",
            Value::Variant(_, _) => "variant",
            Value::Unit => "unit",
            Value::Absent => "absent",
        }
    }

    /// The query language's ordered comparison (`<`, `=<` and their pushed
    /// forms), as [`PushOp::holds`] defines it: integers, reals — including
    /// the int/real mixes, the integer promoted — and strings compare; every
    /// other pairing is uncomparable (`None`). Distinct from the derived
    /// structural [`Ord`], which orders *all* values so they can key
    /// canonical sets and maps.
    pub fn ordered_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        let (left, right) = (ValueRef::from(self), ValueRef::from(other));
        Some(if PushOp::Lt.holds(left, right)? {
            std::cmp::Ordering::Less
        } else if PushOp::Gt.holds(left, right)? {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        })
    }

    /// Wrap the value in a cheaply clonable [`SharedValue`] handle.
    pub fn shared(self) -> SharedValue {
        Arc::new(self)
    }

    /// The number of nodes in the value tree (used by size metrics in benches).
    pub fn size(&self) -> usize {
        match self {
            Value::Bool(_)
            | Value::Int(_)
            | Value::Real(_)
            | Value::Str(_)
            | Value::Oid(_)
            | Value::Unit
            | Value::Absent => 1,
            Value::Set(s) => 1 + s.iter().map(Value::size).sum::<usize>(),
            Value::List(l) => 1 + l.iter().map(Value::size).sum::<usize>(),
            Value::Record(r) => 1 + r.values().map(Value::size).sum::<usize>(),
            Value::Variant(_, v) => 1 + v.size(),
        }
    }
}

/// The fields of a record value: `(label, value)` pairs in one allocation,
/// sorted strictly ascending by label text (see the module docs).
///
/// The derived order, equality and hash walk the pairs in that order — the
/// sequence, length prefix included, that a `BTreeMap<String, Value>` of the
/// same fields walks — so a record compares and hashes as that map would.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Record(Box<[(Label, Value)]>);

impl Record {
    /// The empty record.
    pub fn new() -> Record {
        Record::default()
    }

    /// A record over `fields` whose labels are already strictly ascending —
    /// the constructor for paths that resolved and sorted their labels once,
    /// up front. Keeps `fields`' allocation when it is exactly full.
    ///
    /// Debug builds check the order; a decoder of untrusted input checks it
    /// itself, to say where the input went wrong.
    pub fn from_sorted(fields: Vec<(Label, Value)>) -> Record {
        debug_assert!(
            fields.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "record labels out of order"
        );
        Record(fields.into_boxed_slice())
    }

    /// The number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The position of `label`: found by address when `label` is an interned
    /// label's text (the common case — callers hold [`Label`]s), otherwise by
    /// binary search on the text.
    fn position(&self, label: &str) -> Result<usize, usize> {
        match self
            .0
            .iter()
            .position(|(l, _)| std::ptr::eq(l.as_str(), label))
        {
            Some(i) => Ok(i),
            None => self.0.binary_search_by(|(l, _)| l.as_str().cmp(label)),
        }
    }

    /// The value of field `label`.
    pub fn get(&self, label: &str) -> Option<&Value> {
        let i = self.position(label).ok()?;
        self.0.get(i).map(|(_, v)| v)
    }

    /// True if the record has field `label`.
    pub fn contains_key(&self, label: &str) -> bool {
        self.position(label).is_ok()
    }

    /// Set field `label` to `value`, returning the value it replaces. Adding
    /// a field reallocates the record: this is for edits, not for building
    /// rows.
    pub fn insert(&mut self, label: Label, value: Value) -> Option<Value> {
        match self.position(&label) {
            Ok(i) => self.0.get_mut(i).map(|(_, v)| std::mem::replace(v, value)),
            Err(i) => {
                let mut fields = std::mem::take(&mut self.0).into_vec();
                fields.insert(i, (label, value));
                self.0 = fields.into_boxed_slice();
                None
            }
        }
    }

    /// Remove field `label`, returning its value.
    pub fn remove(&mut self, label: &str) -> Option<Value> {
        let i = self.position(label).ok()?;
        let mut fields = std::mem::take(&mut self.0).into_vec();
        let (_, value) = fields.remove(i);
        self.0 = fields.into_boxed_slice();
        Some(value)
    }

    /// The fields in ascending label order.
    pub fn iter(&self) -> Fields<'_> {
        Fields(self.0.iter())
    }

    /// The labels in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Label> + ExactSizeIterator {
        self.0.iter().map(|(l, _)| l)
    }

    /// The values in ascending label order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.0.iter().map(|(_, v)| v)
    }

    /// The same labels with every value rewritten through `f`, in label
    /// order.
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Record {
        Record(self.0.iter().map(|(l, v)| (l.clone(), f(v))).collect())
    }

    /// Settle the contributions to one object — this record and `others`,
    /// taken as a set — into this record: afterwards it holds the union of
    /// their fields, and the result names the least label two of them give
    /// different values, if any.
    ///
    /// WOL's partial clauses each contribute some fields of a target object,
    /// identified by its Skolem key, and contributions that disagree on a
    /// field mean no target satisfies the program. The target is a function
    /// of the *set* of contributions, so neither their order nor how they
    /// are grouped can change the union or the label. This is the one
    /// definition of it: the executor's apply, the maintainer's ledger and
    /// [`crate::Instance::merge_keyed`] all settle through it. (On a
    /// conflict, a disputed label keeps the value of the earliest
    /// contribution that gives it: a failed settle still holds every label
    /// and only contributed values.) A contribution that adds no field
    /// allocates nothing.
    pub fn merge<'a>(&mut self, others: impl IntoIterator<Item = &'a Record>) -> Result<(), Label> {
        let mut least: Option<&Label> = None;
        for other in others {
            // One walk of the two label-ordered slices finds where `other`
            // disagrees and how many labels it adds.
            let (ours, theirs) = (&self.0, &other.0);
            let (mut i, mut added) = (0, 0);
            for (label, value) in theirs.iter() {
                while ours.get(i).is_some_and(|(l, _)| l < label) {
                    i += 1;
                }
                match ours.get(i) {
                    Some((l, v)) if l == label => {
                        if v != value {
                            least = Some(least.map_or(label, |m| m.min(label)));
                        }
                        i += 1;
                    }
                    _ => added += 1,
                }
            }
            if added > 0 {
                let mut ours = std::mem::take(&mut self.0)
                    .into_vec()
                    .into_iter()
                    .peekable();
                let mut fields = Vec::with_capacity(ours.len() + added);
                for (label, value) in theirs.iter() {
                    while let Some(field) = ours.next_if(|(l, _)| l < label) {
                        fields.push(field);
                    }
                    let field = ours.next_if(|(l, _)| l == label);
                    fields.push(field.unwrap_or_else(|| (label.clone(), value.clone())));
                }
                fields.extend(ours);
                self.0 = fields.into_boxed_slice();
            }
        }
        least.map_or(Ok(()), |label| Err(label.clone()))
    }
}

impl fmt::Debug for Record {
    /// Debug-prints as a map, `{"label": value, ...}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The fields of a [`Record`] in ascending label order.
#[derive(Clone, Debug)]
pub struct Fields<'a>(std::slice::Iter<'a, (Label, Value)>);

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a Label, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(l, v)| (l, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Fields<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(l, v)| (l, v))
    }
}

impl ExactSizeIterator for Fields<'_> {}

impl<'a> IntoIterator for &'a Record {
    type Item = (&'a Label, &'a Value);
    type IntoIter = Fields<'a>;

    fn into_iter(self) -> Fields<'a> {
        self.iter()
    }
}

impl IntoIterator for Record {
    type Item = (Label, Value);
    type IntoIter = std::vec::IntoIter<(Label, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_vec().into_iter()
    }
}

impl<L: Into<Label>> FromIterator<(L, Value)> for Record {
    /// Sorts the fields by label; a repeated label keeps its last value, as
    /// successive map inserts would.
    fn from_iter<I: IntoIterator<Item = (L, Value)>>(iter: I) -> Record {
        let mut fields: Vec<(Label, Value)> =
            iter.into_iter().map(|(l, v)| (l.into(), v)).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            repeated
        });
        Record(fields.into_boxed_slice())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    fn oid(c: &str, i: u64) -> Oid {
        Oid::new(ClassName::new(c), i)
    }

    #[test]
    fn record_projection() {
        let v = Value::record([
            ("name", Value::str("Paris")),
            ("is_capital", Value::bool(true)),
        ]);
        assert_eq!(v.project("name"), Some(&Value::str("Paris")));
        assert_eq!(v.project("missing"), None);
        assert_eq!(Value::int(3).project("name"), None);
    }

    #[test]
    fn variant_accessors() {
        let v = Value::variant("euro_city", Value::oid(oid("CityE", 3)));
        assert_eq!(
            v.variant_payload("euro_city"),
            Some(&Value::oid(oid("CityE", 3)))
        );
        assert_eq!(v.variant_payload("us_city"), None);
        let (label, payload) = v.as_variant().unwrap();
        assert_eq!(label, "euro_city");
        assert_eq!(payload, &Value::oid(oid("CityE", 3)));
        let tag = Value::tag("male");
        assert_eq!(tag.as_variant(), Some(("male", &Value::Unit)));
    }

    #[test]
    fn sets_are_canonical() {
        let a = Value::set([Value::int(2), Value::int(1), Value::int(2)]);
        let b = Value::set([Value::int(1), Value::int(2)]);
        assert_eq!(a, b);
        assert_eq!(a.as_set().unwrap().len(), 2);
    }

    #[test]
    fn contains_and_collect_oids() {
        let v = Value::record([
            ("country", Value::oid(oid("CountryE", 1))),
            ("aliases", Value::set([Value::str("x")])),
            (
                "place",
                Value::variant("euro", Value::oid(oid("CountryE", 2))),
            ),
        ]);
        assert!(v.contains_oid());
        let oids = v.oids();
        assert_eq!(oids.len(), 2);
        assert!(!Value::str("plain").contains_oid());
    }

    fn record(fields: &[(&str, i64)]) -> Record {
        fields.iter().map(|(l, v)| (*l, Value::int(*v))).collect()
    }

    #[test]
    fn merge_unites_agreeing_contributions_in_any_order() {
        let a = record(&[("name", 1), ("language", 2)]);
        let b = record(&[("name", 1), ("currency", 3)]);
        let c = record(&[("area", 4)]);
        let expected = record(&[("area", 4), ("currency", 3), ("language", 2), ("name", 1)]);
        for (first, rest) in [(&a, [&b, &c]), (&c, [&b, &a]), (&b, [&a, &c])] {
            let mut merged = first.clone();
            assert_eq!(merged.merge(rest), Ok(()));
            assert_eq!(merged, expected);
        }
        let mut alone = a.clone();
        assert_eq!(alone.merge([]), Ok(()));
        assert_eq!(alone, a);
        let mut empty = Record::new();
        assert_eq!(empty.merge([&a]), Ok(()));
        assert_eq!(empty, a);
    }

    #[test]
    fn merge_names_the_least_disagreeing_label_of_the_whole_set() {
        // `b` disagrees with `a` on `z`, and `c` with `a` on `m` only: the
        // least label over the set is `m`, whichever contribution comes
        // first, and the failed settle still holds every label.
        let a = record(&[("m", 1), ("z", 1)]);
        let b = record(&[("k", 5), ("z", 2)]);
        let c = record(&[("m", 2)]);
        for (first, rest) in [(&a, [&b, &c]), (&b, [&a, &c]), (&c, [&b, &a])] {
            let mut merged = first.clone();
            assert_eq!(merged.merge(rest), Err(Label::new("m")));
            let labels: Vec<&str> = merged.keys().map(|l| &**l).collect();
            assert_eq!(labels, ["k", "m", "z"]);
        }
    }

    #[test]
    fn real_total_order() {
        let a = Value::real(1.5);
        let b = Value::real(2.5);
        let nan = Value::real(f64::NAN);
        assert!(a < b);
        assert!(b < nan);
        assert_eq!(Value::real(1.5), Value::real(1.5));
    }

    #[test]
    fn value_size_counts_nodes() {
        let v = Value::record([
            ("a", Value::int(1)),
            ("b", Value::set([Value::int(1), Value::int(2)])),
        ]);
        // record + int + set + 2 ints
        assert_eq!(v.size(), 5);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(42i64), Value::Int(42));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".into()));
        assert_eq!(Value::from(oid("C", 1)), Value::Oid(oid("C", 1)));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Unit.kind(), "unit");
        assert_eq!(Value::Absent.kind(), "absent");
        assert_eq!(Value::list([Value::int(1)]).kind(), "list");
    }

    /// The one comparison: equality is the values' structural equality
    /// (kinds never mix), the ordered comparisons promote int/real mixes and
    /// leave other kind pairs uncomparable, and `ordered_cmp` agrees.
    #[test]
    fn comparisons_have_one_definition() {
        let values = [
            Value::int(1),
            Value::int(2),
            Value::real(1.0),
            Value::real(-0.0),
            Value::real(f64::NAN),
            Value::Bool(true),
            Value::str("a"),
            Value::str("b"),
            Value::oid(oid("C", 1)),
            Value::set([Value::int(1)]),
            Value::record([("x", Value::int(1))]),
            Value::Unit,
        ];
        let ops = [
            PushOp::Eq,
            PushOp::Neq,
            PushOp::Lt,
            PushOp::Leq,
            PushOp::Gt,
            PushOp::Geq,
        ];
        for a in &values {
            for b in &values {
                let holds = |op: PushOp| op.holds(a.into(), b.into());
                assert_eq!(holds(PushOp::Eq), Some(a == b), "{a:?} = {b:?}");
                assert_eq!(holds(PushOp::Neq), Some(a != b), "{a:?} != {b:?}");
                let ordering = a.ordered_cmp(b);
                let comparable = matches!(
                    (a, b),
                    (
                        Value::Int(_) | Value::Real(_),
                        Value::Int(_) | Value::Real(_)
                    ) | (Value::Str(_), Value::Str(_))
                );
                assert_eq!(ordering.is_some(), comparable, "{a:?} <> {b:?}");
                for op in &ops[2..] {
                    let expected = ordering.map(|o| match op {
                        PushOp::Lt => o.is_lt(),
                        PushOp::Leq => o.is_le(),
                        PushOp::Gt => o.is_gt(),
                        _ => o.is_ge(),
                    });
                    assert_eq!(holds(*op), expected, "{a:?} {op:?} {b:?}");
                }
            }
        }
        assert_eq!(
            Value::int(1).ordered_cmp(&Value::real(1.0)),
            Some(std::cmp::Ordering::Equal)
        );
        assert_eq!(
            PushOp::Eq.holds((&Value::int(1)).into(), ValueRef::Real(RealVal(1.0))),
            Some(false)
        );
        assert_eq!(
            PushOp::Lt.holds(ValueRef::Real(RealVal(-0.0)), ValueRef::Int(0)),
            Some(true)
        );
        assert_eq!(PushOp::Lt.holds(ValueRef::Str("a"), ValueRef::Int(0)), None);
    }
}
