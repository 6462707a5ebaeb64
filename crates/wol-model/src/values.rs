//! Values of the WOL data model.
//!
//! Values are structural: records are label-indexed maps, sets are ordered
//! (duplicate-free) collections, and every value has a total order so that
//! values of set type have a canonical form and can be used as map keys (which
//! the Skolem factory and the key machinery rely on).

use std::collections::{BTreeMap, BTreeSet};
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

/// A comparison of one attribute against a constant, the attribute always on
/// the left: what the planner diverts from a scan's filter (`cpl::PushCmp`)
/// and a scan backend evaluates natively (`storage::provider::PushOp`) — one
/// type, so the two layers cannot drift apart.
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
    Record(BTreeMap<Label, Value>),
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

    /// Build a record value from `(label, value)` pairs.
    pub fn record<I, L>(fields: I) -> Value
    where
        I: IntoIterator<Item = (L, Value)>,
        L: Into<Label>,
    {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
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
            Value::Record(fields) => fields.get(label),
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

    /// If this is an integer, return it.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
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
    pub fn as_record(&self) -> Option<&BTreeMap<Label, Value>> {
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
            Value::Record(r) => {
                Value::Record(r.iter().map(|(l, v)| (l.clone(), v.map_oids(f))).collect())
            }
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
    /// forms): integers, reals — including the int/real mixes, the integer
    /// promoted — and strings compare; every other pairing is uncomparable
    /// (`None`). Distinct from the derived structural [`Ord`], which orders
    /// *all* values so they can key canonical sets and maps.
    pub fn ordered_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
            (Value::Real(x), Value::Real(y)) => Some(x.cmp(y)),
            (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
            (Value::Int(x), Value::Real(y)) => Some(RealVal(*x as f64).cmp(y)),
            (Value::Real(x), Value::Int(y)) => Some(x.cmp(&RealVal(*y as f64))),
            _ => None,
        }
    }

    /// Merge two record values that describe the *same* object, field by field.
    ///
    /// This is the value-level operation behind WOL's partial clauses: several
    /// clauses each contribute some fields of a target object, and the fields
    /// are merged as long as they agree on any field both sides define.
    /// Returns `None` if both records define the same field with different
    /// values, or if either value is not a record.
    pub fn merge_records(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Record(a), Value::Record(b)) => {
                let mut merged = a.clone();
                for (label, value) in b {
                    match merged.get(label) {
                        Some(existing) if existing != value => return None,
                        Some(_) => {}
                        None => {
                            merged.insert(label.clone(), value.clone());
                        }
                    }
                }
                Some(Value::Record(merged))
            }
            _ => None,
        }
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

    #[test]
    fn merge_records_combines_disjoint_fields() {
        let a = Value::record([("name", Value::str("France"))]);
        let b = Value::record([("currency", Value::str("franc"))]);
        let merged = a.merge_records(&b).unwrap();
        assert_eq!(
            merged,
            Value::record([
                ("name", Value::str("France")),
                ("currency", Value::str("franc"))
            ])
        );
    }

    #[test]
    fn merge_records_rejects_conflicts() {
        let a = Value::record([("name", Value::str("France"))]);
        let b = Value::record([("name", Value::str("Germany"))]);
        assert_eq!(a.merge_records(&b), None);
        assert_eq!(a.merge_records(&Value::int(1)), None);
    }

    #[test]
    fn merge_records_allows_agreeing_overlap() {
        let a = Value::record([
            ("name", Value::str("France")),
            ("language", Value::str("French")),
        ]);
        let b = Value::record([
            ("name", Value::str("France")),
            ("currency", Value::str("franc")),
        ]);
        let merged = a.merge_records(&b).unwrap();
        assert_eq!(merged.as_record().unwrap().len(), 3);
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
}
