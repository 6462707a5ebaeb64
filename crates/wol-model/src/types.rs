//! Types of the WOL data model (Section 2.1 of the paper).
//!
//! Types are built from base types, class types (references to object
//! identities of a class), set types, record types, variant types, lists and
//! optional fields. Records and variants may have arbitrarily many labelled
//! fields and may be nested arbitrarily deep.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::error::ModelError;
use crate::Result;

/// An attribute label used in record and variant types.
pub type Label = String;

/// The name of a class (an extent of object identities) in a schema.
///
/// A class name is a pointer to an *interned* string: [`ClassName::new`]
/// looks the text up in one process-wide interner, so cloning a name — and
/// with it every [`Oid`](crate::Oid) — copies a pointer, and equality is a
/// pointer comparison. Ordering and hashing still follow the *text*, so maps
/// keyed by class names iterate, and hash-sharded work splits, exactly as
/// they would over plain strings.
///
/// The interner never frees: each distinct name costs its bytes once per
/// process. Names come from schemas, programs and decoded snapshots, so the
/// bound is the number of distinct class names the process ever reads —
/// for a hostile decoded file, at most that file's size.
#[derive(Clone)]
pub struct ClassName(&'static str);

impl ClassName {
    /// Create (or look up) a class name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ClassName(intern(name.as_ref()))
    }

    /// The class name as a string slice.
    pub fn as_str(&self) -> &str {
        self.0
    }
}

/// The process-wide class-name interner behind [`ClassName::new`].
fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    let names = NAMES.get_or_init(Default::default);
    if let Some(&interned) = names
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
    {
        return interned;
    }
    let mut names = names.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = names.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.into());
    names.insert(interned);
    interned
}

impl PartialEq for ClassName {
    /// Interned names are equal exactly when they are the same pointer.
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for ClassName {}

impl PartialOrd for ClassName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ClassName {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl Hash for ClassName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassName({})", self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

impl From<String> for ClassName {
    fn from(s: String) -> Self {
        ClassName::new(s)
    }
}

/// The base (atomic) types of the model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BaseType {
    /// Boolean values.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// Double-precision reals (with a total order imposed on values).
    Real,
    /// Unicode strings.
    Str,
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Bool => write!(f, "bool"),
            BaseType::Int => write!(f, "int"),
            BaseType::Real => write!(f, "real"),
            BaseType::Str => write!(f, "str"),
        }
    }
}

/// A type of the WOL data model.
///
/// Following the paper, the type associated with a class in a schema must not
/// itself be a class type (see [`Schema::validate`](crate::Schema::validate)),
/// but class types may appear nested anywhere inside records, variants, sets
/// and lists.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Type {
    /// A base type.
    Base(BaseType),
    /// Object identities of the named class.
    Class(ClassName),
    /// Finite sets of elements of the given type.
    Set(Box<Type>),
    /// Finite lists of elements of the given type.
    List(Box<Type>),
    /// A record type `(a1: t1, ..., ak: tk)`.
    Record(Vec<(Label, Type)>),
    /// A variant type `<| a1: t1, ..., ak: tk |>`.
    Variant(Vec<(Label, Type)>),
    /// An optional field (the paper notes that fields may be optional).
    Optional(Box<Type>),
    /// The unit type, used for variant alternatives carrying no data
    /// (e.g. `ins_male()` in the paper's Person example).
    Unit,
}

impl Type {
    /// Shorthand for the boolean base type.
    pub fn bool() -> Type {
        Type::Base(BaseType::Bool)
    }

    /// Shorthand for the integer base type.
    pub fn int() -> Type {
        Type::Base(BaseType::Int)
    }

    /// Shorthand for the real base type.
    pub fn real() -> Type {
        Type::Base(BaseType::Real)
    }

    /// Shorthand for the string base type.
    pub fn str() -> Type {
        Type::Base(BaseType::Str)
    }

    /// Shorthand for a class type.
    pub fn class(name: impl AsRef<str>) -> Type {
        Type::Class(ClassName::new(name))
    }

    /// Shorthand for a set type.
    pub fn set(elem: Type) -> Type {
        Type::Set(Box::new(elem))
    }

    /// Shorthand for a list type.
    pub fn list(elem: Type) -> Type {
        Type::List(Box::new(elem))
    }

    /// Shorthand for an optional type.
    pub fn optional(elem: Type) -> Type {
        Type::Optional(Box::new(elem))
    }

    /// Build a record type from `(label, type)` pairs.
    pub fn record<I, L>(fields: I) -> Type
    where
        I: IntoIterator<Item = (L, Type)>,
        L: Into<Label>,
    {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Build a variant type from `(label, type)` pairs.
    pub fn variant<I, L>(alts: I) -> Type
    where
        I: IntoIterator<Item = (L, Type)>,
        L: Into<Label>,
    {
        Type::Variant(alts.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// True if this is a class type.
    pub fn is_class(&self) -> bool {
        matches!(self, Type::Class(_))
    }

    /// If this is a record type, look up the type of field `label`.
    pub fn field(&self, label: &str) -> Option<&Type> {
        match self {
            Type::Record(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, t)| t),
            _ => None,
        }
    }

    /// If this is a variant type, look up the type of alternative `label`.
    pub fn alternative(&self, label: &str) -> Option<&Type> {
        match self {
            Type::Variant(alts) => alts.iter().find(|(l, _)| l == label).map(|(_, t)| t),
            _ => None,
        }
    }

    /// All class names referenced (transitively) inside this type.
    pub fn referenced_classes(&self) -> Vec<ClassName> {
        let mut out = Vec::new();
        self.collect_classes(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_classes(&self, out: &mut Vec<ClassName>) {
        match self {
            Type::Base(_) | Type::Unit => {}
            Type::Class(c) => out.push(c.clone()),
            Type::Set(t) | Type::List(t) | Type::Optional(t) => t.collect_classes(out),
            Type::Record(fields) | Type::Variant(fields) => {
                for (_, t) in fields {
                    t.collect_classes(out);
                }
            }
        }
    }

    /// True if any class type appears (transitively) inside this type.
    pub fn mentions_class(&self) -> bool {
        !self.referenced_classes().is_empty()
    }

    /// Structural well-formedness: record/variant labels must be distinct and
    /// variants must have at least one alternative.
    pub fn check_well_formed(&self, context: &str) -> Result<()> {
        match self {
            Type::Base(_) | Type::Class(_) | Type::Unit => Ok(()),
            Type::Set(t) | Type::List(t) | Type::Optional(t) => t.check_well_formed(context),
            Type::Record(fields) => {
                check_distinct_labels(fields, context)?;
                for (l, t) in fields {
                    t.check_well_formed(&format!("{context}.{l}"))?;
                }
                Ok(())
            }
            Type::Variant(alts) => {
                if alts.is_empty() {
                    return Err(ModelError::MalformedType(format!(
                        "variant type with no alternatives in {context}"
                    )));
                }
                check_distinct_labels(alts, context)?;
                for (l, t) in alts {
                    t.check_well_formed(&format!("{context}<{l}>"))?;
                }
                Ok(())
            }
        }
    }

    /// The maximum nesting depth of the type (a base or class type has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Type::Base(_) | Type::Class(_) | Type::Unit => 1,
            Type::Set(t) | Type::List(t) | Type::Optional(t) => 1 + t.depth(),
            Type::Record(fs) | Type::Variant(fs) => {
                1 + fs.iter().map(|(_, t)| t.depth()).max().unwrap_or(0)
            }
        }
    }
}

fn check_distinct_labels(fields: &[(Label, Type)], context: &str) -> Result<()> {
    let mut seen = std::collections::BTreeSet::new();
    for (l, _) in fields {
        if !seen.insert(l.clone()) {
            return Err(ModelError::DuplicateLabel {
                label: l.clone(),
                context: context.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_name_equality_and_order() {
        let a = ClassName::new("CityA");
        let b = ClassName::new("CityA");
        let c = ClassName::new("StateA");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.as_str(), "CityA");
        assert_eq!(a.to_string(), "CityA");
    }

    #[test]
    fn class_names_interned_across_threads_are_one_pointer_in_string_order() {
        let words = ["Zeta", "alpha", "Beta", "", "CityA", "beta", "Alpha2"];
        let intern_all = move || words.map(ClassName::new);
        let here = intern_all();
        let there = std::thread::spawn(intern_all).join().unwrap();
        for (a, b) in here.iter().zip(&there) {
            assert!(std::ptr::eq(a.as_str(), b.as_str()), "{a:?} interned twice");
            assert_eq!(a, b);
        }
        let mut by_name = here.to_vec();
        by_name.sort();
        let mut by_text = words.to_vec();
        by_text.sort();
        assert_eq!(
            by_name.iter().map(ClassName::as_str).collect::<Vec<_>>(),
            by_text
        );
        // Hashing follows the text too, so hash-sharded work is reproducible.
        let hash = |value: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            value(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&|h| here[0].hash(h)), hash(&|h| "Zeta".hash(h)));
    }

    #[test]
    fn record_field_lookup() {
        let t = Type::record([("name", Type::str()), ("state", Type::class("StateA"))]);
        assert_eq!(t.field("name"), Some(&Type::str()));
        assert_eq!(t.field("state"), Some(&Type::class("StateA")));
        assert_eq!(t.field("missing"), None);
        assert_eq!(t.alternative("name"), None);
    }

    #[test]
    fn variant_alternative_lookup() {
        let t = Type::variant([
            ("euro_city", Type::class("CityE")),
            ("us_city", Type::class("CityA")),
        ]);
        assert_eq!(t.alternative("euro_city"), Some(&Type::class("CityE")));
        assert_eq!(t.alternative("nope"), None);
        assert_eq!(t.field("euro_city"), None);
    }

    #[test]
    fn referenced_classes_are_collected_and_deduped() {
        let t = Type::record([
            ("a", Type::class("C1")),
            ("b", Type::set(Type::class("C2"))),
            (
                "c",
                Type::variant([("x", Type::class("C1")), ("y", Type::int())]),
            ),
        ]);
        let classes = t.referenced_classes();
        assert_eq!(classes, vec![ClassName::new("C1"), ClassName::new("C2")]);
        assert!(t.mentions_class());
        assert!(!Type::int().mentions_class());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let t = Type::record([("a", Type::int()), ("a", Type::str())]);
        let err = t.check_well_formed("T").unwrap_err();
        assert!(matches!(err, ModelError::DuplicateLabel { .. }));
    }

    #[test]
    fn empty_variant_rejected() {
        let t = Type::Variant(vec![]);
        assert!(t.check_well_formed("T").is_err());
    }

    #[test]
    fn nested_well_formed_ok() {
        let t = Type::record([
            ("name", Type::str()),
            (
                "place",
                Type::variant([
                    ("state", Type::class("StateT")),
                    ("country", Type::class("CountryT")),
                ]),
            ),
            ("tags", Type::set(Type::str())),
            ("population", Type::optional(Type::int())),
        ]);
        assert!(t.check_well_formed("CityT").is_ok());
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn display_base_types() {
        assert_eq!(BaseType::Bool.to_string(), "bool");
        assert_eq!(BaseType::Int.to_string(), "int");
        assert_eq!(BaseType::Real.to_string(), "real");
        assert_eq!(BaseType::Str.to_string(), "str");
    }

    #[test]
    fn depth_of_flat_types() {
        assert_eq!(Type::int().depth(), 1);
        assert_eq!(Type::set(Type::int()).depth(), 2);
        assert_eq!(Type::class("C").depth(), 1);
    }
}
