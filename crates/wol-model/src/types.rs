//! Types of the WOL data model (Section 2.1 of the paper).
//!
//! Types are built from base types, class types (references to object
//! identities of a class), set types, record types, variant types, lists and
//! optional fields. Records and variants may have arbitrarily many labelled
//! fields and may be nested arbitrarily deep.
//!
//! Class names and the labels of values are schema vocabulary, not data:
//! both are pointers into one process-wide interner ([`ClassName`],
//! [`Label`]), as are the variables of programs and plans ([`Var`]). A name is interned where the vocabulary is read — a program,
//! a provider's `open`, an expression's lowering, a decoder's first sight of
//! it — and copied as a pointer from then on. No per-row path interns (see
//! [`crate::values`] for the record side of that rule); [`interner_lookups`]
//! counts the lookups, so a test can hold a hot path to it. A [`Type`]
//! itself spells its labels as plain strings: it is read once per schema,
//! and a record is searched by label text.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::error::ModelError;
use crate::Result;

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

/// Lookups made in the interner since the process started.
static LOOKUPS: AtomicU64 = AtomicU64::new(0);

/// How many times the process-wide interner behind [`ClassName::new`],
/// [`Label::new`] and [`Var::new`] has been consulted. A counter, not a clock: a path that
/// resolves its names once reads the same count at any row count.
pub fn interner_lookups() -> u64 {
    LOOKUPS.load(AtomicOrdering::Relaxed)
}

/// The process-wide interner behind [`ClassName::new`], [`Label::new`] and
/// [`Var::new`].
fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    LOOKUPS.fetch_add(1, AtomicOrdering::Relaxed);
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

/// Text order between two interned strings, skipping the comparison when
/// they are one pointer.
fn interned_cmp(a: &'static str, b: &'static str) -> Ordering {
    if std::ptr::eq(a, b) {
        Ordering::Equal
    } else {
        a.cmp(b)
    }
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
        interned_cmp(self.0, other.0)
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

/// An attribute label of a record or variant value, and of the programs and
/// plans that build and project them.
///
/// A label is interned exactly like a [`ClassName`]: cloning copies a
/// pointer, equality compares pointers, and ordering and hashing follow the
/// text. So a record's fields, kept sorted by label, iterate in ascending
/// string order — and hash, fingerprint and encode to the same bytes — as a
/// map keyed by plain strings would. A label dereferences to `str` and
/// compares with string slices. [`Label::new`] and the `From` conversions
/// intern, so code that builds rows resolves its labels once, up front.
#[derive(Clone)]
pub struct Label(&'static str);

impl Label {
    /// Create (or look up) a label.
    pub fn new(text: impl AsRef<str>) -> Self {
        Label(intern(text.as_ref()))
    }

    /// The label as a string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl PartialEq for Label {
    /// Interned labels are equal exactly when they are the same pointer.
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        interned_cmp(self.0, other.0)
    }
}

impl Hash for Label {
    /// Hashes as its text does, so `Borrow<str>` lookups agree.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Label {
    /// Quoted, as the text debug-prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.0 == other
    }
}

impl PartialEq<Label> for String {
    fn eq(&self, other: &Label) -> bool {
        self == other.0
    }
}

/// A logical variable of a program, a normal form or a plan.
///
/// A variable is interned on the same process-wide interner as [`Label`]
/// and [`ClassName`], and is `Copy`: copying one copies a pointer, and
/// equality compares pointers. Ordering and hashing follow the *text*, so
/// sets and maps of variables iterate, and every clause and plan renders,
/// exactly as over plain strings. A variable dereferences to `str` and
/// compares with string slices.
///
/// Only the parser, renaming and generated names intern ([`Var::new`],
/// [`Var::format`]); everything downstream copies the pointer.
#[derive(Clone, Copy)]
pub struct Var(&'static str);

impl Var {
    /// Create (or look up) a variable.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(intern(name.as_ref()))
    }

    /// The variable whose name `args` formats to, built in one reused
    /// per-thread buffer: a name already interned costs a lookup, not an
    /// allocation. Formatting `args` must not build a variable itself.
    pub fn format(args: fmt::Arguments<'_>) -> Self {
        use std::cell::RefCell;
        use std::fmt::Write;
        thread_local! {
            static BUFFER: RefCell<String> = const { RefCell::new(String::new()) };
        }
        BUFFER.with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            buffer.clear();
            // Writing into a `String` cannot fail.
            let _ = buffer.write_fmt(args);
            Var::new(buffer.as_str())
        })
    }

    /// The variable's name as a string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl PartialEq for Var {
    /// Interned variables are equal exactly when they are the same pointer.
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Var {}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Var {
    fn cmp(&self, other: &Self) -> Ordering {
        interned_cmp(self.0, other.0)
    }
}

impl Hash for Var {
    /// Hashes as its text does, so `Borrow<str>` lookups agree.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Deref for Var {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Var {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Var {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Var {
    /// Quoted, as the text debug-prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Self {
        Var::new(s)
    }
}

impl PartialEq<str> for Var {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Var {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
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
    /// A record type `(a1: t1, ..., ak: tk)`, fields in declared order.
    /// A type spells its labels as plain text: it is read per schema, not
    /// per row, and records are found by text ([`crate::Record::get`]).
    Record(Vec<(String, Type)>),
    /// A variant type `<| a1: t1, ..., ak: tk |>`.
    Variant(Vec<(String, Type)>),
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

    /// Shorthand for an optional type.
    pub fn optional(elem: Type) -> Type {
        Type::Optional(Box::new(elem))
    }

    /// Build a record type from `(label, type)` pairs.
    pub fn record<I, L>(fields: I) -> Type
    where
        I: IntoIterator<Item = (L, Type)>,
        L: Into<String>,
    {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Build a variant type from `(label, type)` pairs.
    pub fn variant<I, L>(alts: I) -> Type
    where
        I: IntoIterator<Item = (L, Type)>,
        L: Into<String>,
    {
        Type::Variant(alts.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// True if this is a class type.
    pub(crate) fn is_class(&self) -> bool {
        matches!(self, Type::Class(_))
    }

    /// If this is a record type, look up the type of field `label`.
    pub fn field(&self, label: &str) -> Option<&Type> {
        match self {
            Type::Record(fields) => fields.iter().find(|(l, _)| l == label).map(|(_, t)| t),
            _ => None,
        }
    }

    /// All class names referenced (transitively) inside this type.
    pub(crate) fn referenced_classes(&self) -> Vec<ClassName> {
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

    /// Structural well-formedness: record/variant labels must be distinct and
    /// variants must have at least one alternative.
    pub(crate) fn check_well_formed(&self, context: &str) -> Result<()> {
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
}

fn check_distinct_labels(fields: &[(String, Type)], context: &str) -> Result<()> {
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
    }

    #[test]
    fn display_base_types() {
        assert_eq!(BaseType::Bool.to_string(), "bool");
        assert_eq!(BaseType::Int.to_string(), "int");
        assert_eq!(BaseType::Real.to_string(), "real");
        assert_eq!(BaseType::Str.to_string(), "str");
    }
}
