//! Surrogate keys and Skolem object creation (Section 2.2).
//!
//! A *key specification* assigns to each class a function from its objects to
//! key values that do not involve object identities. An instance *satisfies*
//! the specification iff distinct objects of a class always have distinct key
//! values. The [`SkolemFactory`] implements the paper's `Mk_C(...)` functions:
//! the identity of `Mk_C(k)` is *derived* from `(C, k)` by one specified hash
//! ([`skolem_id`]), so it is a function of the key — independent of mint
//! order, thread count and crashes — and the factory's memo only detects
//! collisions, which are hard errors.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::error::ModelError;
use crate::fingerprint::Fingerprint;
use crate::instance::Instance;
use crate::oid::Oid;
use crate::path::Path;
use crate::types::{ClassName, Label};
use crate::values::Value;
use crate::Result;

/// An expression describing how to compute a key value from an object.
///
/// Key expressions mirror the paper's Example 2.3: the key of a `CountryE`
/// is `x.name`, and the key of a `CityE` is the record
/// `(name = x.name, country_name = x.country.name)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyExpr {
    /// Project an attribute path from the object's value, dereferencing object
    /// identities along the way. If the final value is itself an identity, it
    /// is *not* dereferenced — use a longer path to reach a value instead.
    Path(Path),
    /// A record of named sub-keys.
    Record(Vec<(Label, KeyExpr)>),
    /// A fixed constant.
    Const(Value),
}

impl KeyExpr {
    /// Convenience: a key that is a single attribute path, e.g. `"name"` or
    /// `"country.name"`.
    pub fn path(p: impl Into<Path>) -> KeyExpr {
        KeyExpr::Path(p.into())
    }

    /// Convenience: a record of labelled path keys.
    pub fn record<I, L>(fields: I) -> KeyExpr
    where
        I: IntoIterator<Item = (L, KeyExpr)>,
        L: Into<Label>,
    {
        KeyExpr::Record(fields.into_iter().map(|(l, k)| (l.into(), k)).collect())
    }

    /// Evaluate the key expression for the object value `value` in `instance`.
    pub(crate) fn eval(&self, value: &Value, instance: &Instance) -> Result<Value> {
        match self {
            KeyExpr::Path(path) => Ok(path.eval(value, instance)?.clone()),
            KeyExpr::Record(fields) => {
                let fields = fields
                    .iter()
                    .map(|(label, sub)| Ok((label.clone(), sub.eval(value, instance)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Value::Record(fields.into_iter().collect()))
            }
            KeyExpr::Const(v) => Ok(v.clone()),
        }
    }
}

impl fmt::Display for KeyExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyExpr::Path(p) => write!(f, "x.{p}"),
            KeyExpr::Record(fields) => {
                write!(f, "(")?;
                for (i, (l, k)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l} = {k}")?;
                }
                write!(f, ")")
            }
            KeyExpr::Const(v) => write!(f, "{v:?}"),
        }
    }
}

/// A key specification: a key expression per (keyed) class of a schema.
///
/// Classes without an entry are unkeyed; key-based merging and Skolem creation
/// are only available for keyed classes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeySpec {
    keys: BTreeMap<ClassName, KeyExpr>,
}

impl KeySpec {
    /// An empty key specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the key expression for a class (builder style).
    pub fn with_key(mut self, class: impl Into<ClassName>, key: KeyExpr) -> Self {
        self.keys.insert(class.into(), key);
        self
    }

    /// The key expression of a class, if any.
    pub fn key_of(&self, class: &ClassName) -> Option<&KeyExpr> {
        self.keys.get(class)
    }

    /// Whether the class has a key.
    pub(crate) fn has_key(&self, class: &ClassName) -> bool {
        self.keys.contains_key(class)
    }

    /// The keyed classes.
    pub fn classes(&self) -> impl Iterator<Item = &ClassName> {
        self.keys.keys()
    }

    /// Evaluate the key of an object identity in an instance.
    pub fn eval(&self, oid: &Oid, instance: &Instance) -> Result<Value> {
        let key = self.keys.get(oid.class()).ok_or_else(|| {
            ModelError::KeyEvaluation(format!("class `{}` has no key", oid.class()))
        })?;
        let value = instance.value_or_err(oid)?;
        let key_value = key.eval(value, instance)?;
        if key_value.contains_oid() {
            return Err(ModelError::KeyContainsOid(oid.class().clone()));
        }
        Ok(key_value)
    }

    /// Check that `instance` satisfies this key specification: within each
    /// keyed class, distinct objects have distinct key values (Section 2.2).
    pub fn check(&self, instance: &Instance) -> Result<()> {
        for class in self.keys.keys() {
            let mut seen: BTreeMap<Value, Oid> = BTreeMap::new();
            for oid in instance.extent(class) {
                let key_value = self.eval(oid, instance)?;
                if let Some(previous) = seen.get(&key_value) {
                    if previous != oid {
                        return Err(ModelError::KeyViolation {
                            class: class.clone(),
                            key: format!("{key_value:?}"),
                        });
                    }
                }
                seen.insert(key_value, oid.clone());
            }
        }
        Ok(())
    }

    /// Build an index from key value to object identity for one class.
    /// Fails if the key is violated.
    pub(crate) fn index(
        &self,
        class: &ClassName,
        instance: &Instance,
    ) -> Result<BTreeMap<Value, Oid>> {
        let mut out = BTreeMap::new();
        for oid in instance.extent(class) {
            let key_value = self.eval(oid, instance)?;
            if let Some(previous) = out.insert(key_value.clone(), oid.clone()) {
                if &previous != oid {
                    return Err(ModelError::KeyViolation {
                        class: class.clone(),
                        key: format!("{key_value:?}"),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// The identity discriminator of `Mk_class(key)`: the [`Fingerprint`] of the
/// class name (length-prefixed) followed by the key's canonical byte walk,
/// through the MurmurHash3 64-bit finaliser, with the high bit cleared. The
/// ids are persisted, so this function is pinned by golden values
/// (`wol-model/tests/skolem_identity.rs`); a change renumbers every stored
/// target.
pub fn skolem_id(class: &ClassName, key: &Value) -> u64 {
    let mut hash = Fingerprint::new();
    hash.str(class.as_str());
    hash.value(key);
    let mut k = hash.finish();
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^= k >> 33;
    k & (u64::MAX >> 1)
}

/// The paper's `Mk_C` object-creating functions.
///
/// `mk(class, key)` is a function of its arguments, as Skolem functions
/// "create new object identities associated uniquely with their arguments"
/// (Section 3.1): the identity is `Oid::new(class, skolem_id(class, key))`.
/// It does not depend on which keys were minted before, in what order, on
/// which thread, or before a crash, so every target is bit-identical to
/// every other run's by construction.
///
/// The memo exists to *check*, not to number: it detects a collision — two
/// distinct keys deriving one identity, or a derived identity already held
/// by a seeded object under another key — as a hard
/// [`ModelError::SkolemCollision`], never a probe sequence; and it hands a
/// durable journal the assignments a unit of work made
/// ([`assignments_since`](Self::assignments_since)).
/// Identities *not* derived from their key — pre-existing objects registered
/// by [`seed_from_instance`](Self::seed_from_instance) — are memoised key →
/// identity and answer for their key. Workers mint through factories of
/// their own; the owner folds them in with [`merge`](Self::merge), which
/// detects a collision across workers — and a worker that derived an
/// identity for a key the owner holds seeded. Everything observable — exported
/// state, `Debug`, [`assignments_since`](Self::assignments_since) — is
/// sorted, never hash or insertion order.
#[derive(Clone, Default)]
pub struct SkolemFactory {
    memos: BTreeMap<ClassName, ClassMemo>,
}

/// One class's memo.
#[derive(Clone, Default)]
struct ClassMemo {
    /// Every identity held, with its key, in insertion order.
    entries: Vec<(u64, Value)>,
    /// Identity → position in `entries`.
    by_id: HashMap<u64, usize>,
    /// Key → identity, for the identities not derived from their key.
    seeded: HashMap<Value, u64>,
}

impl ClassMemo {
    /// The identity `key` holds, given the identity `derived` it derives.
    fn find(&self, key: &Value, derived: u64) -> Option<u64> {
        if !self.seeded.is_empty() {
            if let Some(&id) = self.seeded.get(key) {
                return Some(id);
            }
        }
        let &at = self.by_id.get(&derived)?;
        (self.entries[at].1 == *key).then_some(derived)
    }

    /// Hold `key → id` for a key that holds nothing yet (`derived` is the
    /// identity it derives); the identity must be free.
    fn insert(&mut self, class: &ClassName, key: Value, id: u64, derived: u64) -> Result<()> {
        if let Some(&at) = self.by_id.get(&id) {
            let held = &self.entries[at].1;
            return Err(ModelError::SkolemCollision(format!(
                "keys {held:?} and {key:?} both claim {}",
                Oid::new(class.clone(), id)
            )));
        }
        if id != derived {
            self.seeded.insert(key.clone(), id);
        }
        self.by_id.insert(id, self.entries.len());
        self.entries.push((id, key));
        Ok(())
    }

    /// Hold `key → id` unless the key already holds exactly that identity.
    fn assign(&mut self, class: &ClassName, key: Value, id: u64, derived: u64) -> Result<()> {
        match self.find(&key, derived) {
            None => self.insert(class, key, id, derived),
            Some(held) if held == id => Ok(()),
            Some(held) => Err(ModelError::SkolemCollision(format!(
                "key {key:?} claims both {} and {}",
                Oid::new(class.clone(), held),
                Oid::new(class.clone(), id)
            ))),
        }
    }
}

impl SkolemFactory {
    /// A factory with no identities assigned yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply `Mk_class(key)`: the identity associated with the key value,
    /// memoised on first use; a collision is an error.
    pub fn mk(&mut self, class: &ClassName, key: &Value) -> Result<Oid> {
        let derived = skolem_id(class, key);
        let memo = self.memos.entry(class.clone()).or_default();
        let id = match memo.find(key, derived) {
            Some(id) => id,
            None => {
                memo.insert(class, key.clone(), derived, derived)?;
                derived
            }
        };
        Ok(Oid::new(class.clone(), id))
    }

    /// The identity held for a key value, without creating one.
    pub fn lookup(&self, class: &ClassName, key: &Value) -> Option<Oid> {
        let id = self.memos.get(class)?.find(key, skolem_id(class, key))?;
        Some(Oid::new(class.clone(), id))
    }

    /// Number of identities held for a class.
    pub fn count(&self, class: &ClassName) -> usize {
        self.memos.get(class).map_or(0, |memo| memo.entries.len())
    }

    /// Total number of identities held.
    pub(crate) fn len(&self) -> usize {
        self.memos.values().map(|memo| memo.entries.len()).sum()
    }

    /// True if no identities are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold a worker's factory into this one, keeping every identity either
    /// holds. A key both hold must hold one identity, and an identity both
    /// hold one key; anything else is a collision error.
    pub fn merge(&mut self, other: SkolemFactory) -> Result<()> {
        for (class, memo) in other.memos {
            let mine = match self.memos.entry(class.clone()) {
                Entry::Vacant(slot) => {
                    slot.insert(memo);
                    continue;
                }
                Entry::Occupied(slot) => slot.into_mut(),
            };
            let derived_only = memo.seeded.is_empty();
            for (id, key) in memo.entries {
                let derived = if derived_only {
                    id
                } else {
                    skolem_id(&class, &key)
                };
                mine.assign(&class, key, id, derived)?;
            }
        }
        Ok(())
    }

    /// Export the factory's memo for persistence.
    pub fn export_state(&self) -> SkolemState {
        SkolemState {
            assigned: self
                .memos
                .iter()
                .filter(|(_, memo)| !memo.entries.is_empty())
                .map(|(class, memo)| {
                    let keys = memo
                        .entries
                        .iter()
                        .map(|(id, key)| (key.clone(), Oid::new(class.clone(), *id)))
                        .collect();
                    (class.clone(), keys)
                })
                .collect(),
        }
    }

    /// Rebuild a factory from exported state (inverse of
    /// [`export_state`](Self::export_state)); a state whose keys collide is
    /// an error.
    pub fn from_state(state: SkolemState) -> Result<Self> {
        let mut factory = SkolemFactory::new();
        for (class, keys) in state.assigned {
            for (key, oid) in keys {
                factory.restore_assignment(&class, key, oid)?;
            }
        }
        Ok(factory)
    }

    /// Per-class memo sizes: a watermark to take before a unit of work, so
    /// [`assignments_since`](Self::assignments_since) can extract exactly the
    /// assignments that work made. The memo only grows.
    pub fn sizes(&self) -> BTreeMap<ClassName, usize> {
        self.memos
            .iter()
            .map(|(class, memo)| (class.clone(), memo.entries.len()))
            .collect()
    }

    /// The assignments made since the [`sizes`](Self::sizes) watermark
    /// `before`, in `(class, id)` order.
    pub fn assignments_since(
        &self,
        before: &BTreeMap<ClassName, usize>,
    ) -> Vec<(ClassName, Value, Oid)> {
        let mut out = Vec::new();
        for (class, memo) in &self.memos {
            let from = before.get(class).copied().unwrap_or(0);
            let mut fresh: Vec<&(u64, Value)> = memo.entries.iter().skip(from).collect();
            fresh.sort_unstable_by_key(|(id, _)| *id);
            out.extend(
                fresh
                    .into_iter()
                    .map(|(id, key)| (class.clone(), key.clone(), Oid::new(class.clone(), *id))),
            );
        }
        out
    }

    /// Re-register one assignment during recovery, so replaying a
    /// write-ahead log of assignments reproduces the factory that made them.
    /// An identity not derived from its key is held as seeded.
    pub fn restore_assignment(&mut self, class: &ClassName, key: Value, oid: Oid) -> Result<()> {
        let derived = skolem_id(class, &key);
        self.memos
            .entry(class.clone())
            .or_default()
            .assign(class, key, oid.id(), derived)
    }

    /// Pre-register the identities of every object of `class` in `instance`,
    /// keyed by `spec`. Used when a transformation's target already contains
    /// data that new objects must merge with.
    pub fn seed_from_instance(
        &mut self,
        class: &ClassName,
        spec: &KeySpec,
        instance: &Instance,
    ) -> Result<()> {
        for oid in instance.extent(class) {
            let key = spec.eval(oid, instance)?;
            self.restore_assignment(class, key, oid.clone())?;
        }
        Ok(())
    }
}

impl fmt::Debug for SkolemFactory {
    /// The sorted memo — the exported state, never hash or insertion order,
    /// so two factories holding one memo print identically.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkolemFactory")
            .field("assigned", &self.export_state().assigned)
            .finish()
    }
}

/// Serializable view of a [`SkolemFactory`]'s memo, produced by
/// [`SkolemFactory::export_state`] and consumed by
/// [`SkolemFactory::from_state`]. The persistence layer stores it inside
/// snapshots so a recovered run detects a collision against pre-crash
/// identities exactly as an uncrashed run would.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkolemState {
    /// Per-class memo from key value to assigned identity.
    pub assigned: BTreeMap<ClassName, BTreeMap<Value, Oid>>,
}

impl SkolemState {
    /// The per-class memo sizes of a factory rebuilt from this state (see
    /// [`SkolemFactory::sizes`]).
    pub fn sizes(&self) -> BTreeMap<ClassName, usize> {
        self.assigned
            .iter()
            .map(|(class, keys)| (class.clone(), keys.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euro_instance() -> (Instance, Oid, Oid, Oid) {
        let mut inst = Instance::new("euro");
        let uk = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("name", Value::str("United Kingdom"))]),
        );
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("name", Value::str("France"))]),
        );
        let paris = inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Paris")),
                ("country", Value::oid(fr.clone())),
            ]),
        );
        (inst, uk, fr, paris)
    }

    fn euro_keys() -> KeySpec {
        // Example 2.3 of the paper.
        KeySpec::new()
            .with_key("CountryE", KeyExpr::path("name"))
            .with_key(
                "CityE",
                KeyExpr::record([
                    ("name", KeyExpr::path("name")),
                    ("country_name", KeyExpr::path("country.name")),
                ]),
            )
    }

    #[test]
    fn key_evaluation_follows_example_2_3() {
        let (inst, _, _, paris) = euro_instance();
        let keys = euro_keys();
        let key = keys.eval(&paris, &inst).unwrap();
        assert_eq!(
            key,
            Value::record([
                ("name", Value::str("Paris")),
                ("country_name", Value::str("France"))
            ])
        );
    }

    #[test]
    fn key_spec_lookup() {
        let keys = euro_keys();
        assert!(keys.has_key(&ClassName::new("CountryE")));
        assert!(!keys.has_key(&ClassName::new("StateA")));
        assert_eq!(keys.classes().count(), 2);
    }

    #[test]
    fn satisfied_key_spec_checks_ok() {
        let (inst, _, _, _) = euro_instance();
        assert!(euro_keys().check(&inst).is_ok());
    }

    #[test]
    fn violated_key_spec_detected() {
        let (mut inst, _, _, _) = euro_instance();
        // A second country also called France violates the name key.
        inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("name", Value::str("France"))]),
        );
        let err = euro_keys().check(&inst).unwrap_err();
        assert!(matches!(err, ModelError::KeyViolation { .. }));
    }

    #[test]
    fn key_containing_oid_rejected() {
        let (inst, _, _, paris) = euro_instance();
        let keys = KeySpec::new().with_key("CityE", KeyExpr::path("country"));
        let err = keys.eval(&paris, &inst).unwrap_err();
        assert_eq!(err, ModelError::KeyContainsOid(ClassName::new("CityE")));
    }

    #[test]
    fn unkeyed_class_eval_fails() {
        let (inst, uk, _, _) = euro_instance();
        let keys = KeySpec::new();
        assert!(keys.eval(&uk, &inst).is_err());
    }

    #[test]
    fn index_maps_keys_to_oids() {
        let (inst, uk, fr, _) = euro_instance();
        let keys = euro_keys();
        let index = keys.index(&ClassName::new("CountryE"), &inst).unwrap();
        assert_eq!(index.get(&Value::str("United Kingdom")), Some(&uk));
        assert_eq!(index.get(&Value::str("France")), Some(&fr));
    }

    #[test]
    fn skolem_factory_is_deterministic_and_injective() {
        let mut factory = SkolemFactory::new();
        let country = ClassName::new("CountryT");
        let a = factory.mk(&country, &Value::str("France")).unwrap();
        let b = factory.mk(&country, &Value::str("France")).unwrap();
        let c = factory.mk(&country, &Value::str("Germany")).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.id(), skolem_id(&country, &Value::str("France")));
        assert!(a.id() < 1 << 63, "the high bit stays clear");
        assert_eq!(factory.count(&country), 2);
        assert_eq!(factory.len(), 2);
        assert!(!factory.is_empty());
        assert_eq!(
            factory.lookup(&country, &Value::str("France")),
            Some(a.clone())
        );
        assert_eq!(factory.lookup(&country, &Value::str("Spain")), None);
    }

    #[test]
    fn skolem_factory_separates_classes() {
        let mut factory = SkolemFactory::new();
        let a = factory
            .mk(&ClassName::new("CountryT"), &Value::str("France"))
            .unwrap();
        let b = factory
            .mk(&ClassName::new("CityT"), &Value::str("France"))
            .unwrap();
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id(), "the class name is part of the hash");
        assert_eq!(a.class(), &ClassName::new("CountryT"));
        assert_eq!(b.class(), &ClassName::new("CityT"));
    }

    #[test]
    fn seed_from_instance_reuses_existing_oids() {
        let (inst, uk, fr, _) = euro_instance();
        let keys = euro_keys();
        let mut factory = SkolemFactory::new();
        factory
            .seed_from_instance(&ClassName::new("CountryE"), &keys, &inst)
            .unwrap();
        // Asking for an existing key returns the existing identity...
        let again = factory
            .mk(&ClassName::new("CountryE"), &Value::str("France"))
            .unwrap();
        assert_eq!(again, fr);
        // ... and a new key gets its derived identity, which does not collide.
        let fresh = factory
            .mk(&ClassName::new("CountryE"), &Value::str("Spain"))
            .unwrap();
        assert_eq!(
            fresh.id(),
            skolem_id(&ClassName::new("CountryE"), &Value::str("Spain"))
        );
        assert_ne!(fresh, uk);
        assert_ne!(fresh, fr);
    }

    /// Export → import round-trips a factory bit-identically: old keys keep
    /// their identities, seeded ones included, and a new key mints what the
    /// original mints.
    #[test]
    fn skolem_state_round_trip_is_bit_identical() {
        let class = ClassName::new("CountryT");
        let mut factory = SkolemFactory::new();
        let fr = factory.mk(&class, &Value::str("France")).unwrap();
        let de = factory.mk(&class, &Value::str("Germany")).unwrap();
        let seeded = Oid::new(class.clone(), 7);
        factory
            .restore_assignment(&class, Value::str("Italy"), seeded.clone())
            .unwrap();
        let state = factory.export_state();
        assert_eq!(
            SkolemFactory::from_state(state.clone())
                .unwrap()
                .export_state(),
            state
        );
        assert_eq!(state.sizes(), factory.sizes());

        let mut restored = SkolemFactory::from_state(state).unwrap();
        assert_eq!(restored.mk(&class, &Value::str("France")).unwrap(), fr);
        assert_eq!(restored.mk(&class, &Value::str("Germany")).unwrap(), de);
        assert_eq!(restored.mk(&class, &Value::str("Italy")).unwrap(), seeded);
        assert_eq!(
            restored.mk(&class, &Value::str("Spain")).unwrap(),
            factory.mk(&class, &Value::str("Spain")).unwrap()
        );
    }

    /// Watermark deltas capture exactly the assignments made after the
    /// watermark, in identity order, and restoring them onto the earlier
    /// factory reproduces the later one.
    #[test]
    fn assignments_since_extracts_and_restores_the_delta() {
        let country = ClassName::new("CountryT");
        let city = ClassName::new("CityT");
        let mut factory = SkolemFactory::new();
        let fr = factory.mk(&country, &Value::str("France")).unwrap();
        let mark = factory.sizes();
        let before_state = factory.export_state();

        let mut minted = Vec::new();
        for name in ["Germany", "Spain", "Portugal"] {
            let oid = factory.mk(&country, &Value::str(name)).unwrap();
            minted.push((country.clone(), Value::str(name), oid));
        }
        let paris = factory.mk(&city, &Value::str("Paris")).unwrap();
        minted.push((city.clone(), Value::str("Paris"), paris));
        assert_eq!(factory.mk(&country, &Value::str("France")).unwrap(), fr);

        let delta = factory.assignments_since(&mark);
        minted.sort_by(|a, b| (&a.0, a.2.id()).cmp(&(&b.0, b.2.id())));
        assert_eq!(delta, minted);
        let mut restored = SkolemFactory::from_state(before_state).unwrap();
        for (class, key, oid) in delta {
            restored.restore_assignment(&class, key, oid).unwrap();
        }
        assert_eq!(restored.export_state(), factory.export_state());
        assert!(factory.assignments_since(&factory.sizes()).is_empty());
    }

    /// Nothing observable is in insertion or hash order: factories holding
    /// one memo, built in different orders — minted, restored backwards,
    /// merged from two workers — export and print identically.
    #[test]
    fn hashed_memo_reports_in_sorted_order() {
        let class = ClassName::new("T");
        let keys = ["d", "a", "c", "b", "e"];
        let mut minted = SkolemFactory::new();
        for key in keys {
            minted.mk(&class, &Value::str(key)).unwrap();
        }
        let mut restored = SkolemFactory::new();
        for key in keys.iter().rev() {
            let oid = Oid::new(class.clone(), skolem_id(&class, &Value::str(*key)));
            restored
                .restore_assignment(&class, Value::str(*key), oid)
                .unwrap();
        }
        let (mut left, mut right) = (SkolemFactory::new(), SkolemFactory::new());
        for key in &keys[..3] {
            left.mk(&class, &Value::str(*key)).unwrap();
        }
        for key in &keys[2..] {
            right.mk(&class, &Value::str(*key)).unwrap();
        }
        let mut merged = SkolemFactory::new();
        merged.merge(right).unwrap();
        merged.merge(left).unwrap();
        for other in [&restored, &merged] {
            assert_eq!(other.export_state(), minted.export_state());
            assert_eq!(format!("{other:?}"), format!("{minted:?}"));
            assert_eq!(other.count(&class), 5);
        }
    }

    /// A key re-pointed to another identity, or an identity claimed by a
    /// second key, is a collision — on restore as on merge.
    #[test]
    fn conflicting_assignments_are_collisions() {
        let class = ClassName::new("T");
        let mut factory = SkolemFactory::new();
        let a = factory.mk(&class, &Value::str("a")).unwrap();
        let err = factory
            .restore_assignment(&class, Value::str("a"), Oid::new(class.clone(), 3))
            .unwrap_err();
        assert!(matches!(err, ModelError::SkolemCollision(_)), "{err}");
        let err = factory
            .restore_assignment(&class, Value::str("z"), a.clone())
            .unwrap_err();
        assert!(err.to_string().contains("both claim"), "{err}");
        // Restoring what is already held is a no-op.
        factory
            .restore_assignment(&class, Value::str("a"), a)
            .unwrap();
        assert_eq!(factory.count(&class), 1);
    }

    #[test]
    fn key_expr_display() {
        let k = KeyExpr::record([
            ("name", KeyExpr::path("name")),
            ("country_name", KeyExpr::path("country.name")),
        ]);
        let rendered = k.to_string();
        assert!(rendered.contains("name = x.name"));
        assert!(rendered.contains("country_name = x.country.name"));
    }
}
