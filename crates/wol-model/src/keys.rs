//! Surrogate keys and Skolem object creation (Section 2.2).
//!
//! A *key specification* assigns to each class a function from its objects to
//! key values that do not involve object identities. An instance *satisfies*
//! the specification iff distinct objects of a class always have distinct key
//! values. The [`SkolemFactory`] implements the paper's `Mk_C(...)` functions:
//! it deterministically creates (and memoises) an object identity for each
//! distinct key value of a class.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::error::ModelError;
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
    pub fn eval(&self, value: &Value, instance: &Instance) -> Result<Value> {
        match self {
            KeyExpr::Path(path) => Ok(path.eval(value, instance)?.clone()),
            KeyExpr::Record(fields) => {
                let mut out = BTreeMap::new();
                for (label, sub) in fields {
                    out.insert(label.clone(), sub.eval(value, instance)?);
                }
                Ok(Value::Record(out))
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

    /// Set the key expression for a class.
    pub fn set_key(&mut self, class: impl Into<ClassName>, key: KeyExpr) {
        self.keys.insert(class.into(), key);
    }

    /// The key expression of a class, if any.
    pub fn key_of(&self, class: &ClassName) -> Option<&KeyExpr> {
        self.keys.get(class)
    }

    /// Whether the class has a key.
    pub fn has_key(&self, class: &ClassName) -> bool {
        self.keys.contains_key(class)
    }

    /// The keyed classes.
    pub fn classes(&self) -> impl Iterator<Item = &ClassName> {
        self.keys.keys()
    }

    /// Number of keyed classes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no class is keyed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
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
    pub fn index(&self, class: &ClassName, instance: &Instance) -> Result<BTreeMap<Value, Oid>> {
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

/// Deterministic Skolem-function factory implementing the paper's `Mk_C`
/// object-creating functions.
///
/// `mk(class, key_value)` returns the *same* object identity every time it is
/// called with the same class and key value within one factory, and a fresh
/// identity for each new key value. This realises the semantics of Skolem
/// functions, "which create new object identities associated uniquely with
/// their arguments" (Section 3.1), and makes the "unique smallest
/// transformation up to renaming of object identities" reproducible.
///
/// The factory's numbering depends on *first-call order*, which is why it
/// cannot be shared across worker threads directly; workers record
/// [`SkolemClaims`] instead and the claims are resolved against the factory
/// in input order (see the two-phase key-claim protocol documented there).
///
/// Per class, the memo is a hash map from key to identity — a repeated key,
/// the common case on merging partial inserts, is one hash lookup, not a
/// chain of record comparisons — beside an index of the same keys in
/// identity order, so the assignments made since a watermark
/// ([`assignments_since`](Self::assignments_since)) are a suffix of that
/// index, not a walk of the whole memo. Everything observable — exported
/// state, `Debug` output, assignment order — is sorted, never hash order.
#[derive(Clone, Default)]
pub struct SkolemFactory {
    assigned: BTreeMap<ClassName, ClassMemo>,
    counters: BTreeMap<ClassName, u64>,
}

/// One class's Skolem memo: key → identity by hash, and `(id, key)` in
/// ascending identity order (each key stored once, shared by both).
#[derive(Clone, Default)]
struct ClassMemo {
    by_key: HashMap<Arc<Value>, Oid>,
    by_id: Vec<(u64, Arc<Value>)>,
}

impl ClassMemo {
    /// Record `key → oid`. `mk` mints ascending identities, so the index
    /// append is the common case; restores and seeds may arrive out of order
    /// and re-point a key, which the sorted insert and the removal cover.
    fn assign(&mut self, key: Value, oid: Oid) {
        let key = Arc::new(key);
        if let Some(previous) = self.by_key.insert(Arc::clone(&key), oid.clone()) {
            self.by_id
                .retain(|(id, k)| *id != previous.id() || **k != *key);
        }
        let at = self.by_id.partition_point(|(id, _)| *id <= oid.id());
        self.by_id.insert(at, (oid.id(), key));
    }

    /// The assignments with identities at or past `watermark`, ascending.
    fn since(&self, watermark: u64) -> &[(u64, Arc<Value>)] {
        let start = self.by_id.partition_point(|(id, _)| *id < watermark);
        &self.by_id[start..]
    }

    fn sorted(&self) -> BTreeMap<Value, Oid> {
        self.by_key
            .iter()
            .map(|(key, oid)| ((**key).clone(), oid.clone()))
            .collect()
    }
}

impl SkolemFactory {
    /// A factory with no identities assigned yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply `Mk_class(key)`: return the identity associated with the key
    /// value, creating it if necessary.
    pub fn mk(&mut self, class: &ClassName, key: &Value) -> Oid {
        if let Some(existing) = self.lookup(class, key) {
            return existing.clone();
        }
        let counter = self.counters.entry(class.clone()).or_insert(0);
        let oid = Oid::new(class.clone(), *counter);
        *counter += 1;
        self.assigned
            .entry(class.clone())
            .or_default()
            .assign(key.clone(), oid.clone());
        oid
    }

    /// Look up the identity for a key value without creating one.
    pub fn lookup(&self, class: &ClassName, key: &Value) -> Option<&Oid> {
        self.assigned
            .get(class)
            .and_then(|memo| memo.by_key.get(key))
    }

    /// The key value that produced an identity, if the identity came from this
    /// factory. (Inverse of [`mk`](Self::mk).)
    pub fn key_of(&self, oid: &Oid) -> Option<&Value> {
        let memo = self.assigned.get(oid.class())?;
        memo.since(oid.id())
            .iter()
            .take_while(|(id, _)| *id == oid.id())
            .map(|(_, key)| &**key)
            .find(|key| memo.by_key.get(*key) == Some(oid))
    }

    /// Number of identities created for a class.
    pub fn count(&self, class: &ClassName) -> usize {
        self.assigned.get(class).map_or(0, |memo| memo.by_key.len())
    }

    /// Total number of identities created.
    pub fn len(&self) -> usize {
        self.assigned.values().map(|memo| memo.by_key.len()).sum()
    }

    /// True if no identities have been created.
    pub fn is_empty(&self) -> bool {
        self.assigned.values().all(|memo| memo.by_key.is_empty())
    }

    /// Export the factory's full state for persistence. The state captures
    /// both the key→identity memo and the per-class counters, so a factory
    /// rebuilt with [`from_state`](Self::from_state) is *bit-identical*: every
    /// already-assigned key returns its old identity and every new key gets
    /// the identity an uncrashed factory would have minted next.
    pub fn export_state(&self) -> SkolemState {
        SkolemState {
            assigned: self
                .assigned
                .iter()
                .map(|(class, memo)| (class.clone(), memo.sorted()))
                .collect(),
            counters: self.counters.clone(),
        }
    }

    /// Rebuild a factory from exported state (inverse of
    /// [`export_state`](Self::export_state)).
    pub fn from_state(state: SkolemState) -> Self {
        let assigned = state
            .assigned
            .into_iter()
            .map(|(class, keys)| {
                let mut memo = ClassMemo::default();
                for (key, oid) in keys {
                    let key = Arc::new(key);
                    memo.by_id.push((oid.id(), Arc::clone(&key)));
                    memo.by_key.insert(key, oid);
                }
                memo.by_id.sort_by_key(|(id, _)| *id);
                (class, memo)
            })
            .collect();
        SkolemFactory {
            assigned,
            counters: state.counters,
        }
    }

    /// The next identity discriminator `mk` would assign for `class`.
    pub fn counter(&self, class: &ClassName) -> u64 {
        self.counters.get(class).copied().unwrap_or(0)
    }

    /// A copy of all per-class counters — a cheap watermark to take before a
    /// unit of work so [`assignments_since`](Self::assignments_since) can
    /// extract exactly the assignments that work created.
    pub fn counter_snapshot(&self) -> BTreeMap<ClassName, u64> {
        self.counters.clone()
    }

    /// The assignments created since a [`counter_snapshot`](Self::counter_snapshot)
    /// was taken: every `(class, key, oid)` whose discriminator is at or past
    /// the snapshotted counter, in deterministic `(class, id)` order.
    /// Identity discriminators are minted monotonically per class, so the
    /// watermark comparison is exact, and the cost is the number of classes
    /// plus the assignments returned.
    pub fn assignments_since(
        &self,
        before: &BTreeMap<ClassName, u64>,
    ) -> Vec<(ClassName, Value, Oid)> {
        let mut out = Vec::new();
        for (class, memo) in &self.assigned {
            let watermark = before.get(class).copied().unwrap_or(0);
            out.extend(
                memo.since(watermark).iter().map(|(id, key)| {
                    (class.clone(), (**key).clone(), Oid::new(class.clone(), *id))
                }),
            );
        }
        out
    }

    /// Re-register one assignment during recovery: the key maps to `oid` and
    /// the class counter moves past it, so replaying a write-ahead log of
    /// assignments reproduces the factory that produced them.
    pub fn restore_assignment(&mut self, class: &ClassName, key: Value, oid: Oid) {
        let counter = self.counters.entry(class.clone()).or_insert(0);
        *counter = (*counter).max(oid.id() + 1);
        self.assigned
            .entry(class.clone())
            .or_default()
            .assign(key, oid);
    }

    /// Pre-register identities for every object of `class` in `instance`,
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
            self.assigned
                .entry(class.clone())
                .or_default()
                .assign(key, oid.clone());
            let counter = self.counters.entry(class.clone()).or_insert(0);
            *counter = (*counter).max(oid.id() + 1);
        }
        Ok(())
    }
}

impl fmt::Debug for SkolemFactory {
    /// The sorted memo and counters — the exported state, never hash order,
    /// so two factories with one numbering print identically.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.export_state();
        f.debug_struct("SkolemFactory")
            .field("assigned", &state.assigned)
            .field("counters", &state.counters)
            .finish()
    }
}

/// Serializable view of a [`SkolemFactory`]'s complete state (the key→identity
/// memo plus per-class counters), produced by
/// [`SkolemFactory::export_state`] and consumed by
/// [`SkolemFactory::from_state`]. The persistence layer stores this inside
/// snapshots so a recovered pipeline's `Mk_C` calls are bit-identical to an
/// uncrashed run's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkolemState {
    /// Per-class memo from key value to assigned identity.
    pub assigned: BTreeMap<ClassName, BTreeMap<Value, Oid>>,
    /// Per-class next-discriminator counters.
    pub counters: BTreeMap<ClassName, u64>,
}

// ---------------------------------------------------------------------------
// The two-phase key-claim protocol.
// ---------------------------------------------------------------------------

/// The high bit tags *provisional* object identities minted by
/// [`SkolemClaims`]; real identities come from monotonically increasing
/// counters starting at zero and can never reach it in practice (`2^63`
/// creations). The tag guarantees a provisional identity can never collide
/// with — and therefore never be confused for, or rewritten over — a real
/// identity embedded in the same value.
const PROVISIONAL_TAG: u64 = 1 << 63;

/// Globally unique arena numbers, so provisional identities from different
/// arenas (different workers, different queries, different operators) never
/// collide either. The counter is process-global and unordered across
/// threads, but provisional identities never escape a resolution pass, so
/// outputs stay deterministic.
static NEXT_ARENA: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Provisional-identity layout below the tag bit: 39 bits of arena number
/// (bits 24–62) above [`ARENA_SHIFT`] bits of per-arena claim index. Both
/// fields are *hard*-asserted at mint time — an overflow must fail loudly,
/// because wrapping would let two live arenas (or two claims of one arena)
/// collide and silently corrupt the resolution rewrite. The budgets are
/// generous: ~5.5 × 10¹¹ arenas per process and ~1.6 × 10⁷ distinct claims
/// per arena (one arena covers a single worker's partition of one operator,
/// or one query evaluation).
const ARENA_SHIFT: u32 = 24;

/// Exclusive upper bound on arena numbers (39 usable bits).
const MAX_ARENAS: u64 = 1 << (63 - ARENA_SHIFT);

/// Exclusive upper bound on per-arena claim indices.
const MAX_CLAIMS: u64 = 1 << ARENA_SHIFT;

/// A per-worker Skolem *claim arena* — one side of the two-phase key-claim
/// protocol that lets Skolem-bearing work run off the main thread while the
/// produced target stays bit-identical to a sequential run.
///
/// WOL's Skolem semantics (Section 4) define object identity by *key*, not
/// by allocation order, so which worker first evaluates `Mk_C(k)` cannot be
/// allowed to matter. The protocol (cf. database-ASM update-set consistency:
/// parallel updates are consistent exactly when their key claims do not
/// conflict):
///
/// 1. **Claim phase (workers).** Instead of touching the shared
///    [`SkolemFactory`], a worker calls [`SkolemClaims::mk`], which hands
///    back a *provisional* identity (tagged so it can never collide with a
///    real one, unique per arena) and records the `(class, key)` claim in
///    first-encounter order. Repeated keys within one arena reuse their
///    provisional identity without a new claim — exactly the factory's
///    memoisation, worker-locally.
/// 2. **Resolution phase (the owner, in input order).** The arenas are
///    drained *in partition order* ([`SkolemClaims::resolve_into`]): each
///    claim's key — rewritten through the resolutions so far, so nested
///    Skolem keys resolve inside-out — is fed to the real factory, which
///    assigns identities in exactly the order a sequential run would have
///    (a worker's first encounter of a key is the chunk-order first
///    encounter; partitions concatenate in input order). Duplicate claims
///    across workers resolve to the *same* final identity, realising the
///    "consistent update set" of conflicting-by-key parallel writes.
/// 3. The resulting provisional→final map rewrites the workers' outputs
///    ([`Value::map_oids`]), after which no provisional identity survives.
///
/// Provisional identities are only sound where they are never *compared*
/// against real identities — flowing into output values, or into the keys of
/// later claims. The executors gate which expressions qualify
/// (`Expr::skolem_parallel_safe` in `cpl`).
#[derive(Debug)]
pub struct SkolemClaims {
    arena: u64,
    /// Per-class memo of already-claimed keys, looked up by hash — nested so
    /// the hot-path lookup ([`SkolemClaims::mk`] on a repeated key) borrows
    /// the class and key instead of cloning them into a composite lookup key.
    assigned: BTreeMap<ClassName, HashMap<Arc<Value>, Oid>>,
    /// The claims in first-encounter order; each key shared with the memo.
    claims: Vec<(ClassName, Arc<Value>)>,
}

impl SkolemClaims {
    /// A fresh, empty arena with a process-unique provisional namespace.
    pub fn new() -> Self {
        let arena = NEXT_ARENA.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        assert!(
            arena < MAX_ARENAS,
            "provisional arena numbers exhausted (2^39 arenas minted in one process)"
        );
        SkolemClaims {
            arena,
            assigned: BTreeMap::new(),
            claims: Vec::new(),
        }
    }

    /// Apply `Mk_class(key)` provisionally: return the arena-local identity
    /// for the key value, recording a claim on first encounter. Repeated
    /// keys — the hot path on merging inserts — answer from the memo
    /// without allocating.
    pub fn mk(&mut self, class: &ClassName, key: &Value) -> Oid {
        if let Some(existing) = self.assigned.get(class).and_then(|keys| keys.get(key)) {
            return existing.clone();
        }
        let index = self.claims.len() as u64;
        assert!(
            index < MAX_CLAIMS,
            "claim arena overflow (2^24 distinct keys claimed by one worker)"
        );
        let id = PROVISIONAL_TAG | (self.arena << ARENA_SHIFT) | index;
        let oid = Oid::new(class.clone(), id);
        let key = Arc::new(key.clone());
        self.assigned
            .entry(class.clone())
            .or_default()
            .insert(Arc::clone(&key), oid.clone());
        self.claims.push((class.clone(), key));
        oid
    }

    /// Number of claims recorded so far — a *mark* callers can take before a
    /// unit of work to delimit the claims that work recorded
    /// (`claims[mark_before..mark_after]`), so resolution can interleave
    /// claim replay with other factory calls exactly as a sequential run
    /// interleaved them.
    pub fn mark(&self) -> usize {
        self.claims.len()
    }

    /// True if the arena recorded no claims.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// Replay the claims in `range` (in claim order) through `mk`, extending
    /// `resolved` with this arena's provisional→final assignments. Claim
    /// keys are rewritten through `resolved` first, so a key built from an
    /// earlier provisional identity (a nested Skolem) resolves to the key a
    /// sequential run would have used. `mk` is usually the real factory's
    /// [`SkolemFactory::mk`], but a claim context resolving nested arenas
    /// re-claims into its own arena instead.
    pub fn replay_range_into(
        &self,
        range: std::ops::Range<usize>,
        resolved: &mut BTreeMap<Oid, Oid>,
        mk: &mut impl FnMut(&ClassName, &Value) -> Oid,
    ) {
        for (index, (class, key)) in self.claims[range.clone()].iter().enumerate() {
            let final_oid = if key.contains_oid() {
                let key = key
                    .map_oids(&mut |oid| resolved.get(oid).cloned().unwrap_or_else(|| oid.clone()));
                mk(class, &key)
            } else {
                mk(class, key)
            };
            let id = PROVISIONAL_TAG | (self.arena << ARENA_SHIFT) | (range.start + index) as u64;
            resolved.insert(Oid::new(class.clone(), id), final_oid);
        }
    }

    /// Resolve the claims in `range` against `factory` (see
    /// [`replay_range_into`](Self::replay_range_into)).
    pub fn resolve_range_into(
        &self,
        range: std::ops::Range<usize>,
        factory: &mut SkolemFactory,
        resolved: &mut BTreeMap<Oid, Oid>,
    ) {
        self.replay_range_into(range, resolved, &mut |class, key| factory.mk(class, key));
    }

    /// Resolve *all* of this arena's claims against `factory` (see
    /// [`replay_range_into`](Self::replay_range_into)).
    pub fn resolve_into(&self, factory: &mut SkolemFactory, resolved: &mut BTreeMap<Oid, Oid>) {
        self.resolve_range_into(0..self.claims.len(), factory, resolved);
    }
}

impl Default for SkolemClaims {
    fn default() -> Self {
        Self::new()
    }
}

/// Rewrite every provisional identity in `value` through the resolution map;
/// identities without an entry (real ones) pass through unchanged. Cheap
/// no-op clone-free check first: most values carry no identities at all.
pub fn rewrite_resolved(value: &Value, resolved: &BTreeMap<Oid, Oid>) -> Value {
    if resolved.is_empty() || !value.contains_oid() {
        return value.clone();
    }
    value.map_oids(&mut |oid| resolved.get(oid).cloned().unwrap_or_else(|| oid.clone()))
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
        assert_eq!(keys.len(), 2);
        assert!(!keys.is_empty());
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
        let a = factory.mk(&country, &Value::str("France"));
        let b = factory.mk(&country, &Value::str("France"));
        let c = factory.mk(&country, &Value::str("Germany"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(factory.count(&country), 2);
        assert_eq!(factory.len(), 2);
        assert!(!factory.is_empty());
        assert_eq!(factory.lookup(&country, &Value::str("France")), Some(&a));
        assert_eq!(factory.key_of(&a), Some(&Value::str("France")));
        assert_eq!(factory.key_of(&Oid::new(country, 99)), None);
    }

    #[test]
    fn skolem_factory_separates_classes() {
        let mut factory = SkolemFactory::new();
        let a = factory.mk(&ClassName::new("CountryT"), &Value::str("France"));
        let b = factory.mk(&ClassName::new("CityT"), &Value::str("France"));
        assert_ne!(a, b);
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
        let again = factory.mk(&ClassName::new("CountryE"), &Value::str("France"));
        assert_eq!(again, fr);
        // ... and a new key gets a fresh identity that does not collide.
        let fresh = factory.mk(&ClassName::new("CountryE"), &Value::str("Spain"));
        assert_ne!(fresh, uk);
        assert_ne!(fresh, fr);
    }

    /// The two-phase protocol's core guarantee: resolving per-worker claim
    /// arenas in partition order reproduces the numbering a sequential
    /// first-call-order run produces, with duplicate keys across arenas
    /// mapping to one final identity.
    #[test]
    fn claims_resolve_to_sequential_first_call_numbering() {
        let class = ClassName::new("CountryT");
        // Sequential reference: keys in row order a, b, a, c.
        let mut reference = SkolemFactory::new();
        let seq: Vec<Oid> = ["a", "b", "a", "c"]
            .iter()
            .map(|k| reference.mk(&class, &Value::str(*k)))
            .collect();
        // Two workers over the same row order: worker 0 sees (a, b), worker
        // 1 sees (a, c) — a duplicate claim of `a` across workers.
        let mut w0 = SkolemClaims::new();
        let mut w1 = SkolemClaims::new();
        let p0a = w0.mk(&class, &Value::str("a"));
        let p0b = w0.mk(&class, &Value::str("b"));
        let p1a = w1.mk(&class, &Value::str("a"));
        let p1c = w1.mk(&class, &Value::str("c"));
        // Provisional identities are tagged, arena-unique and memoised.
        assert!(p0a.id() >= (1 << 62));
        assert_ne!(p0a, p1a, "different arenas must not share identities");
        assert_eq!(w0.mk(&class, &Value::str("a")), p0a);
        assert_eq!(w0.mark(), 2);
        assert!(!w0.is_empty());
        // Resolution in partition order.
        let mut factory = SkolemFactory::new();
        let mut resolved = BTreeMap::new();
        w0.resolve_into(&mut factory, &mut resolved);
        w1.resolve_into(&mut factory, &mut resolved);
        assert_eq!(resolved[&p0a], seq[0]);
        assert_eq!(resolved[&p0b], seq[1]);
        assert_eq!(resolved[&p1a], seq[0], "duplicate key claims must merge");
        assert_eq!(resolved[&p1c], seq[3]);
        assert_eq!(factory.len(), 3);
    }

    /// Nested Skolem keys — an outer claim whose key embeds an inner claim's
    /// provisional identity — resolve inside-out, matching the sequential
    /// evaluation order (the inner `mk` always happens first).
    #[test]
    fn nested_claim_keys_are_rewritten_before_resolution() {
        let inner_class = ClassName::new("CountryT");
        let outer_class = ClassName::new("CityT");
        let mut reference = SkolemFactory::new();
        let seq_inner = reference.mk(&inner_class, &Value::str("France"));
        let seq_outer = reference.mk(
            &outer_class,
            &Value::record([
                ("name", Value::str("Paris")),
                ("country", Value::oid(seq_inner.clone())),
            ]),
        );
        let mut claims = SkolemClaims::new();
        let p_inner = claims.mk(&inner_class, &Value::str("France"));
        let p_outer = claims.mk(
            &outer_class,
            &Value::record([
                ("name", Value::str("Paris")),
                ("country", Value::oid(p_inner.clone())),
            ]),
        );
        let mut factory = SkolemFactory::new();
        let mut resolved = BTreeMap::new();
        claims.resolve_into(&mut factory, &mut resolved);
        assert_eq!(resolved[&p_inner], seq_inner);
        assert_eq!(resolved[&p_outer], seq_outer);
        // And rewriting a produced value erases every provisional identity.
        let produced = Value::record([
            ("city", Value::oid(p_outer)),
            ("list", Value::list([Value::oid(p_inner)])),
        ]);
        let rewritten = rewrite_resolved(&produced, &resolved);
        assert_eq!(
            rewritten,
            Value::record([
                ("city", Value::oid(seq_outer)),
                ("list", Value::list([Value::oid(seq_inner)])),
            ])
        );
    }

    /// Claim ranges let resolution interleave with other factory calls:
    /// claims recorded before a mark resolve before a direct `mk`, claims
    /// after it resolve after — reproducing a sequential interleaving.
    #[test]
    fn claim_ranges_interleave_with_direct_factory_calls() {
        let class = ClassName::new("T");
        let mut reference = SkolemFactory::new();
        let seq: Vec<Oid> = ["x", "k", "y"]
            .iter()
            .map(|k| reference.mk(&class, &Value::str(*k)))
            .collect();
        let mut claims = SkolemClaims::new();
        let px = claims.mk(&class, &Value::str("x"));
        let before = claims.mark();
        let py = claims.mk(&class, &Value::str("y"));
        let mut factory = SkolemFactory::new();
        let mut resolved = BTreeMap::new();
        claims.resolve_range_into(0..before, &mut factory, &mut resolved);
        let mid = factory.mk(&class, &Value::str("k"));
        claims.resolve_range_into(before..claims.mark(), &mut factory, &mut resolved);
        assert_eq!(resolved[&px], seq[0]);
        assert_eq!(mid, seq[1]);
        assert_eq!(resolved[&py], seq[2]);
        // Rewriting a value with no identities is a cheap clone.
        assert_eq!(
            rewrite_resolved(&Value::str("plain"), &resolved),
            Value::str("plain")
        );
    }

    /// Export → import round-trips a factory bit-identically: old keys keep
    /// their identities and new keys mint exactly what the original would.
    #[test]
    fn skolem_state_round_trip_is_bit_identical() {
        let class = ClassName::new("CountryT");
        let mut factory = SkolemFactory::new();
        let fr = factory.mk(&class, &Value::str("France"));
        let de = factory.mk(&class, &Value::str("Germany"));
        let state = factory.export_state();
        assert_eq!(
            SkolemFactory::from_state(state.clone()).export_state(),
            state
        );

        let mut restored = SkolemFactory::from_state(state);
        assert_eq!(restored.mk(&class, &Value::str("France")), fr);
        assert_eq!(restored.mk(&class, &Value::str("Germany")), de);
        // The next fresh key gets the identity the original factory mints.
        assert_eq!(
            restored.mk(&class, &Value::str("Spain")),
            factory.mk(&class, &Value::str("Spain"))
        );
        assert_eq!(restored.counter(&class), 3);
        assert_eq!(restored.counter(&ClassName::new("Other")), 0);
    }

    /// Watermark deltas capture exactly the assignments made after the
    /// snapshot, and restoring them onto the pre-snapshot factory reproduces
    /// the post-snapshot factory.
    #[test]
    fn assignments_since_extracts_and_restores_the_delta() {
        let country = ClassName::new("CountryT");
        let city = ClassName::new("CityT");
        let mut factory = SkolemFactory::new();
        factory.mk(&country, &Value::str("France"));
        let mark = factory.counter_snapshot();
        let before_state = factory.export_state();

        let de = factory.mk(&country, &Value::str("Germany"));
        let paris = factory.mk(&city, &Value::str("Paris"));
        assert_eq!(factory.mk(&country, &Value::str("France")).id(), 0);

        let delta = factory.assignments_since(&mark);
        assert_eq!(
            delta,
            vec![
                (city.clone(), Value::str("Paris"), paris),
                (country.clone(), Value::str("Germany"), de),
            ]
        );
        let mut restored = SkolemFactory::from_state(before_state);
        for (class, key, oid) in delta {
            restored.restore_assignment(&class, key, oid);
        }
        assert_eq!(restored.export_state(), factory.export_state());
    }

    /// The memo is hashed, but nothing observable is in hash order: two
    /// factories holding one numbering, built in different orders, export
    /// and print identically, and `assignments_since` reads the identity
    /// index — ascending identities, sparse or restored out of order.
    #[test]
    fn hashed_memo_reports_in_sorted_order() {
        let class = ClassName::new("T");
        let keys = ["d", "a", "c", "b", "e"];
        let mut minted = SkolemFactory::new();
        for key in keys {
            minted.mk(&class, &Value::str(key));
        }
        let mut restored = SkolemFactory::new();
        for (id, key) in keys.iter().enumerate().rev() {
            restored.restore_assignment(
                &class,
                Value::str(*key),
                Oid::new(class.clone(), id as u64),
            );
        }
        assert_eq!(restored.export_state(), minted.export_state());
        assert_eq!(format!("{restored:?}"), format!("{minted:?}"));
        let mark = BTreeMap::from([(class.clone(), 2)]);
        let ids: Vec<u64> = restored
            .assignments_since(&mark)
            .iter()
            .map(|(_, _, o)| o.id())
            .collect();
        assert_eq!(ids, [2, 3, 4]);
        assert_eq!(
            restored.key_of(&Oid::new(class.clone(), 3)),
            Some(&Value::str("b"))
        );
        // Re-pointing a key drops its old identity from the index.
        restored.restore_assignment(&class, Value::str("a"), Oid::new(class.clone(), 9));
        let fresh = restored.assignments_since(&mark);
        assert_eq!(
            fresh.iter().map(|(_, _, o)| o.id()).collect::<Vec<_>>(),
            [2, 3, 4, 9]
        );
        assert_eq!(restored.key_of(&Oid::new(class.clone(), 1)), None);
        assert_eq!(restored.count(&class), 5);
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
