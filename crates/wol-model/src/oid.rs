//! Object identities.
//!
//! Object identities are opaque handles: they are "not considered to be
//! directly visible and are typically unrelated between databases"
//! (Section 2.2). Each identity records the class it belongs to and a
//! numeric discriminator, unique within its class. Identities loaded from a
//! source without identities of its own are numbered by a per-class counter
//! ([`OidGen`]); an identity created by `Mk_C(k)` is derived from `(C, k)`
//! ([`crate::skolem_id`]) and has its high bit clear. A derived
//! discriminator is a hash, so no code may do `id + 1` arithmetic on it.

use std::fmt;

use crate::types::ClassName;

/// An object identity of a particular class.
///
/// Two identities are equal iff they have the same class and the same
/// discriminator. Equality of identities never inspects the associated value;
/// value-based identification goes through surrogate keys
/// ([`KeySpec`](crate::KeySpec)).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    class: ClassName,
    id: u64,
}

impl Oid {
    /// Create an identity of `class` with discriminator `id`.
    pub fn new(class: ClassName, id: u64) -> Self {
        Oid { class, id }
    }

    /// The class this identity belongs to.
    pub fn class(&self) -> &ClassName {
        &self.class
    }

    /// The numeric discriminator.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{}", self.class, self.id)
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A simple monotonic generator of fresh object identities, one counter per
/// class. Used when loading data from sources that do not come with explicit
/// identities (flat files, relational rows, tree databases).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct OidGen {
    counters: std::collections::BTreeMap<ClassName, u64>,
}

impl OidGen {
    /// Create a generator whose counters all start at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Produce a fresh identity of `class`.
    pub(crate) fn fresh(&mut self, class: &ClassName) -> Oid {
        let counter = self.counters.entry(class.clone()).or_insert(0);
        let id = *counter;
        *counter += 1;
        Oid::new(class.clone(), id)
    }

    /// Number of identities generated so far for `class`.
    pub(crate) fn count(&self, class: &ClassName) -> u64 {
        self.counters.get(class).copied().unwrap_or(0)
    }

    /// Iterate over the per-class counters. Used by the persistence layer to
    /// snapshot generator state so recovered instances mint the same fresh
    /// identities an uncrashed run would.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&ClassName, u64)> {
        self.counters.iter().map(|(class, n)| (class, *n))
    }

    /// Raise the counter of `class` to at least `count`. Counters only move
    /// forward: restoring a smaller count would let `fresh` re-mint a live
    /// identity. A `count` of zero is a no-op (no entry is created), so
    /// restoring an exported counter map onto a fresh generator reproduces it
    /// exactly.
    pub(crate) fn restore_count(&mut self, class: &ClassName, count: u64) {
        if count > self.count(class) {
            self.counters.insert(class.clone(), count);
        }
    }

    /// Lower the counter of `class` back to `count` — the inverse of a run
    /// of [`fresh`](Self::fresh) calls whose identities were all removed
    /// again (a batch revert, which restores the count the batch started
    /// from). The caller must guarantee that the generator held `count`
    /// before those calls; lowering below that would let `fresh` re-mint a
    /// live identity it minted itself. Raising is a no-op (that is
    /// [`restore_count`](Self::restore_count)'s job). Rewinding to zero
    /// drops the entry, matching a generator that never minted the class.
    pub(crate) fn rewind_count(&mut self, class: &ClassName, count: u64) {
        if count < self.count(class) {
            if count == 0 {
                self.counters.remove(class);
            } else {
                self.counters.insert(class.clone(), count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_equality_and_display() {
        let c = ClassName::new("CityE");
        let a = Oid::new(c.clone(), 0);
        let b = Oid::new(c.clone(), 0);
        let d = Oid::new(c.clone(), 1);
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(a.to_string(), "#CityE:0");
        assert_eq!(format!("{a:?}"), "#CityE:0");
        assert_eq!(a.class(), &c);
        assert_eq!(d.id(), 1);
    }

    #[test]
    fn oids_of_different_classes_differ() {
        let a = Oid::new(ClassName::new("CityE"), 7);
        let b = Oid::new(ClassName::new("CountryE"), 7);
        assert_ne!(a, b);
    }

    #[test]
    fn generator_is_monotonic_per_class() {
        let mut gen = OidGen::new();
        let city = ClassName::new("CityE");
        let country = ClassName::new("CountryE");
        let a = gen.fresh(&city);
        let b = gen.fresh(&city);
        let c = gen.fresh(&country);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(c.id(), 0);
        assert_ne!(a, b);
        assert_eq!(gen.count(&city), 2);
        assert_eq!(gen.count(&country), 1);
        assert_eq!(gen.count(&ClassName::new("Other")), 0);
    }

    #[test]
    fn restore_count_is_monotonic_and_exact() {
        let mut gen = OidGen::new();
        let city = ClassName::new("CityE");
        gen.fresh(&city);
        gen.fresh(&city);
        // Restoring a smaller (or zero) count never rewinds.
        gen.restore_count(&city, 1);
        assert_eq!(gen.count(&city), 2);
        gen.restore_count(&ClassName::new("Ghost"), 0);
        assert_eq!(gen, {
            let mut g = OidGen::new();
            g.fresh(&city);
            g.fresh(&city);
            g
        });
        // Restoring every exported counter reproduces the generator exactly.
        let mut restored = OidGen::new();
        for (class, n) in gen.counters() {
            restored.restore_count(class, n);
        }
        assert_eq!(restored, gen);
        assert_eq!(restored.fresh(&city).id(), 2);
    }

    #[test]
    fn oids_are_ordered() {
        let c = ClassName::new("C");
        let a = Oid::new(c.clone(), 1);
        let b = Oid::new(c.clone(), 2);
        assert!(a < b);
    }
}
