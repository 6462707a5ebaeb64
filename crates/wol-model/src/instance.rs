//! Database instances.
//!
//! An instance of a schema consists of a finite set of object identities for
//! each class and a mapping from each identity to its associated value, such
//! that every identity occurring inside a value belongs to one of the
//! instance's extents (Section 2.1).
//!
//! ## Versions
//!
//! Extent and value map are one structure here: per declared class, a
//! persistent ordered store of `(identity, value)` entries
//! (the private `store` module). Copying an instance copies one pointer per class, and
//! the copy and the original are from then on two *versions* that share every
//! chunk of entries neither has changed since; a mutation copies the chunk it
//! touches, never the class. Whoever holds a version keeps seeing exactly the
//! objects it held when the version was taken.
//!
//! There are two ways to take a version, differing only in derived data:
//!
//! * [`Clone::clone`] carries the objects and the identity counters and
//!   starts with **empty caches** — every index, histogram, column and row
//!   index is rebuilt lazily on the copy, as if the instance had just been
//!   loaded.
//! * [`Instance::snapshot`] additionally carries the **built attribute
//!   indexes**, by reference (they are versioned the same way, see
//!   [`crate::index`]). Histograms, columns and row indexes still start
//!   empty. This is what a standing service publishes: a reader's first probe
//!   on a fresh snapshot is a hash lookup, not an extent scan.
//!
//! Neither kind of copy shares its *cache* with its origin, only immutable
//! pieces inside it. A lazy build on one version installs into that
//! version's cache alone, so it is never visible on the original or on a
//! sibling, and maintenance on the writer's side replaces shared pieces
//! instead of editing them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};

use crate::column::AttrColumn;
use crate::error::{Conflict, ModelError};
use crate::histogram::{AttrHistogram, SAMPLE_THRESHOLD};
use crate::index::{bucket_of, tuple_hash, AttrIndex, IndexCache};
use crate::oid::{Oid, OidGen};
use crate::store::ClassStore;
use crate::types::{ClassName, Label};
use crate::values::Value;
use crate::Result;

/// Cardinality and distinct-value statistics of one class as a scan backend
/// reports them — describing the *unfiltered* stream it would produce — so a
/// planner can cost scans (and decide join order and pushdown splits)
/// *before* the class is ingested into an [`Instance`]. Defined once here:
/// the backends name it `storage::provider::ClassStats`, the planner
/// `cpl::ExternalClassStats`. Backends carry no histograms, so estimation
/// over such classes uses the ndv fallback paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// The served class.
    pub class: ClassName,
    /// Total rows without any pushed filter.
    pub rows: usize,
    /// Approximate distinct values per attribute.
    pub ndvs: BTreeMap<String, usize>,
}

/// One applied change to an instance's object population, as recorded by the
/// optional mutation log (see [`Instance::begin_mutation_log`]). The
/// persistence layer in `storage` turns these into write-ahead-log records;
/// replaying them in order onto the pre-mutation instance reproduces the
/// post-mutation instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// An object was inserted (via [`Instance::insert`] or
    /// [`Instance::insert_fresh`]).
    Insert(Oid, Value),
    /// An existing object's value was replaced.
    Update(Oid, Value),
    /// An object was removed.
    Remove(Oid),
}

/// How much of one instance version's storage another version also holds:
/// the same allocations, not merely equal content (see
/// [`Instance::storage_shared_with`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageSharing {
    /// Object-store chunks of this version.
    pub chunks: usize,
    /// Of those, chunks the other version holds too.
    pub shared_chunks: usize,
    /// Hash shards over this version's built attribute indexes.
    pub index_shards: usize,
    /// Of those, shards the other version's index of the same key holds too.
    pub shared_index_shards: usize,
}

/// The objects of one class grouped by the values of an attribute tuple, as
/// the attribute index keyed by that tuple holds them (see
/// [`Instance::key_groups`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyGroups {
    /// Objects carrying every attribute of the tuple: the index's entries.
    pub keyed: usize,
    /// Every set of two or more objects whose tuples are equal, each in
    /// ascending identity order, the sets in order of their first identity.
    pub shared: Vec<Vec<Oid>>,
}

/// A database instance: extents of object identities per class, plus the value
/// associated with each identity.
///
/// Instances also carry a lazily built cache of secondary attribute indexes
/// (see `crate::index`) used by the engine's join machinery; the cache is
/// derived data and is ignored by equality. A clone starts with an empty
/// cache; a [`snapshot`](Instance::snapshot) carries the built attribute
/// indexes and nothing else of it (see the module docs).
///
/// The cache sits behind an [`RwLock`], so an `Instance` is [`Sync`]: the
/// parallel executors share `&Instance` across [`std::thread::scope`] workers,
/// which probe extents, attribute indexes and histograms concurrently.
/// Mutation still requires `&mut self`, so a read-only parallel section can
/// never observe a write — the lock exists only to let concurrent readers
/// build missing structures lazily, each once: a reader that finds one
/// missing builds it under the write lock after looking again.
#[derive(Debug, Default)]
pub struct Instance {
    schema_name: String,
    /// Every declared class with its objects; a class emptied by removals
    /// stays declared.
    classes: BTreeMap<ClassName, ClassStore>,
    oid_gen: OidGen,
    index: RwLock<IndexCache>,
    /// Optional mutation log (see [`begin_mutation_log`](Self::begin_mutation_log)).
    /// Like the index cache this is bookkeeping, not data: it is ignored by
    /// equality and excluded from clones and snapshots.
    mutation_log: Option<Vec<Mutation>>,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            schema_name: self.schema_name.clone(),
            classes: self.classes.clone(),
            oid_gen: self.oid_gen.clone(),
            index: RwLock::new(IndexCache::default()),
            mutation_log: None,
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.schema_name == other.schema_name
            && self.classes == other.classes
            && self.oid_gen == other.oid_gen
    }
}

impl Eq for Instance {}

impl Instance {
    /// Create an empty instance labelled with the name of the schema it is an
    /// instance of.
    pub fn new(schema_name: impl Into<String>) -> Self {
        Instance {
            schema_name: schema_name.into(),
            classes: BTreeMap::new(),
            oid_gen: OidGen::new(),
            index: RwLock::new(IndexCache::default()),
            mutation_log: None,
        }
    }

    /// The name of the schema this instance belongs to.
    pub fn schema_name(&self) -> &str {
        &self.schema_name
    }

    /// A version of this instance that also carries its built attribute
    /// indexes: [`clone`](Clone::clone) plus every `(class, attribute)` index
    /// by reference. Costs one pointer per class and per index. Histograms,
    /// columns and row indexes start empty on the snapshot, exactly as on a
    /// clone. See the module docs for what the two versions share.
    pub fn snapshot(&self) -> Instance {
        let mut version = self.clone();
        version.index = RwLock::new(self.cache_read().share_indexes());
        version
    }

    /// Insert an object with a caller-provided identity.
    ///
    /// The identity's class must match the extent it is inserted into, and the
    /// identity must not already be present.
    pub fn insert(&mut self, oid: Oid, value: Value) -> Result<()> {
        if self.contains(&oid) {
            return Err(ModelError::DuplicateOid(oid.to_string()));
        }
        self.insert_absent(oid, value);
        Ok(())
    }

    /// The shared tail of every single-object insert: maintain the indexes,
    /// log, store. The caller has established that `oid` is not present.
    fn insert_absent(&mut self, oid: Oid, value: Value) {
        self.reindex(&oid, None, Some(&value));
        if let Some(log) = &mut self.mutation_log {
            log.push(Mutation::Insert(oid.clone(), value.clone()));
        }
        let store = self.classes.entry(oid.class().clone()).or_default();
        let inserted = store.insert(oid, value);
        debug_assert!(inserted, "insert_absent of a present identity");
    }

    /// Insert many objects of one class at once, paying the cache
    /// invalidation and per-class extent lookup once for the whole batch
    /// instead of once per object. Identities must belong to `class`. On a
    /// duplicate identity (against the instance or within the batch) nothing
    /// is inserted. Snapshot restore decodes through this path.
    pub fn bulk_insert(&mut self, class: &ClassName, objects: Vec<(Oid, Value)>) -> Result<()> {
        if objects.is_empty() {
            return Ok(());
        }
        let mut batch_seen = BTreeSet::new();
        for (oid, _) in &objects {
            debug_assert_eq!(oid.class(), class, "bulk_insert identity of foreign class");
            if self.contains(oid) || !batch_seen.insert(oid.id()) {
                return Err(ModelError::DuplicateOid(oid.to_string()));
            }
        }
        self.cache_write().invalidate_class(class);
        let store = self.classes.entry(class.clone()).or_default();
        for (oid, value) in objects {
            if let Some(log) = &mut self.mutation_log {
                log.push(Mutation::Insert(oid.clone(), value.clone()));
            }
            store.insert(oid, value);
        }
        Ok(())
    }

    /// Declare a class, giving it an (empty) extent if it has none yet.
    /// Restoring a persisted instance uses this so a class whose objects were
    /// all removed round-trips to an equal instance.
    pub fn ensure_class(&mut self, class: &ClassName) {
        self.classes.entry(class.clone()).or_default();
    }

    /// Forget a class whose extent is empty, so the instance equals one that
    /// never populated it — the inverse of [`ensure_class`](Self::ensure_class).
    /// A class holding objects is left alone.
    pub fn forget_empty_class(&mut self, class: &ClassName) {
        if self
            .classes
            .get(class)
            .is_some_and(|store| store.len() == 0)
        {
            self.classes.remove(class);
            self.cache_write().invalidate_class(class);
        }
    }

    /// Insert an object with a freshly generated identity, returning it.
    pub fn insert_fresh(&mut self, class: &ClassName, value: Value) -> Oid {
        let oid = self.oid_gen.fresh(class);
        // The generator does not know identities inserted explicitly; minting
        // one of those again replaces the object under it.
        let displaced = self.classes.get_mut(class).and_then(|s| s.remove(oid.id()));
        if let Some(old) = displaced {
            self.reindex(&oid, Some(&old), None);
        }
        self.insert_absent(oid.clone(), value);
        oid
    }

    /// Replace the value of an existing object.
    pub fn update(&mut self, oid: &Oid, value: Value) -> Result<()> {
        let Some(old) = self.value(oid) else {
            return Err(ModelError::DanglingOid(oid.to_string()));
        };
        self.reindex(oid, Some(old), Some(&value));
        if let Some(log) = &mut self.mutation_log {
            log.push(Mutation::Update(oid.clone(), value.clone()));
        }
        if let Some(store) = self.classes.get_mut(oid.class()) {
            store.replace(oid.id(), value);
        }
        Ok(())
    }

    /// The value associated with an identity.
    pub fn value(&self, oid: &Oid) -> Option<&Value> {
        self.classes.get(oid.class())?.get(oid.id())
    }

    /// The value associated with an identity, or an error if it is unknown.
    pub fn value_or_err(&self, oid: &Oid) -> Result<&Value> {
        self.value(oid)
            .ok_or_else(|| ModelError::DanglingOid(oid.to_string()))
    }

    /// Whether the identity is present in this instance.
    pub fn contains(&self, oid: &Oid) -> bool {
        self.value(oid).is_some()
    }

    /// The extent (set of identities) of a class; empty if the class has no
    /// objects.
    pub fn extent(&self, class: &ClassName) -> impl Iterator<Item = &Oid> {
        self.classes
            .get(class)
            .into_iter()
            .flat_map(ClassStore::oids)
    }

    /// The number of objects in a class's extent.
    pub fn extent_size(&self, class: &ClassName) -> usize {
        self.classes.get(class).map_or(0, ClassStore::len)
    }

    /// Iterate over `(oid, value)` pairs of a class's extent.
    pub fn objects(&self, class: &ClassName) -> impl Iterator<Item = (&Oid, &Value)> {
        self.classes
            .get(class)
            .into_iter()
            .flat_map(ClassStore::iter)
    }

    /// Iterate over every `(oid, value)` pair in the instance, by class and
    /// within a class by ascending identity.
    pub fn all_objects(&self) -> impl Iterator<Item = (&Oid, &Value)> {
        self.classes.values().flat_map(ClassStore::iter)
    }

    /// The classes that have a (possibly empty) extent recorded.
    pub fn populated_classes(&self) -> Vec<ClassName> {
        self.classes.keys().cloned().collect()
    }

    /// Total number of objects across all classes.
    pub fn len(&self) -> usize {
        self.classes.values().map(ClassStore::len).sum()
    }

    /// True if the instance holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove an object from the instance. Dangling references left behind are
    /// detected by [`validate::check_instance`](crate::validate::check_instance).
    pub fn remove(&mut self, oid: &Oid) -> Option<Value> {
        let removed = self.classes.get_mut(oid.class())?.remove(oid.id())?;
        self.reindex(oid, Some(&removed), None);
        if let Some(log) = &mut self.mutation_log {
            log.push(Mutation::Remove(oid.clone()));
        }
        Some(removed)
    }

    /// Look up an object of `class` by a projected field value, e.g. find the
    /// `CountryE` whose `name` is `"France"`. Linear scan; convenience for
    /// tests, examples and adapters (the hot path is [`lookup_by_attr`],
    /// which goes through the attribute index).
    ///
    /// [`lookup_by_attr`]: Instance::lookup_by_attr
    pub fn find_by_field(&self, class: &ClassName, field: &str, value: &Value) -> Option<&Oid> {
        self.objects(class)
            .find(|(_, v)| v.project(field) == Some(value))
            .map(|(oid, _)| oid)
    }

    /// All identities of `class` whose record value has attribute `attr` equal
    /// to `value`: [`lookup_by_attrs`](Instance::lookup_by_attrs) with a
    /// one-attribute tuple.
    pub fn lookup_by_attr(&self, class: &ClassName, attr: &str, value: &Value) -> Vec<Oid> {
        let mut found = Vec::new();
        self.lookup_by_attrs(class, &[attr], &[value], &mut found);
        found
    }

    /// Append to `found`, in ascending identity order, every identity of
    /// `class` whose attributes `attrs` equal `values` pairwise: one lookup in
    /// the index keyed by that attribute tuple (see `crate::index`). The first
    /// probe of a `(class, attrs)` pair builds the index in one pass over the
    /// extent; subsequent probes are hash lookups.
    pub fn lookup_by_attrs<A: AsRef<str>>(
        &self,
        class: &ClassName,
        attrs: &[A],
        values: &[&Value],
        found: &mut Vec<Oid>,
    ) {
        debug_assert_eq!(attrs.len(), values.len());
        self.with_attr_index(class, attrs, |index| {
            let candidates = index.candidates(tuple_hash(values)).iter();
            // Hash buckets are candidates only: verify against the live values.
            found.extend(
                candidates
                    .filter(|oid| {
                        self.value(oid).is_some_and(|record| {
                            let mut pairs = attrs.iter().zip(values);
                            pairs.all(|(attr, &value)| record.project(attr.as_ref()) == Some(value))
                        })
                    })
                    .cloned(),
            );
        });
    }

    /// The objects of `class` grouped by their `attrs` values, read off the
    /// index keyed by that tuple (built first, like a probe's, if this
    /// version has none): one walk over its buckets, looking at values only
    /// where a bucket holds several objects — a bucket is one hash, so it is
    /// split by the values themselves. An object lacking one of the
    /// attributes is in no bucket and no group.
    pub fn key_groups(&self, class: &ClassName, attrs: &[Label]) -> KeyGroups {
        let tuple = |oid: &Oid| -> Vec<Option<&Value>> {
            let record = self.value(oid);
            let project = |attr: &Label| record.and_then(|r| r.project(attr));
            attrs.iter().map(project).collect()
        };
        let mut groups = KeyGroups::default();
        self.with_attr_index(class, attrs, |index| {
            for bucket in index.buckets() {
                groups.keyed += bucket.len();
                if bucket.len() < 2 {
                    continue;
                }
                let mut split: Vec<(Vec<Option<&Value>>, Vec<Oid>)> = Vec::new();
                for oid in bucket {
                    let values = tuple(oid);
                    match split.iter_mut().find(|(key, _)| *key == values) {
                        Some((_, members)) => members.push(oid.clone()),
                        None => split.push((values, vec![oid.clone()])),
                    }
                }
                let shared = split.into_iter().map(|(_, members)| members);
                groups
                    .shared
                    .extend(shared.filter(|members| members.len() > 1));
            }
        });
        groups.shared.sort_unstable_by(|a, b| a[0].cmp(&b[0]));
        groups
    }

    /// The equi-depth histogram of attribute `attr` over the extent of
    /// `class` (see `crate::histogram`), built on first request and cached
    /// alongside the attribute indexes — any mutation of the class
    /// invalidates it. Every caller shares the one cached histogram; its
    /// [`distinct`](AttrHistogram::distinct) is the attribute's ndv, which
    /// the planner reads instead of building an index. Above
    /// `histogram::SAMPLE_THRESHOLD` rows the build switches to
    /// deterministic reservoir sampling with exact heavy-hitter counts (see
    /// [`AttrHistogram::build_sampled`]), capping build cost on very large
    /// extents.
    pub fn attr_histogram(&self, class: &ClassName, attr: &str) -> Arc<AttrHistogram> {
        let values = || {
            self.objects(class)
                .filter_map(|(_, value)| value.project(attr).cloned())
        };
        self.cached(
            |cache| cache.get_histogram(class, attr),
            |cache| {
                let built = if self.extent_size(class) > SAMPLE_THRESHOLD {
                    AttrHistogram::build_sampled(values)
                } else {
                    AttrHistogram::build(values())
                };
                cache.insert_histogram(class.clone(), Label::new(attr), Arc::new(built))
            },
            Arc::clone,
        )
    }

    /// Whether a histogram for `(class, attr)` is currently cached. Exposed
    /// for the stale-histogram invalidation tests.
    pub fn has_attr_histogram(&self, class: &ClassName, attr: &str) -> bool {
        self.cache_read().get_histogram(class, attr).is_some()
    }

    /// The columnar projection of attribute `attr` over the extent of
    /// `class` (see `crate::column` for the storage layout), built lazily
    /// on first request and cached alongside the attribute indexes — any
    /// mutation of the class invalidates all of them together. Row `i` of
    /// the column corresponds to row `i` of
    /// [`class_row_index`](Instance::class_row_index).
    pub fn attr_column(&self, class: &ClassName, attr: &str) -> Arc<AttrColumn> {
        self.cached(
            |cache| cache.get_column(class, attr),
            |cache| {
                let values: Vec<Option<&Value>> = self
                    .objects(class)
                    .map(|(_, value)| value.project(attr))
                    .collect();
                let built = AttrColumn::build(&values, cache.interner_mut());
                cache.insert_column(class.clone(), Label::new(attr), Arc::new(built))
            },
            Arc::clone,
        )
    }

    /// The extent of `class` as a shared, positionally indexable vector in
    /// extent (ascending identity) order — the row ids of the class's
    /// columns. Cached with the columns and invalidated with them.
    pub fn class_row_index(&self, class: &ClassName) -> Arc<Vec<Oid>> {
        self.cached(
            |cache| cache.get_row_index(class),
            |cache| {
                let rows = self.extent(class).cloned().collect();
                cache.insert_row_index(class.clone(), Arc::new(rows))
            },
            Arc::clone,
        )
    }

    /// Whether a column for `(class, attr)` is currently cached. Exposed for
    /// the invalidation tests.
    pub fn has_attr_column(&self, class: &ClassName, attr: &str) -> bool {
        self.cache_read().get_column(class, attr).is_some()
    }

    /// A snapshot of the columnar string dictionary (code → string). O(1)
    /// after the first call following an append.
    pub fn dict_strings(&self) -> Arc<Vec<Arc<str>>> {
        self.cache_write().interner_mut().snapshot()
    }

    /// The dictionary code of `s`, if some built column interned it.
    pub fn dict_code(&self, s: &str) -> Option<u32> {
        self.cache_read().interner().code_of(s)
    }

    /// Whether a probe for `(class, attr)` would hit an already-built index.
    /// Exposed for tests and diagnostics.
    pub fn has_attr_index(&self, class: &ClassName, attr: &str) -> bool {
        self.cache_read().get(class, &[attr]).is_some()
    }

    /// Number of `(class, attribute tuple)` indexes currently built.
    pub fn attr_index_count(&self) -> usize {
        self.cache_read().len()
    }

    /// Read access to the derived-data cache. Poisoning is impossible in
    /// practice (no panic path holds the guard), but recover into the inner
    /// value rather than propagating: the cache is derived data and is always
    /// safe to read or rebuild.
    fn cache_read(&self) -> std::sync::RwLockReadGuard<'_, IndexCache> {
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write access to the derived-data cache (see [`cache_read`](Self::cache_read)).
    fn cache_write(&self) -> std::sync::RwLockWriteGuard<'_, IndexCache> {
        self.index.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The one build path of the derived-data cache: `read` the structure
    /// `find` locates, first building and installing it with `build` if this
    /// version has none. The build runs under the write lock, after looking
    /// again, so readers racing to a missing structure build it once and all
    /// read that build. `build` and `read` run under the lock and must not
    /// reach back into the cache.
    fn cached<T, R>(
        &self,
        find: impl for<'c> Fn(&'c IndexCache) -> Option<&'c T>,
        build: impl for<'c> FnOnce(&'c mut IndexCache) -> &'c T,
        read: impl FnOnce(&T) -> R,
    ) -> R {
        if let Some(found) = find(&self.cache_read()) {
            return read(found);
        }
        let mut cache = self.cache_write();
        if let Some(found) = find(&cache) {
            return read(found);
        }
        #[cfg(test)]
        {
            cache.builds += 1;
        }
        read(build(&mut cache))
    }

    /// Maintain the class's built attribute indexes across a single-object
    /// mutation instead of dropping them: remove the object's old attribute
    /// entries, add the new ones. Buckets stay in ascending identity order,
    /// so a maintained index answers probes bit-identically to a fresh
    /// extent-order rebuild — the property the standing
    /// `MaterializedPipeline`'s per-batch delta joins rely on to stay
    /// O(batch) instead of O(extent). Histograms, columns, and row indexes
    /// *are* still invalidated: they are planner statistics and batch
    /// projections, rebuilt lazily where stale estimates cannot change
    /// results.
    fn reindex(&self, oid: &Oid, old: Option<&Value>, new: Option<&Value>) {
        let mut cache = self.cache_write();
        cache.invalidate_stats(oid.class());
        let Some(indexes) = cache.indexes_mut(oid.class()) else {
            return;
        };
        for (attrs, index) in indexes.iter_mut() {
            // Membership depends on the bucket alone: an unchanged bucket is
            // an unchanged index.
            let old_bucket = old.and_then(|v| bucket_of(v, attrs));
            let new_bucket = new.and_then(|v| bucket_of(v, attrs));
            if old_bucket == new_bucket {
                continue;
            }
            if let Some(hash) = old_bucket {
                index.remove_entry(hash, oid);
            }
            if let Some(hash) = new_bucket {
                index.insert_sorted(hash, oid.clone());
            }
        }
    }

    /// Run `probe` against the index keyed by `attrs` on `class`, building it
    /// first — one pass over the extent — if this version has none. `probe`
    /// runs under the cache lock, so it must not reach back into the cache.
    fn with_attr_index<A: AsRef<str>, R>(
        &self,
        class: &ClassName,
        attrs: &[A],
        probe: impl FnOnce(&AttrIndex) -> R,
    ) -> R {
        self.cached(
            |cache| cache.get(class, attrs),
            |cache| {
                let attrs: Box<[Label]> = attrs.iter().map(|a| Label::new(a.as_ref())).collect();
                let mut built = AttrIndex::with_capacity(self.extent_size(class));
                for (oid, value) in self.objects(class) {
                    if let Some(hash) = bucket_of(value, &attrs) {
                        built.add(hash, oid.clone());
                    }
                }
                cache.insert_index(class.clone(), attrs, built)
            },
            probe,
        )
    }

    /// The keys of every attribute index this version has built.
    pub fn built_attr_indexes(&self) -> Vec<(ClassName, Box<[Label]>)> {
        self.cache_read()
            .indexes()
            .map(|(class, attrs, _)| (class.clone(), attrs.into()))
            .collect()
    }

    /// Build, on this version, every attribute index `probed` has built and
    /// this version lacks. A standing writer calls this with the version its
    /// readers have been probing: what a reader had to build once is from
    /// then on maintained by the writer's mutations and carried by its
    /// [`snapshot`](Instance::snapshot)s. Nothing is built that nobody probed.
    pub fn adopt_attr_indexes(&self, probed: &Instance) {
        for (class, attrs) in probed.built_attr_indexes() {
            self.with_attr_index(&class, &attrs, |_| ());
        }
    }

    /// How many of this version's object-store chunks and attribute-index
    /// shards `other` holds too. Exposed for tests and diagnostics: it is how
    /// "a publish costs the batch, not the target" is checked by counting.
    pub fn storage_shared_with(&self, other: &Instance) -> StorageSharing {
        let mut sharing = StorageSharing::default();
        for (class, store) in &self.classes {
            let theirs = other.classes.get(class);
            let (chunks, shared) = store.chunks_shared_with(theirs);
            sharing.chunks += chunks;
            sharing.shared_chunks += shared;
        }
        // Pointer copies, so the two cache locks are never held together.
        let theirs = other.cache_read().share_indexes();
        for (class, attrs, index) in self.cache_read().indexes() {
            let (shards, shared) = index.shards_shared_with(theirs.get(class, attrs));
            sharing.index_shards += shards;
            sharing.shared_index_shards += shared;
        }
        sharing
    }

    /// A fresh identity of `class` that is guaranteed not to collide with any
    /// identity already present (identities inserted with explicit ids are
    /// not known to the generator, so skip past them).
    pub(crate) fn fresh_noncolliding(&mut self, class: &ClassName) -> Oid {
        loop {
            let oid = self.oid_gen.fresh(class);
            if !self.contains(&oid) {
                return oid;
            }
        }
    }

    /// Merge another instance into this one *by key*: objects of keyed
    /// classes that share a key value with an existing object are merged into
    /// it (field by field, erroring on conflicting fields), and every other
    /// object is inserted under a fresh identity. Object references inside
    /// the incoming values are rewritten accordingly. Returns the mapping
    /// from `other`'s identities to their identities in `self`.
    ///
    /// This is the instance-level counterpart of integrating independently
    /// produced target fragments (Example 1.1): two transformations that key
    /// `CityT` objects the same way produce fragments that merge cleanly even
    /// though their identity spaces overlap.
    pub fn merge_keyed(
        &mut self,
        other: &Instance,
        keys: &crate::keys::KeySpec,
    ) -> Result<BTreeMap<Oid, Oid>> {
        // Phase 1: decide the identity mapping for every incoming object.
        let mut mapping: BTreeMap<Oid, Oid> = BTreeMap::new();
        let mut key_indexes: BTreeMap<ClassName, BTreeMap<Value, Oid>> = BTreeMap::new();
        for class in other.populated_classes() {
            if keys.has_key(&class) {
                key_indexes.insert(class.clone(), keys.index(&class, self)?);
            }
        }
        let mut pending: BTreeMap<(ClassName, Value), Oid> = BTreeMap::new();
        for (oid, _) in other.all_objects() {
            let class = oid.class();
            // A keyed class whose key cannot be evaluated is an error: falling
            // back to a fresh identity would let the merged instance violate
            // its own key specification.
            let key = match key_indexes.contains_key(class) {
                true => Some(keys.eval(oid, other)?),
                false => None,
            };
            let target = match key {
                Some(key) => {
                    if let Some(existing) = key_indexes[class].get(&key) {
                        existing.clone()
                    } else {
                        // Incoming objects sharing a key merge with each
                        // other even when the key is new to `self`.
                        pending
                            .entry((class.clone(), key))
                            .or_insert_with(|| self.fresh_noncolliding(class))
                            .clone()
                    }
                }
                None => self.fresh_noncolliding(class),
            };
            mapping.insert(oid.clone(), target);
        }
        // Phase 2: insert or merge the values with references rewritten.
        for (oid, value) in other.all_objects() {
            let rewritten =
                value.map_oids(&mut |o| mapping.get(o).cloned().unwrap_or_else(|| o.clone()));
            let target = mapping[oid].clone();
            match (self.value(&target), rewritten) {
                (None, rewritten) => self.insert(target, rewritten)?,
                (Some(Value::Record(existing)), Value::Record(mut merged)) => {
                    merged.merge([existing]).map_err(|label| {
                        ModelError::Conflict(Conflict {
                            oid: target.clone(),
                            label,
                        })
                    })?;
                    self.update(&target, Value::Record(merged))?;
                }
                _ => {
                    return Err(ModelError::Invalid(format!(
                        "keyed merge: objects {oid} and {target} share a key but are not records"
                    )))
                }
            }
        }
        Ok(mapping)
    }

    // -----------------------------------------------------------------------
    // Mutation logging and durability support.
    // -----------------------------------------------------------------------

    /// Start recording every [`insert`](Self::insert) /
    /// [`insert_fresh`](Self::insert_fresh) / [`update`](Self::update) /
    /// [`remove`](Self::remove) into an in-memory [`Mutation`] log. The
    /// persistence layer drains the log with
    /// [`take_mutation_log`](Self::take_mutation_log) to journal each batch of
    /// applied changes. Idempotent; an already-active log keeps its entries.
    pub fn begin_mutation_log(&mut self) {
        if self.mutation_log.is_none() {
            self.mutation_log = Some(Vec::new());
        }
    }

    /// Drain the recorded mutations, leaving logging active. Returns an empty
    /// vector when logging was never started.
    pub fn take_mutation_log(&mut self) -> Vec<Mutation> {
        match &mut self.mutation_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Stop recording and return any remaining entries.
    pub fn end_mutation_log(&mut self) -> Vec<Mutation> {
        self.mutation_log.take().unwrap_or_default()
    }

    /// The fresh-identity counter of `class` (see `OidGen::count`).
    pub fn oid_counter(&self, class: &ClassName) -> u64 {
        self.oid_gen.count(class)
    }

    /// Iterate over all per-class fresh-identity counters, for persistence
    /// snapshots: [`PartialEq`] on instances includes the generator, so a
    /// bit-identical restore must reproduce these exactly.
    pub fn oid_counters(&self) -> impl Iterator<Item = (&ClassName, u64)> {
        self.oid_gen.counters()
    }

    /// Raise the fresh-identity counter of `class` to at least `count`
    /// (see `OidGen::restore_count`). Used during recovery so that
    /// post-recovery [`insert_fresh`](Self::insert_fresh) calls mint the same
    /// identities an uncrashed run would.
    pub fn restore_oid_counter(&mut self, class: &ClassName, count: u64) {
        self.oid_gen.restore_count(class, count);
    }

    /// Lower the fresh-identity counter of `class` back to `count`, undoing
    /// mints whose objects have been removed again (see
    /// [`OidGen::rewind_count`] for the safety contract). Batch reverts use
    /// this so a rejected batch leaves the instance — generator state
    /// included — bit-identical to the pre-batch state.
    pub(crate) fn rewind_oid_counter(&mut self, class: &ClassName, count: u64) {
        self.oid_gen.rewind_count(class, count);
    }

    /// Compare two instances and describe the *first divergence* in
    /// human-readable terms (schema name, class, oid, attribute), or `None`
    /// when the instances are equal. Recovery and determinism tests use this
    /// so a failure says *where* two instances differ instead of just
    /// `assert!(a == b)`.
    pub fn deep_eq_report(&self, other: &Instance) -> Option<String> {
        fn brief(value: &Value) -> String {
            let mut s = format!("{value:?}");
            if s.len() > 120 {
                s.truncate(s.floor_char_boundary(117));
                s.push_str("...");
            }
            s
        }
        if self.schema_name != other.schema_name {
            return Some(format!(
                "schema name differs: left `{}`, right `{}`",
                self.schema_name, other.schema_name
            ));
        }
        // Extents: first class whose identity sets differ.
        let classes: BTreeSet<&ClassName> =
            self.classes.keys().chain(other.classes.keys()).collect();
        for class in classes {
            let sizes = || {
                format!(
                    "(left extent {}, right extent {})",
                    self.extent_size(class),
                    other.extent_size(class)
                )
            };
            if let Some(oid) = self.extent(class).find(|oid| !other.contains(oid)) {
                return Some(format!(
                    "class `{class}`: {oid} present in left only {}",
                    sizes()
                ));
            }
            if let Some(oid) = other.extent(class).find(|oid| !self.contains(oid)) {
                return Some(format!(
                    "class `{class}`: {oid} present in right only {}",
                    sizes()
                ));
            }
        }
        // Values: first object whose value differs, drilled down to the first
        // differing record attribute where possible. (The extents agree, so
        // every left object has a right counterpart.)
        for (oid, left) in self.all_objects() {
            let Some(right) = other.value(oid) else {
                return Some(format!("{oid}: value present in left only"));
            };
            if left == right {
                continue;
            }
            if let (Value::Record(l), Value::Record(r)) = (left, right) {
                let labels: BTreeSet<&crate::types::Label> = l.keys().chain(r.keys()).collect();
                let shown = |v: Option<&Value>| v.map_or_else(|| "missing".to_string(), brief);
                for label in labels {
                    let (a, b) = (l.get(label), r.get(label));
                    if a != b {
                        return Some(format!(
                            "{oid}.{label}: left {}, right {}",
                            shown(a),
                            shown(b)
                        ));
                    }
                }
            }
            return Some(format!(
                "{oid}: left {}, right {}",
                brief(left),
                brief(right)
            ));
        }
        // Fresh-identity counters (part of instance equality).
        let counter_classes: BTreeSet<&ClassName> = self
            .oid_gen
            .counters()
            .map(|(c, _)| c)
            .chain(other.oid_gen.counters().map(|(c, _)| c))
            .collect();
        for class in counter_classes {
            let (l, r) = (self.oid_gen.count(class), other.oid_gen.count(class));
            if l != r {
                return Some(format!(
                    "oid counter for `{class}` differs: left {l}, right {r}"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    fn city(name: &str, capital: bool, country: &Oid) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("is_capital", Value::bool(capital)),
            ("country", Value::oid(country.clone())),
        ])
    }

    /// Build (a fragment of) the Example 2.2 instance.
    fn euro_instance() -> (Instance, Oid, Oid) {
        let mut inst = Instance::new("euro");
        let country_class = ClassName::new("CountryE");
        let city_class = ClassName::new("CityE");
        let uk = inst.insert_fresh(
            &country_class,
            Value::record([
                ("name", Value::str("United Kingdom")),
                ("language", Value::str("English")),
                ("currency", Value::str("sterling")),
            ]),
        );
        let fr = inst.insert_fresh(
            &country_class,
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
                ("currency", Value::str("franc")),
            ]),
        );
        inst.insert_fresh(&city_class, city("London", true, &uk));
        inst.insert_fresh(&city_class, city("Manchester", false, &uk));
        inst.insert_fresh(&city_class, city("Paris", true, &fr));
        (inst, uk, fr)
    }

    #[test]
    fn insert_and_lookup() {
        let (inst, uk, _) = euro_instance();
        assert_eq!(inst.schema_name(), "euro");
        assert_eq!(inst.len(), 5);
        assert!(!inst.is_empty());
        assert_eq!(inst.extent_size(&ClassName::new("CityE")), 3);
        assert_eq!(inst.extent_size(&ClassName::new("CountryE")), 2);
        assert_eq!(inst.extent_size(&ClassName::new("Nope")), 0);
        let uk_val = inst.value(&uk).unwrap();
        assert_eq!(uk_val.project("currency"), Some(&Value::str("sterling")));
        assert!(inst.contains(&uk));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut inst = Instance::new("euro");
        let oid = Oid::new(ClassName::new("CountryE"), 0);
        inst.insert(oid.clone(), Value::record([("name", Value::str("UK"))]))
            .unwrap();
        let err = inst
            .insert(oid, Value::record([("name", Value::str("FR"))]))
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateOid(_)));
    }

    #[test]
    fn update_value() {
        let (mut inst, uk, _) = euro_instance();
        let mut new_val = inst.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = new_val {
            fields.insert("currency".into(), Value::str("pound"));
        }
        inst.update(&uk, new_val).unwrap();
        assert_eq!(
            inst.value(&uk).unwrap().project("currency"),
            Some(&Value::str("pound"))
        );
        let missing = Oid::new(ClassName::new("CountryE"), 999);
        assert!(inst.update(&missing, Value::Unit).is_err());
    }

    #[test]
    fn find_by_field() {
        let (inst, _, fr) = euro_instance();
        let found = inst
            .find_by_field(&ClassName::new("CountryE"), "name", &Value::str("France"))
            .unwrap();
        assert_eq!(found, &fr);
        assert!(inst
            .find_by_field(&ClassName::new("CountryE"), "name", &Value::str("Atlantis"))
            .is_none());
    }

    #[test]
    fn objects_iterate_with_values() {
        let (inst, _, _) = euro_instance();
        let capitals: Vec<&Value> = inst
            .objects(&ClassName::new("CityE"))
            .filter(|(_, v)| v.project("is_capital") == Some(&Value::bool(true)))
            .map(|(_, v)| v.project("name").unwrap())
            .collect();
        assert_eq!(capitals.len(), 2);
    }

    #[test]
    fn remove_object() {
        let (mut inst, uk, _) = euro_instance();
        let removed = inst.remove(&uk).unwrap();
        assert_eq!(removed.project("name"), Some(&Value::str("United Kingdom")));
        assert!(!inst.contains(&uk));
        assert_eq!(inst.extent_size(&ClassName::new("CountryE")), 1);
        assert!(inst.remove(&uk).is_none());
    }

    #[test]
    fn attr_index_probes_and_is_lazy() {
        let (inst, _, fr) = euro_instance();
        let country = ClassName::new("CountryE");
        let city = ClassName::new("CityE");
        assert_eq!(inst.attr_index_count(), 0);
        let hits = inst.lookup_by_attr(&country, "name", &Value::str("France"));
        assert_eq!(hits, vec![fr.clone()]);
        assert!(inst.has_attr_index(&country, "name"));
        assert!(!inst.has_attr_index(&city, "name"));
        assert_eq!(inst.attr_index_count(), 1);
        // Misses come back empty, including for unindexed-but-probed values.
        assert!(inst
            .lookup_by_attr(&country, "name", &Value::str("Atlantis"))
            .is_empty());
        // Multi-hit probes return every matching identity.
        let capitals = inst.lookup_by_attr(&city, "is_capital", &Value::bool(true));
        assert_eq!(capitals.len(), 2);
        // Oid-valued attributes are indexable too (join targets).
        let fr_cities = inst.lookup_by_attr(&city, "country", &Value::oid(fr));
        assert_eq!(fr_cities.len(), 1);
    }

    #[test]
    fn attr_columns_materialize_and_are_invalidated_by_mutation() {
        let (mut inst, uk, fr) = euro_instance();
        let country = ClassName::new("CountryE");
        let rows = inst.class_row_index(&country);
        let col = inst.attr_column(&country, "name");
        assert_eq!(col.rows(), rows.len());
        assert!(inst.has_attr_column(&country, "name"));
        // Columns are shared, not rebuilt, until a mutation.
        assert!(Arc::ptr_eq(&col, &inst.attr_column(&country, "name")));
        // Every cell round-trips to the row-major projection bit-for-bit.
        let dict = inst.dict_strings();
        for (i, oid) in rows.iter().enumerate() {
            let expected = inst.value(oid).unwrap().project("name").cloned();
            assert_eq!(col.value_at(i, &dict), expected, "row {i}");
        }
        // String cells are dictionary codes into the instance-wide interner.
        let uk_name = inst.value(&uk).unwrap().project("name").unwrap().clone();
        let Value::Str(uk_name) = uk_name else {
            panic!("name is a string");
        };
        assert!(inst.dict_code(&uk_name).is_some());
        // Mutating the class drops its columns and row index, not the dict.
        let fr_value = inst.value(&fr).unwrap().clone();
        inst.update(&fr, fr_value).unwrap();
        assert!(!inst.has_attr_column(&country, "name"));
        assert_eq!(inst.dict_code(&uk_name), Some(0));
        // The rebuilt column re-derives the same codes and values.
        let rebuilt = inst.attr_column(&country, "name");
        let dict = inst.dict_strings();
        assert_eq!(rebuilt.value_at(0, &dict), col.value_at(0, &dict));
    }

    #[test]
    fn bulk_insert_matches_per_object_inserts() {
        let class = ClassName::new("C");
        let objects: Vec<(Oid, Value)> = (0..5)
            .map(|i| {
                (
                    Oid::new(class.clone(), i),
                    Value::record([("n", Value::int(i as i64))]),
                )
            })
            .collect();
        let mut bulk = Instance::new("S");
        bulk.begin_mutation_log();
        bulk.bulk_insert(&class, objects.clone()).unwrap();
        let mut single = Instance::new("S");
        single.begin_mutation_log();
        for (oid, value) in objects.clone() {
            single.insert(oid, value).unwrap();
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.take_mutation_log(), single.take_mutation_log());
        // A duplicate anywhere in the batch inserts nothing.
        let before = bulk.clone();
        let mut batch = vec![(
            Oid::new(class.clone(), 100),
            Value::record([("n", Value::int(100))]),
        )];
        batch.push(objects[0].clone());
        assert!(bulk.bulk_insert(&class, batch).is_err());
        assert_eq!(bulk, before);
        // Bulk inserts invalidate the derived caches like any mutation.
        assert!(!bulk.is_empty());
    }

    #[test]
    fn attr_index_maintained_across_mutations() {
        let (mut inst, uk, _) = euro_instance();
        let country = ClassName::new("CountryE");
        assert_eq!(
            inst.lookup_by_attr(&country, "currency", &Value::str("sterling"))
                .len(),
            1
        );
        assert!(inst.has_attr_index(&country, "currency"));
        // An update keeps the built index and moves the entry; the stats
        // caches (histograms/columns) still invalidate wholesale.
        inst.attr_histogram(&country, "currency");
        assert!(inst.has_attr_histogram(&country, "currency"));
        let mut v = inst.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("currency".into(), Value::str("pound"));
        }
        inst.update(&uk, v).unwrap();
        assert!(inst.has_attr_index(&country, "currency"));
        assert!(!inst.has_attr_histogram(&country, "currency"));
        assert!(inst
            .lookup_by_attr(&country, "currency", &Value::str("sterling"))
            .is_empty());
        assert_eq!(
            inst.lookup_by_attr(&country, "currency", &Value::str("pound")),
            vec![uk.clone()]
        );
        // Inserts and removes adjust the maintained entries in place too.
        let fresh = inst.insert_fresh(
            &country,
            Value::record([
                ("name", Value::str("Spain")),
                ("currency", Value::str("peseta")),
            ]),
        );
        assert!(inst.has_attr_index(&country, "currency"));
        assert_eq!(
            inst.lookup_by_attr(&country, "currency", &Value::str("peseta")),
            vec![fresh.clone()]
        );
        inst.remove(&fresh);
        assert!(inst.has_attr_index(&country, "currency"));
        assert!(inst
            .lookup_by_attr(&country, "currency", &Value::str("peseta"))
            .is_empty());
        // The maintained index must be indistinguishable from a fresh
        // rebuild: a clone starts cold and rebuilds from scratch.
        let rebuilt = inst.clone();
        for value in ["pound", "franc", "lira", "sterling", "peseta"] {
            assert_eq!(
                inst.lookup_by_attr(&country, "currency", &Value::str(value)),
                rebuilt.lookup_by_attr(&country, "currency", &Value::str(value)),
                "maintained index diverged from a rebuild on {value:?}"
            );
        }

        // A composite index is maintained the same way through random
        // inserts, updates and removals, some of objects lacking `language`:
        // bucket for bucket what a rebuild holds, while a snapshot taken
        // before keeps the buckets it had.
        let attrs = ["currency", "language"];
        let contents = |version: &Instance| {
            let probe = [&Value::str("pound"), &Value::str("English")];
            version.lookup_by_attrs(&country, &attrs, &probe, &mut Vec::new());
            let cache = version.cache_read();
            cache.get(&country, &attrs).map(AttrIndex::contents)
        };
        let before = contents(&inst);
        let held = inst.snapshot();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..200 {
            let mut fields = vec![("currency", Value::str(["pound", "franc", "lira"][next(3)]))];
            if next(3) != 0 {
                fields.push(("language", Value::str(["English", "French"][next(2)])));
            }
            let value = Value::record(fields);
            let ids: Vec<Oid> = inst.extent(&country).cloned().collect();
            match next(3) {
                0 if !ids.is_empty() => drop(inst.remove(&ids[next(ids.len())])),
                1 if !ids.is_empty() => inst.update(&ids[next(ids.len())], value).unwrap(),
                _ => drop(inst.insert_fresh(&country, value)),
            }
        }
        assert_eq!(contents(&inst), contents(&inst.clone()));
        assert_ne!(contents(&inst), before);
        assert_eq!(contents(&held), before);
    }

    /// `key_groups` is the extent grouped by attribute tuple: through random
    /// inserts, updates and removals of values of two kinds, some lacking an
    /// attribute, on the maintained index, and on an index whose every entry
    /// sits in one bucket (a bucket is one hash, not one value).
    #[test]
    fn key_groups_are_the_extent_grouped_by_attribute_tuple() {
        let class = ClassName::new("C");
        let attrs: [Label; 2] = ["a".into(), "b".into()];
        let expected = |inst: &Instance| {
            let mut by_tuple: BTreeMap<Vec<&Value>, Vec<Oid>> = BTreeMap::new();
            for (oid, value) in inst.objects(&class) {
                let tuple: Option<Vec<&Value>> = attrs.iter().map(|a| value.project(a)).collect();
                if let Some(tuple) = tuple {
                    by_tuple.entry(tuple).or_default().push(oid.clone());
                }
            }
            let keyed = by_tuple.values().map(Vec::len).sum();
            let mut shared: Vec<Vec<Oid>> =
                by_tuple.into_values().filter(|g| g.len() > 1).collect();
            shared.sort();
            KeyGroups { keyed, shared }
        };
        let mut inst = Instance::new("s");
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..300 {
            let a = [Value::int(1), Value::str("1"), Value::int(2)][next(3)].clone();
            let mut fields = vec![("a", a)];
            if next(4) != 0 {
                fields.push(("b", Value::bool(next(2) == 0)));
            }
            let value = Value::record(fields);
            let ids: Vec<Oid> = inst.extent(&class).cloned().collect();
            match next(4) {
                0 if !ids.is_empty() => drop(inst.remove(&ids[next(ids.len())])),
                1 if !ids.is_empty() => inst.update(&ids[next(ids.len())], value).unwrap(),
                _ => drop(inst.insert_fresh(&class, value)),
            }
            if round % 25 == 0 {
                assert_eq!(inst.key_groups(&class, &attrs), expected(&inst));
            }
        }
        let groups = inst.key_groups(&class, &attrs);
        assert_eq!(groups, expected(&inst));
        assert!(groups.shared.iter().any(|g| g.len() > 2));
        let collided = inst.clone();
        let mut one_bucket = AttrIndex::default();
        for oid in collided.extent(&class).filter(|oid| {
            let value = collided.value(oid).unwrap();
            attrs.iter().all(|a| value.project(a).is_some())
        }) {
            one_bucket.add(0, oid.clone());
        }
        let key: Box<[Label]> = attrs.iter().cloned().collect();
        collided
            .cache_write()
            .insert_index(class.clone(), key, one_bucket);
        assert_eq!(collided.key_groups(&class, &attrs), groups);
    }

    #[test]
    fn merge_keyed_unifies_by_key_and_renumbers_the_rest() {
        use crate::keys::{KeyExpr, KeySpec};
        let keys = KeySpec::new().with_key("CountryE", KeyExpr::path("name"));
        let (mut inst, uk, _) = euro_instance();

        // An independently built fragment whose identities collide with
        // `inst` (both number from 0): one country shared by key, one new,
        // plus an unkeyed city referencing the shared country.
        let mut other = Instance::new("euro");
        let uk2 = other.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("name", Value::str("United Kingdom"))]),
        );
        other.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("Spain")),
                ("currency", Value::str("peseta")),
            ]),
        );
        other.insert_fresh(&ClassName::new("CityE"), city("Bristol", false, &uk2));
        assert_eq!(uk2, uk); // the same identity on both sides

        let mapping = inst.merge_keyed(&other, &keys).unwrap();
        // The shared key unified with the existing UK object...
        assert_eq!(mapping[&uk2], uk);
        assert_eq!(inst.extent_size(&ClassName::new("CountryE")), 3);
        // ... the new country got a fresh non-colliding identity ...
        let spain = inst
            .find_by_field(&ClassName::new("CountryE"), "name", &Value::str("Spain"))
            .unwrap();
        assert_eq!(
            inst.value(spain).unwrap().project("currency"),
            Some(&Value::str("peseta"))
        );
        // ... and the city's reference was rewritten to the unified identity.
        let bristol = inst
            .find_by_field(&ClassName::new("CityE"), "name", &Value::str("Bristol"))
            .unwrap();
        assert_eq!(
            inst.value(bristol).unwrap().project("country"),
            Some(&Value::oid(uk))
        );
    }

    #[test]
    fn merge_keyed_rejects_unevaluable_keys() {
        use crate::keys::{KeyExpr, KeySpec};
        let keys = KeySpec::new().with_key("CountryE", KeyExpr::path("name"));
        let (mut inst, _, _) = euro_instance();
        // An incoming keyed object without the key attribute cannot be merged
        // soundly: the error must propagate rather than minting a fresh,
        // key-violating identity.
        let mut other = Instance::new("euro");
        other.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("currency", Value::str("euro"))]),
        );
        assert!(inst.merge_keyed(&other, &keys).is_err());
    }

    #[test]
    fn merge_keyed_rejects_conflicting_fields() {
        use crate::keys::{KeyExpr, KeySpec};
        let keys = KeySpec::new().with_key("CountryE", KeyExpr::path("name"));
        let (mut inst, _, _) = euro_instance();
        let mut other = Instance::new("euro");
        other.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("currency", Value::str("euro")), // disagrees with "franc"
            ]),
        );
        let err = inst.merge_keyed(&other, &keys).unwrap_err();
        let ModelError::Conflict(conflict) = &err else {
            panic!("not a conflict: {err}");
        };
        assert_eq!(&*conflict.label, "currency");
        assert_eq!(
            err.to_string(),
            format!(
                "object {} receives conflicting values for `currency`",
                conflict.oid
            )
        );
    }

    /// Recovery-shaped merges: fragments numbered independently have
    /// overlapping identity spaces (each numbered from 0), emptied classes,
    /// and possibly dangling references. `merge_keyed` must unify the
    /// overlap by key, carry empty extents without phantom objects, and
    /// reject a keyed fragment whose key path dangles.
    #[test]
    fn merge_keyed_under_recovery_shaped_inputs() {
        use crate::keys::{KeyExpr, KeySpec};
        let keys = KeySpec::new().with_key("CountryE", KeyExpr::path("name"));
        let country = ClassName::new("CountryE");
        let city = ClassName::new("CityE");

        // Two fragments numbered from 0 each: identity spaces overlap and
        // the key sets overlap on "France".
        let build = |names: &[&str]| {
            let mut frag = Instance::new("euro");
            for (id, name) in names.iter().enumerate() {
                let oid = Oid::new(country.clone(), id as u64);
                frag.insert(oid, Value::record([("name", Value::str(*name))]))
                    .unwrap();
            }
            frag
        };
        let mut merged = build(&["France", "Spain"]);
        let mut other = build(&["France", "Portugal"]);
        // An emptied class rides along (crash after its objects were removed).
        let ghost = other.insert_fresh(&city, Value::record([("name", Value::str("Ghost"))]));
        other.remove(&ghost);
        assert_eq!(other.extent_size(&city), 0);

        let mapping = merged.merge_keyed(&other, &keys).unwrap();
        assert_eq!(merged.extent_size(&country), 3, "France unified by key");
        // The overlapping key mapped onto the existing (same-numbered)
        // identity; the new key got a fresh non-colliding one.
        let france = Oid::new(country.clone(), 0);
        assert_eq!(mapping[&france], france);
        let portugal = Oid::new(country.clone(), 1);
        assert_ne!(mapping[&portugal], portugal, "colliding id renumbered");
        // The emptied class contributed no phantom objects.
        assert_eq!(merged.extent_size(&city), 0);
        // Keys remain evaluable and unique after the merge.
        keys.check(&merged).unwrap();

        // A fragment whose keyed object references a dangling identity in
        // its key path is rejected, not silently merged with a fresh
        // key-violating identity.
        let keys_by_ref = KeySpec::new().with_key("CityE", KeyExpr::path("country.name"));
        let mut broken = Instance::new("euro");
        let dangling = Oid::new(country.clone(), 77);
        broken.insert_fresh(
            &city,
            Value::record([
                ("name", Value::str("Atlantis")),
                ("country", Value::Oid(dangling)),
            ]),
        );
        let err = merged.merge_keyed(&broken, &keys_by_ref).unwrap_err();
        assert!(
            matches!(err, ModelError::DanglingOid(_)),
            "dangling key path must be rejected, got: {err}"
        );
    }

    #[test]
    fn attr_histogram_is_lazy_and_reflects_the_extent() {
        let (inst, _, _) = euro_instance();
        let city = ClassName::new("CityE");
        assert!(!inst.has_attr_histogram(&city, "is_capital"));
        let h = inst.attr_histogram(&city, "is_capital");
        assert!(inst.has_attr_histogram(&city, "is_capital"));
        assert_eq!(h.entries(), 3);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.eq_count(&Value::bool(true)), 2.0);
        assert_eq!(h.eq_count(&Value::bool(false)), 1.0);
        // A second request answers from the cache (same content).
        assert_eq!(inst.attr_histogram(&city, "is_capital"), h);
    }

    #[test]
    fn attr_histogram_of_an_empty_extent_is_empty() {
        let inst = Instance::new("euro");
        let h = inst.attr_histogram(&ClassName::new("Ghost"), "name");
        assert!(h.is_empty());
        assert_eq!(h.eq_count(&Value::str("anything")), 0.0);
    }

    #[test]
    fn attr_histogram_skips_objects_missing_the_attribute() {
        let mut inst = Instance::new("euro");
        let class = ClassName::new("CloneS");
        inst.insert_fresh(&class, Value::record([("name", Value::str("a"))]));
        inst.insert_fresh(
            &class,
            Value::record([("name", Value::str("b")), ("length", Value::int(7))]),
        );
        let h = inst.attr_histogram(&class, "length");
        assert_eq!(h.entries(), 1);
        assert_eq!(h.distinct(), 1);
        assert_eq!(h.eq_count(&Value::int(7)), 1.0);
    }

    #[test]
    fn attr_histogram_invalidated_by_class_mutation() {
        // The stale-histogram bug class: any insert/update/remove on the
        // class must drop its histograms, and the rebuilt histogram must see
        // the new data.
        let (mut inst, uk, _) = euro_instance();
        let country = ClassName::new("CountryE");
        let city = ClassName::new("CityE");
        let before = inst.attr_histogram(&country, "currency");
        assert_eq!(before.eq_count(&Value::str("sterling")), 1.0);
        assert_eq!(before.eq_count(&Value::str("peseta")), 0.0);

        // Insert into the class: histogram dropped, rebuild sees the object.
        inst.insert_fresh(
            &country,
            Value::record([
                ("name", Value::str("Spain")),
                ("currency", Value::str("peseta")),
            ]),
        );
        assert!(!inst.has_attr_histogram(&country, "currency"));
        let after_insert = inst.attr_histogram(&country, "currency");
        assert_eq!(after_insert.eq_count(&Value::str("peseta")), 1.0);

        // Update: the old value disappears from the rebuilt histogram.
        let mut v = inst.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("currency".into(), Value::str("pound"));
        }
        inst.update(&uk, v).unwrap();
        assert!(!inst.has_attr_histogram(&country, "currency"));
        let after_update = inst.attr_histogram(&country, "currency");
        assert_eq!(after_update.eq_count(&Value::str("sterling")), 0.0);
        assert_eq!(after_update.eq_count(&Value::str("pound")), 1.0);

        // Mutating one class leaves another class's histograms cached.
        let _ = inst.attr_histogram(&city, "name");
        inst.remove(&uk);
        assert!(!inst.has_attr_histogram(&country, "currency"));
        assert!(inst.has_attr_histogram(&city, "name"));
    }

    #[test]
    fn clones_do_not_inherit_the_index_cache() {
        let (inst, _, _) = euro_instance();
        inst.lookup_by_attr(&ClassName::new("CountryE"), "name", &Value::str("France"));
        assert_eq!(inst.attr_index_count(), 1);
        let copy = inst.clone();
        assert_eq!(copy.attr_index_count(), 0);
        assert_eq!(copy, inst);
    }

    #[test]
    fn snapshots_carry_built_attr_indexes_and_stay_bit_identical_to_a_rebuild() {
        let (mut inst, uk, fr) = euro_instance();
        let country = ClassName::new("CountryE");
        inst.lookup_by_attr(&country, "currency", &Value::str("franc"));
        inst.attr_histogram(&country, "currency");
        inst.attr_column(&country, "currency");
        let held = inst.snapshot();
        // The index came along by reference; statistics did not.
        assert!(held.has_attr_index(&country, "currency"));
        assert_eq!(held.built_attr_indexes(), inst.built_attr_indexes());
        assert!(!held.has_attr_histogram(&country, "currency"));
        assert!(!held.has_attr_column(&country, "currency"));
        assert!(held.mutation_log.is_none());
        assert_eq!(held, inst);
        let sharing = held.storage_shared_with(&inst);
        assert_eq!(sharing.shared_chunks, sharing.chunks);
        assert_eq!(sharing.shared_index_shards, sharing.index_shards);
        assert!(sharing.index_shards > 0);

        // The writer moves on: an update, a removal, an insert.
        let mut v = inst.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("currency".into(), Value::str("franc"));
        }
        inst.update(&uk, v).unwrap();
        inst.remove(&fr);
        let spain = inst.insert_fresh(
            &country,
            Value::record([
                ("name", Value::str("Spain")),
                ("currency", Value::str("peseta")),
            ]),
        );
        // The held version answers as it did, exactly like a cold rebuild of
        // the same objects; the writer's maintained index like a rebuild of
        // the new ones.
        for (version, expected) in [
            (&held, [vec![uk.clone()], vec![fr.clone()], vec![]]),
            (&inst, [vec![], vec![uk.clone()], vec![spain.clone()]]),
        ] {
            let rebuilt = version.clone();
            assert_eq!(rebuilt.attr_index_count(), 0);
            for (currency, hits) in ["sterling", "franc", "peseta"].iter().zip(&expected) {
                let probe = Value::str(*currency);
                assert_eq!(&version.lookup_by_attr(&country, "currency", &probe), hits);
                assert_eq!(&rebuilt.lookup_by_attr(&country, "currency", &probe), hits);
            }
            let contents = |version: &Instance| {
                version
                    .cache_read()
                    .get(&country, &["currency"])
                    .map(AttrIndex::contents)
            };
            assert_eq!(contents(version), contents(&rebuilt));
        }
        assert!(held.contains(&fr) && !held.contains(&spain));

        // Adoption builds what the other version probed and this one lacks —
        // and only that.
        let reader = inst.snapshot();
        reader.lookup_by_attr(&country, "name", &Value::str("Spain"));
        assert!(!inst.has_attr_index(&country, "name"));
        inst.adopt_attr_indexes(&reader);
        assert!(inst.has_attr_index(&country, "name"));
        assert_eq!(inst.attr_index_count(), 2);
    }

    /// The parallel executors rely on sharing `&Instance` across scoped
    /// threads; this pins the auto-traits at compile time.
    #[test]
    fn instance_is_send_and_sync_for_scoped_thread_sharing() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Instance>();
        assert_send_sync::<Value>();
        assert_send_sync::<Oid>();
    }

    /// Concurrent probes of a shared instance build the lazy index and
    /// histogram caches safely and agree with a sequential probe; every
    /// reader holds the one cached histogram.
    #[test]
    fn concurrent_reads_share_the_lazy_caches() {
        let (inst, _, fr) = euro_instance();
        let country = ClassName::new("CountryE");
        let city = ClassName::new("CityE");
        let expected = inst.lookup_by_attr(&country, "name", &Value::str("France"));
        let shared = &inst;
        let (country, city) = (&country, &city);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(scope.spawn(move || {
                    let hits = shared.lookup_by_attr(country, "name", &Value::str("France"));
                    (hits, shared.attr_histogram(city, "is_capital"))
                }));
            }
            let cached = inst.attr_histogram(city, "is_capital");
            for handle in handles {
                let (hits, hist) = handle.join().expect("reader thread panicked");
                assert_eq!(hits, expected);
                assert!(Arc::ptr_eq(&hist, &cached));
                assert_eq!(hist.eq_count(&Value::bool(true)), 2.0);
            }
        });
        assert_eq!(expected, vec![fr]);
    }

    /// `n` objects of class `Wide`, object `i` carrying a unique `key` `i`
    /// and `bin` `i mod 64`.
    fn wide_instance(n: usize) -> (Instance, ClassName) {
        let class = ClassName::new("Wide");
        let objects = (0..n as u64)
            .map(|id| {
                let (key, bin) = (Value::int(id as i64), Value::int((id % 64) as i64));
                (
                    Oid::new(class.clone(), id),
                    Value::record([("key", key), ("bin", bin)]),
                )
            })
            .collect();
        let mut inst = Instance::new("wide");
        inst.bulk_insert(&class, objects).unwrap();
        (inst, class)
    }

    /// Readers released together at the first probe of one composite index
    /// build it once, and every one of them reads that build.
    #[test]
    fn racing_first_probes_build_an_index_once() {
        let (inst, class) = wide_instance(20_000);
        let (attrs, values) = (["bin", "key"], [&Value::int(7), &Value::int(10_119)]);
        let start = std::sync::Barrier::new(8);
        let answers: Vec<Vec<Oid>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut found = Vec::new();
                        inst.lookup_by_attrs(&class, &attrs, &values, &mut found);
                        found
                    })
                })
                .collect();
            let answers = readers.into_iter().map(|reader| reader.join());
            answers.collect::<std::thread::Result<_>>().unwrap()
        });
        assert_eq!(inst.cache_read().builds, 1);
        assert!(answers
            .iter()
            .all(|found| *found == [Oid::new(class.clone(), 10_119)]));
    }

    /// A histogram sampled over more objects than the threshold reports the
    /// population's distinct values, not the sample's.
    #[test]
    fn a_sampled_histogram_counts_every_distinct_value() {
        let n = SAMPLE_THRESHOLD + 1_000;
        let (inst, class) = wide_instance(n);
        assert_eq!(inst.attr_histogram(&class, "key").distinct(), n);
    }

    #[test]
    fn mutation_log_records_applied_changes_in_order() {
        let (mut inst, uk, _) = euro_instance();
        assert!(inst.mutation_log.is_none());
        // Mutations before the log starts are not recorded.
        inst.begin_mutation_log();
        assert!(inst.mutation_log.is_some());
        assert!(inst.take_mutation_log().is_empty());

        let country = ClassName::new("CountryE");
        let spain = inst.insert_fresh(&country, Value::record([("name", Value::str("Spain"))]));
        let explicit = Oid::new(ClassName::new("StateA"), 7);
        inst.insert(
            explicit.clone(),
            Value::record([("name", Value::str("PA"))]),
        )
        .unwrap();
        inst.update(&spain, Value::record([("name", Value::str("España"))]))
            .unwrap();
        inst.remove(&uk).unwrap();
        // A failed mutation records nothing.
        assert!(inst.update(&uk, Value::Unit).is_err());
        assert!(inst.remove(&uk).is_none());

        let log = inst.take_mutation_log();
        assert_eq!(
            log,
            vec![
                Mutation::Insert(
                    spain.clone(),
                    Value::record([("name", Value::str("Spain"))])
                ),
                Mutation::Insert(explicit, Value::record([("name", Value::str("PA"))])),
                Mutation::Update(spain, Value::record([("name", Value::str("España"))])),
                Mutation::Remove(uk),
            ]
        );
        // Draining keeps the log active; ending it stops recording.
        assert!(inst.mutation_log.is_some());
        let leftover = inst.end_mutation_log();
        assert!(leftover.is_empty());
        assert!(inst.mutation_log.is_none());
        // Clones never inherit an active log.
        let mut logged = Instance::new("euro");
        logged.begin_mutation_log();
        assert!(logged.clone().mutation_log.is_none());
    }

    #[test]
    fn replaying_a_mutation_log_reproduces_the_instance() {
        let (mut inst, uk, _) = euro_instance();
        let before = inst.clone();
        inst.begin_mutation_log();
        let country = ClassName::new("CountryE");
        inst.insert_fresh(&country, Value::record([("name", Value::str("Spain"))]));
        inst.remove(&uk);
        let log = inst.end_mutation_log();

        let mut replayed = before;
        for m in log {
            match m {
                Mutation::Insert(oid, value) => replayed.insert(oid, value).unwrap(),
                Mutation::Update(oid, value) => replayed.update(&oid, value).unwrap(),
                Mutation::Remove(oid) => {
                    replayed.remove(&oid);
                }
            }
        }
        // Replay restores extents and values; fresh-identity counters are
        // restored separately (explicit-id inserts bypass the generator).
        for (class, n) in inst.oid_counters() {
            replayed.restore_oid_counter(class, n);
        }
        assert_eq!(replayed, inst);
        assert_eq!(replayed.deep_eq_report(&inst), None);
    }

    #[test]
    fn deep_eq_report_finds_the_first_divergence() {
        let (inst, uk, _) = euro_instance();
        assert_eq!(inst.deep_eq_report(&inst.clone()), None);

        // Schema name.
        let other = Instance::new("us");
        let report = inst.deep_eq_report(&other).unwrap();
        assert!(report.contains("schema name"), "{report}");

        // Extent membership.
        let mut missing = inst.clone();
        missing.remove(&uk);
        let report = inst.deep_eq_report(&missing).unwrap();
        assert!(report.contains("CountryE"), "{report}");
        assert!(report.contains("left only"), "{report}");
        let report = missing.deep_eq_report(&inst).unwrap();
        assert!(report.contains("right only"), "{report}");

        // Attribute-level divergence names class, oid and attribute.
        let mut edited = inst.clone();
        let mut v = edited.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("currency".into(), Value::str("pound"));
        }
        edited.update(&uk, v).unwrap();
        let report = inst.deep_eq_report(&edited).unwrap();
        assert!(report.contains(&uk.to_string()), "{report}");
        assert!(report.contains("currency"), "{report}");
        assert!(report.contains("sterling"), "{report}");
        assert!(report.contains("pound"), "{report}");

        // A missing attribute on either side.
        let mut dropped = inst.clone();
        let mut v = dropped.value(&uk).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            *fields = fields
                .iter()
                .filter(|(label, _)| label.as_str() != "currency")
                .map(|(label, value)| (label.clone(), value.clone()))
                .collect();
        }
        dropped.update(&uk, v).unwrap();
        let report = inst.deep_eq_report(&dropped).unwrap();
        assert!(report.contains("right missing"), "{report}");
        let report = dropped.deep_eq_report(&inst).unwrap();
        assert!(report.contains("left missing"), "{report}");

        // A long multi-byte value is shortened at a character boundary,
        // whichever byte the cut falls on.
        for prefix in ["", "a"] {
            let mut long = inst.clone();
            let mut v = long.value(&uk).unwrap().clone();
            if let Value::Record(ref mut fields) = v {
                let text = format!("{prefix}{}", "é".repeat(100));
                fields.insert("currency".into(), Value::str(text));
            }
            long.update(&uk, v).unwrap();
            let report = inst.deep_eq_report(&long).unwrap();
            assert!(report.ends_with("..."), "{report}");
        }

        // Oid-counter divergence (same objects, different generator state).
        let mut ahead = inst.clone();
        ahead.restore_oid_counter(&ClassName::new("CityE"), 9);
        let report = inst.deep_eq_report(&ahead).unwrap();
        assert!(report.contains("oid counter"), "{report}");
        assert!(report.contains("CityE"), "{report}");
    }

    #[test]
    fn populated_classes_in_order() {
        let (inst, _, _) = euro_instance();
        assert_eq!(
            inst.populated_classes(),
            vec![ClassName::new("CityE"), ClassName::new("CountryE")]
        );
    }
}
